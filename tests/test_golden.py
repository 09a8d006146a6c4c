"""Byte-for-byte regression corpus of the harness CSV output.

``tests/golden/<preset>__<scenario>.csv`` holds the CSV that every preset
gives under every scenario at four trials per sweep point: 4 presets by 6
scenarios, less example4's two bound scenarios, which its random per-trial
angles make invalid. ``<preset>__<scenario>__<variant>.csv`` holds a preset
changed as ``VARIANTS`` says. Together they pin the estimators, the bounds,
the theta sweep and the sentinel and failure paths that the benchmark
references do not reach. The CSV prints nine significant digits, so
``tests/golden/bits.txt`` pins the bits: one line per record with its case
id and ``float.hex`` of its sweep value, ``rmse_deg`` and ``root_crlb_deg``
("-" where empty).

A change meant to keep the outputs must pass this test unchanged. Rewrite the
files only for a change meant to alter them, and say why in CHANGES.md; this
regenerates the CSV files and ``bits.txt`` together:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import functools
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pencil_doa.harness import (
    CRLB_SCENARIOS,
    PRESET_NAMES,
    SCENARIOS,
    csv_text,
    preset,
    run_experiment,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BITS_PATH = GOLDEN_DIR / "bits.txt"
TRIALS = 4

# Preset fields changed by each variant; "" is the preset as it is. In
# "folded" the sources at -30 and 30 deg both sit at m_rf*mu = 0 mod 2*pi on
# example2's dilated virtual array, so every spc_mpm trial raises
# AmbiguousGeometryError and the row carries the failure sentinel.
VARIANTS = {
    "": {},
    "folded": {"angles_deg": (-30.0, 30.0), "grid": (math.inf,)},
}


def golden_cases() -> list:
    """(preset, scenario, variant) for every file in the corpus."""
    cases = []
    for name in PRESET_NAMES:
        for scenario in SCENARIOS:
            if preset(name).random_theta and scenario in CRLB_SCENARIOS:
                continue
            cases.append((name, scenario, ""))
    cases.append(("example2", "spc_mpm", "folded"))
    return cases


def case_id(case: tuple) -> str:
    return "-".join(filter(None, case))


@functools.cache
def golden_records(name: str, scenario: str, variant: str) -> tuple:
    cfg = replace(preset(name), scenario=scenario, trials=TRIALS,
                  **VARIANTS[variant])
    return tuple(run_experiment(cfg))


def golden_csv(name: str, scenario: str, variant: str) -> str:
    return csv_text(golden_records(name, scenario, variant))


def golden_bits(name: str, scenario: str, variant: str) -> list:
    """One line per record: case id, then its floats as ``float.hex`` or "-"."""
    case = case_id((name, scenario, variant))
    return [" ".join([case] + ["-" if value is None else float.hex(value)
                               for value in (rec.sweep_value, rec.rmse_deg,
                                             rec.root_crlb_deg)])
            for rec in golden_records(name, scenario, variant)]


def golden_bits_lines(case: str) -> list:
    lines = BITS_PATH.read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.split(" ", 1)[0] == case]


def golden_path(name: str, scenario: str, variant: str) -> Path:
    return GOLDEN_DIR / f"{'__'.join(filter(None, (name, scenario, variant)))}.csv"


def test_corpus_covers_every_case():
    assert len(golden_cases()) == 23
    assert sorted(GOLDEN_DIR.glob("*.csv")) == sorted(
        golden_path(*case) for case in golden_cases())
    lines = BITS_PATH.read_text(encoding="utf-8").splitlines()
    assert {line.split(" ", 1)[0] for line in lines} == {
        case_id(case) for case in golden_cases()}


@pytest.mark.parametrize("name,scenario,variant", golden_cases(),
                         ids=[case_id(case) for case in golden_cases()])
def test_csv_matches_golden(name, scenario, variant):
    expected = golden_path(name, scenario, variant).read_bytes()
    assert golden_csv(name, scenario, variant).encode("utf-8") == expected


@pytest.mark.parametrize("name,scenario,variant", golden_cases(),
                         ids=[case_id(case) for case in golden_cases()])
def test_bits_match_golden(name, scenario, variant):
    expected = golden_bits_lines(case_id((name, scenario, variant)))
    assert golden_bits(name, scenario, variant) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for case in golden_cases():
        golden_path(*case).write_bytes(golden_csv(*case).encode("utf-8"))
    BITS_PATH.write_text("".join(line + "\n" for case in golden_cases()
                                 for line in golden_bits(*case)), encoding="utf-8")
