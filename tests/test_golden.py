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
("-" where empty). Those bits hold for one host: ``run_experiment`` pins
OpenBLAS to one thread, so the process's BLAS thread count does not move
them, but the SIMD extensions numpy dispatches to do. The CSV bytes must
not, so they are also checked with every dispatched extension disabled.

A change meant to keep the outputs must pass this test unchanged. Rewrite the
files only for a change meant to alter them, and say why in CHANGES.md; this
regenerates the CSV files and ``bits.txt`` together:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import ctypes
import functools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pencil_doa.harness import (
    CRLB_SCENARIOS,
    PRESET_NAMES,
    SCENARIOS,
    csv_text,
    preset,
    run_experiment,
)

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_DIR = TESTS_DIR / "golden"
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


def dispatched_simd() -> list:
    """The SIMD extensions past its baseline that numpy dispatches to on this host."""
    return np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])


def blas_threads():
    """The thread count of numpy's bundled OpenBLAS, or None where it cannot be read."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                return getter()
    return None


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
    assert golden_bits(name, scenario, variant) == expected, (
        f"bits differ from bits.txt with numpy {np.__version__} and SIMD dispatch "
        f"{dispatched_simd()}; run_experiment pins OpenBLAS to one thread (this "
        f"process starts with {blas_threads()})")


def test_csv_matches_golden_without_simd_dispatch():
    # the CSV's nine digits must not depend on the SIMD level numpy picks
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS_DIR.parent / "src"),
                                                       str(TESTS_DIR)]),
               NPY_DISABLE_CPU_FEATURES=" ".join(dispatched_simd()))
    script = ("import json, test_golden as g; print(json.dumps("
              "{g.case_id(case): g.golden_csv(*case) for case in g.golden_cases()}))")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    csvs = json.loads(done.stdout)
    assert [case_id(case) for case in golden_cases()
            if csvs[case_id(case)].encode("utf-8") != golden_path(*case).read_bytes()] == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for case in golden_cases():
        golden_path(*case).write_bytes(golden_csv(*case).encode("utf-8"))
    BITS_PATH.write_text("".join(line + "\n" for case in golden_cases()
                                 for line in golden_bits(*case)), encoding="utf-8")
