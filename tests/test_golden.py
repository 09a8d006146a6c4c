"""Byte-for-byte regression corpus of the harness CSV output.

``tests/golden/<preset>__<scenario>.csv`` holds the CSV that every preset
gives under every scenario at four trials per sweep point: 4 presets by 6
scenarios, less example4's two bound scenarios, which its random per-trial
angles make invalid. Together they pin the estimators, the bounds, the theta
sweep and the sentinel and failure paths that the benchmark references do not
reach.

A change meant to keep the outputs must pass this test unchanged. Rewrite the
files only for a change meant to alter them, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

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
TRIALS = 4


def golden_cases() -> list:
    cases = []
    for name in PRESET_NAMES:
        for scenario in SCENARIOS:
            if preset(name).random_theta and scenario in CRLB_SCENARIOS:
                continue
            cases.append((name, scenario))
    return cases


def golden_csv(name: str, scenario: str) -> str:
    cfg = replace(preset(name), scenario=scenario, trials=TRIALS)
    return csv_text(run_experiment(cfg))


def golden_path(name: str, scenario: str) -> Path:
    return GOLDEN_DIR / f"{name}__{scenario}.csv"


def test_corpus_covers_every_case():
    assert len(golden_cases()) == 22
    assert sorted(GOLDEN_DIR.glob("*.csv")) == sorted(
        golden_path(*case) for case in golden_cases())


@pytest.mark.parametrize("name,scenario", golden_cases())
def test_csv_matches_golden(name, scenario):
    expected = golden_path(name, scenario).read_bytes()
    assert golden_csv(name, scenario).encode("utf-8") == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for case in golden_cases():
        golden_path(*case).write_bytes(golden_csv(*case).encode("utf-8"))
