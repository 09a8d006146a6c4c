"""Traced runs of the real package and the reference check."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import run  # noqa: E402
import spans  # noqa: E402

PKG = run.load_package()


def traced_calls(name: str, tmp_path) -> dict:
    workload = run.WORKLOADS[name]
    exp_seed = run.experiment_seed(workload, 0)
    expected = run.load_references(name, workload, exp_seed)
    cfg = run.workload_config(PKG, workload, exp_seed)
    _, metrics, details = run.per_layer(PKG, cfg, 0.0, expected,
                                        tmp_path / "out.csv")
    assert details["sweeps_traced"] == 1
    return {k: v for k, (v, unit) in metrics.items() if k.endswith(".calls")}


def test_call_counts_repeat_across_traced_runs(tmp_path):
    first = traced_calls("spc_mpm_snr", tmp_path)
    second = traced_calls("spc_mpm_snr", tmp_path)
    assert first == second
    assert first["pencil.hankel.calls"] > 0
    assert first["estimators.build_disambiguation.calls"] > 0


def test_no_wrapper_survives_a_traced_run(tmp_path):
    hankel, augment = PKG.pencil.hankel, PKG.estimators.augment
    traced_calls("pmpm_fc_budget", tmp_path)
    assert spans.wrapped_attributes(run.PACKAGE) == []
    assert PKG.pencil.hankel is hankel
    assert PKG.estimators.augment is augment is PKG.pencil.augment


def test_reference_check_tolerance():
    workload = run.WORKLOADS["pmpm_fc_wide"]
    rows = run.load_references("pmpm_fc_wide", workload, workload.seed)
    records = [PKG.ResultRecord(sweep_value=r["sweep"], scenario=r["scenario"],
                                rmse_deg=r["rmse_deg"],
                                root_crlb_deg=r["root_crlb_deg"],
                                trials=r["trials"], failures=r["failures"],
                                wall_ms=7)
               for r in rows]
    assert run.mismatches(records, rows) == []
    near = [replace(records[0], rmse_deg=records[0].rmse_deg * (1 + 1e-12))]
    assert run.mismatches(near + records[1:], rows) == []
    far = [replace(records[0], rmse_deg=records[0].rmse_deg * (1 + 1e-8))]
    assert len(run.mismatches(far + records[1:], rows)) == 1
    failed = [replace(records[0], failures=1)]
    assert len(run.mismatches(failed + records[1:], rows)) == 1
    assert run.mismatches(records[:-1], rows) != []
    no_bound = [replace(records[0], root_crlb_deg=None)]
    assert len(run.mismatches(no_bound + records[1:], rows)) == 1


def test_every_seed_has_a_reference():
    for name, workload in run.WORKLOADS.items():
        for seed in range(run.SEED_POOL):
            assert run.load_references(name, workload,
                                       run.experiment_seed(workload, seed))


def test_seeds_outside_the_pool_fold_onto_tuning_seeds():
    workload = run.WORKLOADS["spc_mpm_snr"]
    pool = range(workload.seed, workload.seed + run.HELD_OUT_SEED)
    for seed in (-1, run.SEED_POOL, run.SEED_POOL + run.HELD_OUT_SEED,
                 2**31 - 1, -(2**40)):
        exp_seed = run.experiment_seed(workload, seed)
        assert exp_seed in pool
        assert exp_seed == run.experiment_seed(workload, seed)
    assert run.experiment_seed(workload, run.HELD_OUT_SEED) not in pool
