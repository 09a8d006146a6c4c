import argparse
import csv
import math
import os
import platform
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest

from pencil_doa import harness
from pencil_doa.cli import build_parser
from pencil_doa.cli import main as cli_main
from pencil_doa.errors import ConfigError, LowSnrWarning, OutOfRangeWarning
from pencil_doa.pencil import STACK_BYTES
from pencil_doa.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRecord,
    _SweepPoint,
    _fixed9,
    _receiver,
    config_from_mapping,
    emit_csv,
    load_config_file,
    parse_config_value,
    preset,
    run_experiment,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestConfigValidation:
    def test_unknown_scenario(self):
        cfg = ExperimentConfig(scenario="music")
        with pytest.raises(ConfigError, match="scenario"):
            cfg.validate()

    def test_empty_grid(self):
        cfg = ExperimentConfig(scenario="fd_mpm", grid=())
        with pytest.raises(ConfigError, match="grid"):
            cfg.validate()

    def test_bad_rf_chains(self):
        cfg = ExperimentConfig(scenario="pmpm_fc", m=32, l=12, sweep="theta",
                               grid=(0.0,))
        with pytest.raises(ConfigError, match="l:"):
            cfg.validate()

    def test_theta_sweep_needs_single_source(self):
        cfg = ExperimentConfig(scenario="fd_mpm", angles_deg=(0.0, 10.0),
                               sweep="theta", grid=(0.0,))
        with pytest.raises(ConfigError, match="angles_deg"):
            cfg.validate()

    def test_powers_and_snr_exclusive(self):
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="theta", grid=(0.0,),
                               powers=(1.0,), snr_db=(10.0,))
        with pytest.raises(ConfigError, match="sources"):
            cfg.validate()

    def test_random_theta_rejected_for_bounds(self):
        cfg = ExperimentConfig(scenario="crlb_fd", random_theta=True,
                               sweep="snapshots", grid=(8,))
        with pytest.raises(ConfigError, match="random_theta"):
            cfg.validate()

    def test_negative_infinite_snr_rejected(self):
        # only +inf means noiseless
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="theta", grid=(0.0,),
                               snr_db=(-math.inf,))
        with pytest.raises(ConfigError, match="SNRs must be finite"):
            cfg.validate()

    def test_nan_snr_rejected(self):
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="theta", grid=(0.0,),
                               snr_db=(math.nan,))
        with pytest.raises(ConfigError, match="SNRs must be finite"):
            cfg.validate()

    def test_nan_in_snr_grid_rejected(self):
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="snr", snr_db=None,
                               grid=(0.0, math.nan))
        with pytest.raises(ConfigError, match="SNRs must be finite"):
            cfg.validate()

    @pytest.mark.parametrize("budget", [math.nan, math.inf, 2.9, 0])
    def test_snapshot_budget_must_be_whole_and_positive(self, budget):
        # the budget is a snapshot count, under the same rule as snapshots
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="snapshots",
                               grid=(budget, 2), snr_db=(10.0,))
        with pytest.raises(ConfigError, match="grid: snapshot budgets"):
            cfg.validate()

    @pytest.mark.parametrize("changes", [
        {"angles_deg": (10.0, 10.0)},
        {"angles_deg": (10.0, -0.0, 0.0), "sweep": "snapshots", "grid": (64,)},
        {"angles_deg": (10.0,), "sweep": "separation", "grid": (2.0, 1e-20)},
    ], ids=["snr", "signed-zero", "separation-below-rounding"])
    def test_coincident_sources_rejected(self, changes):
        cfg = ExperimentConfig(scenario="fd_mpm", snr_db=(10.0,), **changes)
        with pytest.raises(ConfigError, match="angles_deg|grid"):
            cfg.validate()

    @pytest.mark.parametrize("changes", [
        {"xi": 0}, {"xi": -3}, {"xi": 100}, {"xi": 8},
        {"scenario": "pmpm_fc", "l": 2, "xi": 8},
        {"scenario": "spc_mpm", "m": 16, "l": 4, "xi": 9},
        {"scenario": "spc_mpm", "m": 16, "l": 4, "xi": 4},
        {"angles_deg": (0.0, 20.0, 40.0), "xi": 2},
        {"angles_deg": (-15.0,), "sweep": "separation", "grid": (2.0,), "xi": 7},
    ], ids=["zero", "negative", "large", "equal-c", "pmpm-full-aperture",
            "spc-past-l", "spc-l-minus-0", "below-r", "separation-two-sources"])
    def test_explicit_xi_outside_pencil_range_rejected(self, changes):
        # C is L for the single-phase pencil and M otherwise; R as _receiver counts
        cfg = ExperimentConfig(**{"scenario": "fd_mpm", "m": 8, **changes})
        with pytest.raises(ConfigError, match="xi:"):
            cfg.validate()

    @pytest.mark.parametrize("changes", [
        {"xi": 1}, {"xi": 7}, {"scenario": "spc_mpm", "m": 16, "l": 4, "xi": 3},
        {"angles_deg": (0.0, 20.0, 40.0), "xi": 5},
        {"angles_deg": (0.0, 20.0, 40.0, 60.0, 80.0)},  # default xi: sentinel rows
        {"scenario": "crlb_fd", "xi": 100},  # bounds solve no pencil
    ], ids=["r", "c-minus-r", "spc", "three-sources", "default", "bound"])
    def test_xi_inside_pencil_range_or_unused_accepted(self, changes):
        ExperimentConfig(**{"scenario": "fd_mpm", "m": 8, **changes}).validate()

    @pytest.mark.parametrize("changes,field", [
        ({"angles_deg": (10.0, 90.0)}, "angles_deg"),
        ({"angles_deg": (-90.0,), "sweep": "snapshots", "grid": (8,)}, "angles_deg"),
        ({"angles_deg": (89.9999999999,)}, "angles_deg"),  # sin rounds to 1
        ({"angles_deg": (math.nan,)}, "angles_deg"),
        ({"sweep": "theta", "grid": (0.0, 30.0, 90.0)}, "grid"),
        ({"sweep": "theta", "grid": (89.9999999999,)}, "grid"),
        ({"sweep": "separation", "angles_deg": (-88.0,), "grid": (0.5, 1.0, 3.0)},
         "grid"),
        ({"sweep": "separation", "angles_deg": (95.0,), "grid": (1.0,)},
         "angles_deg"),
        ({"scenario": "crlb_fd", "angles_deg": (89.9999999999,)}, "angles_deg"),
    ], ids=["snr", "snapshots", "phase-rounds-to-pi", "nan", "theta-grid",
            "theta-phase", "separation-second", "separation-first", "bound"])
    def test_unsteerable_fixed_angle_rejected(self, changes, field):
        cfg = ExperimentConfig(**{"scenario": "fd_mpm", "m": 8, **changes})
        with pytest.raises(ConfigError, match=f"^{field}: source angle"):
            cfg.validate()

    @pytest.mark.parametrize("changes", [
        {"angles_deg": (-89.9, 89.9)},
        {"sweep": "theta", "grid": (-89.99999, 89.99999)},
        {"sweep": "separation", "angles_deg": (-88.0,), "grid": (1.9,)},
        {"spacing_ratio": 0.25, "angles_deg": (89.9999999999,)},
        # random angles are drawn; the listed ones only count the sources
        {"random_theta": True, "angles_deg": (0.0, 95.0), "sweep": "snapshots",
         "grid": (8,)},
    ], ids=["snr", "theta", "separation", "narrow-spacing", "random"])
    def test_steerable_angles_accepted(self, changes):
        ExperimentConfig(**{"scenario": "fd_mpm", "m": 8, **changes}).validate()

    @pytest.mark.parametrize("sources,offset,ok", [
        (3, 89.5, False), (2, 89.5, False), (1, 89.9, True), (2, 89.4, True),
        (181, 0.0, False), (180, 0.0, True)])
    def test_random_sources_must_fit_inside_the_edges(self, sources, offset, ok):
        # R sources at least 1 deg apart need (R-1) deg of the 180 - 2*offset
        cfg = ExperimentConfig(scenario="fd_mpm", random_theta=True,
                               angles_deg=tuple(range(sources)), sweep="snapshots",
                               grid=(8,), edge_offset_deg=offset)
        if ok:
            cfg.validate()
        else:
            with pytest.raises(ConfigError, match="edge_offset_deg: "):
                cfg.validate()

    def test_edge_offset_past_broadside_rejected(self):
        cfg = ExperimentConfig(scenario="fd_mpm", random_theta=True,
                               sweep="snapshots", grid=(8,), snr_db=(10.0,),
                               edge_offset_deg=95.0)
        with pytest.raises(ConfigError, match="edge_offset_deg"):
            cfg.validate()


def _point(cfg, value) -> _SweepPoint:
    return _SweepPoint(cfg, _receiver(cfg), value)


class TestSweepSemantics:
    def test_theta_sweep_replaces_angle(self):
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="theta", grid=(25.0,),
                               snr_db=(10.0,))
        point = _point(cfg, 25.0)
        assert point.angles == (25.0,)

    def test_separation_sweep_builds_pair(self):
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="separation",
                               angles_deg=(-15.0,), grid=(0.5,), snr_db=(10.0,))
        point = _point(cfg, 0.5)
        assert point.angles == (-15.0, -15.5)
        assert len(point.powers) == 2

    def test_snapshot_sweep_casts_int(self):
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="snapshots",
                               grid=(64,), snr_db=(0.0,))
        assert _point(cfg, 64).k == 64

    def test_snr_sweep_sets_power(self):
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="snr", grid=(20.0,),
                               snr_db=None)
        point = _point(cfg, 20.0)
        assert point.powers == (100.0,)

    def test_infinite_snr_flags_noiseless(self):
        cfg = ExperimentConfig(scenario="fd_mpm", sweep="snr",
                               grid=(float("inf"),), snr_db=None)
        point = _point(cfg, float("inf"))
        assert point.noiseless
        assert point.powers == (1.0,)

    def test_split_budget_rule(self):
        # m_rf = 4 combiners share the stage-1 budget
        cfg = ExperimentConfig(scenario="spc_mpm", sweep="snapshots", grid=(10,))
        assert (_point(cfg, 256).k, _point(cfg, 256).k2) == (224 // 4, 32)
        assert (_point(cfg, 128).k, _point(cfg, 128).k2) == (112 // 4, 16)
        # below the divisor: one snapshot, and 3 left for 4 combiners
        assert (_point(cfg, 4).k, _point(cfg, 4).k2) == (3 // 4, 1)


class TestRunExperiment:
    def test_noiseless_fd_is_exact(self):
        cfg = ExperimentConfig(scenario="fd_mpm", m=16, snapshots=4,
                               angles_deg=(12.0,), sweep="snr",
                               grid=(float("inf"),), trials=10, seed=3)
        rec = run_experiment(cfg)[0]
        assert rec.failures == 0
        assert rec.rmse_deg < 1e-6

    def test_points_follow_their_config(self):
        # a config keeps the points its first validate built, and no run can
        # pair them with another config
        cfg = ExperimentConfig(scenario="fd_mpm", m=8, sweep="theta", grid=(0.0, 10.0),
                               trials=3)
        assert cfg.validate() is cfg.validate()
        with pytest.raises(FrozenInstanceError):
            cfg.m = 16
        run_experiment(cfg)
        wider = replace(cfg, m=16)
        fresh = ExperimentConfig(scenario="fd_mpm", m=16, sweep="theta", grid=(0.0, 10.0),
                                 trials=3)
        assert harness.csv_text(run_experiment(wider)) == \
            harness.csv_text(run_experiment(fresh))
        assert [point.array.num_antennas for point in wider.validate()] == [16, 16]
        # a validation that raises keeps nothing, so the next one raises too
        unrunnable = replace(cfg, trials=0)
        for _ in range(2):
            with pytest.raises(ConfigError, match="^trials: "):
                unrunnable.validate()

    def test_failure_sentinel_for_infeasible_budget(self):
        # stage-1 budget of 3 snapshots cannot feed 4 combiners
        cfg = ExperimentConfig(scenario="spc_mpm", m=32, l=8, snapshots=4,
                               angles_deg=(10.0,), snr_db=(10.0,),
                               sweep="theta", grid=(10.0,), trials=5, seed=1)
        rec = run_experiment(cfg)[0]
        assert rec.rmse_deg == -1.0
        assert rec.failures == rec.trials == 5

    def test_failure_sentinel_for_short_disambiguation_budget(self):
        # 24 snapshots leave K2 = 3 for the 4 combiners that 2 sources with
        # m_rf = 16 need; 48 leave K2 = 6
        cfg = ExperimentConfig(scenario="spc_mpm", m=128, l=8,
                               angles_deg=(-20.0, 20.0), snr_db=(10.0,),
                               sweep="snapshots", grid=(24, 48), trials=3,
                               seed=1)
        short, enough = run_experiment(cfg)
        assert short.rmse_deg == -1.0
        assert short.failures == short.trials == 3
        assert enough.failures == 0 and enough.rmse_deg > 0.0

    def test_failure_sentinel_for_degenerate_geometry(self):
        # both sources share a virtual steering vector (fold period apart);
        # the rank collapse is only detectable without noise masking it
        inf = float("inf")
        cfg = ExperimentConfig(scenario="spc_mpm", m=8, l=4, snapshots=16,
                               angles_deg=(-30.0, 30.0), snr_db=(inf, inf),
                               sweep="snapshots", grid=(16,), trials=5, seed=2)
        rec = run_experiment(cfg)[0]
        assert rec.failures == 5
        assert rec.rmse_deg == -1.0

    def test_failure_sentinel_for_pmpm_budget_below_codebook(self):
        # 2 snapshots cannot feed the 4 FC combiners; 8 give 2 per segment
        cfg = ExperimentConfig(scenario="pmpm_fc", m=32, l=8, angles_deg=(10.0,),
                               snr_db=(10.0,), sweep="snapshots", grid=(2, 8),
                               trials=3)
        short, enough = run_experiment(cfg)
        assert short.rmse_deg == -1.0
        assert short.failures == short.trials == 3
        assert short.root_crlb_deg is None
        assert enough.failures == 0 and enough.rmse_deg > 0.0
        assert enough.root_crlb_deg > 0.0

    def test_crlb_scenario_emits_bound_only(self):
        cfg = ExperimentConfig(scenario="crlb_fd", m=32, snapshots=32,
                               angles_deg=(0.0,), sweep="snr", grid=(20.0,),
                               trials=1)
        rec = run_experiment(cfg)[0]
        assert rec.rmse_deg is None
        assert rec.root_crlb_deg == pytest.approx(0.004365, abs=2e-4)

    def test_separation_sweep_end_to_end(self):
        from dataclasses import replace

        cfg = replace(preset("example3"), trials=10, grid=(2.0,))
        rec = run_experiment(cfg)[0]
        assert rec.failures == 0
        assert 0.0 < rec.rmse_deg < 0.5

    def test_pmpm_bound_uses_per_segment_snapshots(self):
        from pencil_doa import ArrayConfig, SourceSet, crlb_fd, pooled_root_deg

        cfg = ExperimentConfig(scenario="pmpm_fc", m=32, l=8, snapshots=128,
                               angles_deg=(0.0,), sweep="snr", grid=(20.0,),
                               trials=2, seed=5)
        rec = run_experiment(cfg)[0]
        expected = pooled_root_deg(crlb_fd(ArrayConfig(32, 0.5),
                                           SourceSet((0.0,), (100.0,)), 32))
        assert rec.root_crlb_deg == pytest.approx(expected, rel=1e-12)


class TestWarningCounts:
    def test_stacked_spc_point_warns_like_per_trial(self, monkeypatch):
        # at -10 dB the stage-2 scan finds sources at the noise floor, and
        # the short spacing lets stage-1 eigenvalues map past the arcsine
        cfg = ExperimentConfig(scenario="spc_mpm", m=16, l=8, spacing_ratio=0.1,
                               snapshots=32, angles_deg=(20.0, -35.0),
                               snr_db=None, sweep="snr", grid=(-10.0,),
                               trials=40, seed=7)

        def run():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                records = run_experiment(cfg)
            return records, Counter(type(w.message) for w in caught)

        stacked = run()
        monkeypatch.setattr(harness, "stack_size", lambda *_: 1)
        assert run() == stacked
        assert stacked[1][LowSnrWarning] > 0 and stacked[1][OutOfRangeWarning] > 0

    @pytest.mark.parametrize("action", ["always", "default", "module"])
    def test_forked_shares_warn_like_one_process(self, action, monkeypatch):
        # a forked process's warnings are emitted by the caller, each once,
        # and the filters that deduplicate see the registry of their module
        cfg = ExperimentConfig(scenario="spc_mpm", m=16, l=8, spacing_ratio=0.1,
                               snapshots=32, angles_deg=(20.0, -35.0),
                               snr_db=None, sweep="snr", grid=(-10.0, -5.0),
                               trials=40, seed=7)

        def run(processes):
            monkeypatch.setattr(harness, "_process_count", lambda: processes)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                records = run_experiment(cfg)
            return records, Counter((w.category, str(w.message), w.filename, w.lineno)
                                    for w in caught)

        one = run(1)
        assert run(2) == one
        assert {category for category, *_ in one[1]} == {LowSnrWarning, OutOfRangeWarning}


class TestStackMemory:
    def test_example2_stage2_stacks_stay_within_stack_bytes(self, monkeypatch):
        # every stack's stage-2 blocks are resolved in one call, and
        # stack_size counts them with the stack, so no call exceeds the cap
        shapes = []
        resolve = harness.spc_resolve

        def recording(base, blocks, *args):
            shapes.append(blocks.shape)
            return resolve(base, blocks, *args)

        monkeypatch.setattr(harness, "spc_resolve", recording)
        # one process, so the recorder sees every stack
        monkeypatch.setattr(harness, "_process_count", lambda: 1)
        cfg = preset("example2")
        assert cfg.trials == 200
        records = run_experiment(cfg)
        assert sum(shape[0] for shape in shapes) == \
            sum(rec.trials - rec.failures for rec in records)
        assert max(shape[0] for shape in shapes) > 1
        for shape in shapes:
            assert math.prod(shape) * 16 <= STACK_BYTES, shape


class ChildShareError(RuntimeError):
    """Raised only in a forked process; no estimator failure."""


def _reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestForkedShares:
    CFG = ExperimentConfig(scenario="fd_mpm", m=8, angles_deg=(10.0,),
                           snapshots=16, grid=(5.0, 20.0), trials=6, seed=3)

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pids that run_experiment forks, at three processes."""
        pids = []
        fork = os.fork

        def recording():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(harness, "_process_count", lambda: 3)
        monkeypatch.setattr(os, "fork", recording)
        return pids

    def test_children_are_reaped_and_blas_restored(self, forks):
        blas = harness._blas_threads()
        threads = blas and blas[0]()
        records = run_experiment(self.CFG)
        assert len(forks) == 2 and all(map(_reaped, forks))
        assert threads == (blas and blas[0]())
        assert [rec.failures for rec in records] == [0, 0]

    def test_child_exception_reaches_caller(self, forks, monkeypatch):
        parent, squared = os.getpid(), harness.paired_squared_errors

        def failing(*args):
            if os.getpid() != parent:
                raise ChildShareError("in a forked share")
            return squared(*args)

        monkeypatch.setattr(harness, "paired_squared_errors", failing)
        with pytest.raises(ChildShareError, match="in a forked share"):
            run_experiment(self.CFG)
        assert len(forks) == 2 and all(map(_reaped, forks))

    def test_only_the_caller_builds_points(self, forks, monkeypatch):
        # validate builds each point once, before the fork; a share runs it
        parent, init, built = os.getpid(), _SweepPoint.__init__, []

        def caller_only(point, cfg, receiver, value):
            if os.getpid() != parent:
                raise ChildShareError("a forked share built a point")
            built.append(value)
            init(point, cfg, receiver, value)

        monkeypatch.setattr(_SweepPoint, "__init__", caller_only)
        # a fresh copy: CFG keeps the points an earlier test's run built
        records = run_experiment(replace(self.CFG))
        assert len(forks) == 2 and all(map(_reaped, forks))
        assert built == list(self.CFG.grid)
        assert [rec.failures for rec in records] == [0, 0]

    def test_cli_builds_each_point_once(self, forks, monkeypatch, capsys):
        # the config that config_from_mapping validated keeps its points for the run
        init, built = _SweepPoint.__init__, []

        def counting(point, cfg, receiver, value):
            built.append(value)
            init(point, cfg, receiver, value)

        monkeypatch.setattr(_SweepPoint, "__init__", counting)
        assert cli_main(["run", "--scenario", "fd_mpm", "--m", "8", "--sweep", "theta",
                         "--grid", "0,10,20", "--trials", "2"]) == 0
        assert built == [0.0, 10.0, 20.0]
        assert len(capsys.readouterr().out.splitlines()) == 4

    def test_one_process_per_trial_at_most(self, forks):
        run_experiment(replace(self.CFG, trials=2))
        run_experiment(replace(self.CFG, trials=6, scenario="crlb_fd"))
        assert len(forks) == 1 and _reaped(forks[0])

    def test_redirected_stdout_holds_one_run(self, tmp_path):
        # a forked process leaves through os._exit, so it never flushes the
        # line the caller buffered before the run
        script = ("import sys; from pencil_doa import cli, harness; "
                  "harness._process_count = lambda: int(sys.argv[1]); "
                  "print('# before the run'); sys.exit(cli.main(sys.argv[2:]))")
        flags = ["run", "--scenario", "pmpm_fc", "--m", "16", "--l", "4",
                 "--snapshots", "16", "--sweep", "snr", "--grid", "0,10,20",
                 "--trials", "4", "--seed", "9"]
        # stdout to a file is block-buffered unless PYTHONUNBUFFERED is set
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        outputs = []
        for processes in ("1", "3"):
            path = tmp_path / f"p{processes}.csv"
            with path.open("wb") as out:
                done = subprocess.run([sys.executable, "-c", script, processes, *flags],
                                      env=env, stdout=out, stderr=subprocess.PIPE,
                                      timeout=120)
            assert done.returncode == 0, done.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"# before the run") == 1
        assert outputs[0].count(b"sweep,scenario") == 1


# Minor page faults of a second example3 run at two trials, in a fresh
# interpreter: the first run sets the heap's working set, which the second
# reuses rather than taking it back from the kernel.
FAULT_SCRIPT = """
import resource
from dataclasses import replace
from pencil_doa import harness
harness._process_count = lambda: 1
cfg = replace(harness.preset("example3"), trials=2)
harness.run_experiment(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
harness.run_experiment(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapThresholds:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or harness._mallopt() is None,
                        reason="needs glibc's mallopt")
    def test_second_run_takes_no_pages_from_the_kernel(self):
        # a pytest process's heap history hides the effect, so a fresh one runs
        done = subprocess.run([sys.executable, "-c", FAULT_SCRIPT],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        # about 2,700 where each trial hands its buffers back to the kernel
        assert int(done.stdout) < 100

    @pytest.mark.parametrize("libc", [OSError, object], ids=["load-fails", "no-mallopt"])
    def test_run_without_mallopt_gives_the_same_records(self, libc, monkeypatch):
        cfg = replace(preset("example3"), trials=3, grid=(0.3, 2.0))
        want = run_experiment(cfg)
        cdll = harness.ctypes.CDLL

        def lookup(name, *args, **kwargs):
            if name is not None:
                return cdll(name, *args, **kwargs)
            if libc is OSError:
                raise OSError("no C library")
            return libc()

        monkeypatch.setattr(harness.ctypes, "CDLL", lookup)
        assert harness._mallopt() is None
        assert run_experiment(cfg) == want


class TestCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_record_round_trip(self, tmp_path):
        rec = ResultRecord(sweep_value=10.0, scenario="fd_mpm",
                           rmse_deg=0.123456789123, root_crlb_deg=None,
                           trials=200, failures=3, wall_ms=0)
        path = tmp_path / "one.csv"
        emit_csv([rec], path)
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3 and lines[2] == ""
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["scenario"] == "fd_mpm"
        assert rows[0]["root_crlb_deg"] == ""
        assert float(rows[0]["rmse_deg"]) == pytest.approx(0.123456789123,
                                                           rel=1e-9)

    def test_fixed_notation_nine_significant_digits(self):
        assert _fixed9(0.004365444162) == "0.00436544416"
        assert _fixed9(1234.5678949) == "1234.56789"
        assert _fixed9(-1.0) == "-1.00000000"
        assert _fixed9(None) == ""
        assert "e" not in _fixed9(1.23456789e-7)


class TestPresets:
    def test_example1(self):
        cfg = preset("example1")
        assert (cfg.m, cfg.l, cfg.snapshots) == (32, 8, 128)
        assert cfg.snr_db == (20.0,)
        assert cfg.sweep == "theta"
        assert cfg.trials == 200

    def test_example2_split(self):
        cfg = preset("example2")
        assert (cfg.m, cfg.l, cfg.snapshots) == (64, 8, 256)
        assert cfg.angles_deg == (30.0,)
        point = _point(cfg, cfg.grid[0])
        assert (point.k, point.k2) == (224 // 8, 32)  # m_rf = 8 combiners

    def test_example3(self):
        cfg = preset("example3")
        assert (cfg.m, cfg.l, cfg.snapshots) == (128, 16, 64)
        assert cfg.sweep == "separation"
        assert cfg.grid == (0.3, 0.5, 2.0)
        assert cfg.angles_deg == (-15.0,)

    def test_example4(self):
        cfg = preset("example4")
        assert cfg.random_theta
        assert cfg.sweep == "snapshots"
        assert tuple(cfg.grid) == (4, 8, 32, 128, 512)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("example9")


class TestDeterminism:
    def test_same_seed_identical_bytes(self, tmp_path):
        # Two fresh interpreters with different str hashing must agree.
        flags = ["run", "--scenario", "pmpm_pc", "--m", "16", "--l", "4",
                 "--snapshots", "16", "--angles-deg", "5.0", "--snr-db", "15.0",
                 "--sweep", "theta", "--grid", "5.0,-40.0", "--trials", "20",
                 "--seed", "77"]
        paths = []
        for run, hash_seed in enumerate(("1", "4242")):
            path = tmp_path / f"run{run}.csv"
            env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
            done = subprocess.run(
                [sys.executable, "-m", "pencil_doa.cli", *flags, "--out", str(path)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        records = list(csv.DictReader(paths[0].open(encoding="utf-8")))
        assert [r["sweep"] for r in records] == ["5.00000000", "-40.0000000"]


class TestConfigFile:
    def test_load_and_run(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "# tiny smoke experiment\n"
            "scenario = fd_mpm\n"
            "m = 16\n"
            "snapshots = 4\n"
            "angles_deg = 12.0\n"
            "sweep = snr\n"
            "grid = inf\n"
            "trials = 5\n"
            "seed = 3\n")
        values = load_config_file(cfg_path)
        cfg = config_from_mapping(values)
        assert cfg.m == 16 and cfg.trials == 5
        rec = run_experiment(cfg)[0]
        assert rec.rmse_deg < 1e-6

    def test_unknown_key(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("scenario = fd_mpm\nwavelength = 3\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg_path)

    def test_malformed_line(self, tmp_path):
        cfg_path = tmp_path / "bad2.cfg"
        cfg_path.write_text("scenario fd_mpm\n")
        with pytest.raises(ConfigError):
            load_config_file(cfg_path)


# One raw entry per ExperimentConfig field and the value it must parse to.
FIELD_SAMPLES = {
    "scenario": ("spc_mpm", "spc_mpm"),
    "m": ("64", 64),
    "l": ("8", 8),
    "spacing_ratio": ("0.25", 0.25),
    "angles_deg": ("-10, 20.5", (-10.0, 20.5)),
    "powers": ("1,2", (1.0, 2.0)),
    "snr_db": ("5", (5.0,)),
    "snapshots": ("256", 256),
    "split_divisor": ("4", 4),
    "xi": ("3", 3),
    "sweep": ("theta", "theta"),
    "grid": ("0,inf", (0.0, math.inf)),
    "trials": ("7", 7),
    "seed": ("11", 11),
    "random_theta": ("yes", True),
    "edge_offset_deg": ("2.5", 2.5),
}


class TestConfigSchema:
    def test_run_flags_are_the_config_fields(self):
        sub = next(action for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        dests = {action.dest for action in sub.choices["run"]._actions}
        assert dests - {"help", "config", "out", "timing"} == {
            f.name for f in fields(ExperimentConfig)}

    def test_every_field_has_a_sample(self):
        assert set(FIELD_SAMPLES) == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize("key", sorted(FIELD_SAMPLES))
    def test_field_parses_to_its_type(self, key):
        raw, expected = FIELD_SAMPLES[key]
        value = parse_config_value(key, raw)
        assert value == expected
        assert type(value) is type(expected)
        if isinstance(expected, tuple):
            assert all(type(part) is float for part in value)

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_value("random_theta", "maybe")


class TestCli:
    def test_list_presets(self, capsys):
        assert cli_main(["list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ("example1", "example2", "example3", "example4"):
            assert name in out

    def test_preset_with_overrides(self, tmp_path, capsys):
        out_path = tmp_path / "p.csv"
        rc = cli_main(["preset", "example1", "--trials", "3", "--grid", "0",
                       "--out", str(out_path)])
        assert rc == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert ",pmpm_fc," in lines[1]

    def test_preset_overrides_apply_like_run(self, capsys):
        # powers without snr_db replace the preset's SNR, as under run
        rc = cli_main(["preset", "example3", "--powers", "10,10",
                       "--trials", "2", "--grid", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2 and lines[1].startswith("2.00000000,pmpm_fc,")

    def test_run_with_flags(self, tmp_path):
        out_path = tmp_path / "r.csv"
        rc = cli_main(["run", "--scenario", "fd_mpm", "--m", "16",
                       "--snapshots", "4", "--angles-deg", "12",
                       "--sweep", "snr", "--grid", "inf", "--trials", "4",
                       "--seed", "3", "--out", str(out_path)])
        assert rc == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert float(rows[0]["rmse_deg"]) < 1e-6

    def test_crlb_subcommand(self, tmp_path):
        out_path = tmp_path / "c.csv"
        rc = cli_main(["crlb", "--m", "32", "--snapshots", "32",
                       "--angles-deg", "0", "--sweep", "snr", "--grid", "20",
                       "--trials", "1", "--out", str(out_path)])
        assert rc == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["scenario"] == "crlb_fd"
        assert math.isclose(float(rows[0]["root_crlb_deg"]), 0.004365,
                            rel_tol=0.05)

    def test_crlb_without_noise_subspace_leaves_bound_empty(self, tmp_path):
        # two sources on L = 2 RF chains leave no noise subspace, so the row
        # carries no bound instead of one made of rounding
        out_path = tmp_path / "z.csv"
        rc = cli_main(["crlb", "--scenario", "crlb_spc", "--m", "16", "--l", "2",
                       "--angles-deg", "0,21",
                       "--snapshots", "64", "--grid", "10", "--out", str(out_path)])
        assert rc == 0
        with open(out_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["scenario"] == "crlb_spc"
        assert rows[0]["root_crlb_deg"] == ""

    def test_stdout_matches_written_file(self, tmp_path, capsys):
        args = ["run", "--scenario", "fd_mpm", "--m", "16", "--snapshots", "8",
                "--angles-deg", "12", "--sweep", "snr", "--grid", "0,10,inf",
                "--trials", "4", "--seed", "3"]
        out_path = tmp_path / "s.csv"
        assert cli_main(args + ["--out", str(out_path)]) == 0
        capsys.readouterr()
        assert cli_main(args) == 0
        assert capsys.readouterr().out.encode("utf-8") == out_path.read_bytes()

    def test_config_error_exit_code(self, capsys):
        rc = cli_main(["run", "--scenario", "nonsense"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["nan", "inf", "2.9,2", "0"])
    def test_invalid_snapshot_budget_exits_2(self, grid, capsys):
        rc = cli_main(["run", "--scenario", "fd_mpm", "--m", "8",
                       "--angles-deg", "10", "--snr-db", "10",
                       "--sweep", "snapshots", "--grid", grid, "--trials", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("scenario", ["fd_mpm", "pmpm_fc", "spc_mpm",
                                          "crlb_fd", "crlb_spc"])
    def test_unallocatable_budget_gives_sentinel_row(self, scenario, capsys):
        # 1e300 snapshots is a whole number, but no array that large exists:
        # estimators give the sentinel row, bounds still print
        rc = cli_main(["run", "--scenario", scenario, "--m", "8", "--l", "2",
                       "--angles-deg", "10", "--snr-db", "10",
                       "--sweep", "snapshots", "--grid", "1e300", "--trials", "1"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        row = captured.out.splitlines()[1].split(",")
        assert row[1] == scenario
        assert float(row[3]) > 0.0
        if scenario.startswith("crlb"):
            assert row[2:6] == ["", row[3], "0", "0"]
        else:
            assert row[2] == "-1.00000000" and row[4:6] == ["1", "1"]

    @pytest.mark.parametrize("args", [
        ["run", "--scenario", "fd_mpm", "--angles-deg", "10,10"],
        ["crlb", "--angles-deg", "10,10"],
        ["preset", "example3", "--grid", "0"],
    ], ids=["run", "crlb", "separation"])
    def test_duplicate_source_angles_exit_2(self, args, capsys):
        rc = cli_main(args + ["--trials", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ["--scenario", "fd_mpm", "--m", "8", "--sweep", "theta",
         "--grid", "89.9999999999"],
        ["--scenario", "crlb_fd", "--m", "8", "--angles-deg", "89.9999999999"],
        ["--scenario", "fd_mpm", "--m", "16", "--sweep", "theta", "--grid", "0,30,90"],
        ["--scenario", "fd_mpm", "--m", "16", "--sweep", "separation",
         "--angles-deg", "-88", "--grid", "0.5,1,3"],
        ["--scenario", "fd_mpm", "--random-theta", "true", "--angles-deg", "0,1,2",
         "--edge-offset-deg", "89.5", "--sweep", "snapshots", "--grid", "8,16"],
    ], ids=["theta-phase-traceback", "bound-phase-traceback", "theta-last-point",
            "separation-last-point", "random-sources-past-edges"])
    def test_unsteerable_sources_exit_2_before_any_point(self, args, capsys,
                                                         monkeypatch):
        # before, the first two ended in an UnsupportedGeometry traceback, and
        # the others ran points and then exited 2, discarding them; validate
        # builds the points, so what must not happen is that one runs
        def no_point(*_):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(harness._SweepPoint, "errors", no_point)
        rc = cli_main(["run"] + args + ["--trials", "2"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error:" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("args", [
        ["--scenario", "fd_mpm", "--m", "8", "--xi", "0"],
        ["--scenario", "fd_mpm", "--m", "8", "--xi", "-3"],
        ["--scenario", "fd_mpm", "--m", "8", "--xi", "100"],
        ["--scenario", "spc_mpm", "--m", "16", "--l", "4", "--xi", "9"],
    ], ids=["zero", "negative", "large", "spc"])
    def test_xi_outside_pencil_range_exits_2(self, args, capsys):
        # before, each printed an RMSE of -1 with every trial failed, and exited 0
        rc = cli_main(["run"] + args + ["--trials", "3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error: xi:" in captured.err
        assert captured.out == ""

    def test_default_xi_with_too_many_sources_keeps_sentinel_row(self, capsys):
        rc = cli_main(["run", "--scenario", "fd_mpm", "--m", "4",
                       "--angles-deg", "1,20,40", "--trials", "3"])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert captured.out.splitlines()[1].split(",")[2:6] == [
            "-1.00000000", "0.348565409", "3", "3"]

    @pytest.mark.parametrize("power", ["nan", "inf"])
    def test_non_finite_power_exits_2(self, power, capsys):
        rc = cli_main(["run", "--scenario", "fd_mpm", "--m", "8",
                       "--angles-deg", "10", "--sweep", "theta", "--grid", "10",
                       "--trials", "2", "--powers", power])
        captured = capsys.readouterr()
        assert rc == 2
        assert "configuration error:" in captured.err
        assert captured.out == ""
