"""Monte-Carlo throughput benchmark for pencil_doa.

Runs one workload as a closed loop from a single process: call
``harness.run_experiment``, write its CSV through ``emit_csv``, call again,
until ``--seconds`` have passed. Every sweep's records are checked against
the references in ``references.json``. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

    python3 perfbench/run.py --workload pmpm_fc_wide --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced sweeps with sweeps that have every function in ``LAYER_FUNCTIONS``
wrapped (see ``spans.py``), and reports per-layer metrics per sweep.

``--seed n`` runs the workload at experiment seed ``preset seed + k``, with
k = n for n in 0..127 and k = n mod 127 for any other integer, so the same
seed always gives the same inputs. References exist for those 128 values of
k, so every run is checked. ``--seed 0`` (the default) is the preset's own
seed. ``--seed 127`` is held out and only reached by name: tune on other
seeds, and show that a claimed gain also holds on it.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"
PACKAGE = "pencil_doa"

SEED_POOL = 128
HELD_OUT_SEED = SEED_POOL - 1
TAIL_PERCENTILE = 90
SETUP_REPEATS = 16  # half before the timed loop, half after it
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    preset: str
    seed: int  # the preset's seed, run by --seed 0
    trials: int  # trials per sweep point


# BENCHMARK.json and README.md say why each workload is there. Trials per
# point are cut from the presets' 200 so that a 30 s run has well over 100
# sweep points, which leaves ten beyond the 90th percentile.
WORKLOADS = {
    "pmpm_fc_wide": Workload("example3", 103, 6),
    "spc_mpm_snr": Workload("example2", 102, 20),
    "pmpm_fc_budget": Workload("example4", 104, 40),
}

LAYER_FUNCTIONS = (
    "arrays.steering_matrix", "arrays.generate_signals",
    "arrays.generate_noise", "arrays.receive_fd",
    "combiners.build_codebook", "combiners.apply_combiner",
    "pencil.augment", "pencil.hankel", "pencil.svd_denoise",
    "pencil.split_pencil", "pencil.pencil_eigenvalues", "pencil.eigen_to_angles",
    "estimators.estimate_fd_mpm", "estimators.estimate_pmpm",
    "estimators.estimate_spc_mpm", "estimators.pmpm_aggregate",
    "estimators.ambiguity_set", "estimators.build_disambiguation",
    "estimators.resolve_ambiguity",
    "crlb.crlb_fd", "crlb.crlb_spc",
    "harness.run_experiment", "harness.emit_csv",
)


class BenchError(Exception):
    """The benchmark cannot run here."""


class Mismatch(BenchError):
    """The program's records differ from the references."""

    def __init__(self, message: str, loop: "Loop"):
        super().__init__(message)
        self.loop = loop


def experiment_seed(workload: Workload, seed: int) -> int:
    """The workload's experiment seed for ``--seed``; any integer is accepted.

    Seeds outside the pool fold onto 0..HELD_OUT_SEED-1, never onto the
    held-out seed.
    """
    offset = seed if 0 <= seed < SEED_POOL else seed % HELD_OUT_SEED
    return workload.seed + offset


def load_package():
    """Import pencil_doa from this checkout's src/, never from elsewhere."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise BenchError(f"no {PACKAGE} sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pencil_doa

    if not Path(pencil_doa.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"{PACKAGE} imported from {pencil_doa.__file__}, not {SRC}")
    return pencil_doa


def workload_config(pkg, workload: Workload, exp_seed: int):
    return replace(pkg.harness.preset(workload.preset),
                   trials=workload.trials, seed=exp_seed)


# --- references -----------------------------------------------------------

def record_rows(records) -> list:
    return [{"sweep": r.sweep_value, "scenario": r.scenario,
             "rmse_deg": r.rmse_deg, "root_crlb_deg": r.root_crlb_deg,
             "trials": r.trials, "failures": r.failures} for r in records]


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def mismatches(records, expected) -> list:
    """Differences between records and reference rows; empty when they agree."""
    got = record_rows(records)
    if len(got) != len(expected):
        return [f"{len(got)} records, expected {len(expected)}"]
    problems = []
    for g, e in zip(got, expected):
        for key in ("sweep", "scenario", "trials", "failures"):
            if g[key] != e[key]:
                problems.append(f"sweep {e['sweep']}: {key} {g[key]!r} != {e[key]!r}")
        for key in ("rmse_deg", "root_crlb_deg"):
            if not _close(g[key], e[key]):
                problems.append(f"sweep {e['sweep']}: {key} {g[key]!r} != {e[key]!r}")
    return problems


def load_references(name: str, workload: Workload, exp_seed: int) -> list:
    table = json.loads(REFERENCES.read_text(encoding="utf-8"))["workloads"][name]
    if table["trials"] != workload.trials:
        raise BenchError(f"references for {name} were recorded at "
                         f"{table['trials']} trials per point, not {workload.trials}")
    return table["seeds"][str(exp_seed)]


# --- measurement ----------------------------------------------------------

@dataclass
class Loop:
    sweeps: list  # one list of ResultRecord per run_experiment call
    seconds: float

    @property
    def trials(self) -> int:
        return sum(r.trials for recs in self.sweeps for r in recs)

    @property
    def failures(self) -> int:
        return sum(r.failures for recs in self.sweeps for r in recs)

    @property
    def trials_per_s(self) -> float:
        return self.trials / self.seconds


def sweep_into(loop: Loop, harness, cfg, csv_path: Path) -> None:
    """One run_experiment call and its CSV write, added to ``loop``."""
    start = time.perf_counter()
    records = harness.run_experiment(cfg, measure_time=True)
    harness.emit_csv(records, csv_path)
    loop.seconds += time.perf_counter() - start
    loop.sweeps.append(records)


def sweep_loop(harness, cfg, seconds: float, csv_path: Path) -> Loop:
    """Closed loop: one run_experiment call at a time, at least one, for ``seconds``."""
    loop = Loop([], 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        sweep_into(loop, harness, cfg, csv_path)
        if time.perf_counter() >= deadline:
            return loop


def check_loop(loop: Loop, expected: list) -> None:
    for index, records in enumerate(loop.sweeps):
        problems = mismatches(records, expected)
        if problems:
            raise Mismatch(f"sweep {index} differs from the reference: "
                           + "; ".join(problems[:5]), loop)


def percentile(values, p: int) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def setup_seconds(workload: Workload, exp_seed: int, repeats: int) -> list:
    """Fresh-process times to import the package and run the first point once."""
    probe = [sys.executable, str(BENCH / "setup_probe.py"),
             workload.preset, str(exp_seed)]
    times = []
    for _ in range(repeats):
        done = subprocess.run(probe, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise BenchError(f"setup probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(pkg, workload: Workload, cfg, seconds: float, expected,
               csv_path: Path):
    # Probes on both sides of the loop, so one slow spell of the host does
    # not move them all.
    setups = setup_seconds(workload, cfg.seed, SETUP_REPEATS // 2)
    loop = sweep_loop(pkg.harness, cfg, seconds, csv_path)
    setups += setup_seconds(workload, cfg.seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    check_loop(loop, expected)
    points = sorted(r.wall_ms for recs in loop.sweeps for r in recs)
    tail = percentile(points, TAIL_PERCENTILE)
    metrics = {
        "trials_per_s": (loop.trials_per_s, "1/s"),
        "point_ms_p50": (percentile(points, 50), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    # The tail is reported but not gated: host CPU steal moves it by more
    # than the largest bound BENCHMARK.json allows (see README.md).
    details = {
        "sweeps": len(loop.sweeps), "loop_s": loop.seconds,
        "points": len(points), "point_ms_tail": tail,
        "tail_percentile": TAIL_PERCENTILE,
        "points_beyond_tail": sum(1 for v in points if v > tail),
        "setup_runs_s": setups,
        "failure_share": loop.failures / loop.trials,
    }
    return loop, metrics, details


def per_layer(pkg, cfg, seconds: float, expected, csv_path: Path):
    # Untraced and traced sweeps alternate, at least one of each, so a slow
    # spell of the host weighs on both bases of the overhead alike.
    tracer = spans.Tracer()
    plain, traced_loop = Loop([], 0.0), Loop([], 0.0)
    deadline = time.perf_counter() + seconds
    while True:
        sweep_into(plain, pkg.harness, cfg, csv_path)
        with spans.traced(tracer, PACKAGE, LAYER_FUNCTIONS) as absent:
            sweep_into(traced_loop, pkg.harness, cfg, csv_path)
        leftover = spans.wrapped_attributes(PACKAGE)
        if leftover:
            raise BenchError(f"tracing wrappers left installed: {leftover}")
        if time.perf_counter() >= deadline:
            break
    check_loop(plain, expected)
    check_loop(traced_loop, expected)

    n = len(traced_loop.sweeps)
    totals = spans.layer_totals(tracer.spans)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        if name in absent:
            continue
        calls, busy, own = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls // n if calls % n == 0 else calls / n, "count")
        metrics[f"{name}.ms"] = (busy * 1000.0 / n, "ms")
        metrics[f"{name}.self_ms"] = (own * 1000.0 / n, "ms")
    workers = pkg.harness.worker_count()
    sweep_s = totals["harness.run_experiment"][1]
    metrics["harness.pool_busy_share"] = (
        spans.off_root_busy(tracer.spans, tracer.root_thread) / (sweep_s * workers),
        "share")
    metrics["trace.overhead_share"] = (
        1.0 - traced_loop.trials_per_s / plain.trials_per_s, "share")
    metrics["trace.trials_per_s_traced"] = (traced_loop.trials_per_s, "1/s")
    metrics["trace.trials_per_s_untraced"] = (plain.trials_per_s, "1/s")
    details = {"sweeps_traced": n, "sweeps_untraced": len(plain.sweeps),
               "spans": len(tracer.spans), "absent": absent, "workers": workers}
    loop = Loop(plain.sweeps + traced_loop.sweeps,
                plain.seconds + traced_loop.seconds)
    return loop, metrics, details


# --- run metadata ---------------------------------------------------------

def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def openblas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "threads": None}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def src_lines() -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in sorted((SRC / PACKAGE).glob("*.py")))


def metadata(pkg, name: str, workload: Workload, seed: int, exp_seed: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": name, "preset": workload.preset, "seed": seed,
        "experiment_seed": exp_seed, "held_out_seed": HELD_OUT_SEED,
        "trials_per_point": workload.trials, "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "worker_count": pkg.harness.worker_count(),
        "PENCIL_DOA_THREADS": os.environ.get(pkg.harness.THREADS_ENV),
        "openblas": openblas(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "src_lines": src_lines(),
    }


# --- entry point ----------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help=f"any integer; 0 is the preset seed, {HELD_OUT_SEED} "
                             f"is held out, others outside 0..{HELD_OUT_SEED} "
                             f"fold onto 0..{HELD_OUT_SEED - 1}")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        exp_seed = experiment_seed(workload, args.seed)
        # The pool never gets more workers than cores; BLAS keeps its default.
        os.environ["PENCIL_DOA_THREADS"] = str(len(os.sched_getaffinity(0)))
        pkg = load_package()
        expected = load_references(args.workload, workload, exp_seed)
        cfg = workload_config(pkg, workload, exp_seed)
        OUT.mkdir(exist_ok=True)
        csv_path = OUT / f"{args.workload}.csv"
        # Warm-up: the first BLAS and scipy calls and the first pool are not timed.
        pkg.harness.run_experiment(replace(cfg, trials=1, grid=cfg.grid[:1]))
        if args.trace:
            loop, metrics, details = per_layer(pkg, cfg, args.seconds, expected,
                                               csv_path)
        else:
            loop, metrics, details = end_to_end(pkg, workload, cfg, args.seconds,
                                                expected, csv_path)
    except Mismatch as exc:
        # A wrong result reports no numbers.
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.loop.trials,
                          "failed": exc.loop.failures, "metrics": {}}))
        return 1
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} "
          f"(experiment seed {exp_seed}, {workload.trials} trials per point)")
    print(f"reference check: {len(loop.sweeps)} sweeps match references.json")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<44} {value:>14.6g} {unit}")
    if "point_ms_tail" in details:
        print(f"  point_ms_tail (p{TAIL_PERCENTILE} of {details['points']} points, "
              f"{details['points_beyond_tail']} beyond) {details['point_ms_tail']:.6g} ms")
    print(f"  trials attempted {loop.trials}, failed {loop.failures}")
    print(json.dumps({"meta": metadata(pkg, args.workload, workload, args.seed,
                                       exp_seed), "details": details}))
    print(json.dumps({
        "correct": True, "attempted": loop.trials, "failed": loop.failures,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
