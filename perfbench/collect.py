"""Run every workload over several seeds and summarise each end-to-end metric.

    python3 perfbench/collect.py [--runs 10] [--label NAME]

Runs ``run.py --trace 0`` at seeds 0..runs-1 for each workload, seed by seed,
and prints every end-to-end metric by name and unit with its median,
quartiles and spread (quartile distance over median) next to its bound from
BENCHMARK.json, the same for the ungated point_ms_tail, and whether every
run passed the reference check. With
``--label``, also makes one traced run per workload at seed 0 and appends
the whole summary, every run's values included, to trajectory.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRAJECTORY = BENCH / "trajectory.json"
MACHINE_KEYS = ("git_commit", "nproc", "cpu_count", "worker_count",
                "PENCIL_DOA_THREADS", "openblas", "python", "numpy", "scipy",
                "src_lines")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result, meta) from the last two lines of one run's standard output."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} failed ({done.returncode}):\n"
                 f"{done.stdout}\n{done.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def spread(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--label")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [] for w in workloads}
    meta = None
    for seed in range(args.runs):
        for workload in workloads:
            result, run_meta = run_once(workload, seed, seconds, 0)
            results[workload].append((result, run_meta["details"]))
            meta = meta or run_meta["meta"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)

    summary = {}
    steady = True
    print(f"\n{'workload':<16}{'metric':<15}{'unit':<6}{'median':>11}{'q1':>11}"
          f"{'q3':>11}{'spread':>9}{'bound':>7}")
    for workload, pairs in results.items():
        runs = [result for result, _ in pairs]
        correct = all(r["correct"] for r in runs)
        entry = {"correct": correct,
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            median, q1, q3, share = spread(values)
            within = share <= metric["bound"]
            steady = steady and within
            entry["end_to_end"][name] = {"unit": metric["unit"], "median": median,
                                         "q1": q1, "q3": q3, "values": values}
            print(f"{workload:<16}{name:<15}{metric['unit']:<6}{median:>11.5g}"
                  f"{q1:>11.5g}{q3:>11.5g}{share:>9.4f}{metric['bound']:>7}"
                  f"{'' if within else '  above bound'}")
        tails = [details["point_ms_tail"] for _, details in pairs]
        median, q1, q3, share = spread(tails)
        entry["point_ms_tail"] = {"unit": "ms", "median": median, "q1": q1,
                                  "q3": q3, "values": tails}
        print(f"{workload:<16}{'point_ms_tail':<15}{'ms':<6}{median:>11.5g}"
              f"{q1:>11.5g}{q3:>11.5g}{share:>9.4f}{'-':>7}  reported, not gated")
        print(f"{workload:<16}reference check {'passed' if correct else 'FAILED'} "
              f"on {len(runs)} runs; trials attempted {entry['attempted']}, "
              f"failed {entry['failed']}")
        summary[workload] = entry

    if args.label:
        for workload in workloads:
            result, run_meta = run_once(workload, 0, seconds, 1)
            summary[workload]["per_layer"] = {
                k: v["value"] for k, v in result["metrics"].items()}
            summary[workload]["per_layer_details"] = run_meta["details"]
        trajectory = (json.loads(TRAJECTORY.read_text(encoding="utf-8"))
                      if TRAJECTORY.exists() else [])
        trajectory.append({
            "label": args.label,
            "date": datetime.date.today().isoformat(),
            "runs": args.runs, "run_seconds": seconds,
            "machine": {k: meta.get(k) for k in MACHINE_KEYS},
            "workloads": summary,
        })
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n",
                              encoding="utf-8")
    return 0 if steady and all(s["correct"] for s in summary.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
