"""Alternate perfbench runs of two checkouts and compare their end-to-end metrics.

    python3 tools/bench_pairs.py PARENT CHANGE --workload spc_mpm_snr \
        [--seed 0] [--seconds 30] [--pairs 10]

PARENT and CHANGE are two checkouts of this repository. Each pair runs
``perfbench/run.py --trace 0`` once in each, at the same workload, seed and
seconds; the order inside a pair alternates, so the host's drift weighs on
both sides alike. Every run works in a fresh copy of its checkout that holds
no ``__pycache__``, with ``PYTHONDONTWRITEBYTECODE=1``, so each process of
both sides compiles ``src/`` from source, as in a new checkout, while
installed packages such as numpy keep their bytecode. When all pairs are
done, it prints one Markdown table row per run set: for each end-to-end
metric of BENCHMARK.json, the parent's median [first quartile, third
quartile], the change's, and how many pairs the change won. A pair is won
when the change is better in the direction BENCHMARK.json gives. Below the
table, a line per metric gives the change in the median and compares the gap
between medians with the parent's interquartile range, and a last line gives
each side's ``src_lines``, read from the ``meta`` line that ``run.py``
prints before its result.

Exit status: 0 when every run reported ``"correct": true``, 1 as soon as one
reports ``"correct": false``, 2 when a run fails in another way. Uses only
the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Left out of each run's copy of a checkout: bytecode, history and old output.
NOT_COPIED = ("__pycache__", ".git", ".hypothesis", ".pytest_cache", "out")


class RunError(Exception):
    """A run ended without a result line."""


class Incorrect(Exception):
    """A run's records differ from the benchmark's references."""


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result, the last line that ``perfbench/run.py`` prints.

    Its ``meta`` holds the run's metadata from the line before, or {}.
    """
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # an empty PYTHONPYCACHEPREFIX would also recompile numpy and the standard
    # library in every process: +0.3 s setup_s and +2.5 MB peak_rss_mb on
    # pmpm_fc_budget (2-vCPU VM)
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        copy = Path(scratch) / "checkout"
        shutil.copytree(checkout, copy, ignore=shutil.ignore_patterns(*NOT_COPIED))
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                              text=True, timeout=seconds + 600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunError(f"{checkout}: exit {done.returncode}, no result line\n"
                       f"{done.stdout}{done.stderr}") from None
    if result.get("correct") is False:
        raise Incorrect(f"{checkout}: {lines[-1]}")
    if done.returncode != 0 or "metrics" not in result:
        raise RunError(f"{checkout}: exit {done.returncode}\n{done.stdout}{done.stderr}")
    try:
        result["meta"] = json.loads(lines[-2])["meta"]
    except (IndexError, json.JSONDecodeError, KeyError, TypeError):
        result["meta"] = {}
    return result


def run_pairs(run, pairs: int, log=print) -> list:
    """``pairs`` of (parent result, change result); ``run(side)`` makes one run.

    Even pairs run the parent first, odd pairs the change first.
    """
    out = []
    for index in range(pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        pair = {side: run(side) for side in order}
        out.append((pair["parent"], pair["change"]))
        log(f"pair {index + 1}/{pairs}: " + ", ".join(
            f"{side} {pair[side]['metrics']['trials_per_s']['value']:.1f} trials/s"
            for side in order if "trials_per_s" in pair[side]["metrics"]))
    return out


def quartiles(values) -> tuple:
    """(median, first quartile, third quartile), as ``perfbench/collect.py`` takes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def compare(pairs: list, metrics: list) -> list:
    """Per metric: name, parent and change quartiles, pairs won, better direction.

    ``metrics`` holds BENCHMARK.json's ``end_to_end`` entries.
    """
    rows = []
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                  for p, c in pairs]
        won = sum(1 for p, c in values if (c > p if higher else c < p))
        rows.append({"name": name, "higher": higher, "won": won,
                     "parent": quartiles([p for p, _ in values]),
                     "change": quartiles([c for _, c in values])})
    return rows


def _figure(value: float) -> str:
    return f"{value:.4g}" if abs(value) < 10 else f"{value:.1f}"


def _cell(stats) -> str:
    median, q1, q3 = stats
    return f"{_figure(median)} [{_figure(q1)}, {_figure(q3)}]"


def table(workload: str, seed: int, pairs: int, rows: list) -> str:
    """The Markdown table that CHANGES.md uses, with one row for this run set."""
    head = ["workload", "seeds, pairs"] + [row["name"] for row in rows]
    cells = [f"`{workload}`", f"{seed}, {pairs}"] + [
        f"{_cell(row['parent'])} -> {_cell(row['change'])}, {row['won']}/{pairs}"
        for row in rows]
    return "\n".join(["| " + " | ".join(head) + " |",
                      "| " + " | ".join("---" for _ in head) + " |",
                      "| " + " | ".join(cells) + " |"])


def verdicts(rows: list, pairs: int) -> list:
    """Per metric: the median change, and the median gap against the parent's spread."""
    lines = []
    for row in rows:
        (p_med, p_q1, p_q3), c_med = row["parent"], row["change"][0]
        gain = (c_med - p_med) if row["higher"] else (p_med - c_med)
        relative = f"{100.0 * (c_med - p_med) / p_med:+.1f}%" if p_med else "n/a"
        lines.append(
            f"{row['name']}: median {_figure(p_med)} -> {_figure(c_med)} ({relative}), "
            f"won {row['won']}/{pairs}, gap in the better direction {_figure(gain)} "
            f"{'above' if gain > p_q3 - p_q1 else 'not above'} the parent's "
            f"interquartile range {_figure(p_q3 - p_q1)}")
    return lines


def source_lines(pairs: list) -> str:
    """Each side's ``src_lines`` from its runs' metadata; n/a where none gave it."""
    counts = [sorted({str(pair[side]["meta"].get("src_lines", "n/a"))
                      for pair in pairs}) for side in (0, 1)]
    return f"src_lines: parent {'/'.join(counts[0])}, change {'/'.join(counts[1])}"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    try:
        pairs = run_pairs(lambda side: run_once(checkouts[side], args.workload,
                                                args.seed, args.seconds),
                          args.pairs, log=lambda line: print(line, file=sys.stderr))
    except Incorrect as exc:
        print(f"incorrect run: {exc}", file=sys.stderr)
        return 1
    except (RunError, subprocess.TimeoutExpired) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 2
    rows = compare(pairs, spec["end_to_end"])
    print(table(args.workload, args.seed, args.pairs, rows))
    print()
    for line in verdicts(rows, args.pairs):
        print(line)
    failed = {side: sum(pair[i]["failed"] for pair in pairs)
              for i, side in enumerate(("parent", "change"))}
    print(f"failed trials: parent {failed['parent']}, change {failed['change']}")
    print(source_lines(pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
