"""tools/bench_pairs.py against fake checkouts whose run.py prints a fixed result."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

METRICS = [{"name": "trials_per_s", "better": "higher"},
           {"name": "peak_rss_mb", "better": "lower"}]


def result(trials_per_s, peak_rss_mb, correct=True):
    return {"correct": correct, "attempted": 100, "failed": 0,
            "metrics": {"trials_per_s": {"value": trials_per_s, "unit": "1/s"},
                        "point_ms_p50": {"value": 30.0, "unit": "ms"},
                        "setup_s": {"value": 0.15, "unit": "s"},
                        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}


def checkout(tmp_path, name, printed, status=0, meta=None):
    """A directory whose perfbench/run.py prints ``printed`` and exits ``status``.

    The line before is ``{"meta": meta}``, or ``{}`` without one.
    """
    root = tmp_path / name
    (root / "perfbench").mkdir(parents=True)
    before = json.dumps({} if meta is None else {"meta": meta})
    (root / "perfbench" / "run.py").write_text(
        f"import sys\nprint({before!r})\nprint({json.dumps(printed)!r})\n"
        f"sys.exit({status})\n")
    return root


class TestSummary:
    def test_quartiles_pairs_won_and_table(self):
        pairs = [(result(100.0 + i, 40.0), result(120.0 + i, 40.5 - (i == 2)))
                 for i in range(5)]
        pairs[4] = (result(130.0, 40.0), result(125.0, 41.0))
        rows = bench_pairs.compare(pairs, METRICS)
        assert [row["won"] for row in rows] == [4, 1]
        assert rows[0]["parent"] == (102.0, 100.5, 116.5)
        text = bench_pairs.table("spc_mpm_snr", 127, 5, rows)
        head, rule, row = text.splitlines()
        assert head == "| workload | seeds, pairs | trials_per_s | peak_rss_mb |"
        assert rule == "| --- | --- | --- | --- |"
        assert row.startswith("| `spc_mpm_snr` | 127, 5 | 102.0 [100.5, 116.5] -> "
                              "122.0 [120.5, 124.0], 4/5 | 40.0 [40.0, 40.0] -> ")
        assert row.endswith(", 1/5 |")

    def test_verdict_compares_gap_with_parent_spread(self):
        pairs = [(result(100.0 + i, 40.0 + i), result(110.0 + i, 40.0 + i))
                 for i in range(10)]
        trials, rss = bench_pairs.verdicts(bench_pairs.compare(pairs, METRICS), 10)
        assert "(+9.6%), won 10/10" in trials
        assert "gap in the better direction 10.0 above" in trials
        assert "won 0/10" in rss and "not above" in rss

    def test_one_pair(self):
        rows = bench_pairs.compare([(result(1.0, 2.0), result(2.0, 1.0))], METRICS)
        assert rows[0]["parent"] == (1.0, 1.0, 1.0) and rows[1]["won"] == 1

    def test_order_alternates_inside_pairs(self):
        calls = []

        def run(side):
            calls.append(side)
            return result(1.0, 1.0)

        assert len(bench_pairs.run_pairs(run, 3, log=lambda line: None)) == 3
        assert calls == ["parent", "change", "change", "parent", "parent", "change"]


class TestRuns:
    def test_pairs_from_two_checkouts(self, tmp_path, capsys):
        parent = checkout(tmp_path, "parent", result(100.0, 40.0))
        change = checkout(tmp_path, "change", result(150.0, 40.0))
        rc = bench_pairs.main([str(parent), str(change), "--workload", "w",
                               "--seconds", "1", "--pairs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "| `w` | 0, 2 | 100.0 [100.0, 100.0] -> 150.0 [150.0, 150.0], 2/2 |" in out
        assert "failed trials: parent 0, change 0" in out
        assert "src_lines: parent n/a, change n/a" in out

    def test_source_lines_from_each_side_meta(self, tmp_path, capsys):
        parent = checkout(tmp_path, "parent", result(100.0, 40.0),
                          meta={"src_lines": 1919, "seed": 0})
        change = checkout(tmp_path, "change", result(100.0, 40.0),
                          meta={"src_lines": 1909, "seed": 0})
        rc = bench_pairs.main([str(parent), str(change), "--workload", "w",
                               "--seconds", "1", "--pairs", "2"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == \
            "src_lines: parent 1919, change 1909"

    def test_runs_compile_src_from_source(self, tmp_path, monkeypatch):
        parent = checkout(tmp_path, "parent", result(100.0, 40.0))
        stale = parent / "src" / "pkg" / "__pycache__"
        stale.mkdir(parents=True)
        (stale / "mod.cpython-311.pyc").write_bytes(b"stale")
        (parent / "src" / "pkg" / "mod.py").write_text("")
        monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "old-cache"))
        seen = {}

        def fake_run(command, cwd, env, **_):
            seen.update(cwd=Path(cwd), env=env,
                        files=sorted(p.relative_to(cwd).as_posix()
                                     for p in Path(cwd).rglob("*")))
            return subprocess.CompletedProcess(
                command, 0, stdout=json.dumps(result(100.0, 40.0)), stderr="")

        monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
        bench_pairs.run_once(parent, "w", 0, 1.0)
        assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        assert "PYTHONPYCACHEPREFIX" not in seen["env"]
        assert seen["cwd"] != parent and not seen["cwd"].exists()
        assert seen["files"] == ["perfbench", "perfbench/run.py", "src", "src/pkg",
                                 "src/pkg/mod.py"]

    def test_incorrect_run_exits_1(self, tmp_path, capsys):
        parent = checkout(tmp_path, "parent", result(100.0, 40.0))
        change = checkout(tmp_path, "change", {"correct": False, "error": "mismatch"},
                          status=1)
        rc = bench_pairs.main([str(parent), str(change), "--workload", "w",
                               "--seconds", "1", "--pairs", "2"])
        assert rc == 1
        assert '"correct": false' in capsys.readouterr().err

    def test_run_without_result_exits_2(self, tmp_path, capsys):
        parent = checkout(tmp_path, "parent", result(100.0, 40.0))
        broken = tmp_path / "broken"
        (broken / "perfbench").mkdir(parents=True)
        (broken / "perfbench" / "run.py").write_text("raise SystemExit(3)\n")
        rc = bench_pairs.main([str(parent), str(broken), "--workload", "w",
                               "--seconds", "1", "--pairs", "1"])
        assert rc == 2
        assert "exit 3" in capsys.readouterr().err

    def test_pairs_must_be_positive(self):
        with pytest.raises(SystemExit):
            bench_pairs.parse_args(["a", "b", "--workload", "w", "--pairs", "0"])
