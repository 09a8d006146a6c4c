"""The configuration contract: a mapping is rejected up front, or it runs.

For any mapping of all ``ExperimentConfig`` fields, exactly one of two
things happens: ``config_from_mapping`` raises ``ConfigError`` (CLI exit 2),
or ``run_experiment`` returns one record per grid value and ``csv_text``
formats them (exit 0). Nothing else escapes: no error mid-run, no traceback.
"""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil_doa.cli import main as cli_main
from pencil_doa.errors import ConfigError
from pencil_doa.harness import (
    CSV_HEADER,
    SCENARIOS,
    SWEEP_AXES,
    _draw_angles,
    config_from_mapping,
    csv_text,
    run_experiment,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "pencil_doa"


def mostly(good, bad):
    """Draw from ``good`` four times in five, else from ``bad``.

    With every field hostile at once, nearly every mapping would stop at
    its first check; this way about a third of them reach the run.
    """
    return st.sampled_from([good] * 4 + [bad]).flatmap(lambda strategy: strategy)


NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
# beyond about +-3,000 dB an SNR's power overflows or underflows
SNRS = mostly(st.floats(-20.0, 60.0), st.floats(-4000.0, 4000.0) | NON_FINITE)
POWERS = mostly(st.floats(0.01, 100.0),
                st.floats(1e-300, 1e300) | st.just(0.0) | NON_FINITE)
ANGLES = mostly(st.floats(-89.0, 89.0), st.floats(-100.0, 100.0))
GRID_VALUES = {
    "snr": SNRS,
    "theta": ANGLES,
    "separation": mostly(st.floats(0.2, 20.0), st.floats(-100.0, 100.0)),
    "snapshots": mostly(st.integers(1, 48), st.floats(0.0, 48.0)),
}
SEEDS = mostly(st.integers(0, 2**64 - 1),
               st.integers(2**64, 2**80) | st.integers(-2**70, -1))


@st.composite
def mappings(draw) -> dict:
    """A mapping of every ExperimentConfig field at tiny sizes."""
    sweep = draw(st.sampled_from(SWEEP_AXES))
    m = draw(st.integers(2, 16))
    chains = [l for l in range(1, 9) if m % l == 0 and l < m]
    # a theta sweep takes one source, an angle sweep fixed angles
    angle_sweep = sweep in ("theta", "separation")
    sources = draw(mostly(st.just(1) if sweep == "theta" else st.integers(1, 3),
                          st.integers(0, 3)))
    count = mostly(st.just(sources), st.integers(0, 4))
    # exactly one of powers and snr_db outside an SNR sweep, neither at one
    given = st.just((False, False)) if sweep == "snr" else \
        st.sampled_from([(False, True), (True, False)])
    power_given, snr_given = draw(mostly(given,
                                         st.sampled_from([(True, True), (False, False)])))
    return {
        "scenario": draw(st.sampled_from(SCENARIOS)),
        "m": m,
        "l": draw(mostly(st.sampled_from(chains or [1]), st.integers(1, 8))),
        "spacing_ratio": draw(st.just(0.5) | st.floats(1e-6, 0.5)),
        "angles_deg": tuple(draw(st.lists(ANGLES, min_size=sources,
                                          max_size=sources, unique=True))),
        "powers": draw(count.flatmap(lambda n: st.lists(
            POWERS, min_size=n, max_size=n).map(tuple))) if power_given else None,
        "snr_db": draw(mostly(st.lists(SNRS, min_size=1, max_size=1),
                              st.lists(SNRS, max_size=4)).map(tuple))
        if snr_given else None,
        "snapshots": draw(st.integers(1, 48)),
        "split_divisor": draw(st.integers(2, 64)),
        "xi": draw(mostly(st.none(), st.integers(-1, 17))),
        "sweep": sweep,
        "grid": tuple(draw(st.lists(GRID_VALUES[sweep], min_size=1, max_size=2))),
        "trials": draw(st.integers(1, 3)),
        "seed": draw(SEEDS),
        "random_theta": draw(mostly(st.just(False), st.just(True)) if angle_sweep
                             else st.booleans()),
        "edge_offset_deg": draw(mostly(st.floats(0.0, 89.9), st.floats(85.0, 95.0))),
    }


@settings(max_examples=150, deadline=None)
@given(mappings())
def test_mapping_is_rejected_or_runs(values):
    try:
        cfg, points = config_from_mapping(values)
    except ConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        records = run_experiment(cfg, points=points)
    lines = csv_text(records).splitlines()
    assert len(records) == len(cfg.grid) and len(lines) == len(records) + 1


def test_no_assert_in_src():
    # asserts vanish under python -O, so no input check may rely on one
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


FD = ["--scenario", "fd_mpm", "--m", "16"]
RUN_FD = ["run"] + FD
# SNRs in snr_db apply at every sweep but an SNR sweep
SNAPSHOTS = ["--sweep", "snapshots", "--grid", "16"]
SNR_SWEEP = ["run", "--scenario", "fd_mpm", "--m", "8", "--grid", "10", "--trials", "2"]


@pytest.mark.parametrize("args,field", [
    (RUN_FD + ["--trials", "abc"], "trials"),
    (RUN_FD + ["--angles-deg", "1,x"], "angles_deg"),
    (RUN_FD + ["--seed", str(2**64)], "seed"),
    (RUN_FD + ["--seed", "-1"], "seed"),
    (RUN_FD + SNAPSHOTS + ["--snr-db", "3100"], "snr_db"),
    (RUN_FD + SNAPSHOTS + ["--snr-db", "-4000"], "snr_db"),
    (RUN_FD + ["--sweep", "snr", "--grid", "20,3100"], "grid"),
    (RUN_FD + ["--angles-deg", "0", "--powers", "1,2", "--sweep", "theta",
           "--grid", "0"], "powers"),
    (RUN_FD + SNAPSHOTS + ["--angles-deg", "0,10", "--snr-db", "10,20,30"], "snr_db"),
    (RUN_FD + ["--angles-deg", "0", "--powers", "1e-400", "--sweep", "theta",
           "--grid", "0"], "powers"),
    # an SNR sweep takes its powers from the grid
    (["preset", "example2", "--powers", "1"], "powers"),
    (["run", "--scenario", "fd_mpm", "--m", "8", "--powers", "nan", "--grid", "10"],
     "powers"),
    (["run", "--scenario", "fd_mpm", "--m", "8", "--grid", "nan"], "grid"),
    (RUN_FD + ["--sweep", "snr", "--snr-db", "nan"], "snr_db"),
    # and its SNRs from the grid
    (SNR_SWEEP + ["--snr-db", "5"], "snr_db"),
    (SNR_SWEEP + ["--snr-db", "5,6,7"], "snr_db"),
    (["preset", "example2", "--snr-db", "5"], "snr_db"),
], ids=["trials-abc", "angle-x", "seed-2**64", "seed-minus-1", "snr-overflow",
        "snr-underflow", "snr-grid-overflow", "power-count", "snr-count",
        "zero-power", "preset-snr-sweep-powers", "snr-sweep-powers", "snr-grid-nan",
        "snr-db-nan-at-snr-sweep", "snr-sweep-snr-db", "snr-sweep-snr-db-per-source",
        "preset-snr-sweep-snr-db"])
def test_bad_value_exits_2_naming_its_field(args, field, capsys):
    rc = cli_main(args)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"configuration error: {field}:")
    assert captured.out == ""


def test_malformed_number_in_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("scenario = fd_mpm\nm = eight\n")
    rc = cli_main(["run", "--config", str(path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("configuration error: m:")


def test_snr_db_in_config_file_at_snr_sweep_exits_2(tmp_path, capsys):
    path = tmp_path / "snr.cfg"
    path.write_text("scenario = fd_mpm\nm = 8\nsweep = snr\ngrid = 0, 10\nsnr_db = 5\n")
    rc = cli_main(["run", "--config", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("configuration error: snr_db:")
    assert captured.out == ""


def test_singular_bound_leaves_bound_empty(capsys):
    # at 200 dB the unit noise falls below rounding in Upsilon
    rc = cli_main(["run"] + FD + ["--sweep", "theta", "--grid", "0",
                                  "--snr-db", "200", "--trials", "3"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    row = captured.out.splitlines()[1].split(",")
    assert float(row[2]) >= 0.0 and row[3:6] == ["", "3", "0"]


def test_crowded_random_angles_run(capsys):
    # ten sources 1 deg apart in [-10, 10] deg: rejection draws all fail
    rc = cli_main(["run", "--scenario", "fd_mpm", "--m", "32", "--random-theta", "true",
                   "--angles-deg", "0,1,2,3,4,5,6,7,8,9", "--edge-offset-deg", "80",
                   "--sweep", "snapshots", "--grid", "64,128", "--trials", "3"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    lines = captured.out.splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 3


@settings(max_examples=60, deadline=None)
@given(r=st.integers(2, 12), slack=st.floats(0.0, 3.0), seed=st.integers(0, 2**32))
def test_direct_angle_draw_keeps_gap_and_edges(r, slack, seed):
    # R sources in a span of R - 1 + slack deg leave rejection almost no room
    offset = 90.0 - (r - 1 + slack) / 2.0
    angles = np.array(_draw_angles(np.random.default_rng(seed), r, offset))
    assert angles.shape == (r,)
    assert np.all(np.diff(angles) >= 1.0 - 1e-12)
    assert -90.0 + offset - 1e-12 <= angles[0] and angles[-1] <= 90.0 - offset + 1e-12
