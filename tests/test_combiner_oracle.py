"""The numpy combiner builders against the seed scipy builders they replaced.

``reference_kernels`` holds the seed ``build_pc_codebook`` and
``build_disambiguation`` verbatim, with dense matrices from scipy's
``block_diag``. The package must build the same matrices bit for bit, pick
the same candidates from them, and run without importing scipy at all.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from pencil_doa import (
    ArrayConfig,
    HadConfig,
    SourceSet,
    ambiguity_set,
    build_disambiguation,
    build_pc_codebook,
    resolve_ambiguity,
    steering_matrix,
)
from pencil_doa.errors import LowSnrWarning

SRC = Path(__file__).resolve().parent.parent / "src"


@st.composite
def pc_geometries(draw):
    m_rf = draw(st.sampled_from([2, 3, 4, 8, 16]))
    l = draw(st.sampled_from([1, 2, 3, 4, 8]))
    r = draw(st.integers(1, 4))
    angles = draw(st.lists(st.floats(-85.0, 85.0), min_size=r, max_size=r,
                           unique=True))
    snr_db = draw(st.sampled_from([-10.0, 0.0, 10.0, 30.0]))
    k2 = draw(st.sampled_from([1, 2, 7]))
    seed = draw(st.integers(0, 2**32 - 1))
    return HadConfig("pc", l * m_rf, l), tuple(angles), snr_db, k2, seed


def assert_same_matrices(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        npt.assert_array_equal(g, w)


class TestCombinersMatchSeedBuilders:
    @settings(max_examples=60, deadline=None)
    @given(pc_geometries())
    def test_codebook_disambiguation_and_picks_match_oracle(self, geometry):
        had, angles, snr_db, k2, seed = geometry
        book, oracle_book = build_pc_codebook(had), ref.build_pc_codebook(had)
        assert_same_matrices(book.matrices, oracle_book.matrices)
        npt.assert_array_equal(book.phase_grid, oracle_book.phase_grid)
        assert book.projector_scale == oracle_book.projector_scale

        amb = ambiguity_set(angles, had.m_rf, 0.5)
        plan = build_disambiguation(amb, had)
        oracle_plan = ref.build_disambiguation(amb, had, k2)
        assert_same_matrices(plan.combiners, oracle_plan.combiners)
        npt.assert_array_equal(plan.slot_phases, oracle_plan.slot_phases)
        assert plan.padded == oracle_plan.padded

        gen = np.random.default_rng(seed)
        r, m = len(angles), had.num_antennas
        power = 10.0 ** (snr_db / 10.0)
        steer = steering_matrix(ArrayConfig(m, 0.5),
                                SourceSet(angles, (power,) * r)).entries
        chunks = []
        for _ in range(plan.num_combiners):
            s = np.sqrt(power / 2) * (gen.standard_normal((r, k2))
                                      + 1j * gen.standard_normal((r, k2)))
            noise = np.sqrt(0.5) * (gen.standard_normal((m, k2))
                                    + 1j * gen.standard_normal((m, k2)))
            chunks.append(steer @ s + noise)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowSnrWarning)
            picked = resolve_ambiguity(plan, chunks, amb)
            oracle_picked = resolve_ambiguity(oracle_plan, chunks, amb)
        npt.assert_array_equal(picked, oracle_picked)


def test_package_runs_without_scipy():
    script = (
        "import sys\n"
        "from dataclasses import replace\n"
        "import pencil_doa\n"
        "cfg = pencil_doa.preset('example2')\n"
        "for scenario in ('spc_mpm', 'crlb_spc'):\n"
        "    rec, = pencil_doa.run_experiment(replace(\n"
        "        cfg, scenario=scenario, trials=2, grid=cfg.grid[-1:]))\n"
        "    assert rec.root_crlb_deg > 0.0, rec\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.partition('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
