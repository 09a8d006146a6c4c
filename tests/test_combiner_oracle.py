"""The block-structured combiner kernels against the dense seed kernels.

``reference_kernels`` holds the seed builders (dense matrices, scipy's
``block_diag`` for PC) and the dense ``apply_combiner``, ``pmpm_aggregate``,
``resolve_ambiguity`` and ``crlb_spc`` that the (blocks, width, m_rf) column
layout replaced. Expanded with ``dense``, the package's columns must equal
the seed matrices bit for bit; combining and aggregation must match within
1e-12 relative, the bound within 1e-10 relative, and the disambiguation scan
must pick the same candidates. The package must also run without scipy.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from pencil_doa import (
    ArrayConfig,
    HadConfig,
    SourceSet,
    ambiguity_set,
    apply_combiner,
    build_codebook,
    build_disambiguation,
    build_fc_codebook,
    build_pc_codebook,
    crlb_spc,
    phase_from_angle,
    pmpm_aggregate,
    resolve_ambiguity,
    steering_matrix,
)
from pencil_doa.errors import LowSnrWarning
from reference_kernels import dense

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


@st.composite
def had_geometries(draw):
    """FC or PC receivers, 1 to 4 sources, K from 1 snapshot up."""
    arch = draw(st.sampled_from(["fc", "pc"]))
    l = draw(st.sampled_from([1, 2, 3, 4, 8]))
    n = draw(st.sampled_from([2, 3, 4, 8, 16]))
    r = draw(st.integers(1, 4))
    angles = draw(st.lists(st.floats(-85.0, 85.0), min_size=r, max_size=r,
                           unique=True))
    snr_db = draw(st.sampled_from([-10.0, 0.0, 10.0, 30.0]))
    k = draw(st.sampled_from([1, 2, 7, 32]))
    seed = draw(st.integers(0, 2**32 - 1))
    return HadConfig(arch, l * n, l), tuple(angles), snr_db, k, seed


@st.composite
def bound_geometries(draw):
    """PC receivers with R < L sources, 1 to 4 of them, for the bound."""
    m_rf = draw(st.sampled_from([2, 3, 4, 8, 16]))
    l = draw(st.sampled_from([2, 3, 4, 8]))
    r = draw(st.integers(1, min(4, l - 1)))
    angles = draw(st.lists(st.floats(-85.0, 85.0), min_size=r, max_size=r,
                           unique=True))
    power_db = draw(st.sampled_from([-10.0, 0.0, 10.0, 30.0]))
    snapshots = draw(st.sampled_from([1, 7, 64]))
    return HadConfig("pc", l * m_rf, l), tuple(angles), power_db, snapshots


def noisy_blocks(had, angles, snr_db, count, k, seed):
    """``count`` M-by-k blocks from the given sources plus unit noise."""
    gen = np.random.default_rng(seed)
    r, m = len(angles), had.num_antennas
    power = 10.0 ** (snr_db / 10.0)
    steer = steering_matrix(ArrayConfig(m, 0.5),
                            SourceSet(angles, (power,) * r))
    blocks = []
    for _ in range(count):
        s = np.sqrt(power / 2) * (gen.standard_normal((r, k))
                                  + 1j * gen.standard_normal((r, k)))
        noise = np.sqrt(0.5) * (gen.standard_normal((m, k))
                                + 1j * gen.standard_normal((m, k)))
        blocks.append(steer @ s + noise)
    return blocks


def oracle_had(had):
    """The same receiver as the seed ``HadConfig`` that the oracles take."""
    return ref.HadConfig(had.architecture, had.num_antennas, had.rf_chains)


def oracle_codebook(had):
    if had.architecture == "fc":
        return ref.build_fc_codebook(oracle_had(had))
    return ref.build_pc_codebook(oracle_had(had))


def assert_same_matrices(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        npt.assert_array_equal(g, w)


def assert_relative(got, want, rel):
    scale = float(np.max(np.abs(want)))
    npt.assert_allclose(got, want, rtol=0, atol=rel * scale)


class TestCombinersMatchSeedBuilders:
    @settings(max_examples=60, deadline=None)
    @given(pc_geometries())
    def test_codebook_disambiguation_and_picks_match_oracle(self, geometry):
        had, angles, snr_db, k2, seed = geometry
        book, oracle_book = build_pc_codebook(had), oracle_codebook(had)
        assert_same_matrices(dense(book), oracle_book.matrices)

        cands = ambiguity_set(angles, had.m_rf, 0.5)
        amb = ref.AmbiguitySet(per_source=tuple(cands), m_rf=had.m_rf,
                               spacing_ratio=0.5)
        columns = build_disambiguation(cands, had.rf_chains)
        oracle_plan = ref.build_disambiguation(amb, oracle_had(had), k2)
        assert_same_matrices(dense(columns), oracle_plan.combiners)

        chunks = noisy_blocks(had, angles, snr_db, len(columns), k2, seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LowSnrWarning)
            picked = resolve_ambiguity(columns, chunks, cands, 0.5)
            oracle_picked = ref.resolve_ambiguity(oracle_plan, chunks, amb)
        npt.assert_array_equal(picked, oracle_picked)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([1, 2, 3, 4, 8]), st.sampled_from([2, 3, 4, 8, 16]))
    def test_fc_codebook_matches_oracle(self, l, n):
        had = HadConfig("fc", l * n, l)
        book, oracle_book = build_fc_codebook(had), oracle_codebook(had)
        assert_same_matrices(dense(book), oracle_book.matrices)


class TestKernelsMatchDenseOracles:
    @settings(max_examples=80, deadline=None)
    @given(had_geometries())
    def test_combining_and_aggregation(self, geometry):
        had, angles, snr_db, k, seed = geometry
        book, oracle_book = build_codebook(had), oracle_codebook(had)
        segments = noisy_blocks(had, angles, snr_db, len(book), k, seed)
        q = apply_combiner(book, np.asarray(segments))
        oracle_q = [ref.apply_combiner(w, x)
                    for w, x in zip(oracle_book.matrices, segments)]
        assert_relative(q, np.asarray(oracle_q), 1e-12)
        assert_relative(pmpm_aggregate(q, book),
                        ref.pmpm_aggregate(oracle_q, oracle_book), 1e-12)

    @settings(max_examples=80, deadline=None)
    @given(bound_geometries())
    def test_crlb_spc(self, geometry):
        had, angles, power_db, snapshots = geometry
        # Compared where the bound is well conditioned: sources that
        # the L-element virtual array separates by at least half its
        # beamwidth, pi/L, in folded phase, each at least 1e-3 rad of folded
        # phase off the DFT grid. Closer pairs nearly share a virtual
        # steering vector (estimate_spc_mpm raises AmbiguousGeometryError).
        # A source within delta of the grid sits near a null of every other
        # combiner; E = W^H A then has relative rounding error of about
        # 1e-16/delta in both kernels.
        r, l, m_rf = len(angles), had.rf_chains, had.m_rf
        folded = np.exp(1j * m_rf * phase_from_angle(np.array(angles), 0.5))
        gaps = [abs(np.angle(folded[i] / folded[j]))
                for i in range(r) for j in range(i)]
        assume(min(gaps, default=np.pi) >= np.pi / l)
        assume(np.min(np.abs(np.angle(folded))) >= 1e-3)
        array = ArrayConfig(had.num_antennas, 0.5)
        sources = SourceSet(angles, (10.0 ** (power_db / 10.0),) * r)
        got = crlb_spc(array, sources, snapshots, build_pc_codebook(had))
        want = ref.crlb_spc(ref.CrlbInputs(
            array, sources, snapshots, combiners=oracle_codebook(had))).matrix
        assert_relative(got, want, 1e-10)


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
