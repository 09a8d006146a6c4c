import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil_doa import (
    ArrayConfig,
    GainModel,
    HadConfig,
    SourceSet,
    apply_combiner,
    build_fc_codebook,
    build_pc_codebook,
    crlb_spc,
    dft_column,
    dft_phase,
    gain,
    sectors,
)
from pencil_doa.combiners import apply_adjoint
from pencil_doa.errors import ConfigError, ShapeError, UnsupportedGeometry
from reference_kernels import dense


def geometric_sum(delta, m_rf):
    """Independent oracle for the subarray gain."""
    return sum(complex(math.cos(m * delta), math.sin(m * delta))
               for m in range(m_rf))


class TestDftPhase:
    def test_four_point(self):
        phases = [dft_phase(n, 4) for n in range(1, 5)]
        npt.assert_allclose(phases, [0.0, np.pi / 2, -np.pi, -np.pi / 2])

    def test_two_point_wrap(self):
        npt.assert_allclose([dft_phase(1, 2), dft_phase(2, 2)], [0.0, -np.pi])

    def test_eight_point_index_five(self):
        assert dft_phase(5, 8) == pytest.approx(-np.pi)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            dft_phase(0, 4)
        with pytest.raises(IndexError):
            dft_phase(5, 4)


class TestHadConfig:
    def test_derived_quantities(self):
        fc = HadConfig("fc", 32, 8)
        assert (fc.m_rf, fc.n_combiners) == (32, 4)
        pc = HadConfig("pc", 32, 8)
        assert (pc.m_rf, pc.n_combiners) == (4, 4)

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            HadConfig("fc", 10, 3)  # M not a multiple of L
        with pytest.raises(ConfigError):
            HadConfig("pc", 8, 8)  # L == M
        with pytest.raises(ConfigError):
            HadConfig("hybrid", 8, 2)


class TestFcCodebook:
    def test_explicit_four_point_dft(self):
        cb = build_fc_codebook(HadConfig("fc", 4, 2))
        assert len(cb) == 2
        assert cb.shape == (2, 1, 2, 4)
        matrices = dense(cb)
        # column c of combiner n is the ((n-1)L + c)-th DFT column over sqrt(L)
        for n in range(2):
            for c in range(2):
                k = 2 * n + c
                expected = np.exp(2j * np.pi * k * np.arange(4) / 4) / math.sqrt(2)
                npt.assert_allclose(matrices[n][:, c], expected, atol=1e-12)
        gram = matrices[0].conj().T @ matrices[0]
        npt.assert_allclose(gram, 2.0 * np.eye(2), atol=1e-12)

    def test_completeness_identity(self):
        for m, l in ((4, 2), (16, 4), (32, 8)):
            cb = build_fc_codebook(HadConfig("fc", m, l))
            total = sum(w @ w.conj().T for w in dense(cb)) * (l / m)
            assert np.linalg.norm(total - np.eye(m)) < 1e-10

    def test_entry_modulus(self):
        cb = build_fc_codebook(HadConfig("fc", 6, 3))
        for w in dense(cb):
            npt.assert_allclose(np.abs(w), 1 / math.sqrt(3), atol=1e-12)

    def test_wrong_architecture(self):
        with pytest.raises(ConfigError):
            build_fc_codebook(HadConfig("pc", 8, 2))


class TestPcCodebook:
    def test_first_combiner_all_ones_blocks(self):
        cb = build_pc_codebook(HadConfig("pc", 8, 2))
        assert cb.shape == (4, 2, 1, 4)
        w1 = dense(cb[0])
        assert w1.shape == (8, 2)
        npt.assert_allclose(w1[:4, 0], np.ones(4))
        npt.assert_allclose(w1[4:, 1], np.ones(4))
        npt.assert_allclose(w1[4:, 0], 0.0)

    def test_second_combiner_quarter_turns(self):
        cb = build_pc_codebook(HadConfig("pc", 8, 2))
        npt.assert_allclose(dense(cb[1])[:4, 0], [1.0, 1.0j, -1.0, -1.0j],
                            atol=1e-12)

    def test_orthogonality_and_completeness(self):
        cfg = HadConfig("pc", 8, 2)
        cb = build_pc_codebook(cfg)
        for w in dense(cb):
            npt.assert_allclose(w.conj().T @ w, 4.0 * np.eye(2), atol=1e-10)
        total = sum(w @ w.conj().T for w in dense(cb)) / 4.0
        assert np.linalg.norm(total - np.eye(8)) < 1e-10

    def test_semi_unitary_check(self):
        # the SPC bound accepts a codebook only if W^H W = (M/L) I
        cb = build_pc_codebook(HadConfig("pc", 8, 2))
        array, sources = ArrayConfig(8, 0.5), SourceSet((10.0,), (1.0,))
        assert crlb_spc(array, sources, 4, cb).shape == (1, 1)
        with pytest.raises(ConfigError):  # W^H W = 2 I
            crlb_spc(array, sources, 4, cb / math.sqrt(2.0))
        with pytest.raises(ConfigError):  # one block of 4 covers 4 of 8 antennas
            crlb_spc(array, sources, 4, cb[:, :1])


class TestGain:
    def test_peak_value(self):
        model = GainModel(m_rf=4, alpha=1.0, psi_rule="pc")
        assert gain(0.3, 0.3, model) == pytest.approx(4.0)

    def test_nulls(self):
        model = GainModel(m_rf=4, alpha=1.0, psi_rule="pc")
        for k in range(1, 4):
            assert abs(gain(2 * np.pi * k / 4, 0.0, model)) < 1e-12

    def test_sector_edge_magnitude(self):
        model = GainModel(m_rf=4, alpha=1.0, psi_rule="pc")
        value = abs(gain(np.pi / 4, 0.0, model))
        assert value == pytest.approx(1.0 / math.sin(np.pi / 8))
        assert value == pytest.approx(2.6131, abs=1e-4)

    @settings(max_examples=100, deadline=None)
    @given(mu=st.floats(-np.pi, np.pi), phi=st.floats(-np.pi, np.pi),
           m_rf=st.sampled_from([2, 3, 4, 8, 16]))
    def test_matches_geometric_sum(self, mu, phi, m_rf):
        model = GainModel(m_rf=m_rf, alpha=1.0, psi_rule="pc")
        assert abs(gain(mu, phi, model) - geometric_sum(mu - phi, m_rf)) < 1e-11

    def test_parseval_sum_over_codebook(self):
        for m_rf in (2, 4, 8):
            model = GainModel(m_rf=m_rf, alpha=1.0, psi_rule="pc")
            phases = [dft_phase(n, m_rf) for n in range(1, m_rf + 1)]
            for mu in np.linspace(-np.pi, np.pi, 41):
                total = sum(abs(gain(mu, p, model)) ** 2 for p in phases)
                assert total == pytest.approx(m_rf * m_rf, rel=1e-10)

    def test_psi_rule(self):
        pc = GainModel(m_rf=4, alpha=1.0, psi_rule="pc")
        fc = GainModel(m_rf=16, alpha=0.5, psi_rule="fc")
        assert pc.psi(0.3, 3) == pytest.approx(2 * 0.3 * 4)
        assert fc.psi(0.3, 3) == 0.0


class TestSectors:
    def test_first_sector(self):
        ss = sectors(HadConfig("pc", 16, 4))  # m_rf = 4
        lo, hi = ss[0][0]
        assert lo == pytest.approx(math.degrees(math.asin(-0.25)))
        assert hi == pytest.approx(math.degrees(math.asin(0.25)))
        assert hi == pytest.approx(14.4775, abs=1e-4)

    def test_wrap_sector_pieces(self):
        ss = sectors(HadConfig("pc", 16, 4))
        pieces = ss[2]  # n = N/2 + 1 with N = 4
        assert len(pieces) == 2
        npt.assert_allclose(pieces[0], (-90.0, math.degrees(math.asin(-0.75))))
        npt.assert_allclose(pieces[1], (math.degrees(math.asin(0.75)), 90.0))

    def test_grid_membership_exactly_one(self):
        ss = sectors(HadConfig("pc", 32, 8))  # m_rf = 4
        grid = np.linspace(-90.0, 90.0, 10_002)[1:-1]
        for theta in grid:
            hits = sum(1 for pieces in ss
                       for lo, hi in pieces if lo < theta <= hi)
            assert hits == 1

    def test_phase_width(self):
        had = HadConfig("pc", 64, 8)  # m_rf = 8
        ss = sectors(had)
        for pieces in ss:
            width = 0.0
            for lo, hi in pieces:
                width += (np.pi * math.sin(math.radians(hi))
                          - np.pi * math.sin(math.radians(lo)))
            assert width == pytest.approx(2 * np.pi / had.m_rf, rel=1e-9)

    def test_unsupported_spacing(self):
        with pytest.raises(UnsupportedGeometry):
            sectors(HadConfig("pc", 16, 4), spacing_ratio=0.4)

    def test_fc_rejected(self):
        with pytest.raises(ConfigError):
            sectors(HadConfig("fc", 16, 4))


class TestApplyCombiner:
    def test_constant_column_beamforming_gain(self):
        cb = build_pc_codebook(HadConfig("pc", 8, 2))
        c = 0.7 - 0.2j
        x = np.full((8, 3), c)
        out = apply_combiner(cb[0], x)
        npt.assert_allclose(out, 4 * c, atol=1e-12)

    def test_zero_block(self):
        cb = build_pc_codebook(HadConfig("pc", 8, 2))
        out = apply_combiner(cb[1], np.zeros((8, 2)))
        npt.assert_array_equal(out, 0.0)

    def test_matches_triple_loop(self):
        gen = np.random.default_rng(3)
        # (blocks, width, m_rf) layouts of an 8-antenna combiner
        for layout in ((1, 2, 8), (2, 1, 4), (2, 2, 4)):
            cols = gen.standard_normal(layout) + 1j * gen.standard_normal(layout)
            w = dense(cols)
            x = gen.standard_normal((8, 3)) + 1j * gen.standard_normal((8, 3))
            out = apply_combiner(cols, x)
            assert out.shape == (w.shape[1], 3)
            for ell in range(w.shape[1]):
                for k in range(3):
                    acc = 0.0 + 0.0j
                    for m in range(8):
                        acc += np.conj(w[m, ell]) * x[m, k]
                    assert abs(out[ell, k] - acc) < 1e-12

    def test_stack_broadcasts_over_combiners(self):
        gen = np.random.default_rng(4)
        cb = build_pc_codebook(HadConfig("pc", 12, 3))
        x = gen.standard_normal((len(cb), 12, 5))
        out = apply_combiner(cb, x)
        assert out.shape == (len(cb), 3, 5)
        for n, w in enumerate(dense(cb)):
            npt.assert_allclose(out[n], w.conj().T @ x[n], rtol=0, atol=1e-12)

    def test_adjoint_is_dense_product(self):
        gen = np.random.default_rng(5)
        for cb in (build_fc_codebook(HadConfig("fc", 8, 2)),
                   build_pc_codebook(HadConfig("pc", 8, 2))):
            q = gen.standard_normal((len(cb), 2, 3)) + 1j
            out = apply_adjoint(cb, q)
            for n, w in enumerate(dense(cb)):
                npt.assert_allclose(out[n], w @ q[n], rtol=0, atol=1e-12)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            apply_combiner(np.zeros((1, 2, 4)), np.zeros((5, 3)))
        with pytest.raises(ShapeError):
            apply_combiner(np.zeros((4, 2)), np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            apply_adjoint(np.zeros((2, 1, 4)), np.zeros((3, 3)))
