import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref

from pencil_doa import (
    ArrayConfig,
    HadConfig,
    PencilConfig,
    RngSpec,
    SourceSet,
    build_pc_codebook,
    crlb_fd,
    crlb_spc,
    estimate_spc_mpm,
    generate_noise,
    generate_signals,
    pooled_root_deg,
    steering_matrix,
    steering_derivative,
)
from pencil_doa.arrays import paired_squared_errors
from pencil_doa.crlb import _invert_fim
from pencil_doa.errors import ConfigError, ESTIMATOR_FAILURES, SingularFim


def numeric_crlb_theta(m, theta_deg, power, snapshots, h=1e-6):
    """Gaussian-model Fisher information over (theta, power, noise variance),
    with covariance derivatives taken by central differences; returns the
    angle entry of the inverse information matrix."""
    cfg = ArrayConfig(m, 0.5)

    def cov(params):
        theta, p, nv = params
        src = SourceSet((math.degrees(theta),), (p,))
        a = steering_matrix(cfg, src)
        return p * (a @ a.conj().T) + nv * np.eye(m)

    base = np.array([math.radians(theta_deg), power, 1.0])
    sigma_inv = np.linalg.inv(cov(base))
    derivs = []
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        derivs.append((cov(base + step) - cov(base - step)) / (2 * h))
    fim = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            fim[i, j] = snapshots * np.real(
                np.trace(sigma_inv @ derivs[i] @ sigma_inv @ derivs[j]))
    return np.linalg.inv(fim)[0, 0]


class TestSteeringDerivative:
    def test_first_element_is_zero(self):
        f = steering_derivative(ArrayConfig(4, 0.5), SourceSet((0.0,), (1.0,)))
        assert f[0, 0] == 0.0

    def test_second_element_broadside(self):
        f = steering_derivative(ArrayConfig(4, 0.5), SourceSet((0.0,), (1.0,)))
        npt.assert_allclose(f[1, 0], 1j * np.pi, atol=1e-12)

    def test_central_difference_oracle(self):
        cfg = ArrayConfig(6, 0.5)
        for theta in (-47.0, 3.0, 61.0):
            src = SourceSet((theta,), (1.0,))
            f = steering_derivative(cfg, src)
            h = 1e-5  # radians
            up = steering_matrix(cfg, SourceSet((theta + math.degrees(h),), (1.0,)))
            dn = steering_matrix(cfg, SourceSet((theta - math.degrees(h),), (1.0,)))
            fd = (up - dn) / (2 * h)
            assert np.max(np.abs(fd[:, 0] - f[:, 0])) < 1e-6


class TestPooledRootDeg:
    def test_known_diagonal(self):
        # source-averaged diagonal (1 + 3)/2 = 2 rad^2; off-diagonals ignored
        root = pooled_root_deg(np.array([[1.0, 7.0], [7.0, 3.0]]))
        assert type(root) is float
        assert root == math.degrees(math.sqrt(2.0))


class TestCrlbFd:
    def test_snapshot_scaling_exact(self):
        cfg = ArrayConfig(16, 0.5)
        src = SourceSet((12.0, -33.0), (5.0, 2.0))
        one = crlb_fd(cfg, src, 64)
        two = crlb_fd(cfg, src, 128)
        npt.assert_array_equal(one, 2.0 * two)

    def test_headline_value(self):
        bound = crlb_fd(ArrayConfig(32, 0.5), SourceSet((0.0,), (100.0,)), 32)
        assert abs(pooled_root_deg(bound) / 0.004 - 1.0) <= 0.20

    def test_matches_numeric_fisher_information(self):
        for theta, power in ((20.0, 5.0), (0.0, 10.0), (-35.0, 2.0)):
            closed = crlb_fd(ArrayConfig(4, 0.5), SourceSet((theta,), (power,)), 10)
            oracle = numeric_crlb_theta(4, theta, power, 10)
            assert abs(closed[0, 0] / oracle - 1.0) < 0.01

    def test_positive_definite_and_symmetric(self):
        bound = crlb_fd(ArrayConfig(12, 0.5),
                        SourceSet((-20.0, 1.0, 44.0), (1.0, 3.0, 2.0)), 16)
        npt.assert_allclose(bound, bound.T, atol=1e-18)
        assert np.all(np.linalg.eigvalsh(bound) > 0)

    def test_monotone_in_power(self):
        cfg = ArrayConfig(16, 0.5)
        roots = [pooled_root_deg(crlb_fd(cfg, SourceSet((10.0,), (p,)), 8))
                 for p in (1.0, 10.0, 100.0)]
        assert roots[0] > roots[1] > roots[2]

    def test_singular_information_raises(self):
        with pytest.raises(SingularFim):
            _invert_fim(np.array([[1.0, 0.0], [0.0, -1.0]]), 1.0)
        with pytest.raises(SingularFim):
            _invert_fim(np.zeros((2, 2)), 1.0)

    def test_no_noise_subspace_raises(self):
        # R >= M sources span the array space, so P_perp(A) = 0 and the
        # information is zero by structure; evaluated anyway, M = 2 with two
        # sources gives a bound of about 5e7 deg made of rounding
        for m, angles in ((2, (0.0, 21.0)), (4, (-50.0, -10.0, 20.0, 60.0, 75.0))):
            src = SourceSet(angles, (10.0,) * len(angles))
            with pytest.raises(SingularFim):
                crlb_fd(ArrayConfig(m, 0.5), src, 64)
        crlb_fd(ArrayConfig(2, 0.5), SourceSet((21.0,), (10.0,)), 64)


@pytest.mark.parametrize("bound", [
    # at 200 dB the unit noise falls below rounding and leaves Upsilon singular
    lambda: crlb_fd(ArrayConfig(16, 0.5), SourceSet((0.0,), (1e20,)), 128),
    # a power of 1e300 overflows the core's inverse to -inf
    lambda: crlb_spc(ArrayConfig(12, 1e-6), SourceSet((0.0, 30.0), (1.0, 1e300)), 8,
                     build_pc_codebook(HadConfig("pc", 12, 4))),
], ids=["singular-upsilon", "non-finite-inverse"])
def test_bound_kernel_failure_raises_singular_fim(bound):
    with pytest.raises(SingularFim):
        bound()


def bound_or_error(bound, *args):
    try:
        return bound(*args)
    except SingularFim as exc:
        return type(exc)


class TestCrlbFdMatchesFrozenKernel:
    """The shared kernel under the identity combiner against the frozen
    full-array kernel: the same bits, or the same exception."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bitwise(self, data):
        m = data.draw(st.integers(2, 128))
        r = data.draw(st.integers(1, m - 1))
        angles = data.draw(st.lists(st.floats(-89.0, 89.0), min_size=r,
                                    max_size=r, unique=True))
        powers = data.draw(st.lists(st.floats(1e-2, 1e3), min_size=r, max_size=r))
        k = data.draw(st.sampled_from([1, 3, 16, 128]))
        array, sources = ArrayConfig(m, 0.5), SourceSet(angles, powers)
        got = bound_or_error(crlb_fd, array, sources, k)
        want = bound_or_error(
            lambda: ref.crlb_fd(ref.CrlbInputs(array, sources, k)).matrix)
        if isinstance(got, type) or isinstance(want, type):
            assert got is want
        else:
            npt.assert_array_equal(got, want)


class TestCrlbSpcMatchesFrozenKernel:
    """The shared kernel under a PC codebook against the frozen block kernel:
    the same bits, or the same exception."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bitwise(self, data):
        l = data.draw(st.integers(2, 16))
        m = l * data.draw(st.integers(2, 8))
        r = data.draw(st.integers(1, l - 1))
        angles = data.draw(st.lists(st.floats(-89.0, 89.0), min_size=r,
                                    max_size=r, unique=True))
        powers = data.draw(st.lists(st.floats(1e-2, 1e3), min_size=r, max_size=r))
        k = data.draw(st.sampled_from([1, 3, 16, 128]))
        array, sources = ArrayConfig(m, 0.5), SourceSet(angles, powers)
        cb = build_pc_codebook(HadConfig("pc", m, l))
        got = bound_or_error(crlb_spc, array, sources, k, cb)
        want = bound_or_error(lambda: ref.block_combined_bound(
            ref.BlockCrlbInputs(array, sources, k, combiners=cb), cb).matrix)
        if isinstance(got, type) or isinstance(want, type):
            assert got is want
        else:
            npt.assert_array_equal(got, want)


class TestCrlbSpc:
    def setup_method(self):
        self.cfg = ArrayConfig(32, 0.5)
        self.had = HadConfig("pc", 32, 8)
        self.cb = build_pc_codebook(self.had)

    def test_snapshot_scaling_exact(self):
        src = SourceSet((0.0,), (100.0,))
        full = crlb_spc(self.cfg, src, 32, self.cb)
        half = crlb_spc(self.cfg, src, 16, self.cb)
        npt.assert_array_equal(half, 2.0 * full)

    def test_headline_value(self):
        src = SourceSet((0.0,), (100.0,))
        bound = crlb_spc(self.cfg, src, 32, self.cb)
        assert abs(pooled_root_deg(bound) / 0.004 - 1.0) <= 0.25

    def test_positive_definite(self):
        src = SourceSet((-25.0, 30.0), (10.0, 10.0))
        bound = crlb_spc(self.cfg, src, 16, self.cb)
        assert np.all(np.linalg.eigvalsh(bound) > 0)

    def test_monotone_in_power(self):
        roots = [
            pooled_root_deg(crlb_spc(self.cfg, SourceSet((10.0,), (p,)), 16, self.cb))
            for p in (1.0, 10.0, 100.0)
        ]
        assert roots[0] > roots[1] > roots[2]

    def test_missing_combiners_rejected(self):
        with pytest.raises(ConfigError):
            crlb_spc(self.cfg, SourceSet((0.0,), (1.0,)), 8, None)

    def test_no_noise_subspace_raises(self):
        # with R >= L sources each E = W^H A spans all L outputs, so every
        # P_perp(E) is zero and so is the information
        cfg, cb = ArrayConfig(16, 0.5), build_pc_codebook(HadConfig("pc", 16, 2))
        for angles in ((0.0, 21.0), (-40.0, 0.0, 21.0)):
            src = SourceSet(angles, (10.0,) * len(angles))
            with pytest.raises(SingularFim):
                crlb_spc(cfg, src, 7, cb)
        crlb_spc(cfg, SourceSet((21.0,), (10.0,)), 7, cb)

    def test_estimator_respects_bound_across_angles(self):
        # the estimator cannot beat its bound (finite-trial slack 10%)
        m, l, ktot = 32, 8, 128
        k2 = ktot // 8
        k = (ktot - k2) // self.had.n_combiners
        pcfg = PencilConfig(l // 2, 1)
        for theta in (-40.0, 0.0, 55.0):
            src = SourceSet((theta,), (100.0,))
            sm = steering_matrix(self.cfg, src)
            bound = pooled_root_deg(crlb_spc(self.cfg, src, k, self.cb))
            total, count = 0.0, 0
            for t in range(200):
                rng = RngSpec(61).child(int(theta), t)
                sigs = generate_signals(src, k, self.had.n_combiners, False,
                                        rng.child("signal"))
                segs = [sm @ sigs[i]
                        + generate_noise(m, k, rng.child("noise", i))
                        for i in range(self.had.n_combiners)]
                s2 = generate_signals(src, k2, 1, False, rng.child("signal2"))[0]
                block2 = sm @ s2 + generate_noise(m, k2, rng.child("noise2"))
                try:
                    est = estimate_spc_mpm(segs, block2, pcfg, self.cfg,
                                           codebook=self.cb)
                except ESTIMATOR_FAILURES:
                    continue
                total += float(paired_squared_errors(est, (theta,)).sum())
                count += 1
            level = math.sqrt(total / count)
            assert level >= 0.9 * bound
