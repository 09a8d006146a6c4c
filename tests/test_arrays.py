import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil_doa import (
    ArrayConfig,
    RngSpec,
    SourceSet,
    generate_noise,
    generate_signals,
    phase_from_angle,
    receive_fd,
    rmse,
    steering_matrix,
)
from pencil_doa.arrays import paired_squared_errors
from pencil_doa.errors import (
    ConfigError,
    DegenerateSources,
    ShapeError,
    TrialArityError,
    UnsupportedGeometry,
)


class TestSteeringMatrix:
    def test_broadside_two_elements(self):
        sm = steering_matrix(ArrayConfig(2, 0.5), SourceSet((0.0,), (1.0,)))
        npt.assert_allclose(sm[:, 0], [1.0, 1.0])
        assert np.angle(sm[1, 0]) == 0.0

    def test_thirty_degrees_quarter_turns(self):
        sm = steering_matrix(ArrayConfig(4, 0.5), SourceSet((30.0,), (1.0,)))
        npt.assert_allclose(np.angle(sm[1, 0]), np.pi / 2, atol=1e-12)
        npt.assert_allclose(sm[:, 0], [1.0, 1.0j, -1.0, -1.0j], atol=1e-12)

    def test_two_sources_against_scalar_loop(self):
        cfg = ArrayConfig(8, 0.5)
        sources = SourceSet((-15.0, 35.0), (1.0, 1.0))
        sm = steering_matrix(cfg, sources)
        npt.assert_allclose(np.angle(sm[1]),
                            [np.pi * math.sin(math.radians(-15.0)),
                             np.pi * math.sin(math.radians(35.0))], atol=1e-12)
        # independent scalar loop over entries
        for r, theta in enumerate(sources.angles_deg):
            mu = 2.0 * np.pi * 0.5 * math.sin(math.radians(theta))
            for m in range(8):
                expected = complex(math.cos(m * mu), math.sin(m * mu))
                assert abs(sm[m, r] - expected) < 1e-12
        npt.assert_allclose(np.abs(sm), 1.0, atol=1e-12)

    def test_phase_rounded_to_pi_rejected(self):
        # a valid angle whose sine rounds to 1.0 gives |mu| = pi exactly
        sources = SourceSet((90.0 - 1e-9,), (1.0,))
        with pytest.raises(UnsupportedGeometry):
            steering_matrix(ArrayConfig(8, 0.5), sources)
        sm = steering_matrix(ArrayConfig(8, 0.25), sources)
        npt.assert_allclose(np.angle(sm[1]), [np.pi / 2])

    @pytest.mark.parametrize("power", [math.nan, math.inf, 0.0])
    def test_powers_must_be_positive_and_finite(self, power):
        with pytest.raises(ConfigError, match="powers"):
            SourceSet((0.0, 10.0), (1.0, power))

    def test_duplicate_angles_rejected(self):
        with pytest.raises(DegenerateSources):
            SourceSet((10.0, 10.0), (1.0, 1.0))

    @settings(max_examples=50, deadline=None)
    @given(
        m=st.integers(2, 32),
        ratio=st.floats(0.05, 0.5),
        angles=st.lists(st.floats(-89.0, 89.0), min_size=1, max_size=4,
                        unique=True),
    )
    def test_unit_modulus_and_first_row(self, m, ratio, angles):
        sm = steering_matrix(ArrayConfig(m, ratio),
                             SourceSet(tuple(angles), (1.0,) * len(angles)))
        npt.assert_allclose(np.abs(sm), 1.0, atol=1e-12)
        npt.assert_allclose(sm[0], 1.0, atol=1e-12)

    def test_phase_monotone_in_angle(self):
        thetas = np.linspace(-89.0, 89.0, 201)
        mus = phase_from_angle(thetas, 0.5)
        assert np.all(np.diff(mus) > 0)


class TestSignals:
    def test_power_moment(self):
        blocks = generate_signals(SourceSet((0.0,), (1.0,)), 1000, 1, False,
                                  RngSpec(1, ("signal",)))
        mean_power = np.mean(np.abs(blocks[0]) ** 2)
        assert 0.9 <= mean_power <= 1.1

    def test_periodic_blocks_identical(self):
        blocks = generate_signals(SourceSet((5.0,), (2.0,)), 16, 4, True,
                                  RngSpec(2))
        for block in blocks[1:]:
            npt.assert_array_equal(block, blocks[0])

    def test_seed_reproducibility(self):
        src = SourceSet((0.0,), (4.0,))
        a = generate_signals(src, 1, 1, False, RngSpec(7, ("signal",)))[0]
        b = generate_signals(src, 1, 1, False, RngSpec(7, ("signal",)))[0]
        npt.assert_array_equal(a, b)
        assert a.shape == (1, 1)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            generate_signals(SourceSet((0.0,), (1.0,)), 0, 1, False, RngSpec(0))


class TestNoise:
    def test_covariance_near_identity(self):
        z = generate_noise(4, 10_000, RngSpec(3, ("noise",)))
        cov = z @ z.conj().T / z.shape[1]
        assert np.linalg.norm(cov - np.eye(4)) < 0.05 * 4

    def test_deterministic_single_draw(self):
        a = generate_noise(1, 1, RngSpec(11, ("noise",)))
        b = generate_noise(1, 1, RngSpec(11, ("noise",)))
        npt.assert_array_equal(a, b)

    def test_distinct_labels_independent(self):
        spec = RngSpec(5)
        z1 = generate_noise(2, 10_000, spec.child("alpha"))
        z2 = generate_noise(2, 10_000, spec.child("beta"))
        cross = z1 @ z2.conj().T / z1.shape[1]
        assert np.max(np.abs(cross)) < 0.05

    def test_per_channel_variance(self):
        z = generate_noise(3, 10_000, RngSpec(9, ("noise",)))
        var = np.mean(np.abs(z) ** 2, axis=1)
        npt.assert_allclose(var, 1.0, rtol=0.05)

    def test_into_a_segment_of_a_block(self):
        spec = RngSpec(12, ("noise", 1))
        block = np.full((3, 4, 5), np.nan, dtype=complex)
        out = block[1]
        assert generate_noise(4, 5, spec, out=out) is out
        npt.assert_array_equal(block[1], generate_noise(4, 5, spec))
        npt.assert_array_equal(block[1], generate_noise(4, 5, spec.generator()))
        assert np.isnan(block[[0, 2]]).all()

    @pytest.mark.parametrize("shape,dtype", [((4, 6), complex), ((5, 4), complex),
                                             ((4, 5), float)])
    def test_out_must_be_the_complex_block(self, shape, dtype):
        with pytest.raises(ShapeError):
            generate_noise(4, 5, RngSpec(1), out=np.empty(shape, dtype=dtype))


class TestReceiveFd:
    def test_ones_signal_propagates_column(self):
        cfg = ArrayConfig(4, 0.5)
        src = SourceSet((20.0,), (1.0,))
        sm = steering_matrix(cfg, src)
        s = np.ones((1, 5), dtype=complex)
        x = receive_fd(sm, s, np.zeros((4, 5), dtype=complex))
        for k in range(5):
            npt.assert_allclose(x[:, k], sm[:, 0])

    def test_zero_signal_returns_noise(self):
        cfg = ArrayConfig(3, 0.5)
        sm = steering_matrix(cfg, SourceSet((0.0,), (1.0,)))
        z = generate_noise(3, 4, RngSpec(1))
        x = receive_fd(sm, np.zeros((1, 4)), z)
        npt.assert_array_equal(x, z)

    def test_matches_triple_loop(self):
        cfg = ArrayConfig(3, 0.5)
        src = SourceSet((-40.0, 25.0), (1.0, 1.0))
        sm = steering_matrix(cfg, src)
        gen = np.random.default_rng(0)
        s = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
        z = gen.standard_normal((3, 2)) + 1j * gen.standard_normal((3, 2))
        x = receive_fd(sm, s, z)
        for m in range(3):
            for k in range(2):
                acc = z[m, k]
                for r in range(2):
                    acc += sm[m, r] * s[r, k]
                assert abs(x[m, k] - acc) < 1e-12

    def test_shape_mismatch(self):
        cfg = ArrayConfig(3, 0.5)
        sm = steering_matrix(cfg, SourceSet((0.0,), (1.0,)))
        with pytest.raises(ShapeError):
            receive_fd(sm, np.zeros((2, 4)), np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            receive_fd(sm, np.zeros((1, 4)), np.zeros((3, 5)))

    def test_segments_take_their_signals_or_one_shared_block(self):
        sm = steering_matrix(ArrayConfig(4, 0.5), SourceSet((-20.0, 35.0), (1.0, 2.0)))
        gen = np.random.default_rng(3)
        s = gen.standard_normal((3, 2, 5)) + 1j * gen.standard_normal((3, 2, 5))
        z = gen.standard_normal((3, 4, 5)) + 1j * gen.standard_normal((3, 4, 5))
        for signals, pick in ((s, [0, 1, 2]), (s[:1], [0, 0, 0]), (s[0], [0, 0, 0])):
            want = np.stack([sm @ s[p] + z[n] for n, p in enumerate(pick)])
            npt.assert_array_equal(receive_fd(sm, signals, z), want)
            block = z.copy()
            assert receive_fd(sm, signals, block, out=block) is block
            npt.assert_array_equal(block, want)

    @pytest.mark.parametrize("signals,noise", [
        ((2, 1, 4), (3, 3, 4)), ((1, 1, 4), (3, 4)), ((3, 1, 4), (3, 4)),
        ((1,), (3, 1))])
    def test_segment_axes_must_match(self, signals, noise):
        sm = steering_matrix(ArrayConfig(3, 0.5), SourceSet((0.0,), (1.0,)))
        with pytest.raises(ShapeError):
            receive_fd(sm, np.zeros(signals), np.zeros(noise, dtype=complex))

    def test_receive_snr_equals_source_power(self):
        # noiseless per-channel power averaged over the array is trace-based
        cfg = ArrayConfig(16, 0.5)
        src = SourceSet((-10.0, 42.0), (3.0, 0.5))
        sm = steering_matrix(cfg, src)
        trace = np.trace(sm @ src.power_matrix @ sm.conj().T)
        npt.assert_allclose(trace.real / cfg.num_antennas, sum(src.powers),
                            rtol=1e-12)
        sig = generate_signals(src, 50_000, 1, False, RngSpec(4))[0]
        x = sm @ sig
        empirical = np.mean(np.abs(x) ** 2)
        npt.assert_allclose(empirical, sum(src.powers), rtol=0.05)


class TestRmse:
    def test_exact_estimates(self):
        truth = SourceSet((-10.0, 10.0), (1.0, 1.0))
        assert rmse([(-10.0, 10.0)] * 5, truth) == 0.0

    def test_hand_arithmetic(self):
        truth = SourceSet((0.0,), (1.0,))
        assert rmse([(1.0,), (-1.0,)], truth) == pytest.approx(1.0)

    def test_sorted_pairing(self):
        truth = SourceSet((-10.0, 10.0), (1.0, 1.0))
        # unsorted estimates pair correctly after the ascending sort
        assert rmse([(9.0, -11.0)], truth) == pytest.approx(1.0)
        # the sorted pairing is the smaller of the two possible matchings
        sorted_cost = np.sum(paired_squared_errors((9.0, -11.0), (-10.0, 10.0)))
        crossed_cost = (9.0 - (-10.0)) ** 2 + (-11.0 - 10.0) ** 2
        assert sorted_cost < crossed_cost

    def test_arity_error(self):
        truth = SourceSet((0.0, 5.0), (1.0, 1.0))
        with pytest.raises(TrialArityError):
            rmse([(1.0,)], truth)
