import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pencil_doa import (
    ArrayConfig,
    PencilConfig,
    RngSpec,
    SourceSet,
    augment,
    eigen_to_angles,
    estimate_fd_mpm,
    generate_noise,
    generate_signals,
    hankel,
    pencil_eigenvalues,
    split_pencil,
    steering_matrix,
    svd_denoise,
)
from pencil_doa.arrays import paired_squared_errors
from pencil_doa.pencil import STACK_BYTES, stack_size
from pencil_doa.errors import (
    EmptyInput,
    OutOfRangeWarning,
    PencilParamError,
    RankError,
    ShapeError,
)


def exponential_snapshot(mus, amps, length):
    m = np.arange(length)
    return sum(a * np.exp(1j * m * mu) for a, mu in zip(amps, mus))


class TestHankel:
    def test_unrolled_definition(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        npt.assert_array_equal(hankel(x, 2), [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])

    def test_single_exponential_rank_one(self):
        x = exponential_snapshot([0.9], [1.0], 8)
        for xi in range(1, 8):
            s = np.linalg.svd(hankel(x, xi), compute_uv=False)
            if len(s) > 1:
                assert s[1] < 1e-10 * s[0]

    def test_two_exponentials_rank_two(self):
        x = exponential_snapshot([0.9, -1.7], [1.0, 0.5], 6)
        s = np.linalg.svd(hankel(x, 2), compute_uv=False)
        assert s[1] > 1e-6 * s[0]
        assert s[2] < 1e-10 * s[0]

    def test_invalid_pencil_parameter(self):
        with pytest.raises(PencilParamError):
            hankel(np.arange(4), 4)
        with pytest.raises(PencilParamError):
            hankel(np.arange(4), 0)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(3, 12), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_antidiagonal_constancy(self, c, xi, seed):
        xi = min(xi, c - 1)
        gen = np.random.default_rng(seed)
        x = gen.standard_normal(c) + 1j * gen.standard_normal(c)
        h = hankel(x, xi)
        rows, cols = h.shape
        for i in range(rows):
            for j in range(cols):
                assert h[i, j] == x[i + j]


class TestAugment:
    def test_single_block(self):
        x = np.arange(5.0)
        npt.assert_array_equal(augment([x], 2), hankel(x, 2))

    def test_two_blocks_side_by_side(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([5.0, 6.0, 7.0, 8.0])
        aug = augment([a, b], 2)
        assert aug.shape == (2, 6)
        npt.assert_array_equal(aug[:, :3], hankel(a, 2))
        npt.assert_array_equal(aug[:, 3:], hankel(b, 2))

    def test_noiseless_rank_independent_of_blocks(self):
        mu = 1.1
        for k_a in (1, 3, 7):
            snaps = [exponential_snapshot([mu], [complex(1 + k, -k)], 8)
                     for k in range(k_a)]
            s = np.linalg.svd(augment(snaps, 4), compute_uv=False)
            assert s[1] < 1e-10 * s[0]

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            augment([], 2)


class TestSvdDenoise:
    def test_noiseless_input_unchanged(self):
        snaps = [exponential_snapshot([0.5, -0.8], [1.0, 2.0], 10)
                 for _ in range(3)]
        aug = augment(snaps, 4)
        basis, coords, gap = svd_denoise(aug, 2)
        denoised = basis @ coords
        rel = np.linalg.norm(denoised - aug) / np.linalg.norm(aug)
        assert rel < 1e-10
        assert gap > 1e8

    def test_full_rank_identity(self):
        gen = np.random.default_rng(1)
        snaps = [gen.standard_normal(6) + 1j * gen.standard_normal(6)]
        aug = augment(snaps, 2)
        basis, coords, _ = svd_denoise(aug, min(aug.shape))
        npt.assert_allclose(basis @ coords, aug, atol=1e-12)

    def test_denoising_strictly_helps_at_high_snr(self):
        gen = np.random.default_rng(7)
        wins = 0
        trials = 50
        for _ in range(trials):
            clean = exponential_snapshot([0.7], [1.0], 12)
            noise = 1e-2 * (gen.standard_normal(12) + 1j * gen.standard_normal(12))
            aug = augment([clean + noise], 5)
            clean_h = augment([clean], 5)
            basis, coords, _ = svd_denoise(aug, 1)
            if (np.linalg.norm(basis @ coords - clean_h)
                    < np.linalg.norm(aug - clean_h)):
                wins += 1
        assert wins == trials

    def test_basis_is_orthonormal_and_coords_project(self):
        gen = np.random.default_rng(3)
        snaps = [gen.standard_normal(9) + 1j * gen.standard_normal(9)
                 for _ in range(4)]
        aug = augment(snaps, 4)
        basis, coords, _ = svd_denoise(aug, 2)
        npt.assert_allclose(basis.conj().T @ basis, np.eye(2), atol=1e-12)
        npt.assert_allclose(coords, basis.conj().T @ aug, atol=1e-12)

    @pytest.mark.parametrize("shape", [(7, 16, 544), (64, 520)])
    def test_holds_no_more_than_one_copy_of_h(self, shape):
        # np.linalg.qr copies its input once; a conjugate copy of H would add
        # a second full-size copy on top
        gen = np.random.default_rng(0)
        h = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        svd_denoise(h, 2)  # numpy's first-call allocations are not the kernel's
        tracemalloc.start()
        try:
            svd_denoise(h, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * h.nbytes


class TestSplitPencil:
    def test_single_block_columns(self):
        h = np.arange(6.0).reshape(2, 3)
        left, right = split_pencil(h, 2)
        npt.assert_array_equal(left, h[:, [0, 1]])
        npt.assert_array_equal(right, h[:, [1, 2]])

    def test_two_block_deletion_indices(self):
        h = np.arange(12.0).reshape(2, 6)
        left, right = split_pencil(h, 2)
        # 1-based removed columns: {3, 6} on the left and {1, 4} on the right
        npt.assert_array_equal(left, h[:, [0, 1, 3, 4]])
        npt.assert_array_equal(right, h[:, [1, 2, 4, 5]])

    def test_round_trip_reconstruction(self):
        h = np.arange(8.0).reshape(2, 4)  # one block, xi = 3
        left, right = split_pencil(h, 3)
        rebuilt = np.concatenate([left, right[:, -1:]], axis=1)
        npt.assert_array_equal(rebuilt, h)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            split_pencil(np.zeros((2, 5)), 2)
        with pytest.raises(ShapeError):
            split_pencil(np.zeros(6), 2)


class TestPencilEigenvalues:
    def test_single_source_unit_circle(self):
        mu = np.pi / 2
        x = exponential_snapshot([mu], [1.0], 8)
        eig = pencil_eigenvalues(*split_pencil(augment([x], 4), 4), 1)
        assert abs(eig[0] - np.exp(1j * mu)) < 1e-9

    def test_two_sources(self):
        mus = [-1.0, 0.7]
        x = exponential_snapshot(mus, [1.0, 0.6], 8)
        eig = pencil_eigenvalues(*split_pencil(augment([x], 4), 4), 2)
        got = sorted(eig, key=lambda v: np.angle(v))
        expected = sorted(np.exp(1j * np.array(mus)), key=np.angle)
        npt.assert_allclose(got, expected, atol=1e-9)

    def test_swapped_pair_gives_reciprocals(self):
        mus = [-1.0, 0.7]
        x = exponential_snapshot(mus, [1.0, 0.6], 8)
        left, right = split_pencil(augment([x], 4), 4)
        fwd = pencil_eigenvalues(left, right, 2)
        bwd = pencil_eigenvalues(right, left, 2)
        fwd_sorted = np.sort_complex(fwd)
        bwd_recip = np.sort_complex(1.0 / bwd)
        npt.assert_allclose(fwd_sorted, bwd_recip, atol=1e-9)

    def test_rank_deficiency_raises(self):
        left, right = split_pencil(np.zeros((3, 4), dtype=complex), 3)
        with pytest.raises(RankError) as info:
            pencil_eigenvalues(left, right, 1)
        assert info.value.singular_values is not None

    def test_noiseless_eigenvalues_on_unit_circle(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            mus = np.sort(gen.uniform(-3.0, 3.0, size=2))
            if mus[1] - mus[0] < 0.1:
                continue
            x = exponential_snapshot(mus, gen.standard_normal(2) + 3.0, 10)
            eig = pencil_eigenvalues(*split_pencil(augment([x], 5), 5), 2)
            npt.assert_allclose(np.abs(eig), 1.0, atol=1e-9)


class TestEigenToAngles:
    def test_quarter_turn_is_thirty_degrees(self):
        eig = np.array([np.exp(1j * np.pi / 2)])
        npt.assert_allclose(eigen_to_angles(eig, 0.5), [30.0], atol=1e-12)

    def test_unity_is_broadside(self):
        eig = np.array([1.0 + 0.0j])
        npt.assert_allclose(eigen_to_angles(eig, 0.5), [0.0])

    def test_dilated_mapping(self):
        eig = np.array([np.exp(1j * np.pi / 2)])
        got = eigen_to_angles(eig, 0.5, dilation=4)
        npt.assert_allclose(got, [math.degrees(math.asin(0.125))], atol=1e-10)
        assert got[0] == pytest.approx(7.1808, abs=1e-4)

    def test_clamp_warning(self):
        eig = np.array([np.exp(1j * 3.0)])
        with pytest.warns(OutOfRangeWarning):
            got = eigen_to_angles(eig, 0.25, 1)
        npt.assert_allclose(got, [90.0])

    def test_sorted_output(self):
        eig = np.exp(1j * np.array([1.5, -2.0, 0.3]))
        got = eigen_to_angles(eig, 0.5)
        assert np.all(np.diff(got) > 0)


class TestPencilConfig:
    def test_valid_range(self):
        # xi must lie in [R, C-R] for the C channels of the block it gets
        gen = np.random.default_rng(3)
        x8, x2 = (gen.standard_normal((c, 6)) + 1j * gen.standard_normal((c, 6))
                  for c in (8, 2))
        array8 = ArrayConfig(8, 0.5)
        assert estimate_fd_mpm(x8, PencilConfig(4, 1), array8).shape == (1,)
        assert estimate_fd_mpm(x2, PencilConfig(1, 1), ArrayConfig(2, 0.5)).shape == (1,)
        with pytest.raises(PencilParamError):
            estimate_fd_mpm(x8, PencilConfig(6, 3), array8)  # xi > C - R
        with pytest.raises(PencilParamError):
            estimate_fd_mpm(x8, PencilConfig(1, 2), array8)  # xi < R
        with pytest.raises(PencilParamError):
            PencilConfig(1, 0)


class TestCompositePipeline:
    def test_noiseless_recovery_random_sources(self):
        gen = np.random.default_rng(12)
        cfg = ArrayConfig(12, 0.5)
        for _ in range(20):
            while True:
                angles = np.sort(gen.uniform(-80.0, 80.0, size=2))
                if angles[1] - angles[0] >= 2.0:
                    break
            src = SourceSet(tuple(angles), (1.0, 1.0))
            sm = steering_matrix(cfg, src)
            s = gen.standard_normal((2, 2)) + 1j * gen.standard_normal((2, 2))
            x = sm @ s
            est = estimate_fd_mpm(x, PencilConfig(6, 2), cfg)
            npt.assert_allclose(est, angles, atol=1e-6)

    def test_rmse_non_increasing_in_snapshots(self):
        # more Hankel blocks means better averaging at fixed SNR
        cfg = ArrayConfig(8, 0.5)
        truth = 20.0
        src = SourceSet((truth,), (10.0,))
        sm = steering_matrix(cfg, src)

        def run(k_a, trials=200):
            total = 0.0
            for t in range(trials):
                rng = RngSpec(31).child(k_a, t)
                s = generate_signals(src, k_a, 1, False, rng.child("signal"))[0]
                z = generate_noise(8, k_a, rng.child("noise"))
                est = estimate_fd_mpm(sm @ s + z, PencilConfig(4, 1), cfg)
                total += float(paired_squared_errors(est, (truth,)).sum())
            return math.sqrt(total / trials)

        levels = [run(k_a) for k_a in (1, 4, 16)]
        assert levels[1] <= levels[0]
        assert levels[2] <= levels[1]
        assert levels[2] < levels[0]


class TestStackSize:
    # H of 224 snapshots on 8 channels at xi 4 is 4 x 8 x 5 complex: 2,560 bytes
    @pytest.mark.parametrize("held", [0, 1, 32768, STACK_BYTES - 2560])
    def test_held_bytes_count_with_each_pencil(self, held):
        assert stack_size(224, 8, 4, held) == STACK_BYTES // (2560 + held)

    @pytest.mark.parametrize("held", [STACK_BYTES, 10 * STACK_BYTES])
    def test_a_trial_that_holds_the_cap_runs_alone(self, held):
        assert stack_size(224, 8, 4, held) == 1
