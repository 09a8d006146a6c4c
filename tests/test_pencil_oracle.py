"""The subspace pencil solve against the kernels it replaced.

``reference_kernels`` holds the seed chain verbatim: a scipy Hankel matrix
per snapshot, a full SVD, the rank-R reconstruction and a second SVD. The
package must give the same angles, and raise where it raised. It also holds
the single-block subspace chain that snapshot compression and stacking
replaced: with K <= C snapshots the package must give its bits, and with
K > C its angles within the same tolerance. A stack of pencils must give
each pencil's bits alone. The subspace step that takes R from the QR of the
transpose view of H must give the values of the one that took it from a
full-size conjugate copy. Over the same geometries, the estimators must also
keep the invariances of the model: reordering the snapshots or rotating each
by a common phase leaves the angles unchanged, and conjugating the data
mirrors them.
"""

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
    SourceSet,
    apply_combiner,
    augment,
    build_codebook,
    build_pc_codebook,
    estimate_fd_mpm,
    estimate_pmpm,
    estimate_spc_mpm,
    steering_matrix,
    svd_denoise,
)
from pencil_doa.errors import AmbiguousGeometryError, NumericalError, RankError
from pencil_doa.estimators import pencil_angles
from pencil_doa.harness import ExperimentConfig, _receiver, _SweepPoint
from pencil_doa.pencil import compress

ANGLE_TOL_DEG = 1e-10


def columns(x):
    return [x[:, k] for k in range(x.shape[1])]


@st.composite
def geometries(draw):
    m = draw(st.sampled_from([4, 6, 8, 16, 32, 128]))
    r = draw(st.integers(1, 2))
    xi = draw(st.integers(r, m - r))
    k = draw(st.sampled_from([1, 1, 2, 5, 16]))
    lead = draw(st.floats(-60.0, 60.0))
    separation = draw(st.sampled_from([0.3, 0.5, 2.0, 15.0]))
    snr_db = draw(st.sampled_from([0.0, 0.0, 10.0, 30.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    angles = (lead,) if r == 1 else (lead, lead - separation)
    return m, r, xi, k, angles, snr_db, seed


def draw_block(m, r, k, angles, snr_db, gen, segments=1):
    """(segments, M, K) source-plus-unit-noise blocks; one signal repeats."""
    power = 10.0 ** (snr_db / 10.0)
    steer = steering_matrix(ArrayConfig(m, 0.5),
                            SourceSet(angles, (power,) * r))
    s = np.sqrt(power / 2) * (gen.standard_normal((r, k))
                              + 1j * gen.standard_normal((r, k)))
    z = np.sqrt(0.5) * (gen.standard_normal((segments, m, k))
                        + 1j * gen.standard_normal((segments, m, k)))
    return steer @ s + z


class TestSubspaceSolveMatchesSeedKernels:
    @settings(max_examples=80, deadline=None)
    @given(geometries())
    def test_angles_match_oracle(self, geometry):
        m, r, xi, k, angles, snr_db, seed = geometry
        x = draw_block(m, r, k, angles, snr_db, np.random.default_rng(seed))[0]
        got = estimate_fd_mpm(x, PencilConfig(xi, r), ArrayConfig(m, 0.5))
        want = ref.oracle_angles(columns(x), xi, r, 0.5)
        assert np.max(np.abs(got - want)) < ANGLE_TOL_DEG

    def test_gap_matches_oracle(self):
        gen = np.random.default_rng(11)
        x = gen.standard_normal((16, 5)) + 1j * gen.standard_normal((16, 5))
        _, _, gap = svd_denoise(augment(x.T, 8), 2)
        _, want = ref.svd_denoise(ref.augment(columns(x), 8), 2)
        assert gap == pytest.approx(want, rel=1e-12)


class TestInvariances:
    """Permuted, phase-rotated and conjugated snapshots, within 1e-10 deg."""

    @staticmethod
    def permute_and_rotate(segments, seed):
        gen = np.random.default_rng(seed)
        k = segments.shape[-1]
        rotation = np.exp(1j * gen.uniform(-np.pi, np.pi, size=k))
        return (segments * rotation)[..., gen.permutation(k)]

    @settings(max_examples=60, deadline=None)
    @given(geometries())
    def test_fd_mpm_snapshot_order_and_phase(self, geometry):
        m, r, xi, k, angles, snr_db, seed = geometry
        x = draw_block(m, r, k, angles, snr_db, np.random.default_rng(seed))[0]
        cfg, array = PencilConfig(xi, r), ArrayConfig(m, 0.5)
        want = estimate_fd_mpm(x, cfg, array)
        got = estimate_fd_mpm(self.permute_and_rotate(x, seed + 1), cfg, array)
        assert np.max(np.abs(got - want)) < ANGLE_TOL_DEG

    @settings(max_examples=60, deadline=None)
    @given(geometries(), st.sampled_from(["fc", "pc"]), st.data())
    def test_pmpm_snapshot_order_and_phase(self, geometry, arch, data):
        m, r, xi, k, angles, snr_db, seed = geometry
        l = data.draw(st.sampled_from([d for d in range(1, m) if m % d == 0]))
        codebook = build_codebook(HadConfig(arch, m, l))
        segments = draw_block(m, r, k, angles, snr_db,
                              np.random.default_rng(seed), len(codebook))
        cfg, array = PencilConfig(xi, r), ArrayConfig(m, 0.5)
        want = estimate_pmpm(segments, codebook, cfg, array)
        got = estimate_pmpm(self.permute_and_rotate(segments, seed + 1),
                            codebook, cfg, array)
        assert np.max(np.abs(got - want)) < ANGLE_TOL_DEG

    @settings(max_examples=60, deadline=None)
    @given(geometries())
    def test_fd_mpm_conjugate_mirrors_angles(self, geometry):
        # conj(A(theta)) = A(-theta), so the conjugated block is one drawn
        # from the mirrored sources
        m, r, xi, k, angles, snr_db, seed = geometry
        x = draw_block(m, r, k, angles, snr_db, np.random.default_rng(seed))[0]
        cfg, array = PencilConfig(xi, r), ArrayConfig(m, 0.5)
        want = -estimate_fd_mpm(x, cfg, array)[::-1]
        got = estimate_fd_mpm(x.conj(), cfg, array)
        assert np.max(np.abs(got - want)) < ANGLE_TOL_DEG


class TestRankErrorsMatchSeedKernels:
    @pytest.mark.parametrize("x", [
        # one source, model order two: the signal subspace has rank one
        steering_matrix(ArrayConfig(12, 0.5), SourceSet((20.0,), (1.0,)))
        @ np.array([[1.0 + 0.5j, -0.3j, 2.0]]),
        np.zeros((12, 3), dtype=complex),
    ], ids=["one_source_order_two", "all_zero"])
    def test_rank_deficient_block(self, x):
        with pytest.raises(RankError):
            estimate_fd_mpm(x, PencilConfig(6, 2), ArrayConfig(12, 0.5))
        with pytest.raises(RankError):
            ref.oracle_angles(columns(x), 6, 2, 0.5)

    def test_noiseless_shared_virtual_steering(self):
        # -30 and 30 degrees on M=8, L=4 (m_rf=2) fold onto one virtual phase
        had = HadConfig("pc", 8, 4)
        array = ArrayConfig(8, 0.5)
        steer = steering_matrix(array, SourceSet((-30.0, 30.0), (1.0, 1.0)))
        gen = np.random.default_rng(4)
        codebook = build_pc_codebook(had)
        segments = [steer @ (gen.standard_normal((2, 3))
                             + 1j * gen.standard_normal((2, 3)))
                    for _ in range(len(codebook))]
        stage1 = np.concatenate(apply_combiner(codebook, segments),
                                axis=1)
        with pytest.raises(RankError):
            ref.oracle_angles(columns(stage1), 2, 2, 0.5, dilation=had.m_rf)
        block2 = steer @ gen.standard_normal((2, 8))
        with pytest.raises(AmbiguousGeometryError) as info:
            estimate_spc_mpm(segments, block2, PencilConfig(2, 2), array,
                             codebook)
        assert isinstance(info.value.__cause__, RankError)


@st.composite
def compressible_blocks(draw):
    c = draw(st.sampled_from([4, 6, 8, 12, 16, 32]))
    r = draw(st.integers(1, 2))
    xi = draw(st.integers(r, c - r))
    k = draw(st.one_of(st.integers(1, c), st.integers(c + 1, 256)))
    lead = draw(st.floats(-60.0, 60.0))
    separation = draw(st.sampled_from([0.3, 0.3, 2.0, 10.0]))
    snr_db = draw(st.sampled_from([0.0, 10.0, 30.0, 50.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    angles = (lead,) if r == 1 else (lead, lead - separation)
    return c, r, xi, k, angles, snr_db, seed


def raised(solve, *args):
    try:
        solve(*args)
    except Exception as exc:  # noqa: BLE001 - the class is what is compared
        return type(exc)
    return None


class TestCompressionMatchesSubspaceChain:
    """Same bits as the single-block chain for K <= C; 1e-10 deg for K > C."""

    @settings(max_examples=120, deadline=None)
    @given(compressible_blocks())
    def test_angles_match_subspace_chain(self, block):
        c, r, xi, k, angles, snr_db, seed = block
        x = draw_block(c, r, k, angles, snr_db, np.random.default_rng(seed))[0]
        got = estimate_fd_mpm(x, PencilConfig(xi, r), ArrayConfig(c, 0.5))
        want = ref.subspace_angles(x.T, xi, r, 0.5)
        if k <= c:
            npt.assert_array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) < ANGLE_TOL_DEG

    @pytest.mark.parametrize("k", [3, 40])
    @pytest.mark.parametrize("kind", ["one_source_order_two", "all_zero", "nan"])
    def test_failures_raise_alike(self, kind, k):
        gen = np.random.default_rng(k)
        steer = steering_matrix(ArrayConfig(12, 0.5), SourceSet((20.0,), (1.0,)))
        x = steer @ (gen.standard_normal((1, k)) + 1j * gen.standard_normal((1, k)))
        if kind == "all_zero":
            x = np.zeros_like(x)
        elif kind == "nan":
            x[3, 1] = np.nan
        want = raised(ref.subspace_angles, x.T, 6, 2, 0.5)
        assert want in (RankError, NumericalError)
        assert raised(estimate_fd_mpm, x, PencilConfig(6, 2),
                      ArrayConfig(12, 0.5)) is want


class TestBatchedSolve:
    """A stack of pencils gives each pencil's bits alone, at any stack size."""

    @pytest.mark.parametrize("k,c,xi,dilation", [
        (4, 32, 16, 1), (128, 32, 16, 1), (224, 8, 4, 8), (8, 128, 64, 1)])
    def test_stack_sizes_match_single_calls(self, k, c, xi, dilation):
        trials = 12
        gen = np.random.default_rng(k * c)
        blocks = [draw_block(c, 2, k, (10.0, 9.7), 10.0, gen)[0].T
                  for _ in range(trials)]
        cfg = PencilConfig(xi, 2)
        single = [pencil_angles(x, cfg, 0.5, dilation) for x in blocks]
        stack = np.stack([compress(x) for x in blocks])
        for size in (1, 7, trials):
            got = np.concatenate([pencil_angles(stack[i:i + size], cfg, 0.5, dilation)
                                  for i in range(0, trials, size)])
            npt.assert_array_equal(got, single)
        npt.assert_array_equal(pencil_angles(np.stack(blocks), cfg, 0.5, dilation),
                               single)

    def test_failing_pencils_mid_stack_leave_neighbours(self):
        cfg = ExperimentConfig(scenario="fd_mpm", m=12, angles_deg=(10.0, 9.7),
                               snapshots=40, xi=6, trials=7)
        point = _SweepPoint(cfg, _receiver(cfg), 20.0)
        stack = np.stack([x for *_, x in map(point._draw, point._streams(0))])
        single = point._solve(stack)
        stack[3] = 0.0  # RankError
        stack[5, 2, 4] = np.nan  # LinAlgError in the SVD
        got = point._solve(stack)
        assert got[3] is None and got[5] is None
        for t in (0, 1, 2, 4, 6):
            npt.assert_array_equal(got[t], single[t])


@st.composite
def hankel_stacks(draw):
    """(H, R): a (T, d, K'(xi+1)) stack of augmented matrices, or one matrix.

    Any scale from 1e-8 to 1e8; with a rank, each snapshot is a sum of that
    many exponentials, so H has at most that rank.
    """
    d = draw(st.integers(2, 64))
    xi = draw(st.integers(1, 16))
    k = draw(st.integers(1, 40))
    stack = draw(st.integers(1, 8))
    scale = 10.0 ** draw(st.floats(-8.0, 8.0))
    rank = draw(st.one_of(st.none(), st.integers(1, 3)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = d + xi
    x = gen.standard_normal((stack, k, c)) + 1j * gen.standard_normal((stack, k, c))
    if rank is not None:
        phases = gen.uniform(-np.pi, np.pi, (stack, rank, 1))
        x = x[..., :rank] @ np.exp(1j * phases * np.arange(c))
    h = augment(scale * x, xi)
    if stack == 1 and draw(st.booleans()):
        h = h[0]
    return h, draw(st.integers(1, min(h.shape[-2:])))


def signless_zero_bits(a):
    """The bits of a complex array, with -0.0 made +0.0."""
    return np.ascontiguousarray(a + 0.0).view(np.uint64)


class TestTransposeQrMatchesConjugateCopy:
    """R from the QR of H^T, conjugated, gives the kernel's values on H^H."""

    @settings(max_examples=80, deadline=None)
    @given(hankel_stacks())
    def test_same_subspace_as_conjugate_copy(self, case):
        h, r = case
        for got, want in zip(svd_denoise(h, r), ref.conjugate_copy_svd_denoise(h, r)):
            npt.assert_array_equal(got, want)

    @settings(max_examples=80, deadline=None)
    @given(hankel_stacks())
    def test_qr_commutes_with_conjugation(self, case):
        # bit for bit, up to the sign of zero: conjugating the real diagonal and
        # the zero lower triangle makes their imaginary parts -0.0
        h, _ = case
        got = np.linalg.qr(h.swapaxes(-1, -2), mode="r").conj()
        want = np.linalg.qr(h.conj().swapaxes(-1, -2), mode="r")
        npt.assert_array_equal(signless_zero_bits(got), signless_zero_bits(want))

    @pytest.mark.parametrize("shape", [(16, 34), (3, 8, 20)])
    @pytest.mark.parametrize("kind", ["all_zero", "nan"])
    def test_failures_raise_alike(self, kind, shape):
        gen = np.random.default_rng(len(shape))
        h = gen.standard_normal(shape) + 1j * gen.standard_normal(shape)
        if kind == "all_zero":
            h = np.zeros_like(h)
        else:
            h[..., 3, 5] = np.nan
        want = raised(ref.conjugate_copy_svd_denoise, h, 2)
        assert raised(svd_denoise, h, 2) is want
        if want is None:
            for got, want in zip(svd_denoise(h, 2),
                                 ref.conjugate_copy_svd_denoise(h, 2)):
                npt.assert_array_equal(got, want)
