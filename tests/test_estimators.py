import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from pencil_doa import (
    ArrayConfig,
    HadConfig,
    PencilConfig,
    RngSpec,
    SourceSet,
    ambiguity_set,
    apply_combiner,
    build_disambiguation,
    build_fc_codebook,
    build_pc_codebook,
    dft_phase,
    estimate_fd_mpm,
    estimate_pmpm,
    estimate_spc_mpm,
    generate_noise,
    generate_signals,
    phase_from_angle,
    pmpm_aggregate,
    receive_fd,
    resolve_ambiguity,
    steering_matrix,
)
from pencil_doa.arrays import paired_squared_errors
from pencil_doa.errors import (
    AmbiguousGeometryError,
    ConfigError,
    ESTIMATOR_FAILURES,
    LowSnrWarning,
    ShapeError,
)
import reference_kernels as ref
from reference_kernels import dense


def geometric_gain(delta, m_rf):
    return np.exp(1j * np.arange(m_rf) * delta).sum()


def monte_carlo_rmse(run_trial, truth, trials):
    total, count = 0.0, 0
    for t in range(trials):
        est = run_trial(t)
        if est is None:
            continue
        total += float(paired_squared_errors(est, truth).sum())
        count += len(truth)
    return math.sqrt(total / count)


class TestFdMpm:
    def test_single_snapshot_noiseless(self):
        cfg = ArrayConfig(8, 0.5)
        src = SourceSet((30.0,), (1.0,))
        sm = steering_matrix(cfg, src)
        s = np.array([[0.4 - 1.1j]])
        est = estimate_fd_mpm(sm @ s, PencilConfig(4, 1), cfg)
        npt.assert_allclose(est, [30.0], atol=1e-6)

    def test_four_sources_noiseless(self):
        cfg = ArrayConfig(16, 0.5)
        angles = (-60.0, -15.0, 35.0, 75.0)
        src = SourceSet(angles, (1.0,) * 4)
        sm = steering_matrix(cfg, src)
        s = generate_signals(src, 3, 1, False, RngSpec(8))[0]
        est = estimate_fd_mpm(sm @ s, PencilConfig(8, 4), cfg)
        npt.assert_allclose(est, angles, atol=1e-6)

    def test_rmse_at_high_snr(self):
        cfg = ArrayConfig(32, 0.5)
        src = SourceSet((0.0,), (100.0,))
        sm = steering_matrix(cfg, src)
        pcfg = PencilConfig(16, 1)

        def trial(t):
            rng = RngSpec(41).child(t)
            s = generate_signals(src, 128, 1, False, rng.child("signal"))[0]
            z = generate_noise(32, 128, rng.child("noise"))
            return estimate_fd_mpm(sm @ s + z, pcfg, cfg)

        assert monte_carlo_rmse(trial, (0.0,), 200) <= 0.01

    def test_channel_mismatch(self):
        cfg = ArrayConfig(8, 0.5)
        with pytest.raises(ShapeError):
            estimate_fd_mpm(np.zeros((6, 2)), PencilConfig(4, 1), cfg)


class TestPmpmAggregate:
    @pytest.mark.parametrize("arch", ["fc", "pc"])
    def test_noiseless_identity(self, arch):
        m, l, k = 16, 4, 8
        cfg = ArrayConfig(m, 0.5)
        src = SourceSet((-20.0, 40.0), (2.0, 1.0))
        sm = steering_matrix(cfg, src)
        had = HadConfig(arch, m, l)
        cb = build_fc_codebook(had) if arch == "fc" else build_pc_codebook(had)
        s = generate_signals(src, k, 1, False, RngSpec(2))[0]
        segments = [sm @ s for _ in range(had.n_combiners)]
        q = apply_combiner(cb, np.asarray(segments))
        y = pmpm_aggregate(q, cb)
        assert np.linalg.norm(y - sm @ s) < 1e-10

    def test_digital_combiner_inverts_analog(self):
        had = HadConfig("fc", 16, 4)
        cb = build_fc_codebook(had)
        for w_a in dense(cb):
            w_d = (4 / 16) * w_a  # L/M
            npt.assert_allclose(w_d.conj().T @ w_a, np.eye(4), atol=1e-10)

    def test_aggregate_noise_unit_variance(self):
        # noise-only aggregate keeps per-entry variance 1
        m, l, k = 16, 4, 8
        had = HadConfig("pc", m, l)
        cb = build_pc_codebook(had)
        total, count = 0.0, 0
        t = 0
        while count < 10_000:
            segs = [generate_noise(m, k, RngSpec(6).child(t, n))
                    for n in range(had.n_combiners)]
            q = apply_combiner(cb, np.asarray(segs))
            y = pmpm_aggregate(q, cb)
            total += float(np.sum(np.abs(y) ** 2))
            count += y.size
            t += 1
        assert 0.95 <= total / count <= 1.05

    def test_segment_count_mismatch(self):
        had = HadConfig("pc", 8, 2)
        cb = build_pc_codebook(had)
        with pytest.raises(ShapeError):
            pmpm_aggregate([np.zeros((2, 1))], cb)


class TestEstimatePmpm:
    def test_noiseless_two_sources(self):
        m, l = 32, 8
        cfg = ArrayConfig(m, 0.5)
        src = SourceSet((-15.0, 35.0), (1.0, 1.0))
        sm = steering_matrix(cfg, src)
        for arch in ("fc", "pc"):
            had = HadConfig(arch, m, l)
            cb = build_fc_codebook(had) if arch == "fc" else build_pc_codebook(had)
            s = generate_signals(src, 1, 1, False, RngSpec(3))[0]
            segments = [sm @ s for _ in range(had.n_combiners)]
            est = estimate_pmpm(segments, cb, PencilConfig(16, 2), cfg)
            npt.assert_allclose(est, (-15.0, 35.0), atol=1e-6)

    def test_rmse_and_bound_at_high_snr(self):
        from pencil_doa import crlb_fd, pooled_root_deg

        m, l, ktot = 32, 8, 128
        cfg = ArrayConfig(m, 0.5)
        src = SourceSet((0.0,), (100.0,))
        sm = steering_matrix(cfg, src)
        had = HadConfig("fc", m, l)
        cb = build_fc_codebook(had)
        n = had.n_combiners
        k = ktot // n

        def trial(t):
            rng = RngSpec(43).child(t)
            sigs = generate_signals(src, k, n, True, rng.child("signal"))
            segs = [sm @ sigs[i] + generate_noise(m, k, rng.child("noise", i))
                    for i in range(n)]
            return estimate_pmpm(segs, cb, PencilConfig(16, 1), cfg)

        level = monte_carlo_rmse(trial, (0.0,), 200)
        bound = pooled_root_deg(crlb_fd(cfg, src, k))
        assert level <= 0.01
        assert level >= bound

    def test_architectures_identical_noiseless_and_equivalent_in_noise(self):
        # The two codebooks resolve the identity through different projector
        # decompositions, so matched noise draws produce different aggregates;
        # noiselessly the aggregates coincide exactly and in noise the two
        # architectures are statistically indistinguishable.
        m, l, k = 32, 8, 4
        cfg = ArrayConfig(m, 0.5)
        src = SourceSet((12.0,), (10.0,))
        sm = steering_matrix(cfg, src)
        cb_fc = build_fc_codebook(HadConfig("fc", m, l))
        cb_pc = build_pc_codebook(HadConfig("pc", m, l))
        n = m // l
        pcfg = PencilConfig(16, 1)

        s = generate_signals(src, k, 1, False, RngSpec(4))[0]
        clean = [sm @ s for _ in range(n)]
        est_fc = estimate_pmpm(clean, cb_fc, pcfg, cfg)
        est_pc = estimate_pmpm(clean, cb_pc, pcfg, cfg)
        npt.assert_allclose(est_fc, est_pc, atol=1e-9)

        def trial(codebook):
            def run(t):
                rng = RngSpec(44).child(t)
                sigs = generate_signals(src, k, n, True, rng.child("signal"))
                segs = [sm @ sigs[i]
                        + generate_noise(m, k, rng.child("noise", i))
                        for i in range(n)]
                return estimate_pmpm(segs, codebook, pcfg, cfg)
            return run

        rmse_fc = monte_carlo_rmse(trial(cb_fc), (12.0,), 200)
        rmse_pc = monte_carlo_rmse(trial(cb_pc), (12.0,), 200)
        assert 0.75 <= rmse_fc / rmse_pc <= 1.33


class TestAmbiguitySet:
    def test_quarter_turn_candidates(self):
        theta = math.degrees(math.asin(0.5))  # mu = pi/2
        cands = ambiguity_set([theta], 4, 0.5)
        assert cands.shape == (1, 4)
        npt.assert_allclose(cands[0],
                            [-np.pi / 2, 0.0, np.pi / 2, np.pi], atol=1e-9)

    def test_broadside_two_candidates(self):
        cands = ambiguity_set([0.0], 2, 0.5)
        npt.assert_allclose(cands[0], [0.0, np.pi], atol=1e-12)

    def test_cardinality_and_range(self):
        gen = np.random.default_rng(17)
        for m_rf in (2, 4, 8):
            for _ in range(200):
                theta = float(gen.uniform(-89.0, 89.0))
                cands = ambiguity_set([theta], m_rf, 0.5)[0]
                assert cands.size == m_rf
                assert np.all(cands > -np.pi) and np.all(cands <= np.pi + 1e-9)
                diffs = np.diff(cands)
                npt.assert_allclose(diffs, 2 * np.pi / m_rf, atol=1e-9)


    @pytest.mark.parametrize("m_rf", [1, 2, 3, 4, 5, 8, 16])
    def test_matches_seed_search_away_from_pi(self, m_rf):
        # A dense grid, plus angles that put a candidate on or within 3e-10
        # rad of +-pi. Candidates more than 1e-9 rad from +-pi equal the seed
        # bracket search's bit for bit. Where the seed raised for want of a
        # candidate, the wrap finds one within 1e-9 rad of +-pi.
        edges = [1.0 - 2.0 * k / m_rf + eps for k in range(m_rf + 1)
                 for eps in (0.0, 1e-16, -1e-16, 3e-10, -3e-10)]
        angles = np.concatenate([
            np.linspace(-90.0, 90.0, 3001), [1e-9, -1e-9, 1.7188733853924695e-08],
            [math.degrees(math.asin(v)) for v in edges if -1.0 <= v <= 1.0]])
        got = ambiguity_set(angles, m_rf, 0.5)
        assert got.shape == (angles.size, m_rf)
        assert np.all(got > -np.pi)
        assert np.all(np.diff(got, axis=1) > 0.0)
        for theta, row in zip(angles, got):
            away = row[np.pi - np.abs(row) >= 1e-9]
            try:
                want = ref.ambiguity_set([theta], m_rf, 0.5).per_source[0]
            except AmbiguousGeometryError:
                assert away.size < m_rf
                continue
            npt.assert_array_equal(away, want[np.abs(np.pi - np.abs(want)) >= 1e-9])


class TestBuildDisambiguation:
    def test_single_combiner_for_full_chain_budget(self):
        cands = ambiguity_set([10.0], 8, 0.5)
        columns = build_disambiguation(cands, 8)
        assert columns.shape == (1, 8, 1, 8)
        assert dense(columns[0]).shape == (64, 8)

    def test_four_sources_four_combiners(self):
        cands = ambiguity_set([-50.0, -10.0, 20.0, 60.0], 8, 0.5)
        columns = build_disambiguation(cands, 8)
        assert len(columns) == 4

    def test_padding_when_candidates_fall_short(self):
        cands = ambiguity_set([10.0], 4, 0.5)  # 4 candidates for 8 chains
        columns = build_disambiguation(cands, 8)
        assert columns.shape == (1, 8, 1, 4)
        slots = np.concatenate([cands[0], np.full(4, cands[0][-1])])
        npt.assert_array_equal(columns[0, :, 0],
                               np.exp(1j * np.arange(4) * slots[:, None]))

    def test_blocks_steered_to_candidates(self):
        cands = ambiguity_set([25.0], 4, 0.5)
        had = HadConfig("pc", 16, 4)
        w = dense(build_disambiguation(cands, had.rf_chains)[0])
        for ell, mu in enumerate(cands[0]):
            block = w[ell * 4:(ell + 1) * 4, ell]
            npt.assert_allclose(block, np.exp(1j * np.arange(4) * mu), atol=1e-12)


class TestResolveAmbiguity:
    def test_noiseless_metrics_match_gain_oracle(self):
        m, l = 32, 8
        had = HadConfig("pc", m, l)
        m_rf = had.m_rf
        cfg = ArrayConfig(m, 0.5)
        theta = math.degrees(math.asin(0.25))  # on the m_rf = 4 beam grid
        src = SourceSet((theta,), (2.0,))
        sm = steering_matrix(cfg, src)
        mu = phase_from_angle(np.array(src.angles_deg), 0.5)[0]

        cands = ambiguity_set([theta], m_rf, 0.5)
        k2 = 16
        columns = build_disambiguation(cands, had.rf_chains)
        s = generate_signals(src, k2, 1, False, RngSpec(9))[0]
        segments = [sm @ s]

        outputs = apply_combiner(columns[0], segments[0])
        mean_power = float(np.mean(np.abs(s) ** 2))
        for i, cand in enumerate(cands[0]):
            metric = float(np.mean(np.abs(outputs[i]) ** 2)) / m_rf - 1.0
            oracle = abs(geometric_gain(mu - cand, m_rf)) ** 2 * mean_power / m_rf - 1.0
            assert metric == pytest.approx(oracle, rel=1e-9, abs=1e-9)

        # matched candidate carries the full beamforming gain
        matched = int(np.argmin(np.abs(cands[0] - mu)))
        matched_metric = float(np.mean(np.abs(outputs[matched]) ** 2)) / m_rf - 1.0
        assert matched_metric + 1.0 == pytest.approx(m_rf * mean_power, rel=1e-9)

        angles = resolve_ambiguity(columns, segments, cands, 0.5)
        npt.assert_allclose(angles, [theta], atol=1e-9)

    def test_endfire_candidate_gives_finite_angle(self):
        # Base phase just above 0 with m_rf = 2: mu + pi lies past pi, so its
        # residue class wraps to mu - pi, just above -pi, and no candidate
        # exceeds pi. Blocks steered to it make it win, and its angle is
        # within rounding of -90 degrees, with the arcsine argument clamped.
        had = HadConfig("pc", 2, 1)
        cands = ambiguity_set([1e-9], had.m_rf, 0.5)
        assert np.all(cands > -np.pi) and np.all(cands <= np.pi)
        assert cands[0][0] < -np.pi + 1e-9
        columns = build_disambiguation(cands, had.rf_chains)
        block = np.exp(1j * np.arange(2) * cands[0][0])[:, None]
        angles = resolve_ambiguity(columns, [block] * len(columns), cands, 0.5)
        assert np.all(np.isfinite(angles))
        npt.assert_allclose(angles, [-90.0], atol=1e-3)

    def test_nan_candidate_gives_nan_angle(self):
        # The NaN candidate wins its tie on all-ones blocks and maps to NaN,
        # as a NaN eigenvalue does in the pencil, not to a clamped -90 deg.
        cands = np.array([[np.nan, 0.3, 1.0, 2.0]])
        angles = resolve_ambiguity(build_disambiguation(cands, 4),
                                   np.ones((1, 16, 8), complex), cands, 0.5)
        assert angles.shape == (1,) and np.isnan(angles[0])

    def test_all_zero_block_ties_pick_smallest_phase(self):
        # A zero disambiguation block puts every metric at exactly -1: all
        # candidates tie, each source warns once and takes the candidate of
        # smallest |phase|, the lower one of an exact +-phase pair.
        had = HadConfig("pc", 32, 8)
        cands = ambiguity_set([-40.0, 10.0, 30.0], had.m_rf, 0.5)
        columns = build_disambiguation(cands, had.rf_chains)
        zeros = np.zeros((len(columns), had.num_antennas, 3), dtype=complex)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            angles = resolve_ambiguity(columns, zeros, cands, 0.5)
        assert [type(w.message) for w in caught] == [LowSnrWarning] * 3
        picks = cands[np.arange(3), np.argmin(np.abs(cands), axis=1)]
        npt.assert_array_equal(
            angles, [math.degrees(math.asin(mu / np.pi)) for mu in picks])

        pair = np.array([[-1.0, 1.0]])  # m_rf = 2 candidates on L = 2 chains
        with pytest.warns(LowSnrWarning):
            angles = resolve_ambiguity(build_disambiguation(pair, 2),
                                       np.zeros((1, 4, 3)), pair, 0.5)
        npt.assert_array_equal(angles, [math.degrees(math.asin(-1.0 / np.pi))])

    def test_selection_rate_at_moderate_snr(self):
        m, l, ktot = 32, 8, 128
        had = HadConfig("pc", m, l)
        cfg = ArrayConfig(m, 0.5)
        cb = build_pc_codebook(had)
        k2 = ktot // 8
        k = (ktot - k2) // had.n_combiners
        correct = 0
        trials = 200
        for t in range(trials):
            rng = RngSpec(51).child(t)
            theta = float(rng.child("theta").generator().uniform(-88.0, 88.0))
            src = SourceSet((theta,), (10.0,))
            sm = steering_matrix(cfg, src)
            sigs = generate_signals(src, k, had.n_combiners, False, rng.child("signal"))
            segs = [sm @ sigs[i] + generate_noise(m, k, rng.child("noise", i))
                    for i in range(had.n_combiners)]
            s2 = generate_signals(src, k2, 1, False, rng.child("signal2"))[0]
            block2 = sm @ s2 + generate_noise(m, k2, rng.child("noise2"))
            try:
                est = estimate_spc_mpm(segs, block2, PencilConfig(4, 1), cfg,
                                       codebook=cb)
            except ESTIMATOR_FAILURES:
                continue
            err = abs(float(phase_from_angle(est[0], 0.5)) -
                      float(phase_from_angle(theta, 0.5)))
            if err < np.pi / had.m_rf:
                correct += 1
        assert correct / trials > 0.95


class TestEstimateSpcMpm:
    def test_noiseless_single_source_folds_then_recovers(self):
        from pencil_doa.estimators import pencil_angles

        m, l = 64, 8
        had = HadConfig("pc", m, l)
        cfg = ArrayConfig(m, 0.5)
        src = SourceSet((30.0,), (1.0,))
        sm = steering_matrix(cfg, src)
        cb = build_pc_codebook(had)
        rng = RngSpec(10)
        sigs = generate_signals(src, 1, had.n_combiners, False, rng.child("s"))
        segments = [sm @ b for b in sigs]

        # stage-1 estimate alone is folded onto the dilated-array grid
        snaps = []
        for q in apply_combiner(cb, np.asarray(segments)):
            snaps.extend(q[:, i] for i in range(q.shape[1]))
        base = pencil_angles(np.asarray(snaps), PencilConfig(4, 1), 0.5,
                             dilation=had.m_rf)
        mu = phase_from_angle(np.array(src.angles_deg), 0.5)[0]
        folded_mu = np.angle(np.exp(1j * had.m_rf * mu)) / had.m_rf
        npt.assert_allclose(base, np.degrees(np.arcsin(folded_mu / np.pi)),
                            atol=1e-6)
        assert abs(base[0] - 30.0) > 1.0  # genuinely ambiguous before stage 2

        s2 = generate_signals(src, 4, 1, False, rng.child("s2"))[0]
        est = estimate_spc_mpm(segments, sm @ s2, PencilConfig(4, 1), cfg,
                               codebook=cb)
        npt.assert_allclose(est, [30.0], atol=1e-6)

    def test_virtual_array_row_structure(self):
        # chain ell output = gain * signal * exp(1j*(ell-1)*m_rf*mu)
        m, l = 32, 4
        had = HadConfig("pc", m, l)
        m_rf = had.m_rf
        cfg = ArrayConfig(m, 0.5)
        src = SourceSet((22.0,), (1.0,))
        sm = steering_matrix(cfg, src)
        mu = phase_from_angle(np.array(src.angles_deg), 0.5)[0]
        cb = build_pc_codebook(had)
        s = generate_signals(src, 3, 1, False, RngSpec(13))[0]
        x = sm @ s
        for n, q in enumerate(apply_combiner(cb, x)):
            g = geometric_gain(mu - dft_phase(n + 1, m_rf), m_rf)
            for ell in range(l):
                expected = g * s[0] * np.exp(1j * ell * m_rf * mu)
                npt.assert_allclose(q[ell], expected, atol=1e-10)

    def test_same_virtual_bin_sources_raise(self):
        m, l = 8, 4  # m_rf = 2, fold period pi
        had = HadConfig("pc", m, l)
        cfg = ArrayConfig(m, 0.5)
        src = SourceSet((-30.0, 30.0), (1.0, 1.0))  # mu = -pi/2 and +pi/2
        sm = steering_matrix(cfg, src)
        rng = RngSpec(14)
        sigs = generate_signals(src, 2, had.n_combiners, False, rng.child("s"))
        segments = [sm @ b for b in sigs]
        s2 = generate_signals(src, 4, 1, False, rng.child("s2"))[0]
        with pytest.raises(AmbiguousGeometryError):
            estimate_spc_mpm(segments, sm @ s2, PencilConfig(2, 2), cfg,
                             build_pc_codebook(had))

    def test_budget_below_combiner_count(self):
        m, l = 16, 2  # m_rf = 8 candidates, G = 4 combiners
        had = HadConfig("pc", m, l)
        cfg = ArrayConfig(m, 0.5)
        src = SourceSet((10.0,), (1.0,))
        sm = steering_matrix(cfg, src)
        rng = RngSpec(15)
        sigs = generate_signals(src, 2, had.n_combiners, False, rng.child("s"))
        segments = [sm @ b for b in sigs]
        tiny = (sm @ generate_signals(src, 3, 1, False, rng.child("s2"))[0])
        with pytest.raises(ConfigError):
            estimate_spc_mpm(segments, tiny, PencilConfig(1, 1), cfg,
                             build_pc_codebook(had))

    def test_pc_architecture_required(self):
        # an FC codebook with L = 4 holds width-4 combiners, not width 1
        codebook = build_fc_codebook(HadConfig("fc", 16, 4))
        with pytest.raises(ConfigError):
            estimate_spc_mpm([], np.zeros((16, 4)), PencilConfig(2, 1),
                             ArrayConfig(16, 0.5), codebook)

    def test_chains_read_from_codebook(self):
        # M = 16 with the L = 2 codebook (m_rf = 8, eight combiners): stage 1
        # takes its two chains from the codebook; reading its outputs as four
        # chains mixes snapshots and gives 8.776 deg here
        cfg = ArrayConfig(16, 0.5)
        src = SourceSet((20.0,), (1.0,))
        sm = steering_matrix(cfg, src)
        rng = RngSpec(3)
        codebook = build_pc_codebook(HadConfig("pc", 16, 2))
        sigs = generate_signals(src, 4, len(codebook), False, rng.child("s"))
        segments = [sm @ b for b in sigs]
        block2 = sm @ generate_signals(src, 8, 1, False, rng.child("s2"))[0]
        est = estimate_spc_mpm(segments, block2, PencilConfig(1, 1), cfg, codebook)
        npt.assert_allclose(est, [20.0], atol=1e-6)


class TestTheorem2Bounds:
    def test_sector_snr_window(self):
        # output SNR across a sector stays within the subarray gain window
        power = 3.0
        for m_rf in (4, 8, 16):
            low = power / (m_rf * math.sin(math.pi / (2 * m_rf)) ** 2)
            high = m_rf * power
            deltas = np.linspace(-np.pi / m_rf, np.pi / m_rf, 1001)
            gains = np.abs([geometric_gain(d, m_rf) for d in deltas]) ** 2
            snrs = gains * power / m_rf
            assert np.all(snrs <= high * (1 + 1e-9))
            assert np.all(snrs >= low * (1 - 1e-9))
        # the four-chain subarray floor sits at 1.7071 times the source power
        assert 1.0 / (4 * math.sin(math.pi / 8) ** 2) == pytest.approx(1.7071,
                                                                       abs=1e-4)

    def test_edge_ratio_approaches_four_over_pi_squared(self):
        target = 4.0 / np.pi**2
        ratios = []
        for m_rf in (4, 16, 64, 256):
            low_over_peak = 1.0 / (m_rf**2 * math.sin(math.pi / (2 * m_rf)) ** 2)
            ratios.append(low_over_peak)
        assert all(r > target for r in ratios)
        gaps = [r - target for r in ratios]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
