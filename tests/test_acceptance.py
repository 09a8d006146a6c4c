"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from pencil_doa import (
    ArrayConfig,
    HadConfig,
    PencilConfig,
    RngSpec,
    SourceSet,
    ambiguity_set,
    apply_combiner,
    build_fc_codebook,
    build_pc_codebook,
    crlb_fd,
    crlb_spc,
    estimate_fd_mpm,
    estimate_pmpm,
    estimate_spc_mpm,
    generate_noise,
    generate_signals,
    phase_from_angle,
    pmpm_aggregate,
    pooled_root_deg,
    steering_matrix,
)
from pencil_doa.arrays import paired_squared_errors
from pencil_doa import harness
from pencil_doa.harness import (
    PRESET_NAMES,
    ExperimentConfig,
    csv_text,
    preset,
    run_experiment,
)
from pencil_doa.pencil import (
    augment,
    eigen_to_angles,
    pencil_eigenvalues,
    split_pencil,
    svd_denoise,
)

import test_golden as golden

TESTS_DIR = Path(__file__).resolve().parent
SRC = TESTS_DIR.parent / "src"


def report(criterion, passed, detail):
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {criterion}: {detail}"


def dirichlet_mag(delta, m_rf):
    """|sum_m exp(1j*m*delta)| by direct summation (oracle)."""
    return np.abs(np.exp(1j * np.outer(np.atleast_1d(delta),
                                       np.arange(m_rf))).sum(axis=1))


def wrap_phase(x):
    return np.angle(np.exp(1j * np.asarray(x)))


# ---------------------------------------------------------------------------
# criterion 1: noiseless exactness over random configurations


def _disambiguation_margin(angles, m_rf):
    """Expected power-scan margin: true candidate over the best spurious one.

    Interfering sources leak through the subarray beam into spurious
    candidates; a ratio near 1 means the scan cannot separate the sources
    even with unlimited snapshots (the limiting case being two sources in
    the same virtual bin, a documented failure geometry).
    """
    mus = np.pi * np.sin(np.radians(np.asarray(angles)))
    worst = np.inf
    for mu_r in mus:
        cands = wrap_phase(mu_r + 2 * np.pi * np.arange(m_rf) / m_rf)
        expected = np.array([
            float(np.sum(dirichlet_mag(mus - c, m_rf) ** 2)) / m_rf
            for c in cands
        ])
        true_i = int(np.argmin(np.abs(wrap_phase(cands - mu_r))))
        others = np.delete(expected, true_i)
        if others.size:
            worst = min(worst, expected[true_i] / max(others.max(), 1e-300))
    return worst


def _sample_noiseless_config(gen):
    while True:
        m = int(gen.choice([8, 16, 32]))
        r = int(gen.integers(1, 4))
        valid_l = [l for l in range(2, m)
                   if m % l == 0 and l >= 2 * r and m // l >= 2]
        if not valid_l:
            continue
        l = int(gen.choice(valid_l))
        m_rf = m // l
        for _ in range(300):
            angles = np.sort(gen.uniform(-88.0, 88.0, size=r))
            if r > 1 and np.min(np.diff(angles)) < 2.0:
                continue
            if r > 1 and _disambiguation_margin(angles, m_rf) < 1.4:
                continue
            return m, l, r, tuple(angles)


def test_criterion_1_noiseless_exactness():
    start = time.perf_counter()
    gen = np.random.default_rng(2024)
    worst = 0.0
    orders_seen = set()
    for i in range(100):
        m, l, r, angles = _sample_noiseless_config(gen)
        orders_seen.add(r)
        array = ArrayConfig(m, 0.5)
        sources = SourceSet(angles, (1.0,) * r)
        steer = steering_matrix(array, sources)
        rng = RngSpec(9000 + i)

        s = generate_signals(sources, 1, 1, False, rng.child("fd"))[0]
        est = estimate_fd_mpm(steer @ s, PencilConfig(m // 2, r),
                              array)
        worst = max(worst, float(np.max(np.abs(est - angles))))

        had_fc = HadConfig("fc", m, l)
        n = had_fc.n_combiners
        periodic = generate_signals(sources, 1, n, True, rng.child("pmpm"))
        segments = [steer @ block for block in periodic]
        est = estimate_pmpm(segments, build_fc_codebook(had_fc),
                            PencilConfig(m // 2, r), array)
        worst = max(worst, float(np.max(np.abs(est - angles))))

        had_pc = HadConfig("pc", m, l)
        stage1 = generate_signals(sources, 1, n, False, rng.child("spc"))
        segments = [steer @ block for block in stage1]
        g_total = math.ceil(had_pc.m_rf * r / l)
        s2 = generate_signals(sources, g_total * 128, 1, False,
                              rng.child("spc2"))[0]
        est = estimate_spc_mpm(segments, steer @ s2, PencilConfig(l // 2, r),
                               array, build_pc_codebook(had_pc))
        worst = max(worst, float(np.max(np.abs(est - angles))))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-6 and elapsed < 30.0 and orders_seen == {1, 2, 3},
           f"worst error {worst:.2e} deg over 100 configs, "
           f"R values {sorted(orders_seen)}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 2: aggregation identity and aggregate-noise variance


def test_criterion_2_aggregation_identity():
    m, l, k = 16, 4, 8
    array = ArrayConfig(m, 0.5)
    sources = SourceSet((-20.0, 40.0), (2.0, 1.0))
    steer = steering_matrix(array, sources)
    s = generate_signals(sources, k, 1, False, RngSpec(20))[0]
    worst_identity = 0.0
    for arch, build in (("fc", build_fc_codebook), ("pc", build_pc_codebook)):
        had = HadConfig(arch, m, l)
        codebook = build(had)
        segments = [steer @ s for _ in range(had.n_combiners)]
        q_blocks = apply_combiner(codebook, np.asarray(segments))
        y = pmpm_aggregate(q_blocks, codebook)
        worst_identity = max(worst_identity,
                             float(np.linalg.norm(y - steer @ s)))

    had = HadConfig("pc", m, l)
    codebook = build_pc_codebook(had)
    total, count, t = 0.0, 0, 0
    while count < 10_000:
        noise = [generate_noise(m, k, RngSpec(21).child(t, n))
                 for n in range(had.n_combiners)]
        q_blocks = apply_combiner(codebook, np.asarray(noise))
        y = pmpm_aggregate(q_blocks, codebook)
        total += float(np.sum(np.abs(y) ** 2))
        count += y.size
        t += 1
    variance = total / count
    report(2, worst_identity < 1e-10 and 0.95 <= variance <= 1.05,
           f"identity residual {worst_identity:.2e}, "
           f"noise variance {variance:.4f} over {count} samples")


# ---------------------------------------------------------------------------
# criterion 3: sector SNR window and its asymptotic edge ratio


def test_criterion_3_sector_snr_bounds():
    power = 1.0
    violations = 0
    for m_rf in (4, 8, 16):
        low = power / (m_rf * math.sin(math.pi / (2 * m_rf)) ** 2)
        high = m_rf * power
        mus = np.linspace(-np.pi / m_rf, np.pi / m_rf, 1000)
        snrs = dirichlet_mag(mus, m_rf) ** 2 * power / m_rf
        violations += int(np.sum(snrs > high * (1 + 1e-9)))
        violations += int(np.sum(snrs < low * (1 - 1e-9)))

    target = 4.0 / np.pi**2
    ratios = [1.0 / (m_rf**2 * math.sin(math.pi / (2 * m_rf)) ** 2)
              for m_rf in (4, 16, 64, 256)]
    gaps = [r - target for r in ratios]
    monotone = all(g > 0 for g in gaps) and all(
        later < earlier for earlier, later in zip(gaps, gaps[1:]))
    report(3, violations == 0 and monotone,
           f"{violations} window violations; edge ratios "
           f"{[round(r, 5) for r in ratios]} -> {target:.5f}")


# ---------------------------------------------------------------------------
# criterion 4: grating-lobe candidate cardinality


def test_criterion_4_candidate_cardinality():
    gen = np.random.default_rng(404)
    checked = 0
    for m_rf in (2, 4, 8):
        for _ in range(1000):
            mu = float(gen.uniform(-np.pi, np.pi))
            theta = math.degrees(math.asin(mu / np.pi)) if abs(mu) < np.pi else 89.9
            cands = ambiguity_set([theta], m_rf, 0.5)[0]
            assert cands.size == m_rf
            assert np.all(cands > -np.pi) and np.all(cands <= np.pi + 1e-9)
            checked += 1
    report(4, checked == 3000, f"{checked} candidate sets, all of full size")


# ---------------------------------------------------------------------------
# criterion 5: first study configuration at desk scale


def test_criterion_5_example1_desk_scale():
    start = time.perf_counter()
    base = replace(preset("example1"), grid=(0.0,))
    pmpm = run_experiment(base)[0]
    spc = run_experiment(replace(base, scenario="spc_mpm"))[0]
    bound = pooled_root_deg(crlb_fd(ArrayConfig(32, 0.5),
                                    SourceSet((0.0,), (100.0,)), 32))
    elapsed = time.perf_counter() - start
    ok = (pmpm.rmse_deg <= 0.010 and spc.rmse_deg <= 0.012
          and abs(bound / 0.004 - 1.0) <= 0.20 and elapsed < 300.0)
    report(5, ok, f"PMPM {pmpm.rmse_deg:.4f} <= 0.01, "
                  f"SPC {spc.rmse_deg:.4f} <= 0.012, "
                  f"root bound {bound:.4f} vs 0.004, {elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 6: second study configuration and the matched-RMSE SNR advantage


def _sparse_fd_rmse(snr_db, trials, seed):
    """L-antenna receiver on the subarray-dilated grid, genie lobe pick."""
    l, m_rf, theta, k = 8, 8, 30.0, 28
    mu = float(phase_from_angle(theta, 0.5))
    a_virtual = np.exp(1j * np.arange(l) * m_rf * mu).reshape(-1, 1)
    sources = SourceSet((theta,), (10.0 ** (snr_db / 10.0),))
    total, count = 0.0, 0
    for t in range(trials):
        rng = RngSpec(seed).child(t)
        s = generate_signals(sources, k, 1, False, rng.child("signal"))[0]
        z = generate_noise(l, k, rng.child("noise"))
        x = a_virtual @ s + z
        _, coords, _ = svd_denoise(augment([x[:, i] for i in range(k)], l // 2), 1)
        eig = pencil_eigenvalues(*split_pencil(coords, l // 2), 1)
        folded = eigen_to_angles(eig, 0.5, dilation=m_rf)
        cands = ambiguity_set(folded, m_rf, 0.5)[0]
        cand_deg = np.degrees(np.arcsin(cands / np.pi))
        est = cand_deg[np.argmin(np.abs(cand_deg - theta))]
        total += (est - theta) ** 2
        count += 1
    return math.sqrt(total / count)


def _snr_at_level(points, target):
    snrs = sorted(points)
    logs = [math.log10(points[s]) for s in snrs]
    goal = math.log10(target)
    for i in range(len(snrs) - 1):
        if (logs[i] - goal) * (logs[i + 1] - goal) <= 0:
            frac = (logs[i] - goal) / (logs[i] - logs[i + 1])
            return snrs[i] + frac * (snrs[i + 1] - snrs[i])
    return None


def test_criterion_6_example2_desk_scale():
    start = time.perf_counter()
    base = preset("example2")
    spc10 = run_experiment(replace(base, grid=(10.0,)))[0]
    pmpm10 = run_experiment(replace(base, scenario="pmpm_fc",
                                    grid=(10.0,)))[0]

    spc_curve = {
        rec.sweep_value: rec.rmse_deg
        for rec in run_experiment(replace(base, grid=(4.0, 6.0, 8.0, 10.0,
                                                      12.0, 14.0, 16.0)))
    }
    sparse_curve = {snr: _sparse_fd_rmse(snr, trials=200, seed=606)
                    for snr in (13.0, 15.0, 17.0, 19.0, 21.0, 23.0, 25.0)}
    snr_spc = _snr_at_level(spc_curve, 0.004)
    snr_sparse = _snr_at_level(sparse_curve, 0.004)
    advantage = None if None in (snr_spc, snr_sparse) else snr_sparse - snr_spc
    elapsed = time.perf_counter() - start
    ok = (0.003 <= pmpm10.rmse_deg <= 0.015
          and 0.003 <= spc10.rmse_deg <= 0.020
          and advantage is not None and 7.0 <= advantage <= 11.0
          and elapsed < 600.0)
    report(6, ok, f"PMPM {pmpm10.rmse_deg:.4f} in [0.003, 0.015], "
                  f"SPC {spc10.rmse_deg:.4f} in [0.003, 0.02], "
                  f"advantage {advantage if advantage is None else round(advantage, 2)} dB, "
                  f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 7: snapshot-budget trend


def test_criterion_7_example4_trend():
    start = time.perf_counter()
    base = preset("example4")
    pmpm = {rec.sweep_value: rec.rmse_deg for rec in run_experiment(base)}
    spc = {rec.sweep_value: rec.rmse_deg
           for rec in run_experiment(replace(base, scenario="spc_mpm"))}
    elapsed = time.perf_counter() - start

    def strictly_improving(curve):
        values = [curve[k] for k in (8.0, 32.0, 128.0, 512.0)]
        return all(later < earlier
                   for earlier, later in zip(values, values[1:]))

    ok = (strictly_improving(pmpm) and strictly_improving(spc)
          and pmpm[512.0] <= 0.05 and elapsed < 600.0)
    report(7, ok, f"PMPM {[round(pmpm[k], 4) for k in (8., 32., 128., 512.)]}, "
                  f"SPC {[round(spc[k], 4) for k in (8., 32., 128., 512.)]}, "
                  f"{elapsed:.0f} s")


# ---------------------------------------------------------------------------
# criterion 8: bound oracles


def _numeric_crlb_theta(m, theta_deg, power, snapshots, h=1e-6):
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


def test_criterion_8_bound_oracles():
    worst_rel = 0.0
    for theta, power in ((20.0, 5.0), (0.0, 10.0), (-35.0, 2.0)):
        closed = crlb_fd(ArrayConfig(4, 0.5), SourceSet((theta,), (power,)), 10)
        oracle = _numeric_crlb_theta(4, theta, power, 10)
        worst_rel = max(worst_rel, abs(closed[0, 0] / oracle - 1.0))

    array = ArrayConfig(16, 0.5)
    sources = SourceSet((7.0, -28.0), (4.0, 9.0))
    fd_a = crlb_fd(array, sources, 50)
    fd_b = crlb_fd(array, sources, 100)
    codebook = build_pc_codebook(HadConfig("pc", 16, 4))
    spc_a = crlb_spc(array, sources, 50, codebook)
    spc_b = crlb_spc(array, sources, 25, codebook)
    scaling_exact = (np.array_equal(fd_a, 2.0 * fd_b)
                     and np.array_equal(spc_b, 2.0 * spc_a))
    report(8, worst_rel < 0.01 and scaling_exact,
           f"oracle mismatch {worst_rel:.2e} < 1%, scaling exact: {scaling_exact}")


# ---------------------------------------------------------------------------
# criterion 9: byte-identical output across fresh interpreters


def test_criterion_9_determinism(tmp_path):
    # Different PYTHONHASHSEED values change str hashing and set order, so
    # equal bytes show that no RNG stream label or sum order depends on them.
    start = time.perf_counter()
    payloads = []
    for run, hash_seed in enumerate(("1", "4242")):
        path = tmp_path / f"determinism{run}.csv"
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-m", "pencil_doa.cli", "preset", "example1",
             "--out", str(path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        payloads.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    report(9, payloads[0] == payloads[1],
           f"{len(payloads[0])} bytes identical across two interpreters "
           f"with PYTHONHASHSEED 1 and 4242, {elapsed:.0f} s")


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_criterion_9_batch_sizes(name, monkeypatch):
    # Trials solved one at a time, seven at a time and all at once give the
    # same bytes as the default stack size.
    trials = 9
    cfg = replace(preset(name), trials=trials)
    want = csv_text(run_experiment(cfg))
    for size in (1, 7, trials):
        monkeypatch.setattr(harness, "stack_size", lambda *_, size=size: size)
        assert csv_text(run_experiment(cfg)) == want, f"stack of {size}"


@pytest.mark.parametrize("processes", (1, 2, 3))
def test_criterion_9_process_counts(processes, monkeypatch):
    # Each process returns its share's per-trial errors and the caller sums
    # them all in trial order, so every golden case keeps its CSV bytes and
    # its bits whether one, two or three processes run the trials.
    monkeypatch.setattr(harness, "_process_count", lambda: processes)
    cases = golden.golden_cases()
    golden.golden_records.cache_clear()
    try:
        moved = [golden.case_id(case) for case in cases
                 if golden.golden_csv(*case).encode("utf-8")
                 != golden.golden_path(*case).read_bytes()
                 or golden.golden_bits(*case)
                 != golden.golden_bits_lines(golden.case_id(case))]
    finally:
        golden.golden_records.cache_clear()
    report(9, moved == [], f"{len(cases) - len(moved)} of {len(cases)} golden cases "
                           f"keep their CSV and bits at {processes} processes; "
                           f"moved: {moved}")


def test_criterion_9_blas_threads():
    # run_experiment pins OpenBLAS to one thread, so the thread count a
    # process starts with moves no bit of the golden corpus
    script = ("import test_golden as g; print(*(line for case in g.golden_cases() "
              "for line in g.golden_bits(*case)), sep='\\n')")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS_DIR)]),
                   OPENBLAS_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    report(9, outputs[0] == outputs[1],
           f"{len(outputs[0].splitlines())} golden bit lines at 1 and 2 OpenBLAS threads")
