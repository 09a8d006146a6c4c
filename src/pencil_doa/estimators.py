"""End-to-end DoA estimation pipelines.

Three estimators share the pencil core:

* fully-digital baseline on raw antenna snapshots;
* periodicity-based aggregation that cycles an exhaustive codebook over a
  repeated signal so a hybrid receiver yields a virtual full-array block;
* single-phase partially-connected estimation on a dilated virtual array,
  followed by grating-lobe disambiguation via an SNR scan.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .arrays import ArrayConfig, SnapshotBlock, arcsin_deg, phase_from_angle
from .combiners import apply_adjoint, apply_combiner, subarray_columns
from .errors import (
    AmbiguousGeometryError,
    ConfigError,
    LowSnrWarning,
    PencilParamError,
    RankError,
    ShapeError,
)
from .pencil import (
    PencilConfig,
    augment,
    compress,
    eigen_to_angles,
    pencil_eigenvalues,
    split_pencil,
    svd_denoise,
)


def pencil_angles(snapshots: np.ndarray, cfg: PencilConfig,
                  spacing_ratio: float, dilation: int = 1) -> np.ndarray:
    """compress -> augment -> subspace -> split -> eigenvalues -> angles.

    ``snapshots`` is (K, C), or a (T, K, C) stack of T pencil inputs solved
    in one batch; angles come back sorted ascending, (R,) or (T, R). xi must
    lie in [R, C-R]. Raises if any pencil of the stack fails.
    """
    r, c, xi = cfg.num_sources, snapshots.shape[-1], cfg.xi
    if not r <= xi <= c - r:
        raise PencilParamError(f"xi={xi} outside [R, C-R] = [{r}, {c - r}] for C={c}")
    _, coords, _ = svd_denoise(augment(compress(snapshots), xi), r)
    left, right = split_pencil(coords, xi)
    eigenvalues = pencil_eigenvalues(left, right, r)
    return eigen_to_angles(eigenvalues, spacing_ratio, dilation=dilation)


def estimate_fd_mpm(x: SnapshotBlock, cfg: PencilConfig,
                    array: ArrayConfig) -> np.ndarray:
    """DoAs from a fully-digital snapshot block (one Hankel per column)."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != array.num_antennas:
        raise ShapeError(
            f"block with {x.shape[0]} channels does not match configuration")
    return pencil_angles(x.T, cfg, array.spacing_ratio)


def pmpm_aggregate(q_blocks, codebook: np.ndarray) -> SnapshotBlock:
    """Sum the digitally re-projected combiner outputs into one M-by-K block.

    ``q_blocks`` stacks the N combiner outputs, (N, L, K), of the (N, blocks,
    width, m_rf) ``codebook``. The digital combiner matched to analog combiner
    W is (L/M) W, with L/M = width/m_rf under either architecture. With a
    signal repeated across segments, the projector completeness of the
    codebook makes the noiseless aggregate equal the full-array receive block.
    """
    q_blocks = np.asarray(q_blocks)
    if q_blocks.ndim != 3 or len(q_blocks) != len(codebook):
        raise ShapeError(
            f"combiner outputs {q_blocks.shape} for a codebook of {len(codebook)}")
    width, m_rf = codebook.shape[-2:]
    terms = apply_adjoint(width / m_rf * codebook, q_blocks)
    return terms.sum(axis=0)  # in combiner order


def pencil_input(segments, codebook: np.ndarray | None = None,
                 single_phase: bool = False) -> np.ndarray:
    """The (K', C) pencil input of an (N, M, K) block of N segments.

    With no codebook, the N K raw snapshots. With a codebook, segment n
    passes combiner n: the PMPM aggregate gives K full-array snapshots, and
    under ``single_phase`` the (N, L, 1, m_rf) codebook's chain outputs give
    N K snapshots of the L-element virtual array dilated by m_rf.
    """
    x = np.asarray(segments)
    if codebook is not None:
        codebook = np.asarray(codebook)
        if single_phase and (codebook.ndim != 4 or codebook.shape[2] != 1):
            raise ConfigError(f"single-phase estimation needs (N, L, 1, m_rf) "
                              f"partially-connected columns, got {codebook.shape}")
        if len(x) != len(codebook):
            raise ShapeError(f"{len(x)} segments for a codebook of {len(codebook)}")
        x = apply_combiner(codebook, x)  # (N, L, K)
        if not single_phase:
            return pmpm_aggregate(x, codebook).T
    return x.swapaxes(-1, -2).reshape(-1, x.shape[-2])


def estimate_pmpm(segments, codebook: np.ndarray, cfg: PencilConfig,
                  array: ArrayConfig) -> np.ndarray:
    """DoAs from per-segment antenna blocks under a periodic source signal.

    Runs the full-array pencil on the PMPM aggregate of ``pencil_input``.
    The caller guarantees the signal repeats across the segments; the
    signal itself is never needed.
    """
    return estimate_fd_mpm(pencil_input(segments, codebook).T, cfg, array)


def ambiguity_set(base_angles_deg, m_rf: int, spacing_ratio: float) -> np.ndarray:
    """All phases indistinguishable from each base estimate on the dilated array.

    Row r holds source r's m_rf candidates mu + 2*pi*i/m_rf, ascending, one
    per residue class of i mod m_rf, wrapped into (-pi, pi]: the class takes
    its integer in [1 - m_rf, 0] if that candidate lies above -pi, else the
    one in [1, m_rf]. No candidate is at or below -pi; one exceeds pi only
    when its two integers round to either side of +-pi, and then by rounding.
    A (..., R) stack of base estimates gives (..., R, m_rf) candidates.
    """
    mu = phase_from_angle(np.atleast_1d(np.asarray(base_angles_deg, dtype=float)),
                          spacing_ratio)[..., None]
    i = np.arange(1, m_rf + 1)
    i = i - m_rf * (mu + 2.0 * np.pi * (i - m_rf) / m_rf > -np.pi)
    return np.sort(mu + 2.0 * np.pi * i / m_rf, axis=-1)


def disambiguation_combiners(codebook: np.ndarray, num_sources: int) -> int:
    """SNR-scan combiners for an (N, L, 1, m_rf) codebook: m_rf per source, L each."""
    _, rf_chains, _, m_rf = codebook.shape
    return math.ceil(m_rf * num_sources / rf_chains)


def build_disambiguation(candidates: np.ndarray, rf_chains: int) -> np.ndarray:
    """(..., G, L, 1, m_rf) columns: each block steered to one of the (..., R, m_rf) candidates.

    Slot j (1-based) of the source-major candidate list lives in combiner
    g = ceil(j/L) at block ell = j - (g-1)L. When the candidate count is not
    a multiple of L, the final combiner repeats the last candidate to fill.
    """
    candidates = np.asarray(candidates)
    flat = candidates.reshape(candidates.shape[:-2] + (-1,))
    fill = np.repeat(flat[..., -1:], -flat.shape[-1] % rf_chains, axis=-1)
    slots = np.concatenate([flat, fill], axis=-1)
    steered = np.exp(1j * np.arange(candidates.shape[-1]) * slots[..., None])
    return subarray_columns(steered, rf_chains)


def resolve_ambiguity(columns: np.ndarray, segments, candidates: np.ndarray,
                      spacing_ratio: float) -> np.ndarray:
    """Pick each source's candidate by the highest per-chain output SNR.

    ``columns`` comes from ``build_disambiguation(candidates, ...)`` and
    ``segments`` stacks one M-by-K2 block per combiner, (G, M, K2); all three
    may carry the same leading stack axes, one entry per trial. The metric
    for candidate slot (g, ell) is the mean output power of RF chain ell
    under combiner g, normalized by the beamforming gain, minus the unit
    noise floor. Candidates tie when their metrics are equal as floats, with
    no tolerance; a tie goes to the candidate of smallest |phase|, and among
    those to the first in its row, the lowest phase for ``ambiguity_set``
    rows. A source whose metrics are all at or below zero warns once, in
    (trial, source) order. Returns one angle per source, in source order,
    (..., R); ``arcsin_deg`` clamps the arcsine argument to [-1, 1], since a candidate
    may exceed pi by rounding and, below half-wavelength spacing, lie
    outside the visible region.
    """
    columns = np.asarray(columns)
    segments = np.asarray(segments)
    if segments.shape[:-2] != columns.shape[:-3]:
        raise ShapeError(f"segments {segments.shape[:-2]} for combiners "
                         f"{columns.shape[:-3]}")
    r, m_rf = candidates.shape[-2:]
    out = apply_combiner(columns, segments)
    slots = np.mean(np.abs(out) ** 2, axis=-1) / m_rf - 1.0
    metrics = slots.reshape(slots.shape[:-2] + (-1,))[..., :r * m_rf]
    metrics = metrics.reshape(candidates.shape)
    for *_, source in zip(*np.nonzero(np.all(metrics <= 0.0, axis=-1))):
        warnings.warn(f"all candidates for source {source} at or below the "
                      "noise floor", LowSnrWarning, stacklevel=2)
    ties = metrics == metrics.max(axis=-1, keepdims=True)
    pick = np.argmin(np.where(ties, np.abs(candidates), np.inf), axis=-1)
    mu_hat = np.take_along_axis(candidates, pick[..., None], axis=-1)[..., 0]
    return arcsin_deg(mu_hat / (2.0 * np.pi * spacing_ratio))


def spc_resolve(base_angles, disambiguation_block: SnapshotBlock,
                cfg: PencilConfig, array: ArrayConfig,
                codebook: np.ndarray) -> np.ndarray:
    """Stage 2: the true DoA among each stage-1 angle's grating-lobe candidates.

    Scans candidate-steered combiners over the raw M-by-K2_total block and
    returns the angles sorted ascending. ``base_angles`` (..., R) and the
    (..., M, K2_total) blocks may share leading stack axes, one per trial.
    """
    _, rf_chains, _, m_rf = codebook.shape
    candidates = ambiguity_set(base_angles, m_rf, array.spacing_ratio)
    block = np.asarray(disambiguation_block)
    g_total = disambiguation_combiners(codebook, cfg.num_sources)
    if block.ndim < 2 or block.shape[-2] != rf_chains * m_rf:
        raise ShapeError("disambiguation block must be M by K2")
    if block.shape[-1] < g_total:
        raise ConfigError(
            f"disambiguation budget {block.shape[-1]} below combiner count {g_total}")
    k2 = block.shape[-1] // g_total
    chunks = block[..., :g_total * k2].reshape(block.shape[:-1] + (g_total, k2))
    columns = build_disambiguation(candidates, rf_chains)
    return np.sort(resolve_ambiguity(columns, chunks.swapaxes(-3, -2), candidates,
                                     array.spacing_ratio), axis=-1)


def estimate_spc_mpm(segments, disambiguation_block: SnapshotBlock,
                     cfg: PencilConfig, array: ArrayConfig,
                     codebook: np.ndarray) -> np.ndarray:
    """Two-stage DoA estimation for a partially-connected receiver.

    Stage 1 runs the single-phase codebook over the segments and solves the
    pencil on the L-chain outputs, whose virtual array has its spacing
    dilated by m_rf; stage 2 resolves the resulting grating-lobe ambiguity
    with candidate-steered combiners applied to a fresh snapshot budget.

    ``codebook`` is the (N, L, 1, m_rf) single-phase codebook and fixes L,
    m_rf and M; ``segments`` holds one raw M-by-K antenna block per entry;
    ``disambiguation_block`` is the raw M-by-K2_total block consumed by the
    SNR scan. Sources whose phases coincide modulo 2*pi/m_rf share a virtual
    steering vector and raise AmbiguousGeometryError.
    """
    codebook = np.asarray(codebook)
    stage1 = pencil_input(segments, codebook, single_phase=True)
    try:
        base = pencil_angles(stage1, cfg, array.spacing_ratio,
                             dilation=codebook.shape[-1])
    except RankError as exc:
        raise AmbiguousGeometryError(
            "pencil produced fewer distinct modes than sources; two sources "
            "may share a virtual steering vector") from exc
    return spc_resolve(base, disambiguation_block, cfg, array, codebook)
