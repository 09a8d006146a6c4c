"""Frozen copies of seed kernels, kept as oracles for the code that replaced them.

``hankel``, ``augment``, ``svd_denoise``, ``split_pencil`` and
``pencil_eigenvalues`` (with the types they pass along) are the package's
original implementation, copied verbatim: one scipy Hankel matrix per
snapshot, a full SVD of the augmented matrix, the rank-R reconstruction, and
a second SVD for the pseudo-inverse. ``oracle_angles`` chains them as the
estimators once did, ending in the package's unchanged ``eigen_to_angles``.

``build_pc_codebook`` and ``build_disambiguation`` (with ``CombinerSet``,
``DisambiguationPlan`` and ``_steered_block``) are the seed combiner builders,
copied verbatim: dense matrices assembled with scipy's ``block_diag``.

Do not edit them to follow the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import block_diag

from pencil_doa.combiners import PC, HadConfig, dft_column, dft_phase
from pencil_doa.errors import (
    ConfigError,
    EmptyInput,
    NumericalError,
    PencilParamError,
    RankError,
    ShapeError,
)
from pencil_doa.estimators import AmbiguitySet
from pencil_doa.pencil import eigen_to_angles

# Relative singular-value cutoff for pseudo-inverses and rank decisions.
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class HankelStack:
    """Per-snapshot Hankel blocks and their left-to-right concatenation."""

    blocks: tuple
    augmented: np.ndarray
    xi: int

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class PencilPair:
    """Left/right matrices after deleting each block's last/first column."""

    left: np.ndarray
    right: np.ndarray
    xi: int
    num_blocks: int


@dataclass(frozen=True)
class EigenResult:
    """Pencil eigenvalues plus the singular values bracketing the rank cut."""

    eigenvalues: np.ndarray
    sigma_retained: float
    sigma_discarded: float


def hankel(x: np.ndarray, xi: int) -> np.ndarray:
    """(C-xi)-by-(xi+1) Hankel matrix with entry (i, j) = x[i + j] (0-based)."""
    x = np.asarray(x).ravel()
    c = x.size
    if not 1 <= xi <= c - 1:
        raise PencilParamError(f"xi={xi} invalid for a length-{c} snapshot")
    rows = c - xi
    return scipy.linalg.hankel(x[:rows], x[rows - 1:])


def augment(snapshots, xi: int) -> HankelStack:
    """Concatenate one Hankel block per snapshot, in snapshot order."""
    snapshots = list(snapshots)
    if not snapshots:
        raise EmptyInput("no snapshots to augment")
    length = np.asarray(snapshots[0]).size
    blocks = []
    for snap in snapshots:
        snap = np.asarray(snap).ravel()
        if snap.size != length:
            raise ShapeError("snapshots must share a common length")
        blocks.append(hankel(snap, xi))
    return HankelStack(blocks=tuple(blocks),
                       augmented=np.concatenate(blocks, axis=1), xi=xi)


def svd_denoise(stack: HankelStack, num_sources: int):
    """Best rank-R approximation of the augmented matrix.

    Returns the denoised matrix together with the signal-to-noise singular
    value gap sigma_R / sigma_{R+1} (inf when there is no discarded value).
    """
    aug = stack.augmented
    r = num_sources
    if r > min(aug.shape):
        raise PencilParamError(
            f"rank {r} exceeds matrix dimensions {aug.shape}")
    try:
        u, s, vh = np.linalg.svd(aug, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed to converge") from exc
    gap = float(s[r - 1] / s[r]) if s.size > r and s[r] > 0.0 else float("inf")
    denoised = (u[:, :r] * s[:r]) @ vh[:r]
    return denoised, gap


def split_pencil(h_aug: np.ndarray, xi: int, num_blocks: int) -> PencilPair:
    """Delete each block's last column (left) and first column (right)."""
    h_aug = np.asarray(h_aug)
    width = num_blocks * (xi + 1)
    if h_aug.ndim != 2 or h_aug.shape[1] != width:
        raise ShapeError(
            f"expected {width} columns for {num_blocks} blocks of width {xi + 1}")
    local = np.arange(width) % (xi + 1)
    return PencilPair(left=h_aug[:, local != xi], right=h_aug[:, local != 0],
                      xi=xi, num_blocks=num_blocks)


def pencil_eigenvalues(pair: PencilPair, num_sources: int) -> EigenResult:
    """R largest-modulus eigenvalues of pinv(left) @ right.

    The pseudo-inverse is taken through the SVD of the left matrix with a
    relative cutoff; the nonzero spectrum is computed on the reduced operator
    diag(1/s) U^H right V, which shares it with the full product. In the
    noiseless case the eigenvalues are unit-modulus complex exponentials of
    the source phases.
    """
    r = num_sources
    try:
        u, s, vh = np.linalg.svd(pair.left, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed to converge") from exc
    keep = s > PINV_RCOND * s[0] if s.size and s[0] > 0.0 else np.zeros_like(s, bool)
    rank = int(np.count_nonzero(keep))
    if rank < r:
        raise RankError(
            f"pencil rank {rank} below model order {r}", singular_values=s)
    uk = u[:, keep]
    vk = vh[keep].conj().T
    sk = s[keep]
    reduced = (uk.conj().T @ pair.right @ vk) / sk[:, None]
    values = np.linalg.eigvals(reduced)
    order = np.argsort(-np.abs(values))[:r]
    sigma_retained = float(sk[-1])
    sigma_discarded = float(s[rank]) if rank < s.size else 0.0
    return EigenResult(eigenvalues=values[order],
                       sigma_retained=sigma_retained,
                       sigma_discarded=sigma_discarded)


def oracle_angles(snapshots, xi: int, num_sources: int, spacing_ratio: float,
                  dilation: int = 1) -> np.ndarray:
    """augment -> denoise -> split -> eigenvalues -> angles, as at the seed."""
    stack = augment(snapshots, xi)
    denoised, _ = svd_denoise(stack, num_sources)
    pair = split_pencil(denoised, xi, stack.num_blocks)
    eig = pencil_eigenvalues(pair, num_sources)
    return eigen_to_angles(eig, spacing_ratio, dilation=dilation)


@dataclass(frozen=True)
class CombinerSet:
    """Ordered analog combiners plus the wrapped DFT phase grid behind them."""

    matrices: tuple
    phase_grid: np.ndarray
    architecture: str
    alpha: float
    m_rf: int

    def __len__(self) -> int:
        return len(self.matrices)

    @property
    def projector_scale(self) -> float:
        """1/(alpha^2 * m_rf), the normalization turning W W^H into a projector."""
        return 1.0 / (self.alpha**2 * self.m_rf)


def build_pc_codebook(cfg: HadConfig) -> CombinerSet:
    """Partially-connected single-phase codebook: N block-diagonal matrices.

    Matrix n repeats the n-th DFT column of the subarray across all L diagonal
    blocks, so every RF chain applies the identical phase progression.
    """
    if cfg.architecture != PC:
        raise ConfigError("config does not describe a partially-connected receiver")
    m_rf = cfg.m_rf
    phases = np.array([dft_phase(n, m_rf) for n in range(1, m_rf + 1)])
    matrices = []
    for n in range(1, cfg.n_combiners + 1):
        col = dft_column(n, m_rf).reshape(-1, 1)
        matrices.append(block_diag(*([col] * cfg.rf_chains)))
    return CombinerSet(matrices=tuple(matrices), phase_grid=phases,
                       architecture=PC, alpha=cfg.alpha, m_rf=cfg.m_rf)


def _steered_block(mu: float, m_rf: int) -> np.ndarray:
    return np.exp(1j * np.arange(m_rf) * mu).reshape(-1, 1)


@dataclass(frozen=True)
class DisambiguationPlan:
    """Candidate-steered block-diagonal combiners for the SNR scan.

    Slot j (1-based) of the flattened candidate list lives in combiner
    g = ceil(j/L) at block ell = j - (g-1)L. When the candidate count is not
    a multiple of L, the final combiner repeats the last candidate to fill.
    """

    combiners: tuple
    slot_phases: np.ndarray
    snapshots_per_combiner: int
    padded: bool

    @property
    def num_combiners(self) -> int:
        return len(self.combiners)


def build_disambiguation(amb: AmbiguitySet, cfg: HadConfig,
                         snapshots: int) -> DisambiguationPlan:
    """One combiner per L candidates, each block steered to its candidate phase."""
    if cfg.architecture != PC:
        raise ConfigError("disambiguation combiners require the PC architecture")
    flat = amb.flat
    l = cfg.rf_chains
    g_total = math.ceil(flat.size / l)
    padded = flat.size % l != 0
    slots = np.concatenate([flat, np.full(g_total * l - flat.size, flat[-1])])
    combiners = tuple(
        block_diag(*[_steered_block(slots[g * l + ell], cfg.m_rf)
                     for ell in range(l)])
        for g in range(g_total)
    )
    return DisambiguationPlan(combiners=combiners, slot_phases=slots,
                              snapshots_per_combiner=snapshots, padded=padded)
