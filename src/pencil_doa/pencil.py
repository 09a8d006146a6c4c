"""Hankel construction, signal-subspace reduction, and the pencil eigenvalue solve.

Shared by all estimation pipelines. ``augment`` views the K snapshots of a
(C, K) block as K side-by-side Hankel blocks, the augmented matrix H.
``svd_denoise`` finds its signal subspace U_R from the SVD of the small
triangular factor of H^H, taken as the conjugated R factor of the QR of the
transpose view H^T, and returns the coordinates P = U_R^H H.
As pinv(U_R P_L) U_R P_R = pinv(P_L) P_R, the column-deleted pair of P has the
eigenvalues of the rank-R denoised pair: Hua & Sarkar's matrix pencil (IEEE
TASSP 1990) in the subspace form of ESPRIT (Roy & Kailath, IEEE TASSP 1989),
with no rank-R reconstruction and no second SVD. Eigenvalues map to angles.

K enters only through X X^H (X = snapshots^T): every entry of H H^H, H_L H_L^H
and H_R H_L^H is a sum of entries of X X^H along a diagonal. ``compress``
therefore replaces K > C snapshots by the C-by-C factor R of their QR,
snapshots = Q R: with Q^H Q = I, R^T conj(R) = X X^H, so H keeps its left
singular vectors and values and the pencil its nonzero eigenvalues. This
square-root form keeps the eps*cond accuracy of working on H itself, where
forming X X^H would square the condition number.

Every stage takes a stack of pencils on leading axes and treats each pencil
as it would alone, so one call solves a batch of trials.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arrays import arcsin_deg
from .errors import (
    EmptyInput,
    NumericalError,
    OutOfRangeWarning,
    PencilParamError,
    RankError,
    ShapeError,
)

# Relative singular-value cutoff for pseudo-inverses and rank decisions.
PINV_RCOND = 1e-10

# Bytes of one stack of trials: the Hankel matrices H of its batched solve
# plus what each trial holds beside them (SPC's stage-2 block), counted by
# ``stack_size``; larger trials run alone. A solve holds H and numpy's QR
# copy of it, so up to about twice this at its peak. The harness also hashes
# the seed states of its trials' streams this many bytes at a time, and sizes
# the heap's mmap and trim thresholds from it (``harness._keep_heap``).
STACK_BYTES = 1 << 20


@dataclass(frozen=True)
class PencilConfig:
    """Pencil parameter xi and model order R.

    xi must lie in [R, C-R] for the C channels of each snapshot; the
    estimators check that against the block they are given.
    """

    xi: int
    num_sources: int

    def __post_init__(self):
        if self.num_sources < 1:
            raise PencilParamError("num_sources must be positive")


def hankel(x: np.ndarray, xi: int) -> np.ndarray:
    """Hankel view along axis 0: entry (i, ..., j) = x[i + j, ...] (0-based).

    (C-xi)-by-(xi+1) for a length-C snapshot, (C-xi, K, xi+1) for a (C, K) block.
    """
    x = np.atleast_1d(x)
    if not 1 <= xi <= x.shape[0] - 1:
        raise PencilParamError(f"xi={xi} invalid for a length-{x.shape[0]} snapshot")
    return sliding_window_view(x, xi + 1, axis=0)


def compress(snapshots) -> np.ndarray:
    """(..., K, C) snapshots, or for K > C the (..., C, C) factor R of their QR.

    Both have the same X X^H, so the pencil gives the same eigenvalues.
    """
    snapshots = np.asarray(snapshots)
    k, c = snapshots.shape[-2:]
    return np.linalg.qr(snapshots, mode="r") if k > c else snapshots


def stack_size(snapshots: int, channels: int, xi: int, held: int) -> int:
    """Pencils of K snapshots per stack: STACK_BYTES of H and ``held``, at least one.

    ``held`` is the bytes a caller keeps per pencil of the stack next to its
    H, such as SPC's stage-2 block. The solve's peak is about twice the
    stack's H, which ``np.linalg.qr`` copies once.
    """
    pencil_bytes = (channels - xi) * min(snapshots, channels) * (xi + 1) * 16 + held
    return max(1, STACK_BYTES // pencil_bytes) if pencil_bytes > 0 else 1


def augment(snapshots, xi: int) -> np.ndarray:
    """The (..., C-xi, K(xi+1)) matrix H: one Hankel block per snapshot, in order.

    ``snapshots`` is a (..., K, C) array or a sequence of K length-C snapshots.
    """
    try:
        x = np.asarray(snapshots)
    except ValueError as exc:
        raise ShapeError("snapshots must share a common length") from exc
    if x.size == 0:
        raise EmptyInput("no snapshots to augment")
    if x.ndim < 2:
        raise ShapeError("snapshots must form a (..., K, C) array")
    blocks = np.moveaxis(hankel(np.moveaxis(x, -1, 0), xi), 0, -3)
    return blocks.reshape(blocks.shape[:-2] + (-1,))


def svd_denoise(aug: np.ndarray, num_sources: int):
    """Signal subspace of the augmented matrix H as (basis, coords, gap).

    basis is U_R, the R leading left singular vectors of H; coords is U_R^H H,
    so basis @ coords is the best rank-R approximation of H; gap is
    sigma_R / sigma_{R+1} (inf when there is no discarded value), one per
    matrix of a stack.
    """
    r = num_sources
    if r > min(aug.shape[-2:]):
        raise PencilParamError(
            f"rank {r} exceeds matrix dimensions {aug.shape[-2:]}")
    try:
        # the R factor of H^T, conjugated, is that of H^H (up to the sign of
        # zero) with no full-size conjugate copy of H
        _, s, vh = np.linalg.svd(
            np.linalg.qr(aug.swapaxes(-1, -2), mode="r").conj(),
            full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed to converge") from exc
    gap = np.full(s.shape[:-1], np.inf)
    if s.shape[-1] > r:
        np.divide(s[..., r - 1], s[..., r], out=gap, where=s[..., r] > 0.0)
    vh = vh[..., :r, :]
    return vh.conj().swapaxes(-1, -2), vh @ aug, gap[()]


def split_pencil(h_aug: np.ndarray, xi: int) -> tuple[np.ndarray, np.ndarray]:
    """(left, right): each width-(xi+1) block less its last or first column."""
    h_aug = np.asarray(h_aug)
    if h_aug.ndim < 2 or h_aug.shape[-1] % (xi + 1):
        raise ShapeError(
            f"{h_aug.shape} is not a row of blocks of width {xi + 1}")
    local = np.arange(h_aug.shape[-1]) % (xi + 1)
    return h_aug[..., local != xi], h_aug[..., local != 0]


def pencil_eigenvalues(left: np.ndarray, right: np.ndarray,
                       num_sources: int) -> np.ndarray:
    """R largest-modulus eigenvalues of pinv(left) @ right, per pencil of a stack.

    The pseudo-inverse is taken through the SVD of the left matrix with a
    relative cutoff; the nonzero spectrum is computed on the reduced operator
    diag(1/s) U^H right V, which shares it with the full product. Each pencil
    masks its own singular values below the cutoff, whose rows of the reduced
    operator become zero and add only zero eigenvalues. RankError if any
    pencil keeps fewer than R. In the noiseless case the eigenvalues are
    unit-modulus complex exponentials of the source phases.
    """
    r = num_sources
    try:
        u, s, vh = np.linalg.svd(left, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed to converge") from exc
    keep = s > PINV_RCOND * s[..., :1]
    rank = np.count_nonzero(keep, axis=-1)
    if np.any(rank < r):
        raise RankError(
            f"pencil rank {np.min(rank)} below model order {r}", singular_values=s)
    reduced = ((u.conj().swapaxes(-1, -2) @ right @ vh.conj().swapaxes(-1, -2))
               / np.where(keep, s, np.inf)[..., None])
    values = np.linalg.eigvals(reduced)
    order = np.argsort(-np.abs(values), axis=-1)[..., :r]
    return np.take_along_axis(values, order, axis=-1)


def eigen_to_angles(eigenvalues: np.ndarray, spacing_ratio: float,
                    dilation: int = 1) -> np.ndarray:
    """Map pencil eigenvalues to DoA estimates in degrees, sorted ascending per pencil.

    Uses the principal phase of each eigenvalue, by ``math.atan2``; ``dilation``
    is 1 for full-aperture pencils and m_rf for the subarray-spaced virtual
    array. ``arcsin_deg`` clamps the arguments to [-1, 1]; clamping beyond
    0.05 raises an OutOfRangeWarning but the estimate is kept.
    """
    phases = [math.atan2(z.imag, z.real) for z in np.ravel(eigenvalues).tolist()]
    args = np.reshape(phases, np.shape(eigenvalues)) / (2.0 * np.pi * spacing_ratio * dilation)
    for excess in np.ravel(np.max(np.abs(args), axis=-1) - 1.0):
        if excess > 0.05:
            warnings.warn(
                f"arcsine argument exceeded unity by {excess:.3g}; clamped",
                OutOfRangeWarning, stacklevel=2)
    return np.sort(arcsin_deg(args), axis=-1)
