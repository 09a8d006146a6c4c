"""Cramer-Rao lower bounds for the full-array and combined receivers."""

from __future__ import annotations

import numpy as np

from .arrays import ArrayConfig, SourceSet, steering_matrix
from .combiners import apply_combiner
from .errors import ConfigError, SingularFim


def pooled_root_deg(bound: np.ndarray) -> float:
    """Root of the source-averaged diagonal of a bound, comparable to pooled RMSE."""
    return float(np.degrees(np.sqrt(np.mean(np.diag(bound)))))


def steering_derivative(array: ArrayConfig, sources: SourceSet) -> np.ndarray:
    """Columnwise derivative of the steering matrix w.r.t. angle in radians."""
    theta = np.radians(np.asarray(sources.angles_deg))
    m_idx = np.arange(array.num_antennas)[:, None]
    slope = 2.0 * np.pi * array.spacing_ratio * np.cos(theta)[None, :]
    return 1j * m_idx * slope * steering_matrix(array, sources)


def _perp_projector(basis: np.ndarray) -> np.ndarray:
    # SVD-based pseudo-inverse keeps this well defined for deficient bases;
    # a leading axis holds a stack of bases
    n = basis.shape[-2]
    return np.eye(n) - basis @ np.linalg.pinv(basis)


def _invert_fim(core: np.ndarray, prefactor: float) -> np.ndarray:
    if not np.all(np.isfinite(core)):
        raise SingularFim("Fisher information core is not finite")
    try:
        crlb = prefactor * np.linalg.inv(core)
    except np.linalg.LinAlgError as exc:
        raise SingularFim("Fisher information core is singular") from exc
    crlb = 0.5 * (crlb + crlb.T)
    if not np.all(np.linalg.eigvalsh(crlb) > 0.0):  # nan included
        raise SingularFim("bound matrix is not positive definite")
    return crlb


def _combined_bound(array: ArrayConfig, sources: SourceSet, snapshots: int,
                    columns: np.ndarray) -> np.ndarray:
    """Stochastic bound (Stoica & Nehorai, IEEE TASSP 1990) summed over combiners.

    ``columns`` is a (N, blocks, width, m_rf) codebook with W^H W = (M/L) I,
    and ``snapshots`` counts snapshots per combiner. Source powers are per
    unit noise variance, as the harness draws noise with sigma^2 = 1. Per
    combiner W, with E = W^H A and G = W^H F, the output covariance is
    Upsilon = E Phi E^H + (M/L) I and the Fisher information core is
    Re{G^H P_perp(E) G .* (Phi E^H Upsilon^-1 E Phi)^T}. Combiners
    that null a source contribute nothing; their projector is formed through
    a pseudo-inverse so the sum stays well defined. With R >= L sources every
    P_perp(E) is zero, so the information is zero by structure.
    """
    if snapshots < 1:
        raise ConfigError("snapshots must be positive")
    m = array.num_antennas
    blocks, width, _ = columns.shape[-3:]
    l, r = blocks * width, sources.count
    if r >= l:
        raise SingularFim(f"{r} sources leave no noise subspace in {l} outputs")
    a = steering_matrix(array, sources)
    f = steering_derivative(array, sources)
    phi = sources.power_matrix
    e = apply_combiner(columns, a)  # (N, L, R)
    g = apply_combiner(columns, f)
    e_h = e.conj().swapaxes(-1, -2)
    # with powers far above the noise, rounding can leave Upsilon or the core singular
    try:
        upsilon = e @ phi @ e_h + (m / l) * np.eye(l)
        left = g.conj().swapaxes(-1, -2) @ _perp_projector(e) @ g
        right = phi @ e_h @ np.linalg.solve(upsilon, e) @ phi
        core = np.real(left * right.swapaxes(-1, -2)).sum(axis=0)  # in combiner order
        return _invert_fim(core, m / (2.0 * snapshots * l))
    except np.linalg.LinAlgError as exc:
        raise SingularFim(f"bound kernel failed: {exc}") from exc


def crlb_fd(array: ArrayConfig, sources: SourceSet, snapshots: int) -> np.ndarray:
    """R-by-R DoA bound in rad^2 for the fully-digital receiver, Gaussian sources.

    The combined bound with one identity combiner, M blocks of one unit
    column: 1/(2*K) * (Re{F^H P_perp(A) F .* (Phi A^H Sigma^-1 A Phi)^T})^-1
    with Sigma = A Phi A^H + I. The same expression bounds the
    periodicity-based hybrid estimator when evaluated with the per-segment
    snapshot count.
    """
    return _combined_bound(array, sources, snapshots,
                           np.ones((1, array.num_antennas, 1, 1)))


def crlb_spc(array: ArrayConfig, sources: SourceSet, snapshots: int,
             codebook: np.ndarray) -> np.ndarray:
    """R-by-R DoA bound in rad^2 for the single-phase partially-connected codebook.

    ``codebook`` is (N, blocks, width, m_rf) and must satisfy W^H W = (M/L) I;
    ``snapshots`` counts snapshots per combiner; see ``_combined_bound``.
    """
    m = array.num_antennas
    if np.ndim(codebook) != 4 or codebook.shape[1] * codebook.shape[3] != m:
        raise ConfigError(f"combiner columns {np.shape(codebook)} do not span {m} antennas")
    _, blocks, width, _ = codebook.shape
    gram = codebook @ codebook.conj().swapaxes(-1, -2)  # W^H W, block by block
    if not np.allclose(gram, m / (blocks * width) * np.eye(width), atol=1e-8):
        raise ConfigError("combiner set must satisfy W^H W = (M/L) I")
    return _combined_bound(array, sources, snapshots, codebook)
