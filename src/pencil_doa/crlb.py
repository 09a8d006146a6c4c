"""Cramer-Rao lower bounds for the full-array and combined receivers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, SourceSet, steering_matrix
from .combiners import apply_combiner
from .errors import ConfigError, SingularFim


@dataclass(frozen=True)
class CrlbInputs:
    """Everything the bound formulas need; combiners present for the SPC case.

    Source powers are per unit noise variance: the harness draws noise with
    sigma^2 = 1, and both bounds take that value. ``combiners`` is a
    (N, blocks, width, m_rf) codebook whose combiners satisfy W^H W = (M/L) I.
    """

    array: ArrayConfig
    sources: SourceSet
    snapshots: int
    combiners: np.ndarray | None = None

    def __post_init__(self):
        if self.snapshots < 1:
            raise ConfigError("snapshots must be positive")
        if self.combiners is not None:
            c, m = self.combiners, self.array.num_antennas
            if c.ndim != 4 or c.shape[1] * c.shape[3] != m:
                raise ConfigError(f"combiner columns {c.shape} do not span {m} antennas")
            _, blocks, width, _ = c.shape
            gram = c @ c.conj().swapaxes(-1, -2)  # W^H W, block by block
            if not np.allclose(gram, m / (blocks * width) * np.eye(width), atol=1e-8):
                raise ConfigError("combiner set must satisfy W^H W = (M/L) I")


@dataclass(frozen=True)
class CrlbMatrix:
    """R-by-R bound on the DoA covariance, in radians squared."""

    matrix: np.ndarray

    @property
    def pooled_root_deg(self) -> float:
        """Root of the source-averaged diagonal, comparable to pooled RMSE."""
        return float(np.degrees(np.sqrt(np.mean(np.diag(self.matrix)))))


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


def _invert_fim(core: np.ndarray, prefactor: float) -> CrlbMatrix:
    if not np.all(np.isfinite(core)):
        raise SingularFim("Fisher information core is not finite")
    try:
        crlb = prefactor * np.linalg.inv(core)
    except np.linalg.LinAlgError as exc:
        raise SingularFim("Fisher information core is singular") from exc
    crlb = 0.5 * (crlb + crlb.T)
    if np.any(np.linalg.eigvalsh(crlb) <= 0.0):
        raise SingularFim("bound matrix is not positive definite")
    return CrlbMatrix(matrix=crlb)


def _combined_bound(inputs: CrlbInputs, columns: np.ndarray) -> CrlbMatrix:
    """Stochastic bound (Stoica & Nehorai, IEEE TASSP 1990) summed over combiners.

    ``columns`` is a (N, blocks, width, m_rf) codebook with W^H W = (M/L) I,
    and ``inputs.snapshots`` counts snapshots per combiner. Per combiner W,
    with E = W^H A and G = W^H F, the output covariance is
    Upsilon = E Phi E^H + (M/L) I (sigma^2 = 1) and the Fisher information
    core is Re{G^H P_perp(E) G .* (Phi E^H Upsilon^-1 E Phi)^T}. Combiners
    that null a source contribute nothing; their projector is formed through
    a pseudo-inverse so the sum stays well defined. With R >= L sources every
    P_perp(E) is zero, so the information is zero by structure.
    """
    m = inputs.array.num_antennas
    blocks, width, _ = columns.shape[-3:]
    l, r = blocks * width, inputs.sources.count
    if r >= l:
        raise SingularFim(f"{r} sources leave no noise subspace in {l} outputs")
    a = steering_matrix(inputs.array, inputs.sources)
    f = steering_derivative(inputs.array, inputs.sources)
    phi = inputs.sources.power_matrix
    e = apply_combiner(columns, a)  # (N, L, R)
    g = apply_combiner(columns, f)
    e_h = e.conj().swapaxes(-1, -2)
    upsilon = e @ phi @ e_h + (m / l) * np.eye(l)
    left = g.conj().swapaxes(-1, -2) @ _perp_projector(e) @ g
    right = phi @ e_h @ np.linalg.solve(upsilon, e) @ phi
    core = np.real(left * right.swapaxes(-1, -2)).sum(axis=0)  # in combiner order
    return _invert_fim(core, m / (2.0 * inputs.snapshots * l))


def crlb_fd(inputs: CrlbInputs) -> CrlbMatrix:
    """DoA bound for the fully-digital receiver with Gaussian sources.

    The combined bound with one identity combiner, M blocks of one unit
    column: 1/(2*K) * (Re{F^H P_perp(A) F .* (Phi A^H Sigma^-1 A Phi)^T})^-1
    with Sigma = A Phi A^H + I. The same expression bounds the
    periodicity-based hybrid estimator when evaluated with the per-segment
    snapshot count.
    """
    if inputs.combiners is not None:
        raise ConfigError("full-array bound takes no combiner set")
    return _combined_bound(inputs, np.ones((1, inputs.array.num_antennas, 1, 1)))


def crlb_spc(inputs: CrlbInputs) -> CrlbMatrix:
    """DoA bound for the single-phase partially-connected combiner set.

    ``inputs.snapshots`` counts snapshots per combiner; see ``_combined_bound``.
    """
    if inputs.combiners is None:
        raise ConfigError("combined-receiver bound requires a combiner set")
    return _combined_bound(inputs, inputs.combiners)
