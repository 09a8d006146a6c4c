"""Cramer-Rao lower bounds for the full-array and combined receivers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import ArrayConfig, SourceSet, steering_matrix
from .combiners import CombinerSet, apply_combiner
from .errors import ConfigError, SingularFim


@dataclass(frozen=True)
class CrlbInputs:
    """Everything the bound formulas need; combiners present for the SPC case.

    Source powers are per unit noise variance: the harness draws noise with
    sigma^2 = 1, and both bounds take that value.
    """

    array: ArrayConfig
    sources: SourceSet
    snapshots: int
    combiners: CombinerSet | None = None

    def __post_init__(self):
        if self.snapshots < 1:
            raise ConfigError("snapshots must be positive")
        if self.combiners is not None:
            m, l = self.array.num_antennas, self.combiners.rf_chains
            if not self.combiners.is_semi_unitary(m / l):
                raise ConfigError("combiner set must satisfy W^H W = (M/L) I")


@dataclass(frozen=True)
class CrlbMatrix:
    """R-by-R bound on the DoA covariance, in radians squared."""

    matrix: np.ndarray

    @property
    def root_deg(self) -> np.ndarray:
        """Per-source root bound, degrees."""
        return np.degrees(np.sqrt(np.diag(self.matrix)))

    @property
    def pooled_root_deg(self) -> float:
        """Root of the source-averaged diagonal, comparable to pooled RMSE."""
        return float(np.degrees(np.sqrt(np.mean(np.diag(self.matrix)))))


def steering_derivative(array: ArrayConfig, sources: SourceSet) -> np.ndarray:
    """Columnwise derivative of the steering matrix w.r.t. angle in radians."""
    steer = steering_matrix(array, sources)
    theta = np.radians(np.asarray(sources.angles_deg))
    m_idx = np.arange(array.num_antennas)[:, None]
    slope = 2.0 * np.pi * array.spacing_ratio * np.cos(theta)[None, :]
    return 1j * m_idx * slope * steer.entries


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


def crlb_fd(inputs: CrlbInputs) -> CrlbMatrix:
    """DoA bound for the fully-digital receiver with Gaussian sources.

    Evaluates 1/(2*K) * (Re{F^H P_perp F .* (Phi A^H Sigma^-1 A Phi)^T})^-1
    with the snapshot covariance Sigma = A Phi A^H + I (sigma^2 = 1). The same
    expression bounds the periodicity-based hybrid estimator when evaluated
    with the per-segment snapshot count.
    """
    if inputs.combiners is not None:
        raise ConfigError("full-array bound takes no combiner set")
    a = steering_matrix(inputs.array, inputs.sources).entries
    f = steering_derivative(inputs.array, inputs.sources)
    phi = inputs.sources.power_matrix
    m = inputs.array.num_antennas
    sigma = a @ phi @ a.conj().T + np.eye(m)
    p_perp = _perp_projector(a)
    left = f.conj().T @ p_perp @ f
    right = phi @ a.conj().T @ np.linalg.solve(sigma, a) @ phi
    core = np.real(left * right.T)
    return _invert_fim(core, 1.0 / (2.0 * inputs.snapshots))


def crlb_spc(inputs: CrlbInputs) -> CrlbMatrix:
    """DoA bound for the single-phase partially-connected combiner set.

    ``inputs.snapshots`` counts snapshots per combiner. Per combiner W, with
    E = W^H A and G = W^H F, the output covariance is E Phi E^H + (M/L) I
    (sigma^2 = 1) and the derivative term is G^H P_perp(E) G. Combiners that null
    a source contribute nothing; their projector is formed through a
    pseudo-inverse so the sum stays well defined.
    """
    if inputs.combiners is None:
        raise ConfigError("combined-receiver bound requires a combiner set")
    a = steering_matrix(inputs.array, inputs.sources).entries
    f = steering_derivative(inputs.array, inputs.sources)
    phi = inputs.sources.power_matrix
    m = inputs.array.num_antennas
    l = inputs.combiners.rf_chains
    e = apply_combiner(inputs.combiners.columns, a)  # (N, L, R)
    g = apply_combiner(inputs.combiners.columns, f)
    e_h = e.conj().swapaxes(-1, -2)
    upsilon = e @ phi @ e_h + (m / l) * np.eye(l)
    left = g.conj().swapaxes(-1, -2) @ _perp_projector(e) @ g
    right = phi @ e_h @ np.linalg.solve(upsilon, e) @ phi
    core = np.real(left * right.swapaxes(-1, -2)).sum(axis=0)  # in combiner order
    prefactor = m / (2.0 * inputs.snapshots * l)
    return _invert_fim(core, prefactor)
