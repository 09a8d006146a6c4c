"""DFT-codebook analog combiners for hybrid receivers.

Covers both architectures: fully-connected (every RF chain sees all antennas,
power split across chains) and partially-connected (disjoint subarrays of
``m_rf`` antennas per RF chain). Also provides the subarray gain kernel and
the spatial sectors swept by the partially-connected codebook.

Every combiner is stored as its subarray columns C, an array of shape
(blocks, width, m_rf), never as a dense M-by-L matrix: W[b*m_rf + m,
b*width + w] = C[b, w, m], zero elsewhere, and L = blocks*width. That is
(1, L, M) under FC and (L, 1, m_rf) under PC and for the disambiguation
scan; a codebook stacks N of them. Other modules pass these arrays to
``apply_combiner`` (W^H X) and ``apply_adjoint`` (W Q) and read only shapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError, UnsupportedGeometry

FC = "fc"
PC = "pc"


@dataclass(frozen=True)
class HadConfig:
    """Hybrid receiver shape: architecture, antenna count M, RF-chain count L."""

    architecture: str
    num_antennas: int
    rf_chains: int

    def __post_init__(self):
        arch = self.architecture.lower()
        object.__setattr__(self, "architecture", arch)
        if arch not in (FC, PC):
            raise ConfigError(f"unknown architecture {self.architecture!r}")
        m, l = self.num_antennas, self.rf_chains
        if l < 1 or l >= m:
            raise ConfigError("rf_chains must satisfy 1 <= L < M")
        if m % l != 0:
            raise ConfigError("num_antennas must be a multiple of rf_chains")

    @property
    def m_rf(self) -> int:
        """Antennas per subarray: M for FC, M/L for PC."""
        return self.num_antennas if self.architecture == FC else self.num_antennas // self.rf_chains

    @property
    def n_combiners(self) -> int:
        """Codebook size N = M/L for either architecture."""
        return self.num_antennas // self.rf_chains


@dataclass(frozen=True)
class GainModel:
    """Subarray gain parameters and the inter-block phase rule."""

    m_rf: int
    alpha: float
    psi_rule: str  # FC blocks share phase (psi = 0); PC blocks advance by m_rf*mu

    def psi(self, mu: float, ell: int) -> float:
        """Phase of subarray ``ell`` (1-based) relative to the first."""
        if self.psi_rule == PC:
            return (ell - 1) * mu * self.m_rf
        return 0.0


def dft_phase(n: int, m_rf: int) -> float:
    """Phase of the n-th DFT column (1-based), wrapped past the half-way index.

    Returns 2*pi*(n-1)/m_rf for the first half of the indices and that value
    minus 2*pi for the rest (for odd sizes the split index rounds up). The
    wrap only relabels the phase; exp(1j*phi) is unchanged.
    """
    if not 1 <= n <= m_rf:
        raise IndexError(f"column index {n} outside 1..{m_rf}")
    phi = 2.0 * np.pi * (n - 1) / m_rf
    if n > (m_rf + 1) // 2:
        phi -= 2.0 * np.pi
    return phi


def dft_column(n: int, m_rf: int) -> np.ndarray:
    """n-th DFT column (1-based), entries exp(1j*(m-1)*phi_n)."""
    return np.exp(1j * np.arange(m_rf) * dft_phase(n, m_rf))


def build_fc_codebook(cfg: HadConfig) -> np.ndarray:
    """Fully-connected codebook, (N, 1, L, M): L consecutive DFT columns each.

    Each combiner is scaled by 1/sqrt(L) for power splitting; the union of all
    columns is the full M-point DFT matrix, so the set resolves the identity.
    """
    if cfg.architecture != FC:
        raise ConfigError("config does not describe a fully-connected receiver")
    m, l = cfg.num_antennas, cfg.rf_chains
    phases = np.array([dft_phase(c, m) for c in range(1, m + 1)])
    dft = np.exp(1j * np.outer(np.arange(m), phases))
    return dft.T.reshape(cfg.n_combiners, 1, l, m) / math.sqrt(l)


def build_pc_codebook(cfg: HadConfig) -> np.ndarray:
    """Partially-connected single-phase codebook, (N, L, 1, m_rf).

    Combiner n repeats the n-th DFT column of the subarray on all L blocks,
    so every RF chain applies the identical phase progression.
    """
    if cfg.architecture != PC:
        raise ConfigError("config does not describe a partially-connected receiver")
    m_rf, l = cfg.m_rf, cfg.rf_chains
    phases = np.array([dft_phase(n, m_rf) for n in range(1, m_rf + 1)])
    dft = np.exp(1j * np.arange(m_rf) * phases[:, None])  # N = m_rf columns
    return subarray_columns(np.repeat(dft, l, axis=0), l)


def subarray_columns(steering, rf_chains: int) -> np.ndarray:
    """Partially-connected columns, (..., N, L, 1, m_rf), from per-chain steering.

    Row j of the (..., N*L, m_rf) ``steering`` is the column of chain j mod L
    in combiner j // L.
    """
    steering = np.asarray(steering)
    return steering.reshape(steering.shape[:-2] + (-1, rf_chains, 1, steering.shape[-1]))


def build_codebook(cfg: HadConfig) -> np.ndarray:
    return build_fc_codebook(cfg) if cfg.architecture == FC else build_pc_codebook(cfg)


def gain(mu, phi, model: GainModel):
    """Subarray gain g(mu - phi): Dirichlet kernel with linear phase.

    Equals sum_{m=1..m_rf} exp(1j*(m-1)*(mu-phi)); the closed form
    sin(m_rf*d/2)/sin(d/2) * exp(1j*(m_rf-1)*d/2) is used away from its
    removable singularities, with the direct sum as fallback near them.
    """
    delta = np.asarray(mu, dtype=float) - np.asarray(phi, dtype=float)
    scalar = delta.ndim == 0
    delta = np.atleast_1d(delta)
    den = np.sin(delta / 2.0)
    small = np.abs(den) < 5e-10
    safe = np.where(small, 1.0, den)
    out = np.sin(model.m_rf * delta / 2.0) / safe \
        * np.exp(1j * (model.m_rf - 1) * delta / 2.0)
    if np.any(small):
        idx = np.nonzero(small)[0]
        m = np.arange(model.m_rf)
        out[idx] = np.exp(1j * np.outer(delta[idx], m)).sum(axis=1)
    return complex(out[0]) if scalar else out


def sectors(cfg: HadConfig, spacing_ratio: float = 0.5) -> tuple:
    """Angular sectors (degrees) of the PC codebook at half-wavelength spacing.

    One tuple per combiner of the half-open intervals (lo_deg, hi_deg] whose
    phases fall within pi/m_rf of its DFT phase, a phase width of 2*pi/m_rf;
    the sector that straddles broadside ambiguity at the array edge splits
    into two intervals. Only defined for spacing_ratio = 0.5; other spacings
    have no published sector formula.
    """
    if cfg.architecture != PC:
        raise ConfigError("sectors are defined for the partially-connected codebook")
    if abs(spacing_ratio - 0.5) > 1e-12:
        raise UnsupportedGeometry("sectors require half-wavelength spacing")
    m_rf = cfg.m_rf
    n_total = cfg.n_combiners
    upper = (n_total + 1) // 2  # last unwrapped index; rounds up for odd sizes
    asind = lambda x: math.degrees(math.asin(x))
    intervals = []
    for n in range(1, n_total + 1):
        if n <= upper:
            pieces = ((asind((2 * n - 3) / m_rf), asind((2 * n - 1) / m_rf)),)
        elif n == upper + 1:
            pieces = (
                (-90.0, asind((2 * n - 1) / m_rf - 2.0)),
                (asind((2 * n - 3) / m_rf), 90.0),
            )
        else:
            pieces = ((asind((2 * n - 3) / m_rf - 2.0), asind((2 * n - 1) / m_rf - 2.0)),)
        intervals.append(pieces)
    return tuple(intervals)


def apply_combiner(w, x) -> np.ndarray:
    """Analog combining stage: returns W^H X.

    ``w`` holds combiner columns (..., blocks, width, m_rf) and ``x`` antenna
    blocks (..., M, K); leading axes broadcast, so a stack of N combiners
    applied to N blocks gives (N, L, K).
    """
    w = np.asarray(w)
    x = np.asarray(x)
    if w.ndim < 3 or x.ndim < 2 or x.shape[-2] != w.shape[-3] * w.shape[-1]:
        raise ShapeError(f"combiner {w.shape} incompatible with block {x.shape}")
    blocks, width, m_rf = w.shape[-3:]
    out = w.conj() @ x.reshape(x.shape[:-2] + (blocks, m_rf, x.shape[-1]))
    return out.reshape(out.shape[:-3] + (blocks * width, x.shape[-1]))


def apply_adjoint(w, q) -> np.ndarray:
    """Adjoint of ``apply_combiner``: returns W Q, (..., L, K) -> (..., M, K)."""
    w = np.asarray(w)
    q = np.asarray(q)
    if w.ndim < 3 or q.ndim < 2 or q.shape[-2] != w.shape[-3] * w.shape[-2]:
        raise ShapeError(f"combiner {w.shape} incompatible with output {q.shape}")
    blocks, width, m_rf = w.shape[-3:]
    out = w.swapaxes(-1, -2) @ q.reshape(q.shape[:-2] + (blocks, width, q.shape[-1]))
    return out.reshape(out.shape[:-3] + (blocks * m_rf, q.shape[-1]))
