"""Uniform linear array model: steering, source/noise synthesis, RMSE bookkeeping.

Public APIs take and return angles in degrees; internal phase math is in
radians. The inter-element phase of a source at angle ``theta`` is
``mu = 2*pi*(spacing/wavelength)*sin(theta)``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSources,
    EmptyInput,
    ShapeError,
    TrialArityError,
    UnsupportedGeometry,
)

SnapshotBlock = np.ndarray
"""Complex channels-by-snapshots matrix (raw, combined, or aggregated samples)."""


def _encode_label(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    return zlib.crc32(str(label).encode("utf-8"))


@dataclass(frozen=True)
class RngSpec:
    """Seed plus stream labels; equal specs reproduce draws bit for bit.

    Independent streams are obtained by extending the label tuple, e.g.
    ``spec.child("noise", segment_index)``.
    """

    seed: int
    labels: tuple = ()

    def child(self, *extra) -> "RngSpec":
        return RngSpec(self.seed, self.labels + tuple(extra))

    def generator(self) -> np.random.Generator:
        """PCG64 seeded from the 64-bit seed's words, low first, then one per label.

        These are the words numpy's SeedSequence makes of the list [seed,
        *labels]: one for a seed below 2**32 (0 included), else two.
        """
        seed = self.seed & 0xFFFFFFFFFFFFFFFF
        words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
        words.extend(_encode_label(label) for label in self.labels)
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(np.array(words, dtype=np.uint32))))


@dataclass(frozen=True)
class ArrayConfig:
    """ULA geometry: element count and spacing as a fraction of wavelength."""

    num_antennas: int
    spacing_ratio: float = 0.5

    def __post_init__(self):
        if self.num_antennas < 2:
            raise ConfigError("num_antennas must be at least 2")
        if not 0.0 < self.spacing_ratio <= 0.5:
            raise ConfigError("spacing_ratio must lie in (0, 0.5]")


@dataclass(frozen=True)
class SourceSet:
    """True DoAs in degrees and per-source average powers (linear scale)."""

    angles_deg: tuple
    powers: tuple

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles_deg)
        powers = tuple(float(p) for p in self.powers)
        object.__setattr__(self, "angles_deg", angles)
        object.__setattr__(self, "powers", powers)
        if len(angles) == 0:
            raise ConfigError("at least one source is required")
        if len(angles) != len(powers):
            raise ConfigError("angles and powers must have equal length")
        if any(not -90.0 < a < 90.0 for a in angles):
            raise ConfigError("angles must lie strictly inside (-90, 90) degrees")
        if not all(0.0 < p < math.inf for p in powers):
            raise ConfigError("powers must be positive and finite")
        if len(set(angles)) != len(angles):
            raise DegenerateSources("duplicate source angles")

    @property
    def count(self) -> int:
        return len(self.angles_deg)

    @property
    def power_matrix(self) -> np.ndarray:
        return np.diag(self.powers)


def phase_from_angle(theta_deg, spacing_ratio: float):
    """Inter-element phase mu for angle(s) in degrees."""
    return 2.0 * np.pi * spacing_ratio * np.sin(np.radians(theta_deg))


def steering_matrix(cfg: ArrayConfig, sources: SourceSet) -> np.ndarray:
    """The M-by-R steering matrix for the given sources.

    Column r holds ``exp(1j*(m-1)*mu_r)`` for antenna index ``m``; every entry
    has unit modulus and the first row is all ones.
    """
    mu = np.asarray(phase_from_angle(np.array(sources.angles_deg), cfg.spacing_ratio))
    # |mu| < pi inside (-90, 90) for spacing_ratio <= 0.5, unless sin rounds to 1
    if not np.all(np.abs(mu) < np.pi):
        raise UnsupportedGeometry(
            f"inter-element phase {np.max(np.abs(mu)):.17g} rad not below pi")
    return np.exp(1j * np.outer(np.arange(cfg.num_antennas), mu))


def generate_signals(sources: SourceSet, snapshots: int, segments: int,
                     periodic: bool, rng: RngSpec) -> list:
    """Draw per-segment R-by-K source signal blocks.

    Entries are zero-mean circularly symmetric complex Gaussians with
    per-row variance equal to the source power. With ``periodic=True`` a
    single draw is replicated across all segments. Otherwise one
    (segments, 2, R, K) draw supplies each segment's real then imaginary
    parts, in the order of one draw per part and segment.
    """
    if snapshots < 1 or segments < 1:
        raise ConfigError("snapshots and segments must be positive")
    gen = rng.generator()
    scale = np.sqrt(np.asarray(sources.powers, dtype=float) / 2.0)[:, None]
    if periodic:
        shape = (sources.count, snapshots)
        block = scale * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))
        return [block.copy() for _ in range(segments)]
    parts = gen.standard_normal((segments, 2, sources.count, snapshots))
    return list(scale * (parts[:, 0] + 1j * parts[:, 1]))


def generate_noise(channels: int, snapshots: int, rng: RngSpec) -> SnapshotBlock:
    """Unit-variance circularly symmetric complex Gaussian noise block."""
    if channels < 1 or snapshots < 1:
        raise ConfigError("channels and snapshots must be positive")
    gen = rng.generator()
    shape = (channels, snapshots)
    return np.sqrt(0.5) * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


def receive_fd(a: np.ndarray, signals: np.ndarray,
               noise: SnapshotBlock) -> SnapshotBlock:
    """Fully-digital receive model: steering ``a``, (M, R), times signals plus noise."""
    signals = np.asarray(signals)
    noise = np.asarray(noise)
    if signals.ndim != 2 or a.shape[1] != signals.shape[0]:
        raise ShapeError(f"signal block {signals.shape} does not match {a.shape[1]} sources")
    if noise.shape != (a.shape[0], signals.shape[1]):
        raise ShapeError(f"noise block {noise.shape} does not match output shape")
    return a @ signals + noise


def paired_squared_errors(estimates_deg, truth_deg) -> np.ndarray:
    """Squared errors after sorting both lists ascending and pairing positionally."""
    est = np.sort(np.asarray(estimates_deg, dtype=float))
    tru = np.sort(np.asarray(truth_deg, dtype=float))
    if est.shape != tru.shape:
        raise TrialArityError(f"expected {tru.size} estimates, got {est.size}")
    return (est - tru) ** 2


def rmse(estimates, truth: SourceSet) -> float:
    """Root-mean-square DoA error in degrees over a list of per-trial estimates.

    Estimates are matched to the truth by ascending-angle sort within each
    trial; every trial must supply exactly one estimate per source.
    """
    trials = list(estimates)
    if not trials:
        raise EmptyInput("no trials supplied")
    total = 0.0
    for trial in trials:
        if len(trial) != truth.count:
            raise TrialArityError(
                f"trial has {len(trial)} estimates for {truth.count} sources")
        total += float(paired_squared_errors(trial, truth.angles_deg).sum())
    return math.sqrt(total / (truth.count * len(trials)))
