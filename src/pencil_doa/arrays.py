"""Uniform linear array model: steering, seeded streams, synthesis, RMSE bookkeeping.

Public APIs take and return angles in degrees; internal phase math is in
radians. The inter-element phase of a source at angle ``theta`` is
``mu = 2*pi*(spacing/wavelength)*sin(theta)``.
"""

from __future__ import annotations

import functools
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

_SQRT_HALF = math.sqrt(0.5)


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

    def words(self) -> np.ndarray:
        """The uint32 entropy words: the 64-bit seed, low word first, then one per label.

        For a seed in [0, 2**64) these are the words numpy's SeedSequence makes
        of the list [seed, *labels]: one below 2**32 (0 included), else two.
        """
        seed = self.seed & 0xFFFFFFFFFFFFFFFF
        words = [seed & 0xFFFFFFFF] + ([seed >> 32] if seed >> 32 else [])
        words.extend(_encode_label(label) for label in self.labels)
        return np.array(words, dtype=np.uint32)

    def generator(self) -> np.random.Generator:
        """PCG64 seeded through a SeedSequence of ``words()``, one stream alone."""
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.words())))


def child_states(spec: RngSpec, indices, labels) -> np.ndarray:
    """(I, P, 4) ``seed_states`` of ``spec.child(i, *label)`` for I indices and P labels.

    ``labels`` is a list of label tuples of any lengths; all I*P word rows
    are hashed in one pass, zero-padded to the longest.
    """
    head = spec.words().size  # the index word follows the spec's own words
    rows = [spec.child(0, *label).words() for label in labels]
    counts = [row.size for row in rows]
    words = np.zeros((len(indices), len(rows), max(counts, default=head + 1)), np.uint32)
    for p, row in enumerate(rows):
        words[:, p, :row.size] = row
    words[..., head] = (np.asarray(indices, dtype=np.int64) & 0xFFFFFFFF)[:, None]
    return seed_states(words, counts)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j = 0..count."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint32)


def seed_states(words, counts=None) -> np.ndarray:
    """``SeedSequence(row[:count]).generate_state(4, np.uint64)`` for every row at once.

    ``words`` is a (..., W) uint32 array of zero-padded entropy rows, such as
    ``RngSpec.words``, and ``counts`` their word counts, W where omitted; the
    result is the C-ordered (..., 4) uint64 array of PCG64 seeds. This is
    numpy's pool-of-four SeedSequence hash in uint32 array arithmetic:
    ``mix_entropy`` then ``generate_state``. A row shorter than the pool
    hashes as if padded with zero words, as numpy's does; past the pool, a
    row mixes in only its own words.
    """
    words = np.asarray(words, dtype=np.uint32)
    width = words.shape[-1]
    counts = np.expand_dims(width if counts is None else counts, -1)
    const = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * max(width - 4, 0))
    used = 0

    def hashmix(value, n):  # n consecutive hash constants, one per column
        nonlocal used
        value = (value ^ const[used:used + n]) * const[used + 1:used + n + 1]
        used += n
        return value ^ (value >> 16)

    def mix(x, y):
        result = x * _MIX_L - y * _MIX_R
        return result ^ (result >> 16)

    pool = np.zeros(words.shape[:-1] + (4,), dtype=np.uint32)
    pool[..., :width] = words[..., :4]
    pool = hashmix(pool, 4)
    for src in range(4):  # every pool word into each of the others, in order
        dst = [d for d in range(4) if d != src]
        pool[..., dst] = mix(pool[..., dst], hashmix(pool[..., src:src + 1], 3))
    for i in range(4, width):  # each further word into the whole pool of its rows
        pool = np.where(i < counts, mix(pool, hashmix(words[..., i:i + 1], 4)), pool)
    const = _hash_constants(_INIT_B, _MULT_B, 8)
    state = (np.tile(pool, 2) ^ const[:-1]) * const[1:]  # cycles the pool twice
    state ^= state >> 16
    return np.ascontiguousarray(state, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_state_type() -> type:
    """The SeedSequence stand-in that hands PCG64 one row of ``seed_states``.

    Built on first use, so that importing the package does not import
    numpy.random: doing so moves the benchmark's peak RSS by about 0.9 MB.
    """

    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"a seed state holds 4 uint64 words, not "
                                 f"{n_words} {np.dtype(dtype)}")
            # PCG64 reads the words from the array's memory
            return np.ascontiguousarray(self.state, dtype=np.uint64)

    return SeedState


def state_generator(state) -> np.random.Generator:
    """The generator of the spec whose ``seed_states`` row is ``state``.

    Equal to that spec's ``generator()``: PCG64 seeds itself from the row,
    through a stand-in for the SeedSequence.
    """
    return np.random.Generator(np.random.PCG64(_seed_state_type()(state)))


def _generator(rng) -> np.random.Generator:
    return rng if isinstance(rng, np.random.Generator) else rng.generator()


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


def arcsin_deg(sines) -> np.ndarray:
    """Degrees of each sine clamped to [-1, 1], NaN kept, by ``math.asin``: no SIMD dispatch."""
    sines = np.clip(sines, -1.0, 1.0)
    return np.reshape([math.degrees(math.asin(s)) for s in sines.ravel().tolist()], sines.shape)


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
                     periodic: bool, rng) -> np.ndarray:
    """Draw the (segments, R, K) source signal blocks from ``rng``.

    ``rng`` is an ``RngSpec`` or a generator. Entries are zero-mean
    circularly symmetric complex Gaussians with per-row variance equal to
    the source power. One (draws, 2, R, K) draw supplies each drawn block's
    real then imaginary parts, in the order of one draw per part and block:
    one block, repeated across all segments, with ``periodic=True``, else
    one block per segment. For one segment both forms draw the same block.
    """
    if snapshots < 1 or segments < 1:
        raise ConfigError("snapshots and segments must be positive")
    gen = _generator(rng)
    scale = np.sqrt(np.asarray(sources.powers, dtype=float) / 2.0)[:, None]
    parts = gen.standard_normal((1 if periodic else segments, 2, sources.count, snapshots))
    block = scale * (parts[:, 0] + 1j * parts[:, 1])
    return np.repeat(block, segments, axis=0) if periodic else block


def generate_noise(channels: int, snapshots: int, rng, out=None) -> SnapshotBlock:
    """Unit-variance circularly symmetric complex Gaussian noise block.

    ``rng`` is an ``RngSpec`` or a generator. The real then the imaginary
    part is drawn and scaled by sqrt(1/2), into ``out`` when given: a
    complex (channels, snapshots) array, such as one segment of a larger
    block.
    """
    if channels < 1 or snapshots < 1:
        raise ConfigError("channels and snapshots must be positive")
    shape = (channels, snapshots)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif out.shape != shape or out.dtype != complex:
        raise ShapeError(f"noise output {out.shape} {out.dtype} is not {shape} complex")
    gen = _generator(rng)
    np.multiply(gen.standard_normal(shape), _SQRT_HALF, out=out.real)
    np.multiply(gen.standard_normal(shape), _SQRT_HALF, out=out.imag)
    return out


def receive_fd(a: np.ndarray, signals: np.ndarray, noise: SnapshotBlock,
               out=None) -> SnapshotBlock:
    """Fully-digital receive model: steering ``a``, (M, R), times signals plus noise.

    ``noise`` is (..., M, K) and ``signals`` (..., R, K), with leading
    segment axes equal to the noise's or of length one: one signal block
    reaches every segment. ``out`` may be ``noise`` itself, to add in place.
    """
    signals = np.asarray(signals)
    noise = np.asarray(noise)
    if signals.ndim < 2 or a.shape[1] != signals.shape[-2]:
        raise ShapeError(f"signal block {signals.shape} does not match {a.shape[1]} sources")
    lead = signals.shape[:-2]
    if noise.shape[-2:] != (a.shape[0], signals.shape[-1]) or signals.ndim > noise.ndim \
            or lead not in (noise.shape[noise.ndim - signals.ndim:-2], (1,) * len(lead)):
        raise ShapeError(f"noise block {noise.shape} does not match output shape")
    return np.add(a @ signals, noise, out=out)


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
