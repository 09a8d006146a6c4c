"""Monte-Carlo experiment harness: configuration, presets, execution, CSV.

A run sweeps one axis (snr, theta, snapshots, or separation), executes D
seeded trials per sweep point, and reports pooled RMSE next to the matching
root bound. ``validate`` builds each ``_SweepPoint`` once per config, which
checks its sources and steers fixed angles once. Per-trial RNG streams derive from
(seed, sweep index, trial index); ``_SweepPoint._streams`` seeds them in
trial order, a chunk of trials at a time. Each stack of ``stack_size``
trials is then drawn, solved and, under SPC, resolved in one pass:
``estimators.pencil_input`` reduces each trial's (N, M, K) receive block,
as in the public estimators, one batched pencil call solves the stack, and
one ``spc_resolve`` call takes the stage-2 blocks of its solved trials,
which ``stack_size`` counts with the stack.

``run_experiment`` pins OpenBLAS to one thread for its length and splits
each point's trials into P contiguous shares, one per CPU it may run on.
It runs the first share itself and forks one process per other share after
validating, so every process runs the same points; each process sends back
its solved trials' squared-error sums, in trial order, and the caller sums
all of them in trial order, so the CSV is the same at any P. Before it
forks, ``_keep_heap`` lets every process keep its freed trial buffers.
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import sys
import time
import warnings
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import islice

import numpy as np

from .arrays import (
    ArrayConfig,
    RngSpec,
    SourceSet,
    child_states,
    generate_noise,
    generate_signals,
    paired_squared_errors,
    phase_from_angle,
    receive_fd,
    state_generator,
    steering_matrix,
)
from .combiners import FC, PC, HadConfig, build_codebook
from .crlb import crlb_fd, crlb_spc, pooled_root_deg
from .errors import ConfigError, ESTIMATOR_FAILURES
from .estimators import (
    disambiguation_combiners,
    pencil_angles,
    pencil_input,
    spc_resolve,
)
from .pencil import STACK_BYTES, PencilConfig, compress, stack_size

ESTIMATOR_SCENARIOS = ("fd_mpm", "pmpm_fc", "pmpm_pc", "spc_mpm")
CRLB_SCENARIOS = ("crlb_fd", "crlb_spc")
SCENARIOS = ESTIMATOR_SCENARIOS + CRLB_SCENARIOS
SWEEP_AXES = ("snr", "theta", "snapshots", "separation")

# Analog architecture of each hybrid scenario; the others use the full array.
ARCHITECTURES = {"pmpm_fc": FC, "pmpm_pc": PC, "spc_mpm": PC, "crlb_spc": PC}
# Scenarios that split the budget between the pencil and the SNR scan.
TWO_STAGE = ("spc_mpm", "crlb_spc")

# perfbench/run.py reads THREADS_ENV and worker_count() for its run metadata
# and pool share; neither changes how trials run (see _process_count).
THREADS_ENV = "PENCIL_DOA_THREADS"

# Records whose failure share exceeds this carry the sentinel RMSE of -1.
FAILURE_SHARE_LIMIT = 0.2
SENTINEL_RMSE = -1.0

# A trial draws at most M x budget complex entries; numpy cannot size an
# array of more bytes than its signed index type holds.
MAX_DRAW_ENTRIES = np.iinfo(np.intp).max // np.dtype(complex).itemsize


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: scenario, geometry, sources, snapshot budget, sweep."""

    scenario: str
    m: int = 32
    l: int = 8
    spacing_ratio: float = 0.5
    angles_deg: tuple = (0.0,)
    powers: tuple | None = None
    snr_db: tuple | None = (20.0,)
    snapshots: int = 128
    split_divisor: int = 8
    xi: int | None = None
    sweep: str = "snr"
    grid: tuple = (20.0,)
    trials: int = 200
    seed: int = 0
    random_theta: bool = False
    edge_offset_deg: float = 1.8

    def validate(self) -> list:
        """One ``_SweepPoint`` per grid value, or ConfigError naming the field at fault:
        built on the first call, the same list on later ones; a raise keeps nothing."""
        return self._points

    @cached_property
    def _points(self) -> list:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: {self.scenario!r} not in {SCENARIOS}")
        if self.sweep not in SWEEP_AXES:
            raise ConfigError(f"sweep: {self.sweep!r} not in {SWEEP_AXES}")
        if not self.grid:
            raise ConfigError("grid: sweep grid must be non-empty")
        if self.m < 2:
            raise ConfigError("m: need at least two antennas")
        if not 0.0 < self.spacing_ratio <= 0.5:
            raise ConfigError("spacing_ratio: must lie in (0, 0.5]")
        if self.trials < 1:
            raise ConfigError("trials: must be positive")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed: {self.seed} outside [0, 2**64)")
        if self.snapshots < 1:
            raise ConfigError("snapshots: must be positive")
        if self.sweep == "snapshots" and not all(
                math.isfinite(v) and v == int(v) and v >= 1 for v in self.grid):
            raise ConfigError("grid: snapshot budgets must be whole numbers of "
                              "at least 1")
        if self.split_divisor < 2:
            raise ConfigError("split_divisor: must be at least 2")
        if self.scenario in ARCHITECTURES:
            if self.l < 1 or self.l >= self.m or self.m % self.l:
                raise ConfigError("l: RF chains must divide m and satisfy L < M")
        if self.xi is not None and self.scenario in ESTIMATOR_SCENARIOS:
            r, c = _source_count(self), _pencil_channels(self)
            if not r <= self.xi <= c - r:
                raise ConfigError(f"xi: {self.xi} outside [R, C-R] = [{r}, {c - r}] "
                                  f"for R={r} sources on C={c} channels")
        if self.sweep == "snr":
            if self.powers is not None:
                raise ConfigError("powers: an SNR sweep sets each point's source "
                                  "powers from its grid value")
        elif (self.powers is None) == (self.snr_db is None):
            raise ConfigError("sources: provide exactly one of powers or snr_db")
        snr_fields = {"snr_db": self.snr_db or (),
                      "grid": self.grid if self.sweep == "snr" else ()}
        for field, snrs in snr_fields.items():
            if not all(math.isfinite(s) or s == math.inf for s in snrs):
                raise ConfigError(f"{field}: SNRs must be finite, or +inf for noiseless")
        if not self.random_theta and not self.angles_deg:
            raise ConfigError("angles_deg: at least one source angle is required")
        if self.sweep == "theta" and len(self.angles_deg) != 1:
            raise ConfigError("angles_deg: theta sweep expects a single source")
        if self.sweep in ("theta", "separation") and self.random_theta:
            raise ConfigError("random_theta: incompatible with an angle sweep")
        if self.random_theta and self.scenario in CRLB_SCENARIOS:
            raise ConfigError("random_theta: bounds need fixed source angles")
        if self.random_theta and not 0.0 <= self.edge_offset_deg < 90.0:
            raise ConfigError("edge_offset_deg: must lie in [0, 90)")
        # random draws keep sources at least 1 deg apart inside the edges
        if self.random_theta and \
                _source_count(self) - 1 >= 180.0 - 2.0 * self.edge_offset_deg:
            raise ConfigError(
                f"edge_offset_deg: {_source_count(self)} sources 1 deg apart do not "
                f"fit between -90 and 90 deg less an edge offset of "
                f"{self.edge_offset_deg} deg")
        receiver = _receiver(self)
        return [_SweepPoint(self, receiver, value) for value in self.grid]


@dataclass(frozen=True)
class ResultRecord:
    """One sweep point: pooled RMSE, matching root bound, failure accounting."""

    sweep_value: float
    scenario: str
    rmse_deg: float | None
    root_crlb_deg: float | None
    trials: int
    failures: int
    wall_ms: int


def _draw_angles(gen: np.random.Generator, r: int, edge_offset: float) -> tuple:
    lo, hi = -90.0 + edge_offset, 90.0 - edge_offset
    for _ in range(100):
        angles = np.sort(gen.uniform(lo, hi, size=r))
        if r == 1 or np.min(np.diff(angles)) >= 1.0:
            return tuple(angles)
    # the same law, uniform over sorted sets 1 deg apart, drawn directly: R
    # sorted uniforms on [lo, hi - (R-1)] plus 0, 1, ..., R-1 deg
    return tuple(np.sort(gen.uniform(lo, hi - (r - 1), size=r)) + np.arange(r))


def _receive(block: np.ndarray, steer, sources: SourceSet, signal, noise,
             periodic: bool = False) -> None:
    """Fill the (N, M, K) block with each segment's steered signals plus noise.

    Segment n takes its noise from generator n of ``noise``, or none where
    ``noise`` is None. A periodic signal is drawn once, and its one M-by-K
    product reaches every segment.
    """
    segments, m, k = block.shape
    if noise is None:
        block.fill(0.0)
    else:
        for out, gen in zip(block, noise):
            generate_noise(m, k, gen, out=out)
    signals = generate_signals(sources, k, 1 if periodic else segments, periodic, signal)
    receive_fd(steer, signals, block, out=block)


def _source_count(cfg: ExperimentConfig) -> int:
    return 2 if cfg.sweep == "separation" else max(1, len(cfg.angles_deg))


def _pencil_channels(cfg: ExperimentConfig) -> int:
    """C, the channels of a pencil snapshot: the L chains under SPC, else the M antennas."""
    return cfg.l if cfg.scenario in TWO_STAGE else cfg.m


def _receiver(cfg: ExperimentConfig) -> tuple:
    """(array, analog codebook or None for the full array, pencil parameters)."""
    array = ArrayConfig(cfg.m, cfg.spacing_ratio)
    architecture = ARCHITECTURES.get(cfg.scenario)
    codebook = None
    if architecture is not None:
        codebook = build_codebook(HadConfig(architecture, cfg.m, cfg.l))
    xi = _pencil_channels(cfg) // 2 if cfg.xi is None else cfg.xi
    return array, codebook, PencilConfig(xi, _source_count(cfg))


class _SweepPoint:
    """One sweep value: its sources and snapshot budget, and the trials run there."""

    def __init__(self, cfg: ExperimentConfig, receiver: tuple, value):
        """The point at ``value``, or ConfigError naming the field at fault.

        A point needs one power per source, each positive and finite, and fixed
        angles distinct and strictly inside (-90, 90) deg with an inter-element
        phase below pi, which rounding can break just short of 90 deg. Fixed
        angles are steered once, into ``fixed``, for every trial and the bound.
        """
        self.cfg = cfg
        self.array, self.codebook, self.pencil = receiver
        r = self.pencil.num_sources
        snrs = (float(value),) if cfg.sweep == "snr" else cfg.snr_db
        if snrs is None:
            field, powers, self.noiseless = "powers", tuple(cfg.powers), False
        else:
            field = "grid" if cfg.sweep == "snr" else "snr_db"
            snrs = tuple(snrs) * r if len(snrs) == 1 else tuple(snrs)
            self.noiseless = math.inf in snrs
            try:
                powers = tuple(1.0 if self.noiseless else 10.0 ** (s / 10.0)
                               for s in snrs)
            except OverflowError:
                powers = (math.inf,) * len(snrs)
        if len(powers) != r:
            raise ConfigError(f"{field}: {len(powers)} values for {r} sources")
        if not all(0.0 < p < math.inf for p in powers):
            raise ConfigError(f"{field}: source powers {powers} must be positive and finite")
        self.powers, self.angles, self.fixed = powers, None, None
        if not cfg.random_theta:
            # a sweep's grid sets the last source of its points
            swept, angles = cfg.sweep in ("theta", "separation"), cfg.angles_deg
            if cfg.sweep == "theta":
                angles = (float(value),)
            elif cfg.sweep == "separation":
                angles = (angles[0], angles[0] - float(value))
            # equal angles share one steering vector: no estimator or bound
            # tells them apart
            if len(set(map(float, angles))) < len(angles):
                raise ConfigError(f"{'grid' if swept else 'angles_deg'}: source angles "
                                  f"{angles} must be distinct")
            steerable = (np.abs(angles) < 90.0) & (np.abs(
                phase_from_angle(np.array(angles, dtype=float), cfg.spacing_ratio)) < np.pi)
            if not np.all(steerable):
                index = int(np.argmin(steerable))
                raise ConfigError(
                    f"{'grid' if swept and index == len(angles) - 1 else 'angles_deg'}: "
                    f"source angle {float(angles[index])!r} deg must lie strictly inside "
                    f"(-90, 90) with an inter-element phase below pi at spacing_ratio "
                    f"{cfg.spacing_ratio}")
            self.angles, self.fixed = angles, self._steered(angles)

        budget = int(value) if cfg.sweep == "snapshots" else cfg.snapshots
        self.drawable = cfg.m * budget <= MAX_DRAW_ENTRIES
        self.two_stage = cfg.scenario in TWO_STAGE
        self.k2 = 0
        if self.two_stage:
            self.k2 = budget // cfg.split_divisor if budget >= cfg.split_divisor else 1
            budget -= self.k2
        # a trial draws N segments of K snapshots; SPC solves its pencil on the
        # N K chain outputs, rows of the virtual array dilated by m_rf
        self.segments = 1 if self.codebook is None else len(self.codebook)
        self.k = budget // self.segments
        self.rows, self.dilation = (self.segments * self.k, self.codebook.shape[-1]) \
            if self.two_stage else (self.k, 1)

        # the labels after (sweep, trial) of every stream a trial can draw
        self.noise = [] if self.noiseless else [("noise",)] if self.codebook is None \
            else [("noise", i) for i in range(self.segments)]
        self.labels = [("theta",)] * cfg.random_theta + [("signal",)] + self.noise
        if self.two_stage:
            self.labels += [("signal2",)] + [("noise2",)] * (not self.noiseless)

    def errors(self, sweep_index: int, trials: range) -> list:
        """The summed squared error of each trial of ``trials`` that solves.

        The sums follow trial order; a trial that fails adds none. Trials are
        seeded, drawn and solved in index order, ``stack_size`` at a time:
        each stack of pencil inputs is solved in one batch, and under SPC its
        solved trials are resolved in one more.
        """
        # every trial fails when a stage has fewer snapshots than combiners
        scan_short = self.two_stage and self.k2 < \
            disambiguation_combiners(self.codebook, self.pencil.num_sources)
        if self.k < 1 or scan_short or not self.drawable:
            return []
        # a stack holds its stage-2 blocks too, M by K2 per trial
        step = stack_size(self.rows, _pencil_channels(self.cfg), self.pencil.xi,
                          self.cfg.m * self.k2 * 16)
        streams = self._streams(sweep_index, trials)
        sums = []
        while drawn := [self._draw(stream) for stream in islice(streams, step)]:
            solved = [(trial, estimates) for trial, estimates
                      in zip(drawn, self._solve(np.stack([x for *_, x in drawn])))
                      if estimates is not None]
            if self.two_stage and solved:
                solved = self._resolve(solved)
            sums += [float(np.sum(paired_squared_errors(estimates, sources.angles_deg)))
                     for (_, _, sources, _), estimates in solved]
        return sums

    def _streams(self, sweep_index: int, trials: range | None = None):
        """Each trial's streams in trial order, as a function of the label.

        ``trials`` defaults to all of the point's trials. ``stream(*label)``
        builds the generator of ``RngSpec(seed).child(sweep_index,
        trial_index, *label)`` when a trial draws from it. The trials' seed
        states are hashed ``STACK_BYTES`` of them at a time, at 4 uint64
        words per stream.
        """
        spec = RngSpec(self.cfg.seed, (sweep_index,))
        trials = range(self.cfg.trials) if trials is None else trials
        column = {label: p for p, label in enumerate(self.labels)}
        chunk = max(1, STACK_BYTES // (32 * len(self.labels)))
        for first in range(trials.start, trials.stop, chunk):
            for states in child_states(spec, range(first, min(first + chunk, trials.stop)),
                                       self.labels):
                yield lambda *label, states=states: state_generator(states[column[label]])

    def _steered(self, angles) -> tuple:
        sources = SourceSet(angles, self.powers)
        return sources, steering_matrix(self.array, sources)

    def _draw(self, stream) -> tuple:
        """(stream, steering, sources, compressed pencil input) of one trial.

        The trial's sources are the point's own, or drawn for it; its
        segments are drawn into one (N, M, K) block, which ``pencil_input``
        reduces.
        """
        sources, steer = self.fixed or self._steered(_draw_angles(
            stream("theta"), self.pencil.num_sources, self.cfg.edge_offset_deg))
        block = np.empty((self.segments, self.cfg.m, self.k), dtype=complex)
        noise = None if self.noiseless else [stream(*label) for label in self.noise]
        # PMPM repeats one signal block over the codebook
        _receive(block, steer, sources, stream("signal"), noise,
                 periodic=self.codebook is not None and not self.two_stage)
        x = pencil_input(block, self.codebook, single_phase=self.two_stage)
        return stream, steer, sources, compress(x)

    def _resolve(self, solved: list) -> list:
        """SPC stage 2 of each (trial, stage-1 angles) of a stack, in one resolve.

        Each trial's M-by-K2 block is drawn in trial order; ``stack_size``
        counted these blocks with the stack.
        """
        blocks = np.empty((len(solved), 1, self.cfg.m, self.k2), dtype=complex)
        for block, ((stream, steer, sources, _), _) in zip(blocks, solved):
            noise = None if self.noiseless else [stream("noise2")]
            _receive(block, steer, sources, stream("signal2"), noise)
        angles = spc_resolve(np.stack([base for _, base in solved]), blocks[:, 0],
                             self.pencil, self.array, self.codebook)
        return list(zip([trial for trial, _ in solved], angles))

    def _solve(self, stack: np.ndarray) -> list:
        """Each pencil input's angles in one batch, or None where its solve raises."""
        try:
            return list(pencil_angles(stack, self.pencil, self.array.spacing_ratio,
                                      dilation=self.dilation))
        except ESTIMATOR_FAILURES:
            if len(stack) == 1:
                return [None]
        # one pencil's failure fails the batch: solve each alone
        return [self._solve(x[None])[0] for x in stack]

    def root_crlb(self) -> float | None:
        """Root bound at the per-segment budget; None where none applies."""
        if self.fixed is None or self.noiseless or self.k < 1:
            return None
        sources = self.fixed[0]
        try:
            if self.cfg.scenario in TWO_STAGE:
                bound = crlb_spc(self.array, sources, self.k, self.codebook)
            else:
                bound = crlb_fd(self.array, sources, self.k)
            return pooled_root_deg(bound)
        except ESTIMATOR_FAILURES:
            return None


def worker_count() -> int:
    """One, as no thread pool runs trials; the benchmark reads it.

    ``run_experiment`` forks processes instead, ``_process_count()`` of them
    with itself, and this count leaves them out.
    """
    return 1


def _process_count() -> int:
    """Processes to share each sweep point's trials: the CPUs this one may use.

    One where the platform cannot fork or report its CPU affinity.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for name in sorted(os.listdir(libs)) if os.path.isdir(libs) else ():
        if "openblas" not in name:
            continue
        try:
            lib = ctypes.CDLL(os.path.join(libs, name))
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _mallopt():
    """The C library's ``mallopt``, or None where it cannot be loaded or has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _keep_heap() -> None:
    """Keep freed trial buffers in the heap: mmap past 4 ``STACK_BYTES``, trim past 8.

    glibc's own rule mmaps blocks past the largest one freed so far, about one
    full-aperture H, and trims the heap past twice that, below a trial's peak,
    so each trial faulted its pages in again. Any ``mallopt`` call stops that
    rule, so both are set; glibc has no getter, so they stay set. Without
    ``mallopt`` (macOS; musl's is a stub) nothing changes.
    """
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(-3, 4 * STACK_BYTES)  # M_MMAP_THRESHOLD in <malloc.h>
        mallopt(-1, 8 * STACK_BYTES)  # M_TRIM_THRESHOLD


def run_experiment(cfg: ExperimentConfig, measure_time: bool = False) -> list:
    """Execute the experiment and return one record per sweep point.

    Trials whose estimator raises are counted as failures and excluded from
    the RMSE; a failure share above 20% replaces the RMSE with -1. With
    ``measure_time`` False (the default) wall_ms is reported as 0 so that
    repeated runs emit byte-identical CSV.

    OpenBLAS runs one thread until the call returns, where numpy bundles
    one. Each point's trials are split into ``_process_count()`` contiguous
    shares, at most one per trial, and one for a bound scenario: this
    process takes the points ``cfg.validate()`` keeps and then forks; it runs
    the first share and a forked process each other. Their warnings are
    emitted here, in trial order, and an exception one of them raises is
    raised here. Before the fork, ``_keep_heap`` sets glibc's heap thresholds,
    which stay set, so no process faults its freed trial buffers in again.
    """
    points = cfg.validate()
    processes = 1 if cfg.scenario in CRLB_SCENARIOS else min(_process_count(), cfg.trials)
    shares = [range(cfg.trials * p // processes, cfg.trials * (p + 1) // processes)
              for p in range(processes)]
    blas = _blas_threads()
    threads = blas and blas[0]()
    if blas:
        blas[1](1)
    _keep_heap()
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork_share(points, share, children))
        records = []
        for sweep_index, (value, point) in enumerate(zip(cfg.grid, points)):
            start = time.perf_counter()
            rmse_value, trials, failures = None, 0, 0
            if cfg.scenario not in CRLB_SCENARIOS:
                sums = point.errors(sweep_index, shares[0])
                for child in children:
                    sums += _child_errors(*child)
                trials, failures = cfg.trials, cfg.trials - len(sums)
                rmse_value = _pooled_rmse(sums, point.pencil.num_sources, cfg.trials)
            records.append(ResultRecord(
                sweep_value=float(value), scenario=cfg.scenario,
                rmse_deg=rmse_value, root_crlb_deg=point.root_crlb(),
                trials=trials, failures=failures,
                wall_ms=_elapsed_ms(start, measure_time)))
        return records
    finally:
        # a child whose last record was read has nothing left to do
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, 9)  # SIGKILL, 9 wherever os.fork exists
            os.waitpid(pid, 0)
        if blas:
            blas[1](threads)


def _pooled_rmse(sums: list, sources: int, trials: int) -> float:
    """The pooled RMSE of ``sources`` errors per solved trial; -1 past the failure limit."""
    if trials - len(sums) > FAILURE_SHARE_LIMIT * trials or not sums:
        return SENTINEL_RMSE
    # trial order keeps the sum exact at any process count; a loop, since
    # sum() compensates float sums from Python 3.12 on
    total_sq = 0.0
    for value in sums:
        total_sq += value
    return math.sqrt(total_sq / (sources * len(sums)))


def _fork_share(points: list, trials: range, siblings: list) -> tuple:
    """(pid, read end of its pipe) of a forked process that runs ``trials``.

    The process takes the caller's points in order and writes one pickled
    record per point: its ``_SweepPoint.errors`` and the warnings they
    raised, or the exception it hit, after which it stops. It leaves through
    ``os._exit``, so it flushes no stdio buffer and runs no exit handler
    that it inherited.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, open(read, "rb")
    try:
        os.close(read)
        for _, pipe in siblings:
            pipe.close()
        with open(write, "wb") as pipe:
            try:
                for sweep_index, point in enumerate(points):
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        sums = point.errors(sweep_index, trials)
                    pickle.dump((sums, [(w.message, w.category, w.filename, w.lineno)
                                        for w in caught]), pipe)
                    pipe.flush()
            except BaseException as exc:
                pickle.dump(exc, pipe)
    finally:
        os._exit(0)


def _child_errors(pid: int, pipe) -> list:
    """The next point's ``errors`` from a forked process, its warnings emitted here.

    Each warning meets this process's filters and the registry of the
    module at its source line, as if it had been raised here.
    """
    try:
        record = pickle.load(pipe)
    except EOFError:
        raise ChildProcessError(f"trial process {pid} ended without a record") from None
    if isinstance(record, BaseException):
        raise record
    sums, caught = record
    for message, category, filename, lineno in caught:
        module = next((m for m in list(sys.modules.values())
                       if getattr(m, "__file__", None) == filename), None)
        warnings.warn_explicit(
            message, category, filename, lineno, getattr(module, "__name__", None),
            None if module is None else vars(module).setdefault("__warningregistry__", {}))
    return sums


def _elapsed_ms(start: float, measure_time: bool) -> int:
    return int(round((time.perf_counter() - start) * 1000.0)) if measure_time else 0


def _fixed9(value: float | None) -> str:
    """Fixed-point decimal with at least nine significant digits."""
    if value is None:
        return ""
    if not math.isfinite(value):
        return str(value)
    if value == 0.0:
        return "0.00000000"
    digits = 9 - 1 - math.floor(math.log10(abs(value)))
    return f"{value:.{max(digits, 0)}f}"


CSV_HEADER = "sweep,scenario,rmse_deg,root_crlb_deg,trials,failures,wall_ms"


def csv_text(records) -> str:
    """The CSV header and one line per record, each ending in LF."""
    lines = [CSV_HEADER]
    for rec in records:
        lines.append(",".join([
            _fixed9(rec.sweep_value),
            rec.scenario,
            _fixed9(rec.rmse_deg),
            _fixed9(rec.root_crlb_deg),
            str(rec.trials),
            str(rec.failures),
            str(rec.wall_ms),
        ]))
    return "\n".join(lines) + "\n"


def emit_csv(records, path) -> None:
    """Write records as UTF-8 CSV with LF line endings and '.' decimals."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(csv_text(records))


PRESET_NAMES = ("example1", "example2", "example3", "example4")


def preset(name: str) -> ExperimentConfig:
    """Desk-scale study configurations (200 trials instead of 2000).

    example1: angle sweep at 20 dB, M=32, L=8, 128 snapshots.
    example2: SNR sweep for a single 30-degree source, M=64, L=8, 256 snapshots.
    example3: two-source separation sweep, M=128, L=16, 64 snapshots.
    example4: snapshot-budget sweep at 10 dB with random per-trial angles.
    """
    if name == "example1":
        return ExperimentConfig(
            scenario="pmpm_fc", m=32, l=8, snapshots=128, snr_db=(20.0,),
            angles_deg=(0.0,), sweep="theta",
            grid=(-75.0, -60.0, -45.0, -30.0, -15.0, 0.0,
                  15.0, 30.0, 45.0, 60.0, 75.0),
            trials=200, seed=101)
    if name == "example2":
        return ExperimentConfig(
            scenario="spc_mpm", m=64, l=8, snapshots=256, angles_deg=(30.0,),
            snr_db=(10.0,), sweep="snr",
            grid=(0.0, 2.5, 5.0, 7.5, 10.0, 12.5, 15.0),
            trials=200, seed=102)
    if name == "example3":
        return ExperimentConfig(
            scenario="pmpm_fc", m=128, l=16, snapshots=64, angles_deg=(-15.0,),
            snr_db=(10.0,), sweep="separation", grid=(0.3, 0.5, 2.0),
            trials=200, seed=103)
    if name == "example4":
        return ExperimentConfig(
            scenario="pmpm_fc", m=32, l=8, snr_db=(10.0,), random_theta=True,
            sweep="snapshots", grid=(4, 8, 32, 128, 512),
            trials=200, seed=104)
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


# Field name -> annotated type without "| None"; tuples hold floats.
CONFIG_FIELD_TYPES = {f.name: f.type.split(" | ")[0]
                      for f in fields(ExperimentConfig)}


def parse_config_value(key: str, raw: str):
    """Parse one flat ``key = value`` entry into its typed form."""
    raw = raw.strip()
    kind = CONFIG_FIELD_TYPES.get(key)
    try:
        if kind == "tuple":
            return tuple(float(part) for part in raw.split(",") if part.strip())
        if kind in ("int", "float"):
            return int(raw) if kind == "int" else float(raw)
    except ValueError:
        expected = {"tuple": "comma-separated numbers", "int": "an integer"}.get(kind)
        raise ConfigError(f"{key}: expected {expected or 'a number'}, got {raw!r}") from None
    if kind == "bool":
        lowered = raw.lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    if kind == "str":
        return raw
    raise ConfigError(f"unknown configuration key {key!r}")


def load_config_file(path) -> dict:
    """Read a flat ``key = value`` configuration file; '#' starts a comment."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = stripped.split("=", 1)
            key = key.strip()
            values[key] = parse_config_value(key, raw)
    return values


def config_from_mapping(values: dict, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """The validated config, which keeps its points: ``values`` over ``base``, or the defaults.

    Without a base, ``values`` must name the scenario. Powers given without
    an SNR replace the base's SNR. An SNR sweep takes its SNRs from the grid
    alone, so ``values`` may not give it ``snr_db``.
    """
    known = set(ExperimentConfig.__dataclass_fields__)
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys {sorted(unknown)}")
    if base is None:
        if "scenario" not in values:
            raise ConfigError("scenario: required")
        base = ExperimentConfig(scenario=values["scenario"])
    if "powers" in values and "snr_db" not in values:
        base = replace(base, snr_db=None)
    cfg = replace(base, **values)
    if values.get("snr_db") is not None and cfg.sweep == "snr":
        raise ConfigError("snr_db: an SNR sweep sets each point's SNR from its grid value")
    cfg.validate()
    return cfg
