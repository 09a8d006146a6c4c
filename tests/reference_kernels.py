"""Frozen copies of seed kernels, kept as oracles for the code that replaced them.

``hankel``, ``augment``, ``svd_denoise``, ``split_pencil`` and
``pencil_eigenvalues`` (with the types they pass along) are the package's
original implementation, copied verbatim: one scipy Hankel matrix per
snapshot, a full SVD of the augmented matrix, the rank-R reconstruction, and
a second SVD for the pseudo-inverse. ``oracle_angles`` chains them as the
estimators once did, ending in the seed ``eigen_to_angles``, copied verbatim.

``ambiguity_set`` (with ``AmbiguitySet``) is the seed grating-lobe candidate
search, copied verbatim: a ceil/floor integer bracket with 1e-9 fudges at
both ends of (-pi, pi] and a drop of the -pi duplicate.

``build_pc_codebook`` and ``build_disambiguation`` (with ``CombinerSet``,
``DisambiguationPlan`` and ``_steered_block``) are the seed combiner builders,
copied verbatim: dense matrices assembled with scipy's ``block_diag``.
``build_fc_codebook`` is the seed dense FC builder, copied verbatim.

``apply_combiner``, ``pmpm_aggregate``, ``resolve_ambiguity``, ``CrlbInputs``
and ``crlb_spc`` (with ``_perp_projector`` and ``_invert_fim``) are the dense
kernels that the block-structured combiners replaced, copied verbatim from
the package as it was before that change: W^H X as a dense matmul, one
re-projection per combiner, the per-slot ``divmod`` scan, and the bound
through the M-by-M source covariance.

``crlb_fd`` is the full-array bound as it stood before both bounds came to
share one kernel, copied verbatim: A Phi A^H + I and its own projector.

``SteeringMatrix``, ``steering_matrix``, ``HadConfig``, ``CrlbMatrix`` and
``steering_derivative`` are the seed receiver model, copied verbatim, so
that these kernels import nothing that the package has since reshaped: the
package's steering matrix is a plain array, its ``HadConfig`` has no
``alpha``, and its ``CrlbMatrix`` has no ``root_deg``. The builders take
this module's ``HadConfig``.

``block_apply_combiner``, ``BlockCrlbInputs``, ``block_combined_bound`` (with
``_block_perp_projector`` and ``_block_invert_fim``) are the block-structured
bound kernel that ``crlb_fd`` and ``crlb_spc`` once shared, copied verbatim
under new names from the package as it stood while the bounds took a
``CrlbInputs`` bundle and returned a ``CrlbMatrix``: W^H A through
(blocks, width, m_rf) columns, one stacked projector and one summed core.
The only edit is ``.entries`` after this module's seed ``steering_matrix``,
which computes the same array as the package's.

``subspace_hankel``, ``subspace_augment``, ``subspace_svd_denoise``,
``subspace_split_pencil``, ``subspace_pencil_eigenvalues`` and
``subspace_eigen_to_angles`` are the single-block subspace pencil that the
stacked, snapshot-compressing solve replaced, copied verbatim under new names
from the package as it stood then: a strided Hankel view of all K snapshots,
U_R from a thin QR of H^H and the SVD of its triangular factor, and one SVD
of the reduced left matrix. ``subspace_angles`` chains them as the
estimators' ``_pencil_pipeline`` did, with its xi range check. The only edit
is ``subspace_augment`` calling ``subspace_hankel``.

``crumb_encode_label``, ``CrumbRngSpec``, ``per_segment_generate_signals``,
``per_trial_ambiguity_set``, ``per_trial_build_disambiguation``,
``per_trial_resolve_ambiguity`` and ``per_trial_spc_resolve`` are the trial
synthesis and SPC stage 2 that word-array seeding, the one-draw signal block
and the stacked stage 2 replaced, copied verbatim under new names from the
package as it stood then: a SeedSequence built from the list [seed,
*labels], one real and one imaginary draw per signal segment, and one
stage-2 resolve per trial. The only edits are ``CrumbRngSpec.child``
returning a ``CrumbRngSpec``, the per-trial functions calling each other,
and ``package_apply_combiner`` naming the package's ``apply_combiner``,
since this module's own is the dense one.

``per_segment_generate_noise``, ``per_segment_receive_fd`` and
``per_segment_receive`` are the per-segment receive path that one block per
trial replaced, copied verbatim under new names from the package as it
stood then: ``generate_noise``, ``receive_fd`` and the method
``_SweepPoint._receive``, which builds one noise block and one M-by-K sum
per segment. ``per_segment_receive`` takes its sweep point as ``self``, an
object with ``noiseless`` and ``cfg.m``. The only edits are the new names
and ``per_segment_receive`` calling ``per_segment_generate_signals`` and
the two other functions here.

``conjugate_copy_svd_denoise`` is the stacked ``svd_denoise`` as it stood
before R came from the QR of the transpose view of H, conjugated. It is
copied verbatim under a new name: it takes the thin QR of H^H, a full-size
conjugate copy of H. The only edit is the name.

Do not edit them to follow the package. ``dense`` is the one helper written
for the tests: it expands the package's block-structured combiner columns
into the dense matrices these kernels take.
"""

from __future__ import annotations

import math
import warnings
import zlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
import scipy.linalg
from scipy.linalg import block_diag

from pencil_doa.arrays import ArrayConfig, SnapshotBlock, SourceSet, phase_from_angle
from pencil_doa.combiners import (
    FC,
    PC,
    apply_combiner as package_apply_combiner,
    dft_column,
    dft_phase,
    subarray_columns,
)
from pencil_doa.estimators import disambiguation_combiners
from pencil_doa.pencil import PencilConfig
from pencil_doa.errors import (
    AmbiguousGeometryError,
    ConfigError,
    EmptyInput,
    LowSnrWarning,
    NumericalError,
    OutOfRangeWarning,
    PencilParamError,
    RankError,
    ShapeError,
    SingularFim,
)

# Relative singular-value cutoff for pseudo-inverses and rank decisions.
PINV_RCOND = 1e-10


@dataclass(frozen=True)
class SteeringMatrix:
    """Array response columns (one per source) and the phases that built them."""

    entries: np.ndarray  # (M, R) complex, row m is exp(1j*m*mu_r)
    phases: np.ndarray  # (R,) mu_r in radians


def steering_matrix(cfg: ArrayConfig, sources: SourceSet) -> SteeringMatrix:
    """Assemble the M-by-R steering matrix for the given sources.

    Column r holds ``exp(1j*(m-1)*mu_r)`` for antenna index ``m``; every entry
    has unit modulus and the first row is all ones.
    """
    mu = np.asarray(phase_from_angle(np.array(sources.angles_deg), cfg.spacing_ratio))
    # spacing_ratio <= 0.5 keeps |mu| < pi for angles inside (-90, 90)
    assert np.all(np.abs(mu) < np.pi)
    m_idx = np.arange(cfg.num_antennas)
    entries = np.exp(1j * np.outer(m_idx, mu))
    return SteeringMatrix(entries=entries, phases=mu)


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

    @property
    def alpha(self) -> float:
        """Per-entry magnitude: 1/sqrt(L) under FC power splitting, 1 under PC."""
        return 1.0 / math.sqrt(self.rf_chains) if self.architecture == FC else 1.0


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


def eigen_to_angles(eig: EigenResult, spacing_ratio: float,
                    dilation: int = 1) -> np.ndarray:
    """Map pencil eigenvalues to DoA estimates in degrees, sorted ascending.

    Uses the principal phase of each eigenvalue; ``dilation`` is 1 for
    full-aperture pencils and m_rf for the subarray-spaced virtual array.
    Arcsine arguments are clamped to [-1, 1]; clamping beyond 0.05 raises
    an OutOfRangeWarning but the estimate is kept.
    """
    args = np.angle(eig.eigenvalues) / (2.0 * np.pi * spacing_ratio * dilation)
    excess = np.max(np.abs(args)) - 1.0
    if excess > 0.05:
        warnings.warn(
            f"arcsine argument exceeded unity by {excess:.3g}; clamped",
            OutOfRangeWarning, stacklevel=2)
    angles = np.degrees(np.arcsin(np.clip(args, -1.0, 1.0)))
    return np.sort(angles)


def oracle_angles(snapshots, xi: int, num_sources: int, spacing_ratio: float,
                  dilation: int = 1) -> np.ndarray:
    """augment -> denoise -> split -> eigenvalues -> angles, as at the seed."""
    stack = augment(snapshots, xi)
    denoised, _ = svd_denoise(stack, num_sources)
    pair = split_pencil(denoised, xi, stack.num_blocks)
    eig = pencil_eigenvalues(pair, num_sources)
    return eigen_to_angles(eig, spacing_ratio, dilation=dilation)


@dataclass(frozen=True)
class AmbiguitySet:
    """Grating-lobe phase candidates, m_rf per source, grouped by source."""

    per_source: tuple  # tuple of ndarrays, each ascending in (-pi, pi]
    m_rf: int
    spacing_ratio: float

    @property
    def flat(self) -> np.ndarray:
        """Source-major concatenation of all candidates."""
        return np.concatenate(self.per_source)

    @property
    def num_sources(self) -> int:
        return len(self.per_source)


def ambiguity_set(base_angles_deg, m_rf: int,
                  spacing_ratio: float) -> AmbiguitySet:
    """All phases indistinguishable from each base estimate on the dilated array.

    For each source the candidates are mu + 2*pi*i/m_rf over the integer range
    that keeps them inside (-pi, pi]; the half-open boundary excludes -pi, so
    exactly m_rf candidates survive per source.
    """
    per_source = []
    for theta in np.atleast_1d(np.asarray(base_angles_deg, dtype=float)):
        mu = float(phase_from_angle(theta, spacing_ratio))
        i_low = math.ceil(m_rf / 2.0 * (-1.0 - mu / np.pi) - 1e-9)
        i_high = math.floor(m_rf / 2.0 * (1.0 - mu / np.pi) + 1e-9)
        cands = mu + 2.0 * np.pi * np.arange(i_low, i_high + 1) / m_rf
        cands = cands[(cands > -np.pi + 1e-9) & (cands <= np.pi + 1e-9)]
        if cands.size > m_rf:
            cands = cands[-m_rf:]  # drop the -pi duplicate of +pi
        if cands.size != m_rf:
            raise AmbiguousGeometryError(
                f"expected {m_rf} grating-lobe candidates, found {cands.size}")
        per_source.append(np.sort(cands))
    return AmbiguitySet(per_source=tuple(per_source), m_rf=m_rf,
                        spacing_ratio=spacing_ratio)


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


def build_fc_codebook(cfg: HadConfig) -> CombinerSet:
    """Fully-connected codebook: N matrices of L consecutive DFT columns.

    Each matrix is scaled by 1/sqrt(L) for power splitting; the union of all
    columns is the full M-point DFT matrix, so the set resolves the identity.
    """
    if cfg.architecture != FC:
        raise ConfigError("config does not describe a fully-connected receiver")
    m = cfg.num_antennas
    phases = np.array([dft_phase(c, m) for c in range(1, m + 1)])
    dft = np.exp(1j * np.outer(np.arange(m), phases))
    l = cfg.rf_chains
    matrices = tuple(
        dft[:, n * l:(n + 1) * l] / math.sqrt(l) for n in range(cfg.n_combiners)
    )
    return CombinerSet(matrices=matrices, phase_grid=phases,
                       architecture=FC, alpha=cfg.alpha, m_rf=cfg.m_rf)


def apply_combiner(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Analog combining stage: returns W^H X."""
    w = np.asarray(w)
    x = np.asarray(x)
    if w.ndim != 2 or x.ndim != 2 or w.shape[0] != x.shape[0]:
        raise ShapeError(f"combiner {w.shape} incompatible with block {x.shape}")
    return w.conj().T @ x


def pmpm_aggregate(q_blocks, codebook: CombinerSet) -> SnapshotBlock:
    """Sum the digitally re-projected combiner outputs into one M-by-K block.

    The digital combiner matched to analog combiner W is
    ``codebook.projector_scale * W``. With a signal repeated across segments,
    the projector completeness of the codebook makes the noiseless aggregate
    equal the full-array receive block.
    """
    q_blocks = list(q_blocks)
    if len(q_blocks) != len(codebook):
        raise ShapeError(
            f"{len(q_blocks)} combiner outputs for a codebook of {len(codebook)}")
    scale = codebook.projector_scale
    total = None
    for w, q in zip(codebook.matrices, q_blocks):
        q = np.asarray(q)
        if q.ndim != 2 or q.shape[0] != w.shape[1]:
            raise ShapeError(f"combiner output {q.shape} has wrong channel count")
        term = (scale * w) @ q
        total = term if total is None else total + term
    return total


def resolve_ambiguity(plan: DisambiguationPlan, segments,
                      amb: AmbiguitySet) -> np.ndarray:
    """Pick each source's candidate by the highest per-chain output SNR.

    The metric for candidate slot (g, ell) is the mean output power of RF
    chain ell under combiner g, normalized by the beamforming gain, minus the
    unit noise floor. Ties break toward the candidate of smaller phase
    magnitude. Returns one angle per source, in source order; the arcsine
    argument is clamped to [-1, 1], since a candidate may sit up to 1e-9 past
    pi and, below half-wavelength spacing, outside the visible region.
    """
    segments = list(segments)
    if len(segments) != plan.num_combiners:
        raise ShapeError(
            f"{len(segments)} segments for {plan.num_combiners} combiners")
    outputs = [apply_combiner(w, np.asarray(x))
               for w, x in zip(plan.combiners, segments)]
    l = plan.combiners[0].shape[1]
    m_rf = amb.m_rf
    angles = np.empty(amb.num_sources)
    for r, cands in enumerate(amb.per_source):
        metrics = np.empty(m_rf)
        for i in range(m_rf):
            j = r * m_rf + i  # 0-based flat slot
            g, ell = divmod(j, l)
            row = outputs[g][ell]
            metrics[i] = np.mean(np.abs(row) ** 2) / m_rf - 1.0
        if np.all(metrics <= 0.0):
            warnings.warn(f"all candidates for source {r} at or below the "
                          "noise floor", LowSnrWarning, stacklevel=2)
        best = metrics.max()
        ties = np.nonzero(metrics == best)[0]
        pick = ties[np.argmin(np.abs(cands[ties]))]
        mu_hat = cands[pick]
        sine = mu_hat / (2.0 * np.pi * amb.spacing_ratio)
        angles[r] = math.degrees(math.asin(min(1.0, max(-1.0, sine))))
    return angles


@dataclass(frozen=True)
class CrlbInputs:
    """Everything the bound formulas need; combiners present for the SPC case."""

    array: ArrayConfig
    sources: SourceSet
    snapshots: int
    noise_var: float = 1.0
    combiners: CombinerSet | None = None

    def __post_init__(self):
        if self.snapshots < 1:
            raise ConfigError("snapshots must be positive")
        if self.noise_var <= 0.0:
            raise ConfigError("noise variance must be positive")
        if self.combiners is not None:
            m, l = self.array.num_antennas, None
            for w in self.combiners.matrices:
                l = w.shape[1]
                gram = w.conj().T @ w
                if not np.allclose(gram, (m / l) * np.eye(l), atol=1e-8):
                    raise ConfigError(
                        "combiner set must satisfy W^H W = (M/L) I")


def _perp_projector(basis: np.ndarray) -> np.ndarray:
    # SVD-based pseudo-inverse keeps this well defined for deficient bases
    n = basis.shape[0]
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

    ``inputs.snapshots`` counts snapshots per combiner. Combiners that null a
    source contribute nothing; their projector is formed through a
    pseudo-inverse so the sum stays well defined.
    """
    if inputs.combiners is None:
        raise ConfigError("combined-receiver bound requires a combiner set")
    a = steering_matrix(inputs.array, inputs.sources).entries
    f = steering_derivative(inputs.array, inputs.sources)
    phi = inputs.sources.power_matrix
    m = inputs.array.num_antennas
    l = inputs.combiners.matrices[0].shape[1]
    r = inputs.sources.count
    core = np.zeros((r, r))
    cov = a @ phi @ a.conj().T
    for w in inputs.combiners.matrices:
        e = w.conj().T @ a
        upsilon = w.conj().T @ cov @ w + (m / l) * inputs.noise_var * np.eye(l)
        p_perp = _perp_projector(e)
        left = f.conj().T @ w @ p_perp @ w.conj().T @ f
        right = phi @ e.conj().T @ np.linalg.solve(upsilon, e) @ phi
        core += np.real(left * right.T)
    prefactor = inputs.noise_var * m / (2.0 * inputs.snapshots * l)
    return _invert_fim(core, prefactor)


def block_apply_combiner(w, x) -> np.ndarray:
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


@dataclass(frozen=True)
class BlockCrlbInputs:
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


def _block_perp_projector(basis: np.ndarray) -> np.ndarray:
    # SVD-based pseudo-inverse keeps this well defined for deficient bases;
    # a leading axis holds a stack of bases
    n = basis.shape[-2]
    return np.eye(n) - basis @ np.linalg.pinv(basis)


def _block_invert_fim(core: np.ndarray, prefactor: float) -> CrlbMatrix:
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


def block_combined_bound(inputs: BlockCrlbInputs, columns: np.ndarray) -> CrlbMatrix:
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
    a = steering_matrix(inputs.array, inputs.sources).entries
    f = steering_derivative(inputs.array, inputs.sources)
    phi = inputs.sources.power_matrix
    e = block_apply_combiner(columns, a)  # (N, L, R)
    g = block_apply_combiner(columns, f)
    e_h = e.conj().swapaxes(-1, -2)
    upsilon = e @ phi @ e_h + (m / l) * np.eye(l)
    left = g.conj().swapaxes(-1, -2) @ _block_perp_projector(e) @ g
    right = phi @ e_h @ np.linalg.solve(upsilon, e) @ phi
    core = np.real(left * right.swapaxes(-1, -2)).sum(axis=0)  # in combiner order
    return _block_invert_fim(core, m / (2.0 * inputs.snapshots * l))



def subspace_hankel(x: np.ndarray, xi: int) -> np.ndarray:
    """Hankel view along axis 0: entry (i, ..., j) = x[i + j, ...] (0-based).

    (C-xi)-by-(xi+1) for a length-C snapshot, (C-xi, K, xi+1) for a (C, K) block.
    """
    x = np.atleast_1d(x)
    if not 1 <= xi <= x.shape[0] - 1:
        raise PencilParamError(f"xi={xi} invalid for a length-{x.shape[0]} snapshot")
    return sliding_window_view(x, xi + 1, axis=0)


def subspace_augment(snapshots, xi: int) -> np.ndarray:
    """The (C-xi, K(xi+1)) matrix H: one Hankel block per snapshot, in order.

    ``snapshots`` is a (K, C) array or a sequence of K length-C snapshots.
    """
    try:
        x = np.asarray(snapshots).T
    except ValueError as exc:
        raise ShapeError("snapshots must share a common length") from exc
    if x.size == 0:
        raise EmptyInput("no snapshots to augment")
    if x.ndim != 2:
        raise ShapeError("snapshots must form a (K, C) array")
    blocks = subspace_hankel(x, xi)
    return blocks.reshape(blocks.shape[0], -1)


def subspace_svd_denoise(aug: np.ndarray, num_sources: int):
    """Signal subspace of the augmented matrix H as (basis, coords, gap).

    basis is U_R, the R leading left singular vectors of H; coords is U_R^H H,
    so basis @ coords is the best rank-R approximation of H; gap is
    sigma_R / sigma_{R+1} (inf when there is no discarded value).
    """
    r = num_sources
    if r > min(aug.shape):
        raise PencilParamError(
            f"rank {r} exceeds matrix dimensions {aug.shape}")
    try:
        _, s, vh = np.linalg.svd(np.linalg.qr(aug.conj().T, mode="r"),
                                 full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed to converge") from exc
    gap = float(s[r - 1] / s[r]) if s.size > r and s[r] > 0.0 else float("inf")
    return vh[:r].conj().T, vh[:r] @ aug, gap


def subspace_split_pencil(h_aug: np.ndarray, xi: int) -> tuple[np.ndarray, np.ndarray]:
    """(left, right): each width-(xi+1) block less its last or first column."""
    h_aug = np.asarray(h_aug)
    if h_aug.ndim != 2 or h_aug.shape[1] % (xi + 1):
        raise ShapeError(
            f"{h_aug.shape} is not a row of blocks of width {xi + 1}")
    local = np.arange(h_aug.shape[1]) % (xi + 1)
    return h_aug[:, local != xi], h_aug[:, local != 0]


def subspace_pencil_eigenvalues(left: np.ndarray, right: np.ndarray,
                                num_sources: int) -> np.ndarray:
    """R largest-modulus eigenvalues of pinv(left) @ right.

    The pseudo-inverse is taken through the SVD of the left matrix with a
    relative cutoff; the nonzero spectrum is computed on the reduced operator
    diag(1/s) U^H right V, which shares it with the full product. In the
    noiseless case the eigenvalues are unit-modulus complex exponentials of
    the source phases.
    """
    r = num_sources
    try:
        u, s, vh = np.linalg.svd(left, full_matrices=False)
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
    reduced = (uk.conj().T @ right @ vk) / sk[:, None]
    values = np.linalg.eigvals(reduced)
    order = np.argsort(-np.abs(values))[:r]
    return values[order]


def subspace_eigen_to_angles(eigenvalues: np.ndarray, spacing_ratio: float,
                             dilation: int = 1) -> np.ndarray:
    """Map pencil eigenvalues to DoA estimates in degrees, sorted ascending.

    Uses the principal phase of each eigenvalue; ``dilation`` is 1 for
    full-aperture pencils and m_rf for the subarray-spaced virtual array.
    Arcsine arguments are clamped to [-1, 1]; clamping beyond 0.05 raises
    an OutOfRangeWarning but the estimate is kept.
    """
    args = np.angle(eigenvalues) / (2.0 * np.pi * spacing_ratio * dilation)
    excess = np.max(np.abs(args)) - 1.0
    if excess > 0.05:
        warnings.warn(
            f"arcsine argument exceeded unity by {excess:.3g}; clamped",
            OutOfRangeWarning, stacklevel=2)
    angles = np.degrees(np.arcsin(np.clip(args, -1.0, 1.0)))
    return np.sort(angles)


def subspace_angles(snapshots: np.ndarray, xi: int, num_sources: int,
                    spacing_ratio: float, dilation: int = 1) -> np.ndarray:
    """augment -> subspace -> split -> eigenvalues -> angles, sorted ascending.

    ``snapshots`` is (K, C), and xi must lie in [R, C-R].
    """
    r, c = num_sources, snapshots.shape[1]
    if not r <= xi <= c - r:
        raise PencilParamError(f"xi={xi} outside [R, C-R] = [{r}, {c - r}] for C={c}")
    _, coords, _ = subspace_svd_denoise(subspace_augment(snapshots, xi), r)
    left, right = subspace_split_pencil(coords, xi)
    eigenvalues = subspace_pencil_eigenvalues(left, right, r)
    return subspace_eigen_to_angles(eigenvalues, spacing_ratio, dilation=dilation)

def dense(columns) -> np.ndarray:
    """Dense matrices W[b*m_rf + m, b*width + w] = columns[..., b, w, m].

    ``columns`` is (..., blocks, width, m_rf); the result is (..., M, L) with
    zeros off the diagonal blocks.
    """
    columns = np.asarray(columns)
    *lead, blocks, width, m_rf = columns.shape
    out = np.zeros((*lead, blocks, m_rf, blocks, width), dtype=columns.dtype)
    for b in range(blocks):
        out[..., b, :, b, :] = np.swapaxes(columns[..., b, :, :], -1, -2)
    return out.reshape(*lead, blocks * m_rf, blocks * width)


def crumb_encode_label(label) -> int:
    if isinstance(label, (int, np.integer)):
        return int(label) & 0xFFFFFFFF
    return zlib.crc32(str(label).encode("utf-8"))


@dataclass(frozen=True)
class CrumbRngSpec:
    """Seed plus stream labels; equal specs reproduce draws bit for bit.

    Independent streams are obtained by extending the label tuple, e.g.
    ``spec.child("noise", segment_index)``.
    """

    seed: int
    labels: tuple = ()

    def child(self, *extra) -> "CrumbRngSpec":
        return CrumbRngSpec(self.seed, self.labels + tuple(extra))

    def generator(self) -> np.random.Generator:
        crumbs = [self.seed & 0xFFFFFFFFFFFFFFFF]
        crumbs.extend(crumb_encode_label(label) for label in self.labels)
        return np.random.default_rng(np.random.SeedSequence(crumbs))


def per_segment_generate_signals(sources: SourceSet, snapshots: int, segments: int,
                                 periodic: bool, rng) -> list:
    """Draw per-segment R-by-K source signal blocks.

    Entries are zero-mean circularly symmetric complex Gaussians with
    per-row variance equal to the source power. With ``periodic=True`` a
    single draw is replicated across all segments.
    """
    if snapshots < 1 or segments < 1:
        raise ConfigError("snapshots and segments must be positive")
    gen = rng.generator()
    scale = np.sqrt(np.asarray(sources.powers, dtype=float) / 2.0)[:, None]

    def draw():
        shape = (sources.count, snapshots)
        return scale * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))

    if periodic:
        block = draw()
        return [block.copy() for _ in range(segments)]
    return [draw() for _ in range(segments)]


def per_trial_ambiguity_set(base_angles_deg, m_rf: int, spacing_ratio: float) -> np.ndarray:
    """All phases indistinguishable from each base estimate on the dilated array.

    Row r holds source r's m_rf candidates mu + 2*pi*i/m_rf, ascending, one
    per residue class of i mod m_rf, wrapped into (-pi, pi]: the class takes
    its integer in [1 - m_rf, 0] if that candidate lies above -pi, else the
    one in [1, m_rf]. No candidate is at or below -pi; one exceeds pi only
    when its two integers round to either side of +-pi, and then by rounding.
    """
    mu = phase_from_angle(np.atleast_1d(np.asarray(base_angles_deg, dtype=float)),
                          spacing_ratio)[:, None]
    i = np.arange(1, m_rf + 1)
    i = i - m_rf * (mu + 2.0 * np.pi * (i - m_rf) / m_rf > -np.pi)
    return np.sort(mu + 2.0 * np.pi * i / m_rf, axis=1)


def per_trial_build_disambiguation(candidates: np.ndarray, rf_chains: int) -> np.ndarray:
    """(G, L, 1, m_rf) columns: each block steered to one of the (R, m_rf) candidates.

    Slot j (1-based) of the source-major candidate list lives in combiner
    g = ceil(j/L) at block ell = j - (g-1)L. When the candidate count is not
    a multiple of L, the final combiner repeats the last candidate to fill.
    """
    flat = np.ravel(candidates)
    slots = np.concatenate([flat, np.full(-flat.size % rf_chains, flat[-1])])
    steered = np.exp(1j * np.arange(np.shape(candidates)[-1]) * slots[:, None])
    return subarray_columns(steered, rf_chains)


def per_trial_resolve_ambiguity(columns: np.ndarray, segments, candidates: np.ndarray,
                                spacing_ratio: float) -> np.ndarray:
    """Pick each source's candidate by the highest per-chain output SNR.

    ``columns`` comes from ``build_disambiguation(candidates, ...)`` and
    ``segments`` stacks one M-by-K2 block per combiner, (G, M, K2). The
    metric for candidate slot (g, ell) is the mean output power of RF chain
    ell under combiner g, normalized by the beamforming gain, minus the unit
    noise floor. Candidates tie when their metrics are equal as floats, with
    no tolerance; a tie goes to the candidate of smallest |phase|, and among
    those to the first in its row, the lowest phase for ``ambiguity_set``
    rows. Returns one angle per source, in source order; the arcsine argument
    is clamped to [-1, 1], since a candidate may exceed pi by rounding and,
    below half-wavelength spacing, lie outside the visible region.
    """
    segments = np.asarray(segments)
    if len(segments) != len(columns):
        raise ShapeError(f"{len(segments)} segments for {len(columns)} combiners")
    m_rf = candidates.shape[1]
    out = package_apply_combiner(columns, segments)
    slots = (np.mean(np.abs(out) ** 2, axis=-1) / m_rf - 1.0).ravel()
    angles = np.empty(len(candidates))
    for r, cands in enumerate(candidates):
        metrics = slots[r * m_rf:(r + 1) * m_rf]
        if np.all(metrics <= 0.0):
            warnings.warn(f"all candidates for source {r} at or below the "
                          "noise floor", LowSnrWarning, stacklevel=2)
        ties = np.nonzero(metrics == metrics.max())[0]
        mu_hat = cands[ties[np.argmin(np.abs(cands[ties]))]]
        sine = mu_hat / (2.0 * np.pi * spacing_ratio)
        angles[r] = math.degrees(math.asin(min(1.0, max(-1.0, sine))))
    return angles


def per_trial_spc_resolve(base_angles, disambiguation_block: SnapshotBlock,
                          cfg: PencilConfig, array: ArrayConfig,
                          codebook: np.ndarray) -> np.ndarray:
    """Stage 2: the true DoA among each stage-1 angle's grating-lobe candidates.

    Scans candidate-steered combiners over the raw M-by-K2_total block and
    returns the angles sorted ascending.
    """
    _, rf_chains, _, m_rf = codebook.shape
    candidates = per_trial_ambiguity_set(base_angles, m_rf, array.spacing_ratio)
    block = np.asarray(disambiguation_block)
    g_total = disambiguation_combiners(codebook, cfg.num_sources)
    if block.ndim != 2 or block.shape[0] != rf_chains * m_rf:
        raise ShapeError("disambiguation block must be M by K2")
    if block.shape[1] < g_total:
        raise ConfigError(
            f"disambiguation budget {block.shape[1]} below combiner count {g_total}")
    k2 = block.shape[1] // g_total
    chunks = block[:, :g_total * k2].reshape(rf_chains * m_rf, g_total, k2)
    columns = per_trial_build_disambiguation(candidates, rf_chains)
    return np.sort(per_trial_resolve_ambiguity(columns, chunks.swapaxes(0, 1),
                                               candidates, array.spacing_ratio))



def per_segment_generate_noise(channels: int, snapshots: int, rng) -> SnapshotBlock:
    """Unit-variance circularly symmetric complex Gaussian noise block."""
    if channels < 1 or snapshots < 1:
        raise ConfigError("channels and snapshots must be positive")
    gen = rng.generator()
    shape = (channels, snapshots)
    return np.sqrt(0.5) * (gen.standard_normal(shape) + 1j * gen.standard_normal(shape))


def per_segment_receive_fd(a: np.ndarray, signals: np.ndarray,
                           noise: SnapshotBlock) -> SnapshotBlock:
    """Fully-digital receive model: steering ``a``, (M, R), times signals plus noise."""
    signals = np.asarray(signals)
    noise = np.asarray(noise)
    if signals.ndim != 2 or a.shape[1] != signals.shape[0]:
        raise ShapeError(f"signal block {signals.shape} does not match {a.shape[1]} sources")
    if noise.shape != (a.shape[0], signals.shape[1]):
        raise ShapeError(f"noise block {noise.shape} does not match output shape")
    return a @ signals + noise


def per_segment_receive(self, steer, sources: SourceSet, k: int, signal_rng,
                        noise_rngs: list, periodic: bool = False) -> list:
    """One M-by-k block per noise stream; zero noise at a noiseless point."""
    signals = per_segment_generate_signals(sources, k, len(noise_rngs), periodic,
                                           signal_rng)
    blocks = []
    for sig, noise_rng in zip(signals, noise_rngs):
        if self.noiseless:
            noise = np.zeros((self.cfg.m, k), dtype=complex)
        else:
            noise = per_segment_generate_noise(self.cfg.m, k, noise_rng)
        blocks.append(per_segment_receive_fd(steer, sig, noise))
    return blocks


def conjugate_copy_svd_denoise(aug: np.ndarray, num_sources: int):
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
        _, s, vh = np.linalg.svd(
            np.linalg.qr(aug.conj().swapaxes(-1, -2), mode="r"),
            full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD failed to converge") from exc
    gap = np.full(s.shape[:-1], np.inf)
    if s.shape[-1] > r:
        np.divide(s[..., r - 1], s[..., r], out=gap, where=s[..., r] > 0.0)
    vh = vh[..., :r, :]
    return vh.conj().swapaxes(-1, -2), vh @ aug, gap[()]
