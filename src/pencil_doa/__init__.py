"""Matrix-pencil DoA estimation for fully-digital and hybrid ULA receivers."""

from .arrays import (
    ArrayConfig,
    RngSpec,
    SnapshotBlock,
    SourceSet,
    generate_noise,
    generate_signals,
    phase_from_angle,
    receive_fd,
    rmse,
    steering_matrix,
)
from .combiners import (
    GainModel,
    HadConfig,
    apply_combiner,
    build_codebook,
    build_fc_codebook,
    build_pc_codebook,
    dft_column,
    dft_phase,
    gain,
    sectors,
)
from .crlb import crlb_fd, crlb_spc, pooled_root_deg, steering_derivative
from .estimators import (
    ambiguity_set,
    build_disambiguation,
    estimate_fd_mpm,
    estimate_pmpm,
    estimate_spc_mpm,
    pmpm_aggregate,
    resolve_ambiguity,
)
from .harness import (
    ExperimentConfig,
    ResultRecord,
    emit_csv,
    preset,
    run_experiment,
)
from .pencil import (
    PencilConfig,
    augment,
    eigen_to_angles,
    hankel,
    pencil_eigenvalues,
    split_pencil,
    svd_denoise,
)
from . import errors

__version__ = "0.1.0"
