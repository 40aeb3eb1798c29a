"""Severity-indexed degradation processes, reverse samplers, and verification.

A desk-scale restoration toolkit: linear degradation operators (blur,
inpainting, blending) indexed by a severity in [0, 1], a stochastic
observation model with a geometric noise schedule, closed-form Gaussian
posterior-mean denoising, an incremental reverse sampler with guidance and
early stopping, exact min-max degradation scheduling, and a verification
harness for the identities the sampler relies on.
"""

from .core import (
    GaussianPrior,
    RandomSource,
    Signal,
    mse,
    prior_nll,
    prior_sample,
    psnr,
    read_signal,
    squared_exponential_prior,
    write_pgm,
    write_signal,
)
from .degrade import (
    BlendingProcess,
    DegradationProcess,
    GaussianBlurProcess,
    GaussianMaskInpaintProcess,
    blur_kernel,
    inpaint_mask,
    lipschitz_t_estimate,
)
from .denoise import (
    AffineDenoiser,
    Denoiser,
    GroundTruthDenoiser,
    OracleDenoiser,
    load_model,
    loss_denoising,
    loss_incremental,
    save_model,
    score_from_denoiser,
    train_affine,
)
from .sampler import (
    SamplerConfig,
    Trajectory,
    TrajectoryStep,
    dirac_sample,
    incremental_estimate,
    write_trajectory_csv,
)
from .schedule import (
    DistanceTable,
    SeveritySchedule,
    build_distance_table,
    greedy_schedule,
    linear_schedule,
    load_distance_table,
    load_schedule,
    max_edge_distance,
    pairwise_distance,
    save_distance_table,
    save_schedule,
    uniform_schedule,
)
from .sdp import NoiseSchedule, conditional_score, marginal_score, sdp_sample
from .verify import (
    ConsistencyVerdict,
    check_pair_consistency,
    eps_dc,
    perception_distortion_sweep,
    robustness_sweep,
    verify_theorem_bounds,
    verify_theorem_dc,
)

__version__ = "0.1.0"
