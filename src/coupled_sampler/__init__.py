"""Coupled diffusion sampling on analytic mixture models."""

__version__ = "0.1.0"

from .coupling import (
    CoupledRunResult,
    CouplingConfig,
    coupled_sample,
    coupled_sweep,
    coupling_energy,
    coupling_gradient,
    mutual_tilt_fixed_point,
    mv_edit_demo,
    score_average_sample,
)
from .metrics import (
    MetricReport,
    consistency_residual,
    coupling_distance,
    energy_permutation_test,
    gmm_nll,
    sweep_summary,
)
from .models import (
    BlockProductModel,
    Gmm,
    GmmScoreModel,
    GmmVelocityModel,
    MvScene,
    ScoreModel,
    gmm_flow_log_density,
    gmm_noised_log_density,
    gmm_sample,
    mv_consistent_model,
    score_from_velocity,
)
from .sampler import (
    SampleBatch,
    SamplerConfig,
    Trajectory,
    sample,
    x0_from_epsilon,
)
from .schedule import (
    NoiseSchedule,
    alpha_bar_to_flow_time,
    build_linear,
    shift_schedule,
)
