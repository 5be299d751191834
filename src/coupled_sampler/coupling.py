"""Coupled two-chain sampling.

Two reverse chains advance in lockstep on a shared schedule. After each
chain's own reverse update, a guidance term

    -scale_t * lam * (x0_hat_self - x0_hat_other)

pulls the new state toward the partner chain's clean estimate, with the
partner estimate treated as a constant. The default scale_t is the exact
Gaussian posterior-tilt factor (see guidance_scale). Under it each chain
samples its own density tilted by the coupling energy, but only for
unit-covariance Gaussian targets; mixture pairs end measurably off the
tilted pair density. Two cruder schedule-level factors are kept for
ablation. With lam = 0 the guidance branch is skipped entirely and a
coupled run is bit-for-bit two independent runs under the derived per-chain
seeds.

A score-averaging single-chain baseline and a multi-view editing demo
(independent per-view edit chain coupled to a shared-latent consistent
chain) are provided for comparison studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .metrics import consistency_residual
from .models import MvScene, ScoreModel, mv_chain_models
from .rng import CHAIN_A, CHAIN_B, NoiseStream, derive_seed
from .sampler import (
    SamplerConfig,
    SampleBatch,
    _run_chains,
    config_fingerprint,
    sample,
    step_coefficients,
)
from .schedule import NoiseSchedule

GUIDANCE_RULES = ("posterior_tilt", "alpha_bar_prev", "alpha_t")
DEFAULT_GUIDANCE_RULE = "posterior_tilt"
NOISE_POLICIES = ("independent", "shared")


@dataclass(frozen=True)
class CouplingConfig:
    lam: float = 1.0
    guidance_scale_rule: str = DEFAULT_GUIDANCE_RULE
    noise_policy: str = "independent"
    lambda_ramp: tuple | None = None

    def __post_init__(self):
        if not (self.lam >= 0.0 and math.isfinite(self.lam)):
            raise ValueError("lambda must be finite and non-negative")
        if self.guidance_scale_rule not in GUIDANCE_RULES:
            raise ValueError(
                f"guidance_scale_rule must be one of {GUIDANCE_RULES}, "
                f"got {self.guidance_scale_rule!r}"
            )
        if self.noise_policy not in NOISE_POLICIES:
            raise ValueError(
                f"noise_policy must be one of {NOISE_POLICIES}, got {self.noise_policy!r}"
            )
        if self.lambda_ramp is not None:
            ramp = tuple(float(v) for v in self.lambda_ramp)
            if any(v < 0.0 or not math.isfinite(v) for v in ramp):
                raise ValueError("lambda_ramp entries must be finite and >= 0")
            object.__setattr__(self, "lambda_ramp", ramp)

    def lam_at(self, t: int) -> float:
        if self.lambda_ramp is None:
            return self.lam
        return self.lam * self.lambda_ramp[t - 1]


@dataclass(frozen=True)
class CoupledRunResult:
    batch_a: SampleBatch
    batch_b: SampleBatch
    coupling_series: np.ndarray  # per-step mean ||x0_hat_a - x0_hat_b||
    series_steps: np.ndarray
    residuals_a: np.ndarray | None = None  # per-sample view residuals (scenes)
    residuals_b: np.ndarray | None = None


def coupling_energy(x, x_prime, lam: float):
    """-(lam / 2) ||x - x'||^2; zero iff lam = 0 or the points coincide."""
    x = np.asarray(x, dtype=np.float64)
    x_prime = np.asarray(x_prime, dtype=np.float64)
    if x.shape != x_prime.shape:
        raise ValueError("coupled points must share a shape")
    lam = float(lam)
    sq = np.sum((x - x_prime) ** 2, axis=-1)
    out = -0.5 * lam * sq
    return float(out) if out.ndim == 0 else out


def coupling_gradient(x0_self, x0_other, lam: float):
    """Gradient of the coupling energy in its first argument: -lam (x - x')."""
    x0_self = np.asarray(x0_self, dtype=np.float64)
    x0_other = np.asarray(x0_other, dtype=np.float64)
    if x0_self.shape != x0_other.shape:
        raise ValueError("coupled points must share a shape")
    return -float(lam) * (x0_self - x0_other)


def guidance_scale(schedule: NoiseSchedule, t: int, t_next: int, rule: str,
                   lam: float = 0.0) -> float:
    """Schedule factor multiplying the coupling gradient at step t.

    "posterior_tilt" is the Gaussian evidence tilt: the score correction
    grad_x log E[exp U(x_0^self, x_0^other) | x_t^self, x_t^other], with both
    clean samples integrated over their unit-Gaussian posteriors (variance
    1 - alpha_bar each), lands in the update as the state increment

        beta_t sqrt(alpha_bar_{t-1}) / (1 + 2 lam (1 - alpha_bar_t)) * grad U.

    Chains following it sample the coupling-tilted pair density essentially
    exactly for unit-covariance Gaussian targets. The two cruder
    schedule-level factors sqrt(1 - alpha_bar_{t-1}) and sqrt(1 - alpha_t)
    are kept for ablation; at a few hundred steps their accumulated pull
    dwarfs the model's own drift and the chains collapse onto each other.

    Guidance is suppressed on the final jump (t_next = 0) so the run always
    ends on each chain's own clean estimate.
    """
    if t_next == 0:
        return 0.0
    if rule == "posterior_tilt":
        ab_t, ab_next, beta_eff, _ = step_coefficients(schedule, t, t_next, "beta")
        return beta_eff * math.sqrt(ab_next) / (1.0 + 2.0 * lam * (1.0 - ab_t))
    if rule == "alpha_bar_prev":
        return math.sqrt(1.0 - schedule.alpha_bar_at(t_next))
    if rule == "alpha_t":
        return math.sqrt(1.0 - schedule.alpha_at(t))
    raise ValueError(f"unknown guidance_scale_rule {rule!r}")


def _guidance(coupling: CouplingConfig, schedule: NoiseSchedule, t: int, t_next: int,
              x0_a, x0_b):
    """Per-chain guidance increments for the jump t -> t_next, or None."""
    lam_t = coupling.lam_at(t)
    if lam_t == 0.0:
        return None
    scale = guidance_scale(schedule, t, t_next, coupling.guidance_scale_rule, lam_t)
    if scale == 0.0:
        return None
    return (scale * coupling_gradient(x0_a, x0_b, lam_t),
            scale * coupling_gradient(x0_b, x0_a, lam_t))


def coupled_sample(model_a: ScoreModel, model_b: ScoreModel, schedule: NoiseSchedule,
                   sampler_config: SamplerConfig, coupling: CouplingConfig,
                   seed: int, n: int) -> CoupledRunResult:
    """Run n coupled chain pairs from independent x_T ~ N(0, I).

    Both chains run sample()'s loop plus the guidance increments, so lam = 0
    is two sample() runs by construction. Chain noise comes from per-chain
    streams seeded by derive_seed(seed, 0|1); under noise_policy "shared"
    chain B reuses chain A's stream, which also makes the two
    initializations identical.
    """
    if model_a.dim != model_b.dim:
        raise ValueError("coupled chains must share a dimension")
    if n < 1:
        raise ValueError("n must be >= 1")
    if coupling.lambda_ramp is not None and len(coupling.lambda_ramp) != schedule.num_steps:
        raise ValueError("lambda_ramp length must equal the schedule step count")
    steps = sampler_config.steps_for(schedule)
    seed_a = derive_seed(seed, CHAIN_A)
    seed_b = derive_seed(seed, CHAIN_B)
    stream_a = NoiseStream(seed_a)
    stream_b = stream_a if coupling.noise_policy == "shared" else NoiseStream(seed_b)
    series = np.empty(len(steps))

    def guide(i, t, t_next, x0s):
        series[i] = float(np.mean(np.linalg.norm(x0s[0] - x0s[1], axis=-1)))
        return _guidance(coupling, schedule, t, t_next, *x0s)

    models = (model_a, model_b)
    xs, trajectories = _run_chains(
        models, (stream_a, stream_b), ("chain A", "chain B"),
        schedule, steps, sampler_config, n, guide,
    )
    batch_a, batch_b = (
        SampleBatch(samples=x, seed=chain_seed, trajectory=trajectory,
                    fingerprint=config_fingerprint(model, schedule, sampler_config))
        for x, chain_seed, model, trajectory in zip(xs, (seed_a, seed_b), models, trajectories)
    )
    return CoupledRunResult(batch_a=batch_a, batch_b=batch_b, coupling_series=series,
                            series_steps=np.asarray(steps, dtype=np.int64))


class _AveragedModel(ScoreModel):
    def __init__(self, models, weights):
        models = tuple(models)
        if not models:
            raise ValueError("need at least one model")
        dims = {m.dim for m in models}
        if len(dims) != 1:
            raise ValueError("averaged models must share a dimension")
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(models):
            raise ValueError("one weight per model required")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")
        self.models = models
        self.weights = weights

    @property
    def dim(self) -> int:
        return self.models[0].dim

    def predict_epsilon(self, x, t, schedule):
        acc = self.weights[0] * self.models[0].predict_epsilon(x, t, schedule)
        for w, m in zip(self.weights[1:], self.models[1:]):
            acc = acc + w * m.predict_epsilon(x, t, schedule)
        return acc

    def describe(self) -> dict:
        return {
            "kind": "score_average",
            "weights": list(self.weights),
            "models": [m.describe() for m in self.models],
        }


def score_average_sample(models, weights, schedule: NoiseSchedule,
                         sampler_config: SamplerConfig, seed: int, n: int) -> SampleBatch:
    """Single chain driven by the weighted sum of epsilon-predictions."""
    return sample(_AveragedModel(models, weights), schedule, sampler_config, seed, n)


def mv_edit_demo(scene: MvScene, schedule: NoiseSchedule, coupling: CouplingConfig,
                 seed: int, n: int) -> CoupledRunResult:
    """Couple the per-view edit chain (A) with the shared-latent chain (B).

    Returns the coupled batches plus per-sample view-consistency residuals
    for both chains.
    """
    model_a, model_b = mv_chain_models(scene)
    result = coupled_sample(model_a, model_b, schedule, SamplerConfig(), coupling, seed, n)
    return replace(
        result,
        residuals_a=consistency_residual(result.batch_a.samples, scene.n_views, scene.view_dim),
        residuals_b=consistency_residual(result.batch_b.samples, scene.n_views, scene.view_dim),
    )


def mutual_tilt_fixed_point(mu_self, mu_other, lam: float) -> np.ndarray:
    """Stationary mean of two unit-variance Gaussians tilting each other.

    Each chain's tilted mean solves m = (mu + lam * m_other) / (1 + lam);
    solving the pair gives (mu_self (1 + lam) + lam mu_other) / (1 + 2 lam).
    """
    lam = float(lam)
    mu_self = np.asarray(mu_self, dtype=np.float64)
    mu_other = np.asarray(mu_other, dtype=np.float64)
    return (mu_self * (1.0 + lam) + lam * mu_other) / (1.0 + 2.0 * lam)
