"""Coupled two-chain sampling.

Two reverse chains advance in lockstep on a shared schedule. After each
chain's own reverse update, a guidance term

    -scale_t * lam * (x0_hat_self - x0_hat_other)

pulls the new state toward the partner chain's clean estimate, with the
partner estimate treated as a constant. The default scale_t is the exact
Gaussian posterior-tilt factor (see guidance_scale). Under it each chain
samples its own density tilted by the coupling energy, but only for
unit-covariance Gaussian targets; mixture pairs end measurably off the
tilted pair density. One cruder schedule-level factor, "alpha_bar_prev", is
kept for ablation.

A sweep over lambda is one coupled run (coupled_sweep): each chain holds
one copy of its points per lambda, draws x_T and each step's noise once for
all of them, and steps them in bounded chunks of whole copies. Copy l is bit
for bit the single-lambda run, which is the one-element case. Once per
chunk, _guidance moves chain A by scale_t * grad U and chain B by its exact
negative. A copy with lam = 0 keeps its bits, so a lam = 0 run is bit for
bit two independent runs under the derived per-chain seeds.

A score-averaging single-chain baseline and a multi-view editing demo
(independent per-view edit chain coupled to a shared-latent consistent
chain) are provided for comparison studies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .models import MvScene, ScoreModel, mv_chain_models
from .rng import CHAIN_A, CHAIN_B, NoiseStream, derive_seed
from .sampler import (
    SamplerConfig,
    SampleBatch,
    _run_chains,
    sample,
    step_coefficients,
)
from .schedule import NoiseSchedule

GUIDANCE_RULES = ("posterior_tilt", "alpha_bar_prev")
DEFAULT_GUIDANCE_RULE = "posterior_tilt"
# posterior_tilt divides by 1 + 2 lam (1 - alpha_bar_t); past this bound
# 2 lam overflows to inf, the scale reads 0.0 and the run is silently uncoupled.
_MAX_LAMBDA = sys.float_info.max / 2


@dataclass(frozen=True)
class CouplingConfig:
    lam: float = 1.0
    guidance_scale_rule: str = DEFAULT_GUIDANCE_RULE

    def __post_init__(self):
        if not 0.0 <= self.lam <= _MAX_LAMBDA:
            raise ValueError("lambda must be non-negative and 2 * lambda finite "
                             f"(at most {_MAX_LAMBDA}), got {self.lam}")
        if self.guidance_scale_rule not in GUIDANCE_RULES:
            raise ValueError(
                f"guidance_scale_rule must be one of {GUIDANCE_RULES}, "
                f"got {self.guidance_scale_rule!r}"
            )


@dataclass(frozen=True)
class CoupledRunResult:
    batch_a: SampleBatch
    batch_b: SampleBatch
    coupling_series: np.ndarray  # per-step mean ||x0_hat_a - x0_hat_b||
    series_steps: np.ndarray


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


def coupling_gradient(x0_self, x0_other, lam):
    """Gradient of the coupling energy in its first argument: -lam (x - x');
    lam may be an array that broadcasts against the points."""
    x0_self = np.asarray(x0_self, dtype=np.float64)
    x0_other = np.asarray(x0_other, dtype=np.float64)
    if x0_self.shape != x0_other.shape:
        raise ValueError("coupled points must share a shape")
    return -np.asarray(lam, dtype=np.float64) * (x0_self - x0_other)


def guidance_scale(schedule: NoiseSchedule, t: int, t_next: int, rule: str,
                   lam: float) -> float:
    """Schedule factor multiplying the coupling gradient at step t.

    "posterior_tilt" is the Gaussian evidence tilt: the score correction
    grad_x log E[exp U(x_0^self, x_0^other) | x_t^self, x_t^other], with both
    clean samples integrated over their unit-Gaussian posteriors (variance
    1 - alpha_bar each), lands in the update as the state increment

        beta_t sqrt(alpha_bar_{t-1}) / (1 + 2 lam (1 - alpha_bar_t)) * grad U.

    Chains following it sample the coupling-tilted pair density essentially
    exactly for unit-covariance Gaussian targets. "alpha_bar_prev", the
    cruder schedule-level factor sqrt(1 - alpha_bar_{t-1}), is kept for
    ablation; at a few hundred steps its accumulated pull dwarfs the model's
    own drift and the chains collapse onto each other.

    Guidance is suppressed on the final jump (t_next = 0) so the run always
    ends on each chain's own clean estimate.
    """
    if t_next == 0:
        return 0.0
    if rule == "posterior_tilt":
        ab_t, ab_next, beta_eff = step_coefficients(schedule, t, t_next)
        return beta_eff * math.sqrt(ab_next) / (1.0 + 2.0 * lam * (1.0 - ab_t))
    if rule == "alpha_bar_prev":
        return math.sqrt(1.0 - schedule.alpha_bar_at(t_next))
    raise ValueError(f"unknown guidance_scale_rule {rule!r}")


def _guidance(couplings, schedule: NoiseSchedule, t: int, t_next: int, x0s, xs) -> bool:
    """Move the fresh states xs of chains A and B, (copies, n, d) each with
    copy l under couplings[l], by inc = scale * grad U(x0_a, x0_b) and -inc
    in place. A copy whose scale is 0 (lam = 0, or the final jump) keeps its
    bits. Returns whether any copy moved."""
    scale = np.array([
        guidance_scale(schedule, t, t_next, c.guidance_scale_rule, c.lam) if c.lam else 0.0
        for c in couplings
    ]).reshape(-1, 1, 1)
    lam = np.array([c.lam for c in couplings]).reshape(-1, 1, 1)
    inc = scale * coupling_gradient(x0s[0], x0s[1], lam)
    moved = scale != 0.0
    np.add(xs[0], inc, out=xs[0], where=moved)
    np.subtract(xs[1], inc, out=xs[1], where=moved)
    return bool(moved.any())


def coupled_sweep(model_a: ScoreModel, model_b: ScoreModel, schedule: NoiseSchedule,
                  sampler_config: SamplerConfig, couplings, seed: int, n: int) -> list:
    """Run n coupled chain pairs under each coupling, as one run; one result each.

    Each chain holds one copy of its n points per coupling. Chain noise comes
    from per-chain streams seeded by derive_seed(seed, 0|1); x_T and each
    step's noise are drawn once per chain and serve every copy, so result l
    is bit for bit coupled_sample(..., couplings[l], seed, n).
    """
    couplings = tuple(couplings)
    if not couplings:
        raise ValueError("need at least one coupling")
    if model_a.dim != model_b.dim:
        raise ValueError("coupled chains must share a dimension")
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = sampler_config.steps_for(schedule)
    series = np.empty((len(couplings), len(steps)))

    def guide(i, t, t_next, chunk, x0s, xs):
        series[chunk, i] = np.linalg.norm(x0s[0] - x0s[1], axis=-1).mean(axis=-1)
        return _guidance(couplings[chunk], schedule, t, t_next, x0s, xs)

    streams = (NoiseStream(derive_seed(seed, CHAIN_A)), NoiseStream(derive_seed(seed, CHAIN_B)))
    (xs_a, xs_b), (traj_a, traj_b) = _run_chains(
        (model_a, model_b), streams, ("chain A", "chain B"),
        schedule, steps, sampler_config, n, guide, copies=len(couplings),
    )
    return [
        CoupledRunResult(
            batch_a=SampleBatch(samples=x_a, trajectory=traj_a),
            batch_b=SampleBatch(samples=x_b, trajectory=traj_b),
            coupling_series=row, series_steps=np.asarray(steps, dtype=np.int64),
        )
        for x_a, x_b, row in zip(xs_a, xs_b, series)
    ]


def coupled_sample(model_a: ScoreModel, model_b: ScoreModel, schedule: NoiseSchedule,
                   sampler_config: SamplerConfig, coupling: CouplingConfig,
                   seed: int, n: int) -> CoupledRunResult:
    """Run n coupled chain pairs from independent x_T ~ N(0, I).

    Both chains run sample()'s loop plus the guidance increments, so lam = 0
    is two sample() runs by construction. Chain noise comes from per-chain
    streams seeded by derive_seed(seed, 0|1). It is coupled_sweep's
    one-element case.
    """
    (result,) = coupled_sweep(model_a, model_b, schedule, sampler_config, [coupling], seed, n)
    return result


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


def score_average_sample(models, weights, schedule: NoiseSchedule,
                         sampler_config: SamplerConfig, seed: int, n: int) -> SampleBatch:
    """Single chain driven by the weighted sum of epsilon-predictions."""
    return sample(_AveragedModel(models, weights), schedule, sampler_config, seed, n)


def mv_edit_demo(scene: MvScene, schedule: NoiseSchedule, coupling: CouplingConfig,
                 seed: int, n: int) -> CoupledRunResult:
    """Couple the per-view edit chain (A) with the shared-latent chain (B)."""
    model_a, model_b = mv_chain_models(scene)
    return coupled_sample(model_a, model_b, schedule, SamplerConfig(), coupling, seed, n)


def mutual_tilt_fixed_point(mu_self, mu_other, lam: float) -> np.ndarray:
    """Stationary mean of two unit-variance Gaussians tilting each other.

    Each chain's tilted mean solves m = (mu + lam * m_other) / (1 + lam);
    solving the pair gives (mu_self (1 + lam) + lam mu_other) / (1 + 2 lam).
    """
    lam = float(lam)
    mu_self = np.asarray(mu_self, dtype=np.float64)
    mu_other = np.asarray(mu_other, dtype=np.float64)
    return (mu_self * (1.0 + lam) + lam * mu_other) / (1.0 + 2.0 * lam)
