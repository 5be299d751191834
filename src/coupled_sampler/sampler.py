"""Single-chain reverse-diffusion sampling.

The ancestral step uses the variance-consistent mean

    x_{t-1} = (x_t - beta_t / sqrt(1 - alpha_bar_t) * eps_hat) / sqrt(alpha_t)
            + sigma_t z

which is algebraically identical to the clean-estimate composition
sqrt(alpha_bar_{t-1}) x0_hat + sqrt(1 - alpha_bar_{t-1} - sigma_t^2) eps_hat
+ sigma_t z when sigma_t is the posterior choice. Composing with the full
sqrt(1 - alpha_bar_{t-1}) epsilon coefficient and then adding noise on top
does not preserve the forward marginals (the injected variance is never
removed), so that form is not offered.

The deterministic step drops the noise and keeps the full coefficient:
x_{t-1} = sqrt(alpha_bar_{t-1}) x0_hat + sqrt(1 - alpha_bar_{t-1}) eps_hat.

The final step (t = 1) never injects noise and returns the clean estimate
exactly. Single and coupled runs share one step kernel (_step) and one loop
(_run_chains). Each step's (n, d) noise block is addressed by (seed, stream,
step), so a batch is bit-reproducible from (seed, config); a shard of the n
chains cannot yet draw only its own rows.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .models import ScoreModel
from .rng import STREAM_INIT, STREAM_STEP, NoiseStream
from .schedule import NoiseSchedule

KINDS = ("ancestral", "deterministic")
VARIANCE_RULES = ("beta", "beta_tilde")
# "beta" (sigma_t = sqrt(beta_t)) is the exact reverse-kernel variance for
# unit-covariance Gaussian targets and measurably tighter on the preset
# mixtures at T = 200; "beta_tilde" is the point-posterior choice and
# under-disperses smooth targets by a few percent at this step count.
DEFAULT_VARIANCE_RULE = "beta"


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "ancestral"
    variance_rule: str = DEFAULT_VARIANCE_RULE
    record_trajectory: bool = False
    step_subset: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.variance_rule not in VARIANCE_RULES:
            raise ValueError(
                f"variance_rule must be one of {VARIANCE_RULES}, got {self.variance_rule!r}"
            )
        if self.step_subset is not None:
            object.__setattr__(
                self, "step_subset", tuple(int(t) for t in self.step_subset)
            )

    def steps_for(self, schedule: NoiseSchedule) -> list:
        T = schedule.num_steps
        if self.step_subset is None:
            return list(range(T, 0, -1))
        sub = list(self.step_subset)
        if not sub or sub[0] != T or sub[-1] != 1:
            raise ValueError("step_subset must start at T and end at 1")
        if any(nxt >= prev for prev, nxt in zip(sub, sub[1:])):
            raise ValueError("step_subset must be strictly decreasing")
        return sub

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "variance_rule": self.variance_rule,
            "record_trajectory": self.record_trajectory,
            "step_subset": list(self.step_subset) if self.step_subset else None,
        }


@dataclass(frozen=True)
class Trajectory:
    """Per-step (t, x_t, x0_hat, eps_hat) records of all n chains, ordered by
    decreasing t; chain i's records are [:, i]."""

    steps: np.ndarray  # (S,)
    x_t: np.ndarray  # (S, n, d)
    x0_hat: np.ndarray  # (S, n, d)
    eps_hat: np.ndarray  # (S, n, d)


@dataclass(frozen=True)
class SampleBatch:
    samples: np.ndarray  # (n, d)
    seed: int
    fingerprint: str
    trajectory: Trajectory | None = None


def x0_from_epsilon(x_t, eps_hat, alpha_bar_t: float):
    """Clean estimate (x_t - sqrt(1 - ab) eps_hat) / sqrt(ab)."""
    alpha_bar_t = float(alpha_bar_t)
    if not 0.0 < alpha_bar_t < 1.0:
        raise ValueError("alpha_bar_t must lie in (0, 1)")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    return (x_t - math.sqrt(1.0 - alpha_bar_t) * eps_hat) / math.sqrt(alpha_bar_t)


def step_coefficients(schedule: NoiseSchedule, t: int, t_next: int, variance_rule: str):
    """(ab_t, ab_next, beta_eff, sigma) for the jump t -> t_next (t_next >= 1)."""
    ab_t = schedule.alpha_bar_at(t)
    ab_next = schedule.alpha_bar_at(t_next)
    beta_eff = schedule.beta_at(t) if t_next == t - 1 else 1.0 - ab_t / ab_next
    if variance_rule == "beta":
        var = beta_eff
    elif variance_rule == "beta_tilde":
        var = beta_eff * (1.0 - ab_next) / (1.0 - ab_t)
    else:
        raise ValueError(f"unknown variance_rule {variance_rule!r}")
    return ab_t, ab_next, beta_eff, math.sqrt(var)


def _step(x_t, eps_hat, z, schedule: NoiseSchedule, t: int, t_next: int,
          kind: str, variance_rule: str = DEFAULT_VARIANCE_RULE):
    """The reverse-step kernel: (x0_hat, x_{t_next}) for one chain.

    z is the ancestral noise block, unused when kind is "deterministic" or
    t_next = 0; the jump to t_next = 0 returns the clean estimate.
    """
    x0 = x0_from_epsilon(x_t, eps_hat, schedule.alpha_bar_at(t))
    if t_next == 0:
        return x0, x0
    if kind == "deterministic":
        ab_next = schedule.alpha_bar_at(t_next)
        return x0, math.sqrt(ab_next) * x0 + math.sqrt(1.0 - ab_next) * eps_hat
    ab_t, _, beta_eff, sigma = step_coefficients(schedule, t, t_next, variance_rule)
    mean = (x_t - beta_eff / math.sqrt(1.0 - ab_t) * eps_hat) / math.sqrt(1.0 - beta_eff)
    return x0, mean + sigma * z


def config_fingerprint(model: ScoreModel, schedule: NoiseSchedule,
                       config: SamplerConfig) -> str:
    payload = {
        "model": model.describe(),
        "schedule": {"beta": [float(b) for b in schedule.beta]},
        "sampler": config.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _draw(streams, shape, *labels) -> list:
    """One block per distinct stream; chains sharing a stream share its block."""
    blocks = {stream: stream.normal(shape, *labels) for stream in dict.fromkeys(streams)}
    return [blocks[stream] for stream in streams]


def _run_chains(models, streams, names, schedule: NoiseSchedule, steps,
                config: SamplerConfig, n: int, guide=None):
    """The sampling loop: K chains of n points each, in lockstep from x_T ~ N(0, I).

    Chain k, called names[k], evaluates models[k] and draws from streams[k].
    After the chains' own updates, guide(i, t, t_next, x0_hats) may return
    one increment per chain, or None. A model error, or a non-finite state
    after a step, raises a RuntimeError naming the chain and the step.
    Returns the final states and one Trajectory (or None) per chain.
    """
    d = models[0].dim
    xs = _draw(streams, (n, d), STREAM_INIT)
    records = [[] for _ in models]
    for i, t in enumerate(steps):
        eps = []
        for model, x, name in zip(models, xs, names):
            try:
                eps.append(model.predict_epsilon(x, t, schedule))
            except Exception as exc:
                raise RuntimeError(f"{name}: model evaluation failed at step {t}") from exc
        t_next = steps[i + 1] if i + 1 < len(steps) else 0
        zs = [None] * len(models)
        if config.kind == "ancestral" and t_next != 0:
            zs = _draw(streams, (n, d), STREAM_STEP, t)
        x0s, nxts = zip(*(
            _step(x, e, z, schedule, t, t_next, config.kind, config.variance_rule)
            for x, e, z in zip(xs, eps, zs)
        ))
        if config.record_trajectory:
            for rec, x, x0, e in zip(records, xs, x0s, eps):
                rec.append((x, x0, e))
        increments = guide(i, t, t_next, x0s) if guide is not None else None
        xs = []
        for name, nxt, inc in zip(names, nxts, increments or [None] * len(models)):
            x = nxt if inc is None else nxt + inc
            if not np.isfinite(x).all():
                cause = ("after the guidance increment; its own update was finite"
                         if inc is not None and np.isfinite(nxt).all()
                         else "from its own update (model or step)")
                raise RuntimeError(f"{name}: non-finite state at step {t} {cause}")
            xs.append(x)

    if not config.record_trajectory:
        return xs, [None] * len(models)
    steps_arr = np.asarray(steps, dtype=np.int64)
    return xs, [
        Trajectory(steps_arr, *(np.stack(field) for field in zip(*rec)))
        for rec in records
    ]


def sample(model: ScoreModel, schedule: NoiseSchedule, config: SamplerConfig,
           seed: int, n: int) -> SampleBatch:
    """Run n independent reverse chains from x_T ~ N(0, I)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = config.steps_for(schedule)
    (x,), (trajectory,) = _run_chains(
        [model], [NoiseStream(seed)], ["chain"], schedule, steps,
        config, n,
    )
    return SampleBatch(
        samples=x,
        seed=int(seed),
        fingerprint=config_fingerprint(model, schedule, config),
        trajectory=trajectory,
    )
