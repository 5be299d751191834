"""Single-chain reverse-diffusion sampling.

The ancestral step uses the variance-consistent mean and the variance
sigma_t^2 = beta_t:

    x_{t-1} = (x_t - beta_t / sqrt(1 - alpha_bar_t) * eps_hat) / sqrt(alpha_t)
            + sqrt(beta_t) z

sigma_t^2 = beta_t is the exact reverse-kernel variance for unit-covariance
Gaussian targets. On the preset mixtures at T = 200 it was measurably
tighter than the point-posterior choice
beta_t (1 - alpha_bar_{t-1}) / (1 - alpha_bar_t), which under-disperses
smooth targets by a few percent and is not offered. Composing with the full
sqrt(1 - alpha_bar_{t-1}) epsilon coefficient and then adding noise on top
does not preserve the forward marginals (the injected variance is never
removed), so that form is not offered either.

The deterministic step drops the noise and keeps the full coefficient:
x_{t-1} = sqrt(alpha_bar_{t-1}) x0_hat + sqrt(1 - alpha_bar_{t-1}) eps_hat.

The final step (t = 1) never injects noise and returns the clean estimate
exactly. Single and coupled runs share one step kernel (_step) and one loop
(_run_chains). Each step's (n, d) noise block is addressed by (seed, stream,
step), so a batch is bit-reproducible from (seed, config); a shard of the n
chains cannot yet draw only its own rows. A chain may hold several copies of
its n points (one per coupling strength of a sweep): x_T and each step's
noise are drawn once per chain and serve every copy, and the step runs on
chunks of whole copies of at most _CHUNK_ELEMENTS rows x d, one pass per
chain and then one guidance call for all chains.

A run returns a SampleBatch per chain: its final (n, d) samples and, when
recorded, its Trajectory. The seed and the config fingerprint describe the
run, not its samples; the CLI records them (see config_fingerprint).
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

# Rows x d of one step chunk. Its copies share a model call per chain, and
# its temporaries bound the step's memory. The coupled bench (five-lambda
# sweeps at n = 2048) peaked at 62.7 MB with one run per lambda, 71.3 MB
# with no bound, 67.7 MB at 40960 and 63.5 MB here, where the five d = 2
# copies share one chunk and each d = 6 copy runs alone.
_CHUNK_ELEMENTS = 20480


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = "ancestral"
    record_trajectory: bool = False
    step_subset: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.step_subset is not None:
            if not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                       for t in self.step_subset):
                raise ValueError(f"step_subset must hold integers, got {self.step_subset!r}")
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
            # sigma_t^2 = beta_t is the only reverse-step variance; the key
            # stays so that fingerprints and run.json files keep their bytes.
            "variance_rule": "beta",
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
    trajectory: Trajectory | None = None


def x0_from_epsilon(x_t, eps_hat, alpha_bar_t: float):
    """Clean estimate (x_t - sqrt(1 - ab) eps_hat) / sqrt(ab)."""
    alpha_bar_t = float(alpha_bar_t)
    if not 0.0 < alpha_bar_t < 1.0:
        raise ValueError("alpha_bar_t must lie in (0, 1)")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    return (x_t - math.sqrt(1.0 - alpha_bar_t) * eps_hat) / math.sqrt(alpha_bar_t)


def step_coefficients(schedule: NoiseSchedule, t: int, t_next: int):
    """(ab_t, ab_next, beta_eff) for the jump t -> t_next (t_next >= 1)."""
    ab_t = schedule.alpha_bar_at(t)
    ab_next = schedule.alpha_bar_at(t_next)
    beta_eff = schedule.beta_at(t) if t_next == t - 1 else 1.0 - ab_t / ab_next
    return ab_t, ab_next, beta_eff


def _step(x_t, eps_hat, z, schedule: NoiseSchedule, t: int, t_next: int, kind: str):
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
    ab_t, _, beta_eff = step_coefficients(schedule, t, t_next)
    mean = (x_t - beta_eff / math.sqrt(1.0 - ab_t) * eps_hat) / math.sqrt(1.0 - beta_eff)
    return x0, mean + math.sqrt(beta_eff) * z


def config_fingerprint(model: ScoreModel, schedule: NoiseSchedule,
                       config: SamplerConfig) -> str:
    payload = {
        "model": model.describe(),
        "schedule": {"beta": [float(b) for b in schedule.beta]},
        "sampler": config.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _chunks(copies: int, n: int, d: int) -> list:
    """Slices of whole copies, at most _CHUNK_ELEMENTS rows x d each. At n = 1
    each copy runs alone: a 1-row mixture call rounds differently in LAPACK
    from the same row solved among others."""
    per = 1 if n == 1 else max(1, _CHUNK_ELEMENTS // (n * d))
    return [slice(lo, min(lo + per, copies)) for lo in range(0, copies, per)]


def _run_chains(models, streams, names, schedule: NoiseSchedule, steps,
                config: SamplerConfig, n: int, guide=None, copies: int = 1):
    """The sampling loop: K chains of n points each, in lockstep from x_T ~ N(0, I).

    Chain k, called names[k], evaluates models[k] and draws from streams[k].
    It holds `copies` copies of its points, all started from one x_T and
    moved by one noise block per step, so copy l is bit for bit the run with
    one copy and copy l's guidance. The step runs on chunks of whole copies
    (_chunks), held (copies in chunk, n, d). Per chunk, each chain makes one
    pass: model call, step, trajectory record and a check that its own
    update is finite. Then guide(i, t, t_next, chunk, x0s, xs) may move the
    chunk's fresh states xs in place and returns whether it moved any; only
    then are they checked again. A model error or a non-finite state raises
    a RuntimeError naming the chain, the step and the cause. Returns per
    chain the final states, one (n, d) array per copy, and one Trajectory
    (or None) per chain; a trajectory is recorded for a single copy only.
    """
    if config.record_trajectory and copies != 1:
        raise ValueError("record_trajectory needs a single copy")
    d = models[0].dim
    chunks = _chunks(copies, n, d)
    states = [[np.broadcast_to(x_T, (copies, n, d))[chunk] for chunk in chunks]
              for x_T in (stream.normal((n, d), STREAM_INIT) for stream in streams)]
    records = [[] for _ in models]
    for i, t in enumerate(steps):
        t_next = steps[i + 1] if i + 1 < len(steps) else 0
        zs = [None] * len(models)
        if config.kind == "ancestral" and t_next != 0:
            zs = [stream.normal((n, d), STREAM_STEP, t) for stream in streams]
        for c, chunk in enumerate(chunks):
            x0s, nxts = [], []
            for model, state, name, z, rec in zip(models, states, names, zs, records):
                x = state[c]
                try:
                    eps = (model.predict_epsilon(x.reshape(-1, d), t, schedule)
                           .reshape(x.shape))
                except Exception as exc:
                    raise RuntimeError(
                        f"{name}: model evaluation failed at step {t}") from exc
                x0, nxt = _step(x, eps, z, schedule, t, t_next, config.kind)
                if config.record_trajectory:
                    rec.append((x[0], x0[0], eps[0]))
                if not np.isfinite(nxt).all():
                    raise RuntimeError(f"{name}: non-finite state at step {t} "
                                       "from its own update (model or step)")
                state[c] = nxt
                x0s.append(x0)
                nxts.append(nxt)
            if guide is not None and guide(i, t, t_next, chunk, x0s, nxts):
                for name, nxt in zip(names, nxts):
                    if not np.isfinite(nxt).all():
                        raise RuntimeError(
                            f"{name}: non-finite state at step {t} after the guidance "
                            "increment; its own update was finite")

    finals = [[x for chunk in state for x in chunk] for state in states]
    if not config.record_trajectory:
        return finals, [None] * len(models)
    steps_arr = np.asarray(steps, dtype=np.int64)
    return finals, [
        Trajectory(steps_arr, *(np.stack(field) for field in zip(*rec)))
        for rec in records
    ]


def sample(model: ScoreModel, schedule: NoiseSchedule, config: SamplerConfig,
           seed: int, n: int) -> SampleBatch:
    """Run n independent reverse chains from x_T ~ N(0, I)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    steps = config.steps_for(schedule)
    ((x,),), (trajectory,) = _run_chains(
        [model], [NoiseStream(seed)], ["chain"], schedule, steps,
        config, n,
    )
    return SampleBatch(samples=x, trajectory=trajectory)
