"""Closed-form oracles and the built-in property suite behind `verify`.

Each oracle takes the data it measures and returns its error; the
acceptance tests call the same functions with their own data and bounds.
run_verify draws verify's own data and wraps each result in a MetricReport.
Hard checks gate the exit code; the Gaussian fixed-point band is logged as a
soft check because the coupled stationary mean is a reference prediction,
not an established identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import coupling, metrics, models, sampler, schedule
from .presets import gmm_preset_names, resolve_gmm, resolve_pair
from .rng import CHAIN_A, CHAIN_B, derive_seed, generator

_VERIFY_SEED = 20240 + 813


@dataclass(frozen=True)
class VerifyCheck:
    report: metrics.MetricReport
    hard: bool


def _default_schedule() -> schedule.NoiseSchedule:
    return schedule.build_linear(200, 1e-4, 0.115)


def central_difference(f, x, h: float) -> np.ndarray:
    """Central-difference gradient of f over the last axis of x."""
    dim = x.shape[-1]
    fd = np.empty_like(x)
    for axis in range(dim):
        step = np.zeros(dim)
        step[axis] = h
        fd[..., axis] = (f(x + step) - f(x - step)) / (2 * h)
    return fd


def shift_composition_error(base: schedule.NoiseSchedule, a: float, b: float) -> float:
    """Max relative alpha_bar gap between shifting by a then b and by a * b."""
    twice = schedule.shift_schedule(schedule.shift_schedule(base, a), b)
    once = schedule.shift_schedule(base, a * b)
    return float(np.max(np.abs(twice.alpha_bar - once.alpha_bar) / once.alpha_bar))


def flow_duality_error(g: models.Gmm, x, ts) -> float:
    """score_from_velocity(GmmVelocityModel(g).velocity) vs the central-difference
    gradient of the flow-marginal log density, max relative error over ts."""
    flow, worst = models.GmmVelocityModel(g), 0.0
    for t in ts:
        s = models.score_from_velocity(flow.velocity(x, t), x, t)
        fd = central_difference(lambda y: models.gmm_flow_log_density(g, y, t), x, 1e-5)
        denom = np.maximum(np.linalg.norm(fd, axis=1), 1.0)
        worst = max(worst, float(np.max(np.linalg.norm(s - fd, axis=1) / denom)))
    return worst


def lambda_zero_gap(model_a, model_b, sched, cfg, seed: int, n: int) -> float:
    """Max |difference| between a lam = 0 coupled run and the two independent
    sample() runs under the derived per-chain seeds; 0.0 when bitwise equal.
    Bitwise for a velocity model too, whose bits depend on its call's row
    count: the coupled run and the solo run call it with the same n rows."""
    run = coupling.coupled_sample(model_a, model_b, sched, cfg,
                                  coupling.CouplingConfig(lam=0.0), seed, n)
    gaps = []
    for batch, model, chain in ((run.batch_a, model_a, CHAIN_A), (run.batch_b, model_b, CHAIN_B)):
        solo = sampler.sample(model, sched, cfg, derive_seed(seed, chain), n)
        gaps.append(np.max(np.abs(batch.samples - solo.samples)))
    return float(np.max(gaps))


def fixed_point_means() -> list:
    """Coupled chain means on the separated Gaussian pair (seed 11, n 4096)
    for lam in {0.5, 1, 2}, as (lam, mean_a, mean_b, dev) rows; dev is the
    larger distance of the two means from their mutual-tilt references."""
    gmm_a, gmm_b = resolve_pair("separated-pair")
    model_a, model_b = models.GmmScoreModel(gmm_a), models.GmmScoreModel(gmm_b)
    mu_a, mu_b = gmm_a.means[0], gmm_b.means[0]
    lams = (0.5, 1.0, 2.0)
    runs = coupling.coupled_sweep(model_a, model_b, _default_schedule(), sampler.SamplerConfig(),
                                  [coupling.CouplingConfig(lam=lam) for lam in lams],
                                  seed=11, n=4096)
    rows = []
    for lam, run in zip(lams, runs):
        mean_a = run.batch_a.samples.mean(axis=0)
        mean_b = run.batch_b.samples.mean(axis=0)
        dev = max(
            float(np.linalg.norm(mean_a - coupling.mutual_tilt_fixed_point(mu_a, mu_b, lam))),
            float(np.linalg.norm(mean_b - coupling.mutual_tilt_fixed_point(mu_b, mu_a, lam))),
        )
        rows.append((lam, mean_a, mean_b, dev))
    return rows


def run_verify() -> list:
    """All checks on verify's own data, in report order."""
    sched = _default_schedule()

    rng = generator(_VERIFY_SEED, 1)
    score_err = 0.0
    for name in ("std-normal-2d", "anis-3c-2d"):
        g = resolve_gmm(name)
        for ab in (0.15, 0.5, 0.9):
            x = rng.normal(scale=2.0, size=(40, g.dim))
            score = -models.GmmScoreModel(g).epsilon(x, ab) / np.sqrt(1.0 - ab)
            fd = central_difference(lambda y: models.gmm_noised_log_density(g, y, ab), x, 1e-5)
            score_err = max(score_err, float(np.max(np.abs(score - fd))))

    rng = generator(_VERIFY_SEED, 2)
    duality_err = 0.0
    for name in gmm_preset_names():
        g = resolve_gmm(name)
        if g.dim <= 4:
            x = rng.normal(scale=2.0, size=(100, g.dim))
            duality_err = max(duality_err, flow_duality_error(g, x, np.linspace(0.05, 0.95, 10)))

    rng = generator(_VERIFY_SEED, 3)
    gradient_err = 0.0
    for _ in range(20):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        lam = float(rng.uniform(0.1, 3.0))
        fd = central_difference(lambda v: coupling.coupling_energy(v, y, lam), x, 1e-6)
        gradient_err = max(gradient_err,
                           float(np.max(np.abs(coupling.coupling_gradient(x, y, lam) - fd))))

    gmm_a, gmm_b = resolve_pair("separated-pair")
    zero_gap = lambda_zero_gap(models.GmmVelocityModel(gmm_a), models.GmmScoreModel(gmm_b),
                               sched, sampler.SamplerConfig(), seed=7, n=64)
    band = max(dev for *_, dev in fixed_point_means())

    def check(name, value, threshold, hard=True):
        return VerifyCheck(metrics.MetricReport(name, value, threshold, "le"), hard=hard)

    return [
        check("schedule-shift-composition", shift_composition_error(sched, 2.0, 3.0), 1e-12),
        check("gmm-score-finite-difference", score_err, 1e-4),
        check("flow-duality", duality_err, 1e-5),
        check("coupling-gradient-fd", gradient_err, 1e-6),
        check("lambda-zero-reduction", zero_gap, 0.0),
        check("fixed-point-band", band, 0.15, hard=False),
    ]
