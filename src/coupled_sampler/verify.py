"""Built-in property suite behind the `verify` CLI command.

Each check produces a MetricReport. Hard checks gate the exit code; the
Gaussian fixed-point band is logged as a soft check because the coupled
stationary mean is a reference prediction, not an established identity.
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


def check_edm_roundtrip() -> VerifyCheck:
    """Round trip through the sigma conversion pair on a log grid.

    Measured as alpha_bar -> sigma -> alpha_bar at the levels induced by the
    grid: near alpha_bar = 1 a single float64 ulp already moves sigma by
    ~5e-11 relative, so the opposite composition cannot be pinned at 1e-12
    for sigma below ~1e-2 in principle. The sigma-anchored direction is
    covered separately at representable points.
    """
    grid = schedule.snr_log_grid()
    ab = schedule.edm_sigma_to_alpha_bar(grid)
    back = schedule.edm_sigma_to_alpha_bar(schedule.alpha_bar_to_edm_sigma(ab))
    err = float(np.max(np.abs(back - ab) / ab))
    for sigma in (0.01, 1.0, 80.0):
        round_sigma = schedule.alpha_bar_to_edm_sigma(schedule.edm_sigma_to_alpha_bar(sigma))
        err = max(err, abs(round_sigma - sigma) / sigma)
    return VerifyCheck(
        metrics.MetricReport.thresholded("schedule-edm-roundtrip", err, 1e-12, "le"),
        hard=True,
    )


def check_shift_composition() -> VerifyCheck:
    base = _default_schedule()
    twice = schedule.shift_schedule(schedule.shift_schedule(base, 2.0), 3.0)
    once = schedule.shift_schedule(base, 6.0)
    err = float(np.max(np.abs(twice.alpha_bar - once.alpha_bar) / once.alpha_bar))
    return VerifyCheck(
        metrics.MetricReport.thresholded("schedule-shift-composition", err, 1e-12, "le"),
        hard=True,
    )


def check_align_identity() -> VerifyCheck:
    sched = _default_schedule()
    alignment = schedule.align_schedules(sched, sched)
    identity = all(s == t for s, t in alignment.mapping)
    value = alignment.max_log_snr_gap if identity else float("inf")
    return VerifyCheck(
        metrics.MetricReport.thresholded("schedule-align-identity", value, 0.0, "le"),
        hard=True,
    )


def check_score_finite_difference() -> VerifyCheck:
    rng = generator(_VERIFY_SEED, 1)
    h = 1e-5
    worst = 0.0
    for name in ("std-normal-2d", "anis-3c-2d"):
        g = resolve_gmm(name)
        for ab in (0.15, 0.5, 0.9):
            x = rng.normal(scale=2.0, size=(40, g.dim))
            eps = models.gmm_epsilon(g, x, ab)
            score = -eps / np.sqrt(1.0 - ab)
            fd = np.empty_like(x)
            for axis in range(g.dim):
                step = np.zeros(g.dim)
                step[axis] = h
                fd[:, axis] = (
                    models.gmm_noised_log_density(g, x + step, ab)
                    - models.gmm_noised_log_density(g, x - step, ab)
                ) / (2 * h)
            worst = max(worst, float(np.max(np.abs(score - fd))))
    return VerifyCheck(
        metrics.MetricReport.thresholded("gmm-score-finite-difference", worst, 1e-4, "le"),
        hard=True,
    )


def check_flow_duality() -> VerifyCheck:
    """score_from_velocity(velocity_from_gmm) vs finite differences of the
    flow-marginal log density, max relative error over a (t, x) grid."""
    rng = generator(_VERIFY_SEED, 2)
    h = 1e-5
    worst = 0.0
    for name in gmm_preset_names():
        g = resolve_gmm(name)
        if g.dim > 4:
            continue
        x = rng.normal(scale=2.0, size=(100, g.dim))
        for t in np.linspace(0.05, 0.95, 10):
            s = models.score_from_velocity(models.velocity_from_gmm(g, x, t), x, t)
            fd = np.empty_like(x)
            for axis in range(g.dim):
                step = np.zeros(g.dim)
                step[axis] = h
                fd[:, axis] = (
                    models.gmm_flow_log_density(g, x + step, t)
                    - models.gmm_flow_log_density(g, x - step, t)
                ) / (2 * h)
            denom = np.maximum(np.linalg.norm(fd, axis=1), 1.0)
            rel = np.linalg.norm(s - fd, axis=1) / denom
            worst = max(worst, float(np.max(rel)))
    return VerifyCheck(
        metrics.MetricReport.thresholded("flow-duality", worst, 1e-5, "le"),
        hard=True,
    )


def check_coupling_gradient() -> VerifyCheck:
    rng = generator(_VERIFY_SEED, 3)
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        lam = float(rng.uniform(0.1, 3.0))
        grad = coupling.coupling_gradient(x, y, lam)
        fd = np.empty_like(x)
        for axis in range(4):
            step = np.zeros(4)
            step[axis] = h
            fd[axis] = (
                coupling.coupling_energy(x + step, y, lam)
                - coupling.coupling_energy(x - step, y, lam)
            ) / (2 * h)
        worst = max(worst, float(np.max(np.abs(grad - fd))))
    return VerifyCheck(
        metrics.MetricReport.thresholded("coupling-gradient-fd", worst, 1e-6, "le"),
        hard=True,
    )


def check_lambda_zero_reduction() -> VerifyCheck:
    gmm_a, gmm_b, _ = resolve_pair("separated-pair")
    sched = _default_schedule()
    cfg = sampler.SamplerConfig()
    cpl = coupling.CouplingConfig(lam=0.0)
    seed = 7
    run = coupling.coupled_sample(
        models.GmmScoreModel(gmm_a), models.GmmScoreModel(gmm_b), sched, cfg, cpl,
        seed=seed, n=64,
    )
    solo_a = sampler.sample(models.GmmScoreModel(gmm_a), sched, cfg,
                            derive_seed(seed, CHAIN_A), 64)
    solo_b = sampler.sample(models.GmmScoreModel(gmm_b), sched, cfg,
                            derive_seed(seed, CHAIN_B), 64)
    diff = max(
        float(np.max(np.abs(run.batch_a.samples - solo_a.samples))),
        float(np.max(np.abs(run.batch_b.samples - solo_b.samples))),
    )
    return VerifyCheck(
        metrics.MetricReport.thresholded("lambda-zero-reduction", diff, 0.0, "le",
                                         seed=seed, sample_count=64),
        hard=True,
    )


def check_fixed_point_band(n: int = 4096) -> VerifyCheck:
    """Soft gate: coupled chain means vs the mutual-tilt reference, lam in
    {0.5, 1, 2} on the separated Gaussian pair."""
    gmm_a, gmm_b, _ = resolve_pair("separated-pair")
    sched = _default_schedule()
    cfg = sampler.SamplerConfig()
    mu_a, mu_b = gmm_a.means[0], gmm_b.means[0]
    worst = 0.0
    seed = 11
    for lam in (0.5, 1.0, 2.0):
        cpl = coupling.CouplingConfig(lam=lam)
        run = coupling.coupled_sample(
            models.GmmScoreModel(gmm_a), models.GmmScoreModel(gmm_b), sched, cfg, cpl,
            seed=seed, n=n,
        )
        ref_a = coupling.mutual_tilt_fixed_point(mu_a, mu_b, lam)
        ref_b = coupling.mutual_tilt_fixed_point(mu_b, mu_a, lam)
        worst = max(
            worst,
            float(np.linalg.norm(run.batch_a.samples.mean(axis=0) - ref_a)),
            float(np.linalg.norm(run.batch_b.samples.mean(axis=0) - ref_b)),
        )
    return VerifyCheck(
        metrics.MetricReport.thresholded("fixed-point-band", worst, 0.15, "le",
                                         seed=seed, sample_count=n),
        hard=False,
    )


def run_verify() -> list:
    """All checks, in report order."""
    return [
        check_edm_roundtrip(),
        check_shift_composition(),
        check_align_identity(),
        check_score_finite_difference(),
        check_flow_duality(),
        check_coupling_gradient(),
        check_lambda_zero_reduction(),
        check_fixed_point_band(),
    ]
