import math

import numpy as np
import pytest

from coupled_sampler import models, sampler
from coupled_sampler.coupling import (
    GUIDANCE_RULES,
    CouplingConfig,
    _guidance,
    coupled_sample,
    coupled_sweep,
    coupling_energy,
    coupling_gradient,
    guidance_scale,
    mutual_tilt_fixed_point,
    mv_edit_demo,
    score_average_sample,
)
from coupled_sampler.metrics import consistency_residual, coupling_distance
from coupled_sampler.models import Gmm, GmmScoreModel, ScoreModel, mv_chain_models
from coupled_sampler.presets import resolve_gmm, resolve_pair, resolve_scene
from coupled_sampler.rng import CHAIN_A, CHAIN_B, NoiseStream, derive_seed
from coupled_sampler.sampler import SamplerConfig, sample
from coupled_sampler.schedule import build_linear
from coupled_sampler.verify import central_difference


def gaussian_model(mu):
    return GmmScoreModel(Gmm.from_covariances([1.0], [mu], [np.eye(len(mu))]))


def short_schedule():
    return build_linear(60, 1e-3, 0.2)


def assert_lambda_zero_reduction(cfg, seed=19, n=32):
    """A lambda = 0 coupled run is bit-for-bit two sample() runs."""
    sched = short_schedule()
    ma, mb = gaussian_model([-2.0, 0.0]), gaussian_model([2.0, 0.0])
    run = coupled_sample(ma, mb, sched, cfg, CouplingConfig(lam=0.0), seed, n)
    for batch, model, chain in ((run.batch_a, ma, CHAIN_A), (run.batch_b, mb, CHAIN_B)):
        solo = sample(model, sched, cfg, derive_seed(seed, chain), n)
        assert np.array_equal(batch.samples, solo.samples)
        if not cfg.record_trajectory:
            assert batch.trajectory is None and solo.trajectory is None
            continue
        for field in ("steps", "x_t", "x0_hat", "eps_hat"):
            assert np.array_equal(getattr(batch.trajectory, field),
                                  getattr(solo.trajectory, field))
        assert batch.trajectory.x_t.shape == (len(cfg.steps_for(sched)), n, 2)


class TestEnergyAndGradient:
    def test_coincident_points(self):
        x = np.array([0.3, -0.4])
        assert coupling_energy(x, x, 2.0) == 0.0

    def test_hand_value(self):
        assert coupling_energy(np.array([1.0, 0.0]), np.zeros(2), 2.0) == -1.0

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            x, y = rng.normal(size=(2, 3))
            lam = rng.uniform(0.0, 3.0)
            assert coupling_energy(x, y, lam) == coupling_energy(y, x, lam)
            assert coupling_energy(x, y, lam) <= 0.0

    def test_gradient_values(self):
        assert np.array_equal(coupling_gradient(np.ones(3), np.zeros(3), 0.0), np.zeros(3))
        assert coupling_gradient(np.array([2.0, 0.0]), np.zeros(2), 1.0) == pytest.approx(
            [-2.0, 0.0]
        )

    def test_gradient_antisymmetric(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(2, 4))
        g1 = coupling_gradient(x, y, 1.7)
        g2 = coupling_gradient(y, x, 1.7)
        assert g1 == pytest.approx(-g2, rel=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = rng.normal(size=(2, 3))
            lam = rng.uniform(0.1, 4.0)
            grad = coupling_gradient(x, y, lam)
            fd = central_difference(lambda v: coupling_energy(v, y, lam), x, 1e-6)
            assert grad == pytest.approx(fd, abs=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            coupling_energy(np.zeros(2), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            coupling_gradient(np.zeros(2), np.zeros(3), 1.0)


class TestGuidanceScale:
    def test_final_jump_suppressed(self):
        sched = short_schedule()
        for rule in ("posterior_tilt", "alpha_bar_prev"):
            assert guidance_scale(sched, 1, 0, rule, 1.0) == 0.0

    def test_spec_rules(self):
        sched = short_schedule()
        t = 30
        assert guidance_scale(sched, t, t - 1, "alpha_bar_prev", 1.0) == pytest.approx(
            math.sqrt(1 - sched.alpha_bar_at(t - 1))
        )

    def test_posterior_tilt_form(self):
        sched = short_schedule()
        t, lam = 30, 2.0
        ab_t = sched.alpha_bar_at(t)
        expected = sched.beta_at(t) * math.sqrt(sched.alpha_bar_at(t - 1)) / (
            1 + 2 * lam * (1 - ab_t)
        )
        assert guidance_scale(sched, t, t - 1, "posterior_tilt", lam) == pytest.approx(
            expected, rel=1e-15
        )

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            guidance_scale(short_schedule(), 5, 4, "classifier", 1.0)


class TestCouplingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CouplingConfig(lam=-0.5)
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                CouplingConfig(lam=lam)
        with pytest.raises(ValueError):
            CouplingConfig(guidance_scale_rule="none")


class TestGuidance:
    def test_increment_pulls_toward_partner_estimate(self):
        sched = short_schedule()
        rng = np.random.default_rng(3)
        lams = (1.5, 3.0, 0.25)
        x0_a, x0_b, x_a, x_b = rng.normal(size=(4, len(lams), 8, 2))
        t = 20
        for rule in GUIDANCE_RULES:
            couplings = [CouplingConfig(lam=lam, guidance_scale_rule=rule) for lam in lams]
            xs = [x_a.copy(), x_b.copy()]
            assert _guidance(couplings, sched, t, t - 1, (x0_a, x0_b), xs)
            for l, lam in enumerate(lams):
                scale = guidance_scale(sched, t, t - 1, rule, lam)
                assert scale > 0.0
                inc = scale * (-lam * (x0_a[l] - x0_b[l]))
                # chain B moves by the exact negative of chain A's increment
                assert xs[0][l].tobytes() == (x_a[l] + inc).tobytes()
                assert xs[1][l].tobytes() == (x_b[l] + -inc).tobytes()

    def test_none_at_lambda_zero_and_on_final_jump(self):
        sched = short_schedule()
        # the estimates differ by +2 and -2, so an unmasked zero increment
        # would turn a -0.0 state into +0.0 in one chain or the other
        x0s = (np.tile([1.0, -1.0], (3, 4, 1)), np.tile([-1.0, 1.0], (3, 4, 1)))
        x_a, x_b = np.random.default_rng(4).normal(size=(2, 3, 4, 2))
        x_a[:, 0] = x_b[:, 0] = -0.0
        mixed = [CouplingConfig(lam=lam) for lam in (1.0, 0.0, 2.0)]
        xs = [x_a.copy(), x_b.copy()]
        assert _guidance(mixed, sched, 20, 19, x0s, xs)
        for got, want in zip(xs, (x_a, x_b)):
            assert got[1].tobytes() == want[1].tobytes()
            assert not np.array_equal(got[0], want[0]) and not np.array_equal(got[2], want[2])
        xs = [x_a.copy(), x_b.copy()]
        assert not _guidance([CouplingConfig(lam=0.0)] * 3, sched, 20, 19, x0s, xs)
        for rule in GUIDANCE_RULES:
            couplings = [CouplingConfig(lam=1.0, guidance_scale_rule=rule)] * 3
            for t in (1, 7):
                assert not _guidance(couplings, sched, t, 0, x0s, xs)
        assert xs[0].tobytes() == x_a.tobytes() and xs[1].tobytes() == x_b.tobytes()


class TestCoupledSample:
    def test_lambda_zero_reduction_bitwise(self):
        assert_lambda_zero_reduction(SamplerConfig())

    @pytest.mark.parametrize("cfg", [
        SamplerConfig(kind="deterministic"),
        SamplerConfig(step_subset=(60, 45, 31, 20, 8, 3, 1)),
        SamplerConfig(record_trajectory=True),
    ], ids=["deterministic", "step_subset", "record_trajectory"])
    def test_lambda_zero_reduction_bitwise_variants(self, cfg):
        assert_lambda_zero_reduction(cfg)

    def test_coupling_tightens_standard_normal_pairs(self):
        sched = short_schedule()
        model = gaussian_model([0.0, 0.0])
        cfg = SamplerConfig()
        free = coupled_sample(model, model, sched, cfg, CouplingConfig(lam=0.0), 23, 1024)
        tied = coupled_sample(model, model, sched, cfg, CouplingConfig(lam=1.0), 23, 1024)
        d_free = coupling_distance(free.batch_a, free.batch_b).median
        d_tied = coupling_distance(tied.batch_a, tied.batch_b).median
        # independent N(0, I) pairs have median distance sqrt(4 ln 2)
        assert d_free == pytest.approx(math.sqrt(4 * math.log(2)), abs=0.15)
        assert d_tied < d_free

    def test_monotone_coupling_over_lambda_grid(self):
        sched = short_schedule()
        ma, mb = gaussian_model([-2.0, 0.0]), gaussian_model([2.0, 0.0])
        cfg = SamplerConfig()
        medians = []
        for lam in (0.0, 0.5, 1.0, 2.0, 4.0):
            run = coupled_sample(ma, mb, sched, cfg, CouplingConfig(lam=lam), 31, 512)
            medians.append(coupling_distance(run.batch_a, run.batch_b).median)
        hard = any(b > a * 1.02 for a, b in zip(medians, medians[1:]))
        soft = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
        assert not hard and soft <= 1

    def test_gaussian_tilt_fixed_point(self):
        sched = build_linear(200, 1e-4, 0.115)
        mu_a, mu_b = np.array([-2.0, 0.0]), np.array([2.0, 0.0])
        ma, mb = gaussian_model(mu_a), gaussian_model(mu_b)
        run = coupled_sample(ma, mb, sched, SamplerConfig(), CouplingConfig(lam=1.0),
                             seed=13, n=2048)
        ref = mutual_tilt_fixed_point(mu_a, mu_b, 1.0)
        assert ref == pytest.approx([-2.0 / 3.0, 0.0], abs=1e-12)
        assert run.batch_a.samples.mean(axis=0) == pytest.approx(ref, abs=0.1)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            coupled_sample(gaussian_model([0.0, 0.0]), gaussian_model([0.0, 0.0, 0.0]),
                           short_schedule(), SamplerConfig(), CouplingConfig(), 0, 4)

    def test_chain_error_context(self):
        class Broken(GmmScoreModel):
            def predict_epsilon(self, x, t, schedule):
                raise RuntimeError("boom")

        sched = short_schedule()
        bad = Broken(Gmm.from_covariances([1.0], [np.zeros(2)], [np.eye(2)]))
        with pytest.raises(RuntimeError, match="chain B"):
            coupled_sample(gaussian_model([0.0, 0.0]), bad, sched, SamplerConfig(),
                           CouplingConfig(), 0, 4)

    def test_non_finite_own_update_names_chain_step_and_cause(self):
        class InfAtStep(GmmScoreModel):
            def predict_epsilon(self, x, t, schedule):
                eps = super().predict_epsilon(x, t, schedule)
                return np.full_like(eps, np.inf) if t == 37 else eps

        bad = InfAtStep(Gmm.from_covariances([1.0], [np.zeros(2)], [np.eye(2)]))
        with pytest.raises(RuntimeError, match="^chain B: non-finite state at step 37 "
                                               r"from its own update \(model or step\)$"):
            coupled_sample(gaussian_model([0.0, 0.0]), bad, short_schedule(), SamplerConfig(),
                           CouplingConfig(), 0, 4)


def chain_models(source):
    """(model_a, model_b) of a preset pair, the mv-triangle scene or two mixtures."""
    if source == "mv-triangle":
        return mv_chain_models(resolve_scene(source))
    if source == "mixtures":
        return GmmScoreModel(resolve_gmm("bimodal-2d")), GmmScoreModel(resolve_gmm("anis-3c-2d"))
    gmm_a, gmm_b = resolve_pair(source)
    return GmmScoreModel(gmm_a), GmmScoreModel(gmm_b)


class _Spy(ScoreModel):
    """Records the row count of every call before delegating."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = []

    @property
    def dim(self):
        return self.inner.dim

    def predict_epsilon(self, x, t, schedule):
        self.rows.append(np.shape(x)[0])
        return self.inner.predict_epsilon(x, t, schedule)

    def describe(self):
        return self.inner.describe()


_SWEEP_VARIANTS = {
    # (lambda grid, sampler config, guidance rule, chunk bound in copies or None)
    "leading_zero": ([0.0, 0.5, 1.0, 2.0, 4.0], SamplerConfig(), "posterior_tilt", None),
    "deterministic": ([0.25, 1.0, 3.0], SamplerConfig(kind="deterministic"), "posterior_tilt",
                      None),
    "subset_alpha_bar_prev": ([0.0, 0.5, 2.0], SamplerConfig(step_subset=(30, 22, 13, 6, 2, 1)),
                              "alpha_bar_prev", None),
    "two_copy_chunks": ([0.0, 0.5, 1.0, 2.0, 4.0], SamplerConfig(), "posterior_tilt", 2),
}


class TestCoupledSweep:
    @pytest.mark.parametrize("variant", sorted(_SWEEP_VARIANTS))
    @pytest.mark.parametrize("n", [1, 2, 37])
    @pytest.mark.parametrize("source",
                             ["separated-pair", "two-moons-pair", "mv-triangle", "mixtures"])
    def test_each_copy_is_the_single_lambda_run(self, monkeypatch, source, n, variant):
        grid, cfg, rule, per_chunk = _SWEEP_VARIANTS[variant]
        ma, mb = chain_models(source)
        if per_chunk is not None:
            monkeypatch.setattr(sampler, "_CHUNK_ELEMENTS", per_chunk * n * ma.dim)
        sched = build_linear(30, 1e-3, 0.3)
        couplings = [CouplingConfig(lam=lam, guidance_scale_rule=rule) for lam in grid]
        sweep = coupled_sweep(ma, mb, sched, cfg, couplings, 13, n)
        assert len(sweep) == len(grid)
        for cpl, run in zip(couplings, sweep):
            solo = coupled_sample(ma, mb, sched, cfg, cpl, 13, n)
            # tobytes compares every bit, the sign of zeros included
            for got, want in ((run.batch_a.samples, solo.batch_a.samples),
                              (run.batch_b.samples, solo.batch_b.samples),
                              (run.coupling_series, solo.coupling_series),
                              (run.series_steps, solo.series_steps)):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 37, 2048])
    @pytest.mark.parametrize("source", ["separated-pair", "mv-triangle"])
    def test_model_calls_stay_within_the_chunk_bound(self, source, n):
        ma, mb = (_Spy(m) for m in chain_models(source))
        grid = [0.0, 0.5, 1.0, 2.0, 4.0]
        coupled_sweep(ma, mb, build_linear(5, 1e-2, 0.3), SamplerConfig(),
                      [CouplingConfig(lam=lam) for lam in grid], 3, n)
        rows = ma.rows + mb.rows
        d = ma.dim
        assert rows and all(r % n == 0 for r in rows)
        assert max(rows) * d <= max(sampler._CHUNK_ELEMENTS, n * d)
        if n == 1:
            assert set(rows) == {1}  # a 1-row call rounds differently; never merged
        elif 2 * n * d <= sampler._CHUNK_ELEMENTS:
            assert max(rows) > n  # copies were merged
        else:
            assert set(rows) == {n}

    def test_one_table_per_model_per_step(self, monkeypatch):
        ma, mb = (_Spy(m) for m in chain_models("mv-triangle"))
        n, steps = 16, 12
        monkeypatch.setattr(sampler, "_CHUNK_ELEMENTS", n * ma.dim)  # one copy per chunk
        builds = []
        build = models._noised_level

        def counted(g, alpha_bar):
            builds.append((id(g), alpha_bar))
            return build(g, alpha_bar)

        monkeypatch.setattr(models, "_noised_level", counted)
        coupled_sweep(ma, mb, build_linear(steps, 1e-2, 0.3), SamplerConfig(),
                      [CouplingConfig(lam=lam) for lam in (0.0, 0.5, 1.0, 2.0, 4.0)], 3, n)
        assert len(ma.rows) == len(mb.rows) == 5 * steps  # five chunks per step
        # the chunks of a step share the table of its level
        assert len(builds) == len(set(builds)) == 2 * steps
        assert len({g for g, _ in builds}) == 2

    @pytest.mark.parametrize("cfg", [SamplerConfig(), SamplerConfig(step_subset=(30, 17, 4, 1))],
                             ids=["all_steps", "step_subset"])
    @pytest.mark.parametrize("copies", [1, 3, 5])
    def test_noise_drawn_once_per_chain_per_step(self, monkeypatch, cfg, copies):
        draws = []
        normal = NoiseStream.normal

        def counted(self, shape, *labels):
            draws.append(shape)
            return normal(self, shape, *labels)

        monkeypatch.setattr(NoiseStream, "normal", counted)
        sched = build_linear(30, 1e-3, 0.3)
        ma, mb = chain_models("separated-pair")
        coupled_sweep(ma, mb, sched, cfg, [CouplingConfig(lam=0.5 * l) for l in range(copies)],
                      5, 16)
        S = len(cfg.steps_for(sched))
        assert len(draws) == 2 + 2 * (S - 1)
        assert set(draws) == {(16, 2)}

    def test_trajectory_needs_a_single_lambda(self):
        ma, mb = chain_models("separated-pair")
        cfg = SamplerConfig(record_trajectory=True)
        with pytest.raises(ValueError, match="single copy"):
            coupled_sweep(ma, mb, short_schedule(), cfg,
                          [CouplingConfig(lam=0.0), CouplingConfig(lam=1.0)], 0, 4)
        (run,) = coupled_sweep(ma, mb, short_schedule(), cfg, [CouplingConfig(lam=1.0)], 0, 4)
        assert run.batch_a.trajectory.x_t.shape == (60, 4, 2)

    def test_empty_coupling_list_rejected(self):
        ma, mb = chain_models("separated-pair")
        with pytest.raises(ValueError, match="at least one coupling"):
            coupled_sweep(ma, mb, short_schedule(), SamplerConfig(), [], 0, 4)


class TestScoreAverage:
    def test_single_model_identity(self):
        sched = short_schedule()
        model = gaussian_model([1.0, 0.5])
        cfg = SamplerConfig()
        avg = score_average_sample([model], [1.0], sched, cfg, seed=3, n=16)
        solo = sample(model, sched, cfg, seed=3, n=16)
        assert np.array_equal(avg.samples, solo.samples)

    def test_model_averaged_with_itself(self):
        sched = short_schedule()
        model = gaussian_model([1.0, 0.5])
        cfg = SamplerConfig()
        avg = score_average_sample([model, model], [0.5, 0.5], sched, cfg, seed=3, n=64)
        solo = sample(model, sched, cfg, seed=3, n=64)
        assert avg.samples == pytest.approx(solo.samples, rel=1e-12)

    def test_opposed_means_concentrate_at_midpoint(self):
        sched = build_linear(200, 1e-4, 0.115)
        ma, mb = gaussian_model([-2.0, 0.0]), gaussian_model([2.0, 0.0])
        avg = score_average_sample([ma, mb], [0.5, 0.5], sched, SamplerConfig(),
                                   seed=3, n=2048)
        assert np.linalg.norm(avg.samples.mean(axis=0)) < 0.1

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            score_average_sample(
                [gaussian_model([0.0, 0.0])], [0.7], short_schedule(),
                SamplerConfig(), 0, 4,
            )


def residuals(scene, batch):
    return consistency_residual(batch.samples, scene.n_views, scene.view_dim)


class TestMvEditDemo:
    def test_lambda_zero_residual_scales(self):
        scene = resolve_scene("mv-triangle")
        sched = build_linear(120, 1e-3, 0.12)
        run = mv_edit_demo(scene, sched, CouplingConfig(lam=0.0), seed=2, n=512)
        # independent per-view edits are widely inconsistent; the joint model
        # keeps views jitter-tight
        assert np.median(residuals(scene, run.batch_a)) > 1.0
        assert np.median(residuals(scene, run.batch_b)) < 10 * scene.jitter

    def test_coupled_run_aligns_edit_chain(self):
        scene = resolve_scene("mv-triangle")
        sched = build_linear(120, 1e-3, 0.12)
        free = mv_edit_demo(scene, sched, CouplingConfig(lam=0.0), seed=2, n=512)
        tied = mv_edit_demo(scene, sched, CouplingConfig(lam=1.0), seed=2, n=512)
        # measured ~0.63x at this step count; coupling must visibly pull the
        # per-view edit chain together
        free_a = np.median(residuals(scene, free.batch_a))
        assert np.median(residuals(scene, tied.batch_a)) < 0.75 * free_a
        assert np.median(residuals(scene, tied.batch_b)) <= 0.3 * free_a

    def test_cross_chain_distance_non_increasing_in_lambda(self):
        scene = resolve_scene("mv-triangle")
        sched = build_linear(120, 1e-3, 0.12)
        medians = []
        for lam in (0.0, 0.5, 1.0, 2.0):
            run = mv_edit_demo(scene, sched, CouplingConfig(lam=lam), seed=6, n=256)
            medians.append(coupling_distance(run.batch_a, run.batch_b).median)
        hard = any(b > a * 1.02 for a, b in zip(medians, medians[1:]))
        soft = sum(1 for a, b in zip(medians, medians[1:]) if b > a)
        assert not hard and soft <= 1, medians

    def test_one_mixture_evaluation_per_chain_per_step(self, monkeypatch):
        calls = []
        evaluate = models._mixture_eval

        def counted(*args, **kwargs):
            calls.append(None)
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(models, "_mixture_eval", counted)
        sched = build_linear(20, 1e-3, 0.2)
        mv_edit_demo(resolve_scene("mv-triangle"), sched, CouplingConfig(lam=1.0), seed=3, n=16)
        # the edit chain evaluates all three views in one call
        assert len(calls) == 2 * sched.num_steps


class TestMutualTiltFixedPoint:
    def test_reference_values(self):
        fp = mutual_tilt_fixed_point([-2.0, 0.0], [2.0, 0.0], 1.0)
        assert fp == pytest.approx([-2.0 / 3.0, 0.0])
        fp = mutual_tilt_fixed_point([2.0, 0.0], [-2.0, 0.0], 2.0)
        assert fp == pytest.approx([0.4, 0.0])

    def test_solves_tilt_equations(self):
        rng = np.random.default_rng(5)
        mu_a, mu_b = rng.normal(size=(2, 3))
        lam = 1.7
        m_a = mutual_tilt_fixed_point(mu_a, mu_b, lam)
        m_b = mutual_tilt_fixed_point(mu_b, mu_a, lam)
        assert m_a == pytest.approx((mu_a + lam * m_b) / (1 + lam), rel=1e-12)
        assert m_b == pytest.approx((mu_b + lam * m_a) / (1 + lam), rel=1e-12)
