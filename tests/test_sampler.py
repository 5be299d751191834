import math

import numpy as np
import pytest

from coupled_sampler.models import Gmm, GmmScoreModel
from coupled_sampler.sampler import (
    SamplerConfig,
    _step,
    sample,
    x0_from_epsilon,
)
from coupled_sampler.schedule import build_linear


def std_normal_model(d=2):
    return GmmScoreModel(Gmm.from_covariances([1.0], [np.zeros(d)], [np.eye(d)]))


def gaussian_model(mu, d=2):
    return GmmScoreModel(Gmm.from_covariances([1.0], [mu], [np.eye(d)]))


class TestX0FromEpsilon:
    def test_zero_prediction(self):
        x = np.array([1.2, -0.4])
        assert x0_from_epsilon(x, np.zeros(2), 0.36) == pytest.approx(x / 0.6, rel=1e-15)

    def test_hand_case(self):
        out = x0_from_epsilon(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.25)
        assert out[0] == pytest.approx(0.2679491924311228, rel=1e-14)
        assert out[1] == 0.0

    def test_inverts_forward_reparameterization(self):
        rng = np.random.default_rng(0)
        mu = rng.normal(size=3)
        eps = rng.normal(size=3)
        ab = 0.41
        x_t = math.sqrt(ab) * mu + math.sqrt(1 - ab) * eps
        assert x0_from_epsilon(x_t, eps, ab) == pytest.approx(mu, rel=1e-12)

    def test_rejects_degenerate_levels(self):
        for ab in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                x0_from_epsilon(np.zeros(2), np.zeros(2), ab)


class TestSteps:
    def setup_method(self):
        # beta = [0.1, 0.2, 0.3], alpha_bar = [0.9, 0.72, 0.504]
        self.sched = build_linear(3, 0.1, 0.3)

    def test_final_step_returns_clean_estimate(self):
        x = np.array([0.7, -1.1])
        eps = np.array([0.2, 0.4])
        x0, out = _step(x, eps, np.ones(2), self.sched, 1, 0, "ancestral")  # z is not used
        assert np.array_equal(out, x0_from_epsilon(x, eps, 0.9))
        assert np.array_equal(x0, out)
        assert np.array_equal(_step(x, eps, None, self.sched, 1, 0, "deterministic")[1], out)

    def test_ancestral_mean_hand_case(self):
        # (x - beta_2 / sqrt(1 - ab_2) eps) / sqrt(alpha_2), frozen arithmetic
        _, out = _step(np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.zeros(2), self.sched,
                       2, 1, "ancestral")
        assert out == pytest.approx([1.118033988749895, -0.4225771273642583], rel=1e-12)

    def test_deterministic_hand_case(self):
        # sqrt(ab_1) x0 + sqrt(1 - ab_1) eps with x0 from the same inputs
        _, out = _step(np.array([1.0, 0.0]), np.array([0.0, 1.0]), None, self.sched,
                       2, 1, "deterministic")
        assert out == pytest.approx([1.1180339887498947, -0.2753802122931236], rel=1e-12)

    def test_variance_rules_scale_noise(self):
        x, eps = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        zeros, ones = np.zeros(2), np.ones(2)
        base = _step(x, eps, zeros, self.sched, 2, 1, "ancestral")[1]
        beta_out = _step(x, eps, ones, self.sched, 2, 1, "ancestral")[1]
        assert beta_out - base == pytest.approx(math.sqrt(0.2) * np.ones(2), rel=1e-12)

    def test_ddim_is_deterministic(self):
        x = np.random.default_rng(1).normal(size=(4, 2))
        eps = np.random.default_rng(2).normal(size=(4, 2))
        assert np.array_equal(_step(x, eps, None, self.sched, 3, 2, "deterministic")[1],
                              _step(x, eps, None, self.sched, 3, 2, "deterministic")[1])

    def test_step_range_checked(self):
        with pytest.raises(ValueError):
            _step(np.zeros(2), np.zeros(2), np.zeros(2), self.sched, 0, -1, "ancestral")
        with pytest.raises(ValueError):
            _step(np.zeros(2), np.zeros(2), None, self.sched, 4, 3, "deterministic")


class TestSamplerConfig:
    def test_rejects_unknown_tokens(self):
        with pytest.raises(ValueError):
            SamplerConfig(kind="euler")

    def test_step_subset_validation(self):
        sched = build_linear(10, 0.01, 0.2)
        good = SamplerConfig(step_subset=(10, 7, 4, 1))
        assert good.steps_for(sched) == [10, 7, 4, 1]
        for subset in [(9, 5, 1), (10, 5), (10, 5, 5, 1), (10, 4, 7, 1), ()]:
            with pytest.raises(ValueError):
                SamplerConfig(step_subset=subset).steps_for(sched)

    @pytest.mark.parametrize("subset", ["61", (60, 30.9, 1), (60, True), (60, np.float64(30), 1),
                                        (60, "30", 1), (60, np.bool_(True))])
    def test_step_subset_rejects_non_integers(self, subset):
        with pytest.raises(ValueError, match="step_subset"):
            SamplerConfig(step_subset=subset)

    def test_step_subset_accepts_python_and_numpy_ints(self):
        cfg = SamplerConfig(step_subset=(np.int64(10), 7, np.int32(4), 1))
        assert cfg.step_subset == (10, 7, 4, 1)
        assert all(type(t) is int for t in cfg.step_subset)


class TestSample:
    def test_seed_determinism(self):
        sched = build_linear(40, 1e-3, 0.2)
        cfg = SamplerConfig()
        a = sample(std_normal_model(), sched, cfg, seed=9, n=64)
        b = sample(std_normal_model(), sched, cfg, seed=9, n=64)
        assert np.array_equal(a.samples, b.samples)
        c = sample(std_normal_model(), sched, cfg, seed=10, n=64)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("seed", [7.9, 7.0, True, "7", None])
    def test_seed_must_be_an_integer(self, seed):
        sched = build_linear(10, 1e-3, 0.2)
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            sample(std_normal_model(), sched, SamplerConfig(), seed=seed, n=4)

    def test_numpy_integer_seed_is_the_int_seed(self):
        sched = build_linear(10, 1e-3, 0.2)
        a = sample(std_normal_model(), sched, SamplerConfig(), seed=np.uint64(7), n=8)
        b = sample(std_normal_model(), sched, SamplerConfig(), seed=7, n=8)
        assert a.samples.tobytes() == b.samples.tobytes()

    def test_single_gaussian_moments(self):
        # T = 200 chain against closed-form target moments, CLT-size bounds
        mu = np.array([1.5, -0.5])
        sched = build_linear(200, 1e-4, 0.115)
        batch = sample(gaussian_model(mu), sched, SamplerConfig(), seed=3, n=8192)
        assert batch.samples.mean(axis=0) == pytest.approx(mu, abs=0.06)
        cov = np.cov(batch.samples.T)
        assert cov == pytest.approx(np.eye(2), abs=0.08)

    def test_two_mode_weights(self):
        g = Gmm.from_covariances(
            [0.5, 0.5], [[-3.0, 0.0], [3.0, 0.0]], [np.eye(2)] * 2
        )
        sched = build_linear(200, 1e-4, 0.115)
        batch = sample(GmmScoreModel(g), sched, SamplerConfig(), seed=4, n=8192)
        frac = np.mean(batch.samples[:, 0] > 0)
        assert abs(frac - 0.5) < 0.03

    def test_deterministic_chain_collapses_per_init(self):
        # distinct x_T spread over the target; a batch from one x_T collapses
        sched = build_linear(100, 1e-3, 0.2)
        model = std_normal_model()
        cfg = SamplerConfig(kind="deterministic")
        spread = sample(model, sched, cfg, seed=5, n=512)
        assert spread.samples.std() > 0.5
        x_common = np.tile(np.array([0.4, -1.0]), (16, 1))
        out = x_common.copy()
        for t in range(100, 0, -1):
            eps = model.predict_epsilon(out, t, sched)
            out = _step(out, eps, None, sched, t, t - 1, "deterministic")[1]
        assert np.max(np.std(out, axis=0)) < 1e-12

    def test_trajectory_recording(self):
        sched = build_linear(12, 0.01, 0.2)
        cfg = SamplerConfig(record_trajectory=True)
        batch = sample(std_normal_model(), sched, cfg, seed=1, n=3)
        traj = batch.trajectory
        assert traj.x_t.shape == traj.x0_hat.shape == traj.eps_hat.shape == (12, 3, 2)
        assert traj.steps.tolist() == list(range(12, 0, -1))
        for s in range(12):
            ab = sched.alpha_bar_at(int(traj.steps[s]))
            assert traj.x0_hat[s, 1] == pytest.approx(
                x0_from_epsilon(traj.x_t[s, 1], traj.eps_hat[s, 1], ab), rel=1e-12
            )

    def test_step_subset_runs_and_stays_deterministic(self):
        sched = build_linear(40, 1e-3, 0.25)
        cfg = SamplerConfig(step_subset=tuple(range(40, 0, -3)))
        a = sample(std_normal_model(), sched, cfg, seed=2, n=32)
        b = sample(std_normal_model(), sched, cfg, seed=2, n=32)
        assert np.array_equal(a.samples, b.samples)
        assert np.all(np.isfinite(a.samples))

    def test_model_error_carries_step_context(self):
        class Broken(GmmScoreModel):
            def predict_epsilon(self, x, t, schedule):
                raise RuntimeError("boom")

        sched = build_linear(5, 0.1, 0.2)
        model = Broken(Gmm.from_covariances([1.0], [np.zeros(2)], [np.eye(2)]))
        with pytest.raises(RuntimeError, match="step 5"):
            sample(model, sched, SamplerConfig(), seed=0, n=2)
