import gc
import math
import sys
import warnings
import weakref

import numpy as np
import pytest
import scipy
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from coupled_sampler import models
from coupled_sampler.models import (
    BlockProductModel,
    Gmm,
    GmmScoreModel,
    GmmVelocityModel,
    MvScene,
    _load_fblas,
    gmm_flow_log_density,
    gmm_noised_log_density,
    gmm_sample,
    mv_consistent_model,
    mv_view_marginal,
    score_from_velocity,
)
from coupled_sampler.metrics import energy_permutation_test
from coupled_sampler.presets import resolve_gmm
from coupled_sampler.sampler import SamplerConfig, sample
from coupled_sampler.schedule import build_linear
from coupled_sampler.verify import central_difference, flow_duality_error

LOG_2PI = math.log(2.0 * math.pi)


def std_normal(d=2):
    return Gmm.from_covariances([1.0], [np.zeros(d)], [np.eye(d)])


def random_gmm(rng, k=3, d=2, spread=2.5):
    w = rng.uniform(0.2, 1.0, k)
    w /= w.sum()
    means = rng.normal(scale=spread, size=(k, d))
    covs = []
    for _ in range(k):
        a = rng.normal(size=(d, d)) * 0.4
        covs.append(a @ a.T + np.eye(d) * rng.uniform(0.3, 1.0))
    return Gmm.from_covariances(w, means, covs)


class TestGmmConstruction:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError, match="weights"):
            Gmm.from_covariances([0.6, 0.6], np.zeros((2, 2)), [np.eye(2)] * 2)
        with pytest.raises(ValueError, match="weights"):
            Gmm.from_covariances([1.5, -0.5], np.zeros((2, 2)), [np.eye(2)] * 2)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            Gmm.from_covariances([1.0], np.zeros((1, 0)), np.zeros((1, 0, 0)))

    @pytest.mark.parametrize("weights, mean, cov, field", [
        ([math.nan, 1.0], [0.0, 0.0], np.eye(2), "weights"),
        ([math.inf, 0.0], [0.0, 0.0], np.eye(2), "weights"),
        ([0.5, 0.5], [math.nan, 0.0], np.eye(2), "means"),
        ([0.5, 0.5], [0.0, -math.inf], np.eye(2), "means"),
        ([0.5, 0.5], [0.0, 0.0], [[math.nan, 0.0], [0.0, 1.0]], "covariances"),
    ], ids=["nan-weight", "inf-weight", "nan-mean", "inf-mean", "nan-covariance"])
    def test_rejects_non_finite_entries(self, weights, mean, cov, field):
        with pytest.raises(ValueError, match=field):
            Gmm.from_covariances(weights, [mean, [1.0, 1.0]], [cov, np.eye(2)])

    def test_rejects_non_finite_factor(self):
        factor = np.array([[1.0, 0.0], [math.inf, 1.0]])
        with pytest.raises(ValueError, match="chol_factors"):
            Gmm(weights=np.ones(1), means=np.zeros((1, 2)), chol_factors=factor[None])

    def test_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            Gmm.from_covariances([1.0], [[0.0, 0.0]], [[[1.0, 2.0], [2.0, 1.0]]])

    # Cholesky reads only the lower triangle: the first ran as the identity
    @pytest.mark.parametrize("cov", [
        [[1.0, 5.0], [0.0, 1.0]],
        [[1.0, 0.0], [0.9, 1.0]],
        [[1.0, math.nextafter(0.5, 1.0)], [0.5, 1.0]],
    ], ids=["upper_only", "lower_only", "one_ulp_apart"])
    def test_rejects_non_symmetric(self, cov):
        with pytest.raises(ValueError, match="covariances must be symmetric"):
            Gmm.from_covariances([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [np.eye(2), cov])

    def test_round_trip_dict(self):
        rng = np.random.default_rng(0)
        g = random_gmm(rng)
        out = Gmm.from_dict(g.to_dict())
        assert np.allclose(out.covariances(), g.covariances())
        assert np.array_equal(out.means, g.means)

    def test_zero_weight_component_allowed(self):
        g = Gmm.from_covariances(
            [1.0, 0.0], [[0.0, 0.0], [50.0, 0.0]], [np.eye(2)] * 2
        )
        x = np.array([0.3, -0.2])
        ref = gmm_noised_log_density(std_normal(), x, 0.7)
        assert gmm_noised_log_density(g, x, 0.7) == pytest.approx(ref, rel=1e-12)


class TestNoisedLogDensity:
    def test_standard_normal_invariant_under_noising(self):
        g = std_normal()
        x = np.array([[0.4, -1.2], [2.0, 0.5]])
        clean = gmm_noised_log_density(g, x, 1.0)
        for ab in (0.1, 0.5, 0.999):
            assert gmm_noised_log_density(g, x, ab) == pytest.approx(clean, rel=1e-12)

    def test_single_gaussian_at_noised_mean(self):
        mu = np.array([1.5, -2.0])
        g = Gmm.from_covariances([1.0], [mu], [np.eye(2)])
        val = gmm_noised_log_density(g, 0.5 * mu, 0.25)
        assert val == pytest.approx(-LOG_2PI, rel=1e-12)

    def test_matches_quadrature_convolution(self):
        # p_t(x) = integral p_data(x0) N(x; sqrt(ab) x0, (1-ab) I) dx0 on a
        # fine trapezoid grid
        g = Gmm.from_covariances(
            [0.4, 0.6],
            [[-1.0, 0.5], [1.2, -0.8]],
            [[[0.5, 0.1], [0.1, 0.7]], [[0.9, -0.2], [-0.2, 0.4]]],
        )
        ab = 0.7
        x = np.array([0.3, -1.1])
        grid = np.linspace(-8.0, 8.0, 401)
        h = grid[1] - grid[0]
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        p0 = np.exp(gmm_noised_log_density(g, pts, 1.0))
        diff = x[None, :] - math.sqrt(ab) * pts
        kernel = np.exp(-0.5 * (diff**2).sum(1) / (1 - ab)) / (2 * math.pi * (1 - ab))
        quad = float((p0 * kernel).sum() * h * h)
        assert gmm_noised_log_density(g, x, ab) == pytest.approx(math.log(quad), abs=1e-6)

    def test_overflowing_row_is_minus_inf_without_warnings(self):
        # The row's Mahalanobis terms overflow to inf, which over="ignore"
        # silences; nothing else on the density path may warn.
        g = resolve_gmm("anis-3c-2d")
        x = np.array([[0.3, -1.1], [1e160, 1e160], [-2.0, 0.4]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                val = gmm_noised_log_density(g, x, 0.5)
        assert val[1] == -np.inf
        assert np.isfinite(val[[0, 2]]).all()
        assert np.array_equal(val[[0, 2]], gmm_noised_log_density(g, x[[0, 2]], 0.5))

    def test_rejects_bad_inputs(self):
        g = std_normal()
        with pytest.raises(ValueError):
            gmm_noised_log_density(g, np.zeros(3), 0.5)
        for ab in (0.0, 1.1):
            with pytest.raises(ValueError):
                gmm_noised_log_density(g, np.zeros(2), ab)


class TestEpsilon:
    def test_standard_normal_closed_form(self):
        g = std_normal()
        x = np.array([[0.7, -0.3], [-1.5, 2.0]])
        for ab in (0.2, 0.5, 0.9):
            eps = GmmScoreModel(g).epsilon(x, ab)
            assert eps == pytest.approx(math.sqrt(1 - ab) * x, rel=1e-12)
            x0 = (x - math.sqrt(1 - ab) * eps) / math.sqrt(ab)
            assert x0 == pytest.approx(math.sqrt(ab) * x, rel=1e-12)

    def test_zero_at_noised_mean(self):
        mu = np.array([2.0, -1.0])
        g = Gmm.from_covariances([1.0], [mu], [np.eye(2)])
        ab = 0.3
        eps = GmmScoreModel(g).epsilon(math.sqrt(ab) * mu, ab)
        assert np.max(np.abs(eps)) < 1e-12

    def test_matches_finite_difference_of_log_density(self):
        rng = np.random.default_rng(3)
        g = random_gmm(rng)
        ab = 0.5
        x = rng.normal(scale=2.0, size=(100, 2))
        eps = GmmScoreModel(g).epsilon(x, ab)
        fd = central_difference(lambda y: gmm_noised_log_density(g, y, ab), x, 1e-5)
        assert np.max(np.abs(eps - (-math.sqrt(1 - ab) * fd))) < 1e-5

    def test_tweedie_posterior_mean_against_quadrature(self):
        # x0_hat from the epsilon prediction equals E[x0 | x_t] by quadrature
        g = Gmm.from_covariances(
            [0.5, 0.5], [[-1.5, 0.0], [1.5, 0.5]], [np.eye(2) * 0.6, np.eye(2) * 1.1]
        )
        ab = 0.4
        x = np.array([0.4, 0.2])
        eps = GmmScoreModel(g).epsilon(x, ab)
        x0_hat = (x - math.sqrt(1 - ab) * eps) / math.sqrt(ab)
        grid = np.linspace(-7.0, 7.0, 301)
        h = grid[1] - grid[0]
        xx, yy = np.meshgrid(grid, grid, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=1)
        p0 = np.exp(gmm_noised_log_density(g, pts, 1.0))
        diff = x[None, :] - math.sqrt(ab) * pts
        lik = np.exp(-0.5 * (diff**2).sum(1) / (1 - ab))
        w = p0 * lik
        post_mean = (pts * w[:, None]).sum(0) / w.sum()
        assert x0_hat == pytest.approx(post_mean, abs=1e-6)

    def test_rejects_zero_noise(self):
        g = std_normal()
        for ab in (1.0, 0.0):
            with pytest.raises(ValueError):
                GmmScoreModel(g).epsilon(np.zeros(2), ab)

    def test_purity(self):
        rng = np.random.default_rng(5)
        g = random_gmm(rng)
        x = rng.normal(size=(8, 2))
        a = GmmScoreModel(g).epsilon(x, 0.37)
        b = GmmScoreModel(g).epsilon(x, 0.37)
        assert np.array_equal(a, b)


class TestSampling:
    def test_mean_clt_bound(self):
        g = std_normal()
        x = gmm_sample(g, 100_000, np.random.default_rng(11))
        assert np.max(np.abs(x.mean(axis=0))) < 0.02  # 5 sigma / sqrt(n) margin

    def test_degenerate_weights_select_single_component(self):
        g = Gmm.from_covariances(
            [1.0, 0.0], [[0.0, 0.0], [100.0, 0.0]], [np.eye(2) * 1e-4] * 2
        )
        x = gmm_sample(g, 500, np.random.default_rng(2))
        assert np.max(np.abs(x[:, 0])) < 1.0

    def test_empirical_covariance(self):
        rng = np.random.default_rng(17)
        g = random_gmm(rng, k=1)
        x = gmm_sample(g, 100_000, np.random.default_rng(4))
        emp = np.cov(x.T)
        assert np.max(np.abs(emp - g.covariances()[0])) < 0.05

    def test_rejects_empty_draw(self):
        with pytest.raises(ValueError):
            gmm_sample(std_normal(), 0, np.random.default_rng(0))


class TestBlockProduct:
    def test_single_block_is_identity(self):
        rng = np.random.default_rng(9)
        g = random_gmm(rng)
        sched = build_linear(10, 0.05, 0.3)
        model = BlockProductModel(GmmScoreModel(g), 1)
        x = rng.normal(size=(6, 2))
        assert np.array_equal(
            model.predict_epsilon(x, 4, sched), GmmScoreModel(g).predict_epsilon(x, 4, sched)
        )

    def test_two_standard_normal_blocks(self):
        sched = build_linear(10, 0.05, 0.3)
        model = BlockProductModel(GmmScoreModel(std_normal()), 2)
        x = np.random.default_rng(1).normal(size=(5, 4))
        ab = sched.alpha_bar_at(3)
        assert model.predict_epsilon(x, 3, sched) == pytest.approx(
            math.sqrt(1 - ab) * x, rel=1e-12
        )

    def test_matches_product_mixture(self):
        rng = np.random.default_rng(23)
        g = random_gmm(rng, k=3)
        # explicit K*K product mixture of g with itself over the two views
        weights, means, covs = [], [], []
        for i in range(3):
            for j in range(3):
                weights.append(g.weights[i] * g.weights[j])
                means.append(np.concatenate([g.means[i], g.means[j]]))
                c = np.zeros((4, 4))
                c[:2, :2] = g.covariances()[i]
                c[2:, 2:] = g.covariances()[j]
                covs.append(c)
        product = Gmm.from_covariances(weights, means, covs)
        model = BlockProductModel(GmmScoreModel(g), 2)
        sched = build_linear(10, 0.05, 0.3)
        x = rng.normal(scale=1.5, size=(40, 4))
        for t in (1, 5, 10):
            ab = sched.alpha_bar_at(t)
            assert model.predict_epsilon(x, t, sched) == pytest.approx(
                GmmScoreModel(product).epsilon(x, ab), abs=1e-10
            )

    def test_folded_call_matches_per_view_calls(self):
        rng = np.random.default_rng(31)
        block = GmmScoreModel(random_gmm(rng, k=3))
        model = BlockProductModel(block, 3)
        sched = build_linear(10, 0.05, 0.3)
        wide = rng.normal(scale=2.0, size=(2, 5, 12))
        cases = {
            "n=1": rng.normal(scale=2.0, size=(1, 6)),
            "n=7": rng.normal(scale=2.0, size=(7, 6)),
            "batch axis": rng.normal(scale=2.0, size=(2, 3, 6)),
            "non-contiguous": wide[0, :, :6],
            "non-contiguous, batch axis": wide[..., ::2],
        }
        for name, x in cases.items():
            per_view = np.concatenate(
                [block.predict_epsilon(x[..., 2 * v:2 * v + 2], 4, sched) for v in range(3)],
                axis=-1,
            )
            folded = model.predict_epsilon(x, 4, sched)
            assert np.array_equal(folded, per_view), name
        with pytest.raises(ValueError, match="dimension"):
            model.predict_epsilon(np.zeros((4, 4)), 4, sched)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BlockProductModel(GmmScoreModel(std_normal()), 0)


class TestMvScene:
    def scene(self, tau=0.05, k=1, sigma=1.0):
        d = 2
        if k == 1:
            latent = Gmm.from_covariances([1.0], [np.zeros(d)], [np.eye(d) * sigma])
        else:
            latent = random_gmm(np.random.default_rng(31), k=k, d=d)
        return MvScene(
            n_views=3, view_dim=d, latent_gmm=latent, jitter=tau, edit_gmm=latent
        )

    def test_joint_covariance_block_structure(self):
        scene = self.scene(tau=0.1)
        joint = mv_consistent_model(scene)
        cov = joint.covariances()[0]
        sigma = scene.latent_gmm.covariances()[0]
        for i in range(3):
            for j in range(3):
                block = cov[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                expected = sigma + (scene.jitter**2 * np.eye(2) if i == j else 0.0)
                assert block == pytest.approx(expected, rel=1e-12)

    def test_tiny_latent_variance_decorrelates_views(self):
        latent = Gmm.from_covariances([1.0], [np.zeros(2)], [np.eye(2) * 1e-8])
        scene = MvScene(n_views=2, view_dim=2, latent_gmm=latent, jitter=0.1,
                        edit_gmm=latent)
        joint = mv_consistent_model(scene)
        cov = joint.covariances()[0]
        corr = cov[0, 2] / math.sqrt(cov[0, 0] * cov[2, 2])
        assert abs(corr) < 1e-4
        assert cov[0, 0] == pytest.approx(0.01, rel=1e-4)

    def test_small_jitter_views_nearly_equal(self):
        latent = std_normal()
        scene = MvScene(n_views=2, view_dim=2, latent_gmm=latent, jitter=1e-4,
                        edit_gmm=latent)
        joint = mv_consistent_model(scene)
        x = gmm_sample(joint, 1000, np.random.default_rng(3))
        gaps = np.linalg.norm(x[:, :2] - x[:, 2:], axis=1)
        assert np.mean(gaps <= 1e-3) > 0.99

    def test_view_marginal_matches_samples(self):
        scene = self.scene(tau=0.3, k=2)
        joint = mv_consistent_model(scene)
        x = gmm_sample(joint, 4096, np.random.default_rng(8))
        view0 = x[:, :2]
        marginal = mv_view_marginal(scene)
        exact = gmm_sample(marginal, 4096, np.random.default_rng(9))
        test = energy_permutation_test(view0, exact, np.random.default_rng(10))
        assert test.passed

    def test_dimension_cap(self):
        latent = Gmm.from_covariances([1.0], [np.zeros(12)], [np.eye(12)])
        scene = MvScene(n_views=3, view_dim=12, latent_gmm=latent, jitter=0.1,
                        edit_gmm=latent)
        with pytest.raises(ValueError, match="cap"):
            mv_consistent_model(scene)

    def test_scene_validation(self):
        latent = std_normal()
        with pytest.raises(ValueError):
            MvScene(n_views=1, view_dim=2, latent_gmm=latent, jitter=0.1,
                    edit_gmm=latent)
        with pytest.raises(ValueError):
            MvScene(n_views=2, view_dim=2, latent_gmm=latent, jitter=0.0,
                    edit_gmm=latent)


class TestVelocity:
    def test_standard_normal_closed_form(self):
        # for N(0, I) data the flow marginal is N(0, (t^2 + (1-t)^2) I) and
        # E[x0 - eps | x] = (2t - 1) x / (t^2 + (1-t)^2)
        g = std_normal()
        x = np.array([[0.8, -0.4], [1.2, 2.0]])
        for t in (0.2, 0.5, 0.8):
            s2 = t * t + (1 - t) ** 2
            assert GmmVelocityModel(g).velocity(x, t) == pytest.approx(
                (2 * t - 1) / s2 * x, rel=1e-12
            )

    def test_matches_importance_weighted_monte_carlo(self):
        rng = np.random.default_rng(41)
        g = random_gmm(rng, k=2)
        t = 0.6
        x = np.array([0.5, -0.7])
        draws = gmm_sample(g, 1_000_000, np.random.default_rng(42))
        resid = x[None, :] - t * draws
        logw = -0.5 * (resid**2).sum(1) / (1 - t) ** 2
        logw -= logw.max()
        w = np.exp(logw)
        e_x0 = (draws * w[:, None]).sum(0) / w.sum()
        e_eps = (x - t * e_x0) / (1 - t)
        assert GmmVelocityModel(g).velocity(x, t) == pytest.approx(e_x0 - e_eps, abs=2e-2)

    def test_single_gaussian_at_scaled_mean(self):
        # E[x0 | t mu] = mu and E[eps | t mu] = 0 for any component width
        mu = np.array([1.4, -0.6])
        for s2 in (1e-8, 0.5):
            g = Gmm.from_covariances([1.0], [mu], [np.eye(2) * s2])
            for t in (0.3, 0.7):
                assert GmmVelocityModel(g).velocity(t * mu, t) == pytest.approx(mu, abs=1e-10)

    def test_rejects_endpoints(self):
        g = std_normal()
        for t in (0.0, 1.0):
            with pytest.raises(ValueError):
                GmmVelocityModel(g).velocity(np.zeros(2), t)

    def test_model_cache_matches_uncached_bits(self):
        rng = np.random.default_rng(43)
        g = random_gmm(rng, k=3, d=3)
        model = GmmVelocityModel(g)
        x = rng.normal(scale=1.5, size=(40, 3))
        for t in (0.1, 0.5, 0.5, 0.9, 0.5):  # 0.5 twice in a row: a memo hit
            assert np.array_equal(model.velocity(x, t), GmmVelocityModel(g).velocity(x, t))
        info = model._level_at.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 4, 1)


class TestScoreFromVelocity:
    def test_zero_numerator(self):
        x = np.array([0.4, -2.0])
        t = 0.3
        assert score_from_velocity(x / t, x, t) == pytest.approx(np.zeros(2), abs=0)

    def test_standard_normal_recovers_marginal_score(self):
        g = std_normal()
        x = np.array([[1.0, -0.5], [0.2, 0.8]])
        for t in (0.25, 0.5, 0.75):
            s2 = t * t + (1 - t) ** 2
            s = score_from_velocity(GmmVelocityModel(g).velocity(x, t), x, t)
            assert s == pytest.approx(-x / s2, rel=1e-10)

    def test_duality_with_flow_density_gradient(self):
        rng = np.random.default_rng(55)
        for _ in range(3):
            g = random_gmm(rng)
            x = rng.normal(scale=1.5, size=(50, 2))
            assert flow_duality_error(g, x, (0.1, 0.5, 0.9)) < 1e-6

    def test_rejects_unit_time(self):
        with pytest.raises(ValueError):
            score_from_velocity(np.zeros(2), np.zeros(2), 1.0)


class TestVelocityWrapping:
    def test_standard_normal_equals_closed_form_epsilon(self):
        g = std_normal()
        sched = build_linear(20, 0.02, 0.3)
        flow = GmmVelocityModel(g)
        x = np.random.default_rng(6).normal(size=(10, 2))
        for t in (1, 7, 20):
            ab = sched.alpha_bar_at(t)
            assert flow.predict_epsilon(x, t, sched) == pytest.approx(
                math.sqrt(1 - ab) * x, rel=1e-10
            )

    def test_gmm_velocity_matches_direct_epsilon(self):
        rng = np.random.default_rng(61)
        g = random_gmm(rng)
        sched = build_linear(25, 0.01, 0.35)
        flow = GmmVelocityModel(g)
        direct = GmmScoreModel(g)
        x = rng.normal(scale=1.5, size=(30, 2))
        for t in (1, 5, 12, 25):
            a = flow.predict_epsilon(x, t, sched)
            b = direct.predict_epsilon(x, t, sched)
            assert np.max(np.abs(a - b)) < 1e-5

    def test_rejects_zero_noise_level(self):
        sched = build_linear(5, 0.1, 0.2)
        flow = GmmVelocityModel(std_normal())
        with pytest.raises(ValueError):
            flow.predict_epsilon(np.zeros(2), 0, sched)


def scipy_mixture(weights, means, chols, x):
    """Reference kernel on scipy's logsumexp and solve_triangular wrappers.

    -> (log density, score, whitened differences (m, K, d)); the models
    module sums in its own order, so it agrees to rounding (assert_oracle).
    """
    x = np.asarray(x, dtype=np.float64)
    k, d = means.shape
    flat = x.reshape(-1, d)
    log_w = np.full(k, -np.inf)
    log_w[weights > 0] = np.log(weights[weights > 0])
    log_comp = np.empty((flat.shape[0], k))
    zs = []
    for j in range(k):
        L = chols[j]
        y = solve_triangular(L, (flat - means[j]).T, lower=True)
        maha = np.einsum("im,im->m", y, y)
        log_det = float(np.sum(np.log(np.diag(L))))
        log_comp[:, j] = log_w[j] - 0.5 * maha - log_det - 0.5 * d * LOG_2PI
        zs.append(solve_triangular(L.T, y, lower=False).T)
    log_p = logsumexp(log_comp, axis=1)
    resp = np.exp(log_comp - log_p[:, None])
    zs = np.stack(zs, axis=1)
    score = -np.einsum("mk,mkd->md", resp, zs)
    return log_p.reshape(x.shape[:-1]), score.reshape(x.shape), resp, zs


def scipy_noised(g, x, alpha_bar):
    means = math.sqrt(alpha_bar) * g.means
    covs = alpha_bar * g.covariances() + (1.0 - alpha_bar) * np.eye(g.dim)
    return scipy_mixture(g.weights, means, np.linalg.cholesky(covs), x)


def scipy_velocity(g, x, t):
    means = t * g.means
    covs = t**2 * g.covariances() + (1.0 - t) ** 2 * np.eye(g.dim)
    log_p, _, resp, zs = scipy_mixture(g.weights, means, np.linalg.cholesky(covs), x)
    sigmas = g.covariances()
    comp_v = np.stack([
        (g.means[j] + (t * sigmas[j] @ zs[:, j].T).T) - (1.0 - t) * zs[:, j]
        for j in range(g.n_components)
    ], axis=1)
    v = np.einsum("mk,mkd->md", resp, comp_v)
    return log_p, v.reshape(np.shape(x))


def oracle_gmm(rng, k, d, case):
    if case == "tied":
        # equal components: every row has its maximum K times
        return Gmm.from_covariances(np.full(k, 1.0 / k), np.zeros((k, d)), [np.eye(d)] * k)
    g = random_gmm(rng, k=k, d=d)
    if case == "zero_weight" and k > 1:
        w = g.weights.copy()
        w[1] = 0.0
        return Gmm(w / w.sum(), g.means, g.chol_factors)
    return g


def oracle_points(rng, d, case):
    x = rng.normal(scale=3.0, size=(300, d))
    if case == "far":
        x[:10] *= 1e3
        x[10:13] = 1e160  # the Mahalanobis terms overflow to inf
    return x


ORACLE_CASES = ["plain", "zero_weight", "tied", "far"]


def assert_oracle(actual, expected, exact=False):
    """Equal bits where exact (one component at d <= 2, where the kernel adds
    in the reference's order); elsewhere within 1e-13, about 2.5x the largest
    gap measured (4.1e-14, velocity). NaN and +-inf must sit in the same
    places either way."""
    if exact:
        np.testing.assert_array_equal(actual, expected)
    else:
        np.testing.assert_allclose(actual, expected, rtol=1e-13, atol=1e-13)


class TestScipyOracle:
    """Mixture outputs agree with the scipy reference kernel to rounding."""

    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("k", [1, 3, 9, 130])
    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_noised_level(self, d, k, case):
        rng = np.random.default_rng(100 * d + k)
        g = oracle_gmm(rng, k, d, case)
        x = oracle_points(rng, d, case)
        exact = k == 1 and d <= 2
        with np.errstate(over="ignore", invalid="ignore"):
            for ab in (1e-3, 0.37, 0.999):
                log_p, score, _, _ = scipy_noised(g, x, ab)
                assert_oracle(gmm_noised_log_density(g, x, ab), log_p, exact)
                assert_oracle(GmmScoreModel(g).epsilon(x, ab), -math.sqrt(1.0 - ab) * score, exact)
            assert_oracle(gmm_noised_log_density(g, x, 1.0), scipy_noised(g, x, 1.0)[0], exact)

    @pytest.mark.parametrize("case", ORACLE_CASES)
    @pytest.mark.parametrize("k", [1, 3, 9, 130])
    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    def test_flow(self, d, k, case):
        rng = np.random.default_rng(100 * d + k + 7)
        g = oracle_gmm(rng, k, d, case)
        x = oracle_points(rng, d, case)
        exact = k == 1 and d <= 2
        with np.errstate(over="ignore", invalid="ignore"):
            for t in (0.05, 0.5, 0.95):
                log_p, v = scipy_velocity(g, x, t)
                assert_oracle(gmm_flow_log_density(g, x, t), log_p, exact)
                assert_oracle(GmmVelocityModel(g).velocity(x, t), v, exact)

    def test_batched_non_contiguous_points(self):
        rng = np.random.default_rng(11)
        g = random_gmm(rng, k=3, d=4)
        x = rng.normal(scale=2.0, size=(2, 64, 8))[..., ::2]
        assert not x.flags.c_contiguous
        log_p, score, _, _ = scipy_noised(g, x, 0.6)
        assert_oracle(gmm_noised_log_density(g, x, 0.6), log_p)
        assert_oracle(GmmScoreModel(g).epsilon(x, 0.6), -math.sqrt(0.4) * score)
        assert_oracle(GmmVelocityModel(g).velocity(x, 0.6), scipy_velocity(g, x, 0.6)[1])

    def test_score_model_matches_a_fresh_model(self):
        rng = np.random.default_rng(12)
        g = random_gmm(rng, k=3, d=2)
        x = rng.normal(size=(128, 2))
        schedules = (build_linear(20, 1e-3, 0.2), build_linear(30, 1e-3, 0.3))
        model = GmmScoreModel(g)
        for repeat in range(2):  # a first call builds each level, the second reuses it
            for t in (20, 7, 1):
                for sched in schedules:  # two schedules share one model instance
                    expected = GmmScoreModel(g).epsilon(x, sched.alpha_bar_at(t))
                    np.testing.assert_array_equal(model.predict_epsilon(x, t, sched), expected)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_points_rejected(value):
    g = random_gmm(np.random.default_rng(13), k=2, d=2)
    x = np.zeros((4, 2))
    x[2, 1] = value
    sched = build_linear(10, 0.05, 0.3)
    calls = [
        lambda: gmm_noised_log_density(g, x, 0.5),
        lambda: GmmScoreModel(g).epsilon(x, 0.5),
        lambda: GmmVelocityModel(g).velocity(x, 0.5),
        lambda: GmmScoreModel(g).predict_epsilon(x, 5, sched),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="infs or NaNs"):
            call()


@pytest.mark.parametrize("d", [1, 2, 4, 6])
def test_row_bits_independent_of_call_rows(d):
    rng = np.random.default_rng(40 + d)
    model = GmmScoreModel(random_gmm(rng, k=3, d=d))
    x = rng.normal(scale=2.0, size=(4099, d))
    whole = model.epsilon(x, 0.4)
    for i in (0, 1, 1000, 4097, 4098):
        want = whole[i].tobytes()
        assert model.epsilon(x[i:i + 1], 0.4).tobytes() == want, (i, "alone")
        lo = min(i, 4097)
        pair = model.epsilon(x[lo:lo + 2], 0.4)
        assert pair[i - lo].tobytes() == want, (i, "in a 2-row call")


def test_triangular_solves_written_into_their_operand(monkeypatch):
    # f2py copies an operand that is not a Fortran-ordered float64 array and
    # writes the copy, leaving the component's rows unsolved
    solve, in_place = models.dtrsm, []

    def spy(alpha, a, b, **kwargs):
        out = solve(alpha, a, b, **kwargs)
        in_place.append(np.shares_memory(out, b))
        return out

    monkeypatch.setattr(models, "dtrsm", spy)
    g = random_gmm(np.random.default_rng(41), k=3, d=4)
    GmmScoreModel(g).epsilon(np.random.default_rng(42).normal(size=(5, 2, 4)), 0.4)
    GmmVelocityModel(g).velocity(np.random.default_rng(43).normal(size=(7, 4))[::2], 0.4)
    assert in_place == [True] * 12  # two solves per component per call


def test_missing_fblas_extension_names_paths_searched(tmp_path, monkeypatch):
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, "scipy.linalg._fblas", raising=False)
    with pytest.raises(ImportError, match="not found; searched") as info:
        _load_fblas()
    assert str(tmp_path / "linalg" / "_fblas") in str(info.value)


@pytest.fixture
def built_tables(monkeypatch):
    """Weak references to the means of every noised level table built."""
    refs = []
    build = models._noised_level

    def spy(g, alpha_bar):
        level = build(g, alpha_bar)
        refs.append(weakref.ref(level.means))
        return level

    monkeypatch.setattr(models, "_noised_level", spy)
    return refs


def test_score_model_holds_one_table(built_tables):
    g = random_gmm(np.random.default_rng(14), k=2, d=2)
    model = GmmScoreModel(g)
    sample(model, build_linear(50, 1e-3, 0.2), SamplerConfig(), seed=0, n=16)
    assert len(built_tables) == 50
    gc.collect()
    assert [ref() is not None for ref in built_tables] == [False] * 49 + [True]


def test_score_model_tables_die_with_the_model(built_tables):
    g = random_gmm(np.random.default_rng(14), k=2, d=2)
    model = GmmScoreModel(g)
    sample(model, build_linear(50, 1e-3, 0.2), SamplerConfig(), seed=0, n=16)
    refs = [weakref.ref(g)] + built_tables
    assert len(refs) == 51
    del g, model
    gc.collect()
    assert all(ref() is None for ref in refs)
