import math
import tracemalloc

import numpy as np
import pytest

from coupled_sampler.metrics import (
    EnergyTestResult,
    MetricReport,
    SweepPoint,
    consistency_residual,
    coupling_distance,
    energy_permutation_test,
    gmm_nll,
    sweep_summary,
)
from coupled_sampler.models import Gmm, gmm_sample

LOG_2PI = math.log(2.0 * math.pi)


def std_normal(d=2):
    return Gmm.from_covariances([1.0], [np.zeros(d)], [np.eye(d)])


class TestGmmNll:
    def test_value_at_mode(self):
        assert gmm_nll(std_normal(), np.zeros((1, 2))) == pytest.approx(LOG_2PI, rel=1e-12)

    def test_matches_differential_entropy(self):
        cloud = gmm_sample(std_normal(), 100_000, np.random.default_rng(0))
        assert gmm_nll(std_normal(), cloud) == pytest.approx(1 + LOG_2PI, abs=0.02)

    def test_tail_point(self):
        cloud = np.array([[10.0, 0.0]])
        assert gmm_nll(std_normal(), cloud) == pytest.approx(LOG_2PI + 50.0, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            gmm_nll(std_normal(), np.zeros((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        cloud = np.zeros((4, 2))
        cloud[2, 1] = bad
        with pytest.raises(ValueError, match="cloud: holds non-finite values"):
            gmm_nll(std_normal(), cloud)


class TestCouplingDistance:
    def test_identical_batches(self):
        a = np.random.default_rng(1).normal(size=(16, 3))
        s = coupling_distance(a, a.copy())
        assert np.array_equal(s.distances, np.zeros(16))
        assert s.median == 0.0

    def test_fixed_offset(self):
        a = np.zeros((8, 2))
        b = a + np.array([3.0, 4.0])
        s = coupling_distance(a, b)
        assert np.array_equal(s.distances, np.full(8, 5.0))
        assert (s.mean, s.median, s.p90) == (5.0, 5.0, 5.0)

    def test_independent_standard_normal_median(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10_000, 2))
        b = rng.normal(size=(10_000, 2))
        s = coupling_distance(a, b)
        assert s.median == pytest.approx(math.sqrt(4 * math.log(2)), abs=0.05)

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            coupling_distance(np.zeros((3, 2)), np.zeros((4, 2)))

    @pytest.mark.parametrize("name", ["batch_a", "batch_b"])
    def test_rejects_non_finite(self, name):
        batches = {"batch_a": np.zeros((3, 2)), "batch_b": np.ones((3, 2))}
        batches[name][1, 0] = np.nan
        with pytest.raises(ValueError, match=f"{name}: holds non-finite values"):
            coupling_distance(**batches)


class TestEnergyDistance:
    def test_split_halves_inside_null_band(self):
        rng = np.random.default_rng(4)
        hits = 0
        for seed in range(100):
            cloud = gmm_sample(std_normal(), 512, np.random.default_rng(1000 + seed))
            res = energy_permutation_test(cloud[:256], cloud[256:], np.random.default_rng(seed))
            hits += res.passed
        assert hits >= 95

    def test_detects_mean_shift(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4096, 2))
        b = rng.normal(size=(4096, 2)) + np.array([1.0, 0.0])
        res = energy_permutation_test(a, b, np.random.default_rng(6))
        assert not res.passed
        assert res.p_value <= 1.0 / 201.0 + 1e-12

    def test_permutation_test_deterministic_given_rng(self):
        rng_data = np.random.default_rng(9)
        a = rng_data.normal(size=(256, 2))
        b = rng_data.normal(size=(256, 2))
        r1 = energy_permutation_test(a, b, np.random.default_rng(10))
        r2 = energy_permutation_test(a, b, np.random.default_rng(10))
        assert r1.statistic == r2.statistic
        assert r1.null_quantile == r2.null_quantile

    def test_small_cloud_rejected(self):
        for na, nb in ((1, 5), (5, 1)):
            with pytest.raises(ValueError, match="at least two points"):
                energy_permutation_test(np.zeros((na, 2)), np.zeros((nb, 2)),
                                        np.random.default_rng(0))

    @pytest.mark.parametrize("name", ["cloud_a", "cloud_b"])
    def test_rejects_non_finite(self, name):
        rng = np.random.default_rng(3)
        clouds = {"cloud_a": rng.normal(size=(8, 2)), "cloud_b": rng.normal(size=(8, 2))}
        clouds[name][5, 1] = np.nan
        with pytest.raises(ValueError, match=f"{name}: holds non-finite values"):
            energy_permutation_test(**clouds, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("shift", [0.0, 0.25])
    def test_scales_exactly_with_power_of_two(self, shift):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(300, 2))
        b = rng.normal(size=(300, 2)) + shift
        base = energy_permutation_test(a, b, np.random.default_rng(13))
        for k in (-900, -100, -40, -3, 2, 30, 100, 900):
            res = energy_permutation_test(np.ldexp(a, k), np.ldexp(b, k),
                                          np.random.default_rng(13))
            assert res.statistic == math.ldexp(base.statistic, k)
            assert res.null_quantile == math.ldexp(base.null_quantile, k)
            assert (res.p_value, res.passed) == (base.p_value, base.passed)

    @pytest.mark.parametrize("scale", [1e-30, 1.0, 1e30])
    def test_detects_mean_shift_at_any_scale(self, scale):
        # float32 squares of the raw clouds underflow to 0 at 1e-30 and
        # overflow at 1e30; the shift must still be found
        rng = np.random.default_rng(14)
        a = rng.normal(size=(300, 2))
        b = rng.normal(size=(300, 2)) + 3.0
        res = energy_permutation_test(scale * a, scale * b, np.random.default_rng(15))
        assert np.isfinite(res.statistic) and res.statistic > 0.0
        assert not res.passed and res.p_value <= 1.0 / 201.0 + 1e-12


def _energy_test_one_shot(cloud_a, cloud_b, rng, n_permutations=200):
    """Reference: the energy permutation test on the whole pooled distance
    matrix at once, in float64, with distances from coordinate differences."""
    a = np.asarray(cloud_a, dtype=np.float64)
    b = np.asarray(cloud_b, dtype=np.float64)
    na, nb = a.shape[0], b.shape[0]
    pooled = np.vstack([a, b])
    m = na + nb
    dist = np.zeros((m, m))
    for k in range(pooled.shape[1]):
        dist += (pooled[:, k, None] - pooled[None, :, k]) ** 2
    np.sqrt(dist, out=dist)
    sel = np.zeros((m, n_permutations + 1))
    sel[:na, 0] = 1.0
    for j in range(1, n_permutations + 1):
        sel[rng.permutation(m)[:na], j] = 1.0
    row_total = dist.sum(axis=1)
    total = float(row_total.sum())
    sum_xx = np.einsum("mj,mj->j", sel, dist @ sel)
    sum_cross = sel.T @ row_total - sum_xx
    sum_yy = total - 2.0 * sum_cross - sum_xx
    stats = (
        2.0 * sum_cross / (na * nb)
        - sum_xx / (na * (na - 1))
        - sum_yy / (nb * (nb - 1))
    )
    observed = float(stats[0])
    null = stats[1:]
    thresh = float(np.quantile(null, 0.99))
    p_value = float((1 + np.sum(null >= observed)) / (1 + n_permutations))
    return EnergyTestResult(
        statistic=observed, null_quantile=thresh, p_value=p_value,
        passed=observed <= thresh, n_permutations=n_permutations,
    )


class TestBlockedEnergyTest:
    """The strip-wise energy test against a float64 full-matrix reference.

    The test sums in another order than the reference, and in float32 where
    the reference uses float64, so the two agree to a bound rather than bit
    for bit. Two points a side come closest to it (6.4e-7 on OpenBLAS
    0.3.31): no average over many pairs damps the rounding of one distance.
    """

    @pytest.mark.parametrize("d", [1, 2, 4, 6])
    @pytest.mark.parametrize("na, nb, n_permutations", [
        (60, 90, 200),
        (256, 256, 200),
        (300, 213, 200),
        (700, 550, 50),
        (1500, 1100, 1),
        (2, 2, 200),
        (130, 127, 200),
        (100, 50, 1),
    ], ids=["one_block", "two_full_blocks", "one_row_remainder", "partial_last_block",
            "one_permutation", "two_points_each", "one_row_past_a_block",
            "one_permutation_one_block"])
    def test_matches_one_shot_exactly(self, na, nb, n_permutations, d):
        rng = np.random.default_rng(na * 10 + d)
        a = rng.normal(size=(na, d))
        b = rng.normal(size=(nb, d)) + 0.05
        got = energy_permutation_test(a, b, np.random.default_rng(d),
                                      n_permutations=n_permutations)
        want = _energy_test_one_shot(a, b, np.random.default_rng(d),
                                     n_permutations=n_permutations)
        assert got.statistic == pytest.approx(want.statistic, abs=1e-6)
        assert got.null_quantile == pytest.approx(want.null_quantile, abs=1e-6)
        assert got.n_permutations == want.n_permutations

    def test_few_permutations_match_one_shot_closely(self):
        # 1024 points, one permutation: a three-column label matrix, which
        # OpenBLAS may hand to its small-matrix kernel
        rng = np.random.default_rng(1024)
        a = rng.normal(size=(522, 2))
        b = rng.normal(size=(502, 2))
        got = energy_permutation_test(a, b, np.random.default_rng(1), n_permutations=1)
        want = _energy_test_one_shot(a, b, np.random.default_rng(1), n_permutations=1)
        assert got.statistic == pytest.approx(want.statistic, abs=1e-6)
        assert got.null_quantile == pytest.approx(want.null_quantile, abs=1e-6)
        assert got.passed == want.passed

    def test_same_bits_at_one_and_two_blas_threads(self, fresh_python):
        # the sizes at which the full-row test differed between 1 and 2 threads
        code = (
            "import numpy as np\n"
            "from coupled_sampler.metrics import energy_permutation_test\n"
            "for n in (258, 300, 514, 1000):\n"
            "    rng = np.random.default_rng(n)\n"
            "    a, b = rng.normal(size=(n, 4)), rng.normal(size=(n, 4)) + 0.05\n"
            "    r = energy_permutation_test(a, b, np.random.default_rng(n + 1))\n"
            "    print(n, r.statistic.hex(), r.null_quantile.hex())\n"
        )
        one = fresh_python(code, OPENBLAS_NUM_THREADS="1")
        two = fresh_python(code, OPENBLAS_NUM_THREADS="2")
        assert one.splitlines()[-1].startswith("1000 ")
        assert one == two

    def test_peak_memory_linear_in_sample_count(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(4096, 2))
        b = rng.normal(size=(4096, 2))
        tracemalloc.start()
        try:
            energy_permutation_test(a, b, np.random.default_rng(12), n_permutations=200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole 8192^2 float32 matrix alone would take 256 MiB
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestConsistencyResidual:
    def test_equal_views(self):
        x = np.tile(np.array([1.0, -2.0]), 3)
        assert consistency_residual(x, 3, 2) == 0.0

    def test_fewer_than_two_views_rejected(self):
        for n_views in (1, 0):
            with pytest.raises(ValueError, match="two views"):
                consistency_residual(np.zeros(2), n_views, 2)

    def test_two_view_hand_case(self):
        x = np.array([0.0, 0.0, 3.0, 4.0])
        assert consistency_residual(x, 2, 2) == 5.0

    def test_jitter_scale_matches_monte_carlo(self):
        # views differ by independent N(0, tau^2 I) jitters; mean pairwise
        # distance has mean tau * sqrt(2) * E||N(0, I_2)|| = tau * sqrt(pi)
        tau = 0.05
        rng = np.random.default_rng(11)
        latent = rng.normal(size=(20000, 1, 2))
        views = latent + tau * rng.normal(size=(20000, 3, 2))
        res = consistency_residual(views.reshape(20000, 6), 3, 2)
        assert float(np.mean(res)) == pytest.approx(tau * math.sqrt(math.pi), rel=0.02)

    def test_invariant_under_rigid_shift(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(32, 6))
        shift = np.tile(rng.normal(size=2), 3)
        assert consistency_residual(x + shift, 3, 2) == pytest.approx(
            consistency_residual(x, 3, 2), rel=1e-12
        )

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            consistency_residual(np.zeros(7), 3, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(4,), (5, 4), (2, 3, 4)])
    def test_non_finite_samples_rejected(self, bad, shape):
        x = np.zeros(shape)
        x.flat[-1] = bad
        with pytest.raises(ValueError, match="samples: holds non-finite values"):
            consistency_residual(x, 2, 2)

    def test_leading_shape_kept_bitwise(self):
        x = np.random.default_rng(13).normal(size=(24, 6))
        flat = consistency_residual(x, 3, 2)
        assert np.array_equal(consistency_residual(x.reshape(4, 6, 6), 3, 2),
                              flat.reshape(4, 6))
        assert consistency_residual(x[5], 3, 2) == flat[5]


class TestMetricReport:
    def test_threshold_pass_logic(self):
        assert MetricReport("m", 0.5, 1.0, "le").passed is True
        assert MetricReport("m", 0.5, 1.0, "ge").passed is False
        # a Python bool, also for numpy inputs
        assert MetricReport("m", np.float32(0.5), np.float64(1.0), "le").passed is True
        assert MetricReport("m", 0.5).passed is None

    def test_pass_iff_threshold(self):
        with pytest.raises(ValueError):
            MetricReport("m", 1.0, threshold=2.0)
        with pytest.raises(ValueError):
            MetricReport("m", 1.0, op="le")
        with pytest.raises(ValueError):
            MetricReport("m", 1.0, 2.0, "lt")

    def test_dict_round_trip(self):
        d = MetricReport("m", 0.5, 1.0, "le").to_dict()
        assert d == {"name": "m", "value": 0.5, "threshold": 1.0, "op": "le", "passed": True}
        assert MetricReport("m", np.float64(0.5)).to_dict() == {"name": "m", "value": 0.5}


class TestSweepSummary:
    def rows(self, medians, nlls):
        return [
            SweepPoint(lam=float(i), coupling_median=m, nll_a=v, nll_b=v)
            for i, (m, v) in enumerate(zip(medians, nlls))
        ]

    def test_constant_grid_vacuously_passes(self):
        s = sweep_summary(self.rows([2.0, 2.0, 2.0], [1.0, 1.0, 1.0]))
        assert s.distance_non_increasing
        assert s.nll_non_decreasing_after_drop

    def test_decreasing_with_rising_nll(self):
        s = sweep_summary(self.rows([4.0, 2.0, 1.0, 0.5], [1.0, 1.2, 1.5, 2.0]))
        assert s.distance_non_increasing
        assert s.nll_non_decreasing_after_drop

    def test_hard_inversion_fails(self):
        s = sweep_summary(self.rows([4.0, 2.0, 3.0], [1.0, 1.0, 1.0]))
        assert not s.distance_non_increasing

    def test_single_tiny_inversion_tolerated(self):
        s = sweep_summary(self.rows([4.0, 2.0, 2.01], [1.0, 1.0, 1.0]))
        assert s.distance_non_increasing

    def test_nll_drop_after_half_fails(self):
        s = sweep_summary(self.rows([4.0, 1.0, 0.5], [2.0, 2.0, 1.0]))
        assert not s.nll_non_decreasing_after_drop

    def test_nll_checked_only_from_half_drop(self):
        # the median first halves at index 2, so the NLL fall before it is free
        s = sweep_summary(self.rows([4.0, 3.0, 2.0, 1.0], [3.0, 2.0, 2.0, 2.5]))
        assert s.nll_non_decreasing_after_drop
        s = sweep_summary(self.rows([4.0, 3.5, 3.0], [3.0, 2.0, 1.0]))
        assert s.nll_non_decreasing_after_drop

    def test_requires_three_increasing_lambdas(self):
        with pytest.raises(ValueError):
            sweep_summary(self.rows([1.0, 1.0], [0.0, 0.0]))
        pts = [
            SweepPoint(lam=v, coupling_median=1.0, nll_a=0.0, nll_b=0.0)
            for v in (0.0, 2.0, 1.0)
        ]
        with pytest.raises(ValueError):
            sweep_summary(pts)
