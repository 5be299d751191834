"""Distribution fidelity, coupling tightness, and consistency metrics.

Everything here is a pure function of its inputs; the permutation test takes
an explicit Generator. The energy distance is used instead of an MMD because
it has no bandwidth to tune at these dimensions.

A MetricReport holds a name and a value, plus an optional threshold and its
op ("le" or "ge"); its passed verdict is derived from those, never stored.
The run's sample count and seed are the CLI's to record, not a report's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Gmm, gmm_noised_log_density


def _cloud(obj, name: str) -> np.ndarray:
    arr = getattr(obj, "samples", obj)
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name}: expected a 2-d cloud of samples")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: holds non-finite values")
    return arr


@dataclass(frozen=True)
class MetricReport:
    name: str
    value: float
    threshold: float | None = None
    op: str | None = None

    def __post_init__(self):
        if (self.threshold is None) != (self.op is None):
            raise ValueError("threshold and op must be present together")
        if self.op not in (None, "le", "ge"):
            raise ValueError(f"op must be 'le' or 'ge', got {self.op!r}")

    @property
    def passed(self) -> bool | None:
        if self.threshold is None:
            return None
        value, threshold = float(self.value), float(self.threshold)
        return value <= threshold if self.op == "le" else value >= threshold

    def to_dict(self) -> dict:
        out = {"name": self.name, "value": float(self.value)}
        if self.threshold is not None:
            out.update(threshold=float(self.threshold), op=self.op, passed=self.passed)
        return out


def gmm_nll(g: Gmm, cloud) -> float:
    """Mean negative log density of the cloud under the clean mixture."""
    cloud = _cloud(cloud, "cloud")
    if cloud.shape[0] == 0:
        raise ValueError("cloud is empty")
    return float(-np.mean(gmm_noised_log_density(g, cloud, 1.0)))


@dataclass(frozen=True)
class CouplingDistanceSummary:
    distances: np.ndarray
    mean: float
    median: float
    p90: float


def coupling_distance(batch_a, batch_b) -> CouplingDistanceSummary:
    """Per-pair L2 distances between two equally sized batches."""
    a = _cloud(batch_a, "batch_a")
    b = _cloud(batch_b, "batch_b")
    if a.shape != b.shape:
        raise ValueError("batches must share count and dimension")
    d = np.linalg.norm(a - b, axis=1)
    return CouplingDistanceSummary(
        distances=d,
        mean=float(np.mean(d)),
        median=float(np.median(d)),
        p90=float(np.quantile(d, 0.9)),
    )


# Rows of the pooled distance matrix built at a time. A strip holds its
# rows' entries from the diagonal rightwards, so the buffer for the first and
# widest strip takes 8 MB at 8192 points.
_BLOCK_ROWS = 256
# The test passes when the observed statistic is at most this quantile of the null.
_NULL_QUANTILE = 0.99


@dataclass(frozen=True)
class EnergyTestResult:
    statistic: float
    null_quantile: float
    p_value: float
    passed: bool
    n_permutations: int


def energy_permutation_test(cloud_a, cloud_b, rng: np.random.Generator,
                            n_permutations: int = 200) -> EnergyTestResult:
    """Two-sample energy test against a label-permutation null.

    The observed statistic and every permuted statistic are computed by the
    same all-cross-pairs estimator on the pooled distance matrix, so the
    comparison is exchangeable under the null. Only the strict upper
    triangle of that symmetric, zero-diagonal matrix is built, _BLOCK_ROWS
    rows at a time, and each strip is reduced against the permutation labels
    before the next is built, so memory is linear in the sample count (times
    the permutation count) rather than quadratic. Distances and each strip's
    products with the labels are formed in float32; the strips' sums are
    accumulated in float64. The pooled cloud is padded to whole strips, so
    every matrix product has a shape fixed by the strip, and the result does
    not depend on the BLAS thread count. The estimator is 1-homogeneous: the
    clouds are scaled by the power of two that brings their largest
    |coordinate| into [0.5, 1), so float32 squares neither overflow nor
    underflow, and the statistic and null quantile are scaled back exactly.
    """
    a = _cloud(cloud_a, "cloud_a")
    b = _cloud(cloud_b, "cloud_b")
    if a.shape[1] != b.shape[1]:
        raise ValueError("clouds must share a dimension")
    na, nb = a.shape[0], b.shape[0]
    if na < 2 or nb < 2:
        raise ValueError("clouds must contain at least two points each")
    if n_permutations < 1:
        raise ValueError("need at least one permutation")

    _, exponent = np.frexp(max(np.abs(a).max(), np.abs(b).max()))
    a, b = np.ldexp(a, -exponent), np.ldexp(b, -exponent)
    m = na + nb
    # The padding points carry no label, and their distances are masked.
    rows = _BLOCK_ROWS
    padded = -(-m // rows) * rows
    # Centred first: |x|^2 + |y|^2 - 2 x.y in float32 loses the digits that
    # the cloud's offset from the origin takes.
    center = (a.sum(axis=0) + b.sum(axis=0)) / m
    pooled = np.zeros((padded, a.shape[1]), dtype=np.float32)
    pooled[:na] = a - center
    pooled[na:m] = b - center
    sq = np.einsum("ij,ij->i", pooled, pooled)[:, None]
    ones = np.ones_like(sq)
    # left[i] @ right[j] = |x_i|^2 + |x_j|^2 - 2 x_i.x_j; the -2 is exact.
    left = np.hstack([-2.0 * pooled, sq, ones])
    right = np.hstack([pooled, ones, sq])

    # Column 0 is the observed labelling; the rest are permuted half-splits.
    # The last column is all ones, so the product below also sums each row.
    sel = np.zeros((padded, n_permutations + 2), dtype=np.float32)
    sel[:na, 0] = 1.0
    for j in range(1, n_permutations + 1):
        sel[rng.permutation(m)[:na], j] = 1.0
    sel[:, -1] = 1.0

    # A strip holds rows lo:hi of the strict upper triangle U of the distance
    # matrix D, from its diagonal rightwards. sel.T D sel = 2 sel.T U sel, and
    # sel.T D 1 = sel.T U 1 + 1.T U sel.
    lower = np.tri(rows, dtype=bool)
    buf = np.empty(rows * padded, dtype=np.float32)
    inner = np.zeros(n_permutations + 2)  # sel.T U sel; last entry 1.T U 1
    outer = np.zeros(n_permutations + 2)  # sel.T U 1 + 1.T U sel
    for lo in range(0, padded, rows):
        hi = lo + rows
        dist = buf[: rows * (padded - lo)].reshape(rows, padded - lo)
        np.matmul(left[lo:hi], right[lo:].T, out=dist)
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        dist[:, :rows][lower] = 0.0
        dist[:, m - lo:] = 0.0
        reach = dist @ sel[lo:]
        inner += np.einsum("rj,rj->j", sel[lo:hi], reach, dtype=np.float64)
        outer += np.einsum("rj,r->j", sel[lo:hi], reach[:, -1], dtype=np.float64)
        outer += reach.sum(axis=0, dtype=np.float64)

    total = 2.0 * inner[-1]
    sum_xx = 2.0 * inner[:-1]
    sum_cross = outer[:-1] - sum_xx
    sum_yy = total - 2.0 * sum_cross - sum_xx
    stats = (
        2.0 * sum_cross / (na * nb)
        - sum_xx / (na * (na - 1))
        - sum_yy / (nb * (nb - 1))
    )
    observed = stats[0]
    null = stats[1:]
    thresh = np.quantile(null, _NULL_QUANTILE)
    p_value = float((1 + np.sum(null >= observed)) / (1 + n_permutations))
    return EnergyTestResult(
        statistic=float(np.ldexp(observed, exponent)),
        null_quantile=float(np.ldexp(thresh, exponent)),
        p_value=p_value,
        passed=bool(observed <= thresh),
        n_permutations=n_permutations,
    )


def consistency_residual(samples, n_views: int, view_dim: int):
    """Mean pairwise L2 distance between the views inside each sample."""
    if n_views < 2:
        raise ValueError(f"need at least two views, got {n_views}")
    x = np.asarray(samples, dtype=np.float64)
    if x.shape[-1] != n_views * view_dim:
        raise ValueError(
            f"last axis is {x.shape[-1]}, expected n_views*view_dim = {n_views * view_dim}"
        )
    if not np.isfinite(x).all():
        raise ValueError("samples: holds non-finite values")
    views = x.reshape(x.shape[:-1] + (n_views, view_dim))
    count = 0
    acc = np.zeros(x.shape[:-1])
    for i in range(n_views):
        for j in range(i + 1, n_views):
            acc = acc + np.linalg.norm(views[..., i, :] - views[..., j, :], axis=-1)
            count += 1
    out = acc / count
    return float(out) if out.ndim == 0 else out


_SWEEP_REL_TOL = 0.02


@dataclass(frozen=True)
class SweepPoint:
    lam: float
    coupling_median: float
    nll_a: float
    nll_b: float
    residual_b: float | None = None


@dataclass(frozen=True)
class SweepSummary:
    distance_non_increasing: bool
    nll_non_decreasing_after_drop: bool


def sweep_summary(points: list[SweepPoint]) -> SweepSummary:
    """Monotonicity verdicts over an increasing-lambda grid with paired seeds.

    Distance verdict: medians non-increasing, allowing a single inversion
    within 2 % (statistical noise). NLL verdict: beyond the first lambda at
    which the median distance has dropped by half, each chain's own-model NLL
    is non-decreasing within the same relative slack.
    """
    if len(points) < 3:
        raise ValueError("need at least three sweep points")
    lams = [p.lam for p in points]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        raise ValueError("lambda grid must be strictly increasing")

    med = [p.coupling_median for p in points]
    soft = sum(1 for a, b in zip(med, med[1:]) if b > a)
    hard = any(b > a * (1.0 + _SWEEP_REL_TOL) for a, b in zip(med, med[1:]))
    distance_ok = (not hard) and soft <= 1

    drop_idx = next((i for i, v in enumerate(med) if v <= 0.5 * med[0]), None)
    nll_ok = True
    if drop_idx is not None:
        for series in ([p.nll_a for p in points], [p.nll_b for p in points]):
            tail = series[drop_idx:]
            slack = [_SWEEP_REL_TOL * max(1.0, abs(v)) for v in tail]
            if any(b < a - s for a, b, s in zip(tail, tail[1:], slack)):
                nll_ok = False
    return SweepSummary(
        distance_non_increasing=distance_ok,
        nll_non_decreasing_after_drop=nll_ok,
    )
