"""Analytic probability models with exact epsilon-predictions.

A Gaussian mixture is closed under the variance-preserving forward process:
noising at level alpha_bar maps component (mu, Sigma) to
(sqrt(alpha_bar) mu, alpha_bar Sigma + (1 - alpha_bar) I). The score of the
noised mixture is therefore exact, and the epsilon-prediction

    eps_hat(x) = -sqrt(1 - alpha_bar) * grad log p_t(x)

is the unique prediction whose Tweedie estimate equals E[x_0 | x_t = x].
These models serve as ground truth for the samplers and metrics.

Covariances are held as lower-triangular Cholesky factors; densities and
scores go through triangular solves, never explicit inverses. Mixture
responsibilities are formed in log space. The noised means, factors, log
weights and log-determinants of one noise level form a table; GmmScoreModel
caches one table per alpha_bar it has seen, so the reverse steps of every run
on one model instance share them.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dtrtrs

from .schedule import NoiseSchedule, alpha_bar_to_flow_time

_LOG_2PI = math.log(2.0 * math.pi)
_WEIGHT_TOL = 1e-12

# Joint dimension cap for multi-view scenes expanded into one full-covariance
# mixture; keeps Cholesky factors desk-sized.
MV_JOINT_DIM_CAP = 32


def _readonly(arr, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Gmm:
    """Gaussian mixture with full per-component covariance factors."""

    weights: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    chol_factors: np.ndarray  # (K, d, d) lower triangular, positive diagonal

    def __post_init__(self):
        object.__setattr__(self, "weights", _readonly(self.weights))
        object.__setattr__(self, "means", _readonly(self.means))
        object.__setattr__(self, "chol_factors", _readonly(self.chol_factors))
        w, mu, L = self.weights, self.means, self.chol_factors
        if w.ndim != 1 or mu.ndim != 2 or L.ndim != 3:
            raise ValueError("weights (K,), means (K,d), factors (K,d,d) required")
        k, d = mu.shape
        if w.shape != (k,) or L.shape != (k, d, d):
            raise ValueError("component count / dimension mismatch")
        for name, arr in (("weights", w), ("means", mu), ("chol_factors", L)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must be non-negative and sum to 1")
        diag = np.diagonal(L, axis1=-2, axis2=-1)
        if np.any(diag <= 0.0):
            raise ValueError("factor diagonals must be strictly positive")
        upper = np.triu(L, k=1)
        if np.any(upper != 0.0):
            raise ValueError("factors must be lower triangular")

    @classmethod
    def from_covariances(cls, weights, means, covariances) -> "Gmm":
        covs = np.asarray(covariances, dtype=np.float64)
        if not np.all(np.isfinite(covs)):
            raise ValueError("covariances must be finite")
        try:
            factors = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariances must be positive definite") from exc
        return cls(weights=np.asarray(weights), means=np.asarray(means), chol_factors=factors)

    @property
    def n_components(self) -> int:
        return int(self.weights.size)

    @property
    def dim(self) -> int:
        return int(self.means.shape[1])

    def covariances(self) -> np.ndarray:
        L = self.chol_factors
        return np.einsum("kij,klj->kil", L, L)

    def to_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "means": [[float(v) for v in m] for m in self.means],
            "covariances": [[[float(v) for v in row] for row in c] for c in self.covariances()],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Gmm":
        return cls.from_covariances(doc["weights"], doc["means"], doc["covariances"])


def _log_weights(weights: np.ndarray) -> np.ndarray:
    out = np.full(weights.shape, -np.inf)
    pos = weights > 0.0
    out[pos] = np.log(weights[pos])
    return out


class _Level(NamedTuple):
    """A mixture at one noise level, in the form the component loop reads."""

    log_w: np.ndarray  # (K,)
    means: np.ndarray  # (K, d)
    uppers: tuple  # K transposed Cholesky factors L_j.T, Fortran-ordered
    log_dets: tuple  # K floats, log |L_j|


def _level(g: Gmm, mean_scale: float, cov_scale: float, noise_var: float) -> _Level:
    """Component j becomes N(mean_scale mu_j, cov_scale Sigma_j + noise_var I)."""
    means = mean_scale * g.means
    chols = np.linalg.cholesky(cov_scale * g.covariances() + noise_var * np.eye(g.dim))
    return _Level(
        log_w=_log_weights(g.weights),
        means=means,
        uppers=tuple(L.T for L in chols),
        log_dets=tuple(float(np.sum(np.log(np.diag(L)))) for L in chols),
    )


def _noised_level(g: Gmm, alpha_bar: float) -> _Level:
    return _level(g, math.sqrt(alpha_bar), alpha_bar, 1.0 - alpha_bar)


def _flow_level(g: Gmm, t_flow: float) -> _Level:
    return _level(g, t_flow, t_flow**2, (1.0 - t_flow) ** 2)


def _solve_upper(upper, b, trans: int) -> np.ndarray:
    """upper^-T b (trans=1) or upper^-1 b (trans=0).

    The LAPACK call scipy.linalg.solve_triangular makes for these operands,
    without its wrappers. A Fortran-ordered float64 b is solved in place, so
    pass only temporaries.
    """
    out, info = dtrtrs(upper, b, lower=False, trans=trans, overwrite_b=True)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    return out


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a), axis=1)) of an (m, K) array.

    Term for term the formula of scipy.special.logsumexp (scipy 1.17), so the
    bits match it: the maxima of a row are pulled out of the sum, which is
    log1p(s) + log(m) + max with m the count of maxima and s the sum of the
    other shifted exponentials over m. Rows where that is not finite (all
    terms -inf) fall back to the direct log(sum(exp(a))).
    """
    k = a.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        # Max and count column by column: both are exact in any order, and
        # numpy's reductions along a short row axis are slow.
        a_max = a[:, :1]
        for j in range(1, k):
            a_max = np.maximum(a_max, a[:, j:j + 1])
        is_max = a == a_max
        m = is_max[:, :1].astype(np.float64)
        for j in range(1, k):
            m += is_max[:, j:j + 1]
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=1, keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.sum(np.exp(a[bad]), axis=1))
    return out


def _component_terms(x, level: _Level, whiten: bool):
    """Per-component log(w_j N(x; mu_j, Sigma_j)) and Sigma_j^-1 (x - mu_j).

    x may carry arbitrary leading batch axes; the last axis is the event
    dimension. Returns (batch shape, (m, K) log terms, K whitened differences
    of shape (d, m)); the whitened list is None unless whiten is set, so
    density-only calls skip the back-solve.
    """
    x = np.asarray(x, dtype=np.float64)
    k, d = level.means.shape
    if x.shape[-1] != d:
        raise ValueError(f"points have dimension {x.shape[-1]}, model has {d}")
    batch = x.shape[:-1]
    flat = x.reshape(-1, d)
    if not np.isfinite(flat).all():
        raise ValueError("points must not contain infs or NaNs")

    log_comp = np.empty((flat.shape[0], k))
    whitened = [] if whiten else None
    for j in range(k):
        upper = level.uppers[j]
        y = _solve_upper(upper, (flat - level.means[j]).T, trans=1)  # L^-1 (x - mu), (d, m)
        maha = np.einsum("im,im->m", y, y)
        log_comp[:, j] = level.log_w[j] - 0.5 * maha - level.log_dets[j] - 0.5 * d * _LOG_2PI
        if whiten:
            whitened.append(_solve_upper(upper, y, trans=0))
    return batch, log_comp, whitened


def _mixture_eval(x, level: _Level, want_score: bool):
    """Log density (and optionally score) of a Gaussian mixture at x."""
    batch, log_comp, whitened = _component_terms(x, level, want_score)
    log_p = _logsumexp_rows(log_comp)
    if not want_score:
        return log_p.reshape(batch)
    resp = np.exp(log_comp - log_p[:, None])
    zs = np.stack([u.T for u in whitened], axis=1)  # (m, K, d)
    score = -np.einsum("mk,mkd->md", resp, zs)
    return log_p.reshape(batch), score.reshape(batch + (level.means.shape[1],))


def gmm_noised_log_density(g: Gmm, x, alpha_bar: float):
    """log p_t(x) of the mixture noised to level alpha_bar in (0, 1]."""
    alpha_bar = float(alpha_bar)
    if not 0.0 < alpha_bar <= 1.0:
        raise ValueError("alpha_bar must lie in (0, 1]")
    return _mixture_eval(x, _noised_level(g, alpha_bar), want_score=False)


def _epsilon(g: Gmm, x, alpha_bar: float, levels: dict):
    """gmm_epsilon, reading the level table from levels and filling it on a miss."""
    alpha_bar = float(alpha_bar)
    if not 0.0 < alpha_bar < 1.0:
        raise ValueError("alpha_bar must lie in (0, 1) for epsilon")
    level = levels.get(alpha_bar)
    if level is None:
        level = levels[alpha_bar] = _noised_level(g, alpha_bar)
    _, score = _mixture_eval(x, level, want_score=True)
    return -math.sqrt(1.0 - alpha_bar) * score


def gmm_epsilon(g: Gmm, x, alpha_bar: float):
    """Exact epsilon-prediction; undefined at zero noise (alpha_bar = 1)."""
    return _epsilon(g, x, alpha_bar, {})


def gmm_sample(g: Gmm, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. exact samples: categorical component draw, then affine map."""
    if n < 1:
        raise ValueError("n must be >= 1")
    edges = np.cumsum(g.weights)
    idx = np.searchsorted(edges, rng.random(n), side="right")
    idx = np.minimum(idx, g.n_components - 1)
    z = rng.standard_normal((n, g.dim))
    return g.means[idx] + np.einsum("nij,nj->ni", g.chol_factors[idx], z)


class ScoreModel(ABC):
    """Epsilon-predictor over R^d; a pure function of (x, t, schedule)."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def predict_epsilon(self, x, t: int, schedule: NoiseSchedule) -> np.ndarray: ...

    @abstractmethod
    def describe(self) -> dict:
        """JSON-able payload identifying the model for run fingerprints."""


class GmmScoreModel(ScoreModel):
    def __init__(self, gmm: Gmm):
        self.gmm = gmm
        self._levels = {}  # alpha_bar -> _Level, built on first use

    @property
    def dim(self) -> int:
        return self.gmm.dim

    def predict_epsilon(self, x, t, schedule):
        return _epsilon(self.gmm, x, schedule.alpha_bar_at(t), self._levels)

    def describe(self) -> dict:
        return {"kind": "gmm", **self.gmm.to_dict()}


class BlockProductModel(ScoreModel):
    """n_blocks independent views, each modelled by the same block model.

    A point holds the views side by side on its last axis. The views are
    folded into the batch, (..., n_blocks * d) -> (-1, d), so one block call
    evaluates all of them.
    """

    def __init__(self, block: ScoreModel, n_blocks: int):
        if n_blocks < 1:
            raise ValueError("need at least one block")
        self.block = block
        self.n_blocks = int(n_blocks)

    @property
    def dim(self) -> int:
        return self.n_blocks * self.block.dim

    def predict_epsilon(self, x, t, schedule):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"points have dimension {x.shape[-1]}, model has {self.dim}")
        eps = self.block.predict_epsilon(x.reshape(-1, self.block.dim), t, schedule)
        return eps.reshape(x.shape)

    def describe(self) -> dict:
        return {"kind": "block_product", "blocks": [self.block.describe()] * self.n_blocks}


class VelocityModel(ABC):
    """Flow velocity field v(x, t) under x_t = t x_0 + (1 - t) eps."""

    @property
    @abstractmethod
    def dim(self) -> int: ...

    @abstractmethod
    def velocity(self, x, t_flow: float) -> np.ndarray: ...

    @abstractmethod
    def describe(self) -> dict: ...


def gmm_flow_log_density(g: Gmm, x, t_flow: float):
    """Log density of the flow-interpolation marginal at time t in (0, 1]."""
    t_flow = float(t_flow)
    if not 0.0 < t_flow <= 1.0:
        raise ValueError("t_flow must lie in (0, 1]")
    return _mixture_eval(x, _flow_level(g, t_flow), want_score=False)


def velocity_from_gmm(g: Gmm, x, t_flow: float):
    """E[x_0 - eps | x_t = x] under the flow interpolation.

    Computed from per-component Gaussian conditionals mixed by posterior
    responsibilities, independently of the score identity it is used to
    verify.
    """
    t_flow = float(t_flow)
    if not 0.0 < t_flow < 1.0:
        raise ValueError("t_flow must lie strictly inside (0, 1)")
    # whitened[j] = C_j^-1 (x - t mu_j), (d, m)
    batch, log_comp, whitened = _component_terms(x, _flow_level(g, t_flow), whiten=True)
    sigmas = g.covariances()
    comp_v = np.stack([
        (g.means[j] + (t_flow * sigmas[j] @ u).T) - (1.0 - t_flow) * u.T  # E[x_0] - E[eps]
        for j, u in enumerate(whitened)
    ], axis=1)  # (m, K, d)
    resp = np.exp(log_comp - _logsumexp_rows(log_comp)[:, None])
    v = np.einsum("mk,mkd->md", resp, comp_v)
    return v.reshape(batch + (g.dim,))


def score_from_velocity(v, x, t_flow: float):
    """Linear velocity-to-score transform s = -(-t v + x) / (1 - t)."""
    t_flow = float(t_flow)
    if not 0.0 < t_flow < 1.0:
        raise ValueError("t_flow must lie strictly inside (0, 1)")
    v = np.asarray(v, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if v.shape != x.shape:
        raise ValueError("v and x must share a shape")
    return -(-t_flow * v + x) / (1.0 - t_flow)


class GmmVelocityModel(VelocityModel):
    def __init__(self, gmm: Gmm):
        self.gmm = gmm

    @property
    def dim(self) -> int:
        return self.gmm.dim

    def velocity(self, x, t_flow):
        return velocity_from_gmm(self.gmm, x, t_flow)

    def describe(self) -> dict:
        return {"kind": "gmm_velocity", **self.gmm.to_dict()}


class VelocityWrappedScoreModel(ScoreModel):
    """Epsilon-predictions obtained from a velocity field.

    The variance-preserving point x is rescaled onto the flow interpolation
    at the SNR-matched time, x' = x * t_flow / sqrt(alpha_bar); the flow
    score at x' converts back through the same change of variables:

        eps_hat(x) = -sqrt(1 - alpha_bar) * c * s(x'),  c = t_flow / sqrt(alpha_bar)
    """

    def __init__(self, vm: VelocityModel):
        self.vm = vm

    @property
    def dim(self) -> int:
        return self.vm.dim

    def predict_epsilon(self, x, t, schedule):
        ab = schedule.alpha_bar_at(t)
        if ab >= 1.0:
            raise ValueError("epsilon undefined at alpha_bar = 1")
        t_flow = alpha_bar_to_flow_time(ab)
        c = t_flow / math.sqrt(ab)
        x = np.asarray(x, dtype=np.float64)
        x_flow = c * x
        s = score_from_velocity(self.vm.velocity(x_flow, t_flow), x_flow, t_flow)
        return -math.sqrt(1.0 - ab) * c * s

    def describe(self) -> dict:
        return {"kind": "velocity_wrapped", "inner": self.vm.describe()}


@dataclass(frozen=True)
class MvScene:
    """Shared-latent multi-view construction plus a per-view edit target.

    Views are x^(i) = y + eta_i with y ~ latent_gmm and eta_i ~ N(0, jitter^2 I)
    independent across views; edit_gmm is the marginal each independently
    edited view should follow.
    """

    n_views: int
    view_dim: int
    latent_gmm: Gmm
    jitter: float
    edit_gmm: Gmm

    def __post_init__(self):
        if self.n_views < 2:
            raise ValueError("need at least two views")
        if not self.jitter > 0.0:
            raise ValueError("jitter must be positive")
        if self.latent_gmm.dim != self.view_dim or self.edit_gmm.dim != self.view_dim:
            raise ValueError("latent and edit mixtures must live in view_dim")

    def to_dict(self) -> dict:
        return {
            "n_views": self.n_views,
            "view_dim": self.view_dim,
            "jitter": float(self.jitter),
            "latent": self.latent_gmm.to_dict(),
            "edit": self.edit_gmm.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MvScene":
        return cls(
            n_views=int(doc["n_views"]),
            view_dim=int(doc["view_dim"]),
            latent_gmm=Gmm.from_dict(doc["latent"]),
            jitter=float(doc["jitter"]),
            edit_gmm=Gmm.from_dict(doc["edit"]),
        )


def mv_consistent_model(scene: MvScene) -> Gmm:
    """Joint mixture over all views with shared-latent block covariance.

    Component k has mean mu_k replicated across views and covariance
    Sigma_k in every block plus jitter^2 I on the diagonal blocks.
    """
    n, d = scene.n_views, scene.view_dim
    if n * d > MV_JOINT_DIM_CAP:
        raise ValueError(f"joint dimension {n * d} exceeds cap {MV_JOINT_DIM_CAP}")
    lat = scene.latent_gmm
    covs = lat.covariances()
    eye = scene.jitter**2 * np.eye(n * d)
    joint_means = np.tile(lat.means, (1, n))
    joint_covs = np.stack([np.kron(np.ones((n, n)), covs[k]) + eye for k in range(lat.n_components)])
    return Gmm.from_covariances(lat.weights, joint_means, joint_covs)


def mv_view_marginal(scene: MvScene) -> Gmm:
    """Single-view marginal: the latent mixture convolved with the jitter."""
    lat = scene.latent_gmm
    covs = lat.covariances() + scene.jitter**2 * np.eye(scene.view_dim)
    return Gmm.from_covariances(lat.weights, lat.means, covs)


def mv_chain_models(scene: MvScene) -> tuple:
    """(edit chain, consistent chain): the per-view edit model over the joint
    view space and the shared-latent joint mixture."""
    return (BlockProductModel(GmmScoreModel(scene.edit_gmm), scene.n_views),
            GmmScoreModel(mv_consistent_model(scene)))
