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
responsibilities are formed in log space. The K per-component terms of m
points are held component-major, (K, m), so every array op runs on a
contiguous row of length m, not on m rows of length K. Sums over the
components run in sequence along the K axis. One kernel pass,
_component_terms, serves densities, scores and velocities. A model keeps one
level table, its last level's, in an lru_cache(maxsize=1): the chunks of one
step share it. Epsilon and the flow velocity are read only through a model,
GmmScoreModel.epsilon and GmmVelocityModel.velocity, so both use that table.

The triangular solves call BLAS dtrsm from scipy.linalg._fblas on the right
of dimension-major rows: x - mu_j is held (d, m), one contiguous row per
coordinate, and its Fortran-ordered (m, d) view is solved in place, so a
row's density and epsilon have the same bits whatever the call's row count.
_load_fblas loads that extension file directly instead of importing
scipy.linalg, whose package init pulls in about 300 modules (numpy.f2py and
numpy.testing among them) and would be most of a CLI process's start-up time
and memory. Its dtrsm and sgemm (the energy test's, in metrics) are the
function objects scipy.linalg.blas hands out, so every output bit is the
same. The extension links scipy's OpenBLAS, not numpy's, so a run's hot BLAS
calls share one thread pool: a second pool's workers would spin on the cores
the first waits for.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from .config import _building, _json_array, _json_int, _json_number, _kind, _require
from .schedule import NoiseSchedule, _readonly, alpha_bar_to_flow_time

_LOG_2PI = math.log(2.0 * math.pi)
_WEIGHT_TOL = 1e-12

# Joint dimension cap for multi-view scenes expanded into one full-covariance
# mixture; keeps Cholesky factors desk-sized.
MV_JOINT_DIM_CAP = 32


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
        if d < 1:
            raise ValueError("means need at least one dimension")
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
        if covs.ndim >= 2 and not np.array_equal(covs, np.swapaxes(covs, -1, -2)):
            raise ValueError("covariances must be symmetric")
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
    def from_dict(cls, doc, what: str = "") -> "Gmm":
        """A mixture from its JSON object; error messages start with what."""
        f = _require(doc, what, _GMM_KEYS)
        with _building(what):
            return cls.from_covariances(f["weights"], f["means"], f["covariances"])


_GMM_KEYS = {
    "kind": (False, _kind("gmm")),
    "weights": (True, _json_array),
    "means": (True, _json_array),
    "covariances": (True, _json_array),
}


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
    with np.errstate(divide="ignore"):  # a zero weight's log is -inf
        log_w = np.log(g.weights)
    return _Level(
        log_w=log_w,
        means=means,
        uppers=tuple(L.T for L in chols),
        log_dets=tuple(float(np.sum(np.log(np.diag(L)))) for L in chols),
    )


def _noised_level(g: Gmm, alpha_bar: float) -> _Level:
    return _level(g, math.sqrt(alpha_bar), alpha_bar, 1.0 - alpha_bar)


def _flow_level(g: Gmm, t_flow: float) -> _Level:
    return _level(g, t_flow, t_flow**2, (1.0 - t_flow) ** 2)


def _load_fblas():
    """scipy.linalg._fblas, loaded from its file under scipy.__path__ and
    registered under its own name, so scipy/linalg/__init__.py never runs."""
    name = "scipy.linalg._fblas"
    if name in sys.modules:  # scipy.linalg, or an earlier call, loaded it
        return sys.modules[name]
    searched = []
    for root in scipy.__path__:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = Path(root, "linalg", "_fblas" + suffix)
            if path.is_file():
                loader = importlib.machinery.ExtensionFileLoader(name, str(path))
                spec = importlib.util.spec_from_loader(name, loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules[name] = module
                return module
            searched.append(str(path))
    raise ImportError(f"scipy's extension {name} not found; searched {searched}")


_fblas = _load_fblas()
dtrsm = _fblas.dtrsm


def _solve_upper(upper, rows, trans: int) -> np.ndarray:
    """upper^-T r (trans=0) or upper^-1 r (trans=1) for each column r of the
    C-ordered (d, m) rows, solved in place on the right of their (m, d) view.

    dtrsm returns no info: every factor comes out of a Cholesky
    factorisation with a positive diagonal.
    """
    return dtrsm(1.0, upper, rows.T, side=1, trans_a=trans, overwrite_b=1).T


def _component_terms(x, level: _Level):
    """The mixture kernel's one pass: per-component log(w_j N(x; mu_j, Sigma_j)),
    their log-sum-exp and Sigma_j^-1 (x - mu_j).

    x may carry arbitrary leading batch axes; the last axis is the event
    dimension. Returns (batch shape, (K, m) log terms, (m,) log density, K
    whitened differences as C-ordered (d, m) rows).
    """
    x = np.asarray(x, dtype=np.float64)
    k, d = level.means.shape
    if x.shape[-1] != d:
        raise ValueError(f"points have dimension {x.shape[-1]}, model has {d}")
    batch = x.shape[:-1]
    rows = np.ascontiguousarray(x.reshape(-1, d).T)  # (d, m), one row per coordinate
    if not np.isfinite(rows).all():
        raise ValueError("points must not contain infs or NaNs")
    m = rows.shape[1]

    log_comp = np.empty((k, m))
    whitened = []
    for j in range(k):
        upper = level.uppers[j]
        y = _solve_upper(upper, rows - level.means[j][:, None], trans=0)  # L^-1 (x - mu)
        maha = y[0] * y[0]
        for row in y[1:]:
            maha += row * row
        log_comp[j] = level.log_w[j] - 0.5 * maha - level.log_dets[j] - 0.5 * d * _LOG_2PI
        whitened.append(_solve_upper(upper, y, trans=1))
    # The column max is shifted out before the exponentials. A column whose
    # terms are all -inf has a non-finite max, taken as 0, and gives -inf.
    a_max = log_comp.max(axis=0)
    a_max[~np.isfinite(a_max)] = 0.0
    with np.errstate(divide="ignore"):
        log_p = np.log(np.exp(log_comp - a_max).sum(axis=0)) + a_max
    return batch, log_comp, log_p, whitened


def _mix(resp: np.ndarray, parts) -> np.ndarray:
    """sum_j resp[j] parts[j] of (K, m) weights and K (d, m) arrays, added
    in sequence along the length-m rows.

    The result is C-ordered (m, d): reductions over its last axis pick their
    order from the layout.
    """
    out = np.zeros(parts[0].shape)
    for r, z in zip(resp, parts):
        out += r * z
    return np.ascontiguousarray(out.T)


def gmm_noised_log_density(g: Gmm, x, alpha_bar: float):
    """log p_t(x) of the mixture noised to level alpha_bar in (0, 1]."""
    alpha_bar = float(alpha_bar)
    if not 0.0 < alpha_bar <= 1.0:
        raise ValueError("alpha_bar must lie in (0, 1]")
    batch, _, log_p, _ = _component_terms(x, _noised_level(g, alpha_bar))
    return log_p.reshape(batch)


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


class GmmScoreModel(ScoreModel):
    def __init__(self, gmm: Gmm):
        self.gmm = gmm
        self._level_at = functools.lru_cache(maxsize=1)(lambda ab: _noised_level(gmm, ab))

    @property
    def dim(self) -> int:
        return self.gmm.dim

    def epsilon(self, x, alpha_bar: float):
        """Exact epsilon-prediction; undefined at zero noise (alpha_bar = 1)."""
        alpha_bar = float(alpha_bar)
        if not 0.0 < alpha_bar < 1.0:
            raise ValueError("alpha_bar must lie in (0, 1) for epsilon")
        batch, log_comp, log_p, whitened = _component_terms(x, self._level_at(alpha_bar))
        resp = np.exp(log_comp - log_p)
        return (math.sqrt(1.0 - alpha_bar) * _mix(resp, whitened)).reshape(batch + (self.dim,))

    def predict_epsilon(self, x, t, schedule):
        return self.epsilon(x, schedule.alpha_bar_at(t))


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


def gmm_flow_log_density(g: Gmm, x, t_flow: float):
    """Log density of the flow-interpolation marginal at time t in (0, 1]."""
    t_flow = float(t_flow)
    if not 0.0 < t_flow <= 1.0:
        raise ValueError("t_flow must lie in (0, 1]")
    batch, _, log_p, _ = _component_terms(x, _flow_level(g, t_flow))
    return log_p.reshape(batch)


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


class GmmVelocityModel(ScoreModel):
    """Flow velocity field v(x, t) of a mixture under x_t = t x_0 + (1 - t) eps,
    run as an epsilon-predictor through that field.

    The variance-preserving point x is rescaled onto the flow interpolation
    at the SNR-matched time, x' = x * t_flow / sqrt(alpha_bar); the flow
    score at x' converts back through the same change of variables:

        eps_hat(x) = -sqrt(1 - alpha_bar) * c * s(x'),  c = t_flow / sqrt(alpha_bar)
    """

    def __init__(self, gmm: Gmm):
        self.gmm = gmm
        self._level_at = functools.lru_cache(maxsize=1)(lambda t: _flow_level(gmm, t))

    @property
    def dim(self) -> int:
        return self.gmm.dim

    def velocity(self, x, t_flow: float):
        """E[x_0 - eps | x_t = x] under the flow interpolation.

        Computed from per-component Gaussian conditionals mixed by posterior
        responsibilities, independently of the score identity it is used to
        verify.
        """
        t_flow = float(t_flow)
        if not 0.0 < t_flow < 1.0:
            raise ValueError("t_flow must lie strictly inside (0, 1)")
        # whitened[j] = C_j^-1 (x - t mu_j), (d, m)
        batch, log_comp, log_p, whitened = _component_terms(x, self._level_at(t_flow))
        comp_v = [
            (mu[:, None] + t_flow * sigma @ u) - (1.0 - t_flow) * u  # E[x_0] - E[eps]
            for mu, sigma, u in zip(self.gmm.means, self.gmm.covariances(), whitened)
        ]  # K arrays (d, m)
        resp = np.exp(log_comp - log_p)
        return _mix(resp, comp_v).reshape(batch + (self.dim,))

    def predict_epsilon(self, x, t, schedule):
        ab = schedule.alpha_bar_at(t)
        if ab >= 1.0:
            raise ValueError("epsilon undefined at alpha_bar = 1")
        t_flow = alpha_bar_to_flow_time(ab)
        c = t_flow / math.sqrt(ab)
        x = np.asarray(x, dtype=np.float64)
        x_flow = c * x
        s = score_from_velocity(self.velocity(x_flow, t_flow), x_flow, t_flow)
        return -math.sqrt(1.0 - ab) * c * s


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
        # Messages start with the scene key at fault.
        if self.n_views < 2:
            raise ValueError(f"n_views: need at least two views, got {self.n_views}")
        if not self.jitter > 0.0:
            raise ValueError(f"jitter: must be positive, got {self.jitter}")
        jitter = float(self.jitter)
        if not math.isfinite(jitter * jitter):  # the view covariances hold jitter^2
            raise ValueError(f"jitter: its square must be finite, got {self.jitter}")
        for key, g in (("latent", self.latent_gmm), ("edit", self.edit_gmm)):
            if g.dim != self.view_dim:
                raise ValueError(f"{key}: dimension {g.dim} differs from view_dim {self.view_dim}")

    @classmethod
    def from_dict(cls, doc) -> "MvScene":
        f = _require(doc, "", _SCENE_KEYS)
        return cls(n_views=f["n_views"], view_dim=f["view_dim"], latent_gmm=f["latent"],
                   jitter=f["jitter"], edit_gmm=f["edit"])


_SCENE_KEYS = {
    "kind": (False, _kind("scene")),
    "n_views": (True, _json_int),
    "view_dim": (True, _json_int),
    "jitter": (True, _json_number),
    "latent": (True, Gmm.from_dict),
    "edit": (True, Gmm.from_dict),
}


def mv_consistent_model(scene: MvScene) -> Gmm:
    """Joint mixture over all views with shared-latent block covariance.

    Component k has mean mu_k replicated across views and covariance
    Sigma_k in every block plus jitter^2 I on the diagonal blocks.
    """
    n, d = scene.n_views, scene.view_dim
    if n * d > MV_JOINT_DIM_CAP:
        raise ValueError(f"n_views: joint dimension {n * d} exceeds cap {MV_JOINT_DIM_CAP}")
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
