"""Discrete variance-preserving noise schedules and parameterization bridges.

Conventions
-----------
Steps are indexed t = 1..T. Arrays are stored 0-based, so ``beta[t-1]`` is
the step-t variance increment. ``alpha_bar_at(0)`` returns 1 by convention,
which keeps the final reverse step well defined.

The forward marginal at step t is x_t = sqrt(alpha_bar_t) x_0
+ sqrt(1 - alpha_bar_t) eps, so SNR_t = alpha_bar_t / (1 - alpha_bar_t) is
the quantity preserved by every conversion in this module:

* EDM (variance exploding, x_0 + sigma n): alpha_bar = 1 / (1 + sigma^2)
* flow interpolation (x_t = t x_0 + (1 - t) eps):
  alpha_bar = t^2 / (t^2 + (1 - t)^2)

Schedules are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import _as_is, _json_array, _json_int, _require

# Flow times below this are rejected: the velocity-to-score transform blows
# up as alpha_bar -> 0, and no sampler step ever needs them.
DEFAULT_FLOW_TIME_MIN = 1e-6


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only float64 copy: never a view of the caller's memory."""
    arr = np.array(arr, dtype=np.float64, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step variance schedule beta_t with derived alpha_bar_t, the
    running product of 1 - beta_s over s <= t. NoiseSchedule(beta) is the
    one constructor: alpha_bar is always derived, never passed."""

    beta: np.ndarray
    alpha_bar: np.ndarray = field(init=False)

    def __post_init__(self):
        beta = _readonly(self.beta)
        if beta.ndim != 1 or beta.size == 0:
            raise ValueError("beta must be a non-empty 1-d sequence")
        if not np.all((beta > 0.0) & (beta < 1.0)):
            raise ValueError("every beta_t must lie strictly inside (0, 1)")
        ab = _readonly(np.cumprod(1.0 - beta))
        if ab[-1] <= 0.0:
            raise ValueError("alpha_bar_T must stay positive")
        if not np.all(ab < np.concatenate([[1.0], ab[:-1]])):
            raise ValueError("alpha_bar must be strictly decreasing from alpha_bar_0 = 1")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha_bar", ab)

    @property
    def num_steps(self) -> int:
        return int(self.beta.size)

    def beta_at(self, t: int) -> float:
        if not 1 <= t <= self.num_steps:
            raise ValueError(f"step {t} outside 1..{self.num_steps}")
        return float(self.beta[t - 1])

    def alpha_bar_at(self, t: int) -> float:
        """alpha_bar_t for t in 0..T, with alpha_bar_0 = 1."""
        if not 0 <= t <= self.num_steps:
            raise ValueError(f"step {t} outside 0..{self.num_steps}")
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])

    def log_snr(self) -> np.ndarray:
        ab = self.alpha_bar
        return np.log(ab) - np.log1p(-ab)

    def to_json_dict(self) -> dict:
        return {
            "num_steps": self.num_steps,
            "beta": [float(b) for b in self.beta],
            "alpha_bar_sha256": _alpha_bar_checksum(self.alpha_bar),
        }

    @classmethod
    def from_json_dict(cls, doc) -> "NoiseSchedule":
        """The inverse of to_json_dict: {"beta", "num_steps", "alpha_bar_sha256"},
        the last two optional; an unknown key is refused."""
        f = _require(doc, "", _JSON_KEYS)
        sched = cls(f["beta"])
        if f.get("num_steps", sched.num_steps) != sched.num_steps:
            raise ValueError("num_steps does not match beta length")
        checksum = _alpha_bar_checksum(sched.alpha_bar)
        if f.get("alpha_bar_sha256", checksum) != checksum:
            raise ValueError("alpha_bar checksum mismatch on load")
        return sched


_JSON_KEYS = {
    "num_steps": (False, _json_int),
    "beta": (True, _json_array),
    "alpha_bar_sha256": (False, _as_is),
}


def _alpha_bar_checksum(alpha_bar: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(alpha_bar).tobytes()).hexdigest()


def build_linear(num_steps: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Schedule whose betas interpolate the endpoints inclusively."""
    if num_steps < 1:
        raise ValueError("num_steps must be >= 1")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError("need 0 < beta_start <= beta_end < 1")
    return NoiseSchedule(np.linspace(beta_start, beta_end, num_steps))


def shift_schedule(sched: NoiseSchedule, shift: float) -> NoiseSchedule:
    """Rescale the SNR profile: SNR'_t = SNR_t / shift^2.

    shift > 1 moves every step toward more noise; shift == 1 returns the
    input unchanged. Betas are recomputed from the shifted alpha_bar.
    """
    shift = float(shift)
    if not shift > 0.0:
        raise ValueError("shift must be positive")
    if shift == 1.0:
        return sched
    snr = sched.alpha_bar / (1.0 - sched.alpha_bar)
    snr_shifted = snr / (shift * shift)
    ab = snr_shifted / (1.0 + snr_shifted)
    prev = np.concatenate([[1.0], ab[:-1]])
    beta = 1.0 - ab / prev
    return NoiseSchedule(beta)


def edm_sigma_to_alpha_bar(sigma):
    """SNR-matched conversion from the variance-exploding noise level."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0.0):
        raise ValueError("sigma must be non-negative")
    with np.errstate(over="ignore"):
        out = 1.0 / (1.0 + sigma * sigma)
    if np.any(out == 0.0):  # outside the (0, 1] the inverse accepts
        raise ValueError("sigma too large: alpha_bar underflows to 0")
    return float(out) if out.ndim == 0 else out


def alpha_bar_to_edm_sigma(alpha_bar):
    """Inverse of edm_sigma_to_alpha_bar on (0, 1]."""
    ab = np.asarray(alpha_bar, dtype=np.float64)
    if np.any((ab <= 0.0) | (ab > 1.0)):
        raise ValueError("alpha_bar must lie in (0, 1]")
    with np.errstate(over="ignore"):
        out = np.sqrt((1.0 - ab) / ab)
    if np.any(out == np.inf):
        raise ValueError("alpha_bar too small: sigma overflows")
    return float(out) if out.ndim == 0 else out


def flow_time_to_alpha_bar(t_flow):
    """alpha_bar matching the SNR of the flow interpolation at time t."""
    t = np.asarray(t_flow, dtype=np.float64)
    if np.any(t < DEFAULT_FLOW_TIME_MIN) or np.any(t > 1.0):
        raise ValueError(f"flow time must lie in [{DEFAULT_FLOW_TIME_MIN}, 1]")
    out = t * t / (t * t + (1.0 - t) ** 2)
    return float(out) if out.ndim == 0 else out


def alpha_bar_to_flow_time(alpha_bar):
    """Inverse of flow_time_to_alpha_bar: t = sqrt(ab) / (sqrt(ab) + sqrt(1-ab))."""
    ab = np.asarray(alpha_bar, dtype=np.float64)
    if np.any((ab <= 0.0) | (ab > 1.0)):
        raise ValueError("alpha_bar must lie in (0, 1]")
    root = np.sqrt(ab)
    out = root / (root + np.sqrt(1.0 - ab))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScheduleAlignment:
    """Nearest-log-SNR pairing of source steps onto target steps."""

    source_steps: int
    mapping: tuple  # ((source_step, target_step), ...) 1-based
    max_log_snr_gap: float

    def to_json_dict(self) -> dict:
        return {
            "source_steps": self.source_steps,
            "mapping": [[s, t] for s, t in self.mapping],
            "max_log_snr_gap": self.max_log_snr_gap,
        }


def align_schedules(source: NoiseSchedule, target: NoiseSchedule) -> ScheduleAlignment:
    """Map each source step to the target step with the closest log SNR.

    Ties break toward the smaller target index. Both log-SNR sequences are
    strictly decreasing, so the mapping is monotone non-decreasing.
    """
    ls_src = source.log_snr()
    ls_tgt = target.log_snr()
    gaps = np.abs(ls_src[:, None] - ls_tgt[None, :])
    idx = np.argmin(gaps, axis=1)  # first minimum = smaller target index
    worst = float(np.max(gaps[np.arange(ls_src.size), idx])) if ls_src.size else 0.0
    mapping = tuple((s + 1, int(idx[s]) + 1) for s in range(ls_src.size))
    return ScheduleAlignment(
        source_steps=source.num_steps, mapping=mapping, max_log_snr_gap=worst
    )


def snr_log_grid() -> np.ndarray:
    """61 log-spaced sigmas from 1e-3 to 1e3, for the conversion round-trip checks."""
    return np.exp(np.linspace(math.log(1e-3), math.log(1e3), 61))


def schedule_to_json(sched: NoiseSchedule) -> str:
    return json.dumps(sched.to_json_dict(), sort_keys=True)
