"""Discrete variance-preserving noise schedules.

Conventions
-----------
Steps are indexed t = 1..T. Arrays are stored 0-based, so ``beta[t-1]`` is
the step-t variance increment. ``alpha_bar_at(0)`` returns 1 by convention,
which keeps the final reverse step well defined.

The forward marginal at step t is x_t = sqrt(alpha_bar_t) x_0
+ sqrt(1 - alpha_bar_t) eps, so SNR_t = alpha_bar_t / (1 - alpha_bar_t).
``shift_schedule`` rescales that SNR, and ``alpha_bar_to_flow_time`` gives
the flow-interpolation time (x_t = t x_0 + (1 - t) eps) of equal SNR.

Schedules are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np


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

    def to_json_dict(self) -> dict:
        return {
            "num_steps": self.num_steps,
            "beta": [float(b) for b in self.beta],
            "alpha_bar_sha256": _alpha_bar_checksum(self.alpha_bar),
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


def alpha_bar_to_flow_time(alpha_bar):
    """The flow time whose SNR matches alpha_bar:
    t = sqrt(ab) / (sqrt(ab) + sqrt(1 - ab)), with t = 1 at alpha_bar = 1."""
    ab = np.asarray(alpha_bar, dtype=np.float64)
    if np.any((ab <= 0.0) | (ab > 1.0)):
        raise ValueError("alpha_bar must lie in (0, 1]")
    root = np.sqrt(ab)
    out = root / (root + np.sqrt(1.0 - ab))
    return float(out) if out.ndim == 0 else out


def schedule_to_json(sched: NoiseSchedule) -> str:
    return json.dumps(sched.to_json_dict(), sort_keys=True)
