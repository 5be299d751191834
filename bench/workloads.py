"""Workload definitions: fixed CLI configs generated from the benchmark seed.

A workload is a pass: an ordered list of CLI invocations. Every config is a
pure function of (workload, seed, smoke), so the same seed gives the same
inputs. Sizes follow the README configs and the fidelity acceptance loop;
smoke mode shrinks every size so all workloads finish in seconds.

Two workloads, each with long passes: on a small shared machine the host's
speed drifts over tens of seconds, and only long runs average it out.
- sample: the single-chain `sample` command. The six fidelity presets
  (sample + exact energy test, n=4096) and one deterministic T=1000 run
  that records trajectories (n=256). Energy test, sampler step and emit.
- coupled: the two-chain commands. The README lambda sweep on
  separated-pair (d=2), the same sweep on the mv-triangle scene (d=6,
  through BlockProductModel), and one couple on the scene. Score model,
  noise draws and coupling step; no energy test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

README_SCHEDULE = {"num_steps": 200, "beta_start": 1e-4, "beta_end": 0.115}
# Same alpha_bar_T as the README schedule, over five times the steps.
LONG_SCHEDULE = {"num_steps": 1000, "beta_start": 2e-5, "beta_end": 0.023}
LAMBDA_GRID = [0.0, 0.5, 1.0, 2.0, 4.0]
FIDELITY_PRESETS = (
    "anis-3c-2d", "bimodal-2d", "gauss-left", "gauss-right", "ring-2c-4d", "std-normal-2d",
)
WORKLOADS = ("sample", "coupled")

# The layer each workload is expected to spend most of its traced time in.
PREDICTED_DOMINANT = {"sample": "metrics.energy_test", "coupled": "models.predict_epsilon"}


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `coupled-sampler <command> --config <config>`."""

    key: str
    command: str
    config: dict
    check: str  # name of the correctness check in checks.py
    chain_steps: int  # chains x n x reverse steps the call executes
    dominant: str  # layer expected to take most of this call's traced time


def _schedule(base: dict, smoke: bool, smoke_steps: int) -> dict:
    if not smoke:
        return dict(base)
    # Keep the end-point alpha_bar roughly fixed while cutting steps.
    scale = base["num_steps"] / smoke_steps
    return {
        "num_steps": smoke_steps,
        "beta_start": base["beta_start"] * scale,
        "beta_end": min(base["beta_end"] * scale, 0.5),
    }


def build(workload: str, seed: int, smoke: bool = False) -> list:
    """The pass of `workload` for benchmark seed `seed`."""
    rng = random.Random(f"{workload}:{seed}")

    def next_seed() -> int:
        return rng.randrange(2**31)

    if workload == "sample":
        n = 256 if smoke else 4096
        sched = _schedule(README_SCHEDULE, smoke, 50)
        calls = [
            Invocation(
                key=f"sample:{preset}", command="sample",
                config={"model": preset, "schedule": sched, "n": n,
                        "seed": next_seed(), "svg": True},
                check="fidelity", chain_steps=n * sched["num_steps"],
                dominant="metrics.energy_test",
            )
            for preset in FIDELITY_PRESETS
        ]
        n = 32 if smoke else 256
        sched = _schedule(LONG_SCHEDULE, smoke, 100)
        calls.append(Invocation(
            key="sample:trajectory", command="sample",
            config={"model": "anis-3c-2d", "schedule": sched,
                    "sampler": {"kind": "deterministic", "record_trajectory": True},
                    "n": n, "seed": next_seed()},
            check="trajectory", chain_steps=n * sched["num_steps"], dominant="emit",
        ))
        return calls
    if workload == "coupled":
        n = 256 if smoke else 2048
        sched = _schedule(README_SCHEDULE, smoke, 50)
        steps = sched["num_steps"]
        sweeps = [
            Invocation(
                key=f"sweep:{name}", command="sweep",
                config={kind: name, "schedule": sched, "lambda_grid": LAMBDA_GRID,
                        "n": n, "seed": next_seed()},
                check="sweep", chain_steps=len(LAMBDA_GRID) * 2 * n * steps,
                dominant="models.predict_epsilon",
            )
            for kind, name in (("pair", "separated-pair"), ("scene", "mv-triangle"))
        ]
        # sweep emits no chain-A view residual; one couple call reports both.
        couple = Invocation(
            key="couple:mv-triangle", command="couple",
            config={"scene": "mv-triangle", "schedule": sched, "coupling": {"lambda": 1.0},
                    "n": n, "seed": next_seed()},
            check="multiview", chain_steps=2 * n * steps, dominant="models.predict_epsilon",
        )
        return sweeps + [couple]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(calls: list) -> list:
    """Short copies of the pass, run once untimed: they load lazy imports and
    grow the heap to working size without paying for a full pass."""
    out = []
    for inv in calls:
        cfg = dict(inv.config, n=min(inv.config["n"], 1024))
        cfg["schedule"] = {"num_steps": 10, "beta_start": 1e-2, "beta_end": 0.5}
        out.append(Invocation(key=f"warmup:{inv.key}", command=inv.command,
                              config=cfg, check="exit", chain_steps=0, dominant=""))
    return out
