"""Correctness checks on the artifacts of one CLI invocation.

Each check returns (problems, facts): a non-empty problem list fails the
operation; facts are recorded but never fail it. The mixture density used
here is written out independently of coupled_sampler.models, from the preset
JSON data, so a defect in the program's own density code cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

# |z| of the NLL gap between the sampled and an exact cloud. Sampling noise
# alone keeps |z| below about 3 on every preset; a wrong sampler lands far
# beyond this.
NLL_GAP_Z_MAX = 6.0
_NON_FINITE = re.compile(rb"(?i)\b(?:nan|inf|infinity)\b")


def artifact_hashes(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file()
    }


def _non_finite_files(out_dir: Path) -> list:
    return sorted(p.name for p in out_dir.iterdir()
                  if p.is_file() and _NON_FINITE.search(p.read_bytes()))


def _metrics(out_dir: Path) -> dict:
    return {r["name"]: r for r in json.loads((out_dir / "metrics.json").read_text())}


def _samples(path: Path, n: int):
    """(problems, samples) from a samples CSV with n rows."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[0] != n:
        return [f"{path.name}: {data.shape[0]} rows, expected {n}"], None
    if not np.array_equal(data[:, 0], np.arange(n)):
        return [f"{path.name}: chain_index column is not 0..n-1"], None
    return [], data[:, 1:]


def _gmm_neg_log_density(preset: dict, x: np.ndarray) -> np.ndarray:
    d = x.shape[1]
    logs = []
    for w, mu, cov in zip(preset["weights"], preset["means"], preset["covariances"]):
        chol = np.linalg.cholesky(np.asarray(cov, dtype=np.float64))
        y = np.linalg.solve(chol, (x - np.asarray(mu)).T)
        log_det = np.log(np.diag(chol)).sum()
        logs.append(math.log(w) - 0.5 * (y * y).sum(axis=0) - log_det
                    - 0.5 * d * math.log(2.0 * math.pi))
    return -np.logaddexp.reduce(np.stack(logs), axis=0)


def _exact_cloud(preset: dict, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    comp = rng.choice(len(preset["weights"]), size=n, p=preset["weights"])
    z = rng.standard_normal((n, len(preset["means"][0])))
    chols = np.linalg.cholesky(np.asarray(preset["covariances"], dtype=np.float64))
    return np.asarray(preset["means"])[comp] + np.einsum("nij,nj->ni", chols[comp], z)


def _nll_gap(preset: dict, samples: np.ndarray, reported_nll: float, seed: int):
    """Problems with the sample NLL against the reported value and an exact cloud."""
    problems = []
    nll_s = _gmm_neg_log_density(preset, samples)
    if not math.isclose(float(nll_s.mean()), reported_nll, rel_tol=1e-8, abs_tol=1e-10):
        problems.append(f"reported nll {reported_nll} != recomputed {nll_s.mean()}")
    nll_e = _gmm_neg_log_density(preset, _exact_cloud(preset, samples.shape[0], seed))
    se = math.sqrt(nll_s.var() / nll_s.size + nll_e.var() / nll_e.size)
    z = (nll_s.mean() - nll_e.mean()) / se
    if not abs(z) <= NLL_GAP_Z_MAX:
        problems.append(f"nll gap to exact cloud is {z:.2f} standard errors")
    return problems, float(z)


def _check_sample(inv, out_dir: Path, preset_dir: Path):
    cfg = inv.config
    problems, samples = _samples(out_dir / "samples.csv", cfg["n"])
    if problems:
        return problems, {}
    metrics = _metrics(out_dir)
    preset = json.loads((preset_dir / f"{cfg['model']}.json").read_text())
    problems, z = _nll_gap(preset, samples, metrics["nll"]["value"], cfg["seed"])
    facts = {"energy_passed": bool(metrics["energy-distance"]["passed"]), "nll_gap_z": z}
    if inv.check == "trajectory":
        problems += _check_trajectory(out_dir, cfg["n"], cfg["schedule"]["num_steps"])
    return problems, facts


def _check_trajectory(out_dir: Path, n: int, steps: int) -> list:
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    if len(lines) != 1 + n * steps:
        return [f"trajectory.csv: {len(lines) - 1} rows, expected {n * steps}"]
    header = lines[0].split(",")
    x0_cols = [i for i, h in enumerate(header) if h.startswith("x0_hat_")]
    samples = (out_dir / "samples.csv").read_text().splitlines()[1:]
    for chain in range(n):
        last = lines[(chain + 1) * steps].split(",")
        if last[1] != "1":
            return [f"trajectory.csv: chain {chain} does not end at step 1"]
        if [last[i] for i in x0_cols] != samples[chain].split(",")[1:]:
            return [f"trajectory.csv: chain {chain} final sample is not its clean estimate"]
    return []


def _check_sweep(inv, out_dir: Path):
    metrics = _metrics(out_dir)
    problems = [f"{name} failed" for name in (
        "sweep-distance-non-increasing", "sweep-nll-non-decreasing-beyond-half-drop",
    ) if metrics[name]["passed"] is not True]
    rows = (out_dir / "sweep.csv").read_text().splitlines()[1:]
    if len(rows) != len(inv.config["lambda_grid"]):
        problems.append(f"sweep.csv: {len(rows)} rows for {len(inv.config['lambda_grid'])} lambdas")
    return problems, {}


def _check_multiview(inv, out_dir: Path):
    problems = []
    for name in ("samples_a.csv", "samples_b.csv"):
        problems += _samples(out_dir / name, inv.config["n"])[0]
    metrics = _metrics(out_dir)
    res_a = metrics["consistency-residual-a"]["value"]
    res_b = metrics["consistency-residual-b"]["value"]
    if not res_b < res_a:
        problems.append(f"median residual_b {res_b} is not below residual_a {res_a}")
    return problems, {}


def check(inv, exit_code: int, out_dir: Path, preset_dir: Path):
    """(problems, facts) for one invocation's exit code and artifacts."""
    if exit_code != 0:
        return [f"exit code {exit_code}"], {}
    if inv.check == "exit":
        return [], {}
    bad = _non_finite_files(out_dir)
    if bad:
        return [f"non-finite values in {', '.join(bad)}"], {}
    if inv.check in ("fidelity", "trajectory"):
        return _check_sample(inv, out_dir, preset_dir)
    if inv.check == "sweep":
        return _check_sweep(inv, out_dir)
    if inv.check == "multiview":
        return _check_multiview(inv, out_dir)
    raise ValueError(f"unknown check {inv.check!r}")
