"""Config-driven experiment runner.

Subcommands: sample, couple, sweep, schedule, verify. Run parameters beyond
paths and the seed live in a JSON config so runs are archivable and
diffable. Exit codes: 0 success, 1 runtime failure or a failed hard verify
check, 2 config validation failure. A run command records a failed checked
metric as `passed: false` in metrics.json and still exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, _as_is, _building, _json_int, _json_number, _read_json, _require
from .coupling import CouplingConfig, coupled_sample, coupled_sweep
from .emit import curves_svg, scatter_svg, write_csv, write_json
from .metrics import (
    MetricReport,
    _check_lambda_grid,
    consistency_residual,
    coupling_distance,
    energy_permutation_test,
    gmm_nll,
    sweep_summary,
)
from .models import GmmScoreModel, gmm_sample, mv_chain_models
from .presets import resolve_gmm, resolve_pair, resolve_scene
from .rng import _check_seed, generator
from .sampler import SamplerConfig, sample
from .schedule import NoiseSchedule, build_linear, schedule_to_json, shift_schedule

# rng stream labels for run-level auxiliary draws
_EXACT_CLOUD = 101
_PERMUTATION = 102


# ---------------------------------------------------------------------------
# config validation: one pass over each key table checks JSON shape (keys,
# types, finiteness, the n/seed bounds) and builds the run's objects (models,
# schedule, sampler and coupling configs), whose constructors check values.


def _as_int_at_least(lo):
    def check(v, loc):
        if _json_int(v, loc) < lo:
            raise ConfigError(f"{loc}: must be >= {lo}, got {v}")
        return v
    return check


def _as_seed(v, loc):
    v = _json_int(v, loc)
    with _building(loc):
        return _check_seed(v)


def _as_lambda(v, loc):
    v = _json_number(v, loc)
    with _building(loc):
        CouplingConfig(lam=v)
    return v


def _as_bool(v, loc):
    if not isinstance(v, bool):
        raise ConfigError(f"{loc}: expected true or false")
    return v


def _resolved(resolve):
    """The check of a model key: resolve(preset name or inline object)."""
    def check(v, loc):
        with _building(loc):
            return resolve(v)
    return check


def _as_list(item):
    def check(v, loc):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{loc}: expected a non-empty list")
        return [item(x, f"{loc}[{i}]") for i, x in enumerate(v)]

    return check


_SCHEDULE_SCHEMA = {
    "num_steps": (True, _json_int),
    "beta_start": (True, _json_number),
    "beta_end": (True, _json_number),
    "shift": (False, _json_number),
}

_SAMPLER_SCHEMA = {
    "kind": (False, _as_is),
    "record_trajectory": (False, _as_bool),
    "step_subset": (False, _as_list(_json_int)),
}

_COUPLING_SCHEMA = {
    "lambda": (False, _as_lambda),
    "guidance_scale_rule": (False, _as_is),
}


def _as_schedule(v, loc) -> NoiseSchedule:
    fields = _require(v, loc, _SCHEDULE_SCHEMA)
    with _building(loc):
        sched = build_linear(fields["num_steps"], fields["beta_start"], fields["beta_end"])
    if "shift" in fields:
        with _building(f"{loc}.shift"):
            sched = shift_schedule(sched, fields["shift"])
    return sched


def _built(cls, table):
    """The check of a config object: cls(**its checked keys), with the
    config's "lambda" passed as lam."""
    def check(v, loc):
        fields = _require(v, loc, table)
        if "lambda" in fields:
            fields["lam"] = fields.pop("lambda")
        with _building(loc):
            return cls(**fields)
    return check


_SAMPLE_SCHEMA = {
    "model": (True, _resolved(resolve_gmm)),
    "schedule": (True, _as_schedule),
    "sampler": (False, _built(SamplerConfig, _SAMPLER_SCHEMA)),
    # the energy test rejects only if under 1 % of label permutations reach the
    # observed statistic; for disjoint clouds that share is 2 / C(2n, n),
    # which first falls below 1 % at n = 5
    "n": (True, _as_int_at_least(5)),
    "seed": (True, _as_seed),
    "svg": (False, _as_bool),
}

_COUPLE_SCHEMA = {
    "pair": (False, _resolved(resolve_pair)),
    "scene": (False, _resolved(resolve_scene)),
    "schedule": (True, _as_schedule),
    "sampler": (False, _built(SamplerConfig, _SAMPLER_SCHEMA)),
    "coupling": (False, _built(CouplingConfig, _COUPLING_SCHEMA)),
    "n": (True, _as_int_at_least(1)),
    "seed": (True, _as_seed),
    "svg": (False, _as_bool),
}

# a sweep always writes sweep.svg, so it takes no svg key, and its
# lambda_grid replaces coupling.lambda
_SWEEP_SCHEMA = {k: v for k, v in _COUPLE_SCHEMA.items() if k != "svg"}
_SWEEP_SCHEMA["coupling"] = (False, _built(
    CouplingConfig, {k: v for k, v in _COUPLING_SCHEMA.items() if k != "lambda"}))
_SWEEP_SCHEMA["lambda_grid"] = (True, _as_list(_as_lambda))


def _read_config(args, table) -> tuple[dict, dict]:
    """(doc, fields): the --config object with --seed applied, and its values
    checked and built by table. The sampler defaults, and its step_subset is
    checked against the schedule."""
    doc = _read_json(args.config, "--config")
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    if args.seed is not None:
        doc["seed"] = args.seed
    fields = _require(doc, "", table)
    sampler = fields.setdefault("sampler", SamplerConfig())
    with _building("sampler"):
        sampler.steps_for(fields["schedule"])
    return doc, fields


def _resolve_couple_models(fields):
    """-> (model_a, model_b, law_a, law_b): each chain's model and the law of
    one of its views, which on a scene's chain A is the edit mixture."""
    if fields["sampler"].record_trajectory:
        raise ConfigError("sampler.record_trajectory: only sample writes a trajectory")
    if ("pair" in fields) == ("scene" in fields):
        raise ConfigError("config: exactly one of pair or scene is required")
    if "scene" in fields:
        with _building("scene"):
            model_a, model_b = mv_chain_models(fields["scene"])
        return model_a, model_b, fields["scene"].edit_gmm, model_b.gmm
    gmm_a, gmm_b = fields["pair"]
    if gmm_a.dim != gmm_b.dim:
        raise ConfigError("pair: model_b: coupled models must share a dimension")
    return GmmScoreModel(gmm_a), GmmScoreModel(gmm_b), gmm_a, gmm_b


def _check_svg(fields, dim: int):
    if fields.get("svg") and dim < 2:
        raise ConfigError(f"svg: a scatter plot needs two dimensions, the model has {dim}")


def _out_path(args) -> Path:
    """--out, checked before compute; the directory is made only at emit."""
    out = Path(args.out)
    for p in (out, *out.parents):
        if p.is_symlink() or p.exists():  # a dangling link blocks mkdir too
            if not p.is_dir():
                raise ConfigError(f"--out: {p} exists and is not a directory")
            break
    return out


def _samples_csv(path, samples):
    d = samples.shape[1]
    header = ["chain_index"] + [f"dim_{k}" for k in range(d)]
    rows = ([i] + row for i, row in enumerate(samples.tolist()))
    write_csv(path, header, rows)


def _trajectory_csv(path, trajectory):
    """Rows run chain by chain: every recorded step of chain 0, then chain 1, ..."""
    _, n, d = trajectory.x_t.shape
    header = (
        ["chain_index", "step"]
        + [f"x_{k}" for k in range(d)]
        + [f"x0_hat_{k}" for k in range(d)]
        + [f"eps_hat_{k}" for k in range(d)]
    )

    def rows():
        steps = trajectory.steps.tolist()
        block = np.concatenate((trajectory.x_t, trajectory.x0_hat, trajectory.eps_hat), axis=-1)
        for i in range(n):
            for t, values in zip(steps, block[:, i].tolist()):
                yield [i, t] + values

    write_csv(path, header, rows())


def _fingerprint(gmm, views, schedule, config) -> str:
    """A chain's fingerprint: 16 hex digits of the sha256 of its mixture (a
    scene's edit chain lists it once per view), betas and sampler settings.
    "variance_rule" names the only reverse-step variance and stays so that
    fingerprints keep their bytes."""
    model = {"kind": "gmm", **gmm.to_dict()}
    if views > 1:
        model = {"kind": "block_product", "blocks": [model] * views}
    sampler = {"kind": config.kind, "variance_rule": "beta",
               "record_trajectory": config.record_trajectory,
               "step_subset": list(config.step_subset) if config.step_subset else None}
    payload = {"model": model, "schedule": {"beta": [float(b) for b in schedule.beta]},
               "sampler": sampler}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_record(out, command, doc, reports, n, seed, **fingerprints):
    """The run's record: metrics.json, each report with the run's n and seed,
    and run.json, the command, seed, fingerprints and config echo."""
    write_json(out / "metrics.json",
               [dict(r.to_dict(), sample_count=n, seed=seed) for r in reports])
    write_json(out / "run.json",
               {"command": command, "seed": seed, **fingerprints, "config": doc})


# ---------------------------------------------------------------------------
# commands


def cmd_sample(args) -> int:
    doc, fields = _read_config(args, _SAMPLE_SCHEMA)
    gmm, sched, cfg = fields["model"], fields["schedule"], fields["sampler"]
    n, seed = fields["n"], fields["seed"]
    _check_svg(fields, gmm.dim)
    out = _out_path(args)

    model = GmmScoreModel(gmm)
    batch = sample(model, sched, cfg, seed, n)
    fingerprint = _fingerprint(gmm, 1, sched, cfg)
    exact = gmm_sample(gmm, n, generator(seed, _EXACT_CLOUD))
    test = energy_permutation_test(batch.samples, exact, generator(seed, _PERMUTATION))
    reports = [
        MetricReport("nll", gmm_nll(gmm, batch.samples)),
        MetricReport("energy-distance", test.statistic, test.null_quantile, "le"),
    ]
    out.mkdir(parents=True, exist_ok=True)
    _samples_csv(out / "samples.csv", batch.samples)
    if cfg.record_trajectory:
        _trajectory_csv(out / "trajectory.csv", batch.trajectory)
    _write_record(out, "sample", doc, reports, n, seed, fingerprint=fingerprint)
    if fields.get("svg"):
        (out / "scatter.svg").write_text(
            scatter_svg([(batch.samples, "#1b6ca8"), (exact, "#bbbbbb")])
        )
    print(f"wrote {out}/samples.csv ({n} samples, fingerprint {fingerprint})")
    return 0


def _lambda_numbers(result, law_a, law_b) -> dict:
    """Every number of one coupled result, keyed by report name. On a scene,
    nll-a is per view and nll-b per joint point; residuals are view medians."""
    a, b = result.batch_a.samples, result.batch_b.samples
    summary = coupling_distance(a, b)
    views = a.shape[1] // law_a.dim
    numbers = {
        "coupling-median": summary.median,
        "coupling-mean": summary.mean,
        "coupling-p90": summary.p90,
        "nll-a": gmm_nll(law_a, a.reshape(-1, law_a.dim)),
        "nll-b": gmm_nll(law_b, b),
    }
    if views > 1:
        for label, x in (("a", a), ("b", b)):
            numbers[f"consistency-residual-{label}"] = float(np.median(
                consistency_residual(x, views, law_a.dim)))
    return numbers


def cmd_couple(args) -> int:
    doc, fields = _read_config(args, _COUPLE_SCHEMA)
    sched, sampler_cfg = fields["schedule"], fields["sampler"]
    coupling_cfg = fields.get("coupling", CouplingConfig())
    n, seed = fields["n"], fields["seed"]
    model_a, model_b, law_a, law_b = _resolve_couple_models(fields)
    _check_svg(fields, model_a.dim)
    out = _out_path(args)

    result = coupled_sample(model_a, model_b, sched, sampler_cfg, coupling_cfg, seed, n)
    numbers = _lambda_numbers(result, law_a, law_b)
    views, rng = model_a.dim // law_a.dim, generator(seed, _EXACT_CLOUD)
    exact_a = gmm_sample(law_a, n * views, rng).reshape(n, -1)
    lambda0 = coupling_distance(exact_a, gmm_sample(law_b, n, rng)).median
    reports = [MetricReport(name, value) for name, value in numbers.items()]
    reports.append(MetricReport(
        "coupling-median-vs-lambda0-reference", numbers["coupling-median"], lambda0, "le"))
    out.mkdir(parents=True, exist_ok=True)
    _samples_csv(out / "samples_a.csv", result.batch_a.samples)
    _samples_csv(out / "samples_b.csv", result.batch_b.samples)
    write_csv(
        out / "coupling_trace.csv",
        ["step", "mean_distance"],
        map(list, zip(result.series_steps.tolist(), result.coupling_series.tolist())),
    )
    _write_record(out, "couple", doc, reports, n, seed,
                  fingerprint_a=_fingerprint(law_a, views, sched, sampler_cfg),
                  fingerprint_b=_fingerprint(law_b, 1, sched, sampler_cfg))
    if fields.get("svg"):
        (out / "paired_scatter.svg").write_text(
            scatter_svg(
                [(result.batch_a.samples, "#999999"), (result.batch_b.samples, "#d95f02")],
                segments=(result.batch_a.samples, result.batch_b.samples),
            )
        )
    print(f"wrote {out}/samples_a.csv, samples_b.csv (n={n})")
    return 0


def cmd_sweep(args) -> int:
    doc, fields = _read_config(args, _SWEEP_SCHEMA)
    grid = fields["lambda_grid"]
    with _building("lambda_grid"):
        _check_lambda_grid(grid)
    sched, sampler_cfg = fields["schedule"], fields["sampler"]
    couplings = [replace(fields.get("coupling", CouplingConfig()), lam=lam) for lam in grid]
    n, seed = fields["n"], fields["seed"]
    model_a, model_b, law_a, law_b = _resolve_couple_models(fields)
    out = _out_path(args)

    results = coupled_sweep(model_a, model_b, sched, sampler_cfg, couplings, seed, n)
    rows = [_lambda_numbers(result, law_a, law_b) for result in results]
    medians, nlls_a, nlls_b = ([r[name] for r in rows]
                               for name in ("coupling-median", "nll-a", "nll-b"))
    reports = sweep_summary(grid, medians, nlls_a, nlls_b)
    out.mkdir(parents=True, exist_ok=True)
    # a pair has no view residual, and a scene's row carries chain B's only
    write_csv(
        out / "sweep.csv",
        ["lambda", "coupling_median", "nll_a", "nll_b", "residual_b"],
        ([lam, r["coupling-median"], r["nll-a"], r["nll-b"], r.get("consistency-residual-b")]
         for lam, r in zip(grid, rows)),
    )
    _write_record(out, "sweep", doc, reports, n, seed)
    (out / "sweep.svg").write_text(curves_svg(grid, [
        ("coupling median", medians, "#1b6ca8"),
        ("chain A NLL", nlls_a, "#d95f02"),
        ("chain B NLL", nlls_b, "#7570b3"),
    ]))
    print(f"wrote {out}/sweep.csv ({len(rows)} lambdas)")
    return 0


def cmd_schedule(args) -> int:
    """`schedule build`: print the schedule a run's `schedule` object builds."""
    # past a valid step count, every failure is the betas'
    with _building("--num-steps" if args.num_steps < 1 else "--beta-start/--beta-end"):
        sched = build_linear(args.num_steps, args.beta_start, args.beta_end)
    if args.shift is not None:
        with _building("--shift"):
            sched = shift_schedule(sched, args.shift)
    print(schedule_to_json(sched))
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verify

    checks = run_verify()
    width = max(len(c.report.name) for c in checks)
    failed_hard = False
    for c in checks:
        r = c.report
        status = "PASS" if r.passed else "FAIL"
        if not r.passed and c.hard:
            failed_hard = True
        kind = "hard" if c.hard else "soft"
        thr = f" threshold={r.threshold:g} ({r.op})" if r.threshold is not None else ""
        print(f"{status}  {r.name:<{width}}  value={r.value:.6g}{thr} [{kind}]")
    print("verify:", "FAIL" if failed_hard else "OK")
    return 1 if failed_hard else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupled-sampler",
        description="Coupled diffusion sampling engine on analytic mixture models",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("sample", cmd_sample), ("couple", cmd_couple), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default="out")
        p.set_defaults(fn=fn)

    ps = sub.add_parser("schedule")
    ssub = ps.add_subparsers(dest="schedule_cmd", required=True)
    pb = ssub.add_parser("build")
    pb.add_argument("--num-steps", type=int, required=True)
    pb.add_argument("--beta-start", type=float, required=True)
    pb.add_argument("--beta-end", type=float, required=True)
    pb.add_argument("--shift", type=float, default=None)
    ps.set_defaults(fn=cmd_schedule)

    pv = sub.add_parser("verify")
    pv.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
