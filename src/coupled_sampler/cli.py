"""Config-driven experiment runner.

Subcommands: sample, couple, sweep, schedule, verify. Run parameters beyond
paths and the seed live in a JSON config so runs are archivable and
diffable. Exit codes: 0 success, 1 runtime failure or a failed hard verify
check, 2 config validation failure. A run command records a failed checked
metric as `passed: false` in metrics.json and still exits 0.
"""

from __future__ import annotations

import argparse
import json
import math
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
    SweepPoint,
    consistency_residual,
    coupling_distance,
    energy_permutation_test,
    gmm_nll,
    sweep_summary,
)
from .models import GmmScoreModel, gmm_sample, mv_chain_models
from .presets import resolve_gmm, resolve_pair, resolve_scene
from .rng import _check_seed, generator
from .sampler import SamplerConfig, config_fingerprint, sample
from .schedule import (
    NoiseSchedule,
    align_schedules,
    alpha_bar_to_edm_sigma,
    build_linear,
    edm_sigma_to_alpha_bar,
    flow_time_to_alpha_bar,
    schedule_to_json,
    shift_schedule,
)

# rng stream labels for run-level auxiliary draws
_EXACT_CLOUD = 101
_PERMUTATION = 102


# ---------------------------------------------------------------------------
# config validation: the CLI checks JSON shape (keys, types, finiteness, the
# n/seed bounds); the library constructors check values.


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


def parse_schedule_cfg(doc) -> NoiseSchedule:
    fields = _require(doc, "schedule", _SCHEDULE_SCHEMA)
    with _building("schedule"):
        sched = build_linear(fields["num_steps"], fields["beta_start"], fields["beta_end"])
    if "shift" in fields:
        with _building("schedule.shift"):
            sched = shift_schedule(sched, fields["shift"])
    return sched


def parse_sampler_cfg(doc, schedule: NoiseSchedule, allow_trajectory=True) -> SamplerConfig:
    fields = _require(doc, "sampler", _SAMPLER_SCHEMA)
    if fields.get("record_trajectory") and not allow_trajectory:
        raise ConfigError("sampler.record_trajectory: only sample writes a trajectory")
    with _building("sampler"):
        cfg = SamplerConfig(**fields)
        cfg.steps_for(schedule)
    return cfg


def parse_coupling_cfg(doc, allow_lambda=True) -> CouplingConfig:
    schema = dict(_COUPLING_SCHEMA)
    if not allow_lambda:
        schema.pop("lambda")
    fields = _require(doc, "coupling", schema)
    if "lambda" in fields:
        fields["lam"] = fields.pop("lambda")
    with _building("coupling"):
        return CouplingConfig(**fields)


_SAMPLE_SCHEMA = {
    "model": (True, _resolved(resolve_gmm)),
    "schedule": (True, _as_is),
    "sampler": (False, _as_is),
    "n": (True, _as_int_at_least(2)),  # the energy test needs two points per cloud
    "seed": (True, _as_seed),
    "svg": (False, _as_bool),
}

_COUPLE_SCHEMA = {
    "pair": (False, _resolved(resolve_pair)),
    "scene": (False, _resolved(resolve_scene)),
    "schedule": (True, _as_is),
    "sampler": (False, _as_is),
    "coupling": (False, _as_is),
    "n": (True, _as_int_at_least(1)),
    "seed": (True, _as_seed),
    "svg": (False, _as_bool),
}

# a sweep always writes sweep.svg, so it takes no svg key
_SWEEP_SCHEMA = {k: v for k, v in _COUPLE_SCHEMA.items() if k != "svg"}
_SWEEP_SCHEMA["lambda_grid"] = (True, _as_list(_as_lambda))


def _load_config(path: str, seed_override) -> dict:
    doc = _read_json(path, "--config")
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    if seed_override is not None:
        doc["seed"] = seed_override
    return doc


def _resolve_couple_models(fields):
    """-> (model_a, model_b, scene); scene is None on a pair."""
    if ("pair" in fields) == ("scene" in fields):
        raise ConfigError("config: exactly one of pair or scene is required")
    if "scene" in fields:
        scene = fields["scene"]
        with _building("scene"):
            return (*mv_chain_models(scene), scene)
    gmm_a, gmm_b = fields["pair"]
    if gmm_a.dim != gmm_b.dim:
        raise ConfigError("pair: model_b: coupled models must share a dimension")
    return GmmScoreModel(gmm_a), GmmScoreModel(gmm_b), None


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
    doc = _load_config(args.config, args.seed)
    fields = _require(doc, "", _SAMPLE_SCHEMA)
    gmm = fields["model"]
    sched = parse_schedule_cfg(fields["schedule"])
    cfg = parse_sampler_cfg(fields.get("sampler", {}), sched)
    n, seed = fields["n"], fields["seed"]
    _check_svg(fields, gmm.dim)
    out = _out_path(args)

    model = GmmScoreModel(gmm)
    batch = sample(model, sched, cfg, seed, n)
    fingerprint = config_fingerprint(model, sched, cfg)
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


def _law_a(model_a, scene):
    """Chain A's law per view, which it draws independently of B's at lambda = 0."""
    return model_a.gmm if scene is None else scene.edit_gmm


def _lambda_numbers(result, model_a, model_b, scene) -> dict:
    """Every number of one coupled result, keyed by report name. On a scene,
    nll-a is per view and nll-b per joint point; residuals are view medians."""
    a, b = result.batch_a.samples, result.batch_b.samples
    summary = coupling_distance(a, b)
    law_a = _law_a(model_a, scene)
    numbers = {
        "coupling-median": summary.median,
        "coupling-mean": summary.mean,
        "coupling-p90": summary.p90,
        "nll-a": gmm_nll(law_a, a.reshape(-1, law_a.dim)),
        "nll-b": gmm_nll(model_b.gmm, b),
    }
    if scene is not None:
        for label, x in (("a", a), ("b", b)):
            numbers[f"consistency-residual-{label}"] = float(np.median(
                consistency_residual(x, scene.n_views, scene.view_dim)))
    return numbers


def cmd_couple(args) -> int:
    doc = _load_config(args.config, args.seed)
    fields = _require(doc, "", _COUPLE_SCHEMA)
    sched = parse_schedule_cfg(fields["schedule"])
    sampler_cfg = parse_sampler_cfg(fields.get("sampler", {}), sched, allow_trajectory=False)
    coupling_cfg = parse_coupling_cfg(fields.get("coupling", {}))
    n, seed = fields["n"], fields["seed"]
    model_a, model_b, scene = _resolve_couple_models(fields)
    _check_svg(fields, model_a.dim)
    out = _out_path(args)

    result = coupled_sample(model_a, model_b, sched, sampler_cfg, coupling_cfg, seed, n)
    numbers = _lambda_numbers(result, model_a, model_b, scene)
    law_a, rng = _law_a(model_a, scene), generator(seed, _EXACT_CLOUD)
    exact_a = gmm_sample(law_a, n * model_a.dim // law_a.dim, rng).reshape(n, -1)
    lambda0 = coupling_distance(exact_a, gmm_sample(model_b.gmm, n, rng)).median
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
                  fingerprint_a=config_fingerprint(model_a, sched, sampler_cfg),
                  fingerprint_b=config_fingerprint(model_b, sched, sampler_cfg))
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
    doc = _load_config(args.config, args.seed)
    fields = _require(doc, "", _SWEEP_SCHEMA)
    grid = fields["lambda_grid"]
    if len(grid) < 3:
        raise ConfigError("lambda_grid: need at least 3 grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("lambda_grid: values must be strictly increasing")
    sched = parse_schedule_cfg(fields["schedule"])
    sampler_cfg = parse_sampler_cfg(fields.get("sampler", {}), sched, allow_trajectory=False)
    base_coupling = parse_coupling_cfg(fields.get("coupling", {}), allow_lambda=False)
    couplings = [replace(base_coupling, lam=lam) for lam in grid]
    n, seed = fields["n"], fields["seed"]
    model_a, model_b, scene = _resolve_couple_models(fields)
    out = _out_path(args)

    results = coupled_sweep(model_a, model_b, sched, sampler_cfg, couplings, seed, n)
    rows = [_lambda_numbers(result, model_a, model_b, scene) for result in results]
    points = [SweepPoint(lam, r["coupling-median"], r["nll-a"], r["nll-b"])
              for lam, r in zip(grid, rows)]
    verdicts = sweep_summary(points)
    out.mkdir(parents=True, exist_ok=True)
    # a pair has no view residual, and a scene's row carries chain B's only
    write_csv(
        out / "sweep.csv",
        ["lambda", "coupling_median", "nll_a", "nll_b", "residual_b"],
        ([p.lam, p.coupling_median, p.nll_a, p.nll_b, r.get("consistency-residual-b")]
         for p, r in zip(points, rows)),
    )
    reports = [
        MetricReport("sweep-distance-non-increasing",
                     1.0 if verdicts.distance_non_increasing else 0.0, 1.0, "ge"),
        MetricReport("sweep-nll-non-decreasing-beyond-half-drop",
                     1.0 if verdicts.nll_non_decreasing_after_drop else 0.0, 1.0, "ge"),
    ]
    _write_record(out, "sweep", doc, reports, n, seed)
    (out / "sweep.svg").write_text(curves_svg(grid, [
        ("coupling median", [p.coupling_median for p in points], "#1b6ca8"),
        ("chain A NLL", [p.nll_a for p in points], "#d95f02"),
        ("chain B NLL", [p.nll_b for p in points], "#7570b3"),
    ]))
    print(f"wrote {out}/sweep.csv ({len(points)} lambdas)")
    return 0


def cmd_schedule(args) -> int:
    if args.schedule_cmd == "build":
        # past a valid step count, every failure is the betas'
        with _building("--num-steps" if args.num_steps < 1 else "--beta-start/--beta-end"):
            sched = build_linear(args.num_steps, args.beta_start, args.beta_end)
        if args.shift is not None:
            with _building("--shift"):
                sched = shift_schedule(sched, args.shift)
        print(schedule_to_json(sched))
        return 0
    if args.schedule_cmd == "convert":
        with _building("--values"):
            values = [float(v) for v in args.values.split(",")]
            if not all(map(math.isfinite, values)):
                raise ValueError(f"must be finite, got {args.values}")
            arr = np.asarray(values)
            if args.source == "sigma":
                out = {"sigma": values, "alpha_bar": list(edm_sigma_to_alpha_bar(arr))}
            elif args.source == "alpha-bar":
                out = {"alpha_bar": values, "sigma": list(alpha_bar_to_edm_sigma(arr))}
            else:
                out = {"flow_time": values, "alpha_bar": list(flow_time_to_alpha_bar(arr))}
        print(json.dumps(out, sort_keys=True))
        return 0
    # align
    def _load_sched(path, flag):
        doc = _read_json(path, flag)
        with _building(flag):
            return NoiseSchedule.from_json_dict(doc)

    source = _load_sched(args.source_file, "--source")
    target = _load_sched(args.target_file, "--target")
    alignment = align_schedules(source, target)
    print(json.dumps(alignment.to_json_dict(), sort_keys=True))
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
    pc = ssub.add_parser("convert")
    pc.add_argument("--source", choices=("sigma", "alpha-bar", "flow-time"), required=True)
    pc.add_argument("--values", required=True)
    pa = ssub.add_parser("align")
    pa.add_argument("--source", dest="source_file", required=True)
    pa.add_argument("--target", dest="target_file", required=True)
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
