"""Config-driven experiment runner.

Subcommands: sample, couple, sweep, schedule, verify. Run parameters beyond
paths and the seed live in a JSON config so runs are archivable and
diffable. Exit codes: 0 success, 1 runtime or property failure, 2 config
validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .coupling import CouplingConfig, coupled_sample
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
from .models import Gmm, GmmScoreModel, gmm_sample, mv_chain_models
from .presets import resolve_gmm, resolve_pair, resolve_scene
from .rng import _check_seed, generator
from .sampler import SamplerConfig, sample
from .schedule import (
    NoiseSchedule,
    align_schedules,
    alpha_bar_to_edm_sigma,
    build_linear,
    edm_sigma_to_alpha_bar,
    flow_time_to_alpha_bar,
    schedule_from_json,
    schedule_to_json,
    shift_schedule,
)

# rng stream labels for run-level auxiliary draws
_EXACT_CLOUD = 101
_PERMUTATION = 102


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config validation: the CLI checks JSON shape (keys, types, finiteness, the
# n/seed bounds); the library constructors check values.


def _require(doc: dict, path: str, allowed: dict) -> dict:
    """Checked values of the keys present in doc."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    unknown = set(doc) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
    out = {}
    for key, (required, check) in allowed.items():
        loc = f"{path + '.' if path else ''}{key}"
        if key in doc:
            out[key] = check(doc[key], loc)
        elif required:
            raise ConfigError(f"{loc}: missing required key")
    return out


@contextmanager
def _building(loc):
    """Re-raise a library constructor's ValueError as a config error at loc."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{loc}: {exc}") from exc


def _as_is(v, loc):
    return v


def _as_int(v, loc):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{loc}: expected an integer")
    return v


def _as_int_at_least(lo):
    def check(v, loc):
        if _as_int(v, loc) < lo:
            raise ConfigError(f"{loc}: must be >= {lo}, got {v}")
        return v
    return check


def _as_seed(v, loc):
    v = _as_int(v, loc)
    with _building(loc):
        return _check_seed(v)


def _as_number(v, loc):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{loc}: expected a number")
    try:
        v = float(v)
    except OverflowError:
        raise ConfigError(
            f"{loc}: must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(v):
        raise ConfigError(f"{loc}: must be finite, got {v}")
    return v


def _as_bool(v, loc):
    if not isinstance(v, bool):
        raise ConfigError(f"{loc}: expected true or false")
    return v


def _as_model_spec(v, loc):
    if not isinstance(v, (str, dict)):
        raise ConfigError(f"{loc}: expected a preset name or inline object")
    return v


def _as_list(item):
    def check(v, loc):
        if not isinstance(v, list) or not v:
            raise ConfigError(f"{loc}: expected a non-empty list")
        return [item(x, f"{loc}[{i}]") for i, x in enumerate(v)]

    return check


_SCHEDULE_SCHEMA = {
    "num_steps": (True, _as_int),
    "beta_start": (True, _as_number),
    "beta_end": (True, _as_number),
    "shift": (False, _as_number),
}

_SAMPLER_SCHEMA = {
    "kind": (False, _as_is),
    "variance_rule": (False, _as_is),
    "record_trajectory": (False, _as_bool),
    "step_subset": (False, _as_list(_as_int)),
}

_COUPLING_SCHEMA = {
    "lambda": (False, _as_number),
    "guidance_scale_rule": (False, _as_is),
    "noise_policy": (False, _as_is),
    "lambda_ramp": (False, _as_list(_as_number)),
}


def parse_schedule_cfg(doc, loc="schedule") -> NoiseSchedule:
    fields = _require(doc, loc, _SCHEDULE_SCHEMA)
    with _building(loc):
        sched = build_linear(fields["num_steps"], fields["beta_start"], fields["beta_end"])
    if "shift" in fields:
        with _building(f"{loc}.shift"):
            sched = shift_schedule(sched, fields["shift"])
    return sched


def parse_sampler_cfg(doc, schedule: NoiseSchedule, loc="sampler") -> SamplerConfig:
    fields = _require(doc, loc, _SAMPLER_SCHEMA)
    with _building(loc):
        cfg = SamplerConfig(**fields)
        cfg.steps_for(schedule)
    return cfg


def parse_coupling_cfg(doc, schedule: NoiseSchedule, loc="coupling",
                       allow_lambda=True) -> CouplingConfig:
    schema = dict(_COUPLING_SCHEMA)
    if not allow_lambda:
        schema.pop("lambda")
    fields = _require(doc, loc, schema)
    if "lambda" in fields:
        fields["lam"] = fields.pop("lambda")
    with _building(loc):
        cfg = CouplingConfig(**fields)
    ramp = cfg.lambda_ramp
    if ramp is not None and len(ramp) != schedule.num_steps:
        raise ConfigError(
            f"{loc}.lambda_ramp: length must equal schedule.num_steps "
            f"({schedule.num_steps}), got {len(ramp)}"
        )
    return cfg


def _resolve_gmm_cfg(spec, loc) -> Gmm:
    with _building(loc):
        return resolve_gmm(spec)


_SAMPLE_SCHEMA = {
    "model": (True, _as_model_spec),
    "schedule": (True, _as_is),
    "sampler": (False, _as_is),
    "n": (True, _as_int_at_least(2)),  # the energy test needs two points per cloud
    "seed": (True, _as_seed),
    "svg": (False, _as_bool),
}

_COUPLE_SCHEMA = {
    "model_a": (False, _as_model_spec),
    "model_b": (False, _as_model_spec),
    "pair": (False, _as_model_spec),
    "scene": (False, _as_model_spec),
    "schedule": (True, _as_is),
    "sampler": (False, _as_is),
    "coupling": (False, _as_is),
    "n": (True, _as_int_at_least(1)),
    "seed": (True, _as_seed),
    "svg": (False, _as_bool),
}

_SWEEP_SCHEMA = dict(_COUPLE_SCHEMA)
_SWEEP_SCHEMA["lambda_grid"] = (True, _as_list(_as_number))


def _load_config(path: str, seed_override) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    if seed_override is not None:
        doc["seed"] = seed_override
    return doc


def _resolve_couple_models(fields):
    """-> (model_a, model_b, gmm_a, gmm_b, scene, reference)."""
    sources = [k for k in ("pair", "scene") if k in fields]
    if "model_a" in fields or "model_b" in fields:
        sources.append("model_a/model_b")
        if "model_a" not in fields or "model_b" not in fields:
            raise ConfigError("model_a: model_a and model_b must be given together")
    if len(sources) != 1:
        raise ConfigError(
            "config: exactly one of pair, scene, or model_a/model_b is required"
        )
    reference = {}
    if "scene" in fields:
        with _building("scene"):
            scene = resolve_scene(fields["scene"])
        model_a, model_b = mv_chain_models(scene)
        return model_a, model_b, None, model_b.gmm, scene, reference
    if "pair" in fields:
        with _building("pair"):
            gmm_a, gmm_b, reference = resolve_pair(fields["pair"])
    else:
        gmm_a = _resolve_gmm_cfg(fields["model_a"], "model_a")
        gmm_b = _resolve_gmm_cfg(fields["model_b"], "model_b")
    if gmm_a.dim != gmm_b.dim:
        raise ConfigError("model_b: coupled models must share a dimension")
    return GmmScoreModel(gmm_a), GmmScoreModel(gmm_b), gmm_a, gmm_b, None, reference


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
        step_list = trajectory.steps.tolist()
        for i in range(n):
            chain = (trajectory.x_t[:, i].tolist(), trajectory.x0_hat[:, i].tolist(),
                     trajectory.eps_hat[:, i].tolist())
            for t, x, x0, eps in zip(step_list, *chain):
                yield [i, t] + x + x0 + eps

    write_csv(path, header, rows())


# ---------------------------------------------------------------------------
# commands


def cmd_sample(args) -> int:
    doc = _load_config(args.config, args.seed)
    fields = _require(doc, "", _SAMPLE_SCHEMA)
    gmm = _resolve_gmm_cfg(fields["model"], "model")
    sched = parse_schedule_cfg(fields["schedule"])
    cfg = parse_sampler_cfg(fields.get("sampler", {}), sched)
    n, seed = fields["n"], fields["seed"]

    batch = sample(GmmScoreModel(gmm), sched, cfg, seed, n)
    exact = gmm_sample(gmm, n, generator(seed, _EXACT_CLOUD))
    test = energy_permutation_test(batch.samples, exact, generator(seed, _PERMUTATION))
    reports = [
        MetricReport("nll", gmm_nll(gmm, batch.samples), sample_count=n, seed=seed),
        MetricReport.thresholded(
            "energy-distance", test.statistic, test.null_quantile, "le",
            sample_count=n, seed=seed,
        ),
    ]
    out = _out_dir(args)
    _samples_csv(out / "samples.csv", batch.samples)
    if cfg.record_trajectory:
        _trajectory_csv(out / "trajectory.csv", batch.trajectory)
    write_json(out / "metrics.json", [r.to_dict() for r in reports])
    write_json(
        out / "run.json",
        {"command": "sample", "seed": seed, "fingerprint": batch.fingerprint,
         "config": doc},
    )
    if fields.get("svg"):
        (out / "scatter.svg").write_text(
            scatter_svg([(batch.samples, "#1b6ca8"), (exact, "#bbbbbb")])
        )
    print(f"wrote {out}/samples.csv ({n} samples, fingerprint {batch.fingerprint})")
    return 0


def _median_residual(scene, batch) -> float:
    return float(np.median(consistency_residual(batch.samples, scene.n_views, scene.view_dim)))


def _couple_reports(result, gmm_a, gmm_b, scene, reference, n, seed):
    summary = coupling_distance(result.batch_a, result.batch_b)
    reports = [
        MetricReport("coupling-median", summary.median, sample_count=n, seed=seed),
        MetricReport("coupling-mean", summary.mean, sample_count=n, seed=seed),
        MetricReport("coupling-p90", summary.p90, sample_count=n, seed=seed),
    ]
    if gmm_a is not None:
        reports.append(
            MetricReport("nll-a", gmm_nll(gmm_a, result.batch_a), sample_count=n, seed=seed)
        )
    if gmm_b is not None:
        reports.append(
            MetricReport("nll-b", gmm_nll(gmm_b, result.batch_b), sample_count=n, seed=seed)
        )
    if scene is not None:
        for label, batch in (("a", result.batch_a), ("b", result.batch_b)):
            reports.append(MetricReport(
                f"consistency-residual-{label}", _median_residual(scene, batch),
                sample_count=n, seed=seed,
            ))
    ref = (reference or {}).get("coupling_median_lambda0")
    if ref is not None:
        reports.append(MetricReport.thresholded(
            "coupling-median-vs-lambda0-reference", summary.median, float(ref), "le",
            sample_count=n, seed=seed,
        ))
    return reports


def cmd_couple(args) -> int:
    doc = _load_config(args.config, args.seed)
    fields = _require(doc, "", _COUPLE_SCHEMA)
    sched = parse_schedule_cfg(fields["schedule"])
    sampler_cfg = parse_sampler_cfg(fields.get("sampler", {}), sched)
    coupling_cfg = parse_coupling_cfg(fields.get("coupling", {}), sched)
    n, seed = fields["n"], fields["seed"]
    model_a, model_b, gmm_a, gmm_b, scene, reference = _resolve_couple_models(fields)

    result = coupled_sample(model_a, model_b, sched, sampler_cfg, coupling_cfg, seed, n)
    reports = _couple_reports(result, gmm_a, gmm_b, scene, reference, n, seed)
    out = _out_dir(args)
    _samples_csv(out / "samples_a.csv", result.batch_a.samples)
    _samples_csv(out / "samples_b.csv", result.batch_b.samples)
    write_csv(
        out / "coupling_trace.csv",
        ["step", "mean_distance"],
        ([int(t), v] for t, v in zip(result.series_steps, result.coupling_series)),
    )
    write_json(out / "metrics.json", [r.to_dict() for r in reports])
    write_json(
        out / "run.json",
        {
            "command": "couple",
            "seed": seed,
            "fingerprint_a": result.batch_a.fingerprint,
            "fingerprint_b": result.batch_b.fingerprint,
            "config": doc,
        },
    )
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
    sampler_cfg = parse_sampler_cfg(fields.get("sampler", {}), sched)
    base_coupling = parse_coupling_cfg(fields.get("coupling", {}), sched, allow_lambda=False)
    couplings = []
    for i, lam in enumerate(grid):
        with _building(f"lambda_grid[{i}]"):
            couplings.append(replace(base_coupling, lam=lam))
    n, seed = fields["n"], fields["seed"]
    model_a, model_b, gmm_a, gmm_b, scene, _ = _resolve_couple_models(fields)

    points = []
    for cpl in couplings:
        result = coupled_sample(model_a, model_b, sched, sampler_cfg, cpl, seed, n)
        if scene is None:
            nll_a, residual_b = gmm_nll(gmm_a, result.batch_a), None
        else:
            nll_a = gmm_nll(scene.edit_gmm, result.batch_a.samples.reshape(-1, scene.view_dim))
            residual_b = _median_residual(scene, result.batch_b)
        summary = coupling_distance(result.batch_a, result.batch_b)
        points.append(SweepPoint(
            lam=cpl.lam, coupling_median=summary.median, nll_a=nll_a,
            nll_b=gmm_nll(gmm_b, result.batch_b), residual_b=residual_b,
        ))

    verdicts = sweep_summary(points)
    out = _out_dir(args)
    write_csv(
        out / "sweep.csv",
        ["lambda", "coupling_median", "nll_a", "nll_b", "residual_b"],
        ([p.lam, p.coupling_median, p.nll_a, p.nll_b, p.residual_b] for p in points),
    )
    reports = [
        MetricReport.thresholded(
            "sweep-distance-non-increasing",
            1.0 if verdicts.distance_non_increasing else 0.0, 1.0, "ge",
            sample_count=n, seed=seed,
        ),
        MetricReport.thresholded(
            "sweep-nll-non-decreasing-beyond-half-drop",
            1.0 if verdicts.nll_non_decreasing_after_drop else 0.0, 1.0, "ge",
            sample_count=n, seed=seed,
        ),
    ]
    write_json(out / "metrics.json", [r.to_dict() for r in reports])
    write_json(out / "run.json", {"command": "sweep", "seed": seed, "config": doc})
    lams = [p.lam for p in points]
    (out / "sweep.svg").write_text(curves_svg(
        lams,
        [
            ("coupling median", [p.coupling_median for p in points], "#1b6ca8"),
            ("own-model NLL", [0.5 * (p.nll_a + p.nll_b) for p in points], "#d95f02"),
        ],
    ))
    print(f"wrote {out}/sweep.csv ({len(points)} lambdas)")
    return 0


def cmd_schedule(args) -> int:
    if args.schedule_cmd == "build":
        try:
            sched = build_linear(args.num_steps, args.beta_start, args.beta_end)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if args.shift is not None:
            with _building("--shift"):
                sched = shift_schedule(sched, args.shift)
        print(schedule_to_json(sched))
        return 0
    if args.schedule_cmd == "convert":
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"--values: {exc}") from exc
        if not values:
            raise ConfigError("--values: need at least one number")
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"--values: must be finite, got {args.values}")
        arr = np.asarray(values)
        try:
            if args.source == "sigma":
                out = {"sigma": values, "alpha_bar": list(edm_sigma_to_alpha_bar(arr))}
            elif args.source == "alpha-bar":
                out = {"alpha_bar": values, "sigma": list(alpha_bar_to_edm_sigma(arr))}
            else:
                out = {"flow_time": values, "alpha_bar": list(flow_time_to_alpha_bar(arr))}
        except ValueError as exc:
            raise ConfigError(f"--values: {exc}") from exc
        print(json.dumps(out, sort_keys=True))
        return 0
    # align
    def _load_sched(path, flag):
        try:
            return schedule_from_json(Path(path).read_text())
        except FileNotFoundError as exc:
            raise ConfigError(f"{flag}: file not found: {path}") from exc
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{flag}: {exc}") from exc

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
