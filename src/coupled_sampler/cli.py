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
from pathlib import Path

import numpy as np

from . import __version__
from .coupling import (
    GUIDANCE_RULES,
    NOISE_POLICIES,
    CouplingConfig,
    coupled_sample,
    mv_edit_demo,
)
from .emit import curves_svg, scatter_svg, write_csv, write_json
from .metrics import (
    MetricReport,
    SweepPoint,
    coupling_distance,
    energy_permutation_test,
    gmm_nll,
    sweep_summary,
)
from .models import Gmm, GmmScoreModel, gmm_sample, mv_edit_chain_model, mv_consistent_model
from .presets import PresetError, resolve_gmm, resolve_pair, resolve_scene
from .rng import generator
from .sampler import KINDS, VARIANCE_RULES, SamplerConfig, sample
from .schedule import (
    NoiseSchedule,
    align_schedules,
    alpha_bar_to_edm_sigma,
    build_linear,
    edm_sigma_to_alpha_bar,
    flow_time_to_alpha_bar,
    schedule_from_json,
    shift_schedule,
)

# rng stream labels for run-level auxiliary draws
_EXACT_CLOUD = 101
_PERMUTATION = 102


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# config validation


def _require(doc: dict, path: str, allowed: dict) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    unknown = set(doc) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        raise ConfigError(f"{path + '.' if path else ''}{key}: unknown key")
    out = {}
    for key, (required, check) in allowed.items():
        loc = f"{path + '.' if path else ''}{key}"
        if key not in doc:
            if required:
                raise ConfigError(f"{loc}: missing required key")
            out[key] = None
        else:
            out[key] = check(doc[key], loc)
    return out


def _as_int(lo=None, hi=None):
    def check(v, loc):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{loc}: expected an integer")
        if lo is not None and v < lo:
            raise ConfigError(f"{loc}: must be >= {lo}, got {v}")
        if hi is not None and v > hi:
            raise ConfigError(f"{loc}: must be <= {hi}, got {v}")
        return v

    return check


def _as_number(lo=None, strict_lo=None):
    def check(v, loc):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{loc}: expected a number")
        v = float(v)
        if not math.isfinite(v):
            raise ConfigError(f"{loc}: must be finite, got {v}")
        if lo is not None and v < lo:
            raise ConfigError(f"{loc}: must be >= {lo}, got {v}")
        if strict_lo is not None and v <= strict_lo:
            raise ConfigError(f"{loc}: must be > {strict_lo}, got {v}")
        return v

    return check


def _as_bool(v, loc):
    if not isinstance(v, bool):
        raise ConfigError(f"{loc}: expected true or false")
    return v


def _as_choice(options):
    def check(v, loc):
        if v not in options:
            raise ConfigError(f"{loc}: must be one of {options}, got {v!r}")
        return v

    return check


def _as_model_spec(v, loc):
    if not isinstance(v, (str, dict)):
        raise ConfigError(f"{loc}: expected a preset name or inline object")
    return v


def _as_number_list(min_len=1):
    def check(v, loc):
        if not isinstance(v, list) or len(v) < min_len:
            raise ConfigError(f"{loc}: expected a list of at least {min_len} numbers")
        out = []
        for i, item in enumerate(v):
            if isinstance(item, bool) or not isinstance(item, (int, float)):
                raise ConfigError(f"{loc}[{i}]: expected a number")
            item = float(item)
            if not math.isfinite(item):
                raise ConfigError(f"{loc}[{i}]: must be finite, got {item}")
            out.append(item)
        return out

    return check


def _as_int_list(v, loc):
    if not isinstance(v, list) or not v:
        raise ConfigError(f"{loc}: expected a non-empty list of integers")
    out = []
    for i, item in enumerate(v):
        if isinstance(item, bool) or not isinstance(item, int):
            raise ConfigError(f"{loc}[{i}]: expected an integer")
        out.append(item)
    return out


_SCHEDULE_SCHEMA = {
    "num_steps": (True, _as_int(lo=1)),
    "beta_start": (True, _as_number(strict_lo=0.0)),
    "beta_end": (True, _as_number(strict_lo=0.0)),
    "shift": (False, _as_number(strict_lo=0.0)),
}

_SAMPLER_SCHEMA = {
    "kind": (False, _as_choice(KINDS)),
    "variance_rule": (False, _as_choice(VARIANCE_RULES)),
    "record_trajectory": (False, _as_bool),
    "step_subset": (False, _as_int_list),
}

_COUPLING_SCHEMA = {
    "lambda": (False, _as_number(lo=0.0)),
    "guidance_scale_rule": (False, _as_choice(GUIDANCE_RULES)),
    "noise_policy": (False, _as_choice(NOISE_POLICIES)),
    "lambda_ramp": (False, _as_number_list(min_len=1)),
}


def parse_schedule_cfg(doc, loc="schedule") -> NoiseSchedule:
    if doc is None:
        raise ConfigError(f"{loc}: missing required key")
    fields = _require(doc, loc, _SCHEDULE_SCHEMA)
    if not fields["beta_start"] <= fields["beta_end"]:
        raise ConfigError(f"{loc}.beta_start: must not exceed beta_end")
    if fields["beta_end"] >= 1.0:
        raise ConfigError(f"{loc}.beta_end: must be < 1")
    try:
        sched = build_linear(fields["num_steps"], fields["beta_start"], fields["beta_end"])
        if fields["shift"] is not None:
            sched = shift_schedule(sched, fields["shift"])
    except ValueError as exc:
        raise ConfigError(f"{loc}: {exc}") from exc
    return sched


def parse_sampler_cfg(doc, loc="sampler") -> SamplerConfig:
    fields = _require(doc or {}, loc, _SAMPLER_SCHEMA)
    kwargs = {}
    if fields["kind"] is not None:
        kwargs["kind"] = fields["kind"]
    if fields["variance_rule"] is not None:
        kwargs["variance_rule"] = fields["variance_rule"]
    if fields["record_trajectory"] is not None:
        kwargs["record_trajectory"] = fields["record_trajectory"]
    if fields["step_subset"] is not None:
        kwargs["step_subset"] = tuple(fields["step_subset"])
    try:
        return SamplerConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{loc}: {exc}") from exc


def parse_coupling_cfg(doc, loc="coupling", allow_lambda=True) -> CouplingConfig:
    schema = dict(_COUPLING_SCHEMA)
    if not allow_lambda:
        schema.pop("lambda")
    fields = _require(doc or {}, loc, schema)
    kwargs = {}
    if allow_lambda and fields["lambda"] is not None:
        kwargs["lam"] = fields["lambda"]
    if fields["guidance_scale_rule"] is not None:
        kwargs["guidance_scale_rule"] = fields["guidance_scale_rule"]
    if fields["noise_policy"] is not None:
        kwargs["noise_policy"] = fields["noise_policy"]
    if fields["lambda_ramp"] is not None:
        kwargs["lambda_ramp"] = tuple(fields["lambda_ramp"])
    try:
        return CouplingConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{loc}: {exc}") from exc


def _resolve_gmm_cfg(spec, loc) -> Gmm:
    try:
        return resolve_gmm(spec)
    except (PresetError, ValueError, KeyError) as exc:
        raise ConfigError(f"{loc}: {exc}") from exc


_SAMPLE_SCHEMA = {
    "model": (True, _as_model_spec),
    "schedule": (True, lambda v, loc: v),
    "sampler": (False, lambda v, loc: v),
    "n": (True, _as_int(lo=1)),
    "seed": (True, _as_int(lo=0)),
    "svg": (False, _as_bool),
}

_COUPLE_SCHEMA = {
    "model_a": (False, _as_model_spec),
    "model_b": (False, _as_model_spec),
    "pair": (False, _as_model_spec),
    "scene": (False, _as_model_spec),
    "schedule": (True, lambda v, loc: v),
    "sampler": (False, lambda v, loc: v),
    "coupling": (False, lambda v, loc: v),
    "n": (True, _as_int(lo=1)),
    "seed": (True, _as_int(lo=0)),
    "svg": (False, _as_bool),
}

_SWEEP_SCHEMA = dict(_COUPLE_SCHEMA)
_SWEEP_SCHEMA["lambda_grid"] = (True, _as_number_list(min_len=1))


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
    sources = [k for k in ("pair", "scene") if fields[k] is not None]
    if fields["model_a"] is not None or fields["model_b"] is not None:
        sources.append("model_a/model_b")
        if fields["model_a"] is None or fields["model_b"] is None:
            raise ConfigError("model_a: model_a and model_b must be given together")
    if len(sources) != 1:
        raise ConfigError(
            "config: exactly one of pair, scene, or model_a/model_b is required"
        )
    reference = {}
    scene = None
    if fields["scene"] is not None:
        try:
            scene = resolve_scene(fields["scene"])
        except (PresetError, ValueError, KeyError) as exc:
            raise ConfigError(f"scene: {exc}") from exc
        model_a = mv_edit_chain_model(scene)
        joint = mv_consistent_model(scene)
        model_b = GmmScoreModel(joint)
        return model_a, model_b, None, joint, scene, reference
    if fields["pair"] is not None:
        try:
            gmm_a, gmm_b, reference = resolve_pair(fields["pair"])
        except (PresetError, ValueError, KeyError) as exc:
            raise ConfigError(f"pair: {exc}") from exc
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
    rows = ([i] + list(row) for i, row in enumerate(samples))
    write_csv(path, header, rows)


def _trajectory_csv(path, trajectory):
    """Rows run chain by chain: every recorded step of chain 0, then chain 1, ..."""
    steps, n, d = trajectory.x_t.shape
    header = (
        ["chain_index", "step"]
        + [f"x_{k}" for k in range(d)]
        + [f"x0_hat_{k}" for k in range(d)]
        + [f"eps_hat_{k}" for k in range(d)]
    )

    def rows():
        for i in range(n):
            for s in range(steps):
                yield (
                    [i, int(trajectory.steps[s])]
                    + list(trajectory.x_t[s, i])
                    + list(trajectory.x0_hat[s, i])
                    + list(trajectory.eps_hat[s, i])
                )

    write_csv(path, header, rows())


# ---------------------------------------------------------------------------
# commands


def cmd_sample(args) -> int:
    doc = _load_config(args.config, args.seed)
    fields = _require(doc, "", _SAMPLE_SCHEMA)
    gmm = _resolve_gmm_cfg(fields["model"], "model")
    sched = parse_schedule_cfg(fields["schedule"])
    cfg = parse_sampler_cfg(fields["sampler"])
    n, seed = fields["n"], fields["seed"]

    out = _out_dir(args)
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
    _samples_csv(out / "samples.csv", batch.samples)
    if cfg.record_trajectory:
        _trajectory_csv(out / "trajectory.csv", batch.trajectory)
    write_json(out / "metrics.json", [r.to_dict() for r in reports])
    write_json(
        out / "run.json",
        {"command": "sample", "seed": seed, "fingerprint": batch.fingerprint,
         "config": doc},
    )
    if fields["svg"]:
        (out / "scatter.svg").write_text(
            scatter_svg([(batch.samples, "#1b6ca8"), (exact, "#bbbbbb")])
        )
    print(f"wrote {out}/samples.csv ({n} samples, fingerprint {batch.fingerprint})")
    return 0


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
        reports.append(MetricReport(
            "consistency-residual-a", float(np.median(result.residuals_a)),
            sample_count=n, seed=seed,
        ))
        reports.append(MetricReport(
            "consistency-residual-b", float(np.median(result.residuals_b)),
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
    sampler_cfg = parse_sampler_cfg(fields["sampler"])
    coupling_cfg = parse_coupling_cfg(fields["coupling"])
    n, seed = fields["n"], fields["seed"]
    model_a, model_b, gmm_a, gmm_b, scene, reference = _resolve_couple_models(fields)

    out = _out_dir(args)
    if scene is not None:
        result = mv_edit_demo(scene, sched, coupling_cfg, seed, n, sampler_cfg)
    else:
        result = coupled_sample(model_a, model_b, sched, sampler_cfg, coupling_cfg, seed, n)

    reports = _couple_reports(result, gmm_a, gmm_b, scene, reference, n, seed)
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
    if fields["svg"]:
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
    if any(v < 0 for v in grid):
        raise ConfigError("lambda_grid: values must be non-negative")
    sched = parse_schedule_cfg(fields["schedule"])
    sampler_cfg = parse_sampler_cfg(fields["sampler"])
    base_coupling = parse_coupling_cfg(fields["coupling"], allow_lambda=False)
    n, seed = fields["n"], fields["seed"]
    model_a, model_b, gmm_a, gmm_b, scene, _ = _resolve_couple_models(fields)

    out = _out_dir(args)
    points = []
    for lam in grid:
        cpl = CouplingConfig(
            lam=lam,
            guidance_scale_rule=base_coupling.guidance_scale_rule,
            noise_policy=base_coupling.noise_policy,
            lambda_ramp=base_coupling.lambda_ramp,
        )
        if scene is not None:
            result = mv_edit_demo(scene, sched, cpl, seed, n, sampler_cfg)
            nll_a = gmm_nll(scene.edit_gmm,
                            result.batch_a.samples.reshape(-1, scene.view_dim))
            nll_b = gmm_nll(gmm_b, result.batch_b)
            residual_b = float(np.median(result.residuals_b))
        else:
            result = coupled_sample(model_a, model_b, sched, sampler_cfg, cpl, seed, n)
            nll_a = gmm_nll(gmm_a, result.batch_a)
            nll_b = gmm_nll(gmm_b, result.batch_b)
            residual_b = None
        summary = coupling_distance(result.batch_a, result.batch_b)
        points.append(SweepPoint(
            lam=lam, coupling_median=summary.median, nll_a=nll_a, nll_b=nll_b,
            residual_b=residual_b,
        ))

    verdicts = sweep_summary(points)
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
            if args.shift is not None:
                sched = shift_schedule(sched, args.shift)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        print(json.dumps(sched.to_json_dict(), sort_keys=True))
        return 0
    if args.schedule_cmd == "convert":
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"--values: {exc}") from exc
        if not values:
            raise ConfigError("--values: need at least one number")
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
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
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
    parser.add_argument("--threads", type=int, default=None,
                        help="best-effort cap on BLAS threads")
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


def _limit_threads(n):
    if n is None:
        return
    try:
        import threadpoolctl

        threadpoolctl.threadpool_limits(limits=n)
    except ImportError:
        pass


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _limit_threads(args.threads)
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
