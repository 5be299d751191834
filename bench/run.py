"""Benchmark of the coupled-sampler CLI: end-to-end metrics and a per-layer trace.

Run from the root of a checkout:

    python3 bench/run.py --workload sample --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 0 --trace 0 --smoke

Each run first times fresh interpreters that import coupled_sampler.cli and
parse a command (setup_s), then starts one fresh worker process for the
workload (worker.py) with the BLAS thread count pinned to the CPUs this
process may use. The worker drives coupled_sampler.cli.main in-process,
closed loop, from one client. --trace 0 prints the end-to-end metrics;
--trace 1 prints the per-layer metrics of BENCHMARK.json. The last line of
standard output is one JSON object; the full report, with the environment,
quartiles, exact counts and check results, goes to
.bench_out/<workload>-seed<seed>-trace<trace>/report.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
RUN_BUDGET_S = 170.0
SETUP_PROBES = 5
# perf_counter is CLOCK_MONOTONIC on Linux, one clock for every process, so the
# probe's reading minus the parent's reading before the spawn is the set-up time.
SETUP_PROBE = (
    "import time\n"
    "import coupled_sampler.cli as cli\n"
    "cli.build_parser().parse_args(['sample', '--config', 'run.json'])\n"
    "print(time.perf_counter())\n"
)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "chain_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "fraction",
}
PER_LAYER_UNITS = {
    "models.predict_epsilon.calls": "count",
    "models.predict_epsilon.busy_s": "s",
    "models.predict_epsilon.ns_per_point": "ns/point",
    "rng.normal.calls": "count",
    "rng.normal.busy_s": "s",
    "rng.normal.mbytes": "MB",
    "step.self_s": "s",
    "step.steps": "count",
    "metrics.busy_s": "s",
    "metrics.nll.busy_s": "s",
    "metrics.energy_test.calls": "count",
    "metrics.energy_test.dist_mbytes": "MB",
    "metrics.energy_test.gflop": "GFLOP",
    "metrics.energy_test.pass_frac": "fraction",
    "emit.busy_s": "s",
    "emit.mbytes_written": "MB",
    "schedule.busy_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "fraction",
}


class BenchError(RuntimeError):
    pass


def _quartiles(values) -> dict:
    values = sorted(values)
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _child_env(root: Path, threads: int) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


def _setup_times(env, root: Path, probes: int, deadline: float) -> list:
    """Spawn-to-first-command seconds of fresh interpreters importing the CLI."""
    out = []
    for _ in range(probes):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=root,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        if proc.returncode != 0:
            raise BenchError(f"importing coupled_sampler.cli failed:\n{proc.stderr.strip()}")
        out.append(float(proc.stdout.strip().splitlines()[-1]) - start)
    return out


def _pass_sums(ops, field: str, traced=None) -> list:
    """Per-pass sums of an operation field over the measured passes, keeping
    only traced or only untraced passes unless traced is None."""
    sums = defaultdict(float)
    for o in ops:
        if o["pass"] >= 0 and traced in (None, o["traced"]):
            sums[o["pass"]] += o[field]
    return [sums[p] for p in sorted(sums)]


def _layer_metrics(tot: dict) -> dict:
    """BENCHMARK.json per-layer metrics of one traced pass from its layer totals.

    Every time listed here is non-zero on both workloads: the reverse loop is
    sampler.sample in `sample` and coupled_sample in `coupled`, so the two are
    reported as one step layer; the metrics functions are summed likewise.
    The per-function split is in the report's layer table."""
    def get(key):
        return tot.get(key, 0.0)

    points = get("models.predict_epsilon.count")
    return {
        "models.predict_epsilon.calls": get("models.predict_epsilon.calls"),
        "models.predict_epsilon.busy_s": get("models.predict_epsilon.busy_s"),
        "models.predict_epsilon.ns_per_point":
            get("models.predict_epsilon.busy_s") * 1e9 / points if points else 0.0,
        "rng.normal.calls": get("rng.normal.calls"),
        "rng.normal.busy_s": get("rng.normal.busy_s"),
        "rng.normal.mbytes": get("rng.normal.count") * 8 / 1e6,
        "step.self_s": get("sampler.self_s") + get("coupling.self_s"),
        "step.steps": get("sampler.count") + get("coupling.count"),
        "metrics.busy_s": sum(v for k, v in tot.items()
                              if k.startswith("metrics.") and k.endswith(".busy_s")),
        "metrics.nll.busy_s": get("metrics.nll.busy_s"),
        "metrics.energy_test.calls": get("metrics.energy_test.calls"),
        "metrics.energy_test.dist_mbytes": get("metrics.energy_test.dist_bytes") / 1e6,
        "metrics.energy_test.gflop": get("metrics.energy_test.flop") / 1e9,
        "emit.busy_s": get("emit.busy_s"),
        "emit.mbytes_written": get("emit.count") / 1e6,
        "schedule.busy_s": get("schedule.busy_s"),
        "cli.self_s": get("cli.self_s"),
    }


def _medians(dicts) -> dict:
    keys = sorted(set().union(*dicts))
    return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in keys}


def _dominant(totals: dict) -> str:
    """The span name with the largest self time."""
    selfs = {k[:-len(".self_s")]: v for k, v in totals.items() if k.endswith(".self_s")}
    return max(selfs, key=selfs.get)


def _trace_report(raw: dict, calls: list) -> dict:
    ops = raw["ops"]
    per_op = {int(k): v for k, v in raw["layers_per_op"].items()}
    per_pass = defaultdict(lambda: defaultdict(float))
    per_key = defaultdict(list)
    for o in ops:
        if o["traced"]:
            for key, value in per_op.get(o["op"], {}).items():
                per_pass[o["pass"]][key] += value
            per_key[o["key"]].append(per_op.get(o["op"], {}))
    passes = [dict(per_pass[p]) for p in sorted(per_pass)]
    metrics = _medians([_layer_metrics(t) for t in passes])
    energy = [o["energy_passed"] for o in ops if "energy_passed" in o]
    # Vacuously 1 in a workload that runs no energy test.
    metrics["metrics.energy_test.pass_frac"] = sum(energy) / len(energy) if energy else 1.0
    traced = statistics.median(_pass_sums(ops, "wall_s", traced=True))
    untraced = statistics.median(_pass_sums(ops, "wall_s", traced=False))
    metrics["trace.overhead_frac"] = traced / untraced - 1.0

    layers = _medians(passes)
    counts = {k: v for k, v in layers.items() if not k.endswith("_s")}
    return {
        "metrics": metrics,
        "layers_per_pass": layers,
        "dominant_layer": _dominant(layers),
        "dominant_layer_per_call": {
            inv.key: {"observed": _dominant(_medians(per_key[inv.key])),
                      "predicted": inv.dominant}
            for inv in calls if per_key[inv.key]
        },
        "counts_repeat_exactly": all(
            {k: v for k, v in p.items() if not k.endswith("_s")} == counts for p in passes),
        "trace_problems": raw["trace_problems"],
        "span_count": raw["span_count"],
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int,
                 smoke: bool) -> dict:
    """Run one workload and return its report (also written to report.json)."""
    deadline = time.perf_counter() + RUN_BUDGET_S
    threads = len(os.sched_getaffinity(0))
    env = _child_env(root, threads)
    name = f"{workload}-seed{seed}-trace{trace}" + ("-smoke" if smoke else "")
    run_dir = root / ".bench_out" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup = _setup_times(env, root, 2 if smoke else SETUP_PROBES, deadline)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", str(run_dir)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded the {RUN_BUDGET_S:.0f}s budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    raw = json.loads((run_dir / "result.json").read_text())

    ops = raw["ops"]
    failed = [o for o in ops if o["problems"]]
    walls = _pass_sums(ops, "wall_s", traced=False)
    wall = _quartiles(walls)
    chain_steps = raw["chain_steps_per_pass"]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace_mode": trace,
        "smoke": smoke,
        "env": {**raw["env"], "nproc": os.cpu_count(), "cpus_usable": threads,
                "blas_threads_pinned": threads, "git_commit": _git_commit(root)},
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [{"op": o["op"], "key": o["key"], "problems": o["problems"]}
                     for o in failed][:20],
        "passes": raw["passes"],
        "measured_s": raw["measured_s"],
        "wall_s": wall,
        "pass_walls_s": walls,
        "call_wall_s": {key: _quartiles([o["wall_s"] for o in ops
                                         if o["key"] == key and o["pass"] >= 0
                                         and not o["traced"]])
                        for key in dict.fromkeys(o["key"] for o in ops if o["pass"] >= 0)},
        "setup_s": _quartiles(setup),
        "counts_per_pass": {
            "chain_steps": chain_steps,
            "csv_bytes": statistics.median(_pass_sums(ops, "csv_bytes")),
        },
        "end_to_end": {
            "wall_s": wall["median"],
            "chain_steps_per_s": chain_steps / wall["median"],
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "ok_frac": 1.0 - len(failed) / len(ops),
            "failed_frac": len(failed) / len(ops),
        },
    }
    if trace:
        report["trace"] = _trace_report(raw, workloads.build(workload, seed, smoke))
        report["trace"]["predicted_dominant_layer"] = workloads.PREDICTED_DOMINANT[workload]
        if report["trace"]["trace_problems"]:
            report["failures"].append({"op": None, "key": "trace",
                                       "problems": report["trace"]["trace_problems"]})
            report["failed"] += 1
    (run_dir / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    return report


def _printed_metrics(report: dict, trace: int) -> dict:
    if trace:
        return {k: (report["trace"]["metrics"][k], unit) for k, unit in PER_LAYER_UNITS.items()}
    return {k: (report["end_to_end"][k], unit) for k, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: every workload finishes in seconds")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "coupled_sampler" / "cli.py").is_file():
        print(f"bench: no src/coupled_sampler/cli.py under {root}; run from a checkout root",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(root, name, args.seed, args.seconds, args.trace,
                                        args.smoke))
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    metrics = {}
    for rep in reports:
        env = rep["env"]
        print(f"# {rep['workload']}: {rep['passes']} passes in {rep['measured_s']:.1f}s, "
              f"wall_s median {rep['wall_s']['median']:.4f} q1 {rep['wall_s']['q1']:.4f} "
              f"q3 {rep['wall_s']['q3']:.4f} n={rep['wall_s']['n']}; "
              f"failed_frac {rep['end_to_end']['failed_frac']:.4f} "
              f"({rep['failed']}/{rep['attempted']}); python {env['python']} numpy "
              f"{env['numpy']} scipy {env['scipy']} {env['blas']} "
              f"threads {env['blas_threads_pinned']}/{env['nproc']}")
        for failure in rep["failures"]:
            print(f"# FAILED {failure['key']}: {'; '.join(failure['problems'])}")
        if args.trace:
            tr = rep["trace"]
            print(f"# {rep['workload']}: dominant layer {tr['dominant_layer']} "
                  f"(predicted {tr['predicted_dominant_layer']}), {tr['span_count']} spans")
            for key, dom in tr["dominant_layer_per_call"].items():
                print(f"#   {key}: dominant layer {dom['observed']} "
                      f"(predicted {dom['predicted']})")
        prefix = f"{rep['workload']}." if len(reports) > 1 else ""
        for key, (value, unit) in _printed_metrics(rep, args.trace).items():
            print(f"{rep['workload']:<11} {key:<38} {value:>16.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
