"""One workload run in a fresh process: warm up, then closed-loop passes.

Usage (started by run.py, from the root of a checkout):
    python3 bench/worker.py --workload W --seed S --seconds R --trace 0|1 --run-dir D [--smoke]

After an untimed warm-up, each pass calls coupled_sampler.cli.main once per
invocation of the workload, one call after another from a single client.
Passes repeat while another one fits in --seconds, and at least twice.
Every call is timed,
then checked (checks.py) outside the timed region; its artifacts must match
the first pass byte for byte. With --trace 1, odd passes run under the
tracer and even passes do not, so the traced and untraced walls come from
the same process. Raw results go to D/result.json, spans to D/spans.jsonl.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import tracing
import workloads

MIN_PASSES = 2  # the reproducibility check needs a repeated pass
MEASURE_CAP_S = 110.0  # start no pass after this, whatever MIN_PASSES says


def _env() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        # Without threadpoolctl the CLI's --threads flag does nothing, so the
        # thread count is pinned through the environment instead.
        "threadpoolctl_present": importlib.util.find_spec("threadpoolctl") is not None,
        "machine": platform.machine(),
    }


def _layer_totals(spans, self_t) -> dict:
    """Per-operation layer totals: calls, busy, self time and counts."""
    per_op = defaultdict(lambda: defaultdict(float))
    for span, st in zip(spans, self_t):
        op, name, start, end, parent, count = span
        agg = per_op[op]
        agg[f"{name}.self_s"] += st
        if parent < 0 or spans[parent][1] != name:
            agg[f"{name}.busy_s"] += end - start
            agg[f"{name}.calls"] += 1
        if count is None:
            continue
        if name == "metrics.energy_test":
            m, d, perms = count
            agg[f"{name}.dist_bytes"] += 4 * m * m
            # distance build (pooled @ pooled.T) plus the permutation matmul
            agg[f"{name}.flop"] += 2 * m * m * d + 2 * m * m * (perms + 1)
        else:
            agg[f"{name}.count"] += count
    return per_op


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    run_dir = Path(args.run_dir)
    import coupled_sampler
    import coupled_sampler.cli as cli

    calls = workloads.build(args.workload, args.seed, args.smoke)
    warm = workloads.warmup(calls)
    cfg_dir = run_dir / "configs"
    cfg_dir.mkdir(parents=True)
    paths = {}
    for inv in warm + calls:
        paths[inv.key] = cfg_dir / f"{len(paths)}.json"
        paths[inv.key].write_text(json.dumps(inv.config))
    preset_dir = root / "src" / "coupled_sampler" / "presets"
    work = run_dir / "work"
    tracer = tracing.Tracer(coupled_sampler) if args.trace else None

    ops = []
    ref_hashes = {}

    def run_op(inv, pass_idx, traced):
        out_dir = work / f"op{len(ops)}"
        argv = [inv.command, "--config", str(paths[inv.key]), "--out", str(out_dir)]
        gc.collect()
        if traced:
            tracer.op = len(ops)
        with contextlib.redirect_stdout(io.StringIO()):  # the CLI prints a summary line
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        if traced:
            tracer.op = None
        try:
            problems, facts = checks.check(inv, code, out_dir, preset_dir)
            if code == 0 and inv.check != "exit":
                hashes = checks.artifact_hashes(out_dir)
                first = ref_hashes.setdefault(inv.key, hashes)
                if hashes != first:
                    diff = sorted(k for k in set(hashes) | set(first)
                                  if hashes.get(k) != first.get(k))
                    problems.append(f"artifacts differ from the first pass: {diff}")
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            problems, facts = [f"check raised {type(exc).__name__}: {exc}"], {}
        csv_bytes = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
        shutil.rmtree(out_dir, ignore_errors=True)
        ops.append({"op": len(ops), "pass": pass_idx, "key": inv.key, "traced": traced,
                    "wall_s": wall, "csv_bytes": csv_bytes, "problems": problems, **facts})

    for inv in warm:
        run_op(inv, -1, False)

    start = time.perf_counter()
    pass_idx = 0
    last_pass_s = 0.0
    while True:
        elapsed = time.perf_counter() - start
        # After MIN_PASSES, start no pass that would end past --seconds.
        if elapsed >= MEASURE_CAP_S or (
                pass_idx >= MIN_PASSES and elapsed + last_pass_s > args.seconds):
            break
        pass_start = time.perf_counter()
        traced = tracer is not None and pass_idx % 2 == 1
        if traced:
            tracer.install()
        try:
            for inv in calls:
                run_op(inv, pass_idx, traced)
        finally:
            if traced:
                tracer.uninstall()
        pass_idx += 1
        last_pass_s = time.perf_counter() - pass_start
    measured_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "env": _env(),
        "passes": pass_idx,
        "measured_s": measured_s,
        "peak_rss_mb": peak_rss_mb,
        "chain_steps_per_pass": sum(inv.chain_steps for inv in calls),
        "ops": ops,
    }
    if tracer is not None:
        spans = tracer.spans
        self_t = tracing.self_times(spans)
        walls = {o["op"]: o["wall_s"] for o in ops if o["traced"]}
        result["trace_problems"] = tracing.sanity_problems(spans, walls)
        result["layers_per_op"] = {op: dict(v) for op, v in _layer_totals(spans, self_t).items()}
        result["span_count"] = len(spans)
        with open(run_dir / "spans.jsonl", "w") as fh:
            for i, s in enumerate(spans):
                fh.write(json.dumps({"id": i, "op": s[0], "name": s[1], "start": s[2],
                                     "end": s[3], "parent": s[4], "count": s[5]}) + "\n")
    (run_dir / "result.json").write_text(json.dumps(result))
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
