"""Outside-in spans around the public functions of each coupled_sampler layer.

The tracer replaces module attributes and class methods at run time and
restores them afterwards; no file of the program changes. A span records
(operation id, name, start, end, parent index, count). Spans live in memory
and are written out once, when the run ends.

Function targets are patched in every coupled_sampler module that holds a
reference to them (the CLI imports names directly), so a call is traced no
matter which module makes it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# Spans whose parent has the same name are not recorded, so BlockProductModel
# counts one predict_epsilon call, not one per block.
_SKIP_NESTED = {"models.predict_epsilon"}


def _steps(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    config = bound["config"] if "config" in bound else bound["sampler_config"]
    return len(config.steps_for(bound["schedule"]))


def _energy_sizes(fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a, b = (np.asarray(getattr(bound.arguments[k], "samples", bound.arguments[k]))
            for k in ("cloud_a", "cloud_b"))
    return (a.shape[0] + b.shape[0], a.shape[1], bound.arguments["n_permutations"])


def _points(fn, args, kwargs, result):
    return int(np.shape(result)[0])


def _elements(fn, args, kwargs, result):
    return int(np.size(result))


def _bytes_emitted(fn, args, kwargs, result):
    if isinstance(result, str):  # SVG builders return the document
        return len(result.encode())
    return result.stat().st_size  # write_csv / write_json return the path


def targets(pkg):
    """(span name, owner, attribute, counter or None) for every traced callable."""
    score_models = [c for c in _subclasses(pkg.models.ScoreModel)
                    if "predict_epsilon" in vars(c)]
    out = [
        ("cli", pkg.cli, "main", None),
        ("schedule", pkg.schedule, "build_linear", None),
        ("schedule", pkg.schedule, "shift_schedule", None),
        ("models.gmm_sample", pkg.models, "gmm_sample", None),
        ("rng.normal", pkg.rng.NoiseStream, "normal", _elements),
        ("sampler", pkg.sampler, "sample", _steps),
        ("coupling", pkg.coupling, "coupled_sample", _steps),
        ("coupling", pkg.coupling, "mv_edit_demo", None),
        ("metrics.energy_test", pkg.metrics, "energy_permutation_test", _energy_sizes),
        ("metrics.nll", pkg.metrics, "gmm_nll", None),
        ("metrics.coupling_distance", pkg.metrics, "coupling_distance", None),
        ("metrics.consistency_residual", pkg.metrics, "consistency_residual", None),
        ("metrics.sweep_summary", pkg.metrics, "sweep_summary", None),
    ]
    out += [("models.predict_epsilon", cls, "predict_epsilon", _points) for cls in score_models]
    out += [("emit", pkg.emit, name, _bytes_emitted)
            for name in ("write_csv", "write_json", "scatter_svg", "curves_svg")]
    return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    def __init__(self, pkg):
        self.spans = []  # [op, name, start, end, parent, count]
        self.op = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)
        self._targets = targets(pkg)

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        skip_nested = name in _SKIP_NESTED
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_nested and stack and spans[stack[-1]][1] == name:
                return fn(*args, **kwargs)
            rec = [self.op, name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(fn, args, kwargs, result)
            return result
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [mod for key, mod in sys.modules.items()
                   if key == "coupled_sampler" or key.startswith("coupled_sampler.")]
        for name, owner, attr, counter in self._targets:
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def self_times(spans) -> list:
    """Per-span duration minus the time its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def sanity_problems(spans, op_walls: dict, tolerance: float = 0.05) -> list:
    """Nesting and coverage problems: children inside parents, and per
    operation the layer self times summing to the measured traced wall."""
    problems = []
    for i, s in enumerate(spans):
        if not s[2] <= s[3]:
            problems.append(f"span {i} ({s[1]}) ends before it starts")
        if s[4] >= 0:
            p = spans[s[4]]
            if not (p[2] <= s[2] and s[3] <= p[3]) or p[0] != s[0]:
                problems.append(f"span {i} ({s[1]}) lies outside its parent {s[4]}")
    covered = {}
    for s, self_t in zip(spans, self_times(spans)):
        covered[s[0]] = covered.get(s[0], 0.0) + self_t
    for op, wall in op_walls.items():
        got = covered.get(op, 0.0)
        if abs(got - wall) > tolerance * wall:
            problems.append(f"op {op}: layer self times sum to {got:.4f}s, wall {wall:.4f}s")
    return problems[:20]
