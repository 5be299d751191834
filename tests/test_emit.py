import json
from pathlib import Path

import numpy as np
import pytest

from coupled_sampler.cli import _samples_csv, _trajectory_csv, main
from coupled_sampler.coupling import CouplingConfig, coupled_sample, coupled_sweep
from coupled_sampler.emit import _CHUNK_ROWS, scatter_svg, write_csv
from coupled_sampler.metrics import consistency_residual, gmm_nll
from coupled_sampler.models import GmmScoreModel, mv_chain_models
from coupled_sampler.presets import resolve_gmm, resolve_pair, resolve_scene
from coupled_sampler.sampler import SamplerConfig, sample
from coupled_sampler.schedule import build_linear


def _fmt_cell_reference(v) -> str:
    """One cell as the per-cell writer formatted it, numpy scalars included."""
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_csv_reference(path, header, rows):
    """The writer that joined every line into one string before writing."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt_cell_reference(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


MIXED_ROWS = [
    [None, 3, -7, 0.1, 10**20, 1.0],
    [2.5, -0.0, 5e-324, 1e16, float("nan"), float("inf")],
    [float("-inf"), float("nan"), float(np.float32(0.1)), 0, None, None],
    [0, -(10**20), None, -0.0, 123456789.125, -1e-300],
]


def _long_rows():
    """Two and a half chunks of plain int/float rows; a row holding None sits
    in the middle chunk, and an empty row sits in the last."""
    pool = [0.1, -0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf"), 2.5]
    rng = np.random.default_rng(0)
    rows = [[i, -i] + pool[i % 8:] + rng.standard_normal(3).tolist()
            for i in range(2 * _CHUNK_ROWS + _CHUNK_ROWS // 2)]
    rows[_CHUNK_ROWS + 7] = [None, 1.0, 2]
    rows[2 * _CHUNK_ROWS + 3] = []
    return rows


@pytest.mark.parametrize("rows", [
    [],
    MIXED_ROWS[:1],
    MIXED_ROWS,
    _long_rows(),
], ids=["header_only", "one_row", "mixed_types", "chunks_with_none_row"])
def test_write_csv_bytes_match_reference(tmp_path, rows):
    header = [f"c{k}" for k in range(6)]
    got = write_csv(tmp_path / "got.csv", header, iter(rows))
    _write_csv_reference(tmp_path / "want.csv", header, rows)
    assert got == tmp_path / "got.csv"
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("rows", [
    [[0.5, np.float64(0.5)]],
    [[1, np.int64(3)]],
    [[1.0, True]],
    [[1, 2.0], (1, 2.0)],
], ids=["numpy_float", "numpy_int", "bool", "tuple_row"])
def test_write_csv_rejects_other_cells_before_writing_them(tmp_path, rows):
    path = tmp_path / "got.csv"
    with pytest.raises(TypeError, match="Python int, float or None"):
        write_csv(path, ["c0", "c1"], rows)
    assert path.read_text() == "c0,c1\n"


@pytest.fixture(scope="module")
def recorded_batch():
    sched = build_linear(12, 1e-3, 0.2)
    cfg = SamplerConfig(record_trajectory=True)
    return sample(GmmScoreModel(resolve_gmm("bimodal-2d")), sched, cfg, 3, 2)


def test_samples_csv_matches_per_scalar_rows(tmp_path, recorded_batch):
    samples = recorded_batch.samples
    _samples_csv(tmp_path / "got.csv", samples)
    header = ["chain_index"] + [f"dim_{k}" for k in range(samples.shape[1])]
    rows = ([i] + list(row) for i, row in enumerate(samples))
    _write_csv_reference(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_trajectory_csv_matches_per_scalar_rows(tmp_path, recorded_batch):
    traj = recorded_batch.trajectory
    _trajectory_csv(tmp_path / "got.csv", traj)
    steps, n, d = traj.x_t.shape
    header = (
        ["chain_index", "step"]
        + [f"x_{k}" for k in range(d)]
        + [f"x0_hat_{k}" for k in range(d)]
        + [f"eps_hat_{k}" for k in range(d)]
    )
    rows = (
        [i, int(traj.steps[s])] + list(traj.x_t[s, i]) + list(traj.x0_hat[s, i])
        + list(traj.eps_hat[s, i])
        for i in range(n) for s in range(steps)
    )
    _write_csv_reference(tmp_path / "want.csv", header, rows)
    want = (tmp_path / "want.csv").read_bytes()
    assert want.count(b"\n") == 1 + n * steps
    assert (tmp_path / "got.csv").read_bytes() == want


def _scatter_svg_reference(groups, segments=None, size=640):
    """scatter_svg as it mapped and formatted one point at a time."""
    pts = [np.asarray(p, dtype=float)[:, :2] for p, _ in groups]
    stack = np.vstack(pts + ([np.asarray(s, dtype=float)[:, :2] for s in segments]
                             if segments else []))
    lo, hi = stack.min(axis=0), stack.max(axis=0)
    span = np.maximum(hi - lo, 1e-9)
    lo, hi = lo - 0.05 * span, hi + 0.05 * span
    span = hi - lo

    def to_px(p):
        return ((p[0] - lo[0]) / span[0] * size,
                size - (p[1] - lo[1]) / span[1] * size)

    body = []
    if segments is not None:
        a, b = (np.asarray(s, dtype=float)[:, :2] for s in segments)
        for pa, pb in zip(a, b):
            (xa, ya), (xb, yb) = to_px(pa), to_px(pb)
            body.append(f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" y2="{yb:.2f}" '
                        f'stroke="#cccccc" stroke-width="0.4"/>')
    for points, (_, color) in zip(pts, groups):
        for p in points:
            x, y = to_px(p)
            body.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="1.6" fill="{color}"/>')
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">')
    return "\n".join([head, f'<rect width="{size}" height="{size}" fill="#ffffff"/>']
                     + body + ["</svg>"]) + "\n"


@pytest.mark.parametrize("with_segments", [False, True], ids=["scatter", "paired"])
def test_scatter_svg_bytes_match_per_point_reference(with_segments):
    rng = np.random.default_rng(1)
    a = rng.standard_normal((300, 3)) * [1e-3, 50.0, 1.0]
    b = a + rng.standard_normal((300, 3))
    b[0, :2] = [-0.0, 0.0]
    groups = [(a, "#999999"), (b, "#d95f02")]
    segments = (a, b) if with_segments else None
    got = scatter_svg(groups, segments=segments)
    assert got == _scatter_svg_reference(groups, segments=segments)
    assert got.count("<circle") == 600


_SMALL_SCHEDULE = {"num_steps": 20, "beta_start": 1e-3, "beta_end": 0.3}


def _run_cli(tmp_path, command, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    return out


def test_coupling_trace_csv_matches_per_cell_reference(tmp_path):
    doc = {"pair": "separated-pair", "schedule": _SMALL_SCHEDULE,
           "coupling": {"lambda": 1.0}, "n": 32, "seed": 4}
    out = _run_cli(tmp_path, "couple", doc)
    gmm_a, gmm_b = resolve_pair("separated-pair")
    result = coupled_sample(GmmScoreModel(gmm_a), GmmScoreModel(gmm_b),
                            build_linear(20, 1e-3, 0.3), SamplerConfig(),
                            CouplingConfig(lam=1.0), 4, 32)
    # numpy scalars, the cells the per-cell writer was given
    rows = zip(result.series_steps, result.coupling_series)
    _write_csv_reference(tmp_path / "want.csv", ["step", "mean_distance"], rows)
    want = (tmp_path / "want.csv").read_bytes()
    assert want.count(b"\n") == 1 + 20
    assert (out / "coupling_trace.csv").read_bytes() == want


@pytest.mark.parametrize("key, name", [("pair", "separated-pair"), ("scene", "mv-triangle")],
                         ids=["pair", "scene"])
def test_sweep_csv_matches_per_cell_reference(tmp_path, key, name):
    grid = [0.0, 1.0, 3.0]
    doc = {key: name, "schedule": _SMALL_SCHEDULE, "lambda_grid": grid, "n": 32, "seed": 4}
    out = _run_cli(tmp_path, "sweep", doc)
    if key == "pair":
        scene = None
        gmm_a, gmm_b = resolve_pair(name)
        models = GmmScoreModel(gmm_a), GmmScoreModel(gmm_b)
    else:
        scene = resolve_scene(name)
        models = mv_chain_models(scene)
        gmm_b = models[1].gmm
    results = coupled_sweep(*models, build_linear(20, 1e-3, 0.3), SamplerConfig(),
                            [CouplingConfig(lam=lam) for lam in grid], 4, 32)
    rows = []
    for lam, r in zip(grid, results):
        a, b = r.batch_a.samples, r.batch_b.samples
        if scene is None:
            nll_a, residual_b = gmm_nll(gmm_a, a), None
        else:
            nll_a = gmm_nll(scene.edit_gmm, a.reshape(-1, scene.view_dim))
            residual_b = np.median(consistency_residual(b, scene.n_views, scene.view_dim))
        rows.append([lam, np.median(np.linalg.norm(a - b, axis=1)), nll_a,
                     gmm_nll(gmm_b, b), residual_b])
    header = ["lambda", "coupling_median", "nll_a", "nll_b", "residual_b"]
    _write_csv_reference(tmp_path / "want.csv", header, rows)
    want = (tmp_path / "want.csv").read_text()
    # a pair sweep leaves residual_b empty; a scene sweep fills it
    assert [line.endswith(",") for line in want.splitlines()[1:]] == [scene is None] * 3
    assert (out / "sweep.csv").read_text() == want
