from pathlib import Path

import numpy as np
import pytest

from coupled_sampler.cli import _samples_csv, _trajectory_csv
from coupled_sampler.emit import write_csv
from coupled_sampler.models import GmmScoreModel
from coupled_sampler.presets import resolve_gmm
from coupled_sampler.sampler import SamplerConfig, sample
from coupled_sampler.schedule import build_linear


def _fmt_cell_reference(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
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
    [None, True, np.bool_(False), 3, np.int64(-7), 0.1],
    [np.float64(2.5), -0.0, 5e-324, 1e16, float("nan"), float("inf")],
    [float("-inf"), np.float64("nan"), np.float32(0.1), np.int32(0), False, 1.0],
    [0, np.bool_(True), None, np.float64(-0.0), 123456789.125, -1e-300],
]


@pytest.mark.parametrize("rows", [
    [],
    MIXED_ROWS[:1],
    MIXED_ROWS,
], ids=["header_only", "one_row", "mixed_types"])
def test_write_csv_bytes_match_reference(tmp_path, rows):
    header = [f"c{k}" for k in range(6)]
    got = write_csv(tmp_path / "got.csv", header, iter(rows))
    _write_csv_reference(tmp_path / "want.csv", header, rows)
    assert got == tmp_path / "got.csv"
    assert got.read_bytes() == (tmp_path / "want.csv").read_bytes()


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
