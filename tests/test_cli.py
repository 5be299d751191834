import json
import math
import re
import shlex
import shutil
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ncx2

from coupled_sampler import cli, models, presets, verify
from coupled_sampler.cli import main
from coupled_sampler.config import ConfigError
from coupled_sampler.coupling import GUIDANCE_RULES
from coupled_sampler.metrics import MetricReport, consistency_residual, gmm_nll
from coupled_sampler.models import gmm_sample, mv_consistent_model
from coupled_sampler.presets import load_preset, resolve_gmm, resolve_pair, resolve_scene
from coupled_sampler.rng import generator
from coupled_sampler.sampler import KINDS
from coupled_sampler.verify import VerifyCheck


SCHEDULE = {"num_steps": 60, "beta_start": 1e-3, "beta_end": 0.2}
README_SCHEDULE = {"num_steps": 200, "beta_start": 1e-4, "beta_end": 0.115}


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sample_config(**extra):
    doc = {"model": "std-normal-2d", "schedule": dict(SCHEDULE), "n": 64, "seed": 5}
    doc.update(extra)
    return doc


def couple_config(**extra):
    doc = {
        "pair": "separated-pair",
        "schedule": dict(SCHEDULE),
        "coupling": {"lambda": 1.0},
        "n": 64,
        "seed": 5,
    }
    doc.update(extra)
    return doc


# a path that exists but cannot be read as UTF-8 JSON, and the error it gives
_UNREADABLE = pytest.mark.parametrize("make, msg", [
    (lambda p: p.mkdir(), "Is a directory"),
    (lambda p: p.write_bytes(b'{"\xff": 1}'), "is not UTF-8 text"),
    (lambda p: p.write_text('{"n": 1,'), "is not valid JSON (line 1)"),
], ids=["directory", "not_utf8", "not_json"])


class TestSampleCommand:
    def test_minimal_run_emits_files(self, tmp_path):
        cfg = write_config(tmp_path, sample_config(svg=True))
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "samples.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        names = {m["name"]: m for m in metrics}
        assert names["energy-distance"]["passed"] is True
        run = json.loads((out / "run.json").read_text())
        assert run["seed"] == 5 and len(run["fingerprint"]) == 16
        header = (out / "samples.csv").read_text().splitlines()[0]
        assert header == "chain_index,dim_0,dim_1"
        ET.parse(out / "scatter.svg")

    def test_energy_test_finite_at_huge_scale(self, tmp_path):
        # float32 squares of a cloud spread over +-1e20 overflow; the energy
        # test scales the clouds first, so metrics.json stays valid JSON
        cov = [[1.0, 0.0], [0.0, 1.0]]
        model = {"weights": [0.5, 0.5], "means": [[1e20, 1e20], [-1e20, -1e20]],
                 "covariances": [cov, cov]}
        doc = sample_config(model=model, seed=1)
        doc["schedule"]["num_steps"] = 50
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"metrics.json holds {constant}")

        metrics = json.loads((out / "metrics.json").read_text(), parse_constant=reject)
        energy = {m["name"]: m for m in metrics}["energy-distance"]
        assert np.isfinite(energy["value"]) and np.isfinite(energy["threshold"])

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, sample_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["sample", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("samples.csv", "metrics.json", "run.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sample_config(**{"lambda": -1.0}))
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_invalid_values_rejected(self, tmp_path, capsys):
        bad = sample_config()
        bad["n"] = 0
        cfg = write_config(tmp_path, bad)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "n" in capsys.readouterr().err

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, sample_config())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["sample", "--config", cfg, "--out", str(out_a)])
        main(["sample", "--config", cfg, "--seed", "6", "--out", str(out_b)])
        assert (out_a / "samples.csv").read_bytes() != (out_b / "samples.csv").read_bytes()

    def test_trajectory_emitted_when_recorded(self, tmp_path):
        doc = sample_config(sampler={"record_trajectory": True}, n=5)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("chain_index,step,x_0")
        assert len(lines) == 1 + 5 * 60
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        # chain by chain: every step of chain 0, then chain 1, ...
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (i, t) for i in range(5) for t in range(60, 0, -1)
        ]
        x0_cols = [k for k, name in enumerate(header) if name.startswith("x0_hat_")]
        samples = (out / "samples.csv").read_text().splitlines()[1:]
        for i, line in enumerate(samples):
            last = rows[60 * i + 59]
            assert [last[k] for k in x0_cols] == line.split(",")[1:]

    def test_non_finite_mixture_rejected(self, tmp_path, capsys):
        model = {"weights": [1.0], "means": [[float("nan"), 0.0]],
                 "covariances": [[[1.0, 0.0], [0.0, 1.0]]]}
        cfg = write_config(tmp_path, sample_config(model=model))
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "model" in err and "finite" in err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["sample", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command", ["sample", "couple", "sweep"])
    @_UNREADABLE
    def test_unreadable_config_rejected_before_output(self, tmp_path, capsys, command,
                                                      make, msg):
        cfg = tmp_path / "cfg.json"
        make(cfg)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: --config: " in err and str(cfg) in err and msg in err
        assert not out.exists()


class TestCoupleCommand:
    def test_pair_preset_run(self, tmp_path):
        cfg = write_config(tmp_path, couple_config(svg=True))
        out = tmp_path / "out"
        assert main(["couple", "--config", cfg, "--out", str(out)]) == 0
        for name in ("samples_a.csv", "samples_b.csv", "coupling_trace.csv",
                     "metrics.json", "run.json", "paired_scatter.svg"):
            assert (out / name).exists()
        metrics = {m["name"]: m for m in json.loads((out / "metrics.json").read_text())}
        assert metrics["coupling-median-vs-lambda0-reference"]["passed"] is True
        trace = (out / "coupling_trace.csv").read_text().splitlines()
        assert trace[0] == "step,mean_distance"
        assert len(trace) == 1 + 60

    def test_scene_preset_reports_residuals(self, tmp_path):
        doc = couple_config()
        del doc["pair"]
        doc["scene"] = "mv-triangle"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["couple", "--config", cfg, "--out", str(out)]) == 0
        names = {m["name"] for m in json.loads((out / "metrics.json").read_text())}
        assert {"nll-a", "consistency-residual-a", "consistency-residual-b",
                "coupling-median-vs-lambda0-reference"} <= names

    def test_scene_numbers_follow_its_view_layout(self, tmp_path):
        # 2 views of 3 dimensions, so a swapped (3, 2) view layout gives other numbers
        mixture = {"weights": [0.4, 0.6], "means": [[1.0, 0.0, -1.0], [-1.0, 2.0, 0.5]],
                   "covariances": [np.diag([1.0, 0.5, 2.0]).tolist(), np.eye(3).tolist()]}
        edit = dict(mixture, means=[[2.0, 0.0, -1.0], [0.0, 2.0, 0.5]])
        doc = couple_config()
        del doc["pair"]
        doc["scene"] = {"n_views": 2, "view_dim": 3, "jitter": 0.1, "latent": mixture,
                        "edit": edit}
        out = tmp_path / "out"
        assert main(["couple", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        reported = {m["name"]: m["value"] for m in json.loads((out / "metrics.json").read_text())}
        a, b = (np.loadtxt(out / f"samples_{c}.csv", delimiter=",", skiprows=1)[:, 1:]
                for c in "ab")
        assert a.shape == b.shape == (doc["n"], 6)
        scene = resolve_scene(doc["scene"])
        assert reported["nll-a"] == gmm_nll(scene.edit_gmm, a.reshape(-1, 3))
        assert reported["nll-b"] == gmm_nll(mv_consistent_model(scene), b)
        for label, x in (("a", a), ("b", b)):
            assert reported[f"consistency-residual-{label}"] == float(
                np.median(consistency_residual(x, 2, 3)))

    @pytest.mark.parametrize("key, spec", [
        ("pair", "two-moons-pair"),
        ("pair", load_preset("separated-pair")),
        ("scene", "mv-triangle"),
    ], ids=["two_moons_pair", "inline_pair", "scene"])
    def test_lambda0_threshold_is_median_of_exact_draws(self, tmp_path, key, spec):
        # generator(seed, 101) draws chain A's n points, then chain B's; a
        # scene's chain A draws n * n_views views of the edit mixture
        doc = couple_config()
        del doc["pair"]
        doc[key] = spec
        out = tmp_path / "out"
        assert main(["couple", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        metrics = {m["name"]: m for m in json.loads((out / "metrics.json").read_text())}
        check = metrics["coupling-median-vs-lambda0-reference"]
        n, rng = doc["n"], generator(doc["seed"], 101)
        if key == "scene":
            scene = resolve_scene(spec)
            a = gmm_sample(scene.edit_gmm, n * scene.n_views, rng).reshape(n, -1)
            b = gmm_sample(mv_consistent_model(scene), n, rng)
        else:
            gmm_a, gmm_b = resolve_pair(spec)
            a, b = gmm_sample(gmm_a, n, rng), gmm_sample(gmm_b, n, rng)
        assert check["threshold"] == float(np.median(np.linalg.norm(a - b, axis=1)))
        assert check["op"] == "le" and check["passed"] is True

    def test_lambda0_threshold_is_exact_median(self, tmp_path, monkeypatch):
        """On separated-pair, Delta = x_a - x_b ~ N((-4, 0), 2I) at lambda = 0,
        so ||Delta||^2 / 2 is noncentral chi-square with 2 degrees of freedom
        and noncentrality 8, and the exact median m of ||Delta|| is
        sqrt(2 * ncx2.ppf(0.5, 2, 8)) = 4.2476. A median of n i.i.d. draws has
        standard error 1 / (2 f(m) sqrt(n)), with f the density of ||Delta||:
        0.0017 at n = 2**20. The bound is four standard errors; the seed is
        fixed, so the test reads one value, 4.2493, one error away."""
        n = 2**20
        real = cli.coupled_sample
        # the threshold does not depend on the chains, so they run at 16 points
        monkeypatch.setattr(cli, "coupled_sample", lambda *args: real(*args[:-1], 16))
        out = tmp_path / "out"
        cfg = write_config(tmp_path, couple_config(n=n, seed=7))
        assert main(["couple", "--config", cfg, "--out", str(out)]) == 0
        metrics = {m["name"]: m for m in json.loads((out / "metrics.json").read_text())}
        threshold = metrics["coupling-median-vs-lambda0-reference"]["threshold"]
        m = math.sqrt(2 * ncx2.ppf(0.5, 2, 8))
        assert m == pytest.approx(4.247629136971673, rel=1e-12)
        se = 1 / (2 * ncx2.pdf(m * m / 2, 2, 8) * m * math.sqrt(n))
        assert abs(threshold - m) < 4 * se

    def test_failed_check_recorded_and_exits_zero(self, tmp_path):
        # a run command records a failed check; only verify's hard checks exit 1.
        # One jump from x_T to x_0 leaves the cloud far from its mixture.
        doc = sample_config(model="bimodal-2d", n=256, seed=7,
                            schedule={"num_steps": 20, "beta_start": 1e-3, "beta_end": 0.2},
                            sampler={"step_subset": [20, 1]})
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        metrics = {m["name"]: m for m in json.loads((out / "metrics.json").read_text())}
        assert metrics["energy-distance"]["passed"] is False

    @pytest.mark.parametrize("key, name", [("pair", "separated-pair"), ("scene", "mv-triangle")],
                             ids=["pair", "scene"])
    def test_couple_reports_the_sweep_row_at_its_lambda(self, tmp_path, key, name):
        doc = couple_config()
        del doc["pair"]
        doc[key] = name
        assert main(["couple", "--config", write_config(tmp_path, doc),
                     "--out", str(tmp_path / "couple")]) == 0
        del doc["coupling"]
        doc["lambda_grid"] = [0.0, 1.0, 2.0]
        assert main(["sweep", "--config", write_config(tmp_path, doc, name="sweep.json"),
                     "--out", str(tmp_path / "sweep")]) == 0
        reported = {m["name"]: m["value"]
                    for m in json.loads((tmp_path / "couple" / "metrics.json").read_text())}
        header, *rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        row = dict(zip(header.split(","), rows[1].split(",")))
        assert row["lambda"] == "1.0"
        columns = {"coupling-median": "coupling_median", "nll-a": "nll_a", "nll-b": "nll_b"}
        if key == "scene":
            columns["consistency-residual-b"] = "residual_b"
        assert {k: repr(reported[k]) for k in columns} == {k: row[c] for k, c in columns.items()}

    def test_lambda_zero_reduces_to_sample_runs(self, tmp_path):
        from coupled_sampler.rng import CHAIN_A, CHAIN_B, derive_seed

        doc = couple_config()
        doc["coupling"]["lambda"] = 0.0
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "couple"
        assert main(["couple", "--config", cfg, "--out", str(out)]) == 0

        for chain, label, preset in ((CHAIN_A, "a", "gauss-left"),
                                     (CHAIN_B, "b", "gauss-right")):
            solo_doc = sample_config(model=preset)
            solo_doc["seed"] = derive_seed(5, chain)
            solo_cfg = write_config(tmp_path, solo_doc, name=f"solo_{label}.json")
            solo_out = tmp_path / f"solo_{label}"
            assert main(["sample", "--config", solo_cfg, "--out", str(solo_out)]) == 0
            coupled = (out / f"samples_{label}.csv").read_text()
            assert coupled == (solo_out / "samples.csv").read_text()

    def test_dimension_mismatch_rejected(self, tmp_path, capsys):
        doc = couple_config()
        doc["pair"] = {"model_a": load_preset("std-normal-2d"),
                       "model_b": load_preset("ring-2c-4d")}
        cfg = write_config(tmp_path, doc)
        assert main(["couple", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "dimension" in capsys.readouterr().err

    def test_exactly_one_model_source(self, tmp_path):
        doc = couple_config()
        doc["scene"] = "mv-triangle"
        cfg = write_config(tmp_path, doc)
        assert main(["couple", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


class TestSweepCommand:
    def test_grid_run(self, tmp_path):
        doc = couple_config(lambda_grid=[0.0, 0.5, 1.0, 2.0])
        del doc["coupling"]
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "lambda,coupling_median,nll_a,nll_b,residual_b"
        assert len(lines) == 5
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics == [
            {"name": name, "value": 1.0, "threshold": 1.0, "op": "ge", "passed": True,
             "sample_count": 64, "seed": 5}
            for name in ("sweep-distance-non-increasing",
                         "sweep-nll-non-decreasing-beyond-half-drop")
        ]
        ET.parse(out / "sweep.svg")

    def test_single_point_grid_rejected(self, tmp_path, capsys):
        doc = couple_config(lambda_grid=[1.0])
        del doc["coupling"]
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "lambda_grid" in capsys.readouterr().err

    def test_lambda_key_not_allowed_in_sweep_coupling(self, tmp_path, capsys):
        doc = couple_config(lambda_grid=[0.0, 1.0, 2.0])
        cfg = write_config(tmp_path, doc)  # coupling still has "lambda"
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_rerun_identical(self, tmp_path):
        doc = couple_config(lambda_grid=[0.0, 0.5, 1.0])
        del doc["coupling"]
        cfg = write_config(tmp_path, doc)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()


@pytest.mark.parametrize("command, doc, fingerprints", [
    ("sample", {"model": "bimodal-2d"}, {"fingerprint": "52c7839c5d2fd330"}),
    ("couple", {"pair": "separated-pair"},
     {"fingerprint_a": "2338322bb9f46f3b", "fingerprint_b": "2fa1630c2dad0272"}),
    ("couple", {"scene": "mv-triangle"},
     {"fingerprint_a": "b339f609ad9d2848", "fingerprint_b": "9aace409bb135c36"}),
    ("sweep", {"pair": "separated-pair", "lambda_grid": [0.0, 1.0, 4.0]}, {}),
    ("couple", {"pair": "separated-pair", "sampler": {"record_trajectory": False}},
     {"fingerprint_a": "2338322bb9f46f3b", "fingerprint_b": "2fa1630c2dad0272"}),
    ("sweep", {"pair": "separated-pair", "lambda_grid": [0.0, 1.0, 4.0],
               "sampler": {"record_trajectory": False}}, {}),
    ("sample", {"model": "bimodal-2d",
                "sampler": {"kind": "deterministic", "record_trajectory": True}},
     {"fingerprint": "1dd3f4b18daacde4"}),
    ("sample", {"model": "bimodal-2d", "sampler": {"step_subset": [200, 100, 50, 1]}},
     {"fingerprint": "c29218f3cab24841"}),
], ids=["sample", "couple_pair", "couple_scene", "sweep", "couple_no_trajectory",
        "sweep_no_trajectory", "sample_trajectory", "sample_step_subset"])
def test_run_record(tmp_path, command, doc, fingerprints):
    # every metrics.json row carries the run's n and seed; the fingerprints,
    # which depend on neither, are those earlier versions wrote. couple and
    # sweep refuse record_trajectory: true but run with an explicit false.
    doc = dict(doc, schedule=README_SCHEDULE, n=12, seed=31)
    out = tmp_path / "out"
    assert main([command, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics and all(m["sample_count"] == 12 and m["seed"] == 31 for m in metrics)
    run = json.loads((out / "run.json").read_text())
    assert run == {"command": command, "seed": 31, **fingerprints, "config": doc}


def _set_lambda(doc, value):
    doc["coupling"]["lambda"] = value


def _set_grid(doc, value):
    del doc["coupling"]
    doc["lambda_grid"] = [0.0, 1.0, value]


def _set_schedule(key):
    def mutate(doc, value):
        doc["schedule"][key] = value
    return mutate


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 10**400],
                         ids=["inf", "nan", "huge_int"])
@pytest.mark.parametrize("command, mutate, key", [
    ("couple", _set_lambda, "coupling.lambda"),
    ("sweep", _set_grid, "lambda_grid"),
    ("sample", _set_schedule("beta_end"), "schedule.beta_end"),
    ("sample", _set_schedule("shift"), "schedule.shift"),
], ids=["lambda", "lambda_grid", "beta_end", "shift"])
def test_non_finite_number_rejected(tmp_path, capsys, command, mutate, key, value):
    doc = sample_config() if command == "sample" else couple_config()
    mutate(doc, value)
    cfg = write_config(tmp_path, doc)  # json writes Infinity / NaN
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert key in err and "finite" in err


def _twenty_steps(doc):
    doc["schedule"]["num_steps"] = 20


def _set_sampler(sweep=False, **sampler):
    def mutate(doc):
        _twenty_steps(doc)
        doc["sampler"] = sampler
        if sweep:
            del doc["coupling"]
            doc["lambda_grid"] = [0.0, 1.0, 2.0]
    return mutate


def _set_coupling(sweep=False, **coupling):
    def mutate(doc):
        _twenty_steps(doc)
        doc["coupling"] = coupling
        if sweep:
            doc["lambda_grid"] = [0.0, 1.0, 2.0]
    return mutate


def _set_pair(*drop, **fields):
    def mutate(doc):
        pair = dict(load_preset("separated-pair"), **fields)
        for key in drop:
            del pair[key]
        doc["pair"] = pair
    return mutate


def _set_scene(**fields):
    def mutate(doc):
        del doc["pair"]
        doc["scene"] = dict(load_preset("mv-triangle"), **fields)
    return mutate


_MIXTURE = {"weights": [1.0], "means": [[0.0, 0.0]], "covariances": [[[1.0, 0.0], [0.0, 1.0]]]}


def _set_mixture(**fields):
    def mutate(doc):
        doc["model"] = dict(_MIXTURE, **fields)
    return mutate


_ONE_DIM = {"weights": [1.0], "means": [[0.0]], "covariances": [[[1.0]]]}

# Cholesky would read the lower triangle only and run this as the identity
_ASYMMETRIC = [[1.0, 5.0], [0.0, 1.0]]


def _one_dim_svg(doc):
    if "model" in doc:
        doc["model"] = _ONE_DIM
    else:
        doc["pair"] = {"model_a": _ONE_DIM, "model_b": _ONE_DIM}
    doc["svg"] = True


def _top_level_pair(sweep=False):
    # the removed way to name a pair: model_a and model_b beside the other keys
    def mutate(doc):
        _set_coupling(sweep=sweep)(doc)
        pair = load_preset("separated-pair")
        del doc["pair"]
        doc["model_a"], doc["model_b"] = pair["model_a"], pair["model_b"]
    return mutate


def _sweep_svg(doc):
    _set_coupling(sweep=True)(doc)
    doc["svg"] = False


def _seed_past_u64(doc):
    doc["seed"] = 2**64


def _grid(*lambdas):
    def mutate(doc):
        del doc["coupling"]
        doc["lambda_grid"] = list(lambdas)
    return mutate


def _one_point(doc):
    doc["n"] = 1


def _four_points(doc):
    doc["n"] = 4  # too few for the energy test to reject even disjoint clouds


def _noiseless_first_step(doc):
    doc["schedule"] = {"num_steps": 20, "beta_start": 1e-17, "beta_end": 0.3}


def _tiny_shift(doc):
    doc["schedule"]["shift"] = 1e-9  # every shifted alpha_bar rounds to 1


@pytest.mark.parametrize("command, mutate, key", [
    ("sample", _set_sampler(step_subset=[9, 5, 1]), "step_subset"),
    ("couple", _set_sampler(step_subset=[20, 20, 1]), "step_subset"),
    ("couple", _set_coupling(**{"lambda": 1.0, "lambda_ramp": [1.0] * 20}),
     "coupling.lambda_ramp: unknown key"),
    ("sweep", _set_coupling(sweep=True, noise_policy="shared"),
     "coupling.noise_policy: unknown key"),
    ("sweep", _grid(-1.0, 1.0, 2.0), "lambda_grid"),
    ("sample", _seed_past_u64, "seed"),
    ("sample", _one_point, "n: must be >= 5"),
    ("sample", _four_points, "n: must be >= 5, got 4"),
    ("sample", _noiseless_first_step, "schedule: alpha_bar must be strictly decreasing"),
    ("sample", _tiny_shift, "schedule.shift: every beta_t"),
    ("couple", _set_scene(view_dim=2.9), "scene: view_dim: expected an integer"),
    ("couple", _set_scene(n_views=3.7), "scene: n_views: expected an integer"),
    ("couple", _set_scene(n_views="3"), "scene: n_views: expected an integer"),
    ("sample", _set_mixture(weights=[True]), "model: weights: expected a number"),
    ("sample", _set_mixture(weights=["1.0"]), "model: weights: expected a number"),
    ("sample", _set_mixture(covariances=[[[True, 0], [0, True]]]),
     "model: covariances: expected a number"),
    ("sample", _set_mixture(covariances=[_ASYMMETRIC]), "model: covariances must be symmetric"),
    ("couple", _set_pair(model_b=dict(_MIXTURE, covariances=[_ASYMMETRIC])),
     "pair: model_b: covariances must be symmetric"),
    ("couple", _set_scene(latent=dict(_MIXTURE, covariances=[_ASYMMETRIC])),
     "scene: latent: covariances must be symmetric"),
    ("couple", _set_pair(model_a="bimodal-2d"), "pair: model_a: expected an object"),
    ("couple", _set_scene(latent=[1, 2]), "scene: latent: expected an object"),
    ("sample", _set_mixture(extra=1), "model: extra: unknown key"),
    ("couple", _set_pair(referense={}), "pair: referense: unknown key"),
    ("couple", _set_pair(reference={"coupling_median_lambda0": 4.247629136971673}),
     "pair: reference: unknown key"),
    ("couple", _set_scene(extra=1), "scene: extra: unknown key"),
    ("couple", _set_pair("model_b"), "pair: model_b: missing required key"),
    ("couple", _set_pair(model_b=dict(_MIXTURE, weights=["1.0"])),
     "pair: model_b.weights: expected a number"),
    ("couple", _set_scene(kind="gmm"), "scene: kind: expected 'scene', got 'gmm'"),
    ("couple", _set_scene(n_views=20), "scene: n_views: joint dimension 40 exceeds cap 32"),
    ("couple", _set_scene(n_views=1), "scene: n_views: need at least two views, got 1"),
    ("couple", _set_scene(jitter=0), "scene: jitter: must be positive, got 0"),
    ("couple", _set_scene(jitter=1e308), "scene: jitter: its square must be finite, got 1e+308"),
    ("couple", _set_scene(view_dim=3), "scene: latent: dimension 2 differs from view_dim 3"),
    ("couple", _set_sampler(record_trajectory=True),
     "sampler.record_trajectory: only sample writes a trajectory"),
    ("sweep", _set_sampler(sweep=True, record_trajectory=True),
     "sampler.record_trajectory: only sample writes a trajectory"),
    ("sample", _one_dim_svg, "svg: a scatter plot needs two dimensions, the model has 1"),
    ("couple", _one_dim_svg, "svg: a scatter plot needs two dimensions, the model has 1"),
    ("sweep", _sweep_svg, "svg: unknown key"),
    ("sample", _set_sampler(variance_rule="beta"), "sampler.variance_rule: unknown key"),
    ("couple", _set_coupling(**{"lambda": 1.0, "guidance_scale_rule": "alpha_t"}),
     "coupling: guidance_scale_rule must be one of ('posterior_tilt', 'alpha_bar_prev')"),
    # past float max / 2, 2 * lambda overflows and posterior_tilt's scale reads 0.0
    ("couple", _set_coupling(**{"lambda": 1e308}),
     "coupling.lambda: lambda must be non-negative and 2 * lambda finite"),
    ("sweep", _grid(0.0, 1e10, 1e300, 1e308),
     "lambda_grid[3]: lambda must be non-negative and 2 * lambda finite"),
    ("couple", _set_pair(model_b=_ONE_DIM),
     "pair: model_b: coupled models must share a dimension"),
    ("couple", _top_level_pair(), "model_a: unknown key"),
    ("sweep", _top_level_pair(sweep=True), "model_a: unknown key"),
], ids=["subset_not_from_T", "subset_repeats", "ramp_couple", "noise_policy_sweep",
        "negative_grid", "seed_past_u64", "sample_one_point", "sample_four_points",
        "noiseless_first_step", "shift_too_small", "scene_float_view_dim", "scene_float_n_views",
        "scene_string_n_views", "mixture_bool_weight", "mixture_string_weight",
        "mixture_bool_covariance", "mixture_asymmetric_covariance",
        "pair_model_b_asymmetric_covariance", "scene_latent_asymmetric_covariance",
        "pair_model_a_string", "scene_latent_list",
        "mixture_unknown_key", "pair_unknown_key", "reference_unknown_key",
        "scene_unknown_key", "pair_missing_model_b", "pair_model_b_string_weight",
        "scene_wrong_kind", "scene_over_joint_cap", "scene_one_view", "scene_zero_jitter",
        "scene_jitter_square_overflows", "scene_view_dim_mismatch", "couple_trajectory",
        "sweep_trajectory",
        "sample_svg_one_dim", "couple_svg_one_dim", "sweep_svg", "variance_rule_removed",
        "alpha_t_rule_removed", "lambda_overflows", "grid_lambda_overflows",
        "pair_dimension_mismatch", "couple_top_level_model_a", "sweep_top_level_model_a"])
def test_bad_value_rejected_before_output(tmp_path, capsys, command, mutate, key):
    doc = sample_config() if command == "sample" else couple_config()
    mutate(doc)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def _out_is_file(tmp_path):
    path = tmp_path / "taken"
    path.write_text("x")
    return path


def _out_under_file(tmp_path):
    return _out_is_file(tmp_path) / "o"


def _out_dangling_link(tmp_path):
    _out_is_file(tmp_path)
    link = tmp_path / "link"
    link.symlink_to(tmp_path / "missing")
    return link


@pytest.mark.parametrize("command", ["sample", "couple", "sweep"])
@pytest.mark.parametrize("out_path", [_out_is_file, _out_under_file, _out_dangling_link],
                         ids=["file", "under_file", "dangling_link"])
def test_out_not_a_directory_rejected_before_compute(tmp_path, capsys, monkeypatch,
                                                     command, out_path):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "sample", reached)
    monkeypatch.setattr(cli, "coupled_sample", reached)
    monkeypatch.setattr(cli, "coupled_sweep", reached)
    doc = sample_config() if command == "sample" else couple_config()
    if command == "sweep":
        _set_coupling(sweep=True)(doc)
    cfg = write_config(tmp_path, doc)
    out = out_path(tmp_path)
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "--out: " in capsys.readouterr().err
    assert {p.name for p in tmp_path.iterdir()} <= {"cfg.json", "taken", "link"}
    assert (tmp_path / "taken").read_text() == "x"


def test_guidance_overflow_names_guidance(tmp_path, capsys):
    # a huge finite lambda overflows the guidance increment in the first step
    doc = couple_config(n=4)
    doc["schedule"]["num_steps"] = 20
    doc["coupling"] = {"lambda": 8e307, "guidance_scale_rule": "alpha_bar_prev"}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["couple", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "guidance" in err and "chain A" in err and "step 20" in err
    assert not out.exists()


class TestScheduleCommand:
    def test_build_prints_schedule(self, capsys):
        assert main(["schedule", "build", "--num-steps", "5",
                     "--beta-start", "0.1", "--beta-end", "0.3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_steps"] == 5
        assert len(doc["beta"]) == 5

    def test_build_shift_error_names_flag(self, capsys):
        assert main(["schedule", "build", "--num-steps", "3", "--beta-start", "0.1",
                     "--beta-end", "0.2", "--shift", "1e-9"]) == 2
        captured = capsys.readouterr()
        assert "--shift" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flags, flag, msg", [
        (["--num-steps", "0", "--beta-start", "0.1", "--beta-end", "0.2"],
         "--num-steps", "num_steps must be >= 1"),
        (["--num-steps", "3", "--beta-start", "0.3", "--beta-end", "0.2"],
         "--beta-start/--beta-end", "need 0 < beta_start <= beta_end < 1"),
        (["--num-steps", "20", "--beta-start", "1e-17", "--beta-end", "0.3"],
         "--beta-start/--beta-end", "alpha_bar must be strictly decreasing"),
    ], ids=["zero_steps", "start_above_end", "noiseless_first_step"])
    def test_build_error_names_flag(self, capsys, flags, flag, msg):
        assert main(["schedule", "build", *flags]) == 2
        captured = capsys.readouterr()
        assert f"config error: {flag}: {msg}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["schedule", "convert", "--source", "sigma", "--values", "0.5,1,80"],
        ["schedule", "align", "--source", "a.json", "--target", "b.json"],
    ], ids=["convert", "align"])
    def test_removed_subcommands_are_invalid_choices(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"invalid choice: '{argv[1]}'" in captured.err and captured.out == ""


VERIFY_CHECKS = [
    ("schedule-shift-composition", "hard"),
    ("gmm-score-finite-difference", "hard"),
    ("flow-duality", "hard"),
    ("coupling-gradient-fd", "hard"),
    ("lambda-zero-reduction", "hard"),
    ("fixed-point-band", "soft"),
]


class TestVerifyCommand:
    def test_pristine_build_exits_zero(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "verify: OK"
        assert len(lines) == len(VERIFY_CHECKS) + 1
        for line, (name, kind) in zip(lines, VERIFY_CHECKS):
            assert line.split()[:2] == ["PASS", name]
            assert line.endswith(f"[{kind}]")

    @staticmethod
    def stub_checks(monkeypatch, failing, hard):
        def run_verify():
            return [
                VerifyCheck(MetricReport(name, 2.0 if name == failing else 0.0, 1.0, "le"),
                            hard=hard if name == failing else True)
                for name, _ in VERIFY_CHECKS
            ]
        monkeypatch.setattr(verify, "run_verify", run_verify)

    def test_failing_hard_check_exits_one(self, monkeypatch, capsys):
        self.stub_checks(monkeypatch, "flow-duality", hard=True)
        assert main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  flow-duality" in out
        assert out.splitlines()[-1] == "verify: FAIL"

    def test_failing_soft_check_exits_zero(self, monkeypatch, capsys):
        self.stub_checks(monkeypatch, "fixed-point-band", hard=False)
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL  fixed-point-band" in out
        assert out.splitlines()[-1] == "verify: OK"


class TestSvgLimits:
    def test_pair_scatter_under_two_megabytes_at_8192(self, tmp_path):
        doc = couple_config(n=8192, svg=True)
        doc["schedule"] = {"num_steps": 5, "beta_start": 0.05, "beta_end": 0.3}
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["couple", "--config", cfg, "--out", str(out)]) == 0
        svg = out / "paired_scatter.svg"
        assert svg.stat().st_size < 2 * 1024 * 1024
        ET.parse(svg)


def test_preset_dir_env_override(tmp_path, monkeypatch, capsys):
    preset = {"kind": "gmm", "weights": [1.0], "means": [[0.0]],
              "covariances": [[[1.0]]]}
    (tmp_path / "custom-1d.json").write_text(json.dumps(preset))
    monkeypatch.setenv("COUPLED_SAMPLER_PRESETS", str(tmp_path))
    doc = {"model": "custom-1d", "schedule": {"num_steps": 10, "beta_start": 0.01,
                                              "beta_end": 0.2}, "n": 16, "seed": 1}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "samples.csv").read_text().splitlines()[0]
    assert header == "chain_index,dim_0"


def test_preset_file_pair_checked(tmp_path, monkeypatch, capsys):
    pair = json.dumps(load_preset("separated-pair"))
    pair = pair.replace("[[-2.0, 0.0]]", "[[1e999, 0.0]]")  # json reads it as inf
    (tmp_path / "bad-pair.json").write_text(pair)
    monkeypatch.setenv("COUPLED_SAMPLER_PRESETS", str(tmp_path))
    cfg = write_config(tmp_path, couple_config(pair="bad-pair"))
    out = tmp_path / "out"
    assert main(["couple", "--config", cfg, "--out", str(out)]) == 2
    assert "pair: model_a.means: must be finite" in capsys.readouterr().err
    assert not out.exists()


_SHIPPED_PRESETS = Path(presets.__file__).parent / "presets"


@pytest.mark.parametrize("text, key", [
    ("[1, 2]", "model: expected an object"),
    (json.dumps(dict(_MIXTURE, kind="gmm", extra=1)), "model: extra: unknown key"),
    ((_SHIPPED_PRESETS / "separated-pair.json").read_text(),
     "model: kind: expected 'gmm', got 'pair'"),
], ids=["array", "unknown_key", "wrong_kind"])
def test_malformed_preset_file_rejected(tmp_path, monkeypatch, capsys, text, key):
    (tmp_path / "bad.json").write_text(text)
    monkeypatch.setenv("COUPLED_SAMPLER_PRESETS", str(tmp_path))
    cfg = write_config(tmp_path, sample_config(model="bad"))
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("data, msg", [
    (b'{"kind": "gmm", "weights": [1.0] "means": [[0.0]]}', "is not valid JSON (line 1)"),
    (b'{"kind": "gmm", "\xff": 1}', "is not UTF-8 text"),
], ids=["not_json", "not_utf8"])
def test_unreadable_preset_file_named(tmp_path, monkeypatch, capsys, data, msg):
    root = tmp_path / "presets"
    shutil.copytree(_SHIPPED_PRESETS, root)
    (root / "broken.json").write_bytes(data)
    monkeypatch.setenv("COUPLED_SAMPLER_PRESETS", str(root))
    cfg = write_config(tmp_path, sample_config(model="broken"))
    out = tmp_path / "out"
    assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: model: {root / 'broken.json'} {msg}" in capsys.readouterr().err
    assert not out.exists()
    # verify reads every preset file, and names the same one
    assert main(["verify"]) == 2
    assert f"config error: {root / 'broken.json'} {msg}" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", "3.5", "null"], ids=["array", "number", "null"])
def test_gmm_preset_names_rejects_non_object_file(tmp_path, monkeypatch, text):
    (tmp_path / "ok.json").write_text(json.dumps(dict(_MIXTURE, kind="gmm")))
    (tmp_path / "bad.json").write_text(text)
    monkeypatch.setenv("COUPLED_SAMPLER_PRESETS", str(tmp_path))
    with pytest.raises(ConfigError, match=re.escape(f"{tmp_path / 'bad.json'}: expected an object")):
        presets.gmm_preset_names()
    (tmp_path / "bad.json").unlink()
    assert presets.gmm_preset_names() == ["ok"]


_PRESET_FILES = sorted(_SHIPPED_PRESETS.glob("*.json"))


@pytest.mark.parametrize("path", _PRESET_FILES, ids=[p.stem for p in _PRESET_FILES])
def test_shipped_preset_reads_as_its_kind(path):
    doc = json.loads(path.read_text())
    resolve = {"gmm": resolve_gmm, "pair": resolve_pair, "scene": resolve_scene}[doc["kind"]]
    resolve(doc)


def _readme_configs() -> dict:
    """{file stem: (command, config)} for each config the README writes with
    `cat > <stem>.json <<'EOF'` and then passes to `coupled-sampler <command>`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(
        r"cat > (\w+)\.json <<'EOF'\n(.*?)\nEOF\ncoupled-sampler (\w+) --config \1\.json",
        readme, re.S,
    )
    return {stem: (command, json.loads(body)) for stem, body, command in blocks}


class _Reached(BaseException):
    """Raised in place of the compute; main() lets BaseException through."""


@pytest.mark.parametrize("stem", ["run", "couple", "sweep"])
def test_readme_config_parses(tmp_path, monkeypatch, stem):
    configs = _readme_configs()
    assert sorted(configs) == ["couple", "run", "sweep"]
    command, doc = configs[stem]

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(cli, "sample", reached)
    monkeypatch.setattr(cli, "coupled_sample", reached)
    monkeypatch.setattr(cli, "coupled_sweep", reached)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    with pytest.raises(_Reached):
        main([command, "--config", cfg, "--out", str(out)])
    assert not out.exists()


def test_readme_commands_parse():
    # every command the README shows must be one the CLI accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = [line for block in re.findall(r"```bash\n(.*?)```", readme, re.S)
                for line in block.splitlines() if line.startswith("coupled-sampler ")]
    parser = cli.build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
    assert {shlex.split(line)[1] for line in commands} == {
        "sample", "couple", "sweep", "schedule", "verify"}


def _nested(table):
    """A nested object's keys bar kind, which the README covers for all three."""
    return [key for key in table if key != "kind"]


@pytest.mark.parametrize("section, schema, values", [
    ("sampler", cli._SAMPLER_SCHEMA, KINDS),
    ("coupling", cli._COUPLING_SCHEMA, GUIDANCE_RULES),
    ("sample", cli._SAMPLE_SCHEMA, ()),
    ("couple", cli._COUPLE_SCHEMA, ()),
    ("schedule", cli._SCHEDULE_SCHEMA, ()),
    ("mixture", _nested(models._GMM_KEYS), ()),
    ("pair", _nested(presets._PAIR_KEYS), ()),
    ("scene", _nested(models._SCENE_KEYS), ()),
])
def test_readme_names_every_key_and_value(section, schema, values):
    # the first sentence of a config bullet, or the "A <object> holds" sentence
    # of a nested object, lists the keys, and its values in parentheses
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found = re.search(rf"^- `{section}`: (.*?)\.(?:\s|$)"
                      rf"|\bA {section} holds\s(.*?)[.;](?:\s|$)", readme, re.M | re.S)
    bullet = found.group(1) or found.group(2)
    in_parens = "".join(re.findall(r"\(.*?\)", bullet, re.S))
    keys = re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", bullet, flags=re.S))
    assert sorted(keys) == sorted(schema)
    assert sorted(re.findall(r"`(\w+)`", in_parens)) == sorted(values)


def test_readme_library_sketch_runs(fresh_python):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (sketch,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    median = float(fresh_python(sketch))
    assert math.isfinite(median) and median > 0.0


def test_cli_import_skips_scipy_spatial(fresh_python):
    code = ("import sys, coupled_sampler.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    assert fresh_python(code) == "[]"


def test_cli_import_loads_only_fblas_from_scipy_linalg(fresh_python):
    code = ("import sys, coupled_sampler.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
            "(['scipy', 'linalg'], ['numpy', 'f2py'], ['numpy', 'testing'])))")
    assert fresh_python(code) == "['scipy.linalg._fblas']"


@pytest.mark.parametrize("first, second", [
    ("coupled_sampler.models", "scipy.linalg.blas"),
    ("scipy.linalg.blas", "coupled_sampler.models"),
], ids=["package_first", "scipy_first"])
def test_dtrsm_is_scipy_blas_dtrsm(first, second, fresh_python):
    code = (f"import sys, {first}, {second}; "
            "print(sys.modules['scipy.linalg.blas'].dtrsm "
            "is sys.modules['coupled_sampler.models'].dtrsm)")
    assert fresh_python(code) == "True"


# a spy on metrics._fblas.sgemm counts the energy test's calls
_ENERGY_TEST = (
    "from unittest import mock\n"
    "import numpy as np; from coupled_sampler import metrics\n"
    "sgemm = metrics._fblas.sgemm\n"
    "with mock.patch.object(metrics._fblas, 'sgemm', side_effect=sgemm) as spy:\n"
    "    metrics.energy_permutation_test(np.eye(2), -np.eye(2), np.random.default_rng(0))"
)


@pytest.mark.parametrize("first, second", [
    (_ENERGY_TEST, "import scipy.linalg.blas"),
    ("import scipy.linalg.blas", _ENERGY_TEST),
], ids=["package_first", "scipy_first"])
def test_energy_test_sgemm_is_scipy_blas_sgemm(first, second, fresh_python):
    code = (f"import sys\n{first}\n{second}\n"
            "print(spy.call_count, sgemm is sys.modules['scipy.linalg.blas'].sgemm)")
    assert fresh_python(code) == "2 True"  # 4 points make one strip, two products


@pytest.mark.parametrize("command, doc", [
    ("sample", sample_config()),
    ("couple", couple_config()),
], ids=["sample", "couple"])
def test_run_loads_only_its_extensions_from_scipy_linalg(tmp_path, command, doc, fresh_python):
    # sample's energy test and both commands' mixture calls share one extension
    cfg = write_config(tmp_path, doc)
    code = (
        "import contextlib, io, sys\n"
        "from coupled_sampler.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main([{command!r}, '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'linalg'], ['numpy', 'f2py'], ['numpy', 'testing'])))"
    )
    assert fresh_python(code) == "['scipy.linalg._fblas']"


def test_artifacts_same_bits_at_one_and_two_blas_threads(tmp_path, fresh_python):
    runs = [(command, dict(doc, n=1024)) for command, doc in _readme_configs().values()]
    runs.append(("couple", {"scene": "mv-triangle", "schedule": README_SCHEDULE, "n": 64,
                            "seed": 3, "svg": True}))
    runs.append(("sweep", {"scene": "mv-triangle", "schedule": README_SCHEDULE, "n": 64,
                           "seed": 3, "lambda_grid": [0.0, 1.0, 4.0]}))
    code = (
        "import contextlib, hashlib, io, json, sys\n"
        "from pathlib import Path\n"
        "from coupled_sampler.cli import main\n"
        "root = Path(sys.argv[1])\n"
        f"for i, (command, doc) in enumerate({runs!r}):\n"
        "    cfg, out = root / f'{i}.json', root / str(i)\n"
        "    cfg.write_text(json.dumps(doc))\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([command, '--config', str(cfg), '--out', str(out)]) == 0\n"
        "    for f in sorted(out.iterdir()):\n"
        "        print(i, f.name, hashlib.sha256(f.read_bytes()).hexdigest())\n"
    )
    hashes = {}
    for threads in ("1", "2"):
        root = tmp_path / threads
        root.mkdir()
        hashes[threads] = fresh_python(f"import sys; sys.argv = ['-', {str(root)!r}]\n" + code,
                                       OPENBLAS_NUM_THREADS=threads)
    assert len(hashes["1"].splitlines()) == 24  # 4 + 6 + 4 + 6 + 4 artifacts
    assert hashes["1"] == hashes["2"]
