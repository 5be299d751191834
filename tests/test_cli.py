import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from coupled_sampler import verify
from coupled_sampler.cli import main
from coupled_sampler.metrics import MetricReport
from coupled_sampler.schedule import build_linear, schedule_to_json
from coupled_sampler.verify import VerifyCheck


SCHEDULE = {"num_steps": 60, "beta_start": 1e-3, "beta_end": 0.2}


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
        doc = sample_config(sampler={"record_trajectory": True}, n=4)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("chain_index,step,x_0")
        assert len(lines) == 1 + 4 * 60
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        # chain by chain: every step of chain 0, then chain 1, ...
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (i, t) for i in range(4) for t in range(60, 0, -1)
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
        assert {"consistency-residual-a", "consistency-residual-b"} <= names

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
        del doc["pair"]
        doc["model_a"] = "std-normal-2d"
        doc["model_b"] = "ring-2c-4d"
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
        metrics = {m["name"]: m for m in json.loads((out / "metrics.json").read_text())}
        assert metrics["sweep-distance-non-increasing"]["passed"] is True
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


def _set_sampler(**sampler):
    def mutate(doc):
        _twenty_steps(doc)
        doc["sampler"] = sampler
    return mutate


def _set_ramp(length, sweep=False):
    def mutate(doc):
        _twenty_steps(doc)
        doc["coupling"] = {"lambda_ramp": [1.0] * length}
        if sweep:
            doc["lambda_grid"] = [0.0, 1.0, 2.0]
        else:
            doc["coupling"]["lambda"] = 1.0
    return mutate


def _seed_past_u64(doc):
    doc["seed"] = 2**64


def _negative_grid(doc):
    del doc["coupling"]
    doc["lambda_grid"] = [-1.0, 1.0, 2.0]


def _one_point(doc):
    doc["n"] = 1


def _noiseless_first_step(doc):
    doc["schedule"] = {"num_steps": 20, "beta_start": 1e-17, "beta_end": 0.3}


def _tiny_shift(doc):
    doc["schedule"]["shift"] = 1e-9  # every shifted alpha_bar rounds to 1


@pytest.mark.parametrize("command, mutate, key", [
    ("sample", _set_sampler(step_subset=[9, 5, 1]), "step_subset"),
    ("couple", _set_sampler(step_subset=[20, 20, 1]), "step_subset"),
    ("couple", _set_ramp(2), "coupling.lambda_ramp"),
    ("sweep", _set_ramp(1, sweep=True), "coupling.lambda_ramp"),
    ("sweep", _negative_grid, "lambda_grid"),
    ("sample", _seed_past_u64, "seed"),
    ("sample", _one_point, "n: must be >= 2"),
    ("sample", _noiseless_first_step, "schedule: alpha_bar must be strictly decreasing"),
    ("sample", _tiny_shift, "schedule.shift: every beta_t"),
], ids=["subset_not_from_T", "subset_repeats", "ramp_couple", "ramp_sweep", "negative_grid",
        "seed_past_u64", "sample_one_point", "noiseless_first_step", "shift_too_small"])
def test_bad_value_rejected_before_output(tmp_path, capsys, command, mutate, key):
    doc = sample_config() if command == "sample" else couple_config()
    mutate(doc)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_guidance_overflow_names_guidance(tmp_path, capsys):
    # a huge finite lambda overflows the guidance increment in the first step
    doc = couple_config(n=4)
    doc["schedule"]["num_steps"] = 20
    doc["coupling"] = {"lambda": 1e308, "guidance_scale_rule": "alpha_t"}
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

    def test_convert_sigma(self, capsys):
        assert main(["schedule", "convert", "--source", "sigma",
                     "--values", "0,1,3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_bar"] == pytest.approx([1.0, 0.5, 0.1])

    def test_convert_flow_time(self, capsys):
        assert main(["schedule", "convert", "--source", "flow-time",
                     "--values", "0.5,1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["alpha_bar"] == pytest.approx([0.5, 1.0])

    def test_convert_rejects_bad_values(self, capsys):
        assert main(["schedule", "convert", "--source", "sigma",
                     "--values", "-1"]) == 2

    @pytest.mark.parametrize("source", ["sigma", "alpha-bar", "flow-time"])
    @pytest.mark.parametrize("values", ["nan,0.5", "inf"])
    def test_convert_rejects_non_finite_values(self, capsys, source, values):
        assert main(["schedule", "convert", "--source", source, "--values", values]) == 2
        captured = capsys.readouterr()
        assert "--values" in captured.err and "finite" in captured.err
        assert captured.out == ""

    @pytest.mark.filterwarnings("error")  # a RuntimeWarning fails the test
    @pytest.mark.parametrize("source, values", [("sigma", "1e200"), ("alpha-bar", "1e-320")],
                             ids=["alpha_bar_underflows", "sigma_overflows"])
    def test_convert_rejects_out_of_range_results(self, capsys, source, values):
        assert main(["schedule", "convert", "--source", source, "--values", values]) == 2
        captured = capsys.readouterr()
        assert "--values" in captured.err
        assert captured.out == ""

    def test_align(self, tmp_path, capsys):
        src = tmp_path / "src.json"
        tgt = tmp_path / "tgt.json"
        src.write_text(schedule_to_json(build_linear(10, 0.01, 0.2)))
        tgt.write_text(schedule_to_json(build_linear(20, 0.005, 0.25)))
        assert main(["schedule", "align", "--source", str(src),
                     "--target", str(tgt)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["source_steps"] == 10
        targets = [t for _, t in doc["mapping"]]
        assert all(b >= a for a, b in zip(targets, targets[1:]))

    @pytest.mark.parametrize("flag", ["--source", "--target"])
    @pytest.mark.parametrize("text", [
        '[0.1, 0.2]', '{"beta": [0.1, 0.2], "num_steps": [2]}', '{"beta": [0.1, {}]}',
    ], ids=["array", "num_steps_list", "beta_holds_object"])
    def test_align_rejects_malformed_schedule(self, tmp_path, capsys, flag, text):
        good = tmp_path / "good.json"
        good.write_text(schedule_to_json(build_linear(5, 0.1, 0.2)))
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        files = {"--source": good, "--target": good, flag: bad}
        assert main(["schedule", "align", "--source", str(files["--source"]),
                     "--target", str(files["--target"])]) == 2
        assert flag in capsys.readouterr().err

    def test_align_missing_file(self, tmp_path):
        src = tmp_path / "src.json"
        src.write_text(schedule_to_json(build_linear(5, 0.1, 0.2)))
        assert main(["schedule", "align", "--source", str(src),
                     "--target", str(tmp_path / "nope.json")]) == 2


VERIFY_CHECKS = [
    ("schedule-edm-roundtrip", "hard"),
    ("schedule-shift-composition", "hard"),
    ("schedule-align-identity", "hard"),
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
                VerifyCheck(MetricReport.thresholded(name, 2.0 if name == failing else 0.0,
                                                     1.0, "le"),
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


def test_cli_import_skips_scipy_spatial():
    # a fresh interpreter: this process has already imported whatever the
    # other tests pulled in
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, coupled_sampler.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
