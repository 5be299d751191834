"""Smoke test of the benchmark: every workload at tiny size, both trace modes.

Asserts that every metric named in BENCHMARK.json is printed, with its unit,
for every workload, so no metric can silently disappear, and that no
operation fails.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric(trace, group):
    proc = subprocess.run(
        [sys.executable, str(ROOT / SPEC["command"][1]), "--workload", "all", "--smoke",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[group]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for key, value in result["metrics"].items():
        assert isinstance(value["value"], (int, float)), key
