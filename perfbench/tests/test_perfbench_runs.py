"""Whole benchmark runs (minutes): every metric in BENCHMARK.json is
emitted."""

import json
import subprocess
import sys

import common
import pytest

pytestmark = pytest.mark.slow


def run(workload, trace):
    args = ["--workload", workload, "--seed", "5", "--seconds", "1"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args, "--trace", str(trace)],
        cwd=str(common.ROOT),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", ["reproduce-cold", "reproduce-warm", "serve-mix"]
)
def test_every_benchmark_metric_is_emitted(workload, trace):
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in listed
    ]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())

