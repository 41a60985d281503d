"""Smoke test of the repository benchmark at a tiny input size.

Run with ``python -m pytest perfbench/test_perfbench.py``.  Each workload
runs untraced and traced; the test checks that every metric named in
``BENCHMARK.json`` is reported with its unit, that no output check
failed, and that the traced self times sum to at most the traced wall
time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]

#: The issue-level metrics each workload prints by name, with their units.
NAMED = {
    "storm_fleet": {"sim_steps_per_s": "steps/s", "fleet_wall_s": "s"},
    "calibration_pipeline": {"sim_steps_per_s": "steps/s", "report_s": "s",
                             "recalibrate_s": "s"},
    "placement_wire": {"answer_qps": "queries/s", "answer_p50_us": "us",
                       "answer_p99_us": "us", "batch_qps": "queries/s"},
}


def run(workload: str, trace: int):
    process = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert process.returncode == 0, process.stderr
    lines = process.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_metrics(result, declared) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    reported = result["metrics"]
    assert set(reported) == {metric["name"] for metric in declared}
    for metric in declared:
        assert reported[metric["name"]]["unit"] == metric["unit"]
        assert isinstance(reported[metric["name"]]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    lines, result = run(workload, trace=0)
    check_metrics(result, BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 5 and parts[0] == workload and parts[2] == "=":
            printed[parts[1]] = (float(parts[3]), parts[4])
    for name, unit in NAMED[workload].items():
        assert printed[name][1] == unit
        assert printed[name][0] > 0
    assert printed["error_rate"] == (0.0, "failed/attempted")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    _, result = run(workload, trace=1)
    check_metrics(result, BENCHMARK["per_layer"])
    layers = {name: value["value"] for name, value in result["metrics"].items()}
    assert 0 < layers["traced.self_share"] <= 1.0
    if workload == "storm_fleet":
        assert layers["session.replay_calls"] > 0
        assert layers["transport.requests"] == 0
    if workload == "calibration_pipeline":
        assert layers["shard.draw_requests"] > 0
        assert layers["telemetry.npz_bytes"] > 0
    if workload == "placement_wire":
        assert layers["scoretable.options_built"] > 0
        assert layers["engine.events"] == 0
