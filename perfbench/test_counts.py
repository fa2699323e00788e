"""Self-test of the benchmark: run with `python3 -m pytest perfbench/test_counts.py`.

The exact counts (op counts, kernel calls per forward and per step, computed
bytes, teacher samples) must be identical in two traced runs, and the metric
names in BENCHMARK.json must be the ones the code reports.
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402


def _traced(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True)
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_exact_counts_repeat(workload):
    counts = []
    for seed in (1, 2):
        report, result = _traced(workload, seed)
        assert result["correct"] and result["failed"] == 0, report["failures"]
        assert report["inexact_counts"] == []
        counts.append({name: result["metrics"][name]["value"]
                       for name in sorted(tracing.EXACT)})
    assert counts[0] == counts[1]
    assert counts[0]["models.op_count.deploy"] > 0
    assert counts[0]["tensor.conv2d.calls"] > 0


def test_benchmark_json_names_match_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == list(tracing.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
