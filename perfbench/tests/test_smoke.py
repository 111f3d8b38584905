"""Smoke test of the benchmark at toy size (8 cells per side, a few steps).

Every metric named in BENCHMARK.json must be emitted with its unit, the
hardware-independent counts must repeat exactly between two runs of the same
seed, and a directory without the program must make the benchmark fail
without printing a result.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(workload, trace, seed=7, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=root)
    return proc


def _result(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(BENCH, "_work", workload, f"report-trace{trace}.json")) as fh:
        report = json.load(fh)
    return result, report


def _check_metrics(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"], m["name"]
        assert isinstance(emitted["value"], (int, float)), m["name"]


def _counts(report):
    """Per-layer values that do not depend on timing, plus the raw counters."""
    layer = {k: v["value"] for k, v in report["per_layer"].items()
             if v["unit"] not in ("s", "us") and not k.startswith("trace.")}
    return layer, report["counters_first_op"], report["counters_traced_op"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result, report = _result(workload, 0)
    _check_metrics(result, SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    assert report["counters_first_op"]["cg.solves.phase"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_emitted_and_counts_repeat(workload):
    first, report1 = _result(workload, 1)
    _check_metrics(first, SPEC["per_layer"])
    second, report2 = _result(workload, 1)
    assert _counts(report1) == _counts(report2)
    assert report1["counters_first_op"] == report1["counters_traced_op"]
    assert report1["per_layer"]["trace.hook_errors"]["value"] == 0


def test_fails_without_the_program():
    bare = os.path.join(BENCH, "_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _bench(WORKLOADS[0], 0, root=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
