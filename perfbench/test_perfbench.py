"""Tests of the benchmark itself, on the smoke sizes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def smoke_runs():
    return {(name, trace): run.run_workload(name, 1, 0, trace, smoke=True)
            for name in NAMES for trace in (False, True)}


def _fail_ratio(w, reference) -> float:
    runs = run.measure(w, 0, Tracer(False), reference)
    return run.end_to_end(w, runs, 0.0)["fail_ratio"]["value"]


def test_workloads_match_the_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_every_metric_is_emitted(smoke_runs, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _report = smoke_runs[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    e2e = smoke_runs[name, False][0]["metrics"]
    assert all(v["value"] > 0 for v in e2e.values())


@pytest.mark.parametrize("name", NAMES)
def test_outputs_match_their_references(smoke_runs, name):
    result, report = smoke_runs[name, False]
    assert result["correct"], report["failing_ops"]
    assert report["node_counts_moved"] == []


def _self_times_add_up(metrics) -> bool:
    total = sum(metrics[layer + ".self_s"]["value"] for layer in run.LAYERS)
    run_s = metrics["bench.run_s"]["value"]
    return abs(total - run_s) <= 0.02 * run_s + 0.005


@pytest.mark.parametrize("name", NAMES)
def test_self_times_account_for_run_s(smoke_runs, name):
    assert _self_times_add_up(smoke_runs[name, True][0]["metrics"])


def test_rounds_repeat_until_the_window_ends():
    result, report = run.run_workload("fq-build", 1, 1.0, True, smoke=True)
    assert min(report["executions"].values()) >= 2
    assert _self_times_add_up(result["metrics"])
    # each op counts once in attempted, however often the window repeated it
    assert result["attempted"] == len(report["executions"])


def test_failed_counts_ops_not_executions(smoke_runs):
    once, _report = smoke_runs["certify-files", False]
    result, report = run.run_workload("certify-files", 1, 3.0, False, smoke=True)
    assert max(report["executions"].values()) >= 2
    assert (result["attempted"], result["failed"]) == (once["attempted"], once["failed"])
    assert result["failed"] == len(report["failing_ops"])


def test_search_records_stop_reasons(smoke_runs):
    _result, report = smoke_runs["search", False]
    stops = {s["search"]: s["stop"] for s in report["searches"]}
    assert stops["gbtp(9,3x4)@5000000"] == "exhausted"
    assert stops["gbtp(15,5x7)@2000"] == "budget"
    nodes = {s["search"]: s["nodes"] for s in report["searches"]}
    assert nodes["gbtp(15,5x7)@2000"] == 2001  # as returned on a budget stop


def test_planted_wrong_reference_raises_fail_ratio():
    reference = run.load_reference()
    w = workloads.setup("fq-build", 3, smoke=True)
    clean = _fail_ratio(w, reference)
    planted = json.loads(json.dumps(reference))
    planted["outputs"]["fq-build/q13/code"] = "0" * 64
    assert _fail_ratio(w, planted) > clean


def test_moved_node_count_is_reported_not_failed():
    planted = run.load_reference()
    planted["nodes"]["gbtp(9,3x4)@5000000"] += 1
    result, report = run.run_workload("search", 1, 0, False, smoke=True, reference=planted)
    assert [m["search"] for m in report["node_counts_moved"]] == ["gbtp(9,3x4)@5000000"]
    assert result["correct"] and result["failed"] == 0


def test_planted_uncaught_mutant_raises_fail_ratio():
    reference = run.load_reference()
    w = workloads.setup("certify-files", 3, smoke=True)
    try:
        clean = _fail_ratio(w, reference)
        path = w.workdir / "fig3.json"
        w.ops.append(workloads.Op("planted", workloads.mutant_op(
            path, path.read_text(encoding="utf-8"), "planted"), malformed=True))
        assert _fail_ratio(w, reference) > clean
    finally:
        w.close()


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fq-build",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
