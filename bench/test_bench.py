"""Test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

Every metric declared in BENCHMARK.json is emitted with its unit, no
operation fails, traced counts and report digests repeat exactly, and the
harness refuses to run without the program's sources.
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

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fp:
    SPEC = json.load(_fp)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_emitted_and_nothing_fails(workload):
    result, info = run.run(workload, seed=0, seconds=0.5, trace=0, root=ROOT)
    assert result["correct"] and result["failed"] == 0, info["failures"]
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    runs = [run.run(workload, seed=0, seconds=0.5, trace=1, root=ROOT, trace_cycles=1)
            for _ in range(2)]
    for result, info in runs:
        assert result["correct"] and result["failed"] == 0, info["failures"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    counts = [{k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}
              for result, _ in runs]
    assert counts[0] == counts[1]
    assert runs[0][1]["digest"] == runs[1][1]["digest"]


def test_traced_replay_matches_cli_bytes():
    plain = run.run("queries", seed=3, seconds=0, trace=0, root=ROOT)[1]
    traced = run.run("queries", seed=3, seconds=0, trace=1, root=ROOT, trace_cycles=1)[1]
    assert plain["digest_cycles"] == traced["digest_cycles"] == 1
    assert plain["digest"] == traced["digest"]


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "queries",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
