"""Self-test of the benchmark at toy sizes (``run.py --quick``), under a minute.

    python -m pytest -q benchmarks/suite/test_suite.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from benchmarks.suite import openloop
from benchmarks.suite.__main__ import main, verdict
from benchmarks.suite.run import WORKLOAD_NAMES
from benchmarks.suite.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "suite" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, trace: int, tmp_path: Path) -> tuple[dict, dict]:
    report = tmp_path / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--quick", "--report", str(report)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, json.loads(report.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload, untraced and traced, two runs at a time (one per CPU)."""
    tmp = tmp_path_factory.mktemp("runs")
    jobs = [(w, trace) for w in WORKLOAD_NAMES for trace in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(lambda job: run(*job, tmp), jobs)))


def test_names():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(WORKLOAD_NAMES)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics(workload, runs):
    result, _ = runs[workload, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_layers_record_calls(workload, runs):
    result, report = runs[workload, 1]
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    observed = {n: m["value"] for n, m in result["metrics"].items()} | report["layer_detail"]
    assert WORKLOADS[workload].layers
    silent = [layer for layer in WORKLOADS[workload].layers if not observed[layer] > 0]
    assert not silent, f"declared layers recorded no calls: {silent}"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "zoo-cold", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    spec = {m["name"]: m for m in SPEC["end_to_end"]}
    base = {"median": 10.0, "values": [9.9, 10.0, 10.1, 10.0]}
    slower = {"median": 20.0, "values": [19.9, 20.0, 20.1, 20.0]}
    noisy = {"median": 10.0, "values": [5.0, 10.0, 15.0, 20.0]}
    assert verdict("task_s", base, base, spec) == "ok"
    assert verdict("task_s", base, slower, spec) == "REGRESSED"
    assert verdict("task_s", slower, base, spec) == "better"
    assert verdict("task_s", base, noisy, spec) == "unresolved"
    assert verdict("fail_frac", {"median": 0.0}, {"median": 0.01}, spec) == "REGRESSED"


def test_run_aggregates_and_compares(tmp_path):
    out = tmp_path / "results.json"
    assert main(["run", "--workload", "zoo-cold", "--repeats", "2", "--seconds", "0",
                 "--quick", "--out", str(out)]) == 0
    results = json.loads(out.read_text())
    assert results["host"]["nproc"] >= 1 and "blas" in results["host"]
    agg = results["workloads"]["zoo-cold"]
    assert agg["failed_checks"] == []
    assert agg["metrics"]["task_s"]["n"] == 2
    assert main(["compare", str(out), str(out)]) == 0


def test_ladder_stops():
    from repro.serve import build_bench_registry
    from repro.serve.loadgen import BENCH_SHAPES

    registry = build_bench_registry(seed=0)
    best, rungs = openloop.ladder(registry, BENCH_SHAPES, seed=0, start_rps=200.0, step=4.0,
                                  n_requests=20, p99_limit_s=0.25, max_rungs=3)
    assert 1 <= len(rungs) <= 3
    assert best == max([r["rps"] for r in rungs if r["passed"]], default=0.0)
