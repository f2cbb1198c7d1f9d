"""Serial vs parallel zoo building: scaling, determinism, BENCH_parallel.json.

Builds the same micro zoo twice into fresh cache directories — once with
``jobs=1`` (the in-process serial fallback) and once with ``jobs=4`` — and

- asserts the two runs publish byte-identical artifact keys and contents,
- emits ``BENCH_parallel.json`` at the repo root with the measured wall
  clocks and speedup,
- asserts the >= 2x speedup target only on hosts with >= 4 CPU cores
  (on a single-core container the pool degenerates to time slicing and
  wall-clock speedup is physically impossible).

``host`` records what the numbers depend on (CPU count, BLAS, thread
pins): a ``jobs=4`` speedup means nothing without the core count.

    PYTHONPATH=src:. python -m pytest -q -s benchmarks/test_bench_parallel_scaling.py
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from benchmarks.suite.host import fingerprint
from repro.experiments import SMOKE, ZooSpec
from repro.experiments import zoo
from repro.utils.serialization import load_state

REPO_ROOT = Path(__file__).resolve().parent.parent
PARALLEL_JOBS = 4
SPEEDUP_TARGET = 2.0

# Small enough to finish in seconds serially, enough cells (2 parents +
# 4 prune runs) that a 4-worker pool has real work to spread.
BENCH_SCALE = SMOKE.with_(
    n_train=64, n_test=32, image_size=8, num_classes=4, base_width=2,
    parent_epochs=1, retrain_epochs=1, target_ratios=(0.3, 0.6),
    n_repetitions=2,
)

BENCH_SPECS = [
    ZooSpec("cifar", "resnet20", method, rep)
    for method in ("wt", "ft")
    for rep in range(BENCH_SCALE.n_repetitions)
]


def _timed_build(cache_dir: Path, jobs: int):
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    zoo.cached_suite.cache_clear()
    start = time.perf_counter()
    timing = zoo.build_zoo(BENCH_SPECS, BENCH_SCALE, jobs=jobs)
    elapsed = time.perf_counter() - start
    return elapsed, timing, {p.name: p for p in cache_dir.glob("*.npz")}


def test_bench_parallel_scaling(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))  # restored after

    serial_s, serial_timing, serial_artifacts = _timed_build(
        tmp_path / "serial", jobs=1
    )
    parallel_s, parallel_timing, parallel_artifacts = _timed_build(
        tmp_path / "parallel", jobs=PARALLEL_JOBS
    )

    # Determinism: the worker count must never leak into the artifacts.
    assert sorted(serial_artifacts) == sorted(parallel_artifacts)
    for name in serial_artifacts:
        arrays_s, meta_s = load_state(serial_artifacts[name])
        arrays_p, meta_p = load_state(parallel_artifacts[name])
        assert meta_s == meta_p
        assert sorted(arrays_s) == sorted(arrays_p)
        for key in arrays_s:
            np.testing.assert_array_equal(arrays_s[key], arrays_p[key])

    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    report = {
        "host": fingerprint(),
        "cells": len(BENCH_SPECS) + BENCH_SCALE.n_repetitions,  # + parents
        "jobs": PARALLEL_JOBS,
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(speedup, 3),
        # Cache-aware rollups from the GridTiming returned by build_zoo:
        # both runs hit cold caches here, so hit rates should be 0 and the
        # grid speedup reflects computed cells only.
        "serial_cache_hit_rate": round(serial_timing.cache_hit_rate, 3),
        "parallel_cache_hit_rate": round(parallel_timing.cache_hit_rate, 3),
        "parallel_grid_speedup": round(parallel_timing.speedup, 3),
        "parallel_throughput_cells_per_s": round(parallel_timing.throughput, 3),
        "artifacts_identical": True,
    }
    (REPO_ROOT / "BENCH_parallel.json").write_text(json.dumps(report, indent=2) + "\n")
    print()
    print(f"BENCH_parallel: serial {serial_s:.2f}s, "
          f"jobs={PARALLEL_JOBS} {parallel_s:.2f}s, speedup {speedup:.2f}x "
          f"on {os.cpu_count()} cores")

    if (os.cpu_count() or 1) >= PARALLEL_JOBS:
        assert speedup >= SPEEDUP_TARGET, (
            f"expected >= {SPEEDUP_TARGET}x at jobs={PARALLEL_JOBS}, "
            f"got {speedup:.2f}x"
        )
