"""Serving-layer benchmark: seeded mixed traffic, SLOs, BENCH_serve.json.

Drives the ``serve-bench`` scenario — three pruned registry models × two
input shapes under seeded lognormal heavy-tail arrivals on a virtual
clock (measured engine time charged to the clock) — then

- emits ``BENCH_serve.json`` at the repo root with p50/p99 latency,
  throughput, shed/deadline-miss rates, and the batch-occupancy
  histogram,
- asserts the run's invariants: zero lost requests, bitwise parity of a
  served sample against direct ``engine_for`` calls, and real coalescing
  (mean batch occupancy above one request's worth of rows),
- records, per (model, row shape), the row buckets licensed to serve and
  the one resident plan with its resident bytes, constants and conv
  scratch (``buckets``).

``host`` records what the latencies depend on (CPU count, BLAS, thread
pins).

    PYTHONPATH=src:. python -m pytest -q -s benchmarks/test_bench_serve.py
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.suite.host import fingerprint
from repro.serve import run_serve_bench

REPO_ROOT = Path(__file__).resolve().parent.parent
N_REQUESTS = 400
SEED = 0


def test_bench_serve():
    report = {
        "host": fingerprint(),
        **run_serve_bench(n_requests=N_REQUESTS, seed=SEED),
    }
    (REPO_ROOT / "BENCH_serve.json").write_text(json.dumps(report, indent=2) + "\n")
    load = report["load"]
    print()
    print(
        f"BENCH_serve: {load['n_requests']} requests, "
        f"{load['batches']} batches "
        f"(occupancy mean {load['batch_occupancy']['mean']:.1f}), "
        f"p50 {load['latency_p50_ms']:.2f}ms p99 {load['latency_p99_ms']:.2f}ms, "
        f"{load['throughput_rps']:.0f} req/s, "
        f"shed {load['shed']}, missed {load['deadline_miss']}, "
        f"parity {'ok' if report['parity']['bitwise_equal'] else 'FAILED'}"
    )
    for key, shapes in report["buckets"].items():
        for shape, plans in shapes.items():
            print(
                f"  {key} {shape}: licensed rows {plans['licensed_rows']}, "
                f"{plans['resident_plans']} plans, {plans['plan_bytes'] / 1024:.0f} KB"
            )
            # One plan per (model, row shape) serves every licensed
            # bucket; the full width always serves.
            assert report["batch_size"] in plans["licensed_rows"]
            assert plans["resident_plans"] == 1

    assert load["lost"] == 0, "every request must reach a terminal state"
    assert load["errors"] == 0
    assert report["parity"]["bitwise_equal"], (
        f"{report['parity']['mismatches']} served responses diverged bitwise "
        "from direct engine_for calls"
    )
    # Dynamic batching must actually coalesce under heavy-tail arrivals.
    assert load["batches"] < load["n_requests"]
    assert load["batch_occupancy"]["mean"] > 1.0
    # The plan LRU stayed within its configured budget.
    registry = report["registry"]
    assert registry["plan_memory_bytes"] <= registry["memory_budget_bytes"]
