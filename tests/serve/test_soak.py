"""Tier-2 soak: hundreds of seeded requests, zero lost, bitwise parity.

The deterministic load/soak suite from the issue: a seeded heavy-tail
run across a mixed zoo (two models × two input shapes), asserting every
request reaches a terminal state, every served response is bitwise
identical to a direct ``engine_for`` call, and the whole run replays
bit-for-bit.  Also smoke-runs the full ``serve-bench`` scenario.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.infer import engine_for
from repro.serve import LoadProfile, TrafficMix, run_load, run_serve_bench
from tests.serve.conftest import make_registry, make_server

pytestmark = pytest.mark.tier2

SOAK_MIXES = [
    TrafficMix("cnn0/wt@0.5", (3, 8, 8), weight=3.0),
    TrafficMix("cnn0/wt@0.5", (3, 16, 16), weight=1.0),
    TrafficMix("cnn1/wt@0.5", (3, 8, 8), weight=2.0),
    TrafficMix("cnn1/wt@0.5", (3, 16, 16), weight=1.0),
]


def soak_run(seed: int = 0):
    registry = make_registry(n_models=2)
    server = make_server(registry, max_pending=256)
    profile = LoadProfile(
        mixes=SOAK_MIXES, n_requests=400, mean_interarrival=0.001, seed=seed
    )
    report, records = run_load(server, profile, keep_responses=True)
    return registry, server, report, records


class TestSoak:
    def test_hundreds_of_requests_none_lost_all_bitwise_exact(self):
        registry, server, report, records = soak_run()
        assert report.n_requests == 400
        assert report.lost == 0
        assert report.ok + report.shed + report.deadline_miss == 400
        assert report.errors == 0
        assert server.pending == 0
        # Mixed traffic actually coalesced across four (model, shape) groups.
        assert report.batches < 400
        assert report.occupancy_max > 1
        # Bitwise parity for EVERY served response, not a sample: every
        # licensed row bucket computes a row as the full-width run does,
        # so coalescing never changes the arithmetic.
        served = 0
        for arrival, images, response in records:
            if response.status != "ok":
                continue
            direct = engine_for(registry.model(arrival.mix.key)).logits(images)
            np.testing.assert_array_equal(response.value, direct)
            served += 1
        assert served >= 300  # the soak actually served the vast majority

    def test_soak_replays_bit_for_bit(self):
        _, _, first, first_records = soak_run(seed=42)
        _, _, second, second_records = soak_run(seed=42)
        assert first.to_dict() == second.to_dict()
        for (_, _, a), (_, _, b) in zip(first_records, second_records):
            assert a.status == b.status
            if a.status == "ok":
                np.testing.assert_array_equal(a.value, b.value)

    def test_soak_under_memory_pressure_still_exact(self):
        # A budget that only fits one plan forces constant evict/recompile
        # churn across the four traffic groups — results must not change.
        registry = make_registry(n_models=2, memory_budget_bytes=1)
        server = make_server(registry, max_pending=256)
        profile = LoadProfile(
            mixes=SOAK_MIXES, n_requests=150, mean_interarrival=0.001, seed=3
        )
        report, records = run_load(server, profile, keep_responses=True)
        assert report.lost == 0 and report.errors == 0
        assert registry.evictions > 0
        for arrival, images, response in records:
            if response.status == "ok":
                direct = engine_for(registry.model(arrival.mix.key)).logits(
                    images
                )
                np.testing.assert_array_equal(response.value, direct)


class TestServeBench:
    def test_bench_scenario_end_to_end(self, tmp_path):
        out = tmp_path / "BENCH_serve.json"
        result = run_serve_bench(n_requests=120, seed=0, out=out)
        load = result["load"]
        assert load["lost"] == 0
        assert load["n_requests"] == 120
        assert result["parity"]["bitwise_equal"]
        assert result["parity"]["sampled"] > 0
        assert len(result["models"]) == 3 and len(result["shapes"]) == 2
        # The SLO fields EXPERIMENTS.md documents are all present.
        for field in (
            "latency_p50_ms", "latency_p99_ms", "throughput_rps",
            "shed_rate", "deadline_miss_rate", "batch_occupancy",
        ):
            assert field in load
        assert "hist" in load["batch_occupancy"]
        # Safety contexts ride along for every model, guideline resolved.
        for key in result["models"]:
            assert result["safety"][key]["guideline"] in (1, 2, 3)
            assert "recommendation" in result["safety"][key]
        on_disk = json.loads(out.read_text())
        assert on_disk["load"]["lost"] == 0
        assert on_disk["parity"]["bitwise_equal"]

    def test_cli_exit_code(self, tmp_path, monkeypatch):
        from repro.__main__ import main

        out = tmp_path / "bench.json"
        rc = main(
            ["serve-bench", "--requests", "60", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()
