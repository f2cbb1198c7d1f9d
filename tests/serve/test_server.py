"""End-to-end server tests on a virtual clock: every schedule is exact.

The conftest server injects a constant service-time model, so batch
completion instants — and therefore every latency below — are precise
virtual-clock arithmetic, not timing-dependent assertions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import observe
from repro.infer import engine_for
from repro.serve import ModelKey, PruneServer, SafetyAnswer, ServeConfig, VirtualClock
from repro.serve.safety import SafetyContext
from tests.serve.conftest import (
    SERVICE_S,
    images_for,
    make_registry,
    make_server,
)

KEY0, KEY1 = "cnn0/wt@0.5", "cnn1/wt@0.5"


class TestEndToEnd:
    def test_single_request_roundtrip(self, server, rng):
        images = images_for(rng, rows=2)
        response = server.submit(KEY0, images)
        assert response.status == "pending"
        server.run_until_idle()
        assert response.status == "ok"
        assert response.value.shape == (2, 4)
        assert server.pending == 0

    def test_coalescing_three_requests_one_batch(self, server, rng):
        # Every spelling of one model's key queues under its canonical key.
        keys = (KEY0, "cnn0/wt@0.50", ModelKey("cnn0", "wt", 0.5))
        responses = [server.submit(key, images_for(rng, rows=2)) for key in keys]
        server.run_until_idle()
        assert [r.status for r in responses] == ["ok"] * 3
        metrics = server.metrics()
        assert metrics["batches"] == 1
        assert metrics["occupancies"] == [6]
        assert all(r.batch_rows == 6 for r in responses)

    def test_full_batch_flushes_without_waiting_for_window(self, server, rng):
        # batch_size is 8: two 4-row requests fill it; pump() at t=0
        # executes immediately, well before the 10ms window.
        server.submit(KEY0, images_for(rng, rows=4))
        response = server.submit(KEY0, images_for(rng, rows=4))
        assert server.pump() == 1
        assert response.status == "ok"
        assert server.clock.now() == pytest.approx(SERVICE_S)

    def test_mixed_models_separate_batches(self, server, rng):
        r0 = server.submit(KEY0, images_for(rng))
        r1 = server.submit(KEY1, images_for(rng))
        assert server.run_until_idle() == 2
        assert r0.status == r1.status == "ok"
        assert server.metrics()["batches"] == 2

    def test_latency_is_window_plus_service(self, server, rng):
        # One small request: flushes at max_wait (10ms), completes one
        # service time later — exact on the virtual clock.
        response = server.submit(KEY0, images_for(rng))
        server.run_until_idle()
        assert response.latency == pytest.approx(0.010 + SERVICE_S)

    def test_run_until_idle_rejects_threaded_server(self, server):
        server._thread = object()
        try:
            with pytest.raises(RuntimeError, match="non-threaded"):
                server.run_until_idle()
        finally:
            server._thread = None

    def test_start_rejects_virtual_clock(self, server):
        with pytest.raises(ValueError, match="wall clock"):
            server.start()


class TestBitwiseParity:
    def test_coalesced_rows_equal_direct_engine_calls(self, server, rng):
        """The acceptance bar: batched responses are bitwise-identical to
        serving the same images through direct ``engine_for`` calls."""
        registry = server.registry
        payloads = [
            (KEY0, images_for(rng, rows=1)),
            (KEY0, images_for(rng, rows=3)),
            (KEY1, images_for(rng, rows=2)),
            (KEY0, images_for(rng, rows=2)),
            (KEY1, images_for(rng, rows=1)),
        ]
        responses = [server.submit(key, images) for key, images in payloads]
        server.run_until_idle()
        for (key, images), response in zip(payloads, responses):
            assert response.status == "ok"
            direct = engine_for(registry.model(key)).logits(images)
            np.testing.assert_array_equal(response.value, direct)

    def test_middle_of_batch_rows_are_bit_exact(self, server, rng):
        # The middle request of a coalesced batch exercises offsets on
        # both sides — the case plain tail-padding parity would miss.
        middle_images = images_for(rng, rows=2)
        server.submit(KEY0, images_for(rng, rows=3))
        middle = server.submit(KEY0, middle_images)
        server.submit(KEY0, images_for(rng, rows=3))
        server.run_until_idle()
        assert middle.batch_rows == 8
        direct = engine_for(server.registry.model(KEY0)).logits(middle_images)
        np.testing.assert_array_equal(middle.value, direct)


class TestDeadlinesAndShedding:
    def test_expired_request_resolves_deadline_not_served(self, server, rng):
        response = server.submit(KEY0, images_for(rng), deadline=0.004)
        # The batch only runs after the clock has already passed the
        # deadline (e.g. the executor was busy elsewhere).
        server.clock.advance_to(0.005)
        server.pump()
        assert response.status == "deadline"
        assert server.metrics()["deadline"] == 1
        assert server.pending == 0

    def test_deadline_pulls_flush_forward(self, server, rng):
        response = server.submit(KEY0, images_for(rng), deadline=0.004)
        assert server.next_due() == pytest.approx(0.004)  # < max_wait 10ms
        server.run_until_idle()
        assert response.status == "ok"

    def test_shed_oldest_under_backpressure(self, rng):
        server = make_server(make_registry(), max_pending=2)
        first = server.submit(KEY0, images_for(rng))
        second = server.submit(KEY1, images_for(rng))
        third = server.submit(KEY0, images_for(rng))
        assert first.status == "shed"
        assert first.latency == 0.0  # resolved at submission time
        server.run_until_idle()
        assert second.status == third.status == "ok"
        metrics = server.metrics()
        assert metrics["shed"] == 1 and metrics["ok"] == 2
        assert metrics["requests"] == 3

    def test_no_deadline_when_disabled(self, rng):
        server = make_server(make_registry(), default_deadline=None)
        response = server.submit(KEY0, images_for(rng))
        server.clock.advance_to(1e6)  # a CPU-year of queueing later...
        server.pump()
        assert response.status == "ok"


class TestValidation:
    def test_rejects_non_batch_images(self, server):
        with pytest.raises(ValueError, match="non-empty batch"):
            server.submit(KEY0, np.zeros(8, dtype=np.float32))
        with pytest.raises(ValueError, match="non-empty batch"):
            server.submit(KEY0, np.zeros((0, 3, 8, 8), dtype=np.float32))

    def test_unknown_model_raises_at_submit(self, server, rng):
        with pytest.raises(KeyError, match=r"unknown model.*cnn0/wt@0\.5"):
            server.submit("ghost/wt@0.1", images_for(rng))

    def test_serving_canonical_keys_parses_no_key(self, server, rng, monkeypatch):
        parsed = []
        parse = ModelKey.parse.__func__

        def counting_parse(cls, text):
            parsed.append(text)
            return parse(cls, text)

        monkeypatch.setattr(ModelKey, "parse", classmethod(counting_parse))
        responses = [server.submit(key, images_for(rng)) for key in (KEY0, KEY1) * 3]
        server.run_until_idle()
        assert [r.status for r in responses] == ["ok"] * 6
        assert parsed == []

    def test_integer_images_are_coerced_to_float(self, server):
        response = server.submit(KEY0, np.zeros((1, 3, 8, 8), dtype=np.int64))
        server.run_until_idle()
        assert response.status == "ok"


class TestEndpoints:
    def test_predict_logits_and_predict(self, server, rng):
        images = images_for(rng, rows=3)
        logits = server.predict_logits(KEY0, images)
        direct = engine_for(server.registry.model(KEY0)).logits(images)
        np.testing.assert_array_equal(logits, direct)
        predictions = server.predict(KEY0, images)
        np.testing.assert_array_equal(predictions, np.argmax(direct, axis=1))

    def test_safety_endpoint_attaches_cached_context(self, rng):
        context = SafetyContext(
            delta=0.01,
            potentials={"nominal": 0.8, "fog": 0.3},
            parent_errors={"nominal": 0.08, "fog": 0.2},
        )
        registry = make_registry(n_models=1, safety=context)
        server = make_server(registry)
        answer = server.safety(KEY0, images_for(rng, rows=2))
        assert isinstance(answer, SafetyAnswer)
        assert answer.prediction.shape == (2,)
        np.testing.assert_array_equal(
            answer.prediction, np.argmax(answer.logits, axis=1)
        )
        assert answer.context is context
        payload = answer.to_dict()
        assert payload["safety"]["guideline"] == 2  # 0.3 < 0.9 * 0.8
        assert payload["safety"]["safe_ratio"] == 0.3
        assert payload["safety"]["worst_distribution"] == "fog"
        assert "prune moderately" in payload["safety"]["recommendation"]

    def test_safety_without_context_is_prediction_only(self, server, rng):
        answer = server.safety(KEY0, images_for(rng))
        assert answer.context is None
        assert "safety" not in answer.to_dict()


class TestLedger:
    def test_span_tree_and_serve_rollup_are_well_formed(self, tmp_path, rng):
        """Serving writes a well-formed ledger: serve.batch spans nested
        under serve.run, counters consistent, rollup latencies present."""
        observe.configure(dir=tmp_path)
        registry = make_registry()
        server = make_server(registry)
        for _ in range(6):
            server.submit(KEY0, images_for(rng, rows=2))
            server.submit(KEY1, images_for(rng))
        server.run_until_idle()
        path = observe.current_ledger_path()
        observe.shutdown()
        report = observe.load_report(path)

        runs = [r for r in report.roots if r.name == "serve.run"]
        assert len(runs) == 1
        batch_spans = [c for c in runs[0].children if c.name == "serve.batch"]
        assert len(batch_spans) == server.metrics()["batches"]
        assert all(s.error is None for s in batch_spans)
        assert sum(s.attrs["rows"] for s in batch_spans) == 18

        rollup = report.serve
        assert rollup is not None
        assert rollup["requests"] == 12
        assert rollup["batches"] == len(batch_spans)
        assert rollup["shed"] == 0 and rollup["deadline_miss"] == 0
        assert rollup["latency_p50_s"] > 0
        assert rollup["latency_p99_s"] >= rollup["latency_p50_s"]
        assert rollup["occupancy_mean"] == pytest.approx(
            18 / len(batch_spans)
        )
        # plan compiles tracked through the registry hook: each plan that
        # served (full-width or licensed bucket) once, nothing evicted
        assert rollup["plan_compiles"] == len(registry.resident_plans()) >= 2
        assert "serve" in report.to_dict()
        assert "serve:" in report.render()


class TestDefaults:
    def test_default_clock_is_virtual(self):
        server = PruneServer(make_registry(), ServeConfig())
        assert isinstance(server.clock, VirtualClock)

    def test_config_defaults(self):
        config = ServeConfig()
        assert config.max_wait == 0.005
        assert config.max_pending == 1024
        assert config.default_deadline == 0.25
        assert config.service_time is None
