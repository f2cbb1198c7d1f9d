"""Fault containment: chaos drills on the serving loop.

The chaos tests run on the virtual clock (retry backoff sleeps are free)
and scope injection to one model's serve key, proving a faulting engine
fails only its own batches while the rest of the zoo keeps serving.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.infer import engine_for
from repro.resilience import chaos
from tests.serve.conftest import images_for, make_registry, make_server

KEY0, KEY1 = "cnn0/wt@0.5", "cnn1/wt@0.5"


class TestChaosContainment:
    def test_faulting_model_fails_alone_and_queue_drains(self, rng):
        server = make_server(make_registry(), max_retries=0)
        chaos.configure(exception_rate=1.0, seed=3, only_keys=(f"serve/{KEY0}",))
        broken = [server.submit(KEY0, images_for(rng)) for _ in range(3)]
        healthy = [server.submit(KEY1, images_for(rng)) for _ in range(3)]
        server.run_until_idle()
        assert [r.status for r in broken] == ["error"] * 3
        assert [r.status for r in healthy] == ["ok"] * 3
        assert server.pending == 0
        metrics = server.metrics()
        assert metrics["error"] == 3 and metrics["ok"] == 3
        for response in broken:
            with pytest.raises(RuntimeError, match="chaos"):
                response.result()

    def test_mid_run_fault_only_kills_its_batch(self, rng):
        # Batches interleave: the faulting model errors, then the same
        # queue keeps serving later healthy batches.
        server = make_server(make_registry(), max_retries=0)
        chaos.configure(exception_rate=1.0, seed=3, only_keys=(f"serve/{KEY0}",))
        first = server.submit(KEY1, images_for(rng))
        server.run_until_idle()
        bad = server.submit(KEY0, images_for(rng))
        server.run_until_idle()
        after = server.submit(KEY1, images_for(rng))
        server.run_until_idle()
        assert (first.status, bad.status, after.status) == ("ok", "error", "ok")

    def test_retry_recovers_first_attempt_faults(self, rng):
        # first_attempts_only=1: chaos fires only on attempt 0, so one
        # retry deterministically recovers — and the retry backoff is a
        # free virtual-clock sleep.
        server = make_server(make_registry(), max_retries=1)
        chaos.configure(
            exception_rate=1.0, seed=3,
            only_keys=(f"serve/{KEY0}",), first_attempts_only=1,
        )
        images = images_for(rng)
        response = server.submit(KEY0, images)
        server.run_until_idle()
        assert response.status == "ok"
        assert server.metrics()["retries"] == 1
        np.testing.assert_array_equal(
            response.value,
            engine_for(server.registry.model(KEY0)).logits(images),
        )

    def test_retry_budget_exhausts_to_error(self, rng):
        server = make_server(make_registry(), max_retries=2)
        chaos.configure(exception_rate=1.0, seed=3, only_keys=(f"serve/{KEY0}",))
        response = server.submit(KEY0, images_for(rng))
        server.run_until_idle()
        assert response.status == "error"
        assert server.metrics()["retries"] == 2

    def test_ledger_records_batch_errors(self, tmp_path, rng):
        from repro import observe

        observe.configure(dir=tmp_path)
        server = make_server(make_registry(), max_retries=0)
        chaos.configure(exception_rate=1.0, seed=3, only_keys=(f"serve/{KEY0}",))
        server.submit(KEY0, images_for(rng))
        server.submit(KEY1, images_for(rng))
        server.run_until_idle()
        path = observe.current_ledger_path()
        observe.shutdown()
        report = observe.load_report(path)
        assert report.event_counts.get("serve.batch_error") == 1
        rollup = report.serve
        assert rollup["batch_errors"] == 1
        # The failed batch's span carries the error attribute; the healthy
        # one does not — and both are children of the same serve.run.
        (run,) = [r for r in report.roots if r.name == "serve.run"]
        errors = [
            c.attrs.get("error") for c in run.children if c.name == "serve.batch"
        ]
        assert sorted(e is not None for e in errors) == [False, True]
