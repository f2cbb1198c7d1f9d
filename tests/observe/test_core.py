"""Observation core: configuration, span nesting, metrics, disabled path."""

import os
import time

import numpy as np
import pytest

from repro import observe


def spans_of(path):
    return [e for e in observe.read_events(path) if e.get("type") == "span"]


class TestDisabled:
    def test_span_is_null_singleton(self):
        assert not observe.enabled()
        assert observe.span("a") is observe.NULL_SPAN
        assert observe.span("b", k=1) is observe.NULL_SPAN

    def test_null_span_api(self):
        with observe.span("x") as sp:
            assert sp.set(a=1) is sp
            assert sp.elapsed == 0.0

    def test_metric_calls_are_noops(self):
        observe.incr("c")
        observe.gauge("g", 1.0)
        observe.hist("h", 2.0)
        observe.event("e", k=1)
        assert observe.current_ledger_path() is None

    def test_disabled_overhead_negligible(self):
        """The acceptance-criteria micro-bench: an instrumented hot loop
        with ``REPRO_OBSERVE`` unset costs ~a dict lookup per call."""
        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with observe.span("x"):
                pass
            observe.incr("c")
        per_iteration = (time.perf_counter() - t0) / n
        assert per_iteration < 50e-6  # measured ~2µs; 25x headroom for CI


class TestConfigure:
    def test_configure_creates_and_reports_path(self, tmp_path):
        path = observe.configure(dir=tmp_path / "obs")
        assert observe.enabled()
        assert observe.current_ledger_path() == path
        assert path.suffix == ".jsonl"
        # Forked workers inherit the run; nothing goes through the
        # environment.
        assert not [k for k in os.environ if k.startswith(observe.ENV_VAR)]

    def test_explicit_path(self, tmp_path):
        target = tmp_path / "my-run.jsonl"
        assert observe.configure(path=target) == target

    def test_shutdown_disables(self, tmp_path):
        observe.configure(dir=tmp_path)
        observe.shutdown()
        assert not observe.enabled()
        assert observe.current_ledger_path() is None

    def test_reconfigure_gets_fresh_ledger(self, tmp_path):
        a = observe.configure(dir=tmp_path)
        observe.event("marker")  # materialize the first ledger file
        b = observe.configure(dir=tmp_path)
        assert a != b

    def test_env_auto_configure(self, tmp_path, monkeypatch):
        monkeypatch.setenv(observe.ENV_VAR, "1")
        monkeypatch.setenv(observe.DIR_ENV, str(tmp_path))
        assert observe.enabled()
        observe.incr("c")
        path = observe.current_ledger_path()
        assert path is not None and path.parent == tmp_path
        observe.shutdown()
        assert len(observe.read_events(path)) == 1

    def test_falsy_env_stays_disabled(self, monkeypatch):
        for value in ("", "0", "false", "off", "no"):
            monkeypatch.setenv(observe.ENV_VAR, value)
            assert not observe.enabled()


class TestSpans:
    def test_nesting_and_attrs(self, tmp_path):
        path = observe.configure(dir=tmp_path)
        with observe.span("outer", a=1):
            with observe.span("inner") as sp:
                sp.set(b=2)
        observe.shutdown()
        recorded = {e["name"]: e for e in spans_of(path)}
        assert set(recorded) == {"outer", "inner"}
        assert recorded["outer"]["parent"] is None
        assert recorded["inner"]["parent"] == recorded["outer"]["id"]
        assert recorded["outer"]["attrs"] == {"a": 1}
        assert recorded["inner"]["attrs"] == {"b": 2}
        assert recorded["inner"]["seconds"] <= recorded["outer"]["seconds"]

    def test_error_recorded_and_stack_unwound(self, tmp_path):
        path = observe.configure(dir=tmp_path)
        with pytest.raises(RuntimeError):
            with observe.span("bad"):
                raise RuntimeError("boom")
        with observe.span("after"):
            pass
        observe.shutdown()
        recorded = {e["name"]: e for e in spans_of(path)}
        assert recorded["bad"]["error"] == "RuntimeError"
        assert "error" not in recorded["after"]
        assert recorded["after"]["parent"] is None  # stack fully unwound

    def test_numpy_attrs_serialized(self, tmp_path):
        path = observe.configure(dir=tmp_path)
        with observe.span("np", ratio=np.float64(0.5), arr=np.array([1, 2])):
            pass
        observe.shutdown()
        [rec] = spans_of(path)
        assert rec["attrs"]["ratio"] == 0.5
        assert rec["attrs"]["arr"] == [1, 2]

    def test_open_span_iteration(self, tmp_path):
        observe.configure(dir=tmp_path)
        with observe.span("outer"):
            with observe.span("inner"):
                assert list(observe.iter_open_spans()) == ["outer", "inner"]


class TestMetrics:
    def test_emission_shapes(self, tmp_path):
        path = observe.configure(dir=tmp_path)
        observe.incr("cells")
        observe.incr("cells", 2)
        observe.gauge("temp", 1.5)
        observe.hist("ratio", 0.25, layer="conv1")
        observe.event("epoch", epoch=0, loss=1.0)
        observe.shutdown()
        events = observe.read_events(path)
        by_type = {}
        for e in events:
            by_type.setdefault(e["type"], []).append(e)
        assert sum(e["value"] for e in by_type["counter"]) == 3
        assert by_type["gauge"][0]["value"] == 1.5
        assert by_type["hist"][0]["attrs"] == {"layer": "conv1"}
        assert by_type["event"][0]["attrs"]["epoch"] == 0

    def test_records_carry_ts_and_pid(self, tmp_path):
        import os

        path = observe.configure(dir=tmp_path)
        observe.incr("c")
        observe.shutdown()
        [rec] = observe.read_events(path)
        assert rec["pid"] == os.getpid()
        assert rec["ts"] > 0

    def test_metric_inside_span_is_attributed(self, tmp_path):
        path = observe.configure(dir=tmp_path)
        with observe.span("work"):
            observe.incr("c")
        observe.shutdown()
        events = observe.read_events(path)
        counter = next(e for e in events if e["type"] == "counter")
        span_rec = next(e for e in events if e["type"] == "span")
        assert counter["span"] == span_rec["id"]
