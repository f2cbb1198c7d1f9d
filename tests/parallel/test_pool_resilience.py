"""Fault-tolerant parallel_map: validation, retries, collect mode, crashes."""

from __future__ import annotations

import os
import time

import pytest

from repro.parallel import MapOutcome, WorkerError, parallel_map
from repro.resilience import KIND_CRASH, KIND_EXCEPTION, KIND_TIMEOUT, RetryPolicy
from repro.resilience import chaos

#: Zero-sleep policy so retry tests don't wait out real backoff delays.
FAST = RetryPolicy(max_retries=2, base_delay=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def ambient_chaos_off(monkeypatch):
    """These tests assert exact failure counts, so ambient REPRO_CHAOS
    (exported by the nightly chaos CI job) must not inject extra faults."""
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.disable()
    yield


def _ident(x):
    return x


def _boom_on_two(x):
    if x == 2:
        raise ValueError(f"bad item {x}")
    return x * 10


def _flaky(args):
    """Raise a transient OSError until a marker file exists (cross-process)."""
    marker, x = args
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("tried")
        raise OSError("transient filesystem hiccup")
    return x * 10


_SEEN: list[int] = []


def _interrupt_on_zero(x):
    _SEEN.append(x)
    if x == 0:
        raise KeyboardInterrupt
    return x


def _always_oserror(x):
    raise OSError("permanently flaky")


def _crash_once(args):
    """Hard-kill the worker on first sight of the marker's absence."""
    marker, x = args
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("crashing")
        os._exit(23)
    return x * 10


def _sleep_forever(x):
    if x == 1:
        time.sleep(60)
    return x


class TestValidation:
    def test_fn_must_be_callable(self):
        with pytest.raises(ValueError, match="fn must be callable"):
            parallel_map("not a function", [1, 2])

    def test_on_error_vocabulary(self):
        with pytest.raises(ValueError, match="on_error"):
            parallel_map(_ident, [1, 2], on_error="ignore")

    def test_keys_length_mismatch(self):
        with pytest.raises(ValueError, match="keys has 2 entries for 3 items"):
            parallel_map(_ident, [1, 2, 3], keys=["a", "b"])

    def test_keys_callable(self, tmp_path):
        out = parallel_map(
            _boom_on_two,
            [1, 2, 3],
            jobs=1,
            on_error="collect",
            max_retries=0,
            keys=lambda x: f"cell/{x}",
        )
        assert out.failures[0].key == "cell/2"


class TestCollectSerial:
    def test_partial_results_with_holes(self):
        out = parallel_map(
            _boom_on_two, [1, 2, 3], jobs=1, on_error="collect", max_retries=0
        )
        assert isinstance(out, MapOutcome)
        assert out.results == [10, None, 30]
        assert not out.ok
        assert out.failed_indices == [1]
        assert out.successes() == [10, 30]
        assert out.retries == 0
        (failure,) = out.failures
        assert failure.kind == KIND_EXCEPTION
        assert failure.error_type == "ValueError"
        assert failure.message == "bad item 2"
        assert failure.attempts == 1
        assert not failure.retryable  # deterministic: never retried
        assert "_boom_on_two" in failure.remote_traceback

    def test_keyboard_interrupt_stops_the_map(self):
        """Ctrl-C is not a cell failure: collect mode must not record it
        and go on with the next cell."""
        _SEEN.clear()
        with pytest.raises(KeyboardInterrupt):
            parallel_map(_interrupt_on_zero, [0, 1, 2], jobs=1, on_error="collect")
        assert _SEEN == [0]

    def test_all_ok_outcome(self):
        out = parallel_map(_ident, [1, 2], jobs=1, on_error="collect")
        assert out.ok and out.results == [1, 2] and not out.failures

    def test_transient_failure_retried_to_success(self, tmp_path):
        out = parallel_map(
            _flaky,
            [(str(tmp_path / "marker"), 4)],
            jobs=1,
            on_error="collect",
            retry_policy=FAST,
        )
        assert out.ok
        assert out.results == [40]
        assert out.retries == 1

    def test_budget_exhaustion_records_attempts(self, tmp_path):
        out = parallel_map(
            _always_oserror,
            [7],
            jobs=1,
            on_error="collect",
            retry_policy=FAST,
            max_retries=1,
        )
        (failure,) = out.failures
        assert failure.attempts == 2  # first try + one retry
        assert failure.retryable
        assert out.retries == 1

    def test_raise_mode_propagates_after_retries(self, tmp_path):
        with pytest.raises(OSError, match="permanently flaky"):
            parallel_map(
                _always_oserror, [7], jobs=1, retry_policy=FAST, max_retries=1
            )

    def test_zero_retry_budget_honoured(self, tmp_path):
        out = parallel_map(
            _flaky,
            [(str(tmp_path / "marker"), 4)],
            jobs=1,
            on_error="collect",
            max_retries=0,
        )
        assert not out.ok and out.failures[0].attempts == 1


class TestCollectParallel:
    def test_partial_results_with_holes(self):
        out = parallel_map(
            _boom_on_two,
            [1, 2, 3, 4],
            jobs=2,
            on_error="collect",
            max_retries=0,
        )
        assert out.results == [10, None, 30, 40]
        assert out.failed_indices == [1]
        assert out.failures[0].kind == KIND_EXCEPTION
        assert out.failures[0].error_type == "ValueError"

    def test_raise_mode_wraps_in_worker_error(self):
        with pytest.raises(WorkerError, match="bad item 2"):
            parallel_map(_boom_on_two, [1, 2, 3, 4], jobs=2)

    def test_crash_recovers_via_retry(self, tmp_path):
        out = parallel_map(
            _crash_once,
            [(str(tmp_path / "marker"), 4)] + [(str(tmp_path / "ok"), 5)],
            jobs=2,
            on_error="collect",
            retry_policy=FAST,
        )
        # Marker "ok" never exists either — both cells crash once, then
        # succeed on their retry in a fresh worker.
        assert out.ok
        assert out.results == [40, 50]
        assert out.retries == 2

    def test_crash_exhausting_budget_is_a_crash_failure(self):
        # Two items: a single-item map would take the in-process serial
        # path, where _crash_always would kill the test runner itself.
        out = parallel_map(
            _crash_always,
            [0, 1],
            jobs=2,
            on_error="collect",
            retry_policy=FAST,
            max_retries=1,
        )
        assert out.results == [None, None]
        assert len(out.failures) == 2
        for failure in out.failures:
            assert failure.kind == KIND_CRASH
            assert failure.error_type == "WorkerCrashError"
            assert "exited with code 23" in failure.message
            assert failure.attempts == 2
            assert failure.retryable  # crashes always retryable, just spent

    @pytest.mark.tier2
    def test_timeout_reaps_the_hung_worker(self):
        t0 = time.monotonic()
        out = parallel_map(
            _sleep_forever,
            [0, 1, 2],
            jobs=2,
            on_error="collect",
            timeout=1.0,
            max_retries=0,
        )
        assert time.monotonic() - t0 < 30  # did not wait out the sleep
        assert out.results == [0, None, 2]
        (failure,) = out.failures
        assert failure.kind == KIND_TIMEOUT
        assert failure.error_type == "TimeoutError"
        assert "deadline" in failure.message


def _crash_always(x):
    os._exit(23)
