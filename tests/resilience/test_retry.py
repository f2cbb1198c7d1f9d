"""Retry policy: transient classification, seeded backoff, budget resolution."""

from __future__ import annotations

import zipfile
import zlib

import pytest

from repro.parallel import WorkerError
from repro.parallel.locks import LockTimeout
from repro.resilience import (
    RetryPolicy,
    is_retryable,
    is_retryable_type,
    resolve_cell_timeout,
    resolve_max_retries,
    stable_seed,
    stable_unit,
)
from repro.resilience.chaos import ChaosError
from repro.resilience.retry import RETRYABLE_TYPES


class TestClassification:
    @pytest.mark.parametrize(
        "exc",
        [
            OSError("disk went away"),
            BrokenPipeError("worker pipe"),
            TimeoutError("deadline"),
            LockTimeout("starved"),
            EOFError("truncated read"),
            zipfile.BadZipFile("torn archive"),
            zlib.error("truncated block"),
            ChaosError("injected"),
            WorkerError("repackaged", "tb"),
        ],
    )
    def test_transient_instances(self, exc):
        assert is_retryable(exc)

    @pytest.mark.parametrize(
        "exc", [ValueError("bad config"), KeyError("missing"), TypeError("shape")]
    )
    def test_deterministic_instances(self, exc):
        assert not is_retryable(exc)

    def test_oserror_subclass_caught_by_isinstance(self):
        class WeirdDiskError(OSError):
            pass

        # Name not in the table, but still an OSError instance.
        assert "WeirdDiskError" not in RETRYABLE_TYPES
        assert is_retryable(WeirdDiskError("hiccup"))

    def test_type_name_classification_is_wire_format(self):
        # The parent only sees names across the process boundary.
        assert is_retryable_type("LockTimeout")
        assert is_retryable_type("ChaosError")
        assert not is_retryable_type("ValueError")


class TestStableSeeding:
    def test_seed_deterministic_and_distinct(self):
        assert stable_seed("a", 1) == stable_seed("a", 1)
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a", 1) != stable_seed("b", 1)

    def test_unit_in_half_open_interval(self):
        draws = [stable_unit("cell", i) for i in range(100)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert len(set(draws)) > 90  # no obvious collisions

    def test_separator_prevents_part_gluing(self):
        # ("ab", "c") must not hash like ("a", "bc").
        assert stable_seed("ab", "c") != stable_seed("a", "bc")


class TestRetryPolicy:
    def test_backoff_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy()
        assert policy.backoff(1, "cell-a") == policy.backoff(1, "cell-a")
        assert policy.backoff(1, "cell-a") != policy.backoff(1, "cell-b")

    def test_backoff_exponential_within_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, jitter=0.5)
        for attempt, nominal in [(1, 0.1), (2, 0.2), (3, 0.4)]:
            delay = policy.backoff(attempt, "k")
            assert nominal * 0.5 <= delay <= nominal * 1.5

    def test_backoff_capped_at_max_delay(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=10.0, max_delay=2.0, jitter=0.5)
        assert policy.backoff(50, "k") <= 2.0 * 1.5

    def test_backoff_without_jitter_is_exact(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, jitter=0.0)
        assert policy.backoff(3, "k") == pytest.approx(0.4)

    def test_backoff_rejects_zeroth_attempt(self):
        with pytest.raises(ValueError, match="attempt"):
            RetryPolicy().backoff(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_delay": -0.1},
            {"max_delay": -1.0},
            {"jitter": 1.5},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    def test_with_max_retries(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.with_max_retries(None) is policy
        assert policy.with_max_retries(5).max_retries == 5
        assert policy.max_retries == 2  # frozen original untouched


class TestEnvResolution:
    def test_max_retries_arg_beats_env(self, monkeypatch):
        """The budget and the deadline come from the flag or parameter
        alone: environment variables of these names change nothing."""
        monkeypatch.setenv("REPRO_MAX_RETRIES", "9")
        monkeypatch.setenv("REPRO_CELL_TIMEOUT", "12.5")
        assert resolve_max_retries(1) == 1
        assert resolve_max_retries(None) == 2
        assert resolve_cell_timeout(None) is None

    def test_max_retries_default(self):
        assert resolve_max_retries(None) == 2
        assert resolve_max_retries(None, default=0) == 0

    def test_max_retries_invalid(self):
        with pytest.raises(ValueError, match="max_retries"):
            resolve_max_retries(-1)

    def test_cell_timeout_resolution(self):
        assert resolve_cell_timeout(None) is None
        assert resolve_cell_timeout(3.5) == 3.5
        assert resolve_cell_timeout(0) is None  # non-positive = no deadline
        assert resolve_cell_timeout(-1) is None
