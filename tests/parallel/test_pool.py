"""The worker pool: chunking, ordering, error propagation, serial fallback."""

from __future__ import annotations

import pytest

from repro.parallel import (
    WorkerError,
    default_chunksize,
    parallel_map,
    resolve_jobs,
)
from repro.parallel.pool import _chunked


def _square(x):
    return x * x


def _boom(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return x


_SIDE_EFFECTS: list[int] = []


def _record(x):
    _SIDE_EFFECTS.append(x)
    return x


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "5")
        assert resolve_jobs(None) == 5

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
        assert resolve_jobs(None) == 1

    def test_zero_means_all_cpus(self):
        import os

        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_WORKERS", "lots")
        with pytest.raises(ValueError, match="REPRO_NUM_WORKERS"):
            resolve_jobs(None)


class TestChunking:
    def test_chunked_covers_all_items(self):
        items = list(range(10))
        chunks = _chunked(items, 3)
        assert [start for start, _ in chunks] == [0, 3, 6, 9]
        assert [x for _, chunk in chunks for x in chunk] == items

    def test_chunksize_larger_than_items(self):
        assert _chunked([1, 2], 100) == [(0, [1, 2])]

    def test_default_chunksize_bounds(self):
        assert default_chunksize(0, 4) == 1
        assert default_chunksize(100, 4) == 7  # ceil(100 / 16)
        assert default_chunksize(3, 8) == 1


class TestParallelMap:
    def test_matches_serial(self):
        # 23 items at jobs=2: chunks of 3 cells must come back in order.
        items = list(range(23))
        expected = [_square(x) for x in items]
        assert parallel_map(_square, items, jobs=1) == expected
        assert parallel_map(_square, items, jobs=2) == expected

    def test_empty_items(self):
        assert parallel_map(_square, [], jobs=4) == []

    def test_jobs1_runs_in_process(self):
        _SIDE_EFFECTS.clear()
        parallel_map(_record, [1, 2, 3], jobs=1)
        # Side effects land in *this* process: no workers were spawned.
        assert _SIDE_EFFECTS == [1, 2, 3]

    def test_jobs1_error_unwrapped(self):
        with pytest.raises(ValueError, match="bad item 3"):
            parallel_map(_boom, [1, 2, 3], jobs=1)

    def test_worker_error_carries_traceback(self):
        with pytest.raises(WorkerError) as excinfo:
            parallel_map(_boom, list(range(6)), jobs=2)
        message = str(excinfo.value)
        assert "ValueError" in message
        assert "bad item 3" in message
        assert "_boom" in excinfo.value.remote_traceback

    def test_worker_error_pickle_roundtrip(self):
        """Regression: pickling used to drop ``remote_traceback`` (the
        default Exception reduction only re-passes ``args``), so a
        WorkerError crossing a process boundary arrived without the
        remote stack it exists to carry."""
        import pickle

        err = WorkerError(
            "worker failed with ValueError: bad item 3",
            "Traceback (most recent call last):\n  ...\nValueError: bad item 3",
        )
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, WorkerError)
        assert str(clone) == str(err)
        assert clone.remote_traceback == err.remote_traceback
