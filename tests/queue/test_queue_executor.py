"""queue_map and the ``executor="queue"`` seam of parallel_map (inline
``jobs=1`` worker on a VirtualClock — no subprocesses, no wall sleeps)."""

from __future__ import annotations

import math
import operator

import pytest

from repro.parallel import MapOutcome, WorkerError, parallel_map
from repro.parallel.pool import EXECUTOR_ENV, resolve_executor
from repro.queue import QUEUE_DIR_ENV, Journal, queue_map
from repro.queue.executor import resolve_queue_dir
from repro.resilience.failures import KIND_QUARANTINE
from repro.resilience.retry import CELL_TIMEOUT_ENV
from repro.serve.clock import VirtualClock


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv(QUEUE_DIR_ENV, raising=False)
    monkeypatch.delenv(EXECUTOR_ENV, raising=False)
    monkeypatch.delenv(CELL_TIMEOUT_ENV, raising=False)


def run(items=(1.0, 4.0, 9.0), keys=("a", "b", "c"), **kw):
    kw.setdefault("jobs", 1)
    kw.setdefault("clock", VirtualClock())
    return queue_map(math.sqrt, list(items), keys=list(keys), **kw)


class TestResolveExecutor:
    def test_default_is_pool(self):
        assert resolve_executor() == "pool"

    def test_env_and_explicit(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "queue")
        assert resolve_executor() == "queue"
        assert resolve_executor("pool") == "pool"  # explicit wins

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            resolve_executor("carrier-pigeon")


class TestResolveQueueDir:
    def test_explicit_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(QUEUE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_queue_dir(tmp_path / "mine", "m:f", ["k"]) == (
            tmp_path / "mine"
        )
        assert resolve_queue_dir(None, "m:f", ["k"]) == tmp_path / "env"

    def test_derived_dir_is_stable_per_grid(self):
        first = resolve_queue_dir(None, "m:f", ["k1", "k2"])
        assert first == resolve_queue_dir(None, "m:f", ["k2", "k1"])  # order-free
        assert first != resolve_queue_dir(None, "m:f", ["k1", "k3"])
        assert first != resolve_queue_dir(None, "m:g", ["k1", "k2"])


class TestQueueMap:
    def test_ordered_results_match_items(self):
        assert run() == [1.0, 2.0, 3.0]

    def test_failure_raises_worker_error_by_default(self):
        with pytest.raises(WorkerError, match="TypeError"):
            queue_map(
                operator.neg,
                ["not-a-number"],
                jobs=1,
                keys=["bad"],
                clock=VirtualClock(),
                max_retries=0,
            )

    def test_collect_mode_returns_quarantine_failures(self):
        out = queue_map(
            operator.neg,
            [1, "bad", 3],
            jobs=1,
            keys=["k0", "k1", "k2"],
            clock=VirtualClock(),
            on_error="collect",
            max_retries=1,
        )
        assert isinstance(out, MapOutcome)
        assert out.results == [-1, None, -3]
        [failure] = out.failures
        assert failure.kind == KIND_QUARANTINE
        assert (failure.key, failure.index) == ("k1", 1)
        assert failure.attempts == 2  # max_retries=1 -> 2 leases
        assert out.successes() == [-1, -3]

    def test_rerun_resumes_from_journal(self, tmp_path):
        queue_dir = tmp_path / "grid"
        assert run(queue_dir=queue_dir) == [1.0, 2.0, 3.0]
        claims_before = sum(
            1
            for r in Journal(queue_dir / "journal.jsonl").read_all()
            if r["op"] == "claim"
        )
        assert run(queue_dir=queue_dir) == [1.0, 2.0, 3.0]
        claims_after = sum(
            1
            for r in Journal(queue_dir / "journal.jsonl").read_all()
            if r["op"] == "claim"
        )
        assert claims_before == 3
        assert claims_after == 3  # all cells served from results, no re-run

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError, match="unique cell keys"):
            run(keys=("a", "a", "c"))


class TestParallelMapSeam:
    def test_parallel_map_routes_to_queue(self, tmp_path):
        result = parallel_map(
            math.sqrt,
            [1.0, 16.0],
            jobs=1,
            keys=["a", "b"],
            executor="queue",
            queue_dir=tmp_path / "via-seam",
        )
        assert result == [1.0, 4.0]
        assert (tmp_path / "via-seam" / "journal.jsonl").exists()

    def test_env_routes_to_queue(self, tmp_path, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "queue")
        monkeypatch.setenv(QUEUE_DIR_ENV, str(tmp_path / "via-env"))
        assert parallel_map(math.sqrt, [25.0], jobs=1, keys=["a"]) == [5.0]
        assert (tmp_path / "via-env" / "journal.jsonl").exists()

    def test_deadline_rejected(self, tmp_path):
        """A lease only expires when its worker stops heartbeating, so the
        queue cannot stop a slow cell at a deadline; it refuses one."""
        with pytest.raises(ValueError, match="--cell-timeout"):
            parallel_map(
                math.sqrt, [1.0], jobs=1, keys=["a"], timeout=0.3,
                executor="queue", queue_dir=tmp_path / "q",
            )
        assert not (tmp_path / "q").exists()

    def test_env_deadline_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "0.3")
        with pytest.raises(ValueError, match="REPRO_CELL_TIMEOUT"):
            parallel_map(
                math.sqrt, [1.0], jobs=1, keys=["a"],
                executor="queue", queue_dir=tmp_path / "q",
            )
        monkeypatch.setenv(CELL_TIMEOUT_ENV, "0")  # non-positive: no deadline
        assert parallel_map(
            math.sqrt, [1.0], jobs=1, keys=["a"],
            executor="queue", queue_dir=tmp_path / "q",
        ) == [1.0]

    def test_pool_default_untouched(self, tmp_path):
        assert parallel_map(math.sqrt, [25.0], jobs=1) == [5.0]
        assert not (tmp_path / "cache").exists()  # no queue dir created
