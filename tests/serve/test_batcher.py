"""Virtual-clock batcher tests: coalescing, flushing, shedding.

The batcher never reads a clock — every decision is a pure function of
queue state and a caller-supplied instant — so these tests hand it
explicit times and assert the exact flush schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    TERMINAL,
    DynamicBatcher,
    GroupKey,
    Request,
    VirtualClock,
)


def req(model="m", rows=1, shape=(3, 4, 4), t=0.0, deadline=None) -> Request:
    images = np.zeros((rows,) + shape, dtype=np.float32)
    return Request(model=model, images=images, enqueued=t, deadline=deadline)


LIMIT_8 = lambda group: 8  # noqa: E731


class TestGrouping:
    def test_group_key_splits_on_model_shape_and_dtype(self):
        a = req(model="a")
        b = req(model="b")
        c = req(model="a", shape=(3, 8, 8))
        d = Request(
            model="a", images=np.zeros((1, 3, 4, 4), dtype=np.float64),
            enqueued=0.0, deadline=None,
        )
        assert a.group != b.group
        assert a.group != c.group
        assert a.group != d.group
        assert a.group == req(model="a").group

    def test_same_group_coalesces_into_one_batch(self):
        batcher = DynamicBatcher(max_wait=0.010)
        for _ in range(3):
            assert batcher.offer(req(rows=2, t=0.0)) == []
        batches = batcher.take_due(0.010, LIMIT_8)
        assert len(batches) == 1
        assert batches[0].rows == 6
        assert len(batches[0].requests) == 3
        assert batcher.pending == 0

    def test_distinct_groups_flush_as_separate_batches(self):
        batcher = DynamicBatcher(max_wait=0.010)
        batcher.offer(req(model="a"))
        batcher.offer(req(model="b"))
        batcher.offer(req(model="a", shape=(3, 8, 8)))
        batches = batcher.take_due(0.010, LIMIT_8)
        assert len(batches) == 3
        assert {b.group.model for b in batches} == {"a", "b"}


class TestFlushTiming:
    def test_not_due_before_window(self):
        batcher = DynamicBatcher(max_wait=0.010)
        batcher.offer(req(t=0.0))
        assert batcher.take_due(0.009, LIMIT_8) == []
        assert batcher.pending == 1

    def test_due_exactly_at_window(self):
        batcher = DynamicBatcher(max_wait=0.010)
        batcher.offer(req(t=0.0))
        assert len(batcher.take_due(0.010, LIMIT_8)) == 1

    def test_window_counts_from_oldest_request(self):
        batcher = DynamicBatcher(max_wait=0.010)
        batcher.offer(req(t=0.0))
        batcher.offer(req(t=0.008))  # does not push the window out
        assert batcher.next_due(0.008) == pytest.approx(0.010)

    def test_full_batch_flushes_before_window(self):
        batcher = DynamicBatcher(max_wait=10.0)
        batcher.offer(req(rows=5, t=0.0))
        batcher.offer(req(rows=3, t=0.0))
        batches = batcher.take_due(0.0, LIMIT_8)
        assert len(batches) == 1
        assert batches[0].rows == 8

    def test_deadline_earlier_than_window_pulls_flush_forward(self):
        batcher = DynamicBatcher(max_wait=0.050)
        batcher.offer(req(t=0.0, deadline=0.004))
        assert batcher.next_due(0.0) == pytest.approx(0.004)
        assert batcher.take_due(0.003, LIMIT_8) == []
        assert len(batcher.take_due(0.004, LIMIT_8)) == 1

    def test_next_due_clamps_past_instants_to_now(self):
        batcher = DynamicBatcher(max_wait=0.010)
        batcher.offer(req(t=0.0))
        assert batcher.next_due(5.0) == 5.0

    def test_next_due_none_when_empty(self):
        assert DynamicBatcher().next_due(0.0) is None

    def test_force_flushes_everything_immediately(self):
        batcher = DynamicBatcher(max_wait=10.0)
        batcher.offer(req(model="a", t=0.0))
        batcher.offer(req(model="b", t=0.0))
        assert len(batcher.take_due(0.0, LIMIT_8, force=True)) == 2
        assert batcher.pending == 0


class TestBatchFilling:
    def test_fifo_fill_stops_before_overflowing_limit(self):
        batcher = DynamicBatcher(max_wait=0.0)
        first, second, third = req(rows=4), req(rows=3), req(rows=2)
        for r in (first, second, third):
            batcher.offer(r)
        (batch,) = batcher.take_due(0.0, LIMIT_8)
        # 4 + 3 fits in 8; adding the third (2 rows) would overflow.
        assert batch.requests == [first, second]
        assert batcher.pending == 1
        (leftover,) = batcher.take_due(0.0, LIMIT_8)
        assert leftover.requests == [third]

    def test_oversized_request_becomes_its_own_batch(self):
        batcher = DynamicBatcher(max_wait=0.0)
        big = req(rows=20)
        batcher.offer(big)
        batcher.offer(req(rows=1))
        (batch,) = batcher.take_due(0.0, LIMIT_8)
        assert batch.requests == [big]
        assert batch.rows == 20

    def test_one_batch_per_group_per_take(self):
        batcher = DynamicBatcher(max_wait=0.0)
        for _ in range(4):
            batcher.offer(req(rows=8))
        assert len(batcher.take_due(0.0, LIMIT_8)) == 1
        assert batcher.pending == 3


class TestBackpressure:
    def test_shed_oldest_when_full(self):
        batcher = DynamicBatcher(max_pending=3)
        oldest = req(model="a", t=0.0)
        batcher.offer(oldest)
        batcher.offer(req(model="b", t=0.001))
        batcher.offer(req(model="a", t=0.002))
        newcomer = req(model="c", t=0.003)
        shed = batcher.offer(newcomer)
        assert shed == [oldest]
        assert batcher.pending == 3
        remaining = {id(r) for r in batcher._iter_requests()}
        assert id(newcomer) in remaining and id(oldest) not in remaining

    def test_shed_order_is_global_age_not_per_group(self):
        batcher = DynamicBatcher(max_pending=2)
        first = req(model="a", t=0.0)
        second = req(model="b", t=0.001)
        batcher.offer(first)
        batcher.offer(second)
        assert batcher.offer(req(model="b", t=0.002)) == [first]
        assert batcher.offer(req(model="b", t=0.003)) == [second]

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_wait=-0.001)
        with pytest.raises(ValueError):
            DynamicBatcher(max_pending=0)


class TestPendingResponse:
    def test_lifecycle_and_result_errors(self):
        request = req()
        response = request.response
        assert not response.done
        with pytest.raises(RuntimeError, match="pending"):
            response.result()
        response._resolve("ok", value=np.ones((1, 4)), latency=0.5)
        assert response.done and response.status in TERMINAL
        assert response.latency == 0.5
        np.testing.assert_array_equal(response.result(), np.ones((1, 4)))

    def test_shed_and_error_raise_from_result(self):
        shed = req().response
        shed._resolve("shed", latency=0.0)
        with pytest.raises(RuntimeError, match="not served"):
            shed.result()
        failed = req().response
        failed._resolve("error", error=ValueError("boom"), latency=0.0)
        with pytest.raises(RuntimeError, match="boom"):
            failed.result()


class TestClocks:
    def test_virtual_clock_moves_only_on_demand(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.sleep(1.5)
        clock.advance_to(2.0)
        clock.advance_to(1.0)  # never moves backwards
        assert clock.now() == 2.0
        with pytest.raises(ValueError):
            clock.sleep(-1.0)
