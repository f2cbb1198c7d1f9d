"""Dynamic batching queue: coalesce, flush on deadline, shed under pressure.

Requests for the same ``(model, row shape, dtype)`` coalesce into one
engine call.  A group flushes when it holds enough rows to fill the
model's batch, when its oldest request has waited out the coalescing
window, or when waiting longer would blow a request's deadline.  The
queue is bounded: when full, the *oldest* pending request anywhere is
shed to admit the new one (shed-oldest favours fresh traffic — the
oldest request is the one most likely to miss its deadline anyway).

The batcher never reads a clock itself: every method takes ``now`` from
the caller, which is what lets the whole policy run deterministically on
a virtual clock (and makes each decision a pure function of the queue
state and the given instant).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

_seq = itertools.count()

#: Terminal request statuses (every submitted request ends in exactly one).
TERMINAL = ("ok", "shed", "deadline", "error")


@dataclass(frozen=True)
class GroupKey:
    """Coalescing identity: one engine call serves one group at a time."""

    model: str
    row_shape: tuple[int, ...]
    dtype: str


class PendingResponse:
    """Caller-facing handle for one submitted request.

    ``status`` moves from ``"pending"`` to exactly one of ``"ok"``
    (``value`` holds the logits), ``"shed"`` (dropped under backpressure),
    ``"deadline"`` (expired before service), or ``"error"`` (the batch's
    engine call failed; ``error`` holds the exception).  The server
    resolves responses synchronously during ``pump``/``run_until_idle``.
    """

    __slots__ = ("status", "value", "error", "latency", "batch_rows")

    def __init__(self):
        self.status = "pending"
        self.value: np.ndarray | None = None
        self.error: BaseException | None = None
        self.latency: float | None = None
        self.batch_rows: int | None = None

    @property
    def done(self) -> bool:
        return self.status != "pending"

    def result(self) -> np.ndarray:
        """The logits, or a raise describing why there are none."""
        if self.status == "ok":
            return self.value
        if self.status == "pending":
            raise RuntimeError(
                "response pending — drive the server (pump/run_until_idle)"
            )
        if self.status == "error":
            raise RuntimeError(f"request failed: {self.error!r}") from self.error
        raise RuntimeError(f"request was not served: {self.status}")

    def _resolve(self, status: str, **fields) -> None:
        for name, value in fields.items():
            setattr(self, name, value)
        self.status = status


@dataclass
class Request:
    """One queued inference request (images share a single row shape)."""

    model: str
    images: np.ndarray
    enqueued: float
    deadline: float | None
    response: PendingResponse = field(default_factory=PendingResponse)
    seq: int = field(default_factory=lambda: next(_seq))

    @property
    def rows(self) -> int:
        return self.images.shape[0]

    @property
    def group(self) -> GroupKey:
        return GroupKey(self.model, self.images.shape[1:], self.images.dtype.str)


@dataclass
class Batch:
    """A flushed group slice: requests served by one engine call."""

    group: GroupKey
    requests: list[Request]

    @property
    def rows(self) -> int:
        return sum(r.rows for r in self.requests)


class DynamicBatcher:
    """Bounded multi-group FIFO with time-windowed coalescing.

    Parameters
    ----------
    max_wait:
        Coalescing window: a group flushes no later than ``max_wait``
        after its oldest request arrived (earlier if a deadline looms or
        the batch fills).
    max_pending:
        Bound on queued requests across all groups.  ``offer`` sheds the
        oldest pending request to admit a new one once the bound is hit.
    """

    def __init__(self, max_wait: float = 0.005, max_pending: int = 1024):
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.max_wait = float(max_wait)
        self.max_pending = int(max_pending)
        self._groups: dict[GroupKey, list[Request]] = {}
        self.pending = 0

    def __len__(self) -> int:
        return self.pending

    def _iter_requests(self) -> Iterator[Request]:
        for queue in self._groups.values():
            yield from queue

    def offer(self, request: Request) -> list[Request]:
        """Enqueue ``request``; returns the requests shed to make room.

        The caller resolves shed responses (the batcher never touches a
        clock, so it cannot compute latencies).
        """
        shed: list[Request] = []
        while self.pending >= self.max_pending:
            oldest = min(self._iter_requests(), key=lambda r: r.seq)
            self._remove(oldest)
            shed.append(oldest)
        self._groups.setdefault(request.group, []).append(request)
        self.pending += 1
        return shed

    def _remove(self, request: Request) -> None:
        queue = self._groups[request.group]
        queue.remove(request)
        if not queue:
            del self._groups[request.group]
        self.pending -= 1

    # ------------------------------------------------------------- flushing

    def _due_time(self, queue: list[Request]) -> float:
        """The instant this group must flush: coalescing window or the
        earliest request deadline, whichever comes first."""
        due = queue[0].enqueued + self.max_wait
        for request in queue:
            if request.deadline is not None and request.deadline < due:
                due = request.deadline
        return due

    def next_due(self, now: float) -> float | None:
        """Earliest future flush instant, or ``None`` when queue is empty.

        Returns ``now`` (not the past instant) for already-due groups so
        callers can ``advance_to`` it directly.
        """
        times = [self._due_time(q) for q in self._groups.values()]
        return max(min(times), now) if times else None

    def take_due(
        self,
        now: float,
        limit_for: Callable[[GroupKey], int],
        force: bool = False,
    ) -> list[Batch]:
        """Pop at most one batch per due group.

        A group is due when it can fill a batch (``limit_for`` rows), its
        flush instant has arrived, or ``force`` is set (final drain).
        Requests join a batch FIFO until the next one would overflow the
        limit; an oversized single request becomes its own batch (the
        engine chunks internally).
        """
        batches: list[Batch] = []
        for group in list(self._groups):
            queue = self._groups[group]
            limit = max(1, int(limit_for(group)))
            rows = sum(r.rows for r in queue)
            if not (force or rows >= limit or now >= self._due_time(queue)):
                continue
            taken: list[Request] = []
            taken_rows = 0
            while queue and (not taken or taken_rows + queue[0].rows <= limit):
                request = queue.pop(0)
                taken.append(request)
                taken_rows += request.rows
            if not queue:
                del self._groups[group]
            self.pending -= len(taken)
            batches.append(Batch(group=group, requests=taken))
        return batches
