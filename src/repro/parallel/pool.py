"""Fault-tolerant multiprocessing worker pool for embarrassingly parallel grids.

Zoo building and experiment grids are (task, model, method, repetition) ×
(distribution) products of independent cells, so the execution engine is a
thin, predictable layer over ``multiprocessing`` — but one that survives
the faults a multi-hour sweep actually hits:

- :func:`parallel_map` — a positional map with chunking and clean error
  propagation (remote tracebacks travel back verbatim);
- **retry with exponential backoff**: transient failures (see
  :mod:`repro.resilience.retry`) are re-dispatched per cell up to
  ``max_retries`` times with deterministically jittered backoff;
- **deadlines and hung-worker replacement**: results are collected by a
  deadline-polled loop, not a blocking iterator — a cell that exceeds
  ``timeout`` seconds gets its worker terminated and (if budget remains)
  is retried on a fresh worker; a worker that dies mid-chunk (OOM kill,
  ``os._exit``) is detected via its exit code and replaced;
- **graceful degradation**: ``on_error="collect"`` returns a
  :class:`MapOutcome` carrying the surviving results plus one structured
  :class:`~repro.resilience.failures.CellFailure` per dead cell, instead
  of aborting the whole grid on the first fault;
- **crash resume without a journal**: a grid killed whole (SIGKILL, OOM,
  host loss) resumes by running it again.  Zoo cells publish their
  artifacts by atomic rename under ``flock`` locks that the kernel
  releases when their holder dies (:mod:`repro.parallel.locks`), so
  every artifact finished before the kill is a cache hit and only the
  rest are built; eval cells are recomputed from those artifacts;
- :func:`resolve_jobs` — worker-count resolution from an explicit value,
  the ``REPRO_NUM_WORKERS`` environment variable, or a serial default;
- ``jobs=1`` never touches ``multiprocessing`` at all: the map runs in
  the calling process, so serial results are bit-identical to the
  pre-parallel code path and debuggers/profilers see one process.

Workers are forked, never spawned: whatever a cell needs (the open grid
scope, pre-built datasets, the run ledger, the chaos plan) reaches it
through the fork, so the pool needs POSIX.  Each chunk runs in a
dedicated worker process, so a crashed or terminated worker never
poisons the cells that come after it.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro import observe
from repro.resilience import chaos
from repro.resilience.failures import (
    KIND_CRASH,
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    CellFailure,
)
from repro.resilience.retry import (
    RETRYABLE_KINDS,
    RetryPolicy,
    is_retryable,
    is_retryable_type,
    resolve_cell_timeout,
    resolve_max_retries,
)

T = TypeVar("T")
R = TypeVar("R")

JOBS_ENV = "REPRO_NUM_WORKERS"

#: How often the collection loop wakes to launch work and check deadlines.
_POLL_SECONDS = 0.05
#: How long after a clean worker exit its queued result may still arrive.
_EXIT_GRACE_SECONDS = 5.0


class WorkerError(RuntimeError):
    """An exception raised inside a worker process.

    Carries the remote traceback text so the failure is debuggable from
    the parent; the original exception type/message lead the string form.
    """

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback

    def __str__(self) -> str:
        base = super().__str__()
        if self.remote_traceback:
            return f"{base}\n--- remote traceback ---\n{self.remote_traceback}"
        return base

    def __reduce__(self):
        # RuntimeError's default reduction re-raises from ``args`` alone,
        # which would drop ``remote_traceback`` whenever the exception
        # crosses a process boundary (exactly where it matters).
        return (type(self), (super().__str__(), self.remote_traceback))


@dataclass
class MapOutcome:
    """The result of a degraded (``on_error="collect"``) parallel map.

    ``results`` is positional: failed cells hold ``None`` and are
    enumerated (with their indices) in ``failures``.
    """

    results: list
    failures: list[CellFailure] = field(default_factory=list)
    retries: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def failed_indices(self) -> list[int]:
        return [f.index for f in self.failures]

    def successes(self) -> list:
        """The surviving results (positional ``None`` holes removed)."""
        failed = set(self.failed_indices)
        return [r for i, r in enumerate(self.results) if i not in failed]


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a worker count: explicit arg > ``REPRO_NUM_WORKERS`` > 1.

    ``0`` (or any non-positive value) means "all CPUs".
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if raw:
            try:
                jobs = int(raw)
            except ValueError:
                raise ValueError(
                    f"{JOBS_ENV} must be an integer, got {raw!r}"
                ) from None
        else:
            jobs = 1
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def default_chunksize(n_items: int, jobs: int) -> int:
    """~4 chunks per worker: small enough to balance, big enough to amortize."""
    return max(1, -(-n_items // (jobs * 4)))


def _chunked(items: Sequence[T], chunksize: int) -> list[tuple[int, Sequence[T]]]:
    """Split ``items`` into (start_index, chunk) pairs."""
    return [
        (start, items[start : start + chunksize])
        for start in range(0, len(items), chunksize)
    ]


def _resolve_keys(
    keys: Sequence[str] | Callable[[T], str] | None, items: Sequence[T]
) -> list[str]:
    """Stable per-cell keys for retry jitter, chaos seeding, and manifests."""
    if keys is None:
        return [f"item-{i}" for i in range(len(items))]
    if callable(keys):
        return [str(keys(item)) for item in items]
    resolved = [str(k) for k in keys]
    if len(resolved) != len(items):
        raise ValueError(
            f"keys has {len(resolved)} entries for {len(items)} items"
        )
    return resolved


def _run_cells(result_queue, task_id: int, fn, cells, attempt: int) -> None:
    """Run one task's cells in a dedicated, forked worker process.

    ``cells`` is a list of ``(index, key, item)``.  Every cell reports an
    ``("ok", index, value)`` or ``("err", index, (type, message, tb))``
    outcome; a hard crash posts nothing at all, which the parent detects
    through the process exit code and treats as a crash of every cell
    still unaccounted for.
    """
    outcomes = []
    for index, key, item in cells:
        try:
            # A forked worker: an injected crash may hard-exit it.
            chaos.on_worker_cell(key, attempt, forked_worker=True)
            outcomes.append(("ok", index, fn(item)))
        except BaseException as exc:  # noqa: BLE001 - repackaged for the parent
            outcomes.append(
                ("err", index, (type(exc).__name__, str(exc), traceback.format_exc()))
            )
    result_queue.put((task_id, outcomes))


@dataclass
class _Task:
    """One dispatchable unit: a few cells at a shared attempt number."""

    task_id: int
    cells: list[tuple[int, str, Any]]  # (index, key, item)
    attempt: int
    eligible: float  # monotonic time before which this task must not launch


@dataclass
class _Running:
    proc: Any
    task: _Task
    deadline: float | None
    exited_at: float | None = None


class _Abort(Exception):
    """Internal: first fatal failure in ``on_error="raise"`` mode."""

    def __init__(self, failure: CellFailure):
        self.failure = failure


def _worker_error(failure: CellFailure) -> WorkerError:
    return WorkerError(
        f"worker failed with {failure.error_type}: {failure.message}",
        failure.remote_traceback,
    )


def _serial_map(fn, items, keys, policy, on_error):
    """The ``jobs=1`` path: in-process, bit-identical to pre-parallel code.

    Retries and failure collection still apply (the classification is done
    on live exception instances), but deadlines cannot be enforced without
    a second process, so ``timeout`` is a no-op here.
    """
    results: list[Any] = [None] * len(items)
    failures: list[CellFailure] = []
    retries = 0

    def retried() -> None:
        nonlocal retries
        retries += 1
        observe.incr("resilience.retry")

    for i, item in enumerate(items):
        before = retries
        try:
            results[i] = policy.call(keys[i], fn, item, on_retry=retried)
        except Exception as exc:
            if on_error == "raise":
                raise
            failures.append(
                CellFailure(
                    key=keys[i],
                    index=i,
                    kind=KIND_EXCEPTION,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    attempts=retries - before + 1,
                    remote_traceback=traceback.format_exc(),
                    retryable=is_retryable(exc),
                )
            )
            observe.incr("resilience.failed")
    if on_error == "collect":
        return MapOutcome(results=results, failures=failures, retries=retries)
    return results


def _engine(
    fn,
    items,
    keys,
    jobs,
    chunksize,
    policy,
    timeout,
    on_error,
    span,
):
    """Deadline-polled parallel collection with retry and crash recovery."""
    _MISSING = object()
    ctx = multiprocessing.get_context("fork")
    result_queue = ctx.Queue()
    n = len(items)
    results: list[Any] = [_MISSING] * n
    failures_by_index: dict[int, CellFailure] = {}
    attempts = [0] * n
    retries = 0
    next_task_id = 0
    pending: list[_Task] = []
    running: dict[int, _Running] = {}

    def make_task(cells, attempt, eligible=0.0) -> _Task:
        nonlocal next_task_id
        next_task_id += 1
        return _Task(next_task_id, cells, attempt, eligible)

    for start, chunk in _chunked(list(range(n)), chunksize):
        pending.append(make_task([(i, keys[i], items[i]) for i in chunk], 0))

    def cell_failed(index, kind, error_type, message, remote_tb):
        nonlocal retries
        attempts[index] += 1
        retryable = kind in RETRYABLE_KINDS or is_retryable_type(error_type)
        key = keys[index]
        if retryable and attempts[index] <= policy.max_retries:
            retries += 1
            observe.incr("resilience.retry")
            delay = policy.backoff(attempts[index], key)
            # Failed cells requeue individually: a poison cell must not
            # drag its chunk siblings through every retry round.
            pending.append(
                make_task(
                    [(index, key, items[index])],
                    attempts[index],
                    time.monotonic() + delay,
                )
            )
            return
        failure = CellFailure(
            key=key,
            index=index,
            kind=kind,
            error_type=error_type,
            message=message,
            attempts=attempts[index],
            remote_traceback=remote_tb,
            retryable=retryable,
        )
        observe.incr("resilience.failed")
        failures_by_index[index] = failure
        if on_error == "raise":
            raise _Abort(failure)

    def handle_outcomes(task_id, outcomes):
        entry = running.pop(task_id, None)
        if entry is not None:
            entry.proc.join(timeout=10)
        for status, index, payload in outcomes:
            if status == "ok":
                if results[index] is _MISSING:
                    results[index] = payload
            else:
                error_type, message, remote_tb = payload
                cell_failed(index, KIND_EXCEPTION, error_type, message, remote_tb)

    def reap(task_id, kind, error_type, message):
        """A running task died as a whole (stall or crash): terminate its
        worker and fail every cell still unaccounted for."""
        entry = running.pop(task_id)
        if entry.proc.is_alive():
            entry.proc.terminate()
        entry.proc.join(timeout=10)
        for index, _key, _item in entry.task.cells:
            if results[index] is _MISSING and index not in failures_by_index:
                cell_failed(index, kind, error_type, message, "")

    try:
        while pending or running:
            now = time.monotonic()
            # Launch eligible work into free slots (eligibility implements
            # backoff: a retried cell stays parked until its delay passes).
            pending.sort(key=lambda t: t.eligible)
            while pending and len(running) < jobs and pending[0].eligible <= now:
                task = pending.pop(0)
                proc = ctx.Process(
                    target=_run_cells,
                    args=(result_queue, task.task_id, fn, task.cells, task.attempt),
                    daemon=True,
                )
                proc.start()
                deadline = (
                    None if timeout is None else now + timeout * len(task.cells)
                )
                running[task.task_id] = _Running(proc, task, deadline)

            # Drain every queued result; block briefly on the first read so
            # an idle loop doesn't spin.
            block = True
            while True:
                try:
                    if block:
                        task_id, outcomes = result_queue.get(timeout=_POLL_SECONDS)
                    else:
                        task_id, outcomes = result_queue.get_nowait()
                except queue_module.Empty:
                    break
                block = False
                if task_id in running:
                    handle_outcomes(task_id, outcomes)

            # Deadline-poll the in-flight tasks: stalls are terminated and
            # replaced; a worker that exited without reporting crashed.
            now = time.monotonic()
            for task_id in list(running):
                entry = running[task_id]
                if entry.deadline is not None and now > entry.deadline:
                    observe.incr("resilience.timeout", value=len(entry.task.cells))
                    reap(
                        task_id,
                        KIND_TIMEOUT,
                        "TimeoutError",
                        f"cell exceeded its {timeout:g}s deadline "
                        f"(attempt {entry.task.attempt + 1})",
                    )
                elif entry.proc.exitcode is not None:
                    if entry.proc.exitcode != 0:
                        observe.incr("resilience.crash")
                        reap(
                            task_id,
                            KIND_CRASH,
                            "WorkerCrashError",
                            f"worker exited with code {entry.proc.exitcode} "
                            "without reporting a result",
                        )
                    elif entry.exited_at is None:
                        entry.exited_at = now
                    elif now - entry.exited_at > _EXIT_GRACE_SECONDS:
                        # Clean exit but the result never surfaced: the
                        # queue pipe was lost.  Treat as a crash.
                        observe.incr("resilience.crash")
                        reap(
                            task_id,
                            KIND_CRASH,
                            "WorkerCrashError",
                            "worker exited cleanly but its result never "
                            "arrived",
                        )
    except _Abort as abort:
        raise _worker_error(abort.failure) from None
    finally:
        for entry in running.values():
            if entry.proc.is_alive():
                entry.proc.terminate()
            entry.proc.join(timeout=5)
        result_queue.close()
        span.set(retries=retries, failed=len(failures_by_index))

    if on_error == "collect":
        return MapOutcome(
            results=[None if r is _MISSING else r for r in results],
            failures=[failures_by_index[i] for i in sorted(failures_by_index)],
            retries=retries,
        )
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
    *,
    on_error: str = "raise",
    max_retries: int | None = None,
    retry_policy: RetryPolicy | None = None,
    timeout: float | None = None,
    keys: Sequence[str] | Callable[[T], str] | None = None,
) -> list[R] | MapOutcome:
    """Map ``fn`` over ``items`` across ``jobs`` forked worker processes.

    Results come back positionally.  At ``jobs=1`` the map runs serially
    in-process and exceptions propagate unwrapped; in parallel mode a
    worker failure raises :class:`WorkerError` with the remote traceback
    attached.  Each worker runs one chunk of
    :func:`default_chunksize` cells.

    Resilience knobs (all optional):

    - ``max_retries`` / ``retry_policy`` — transient failures (see
      :mod:`repro.resilience.retry`) are retried per cell with seeded
      exponential backoff; deterministic failures are not.  Defaults to
      2 retries;
    - ``timeout`` — per-cell deadline in seconds (scaled by chunk length
      per dispatch).  A stalled worker is terminated and replaced.
      Defaults to no deadline.  Serial maps cannot enforce one;
    - ``on_error="collect"`` — degrade instead of aborting: returns a
      :class:`MapOutcome` with partial results and structured
      :class:`CellFailure` records for cells that exhausted their budget;
    - ``keys`` — stable per-cell names (a sequence, or a callable applied
      to each item) used for manifests, backoff jitter, and chaos
      seeding; defaults to ``item-<index>``.
    """
    if not callable(fn):
        raise ValueError(f"fn must be callable, got {type(fn).__name__}")
    timeout = resolve_cell_timeout(timeout)
    if on_error not in ("raise", "collect"):
        raise ValueError(
            f"on_error must be 'raise' or 'collect', got {on_error!r}"
        )
    items = list(items)
    cell_keys = _resolve_keys(keys, items)
    if retry_policy is None:
        policy = RetryPolicy(max_retries=resolve_max_retries(max_retries))
    else:
        policy = retry_policy.with_max_retries(
            None if max_retries is None else resolve_max_retries(max_retries)
        )
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(items) <= 1:
        return _serial_map(fn, items, cell_keys, policy, on_error)
    jobs = min(jobs, len(items))
    chunksize = default_chunksize(len(items), jobs)

    # Opening the span before the pool forks gives the workers the run
    # ledger and this span as their parent; each writes its own stream,
    # and the finally-merge folds those back even on worker failure.
    try:
        with observe.span(
            "parallel_map",
            jobs=jobs,
            items=len(items),
            chunks=-(-len(items) // chunksize),
        ) as sp:
            return _engine(
                fn,
                items,
                cell_keys,
                jobs,
                chunksize,
                policy,
                timeout,
                on_error,
                sp,
            )
    finally:
        observe.merge_worker_streams()
