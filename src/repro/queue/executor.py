""":func:`queue_map` — grid dispatch through the durable queue.

This is the ``executor="queue"`` backend of
:func:`repro.parallel.parallel_map`: the same (fn, items, keys) contract
and the same ``list`` / :class:`~repro.parallel.pool.MapOutcome` result
shapes, but the cells flow through a :class:`~repro.queue.core.WorkQueue`
on disk instead of an in-memory pool, which changes what survives:

- the **driver** can die and re-run: the queue directory is derived
  deterministically from the function path and the cell keys, so the
  restarted call re-attaches to the same journal, skips everything
  already ``done``, and loads published results instead of recomputing;
- **workers** can die (SIGKILL, OOM, host loss): their leases expire and
  the supervision loop reclaims them, respawning local workers while
  undone work remains;
- **extra hosts** can help: any ``python -m repro worker --queue <dir>``
  pointed at the shared directory drains the same grid.

``jobs=1`` runs one inline worker in the calling process — no
subprocess, no sleeps, fully driveable on a
:class:`~repro.serve.clock.VirtualClock` — which is both the debug path
and what tier-1 tests exercise.  ``jobs>1`` spawns local worker
processes and babysits them on the wall clock (tier-2 territory).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro import observe
from repro.parallel.pool import MapOutcome, WorkerError, resolve_jobs
from repro.queue.core import QUEUE_DIR_ENV, TaskSpec, WorkQueue
from repro.queue.worker import run_worker, task_fn_path
from repro.resilience.retry import resolve_max_retries
from repro.serve.clock import Clock


def resolve_queue_dir(
    queue_dir: str | Path | None,
    fn_path: str,
    keys: Sequence[str],
) -> Path:
    """Explicit arg > ``REPRO_QUEUE_DIR`` > a deterministic per-grid dir.

    The derived default hashes the function path and the sorted cell
    keys under ``<cache>/queue/``, so re-running the identical grid
    (same cells, same function) resumes its journal, while any change to
    the cell set gets a fresh queue.  Explicit directories are for
    multi-host runs, where every participant must name the same shared
    path.
    """
    if queue_dir is not None:
        return Path(queue_dir)
    env = os.environ.get(QUEUE_DIR_ENV, "").strip()
    if env:
        return Path(env)
    from repro.experiments.zoo import cache_dir

    digest = hashlib.sha256(
        "\n".join([fn_path, *sorted(keys)]).encode("utf-8")
    ).hexdigest()[:16]
    return cache_dir() / "queue" / f"grid-{digest}"


def _worker_env(directory: Path) -> dict[str, str]:
    """Subprocess environment: inherit everything (chaos spec, ledger
    path, cache dir all ride the environment) plus an import path that
    guarantees ``repro`` resolves in the child."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if src not in existing.split(os.pathsep):
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    env[QUEUE_DIR_ENV] = str(directory)
    return env


def _spawn_worker(directory: Path, worker_id: str) -> subprocess.Popen:
    observe.incr("queue.workers_spawned")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "worker",
            "--queue",
            str(directory),
            "--worker-id",
            worker_id,
        ],
        env=_worker_env(directory),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _supervise(
    queue: WorkQueue, jobs: int, poll_seconds: float, label: str
) -> None:
    """Run ``jobs`` local workers to drain ``queue``, respawning losses.

    The loop is intentionally dumb: reclaim expired leases, make sure
    ``jobs`` workers are alive while undone work remains, sleep, repeat.
    All the correctness lives in the journal — a worker SIGKILLed
    mid-lease needs no special handling here beyond the reclaim that
    every iteration already does.
    """
    workers: dict[str, subprocess.Popen] = {}
    spawn_seq = 0
    try:
        while not queue.drained():
            queue.reclaim_expired()
            for wid in list(workers):
                proc = workers[wid]
                if proc.poll() is not None:
                    del workers[wid]
                    if proc.returncode not in (0, None):
                        observe.incr("queue.worker_deaths")
                        observe.event(
                            "queue.worker_died",
                            worker=wid,
                            returncode=proc.returncode,
                            label=label,
                        )
            counts = queue.counts()
            undone = counts["pending"] + counts["leased"]
            if undone == 0:
                break
            while len(workers) < min(jobs, max(undone, 1)):
                spawn_seq += 1
                wid = f"{label}-w{spawn_seq}"
                workers[wid] = _spawn_worker(queue.directory, wid)
            queue.clock.sleep(poll_seconds)
    finally:
        for proc in workers.values():
            # Workers exit on their own once the queue drains; anything
            # still running when we leave (error paths) is terminated so
            # its lease expires and a future run reclaims cleanly.
            if proc.poll() is None:
                proc.terminate()
        for proc in workers.values():
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()


def queue_map(
    fn: Callable,
    items: Iterable,
    jobs: int | None = None,
    *,
    keys: Sequence[str] | Callable | None = None,
    queue_dir: str | Path | None = None,
    clock: Clock | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    lease_seconds: float | None = None,
    poll_seconds: float = 0.5,
) -> list | MapOutcome:
    """Map ``fn`` over ``items`` through a durable on-disk work queue.

    Result-shape compatible with :func:`repro.parallel.parallel_map`
    (call it with ``executor="queue"`` rather than calling this
    directly).  ``max_retries`` maps onto the lease budget — a task may
    burn ``max_retries + 1`` leases before quarantine, mirroring the
    pool's "initial attempt plus N retries".  There are no cell
    deadlines (``parallel_map`` rejects one): a lease only expires when
    its worker stops heartbeating, and then the worker forfeits the cell.

    At-least-once note: a cell may execute more than once (stale lease
    reclaimed from a live-but-slow worker).  That is safe for the
    experiment grids because every cell publishes through the memo
    layer's atomic, locked writes — duplicated work converges on
    identical artifacts.  Do not route non-idempotent functions here.
    """
    from repro.parallel.pool import _resolve_keys  # shared key semantics

    if on_error not in ("raise", "collect"):
        raise ValueError(
            f"on_error must be 'raise' or 'collect', got {on_error!r}"
        )
    items = list(items)
    cell_keys = _resolve_keys(keys, items)
    if len(set(cell_keys)) != len(cell_keys):
        raise ValueError(
            "queue executor requires unique cell keys "
            "(keys are task identities in the journal)"
        )
    fn_path = task_fn_path(fn)
    directory = resolve_queue_dir(queue_dir, fn_path, cell_keys)
    max_leases = resolve_max_retries(max_retries) + 1
    queue = WorkQueue(
        directory,
        clock=clock,
        lease_seconds=lease_seconds,
        max_leases=max_leases,
    )
    jobs = resolve_jobs(jobs)

    with observe.span(
        "queue_map",
        items=len(items),
        jobs=jobs,
        directory=str(directory),
    ) as span:
        added = queue.enqueue(
            TaskSpec(key=key, fn=fn_path, payload=item)
            for key, item in zip(cell_keys, items)
        )
        resumed = len(items) - added
        if resumed:
            observe.incr("queue.resumed_tasks", value=resumed)
            observe.event(
                "queue.resume", directory=str(directory), already_known=resumed
            )
        if jobs == 1:
            # Inline worker: claims, heartbeats, and completions run in
            # this process on the injected clock.  Loop because the
            # inline worker can exhaust lease budgets only through
            # fail/quarantine, never by dying — one pass drains fully
            # unless quarantines end it early.
            run_worker(queue, poll_seconds=poll_seconds)
        else:
            _supervise(queue, jobs, poll_seconds, label=directory.name)
        queue.reclaim_expired()  # sweep leases orphaned at the very end

        index_of = {key: i for i, key in enumerate(cell_keys)}
        failures = queue.failures(index_of=lambda k: index_of.get(k, -1))
        failures = [f for f in failures if f.key in index_of]
        failures.sort(key=lambda f: f.index)
        results: list[Any] = [None] * len(items)
        missing: list[int] = []
        failed = {f.index for f in failures}
        for i, key in enumerate(cell_keys):
            if i in failed:
                continue
            if queue.has_result(key):
                results[i] = queue.load_result(key)
            else:
                missing.append(i)
        for i in missing:
            # Terminal-done without a result should be impossible (results
            # publish before ``done``), but a hand-deleted results dir or
            # cross-version journal must degrade, not silently hand back
            # ``None``.
            from repro.resilience.failures import KIND_CRASH, CellFailure

            failures.append(
                CellFailure(
                    key=cell_keys[i],
                    index=i,
                    kind=KIND_CRASH,
                    error_type="MissingResult",
                    message="task is done in the journal but its result "
                    "file is missing",
                    retryable=True,
                )
            )
        retries = max(0, queue.total_claims() - len(items))
        span.set(
            failed=len(failures),
            retries=retries,
            resumed=resumed,
        )

    if failures and on_error == "raise":
        first = min(failures, key=lambda f: f.index)
        raise WorkerError(
            f"queue task {first.key!r} failed with "
            f"{first.error_type}: {first.message}",
            first.remote_traceback,
        )
    if on_error == "collect":
        return MapOutcome(results=results, failures=failures, retries=retries)
    return results
