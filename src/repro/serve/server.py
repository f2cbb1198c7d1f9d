"""The serving loop: queue → dynamic batches → warm engines → responses.

:class:`PruneServer` joins the pieces: requests enter a bounded
:class:`~repro.serve.batcher.DynamicBatcher`, flush as coalesced batches
into the registry's warm fixed-pad engines, and resolve into
:class:`~repro.serve.batcher.PendingResponse` handles.  Engine faults are
retried with the resilience layer's seeded backoff and, past the budget,
contained to the failing batch — the queue keeps draining.

Two drive modes share every line of policy code:

- **simulated** (default): a :class:`~repro.serve.clock.VirtualClock`
  plus :meth:`pump`/:meth:`run_until_idle` — single-threaded, no wall
  sleeps, deterministic; what the test suite and the load harness use.
- **threaded**: :meth:`start` spawns one executor thread driven by a
  wall clock; ``submit`` is thread-safe and responses are awaited with
  ``wait()``.  One executor by design: compiled plans reuse scratch
  buffers, so batch execution per engine must be serialized anyway.

The ``safety`` endpoint answers the paper's Section 7 question at
request time: a prediction plus the registered model's cached Def.-1
prune-potential context and the guideline recommendation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import observe
from repro.resilience.retry import RetryPolicy
from repro.serve.batcher import Batch, DynamicBatcher, GroupKey, PendingResponse, Request
from repro.serve.clock import Clock, VirtualClock
from repro.serve.registry import ModelKey, ModelZooRegistry, as_model_key
from repro.serve.safety import SafetyContext


@dataclass(frozen=True)
class ServeConfig:
    """Serving policy knobs.

    ``default_deadline`` is relative (seconds from submission); ``None``
    disables deadlines.  ``service_time`` maps one executed batch —
    ``(group, rows, measured_wall_seconds)`` — to the seconds charged to
    a *virtual* clock; ``None`` charges the measured wall time, and tests
    inject a constant model for bit-identical schedules.
    """

    max_wait: float = 0.005
    max_pending: int = 1024
    default_deadline: float | None = 0.25
    max_retries: int = 1
    retry_base_delay: float = 0.002
    service_time: Callable[[GroupKey, int, float], float] | None = None


@dataclass
class SafetyAnswer:
    """``safety`` endpoint payload: prediction + deployment evidence."""

    prediction: np.ndarray
    logits: np.ndarray
    context: SafetyContext | None

    def to_dict(self) -> dict:
        out: dict = {"prediction": self.prediction.tolist()}
        if self.context is not None:
            out["safety"] = self.context.to_dict()
        return out


class PruneServer:
    """Multi-model inference server over a :class:`ModelZooRegistry`."""

    def __init__(
        self,
        registry: ModelZooRegistry,
        config: ServeConfig | None = None,
        clock: Clock | None = None,
    ):
        self.registry = registry
        self.config = config or ServeConfig()
        self.clock = clock if clock is not None else VirtualClock()
        self._batcher = DynamicBatcher(
            max_wait=self.config.max_wait,
            max_pending=self.config.max_pending,
        )
        self._policy = RetryPolicy(
            max_retries=self.config.max_retries,
            base_delay=self.config.retry_base_delay,
            max_delay=1.0,
        )
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._metrics = {
            "requests": 0, "ok": 0, "shed": 0, "deadline": 0,
            "error": 0, "batches": 0, "retries": 0,
        }
        self._occupancies: list[int] = []

    # -------------------------------------------------------------- ingress

    @property
    def pending(self) -> int:
        """Requests queued but not yet resolved."""
        with self._lock:
            return self._batcher.pending

    def metrics(self) -> dict:
        """Counter snapshot plus batch-occupancy observations."""
        with self._lock:
            out = dict(self._metrics)
            out["occupancies"] = list(self._occupancies)
            return out

    def next_due(self) -> float | None:
        """Next instant a queued group must flush (``None``: queue empty)."""
        with self._lock:
            return self._batcher.next_due(self.clock.now())

    def submit(
        self,
        key: ModelKey | str,
        images: np.ndarray,
        deadline: float | None = None,
    ) -> PendingResponse:
        """Enqueue one request; returns its response handle immediately.

        ``images`` must be batch-shaped ``(rows, *row_shape)``; ``deadline``
        is relative seconds (defaults to the config's), measured on the
        server clock from submission.
        """
        key_str = str(as_model_key(key))
        self.registry.get(key_str)  # fail fast: don't queue doomed requests
        arr = np.asarray(images)
        if arr.ndim < 2 or arr.size == 0:
            raise ValueError(
                f"images must be a non-empty batch (rows, *row_shape); "
                f"got shape {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        relative = self.config.default_deadline if deadline is None else deadline
        with self._lock:
            now = self.clock.now()
            request = Request(
                model=key_str,
                images=arr,
                enqueued=now,
                deadline=None if relative is None else now + relative,
            )
            self._metrics["requests"] += 1
            observe.incr("serve.requests", model=key_str)
            for victim in self._batcher.offer(request):
                self._resolve(victim, "shed", now)
            self._cond.notify_all()
        return request.response

    def _resolve(self, request: Request, status: str, now: float, **fields) -> None:
        self._metrics[status] += 1
        if status != "ok":
            observe.incr(f"serve.{status}", model=request.model)
        request.response._resolve(
            status, latency=now - request.enqueued, **fields
        )

    # ------------------------------------------------------------ execution

    def _limit_for(self, group: GroupKey) -> int:
        try:
            return self.registry.engine(group.model).batch_size
        except KeyError:
            return self.registry.batch_size

    def _take_due(self, now: float, force: bool = False) -> list[Batch]:
        return self._batcher.take_due(now, self._limit_for, force=force)

    def _execute(self, batch: Batch) -> None:
        now = self.clock.now()
        live: list[Request] = []
        with self._lock:
            for request in batch.requests:
                if request.deadline is not None and now > request.deadline:
                    self._resolve(request, "deadline", now)
                else:
                    live.append(request)
        if not live:
            return
        rows = sum(r.rows for r in live)
        with observe.span(
            "serve.batch", model=batch.group.model, rows=rows, requests=len(live)
        ) as span:
            try:
                engine = self.registry.engine(batch.group.model)
                arr = (
                    live[0].images
                    if len(live) == 1
                    else np.concatenate([r.images for r in live], axis=0)
                )
                logits, elapsed = self._run_with_retries(batch.group, engine, arr)
            except Exception as exc:  # contained: only this batch fails
                now = self.clock.now()
                with self._lock:
                    for request in live:
                        self._resolve(request, "error", now, error=exc)
                observe.event(
                    "serve.batch_error", model=batch.group.model, reason=repr(exc)
                )
                span.set(error=type(exc).__name__)
                return
            if self.clock.virtual:
                charge = (
                    self.config.service_time(batch.group, rows, elapsed)
                    if self.config.service_time is not None
                    else elapsed
                )
                self.clock.sleep(charge)
            done = self.clock.now()
            with self._lock:
                self._metrics["batches"] += 1
                self._occupancies.append(rows)
                offset = 0
                for request in live:
                    self._resolve(
                        request, "ok", done,
                        value=logits[offset : offset + request.rows],
                        batch_rows=rows,
                    )
                    offset += request.rows
                    observe.hist(
                        "serve.latency_s", request.response.latency,
                        model=request.model,
                    )
        observe.incr("serve.batches", model=batch.group.model)
        observe.hist("serve.batch_occupancy", rows, model=batch.group.model)

    def _run_with_retries(
        self, group: GroupKey, engine, arr: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """One batch through the engine under the retry policy.

        The policy's chaos hook sits where a real backend fault would
        surface (in front of the engine call), so fault drills can
        deterministically fail a specific model's batches.  Backoff
        sleeps go through the server clock: free under a virtual clock,
        real in production.
        """

        def run() -> tuple[np.ndarray, float]:
            t0 = time.perf_counter()
            logits = engine.logits(arr)
            return logits, time.perf_counter() - t0

        def retried() -> None:
            with self._lock:
                self._metrics["retries"] += 1
            observe.incr("serve.retries", model=group.model)

        return self._policy.call(
            f"serve/{group.model}", run, sleep=self.clock.sleep, on_retry=retried
        )

    # -------------------------------------------------------- simulated mode

    def pump(self, force: bool = False) -> int:
        """Dispatch every currently-due batch; returns batches executed."""
        executed = 0
        while True:
            with self._lock:
                batches = self._take_due(self.clock.now(), force=force)
            if not batches:
                return executed
            for batch in batches:
                self._execute(batch)
                executed += 1

    def run_until_idle(self) -> int:
        """Advance the clock through every flush until the queue drains.

        The simulated-mode main loop: executes due batches, and when none
        are due fast-forwards the (virtual) clock to the next flush
        instant.  Returns total batches executed.
        """
        if self._thread is not None:
            raise RuntimeError("run_until_idle is for non-threaded serving")
        executed = 0
        with observe.span("serve.run"):
            while True:
                executed += self.pump()
                with self._lock:
                    if not self._batcher.pending:
                        return executed
                    next_due = self._batcher.next_due(self.clock.now())
                self.clock.advance_to(next_due)

    def flush(self) -> int:
        """Force-dispatch everything queued right now (final drain)."""
        return self.pump(force=True)

    # -------------------------------------------------------- threaded mode

    def start(self) -> "PruneServer":
        """Spawn the executor thread (requires a wall clock)."""
        if self.clock.virtual:
            raise ValueError(
                "threaded serving needs a wall clock (MonotonicClock); "
                "a VirtualClock never advances on its own"
            )
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._stopping = False
        self._thread = threading.Thread(
            target=self._worker_loop, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop the executor; ``drain`` serves the backlog before exit."""
        thread = self._thread
        if thread is None:
            return
        with self._lock:
            self._stopping = True
            self._drain_on_stop = drain
            self._cond.notify_all()
        thread.join()
        self._thread = None

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                now = self.clock.now()
                force = self._stopping and getattr(self, "_drain_on_stop", True)
                batches = self._take_due(now, force=force)
                if not batches:
                    if self._stopping:
                        if not getattr(self, "_drain_on_stop", True):
                            for request in list(self._batcher._iter_requests()):
                                self._batcher._remove(request)
                                self._resolve(request, "shed", now)
                        return
                    next_due = self._batcher.next_due(now)
                    timeout = (
                        None if next_due is None else max(next_due - now, 0.0005)
                    )
                    self._cond.wait(timeout=timeout)
                    continue
            for batch in batches:
                self._execute(batch)

    def __enter__(self) -> "PruneServer":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread is not None:
            self.stop()

    # ------------------------------------------------------------ endpoints

    def predict_logits(
        self,
        key: ModelKey | str,
        images: np.ndarray,
        deadline: float | None = None,
        timeout: float | None = 30.0,
    ) -> np.ndarray:
        """Synchronous logits through the batching path."""
        response = self.submit(key, images, deadline=deadline)
        if self._thread is not None:
            if not response.wait(timeout):
                raise TimeoutError(f"no response within {timeout}s")
        else:
            self.run_until_idle()
        return response.result()

    def predict(
        self,
        key: ModelKey | str,
        images: np.ndarray,
        deadline: float | None = None,
        timeout: float | None = 30.0,
    ) -> np.ndarray:
        """Synchronous argmax predictions through the batching path."""
        logits = self.predict_logits(key, images, deadline=deadline, timeout=timeout)
        return np.argmax(logits, axis=1)

    def safety(
        self,
        key: ModelKey | str,
        images: np.ndarray,
        deadline: float | None = None,
        timeout: float | None = 30.0,
    ) -> SafetyAnswer:
        """Prediction plus the model's cached prune-potential evidence.

        The paper's deployment question as an endpoint: the answer says
        what the model predicts *and* how far this model may safely be
        pruned given every hold-out shift it was audited on (Def. 1),
        with the Section 7 guideline recommendation spelled out.
        """
        logits = self.predict_logits(key, images, deadline=deadline, timeout=timeout)
        return SafetyAnswer(
            prediction=np.argmax(logits, axis=1),
            logits=logits,
            context=self.registry.safety_context(key),
        )
