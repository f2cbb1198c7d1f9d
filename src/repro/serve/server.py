"""The serving loop: queue → dynamic batches → warm engines → responses.

:class:`PruneServer` joins the pieces: requests enter a bounded
:class:`~repro.serve.batcher.DynamicBatcher`, flush as coalesced batches
into the registry's warm fixed-pad engines, and resolve into
:class:`~repro.serve.batcher.PendingResponse` handles.  Each batch pads
to the smallest row bucket licensed bitwise against the full batch
width, so a response does not depend on what its request was coalesced
with.  Engine faults are retried with the resilience layer's seeded
backoff and, past the budget, contained to the failing batch — the queue
keeps draining.

The loop is simulated and single-threaded: :meth:`pump` and
:meth:`run_until_idle` move a :class:`~repro.serve.clock.VirtualClock`
from one flush instant to the next, and every executed batch charges its
service time to that clock, so nothing sleeps and a schedule is
deterministic.  Batches run one at a time by design: compiled plans
reuse scratch buffers, so batch execution per engine is serialized
anyway.

The ``safety`` endpoint answers the paper's Section 7 question at
request time: a prediction plus the registered model's cached Def.-1
prune-potential context and the guideline recommendation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import observe
from repro.resilience.retry import RetryPolicy
from repro.serve.batcher import Batch, DynamicBatcher, GroupKey, PendingResponse, Request
from repro.serve.clock import VirtualClock
from repro.serve.registry import ModelKey, ModelZooRegistry
from repro.serve.safety import SafetyContext


@dataclass(frozen=True)
class ServeConfig:
    """Serving policy knobs.

    ``default_deadline`` is relative (seconds from submission); ``None``
    disables deadlines.  ``service_time`` maps one executed batch —
    ``(group, rows, measured_wall_seconds)`` — to the seconds charged to
    the server clock; ``None`` charges the measured wall time, and tests
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
        clock: VirtualClock | None = None,
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
        self._metrics = {
            "requests": 0, "ok": 0, "shed": 0, "deadline": 0,
            "error": 0, "batches": 0, "retries": 0,
        }
        self._occupancies: list[int] = []

    # -------------------------------------------------------------- ingress

    @property
    def pending(self) -> int:
        """Requests queued but not yet resolved."""
        return self._batcher.pending

    def metrics(self) -> dict:
        """Counter snapshot plus batch-occupancy observations."""
        out = dict(self._metrics)
        out["occupancies"] = list(self._occupancies)
        return out

    def next_due(self) -> float | None:
        """Next instant a queued group must flush (``None``: queue empty)."""
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
        # Fail fast (don't queue doomed requests) and queue under the
        # entry's canonical key, which later lookups take without a parse.
        key_str = str(self.registry.get(key).key)
        arr = np.asarray(images)
        if arr.ndim < 2 or arr.size == 0:
            raise ValueError(
                f"images must be a non-empty batch (rows, *row_shape); "
                f"got shape {arr.shape}"
            )
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        relative = self.config.default_deadline if deadline is None else deadline
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

    def _execute(self, batch: Batch) -> None:
        now = self.clock.now()
        live: list[Request] = []
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
                for request in live:
                    self._resolve(request, "error", now, error=exc)
                observe.event(
                    "serve.batch_error", model=batch.group.model, reason=repr(exc)
                )
                span.set(error=type(exc).__name__)
                return
            charge = (
                self.config.service_time(batch.group, rows, elapsed)
                if self.config.service_time is not None
                else elapsed
            )
            self.clock.sleep(charge)
            done = self.clock.now()
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
        sleeps go through the server clock, so they cost no wall time.
        """

        def run() -> tuple[np.ndarray, float]:
            t0 = time.perf_counter()
            logits = engine.logits(arr)
            return logits, time.perf_counter() - t0

        def retried() -> None:
            self._metrics["retries"] += 1
            observe.incr("serve.retries", model=group.model)

        return self._policy.call(
            f"serve/{group.model}", run, sleep=self.clock.sleep, on_retry=retried
        )

    # ------------------------------------------------------------- the loop

    def pump(self, force: bool = False) -> int:
        """Dispatch every currently-due batch; returns batches executed."""
        executed = 0
        while True:
            batches = self._batcher.take_due(
                self.clock.now(), self._limit_for, force=force
            )
            if not batches:
                return executed
            for batch in batches:
                self._execute(batch)
                executed += 1

    def run_until_idle(self) -> int:
        """Advance the clock through every flush until the queue drains.

        The main loop: executes due batches, and when none are due
        fast-forwards the clock to the next flush instant.  Returns total
        batches executed.
        """
        executed = 0
        with observe.span("serve.run"):
            while True:
                executed += self.pump()
                if not self._batcher.pending:
                    return executed
                self.clock.advance_to(self._batcher.next_due(self.clock.now()))

    def flush(self) -> int:
        """Force-dispatch everything queued right now (final drain)."""
        return self.pump(force=True)

    # ------------------------------------------------------------ endpoints

    def predict_logits(
        self,
        key: ModelKey | str,
        images: np.ndarray,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Synchronous logits through the batching path."""
        response = self.submit(key, images, deadline=deadline)
        self.run_until_idle()
        return response.result()

    def predict(
        self,
        key: ModelKey | str,
        images: np.ndarray,
        deadline: float | None = None,
    ) -> np.ndarray:
        """Synchronous argmax predictions through the batching path."""
        logits = self.predict_logits(key, images, deadline=deadline)
        return np.argmax(logits, axis=1)

    def safety(
        self,
        key: ModelKey | str,
        images: np.ndarray,
        deadline: float | None = None,
    ) -> SafetyAnswer:
        """Prediction plus the model's cached prune-potential evidence.

        The paper's deployment question as an endpoint: the answer says
        what the model predicts *and* how far this model may safely be
        pruned given every hold-out shift it was audited on (Def. 1),
        with the Section 7 guideline recommendation spelled out.
        """
        logits = self.predict_logits(key, images, deadline=deadline)
        return SafetyAnswer(
            prediction=np.argmax(logits, axis=1),
            logits=logits,
            context=self.registry.safety_context(key),
        )
