"""Open-loop load for ``repro.serve``, timed from the schedule.

``repro.serve.run_load`` reports latency from ``submit``.  When a slow
batch holds the (virtual) clock past the next arrival, that request is
submitted late, and the time it spent waiting to be sent is invisible:
an overloaded server looks healthy.  :func:`drive` sends each request on
its lognormal schedule through the public ``PruneServer`` API
(``submit``/``pump``/``next_due``/``run_until_idle``) and times it from
its *due* time, so a stall is charged to every request it delays; how
late the generator itself ran is reported separately.

The server runs on a ``VirtualClock`` that is charged the measured wall
time of every engine call (``ServeConfig.service_time`` returns it
unchanged, and records it so queue wait can be separated from service).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.serve import (
    TERMINAL,
    LoadProfile,
    PruneServer,
    ServeConfig,
    TrafficMix,
    VirtualClock,
    generate_arrivals,
)

# The serve-bench policy (repro.serve.run_serve_bench).
MAX_WAIT_S = 0.004
MAX_PENDING = 512
DEADLINE_S = 0.5
SIGMA = 1.2


@dataclass
class PhaseResult:
    """One open-loop phase at a fixed offered rate."""

    rate: float
    latency_s: list[float] = field(default_factory=list)  # ok requests, from due time
    gen_late_s: list[float] = field(default_factory=list)  # every request: submit - due
    queue_wait_s: list[float] = field(default_factory=list)  # ok requests: batch start - submit
    engine_s: list[float] = field(default_factory=list)  # per executed batch
    batch_rows: list[int] = field(default_factory=list)  # real rows per executed batch
    statuses: list[str] = field(default_factory=list)
    records: list = field(default_factory=list)  # (Arrival, images, PendingResponse)

    @property
    def failed(self) -> int:
        """Shed, deadline-missed, errored and lost requests."""
        return sum(1 for s in self.statuses if s != "ok")


def drive(registry, shapes, rate: float, n_requests: int, seed: int) -> PhaseResult:
    """Offer ``n_requests`` at ``rate`` req/s to a fresh server; drain it."""
    clock = VirtualClock()
    batches: list[tuple[float, float]] = []  # (batch end on the clock, engine seconds)

    def service_time(group, rows, elapsed):
        batches.append((clock.now() + elapsed, elapsed))
        return elapsed

    server = PruneServer(
        registry,
        ServeConfig(
            max_wait=MAX_WAIT_S,
            max_pending=MAX_PENDING,
            default_deadline=DEADLINE_S,
            service_time=service_time,
        ),
        clock,
    )
    profile = LoadProfile(
        mixes=[TrafficMix(key, shape) for key in registry.keys() for shape in shapes],
        n_requests=n_requests,
        mean_interarrival=1.0 / rate,
        sigma=SIGMA,
        seed=seed,
    )
    rng = np.random.default_rng(seed + 1)
    sent = []  # (due, submitted, arrival, images, response)
    start = clock.now()
    for arrival in generate_arrivals(profile):
        due = start + arrival.t
        while True:
            next_due = server.next_due()
            if next_due is None or next_due > due:
                break
            clock.advance_to(next_due)
            server.pump()
        clock.advance_to(due)
        images = rng.standard_normal((arrival.rows,) + tuple(arrival.mix.row_shape)).astype(
            np.float32
        )
        submitted = clock.now()
        response = server.submit(arrival.mix.key, images)
        sent.append((due, submitted, arrival, images, response))
        server.pump()
    server.run_until_idle()

    result = PhaseResult(rate=rate)
    result.engine_s = [elapsed for _, elapsed in batches]
    result.batch_rows = list(server.metrics()["occupancies"])
    ends = [end for end, _ in batches]
    for due, submitted, arrival, images, response in sent:
        status = response.status if response.status in TERMINAL else "lost"
        result.statuses.append(status)
        result.gen_late_s.append(submitted - due)
        result.records.append((arrival, images, response))
        if status != "ok":
            continue
        done = submitted + response.latency
        result.latency_s.append(done - due)
        # The batch that served this request ended at ``done``; float
        # rounding of submit + latency can miss it by an ulp, so take the
        # nearest recorded batch end.
        i = bisect.bisect_left(ends, done)
        nearest = min(
            (j for j in (i - 1, i) if 0 <= j < len(ends)), key=lambda j: abs(ends[j] - done)
        )
        result.queue_wait_s.append(response.latency - batches[nearest][1])
    return result


def ladder(registry, shapes, seed: int, start_rps: float, step: float, n_requests: int,
           p99_limit_s: float, max_rungs: int = 16) -> tuple[float, list[dict]]:
    """Highest rung of a geometric rate ladder that meets the latency limit.

    A rung passes when its p99 latency from due time is within
    ``p99_limit_s`` and no request was shed, missed its deadline or
    failed.  The climb stops at the first failing rung, or after
    ``max_rungs``: a burst too small to build a backlog passes at any
    rate.  Returns the last passing rate (0 if none) and every rung's
    summary.
    """
    best, rungs, rate = 0.0, [], start_rps
    while len(rungs) < max_rungs:
        phase = drive(registry, shapes, rate, n_requests, seed)
        p99 = float(np.percentile(phase.latency_s, 99)) if phase.latency_s else float("inf")
        passed = phase.failed == 0 and p99 <= p99_limit_s
        rungs.append({"rps": rate, "p99_ms": 1e3 * p99, "failed": phase.failed, "passed": passed})
        if not passed:
            break
        best, rate = rate, rate * step
    return best, rungs
