"""The serving clock: simulated time that moves only when told to.

Every time-dependent decision in :mod:`repro.serve` — batch coalescing
windows, request deadlines, retry backoff, latency accounting — reads one
:class:`VirtualClock`.  The server charges each executed batch's service
time to it, so hundreds of simulated seconds of queueing behaviour run in
however long the engine calls take, with zero wall-clock sleeps and, under
an injected service-time model, bit-identical outcomes.
"""

from __future__ import annotations


class VirtualClock:
    """Deterministic manual time: ``sleep``/``advance_to`` just move ``now``.

    Never blocks — the caller drives the schedule explicitly, so flush
    windows and deadlines fire exactly when the caller says they do.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot sleep a negative duration: {seconds}")
        self._now += seconds

    def advance_to(self, t: float) -> None:
        """Move time forward to ``t`` (no-op if ``t`` is in the past)."""
        if t > self._now:
            self._now = float(t)
