"""Injectable clocks: the seam that makes the serving layer simulable.

Every time-dependent decision in :mod:`repro.serve` — batch coalescing
windows, request deadlines, retry backoff, latency accounting — reads one
:class:`Clock`.  Production uses :class:`MonotonicClock` (wall time);
tests and the load harness use :class:`VirtualClock`, which only moves
when told to, so hundreds of simulated seconds of queueing behaviour run
in microseconds with zero wall-clock sleeps and bit-identical outcomes.
"""

from __future__ import annotations

import time


class Clock:
    """Interface: ``now()``, ``sleep(s)``, ``advance_to(t)``, ``virtual``."""

    #: True when time only moves on demand (sleeps are free).  The server
    #: uses this to decide whether measured service time must be *added*
    #: to the clock (virtual) or has already passed (wall).
    virtual: bool = False

    def now(self) -> float:
        raise NotImplementedError

    def sleep(self, seconds: float) -> None:
        raise NotImplementedError

    def advance_to(self, t: float) -> None:
        """Move time forward to ``t`` (no-op if ``t`` is in the past)."""
        delta = t - self.now()
        if delta > 0:
            self.sleep(delta)


class MonotonicClock(Clock):
    """Wall time via ``time.monotonic``; ``sleep`` really sleeps."""

    virtual = False

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)


class VirtualClock(Clock):
    """Deterministic manual time: ``sleep``/``advance_to`` just move ``now``.

    Never blocks — a test drives the schedule explicitly, so flush windows
    and deadlines fire exactly when the test says they do.
    """

    virtual = True

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def sleep(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"cannot sleep a negative duration: {seconds}")
        self._now += seconds

    def advance_to(self, t: float) -> None:
        if t > self._now:
            self._now = float(t)
