"""Retry policy: transient-failure classification and seeded backoff.

Large sweep grids hit two failure families.  *Transient* faults — a
worker OOM-killed by the OS, a filesystem hiccup, a lock starved past
its timeout, an archive torn by a crashed publisher — succeed when the
cell is simply run again, so the execution engine retries them with
exponential backoff.  *Deterministic* faults — a ``ValueError`` from a
bad config, a shape mismatch — fail identically on every attempt, so
retrying them only burns hours; they go straight to the failure
manifest.

Backoff jitter is **seeded per (cell key, attempt)** rather than drawn
from a global RNG: two runs of the same degraded grid sleep the same
schedule, so chaos tests and re-runs are reproducible.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.resilience.failures import KIND_CRASH, KIND_TIMEOUT

#: Exception *type names* treated as transient.  Names, not classes: in
#: parallel mode the parent only sees the worker's ``type(exc).__name__``
#: (the traceback travels as text), so classification must work on the
#: wire format.  Subclasses of ``OSError`` raised in-process are caught
#: by :func:`is_retryable` via ``isinstance`` as well.
RETRYABLE_TYPES = frozenset({
    # OS-level transients (the worker's process/filesystem misbehaved).
    "OSError",
    "IOError",
    "BlockingIOError",
    "InterruptedError",
    "BrokenPipeError",
    "ConnectionError",
    "ConnectionResetError",
    "ConnectionRefusedError",
    "TimeoutError",
    # Cache-coordination transients.
    "LockTimeout",
    # Corrupt-archive signatures: a torn or half-published ``.npz`` read
    # concurrently with its re-publication.  The zoo treats these as
    # cache misses, so a retry lands on a valid archive.
    "BadZipFile",
    "EOFError",
    "error",  # zlib.error's bare name, raised by truncated compressed blocks
    # Fault-injection harness (repro.resilience.chaos).
    "ChaosError",
    # A repackaged worker failure whose original type was lost.
    "WorkerError",
})

#: Failure kinds that are always retryable regardless of exception type:
#: a crashed or hung worker says nothing deterministic about the cell.
RETRYABLE_KINDS = (KIND_CRASH, KIND_TIMEOUT)


def is_retryable_type(type_name: str) -> bool:
    """Classify a failure by exception type *name* (the wire format)."""
    return type_name in RETRYABLE_TYPES


def is_retryable(exc: BaseException) -> bool:
    """Classify an in-process exception instance.

    ``isinstance`` catches ``OSError`` subclasses whose names are not in
    the table; the name check catches cross-module types (``ChaosError``,
    ``BadZipFile``) without importing them here.
    """
    if isinstance(exc, (OSError, EOFError)):
        return True
    return is_retryable_type(type(exc).__name__)


def stable_seed(*parts: object) -> int:
    """A deterministic 64-bit seed from arbitrary string-able parts.

    ``hash()`` is salted per process (PYTHONHASHSEED), so anything that
    must agree across workers — backoff jitter, chaos decisions — derives
    from this digest instead.
    """
    text = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(
        hashlib.sha256(text.encode("utf-8")).digest()[:8], "little"
    )


def stable_unit(*parts: object) -> float:
    """A deterministic float in [0, 1) keyed by ``parts``."""
    return (stable_seed(*parts) % (2**53)) / float(2**53)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, per-cell jitter.

    ``max_retries`` counts *additional* attempts after the first: 2 means
    a cell may run three times before it lands in the failure manifest.
    """

    max_retries: int = 2
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.5  # ± fraction of the nominal delay

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff(self, attempt: int, key: str = "") -> float:
        """Sleep before retry number ``attempt`` (1-based) of cell ``key``.

        Exponential in the attempt, capped at ``max_delay``, then spread
        by ``± jitter`` using a unit draw seeded on (key, attempt) so the
        schedule is a pure function of the cell's identity.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if self.jitter and delay > 0:
            spread = 2.0 * stable_unit("backoff", key, attempt) - 1.0  # [-1, 1)
            delay *= 1.0 + self.jitter * spread
        return max(delay, 0.0)

    def call(
        self,
        key: str,
        fn: Callable,
        *args: Any,
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Callable[[], None] | None = None,
    ) -> Any:
        """``fn(*args)``, retried under this policy.

        Each attempt first runs the chaos hook for ``key`` (where a real
        fault would surface), then the call.  A transient ``Exception``
        is retried after ``sleep(backoff(attempt, key))`` while budget
        remains, calling ``on_retry()`` first; anything else propagates
        as raised.  Only ``Exception`` is caught, so ``KeyboardInterrupt``
        (Ctrl-C) and ``SystemExit`` always stop the caller.
        """
        # Lazy import: chaos imports this module for its seeded draws.
        from repro.resilience import chaos

        attempt = 0
        while True:
            try:
                chaos.on_worker_cell(key, attempt)
                return fn(*args)
            except Exception as exc:
                if attempt >= self.max_retries or not is_retryable(exc):
                    raise
                attempt += 1
                if on_retry is not None:
                    on_retry()
                sleep(self.backoff(attempt, key))

    def with_max_retries(self, max_retries: int | None) -> "RetryPolicy":
        """This policy with ``max_retries`` overridden (``None`` keeps it)."""
        if max_retries is None:
            return self
        return dataclasses.replace(self, max_retries=max_retries)


def resolve_max_retries(value: int | None = None, default: int = 2) -> int:
    """Retry budget: ``value``, or ``default`` when it is ``None``."""
    if value is None:
        return default
    if value < 0:
        raise ValueError(f"max_retries must be >= 0, got {value}")
    return int(value)


def resolve_cell_timeout(value: float | None = None) -> float | None:
    """Per-cell deadline in seconds; ``None`` or a non-positive value
    means no deadline."""
    return None if value is None or value <= 0 else float(value)
