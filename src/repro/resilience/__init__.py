"""Fault-tolerant execution: retries, failure manifests, chaos.

A production-scale sweep is a multi-hour (task × model × method ×
repetition × distribution) grid; this package is what lets it *finish*
instead of aborting on the first fault:

- :mod:`repro.resilience.retry` — classification of transient vs
  deterministic failures and an exponential-backoff
  :class:`~repro.resilience.retry.RetryPolicy` with per-cell seeded
  jitter;
- :mod:`repro.resilience.failures` — structured
  :class:`~repro.resilience.failures.CellFailure` records and the
  JSON :class:`~repro.resilience.failures.FailureManifest` a degraded
  grid persists next to its artifacts as its post-mortem record;
- :mod:`repro.resilience.chaos` — a deterministic fault-injection
  harness (worker exceptions, hard crashes of forked pool workers,
  deadline-blowing delays, torn archive writes, lock starvation),
  opt-in via ``REPRO_CHAOS`` or
  :func:`~repro.resilience.chaos.configure`, seeded per cell key;
  forked workers inherit the plan.

The execution engine (:mod:`repro.parallel.pool`) consumes retry and
failure records directly; :func:`repro.experiments.grid.run_grid` and
:func:`~repro.experiments.zoo.build_zoo` add dependency-aware
degradation and one manifest per degraded grid on top.  A degraded or
killed grid recovers by running it again: every artifact it finished is
a cache hit, so only its failed cells are rebuilt.
"""

from repro.resilience.chaos import ChaosConfig, ChaosError
from repro.resilience.failures import (
    KIND_CRASH,
    KIND_DEPENDENCY,
    KIND_EXCEPTION,
    KIND_TIMEOUT,
    CellFailure,
    FailureManifest,
    default_manifest_path,
)
from repro.resilience.retry import (
    RetryPolicy,
    is_retryable,
    is_retryable_type,
    resolve_cell_timeout,
    resolve_max_retries,
    stable_seed,
    stable_unit,
)

__all__ = [
    "ChaosConfig",
    "ChaosError",
    "CellFailure",
    "FailureManifest",
    "default_manifest_path",
    "KIND_EXCEPTION",
    "KIND_CRASH",
    "KIND_TIMEOUT",
    "KIND_DEPENDENCY",
    "RetryPolicy",
    "is_retryable",
    "is_retryable_type",
    "resolve_cell_timeout",
    "resolve_max_retries",
    "stable_seed",
    "stable_unit",
]
