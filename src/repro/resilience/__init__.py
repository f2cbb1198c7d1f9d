"""Fault-tolerant execution: retries, failure manifests, chaos, resume.

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
  grid persists next to its artifacts;
- :mod:`repro.resilience.chaos` — a deterministic fault-injection
  harness (worker exceptions, hard crashes, deadline-blowing delays,
  torn archive writes, lock starvation), opt-in via ``REPRO_CHAOS`` or
  :func:`~repro.resilience.chaos.configure`, seeded per cell key;
- :mod:`repro.resilience.resume` — ``--resume <manifest>``: recompute
  only the failed cells of a degraded run against the warm cache.

The execution engine (:mod:`repro.parallel.pool`) consumes retry and
failure records directly; :mod:`repro.experiments.zoo` and the study
grids add manifest persistence and dependency-aware degradation on top.
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
from repro.resilience.resume import (
    load_manifest,
    load_manifests,
    resume_zoo,
    zoo_specs_from_manifest,
)
from repro.resilience.retry import (
    CELL_TIMEOUT_ENV,
    MAX_RETRIES_ENV,
    RetryPolicy,
    is_retryable,
    is_retryable_type,
    register_retryable,
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
    "MAX_RETRIES_ENV",
    "CELL_TIMEOUT_ENV",
    "is_retryable",
    "is_retryable_type",
    "register_retryable",
    "resolve_cell_timeout",
    "resolve_max_retries",
    "stable_seed",
    "stable_unit",
    "load_manifest",
    "load_manifests",
    "resume_zoo",
    "zoo_specs_from_manifest",
]
