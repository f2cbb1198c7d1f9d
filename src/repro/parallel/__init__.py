"""Process-parallel execution engine.

The reproduction's dominant costs — training the model zoo and walking
(repetition × distribution) evaluation grids — are embarrassingly
parallel.  This package provides the three layers every dispatch site
composes:

- :mod:`repro.parallel.pool` — a fault-tolerant pool of forked workers
  (:func:`parallel_map`, ``REPRO_NUM_WORKERS`` / ``--jobs`` resolution,
  traceback-preserving error propagation, bit-identical serial fallback,
  per-cell retry with backoff, deadlines with hung-worker replacement,
  and ``on_error="collect"`` graceful degradation — see
  :mod:`repro.resilience`);
- :mod:`repro.parallel.locks` — per-artifact ``flock`` locks and atomic
  write-temp-then-replace publication so concurrent workers never train
  the same artifact twice nor observe half-written archives;
- :mod:`repro.parallel.timing` — per-cell and per-grid wall-clock
  records surfaced in results and benchmarks.
"""

from repro.parallel.locks import (
    FileLock,
    artifact_lock,
    atomic_write,
    fsync_dir,
    fsync_path,
)
from repro.parallel.pool import (
    JOBS_ENV,
    MapOutcome,
    WorkerError,
    default_chunksize,
    parallel_map,
    resolve_jobs,
)
from repro.parallel.timing import CellTiming, GridTiming, grid_timing, stopwatch

__all__ = [
    "FileLock",
    "artifact_lock",
    "atomic_write",
    "fsync_dir",
    "fsync_path",
    "JOBS_ENV",
    "MapOutcome",
    "WorkerError",
    "default_chunksize",
    "parallel_map",
    "resolve_jobs",
    "CellTiming",
    "GridTiming",
    "grid_timing",
    "stopwatch",
]
