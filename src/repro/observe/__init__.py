"""Structured observability: spans, metrics, and a crash-safe run ledger.

Every headline experiment is a grid of (repetition × distribution) cells
dispatched across worker processes; when one of them regresses — a cache
that stopped hitting, a retrain whose LR schedule silently changed, a
cell that takes 10x its siblings — a final summary string cannot show it.
This package records what actually happened:

- **spans** — :func:`span` is a context manager recording wall time,
  attributes, and parent/child nesting (``with span("retrain", epochs=3):``);
- **metrics** — :func:`incr` / :func:`gauge` / :func:`hist` record
  counters (cache hits/misses, eval cells), gauges, and histogram
  observations (batches/s, per-layer prune ratios);
- **run ledger** — every record is one JSON line appended (and flushed)
  to a per-run ``*.jsonl`` stream.  Worker processes forked by
  :mod:`repro.parallel.pool` write sibling ``*.worker-<pid>.jsonl``
  streams that the parent merges on pool join under the ledger's file
  lock, so one file tells the whole multi-process story;
- **trace report** — ``python -m repro trace <run.jsonl>`` renders the
  span tree with timings and metric rollups (:mod:`repro.observe.trace`).

Observability is opt-in, mirroring ``REPRO_VERIFY``: set
``REPRO_OBSERVE=1`` (ledger path auto-chosen under ``REPRO_OBSERVE_DIR``,
default ``.cache/repro/observe``) or call :func:`configure` explicitly.
When disabled, every hook degenerates to a no-op fast path so
instrumented hot loops pay nothing.
"""

from repro.observe.core import (
    DIR_ENV,
    ENV_VAR,
    NULL_SPAN,
    Span,
    configure,
    current_ledger_path,
    enabled,
    event,
    gauge,
    hist,
    incr,
    iter_open_spans,
    shutdown,
    span,
)
from repro.observe.ledger import (
    merge_worker_streams,
    read_events,
    worker_stream_path,
)
from repro.observe.trace import TraceReport, load_report

__all__ = [
    "ENV_VAR",
    "DIR_ENV",
    "NULL_SPAN",
    "Span",
    "configure",
    "current_ledger_path",
    "enabled",
    "event",
    "gauge",
    "hist",
    "incr",
    "iter_open_spans",
    "shutdown",
    "span",
    "merge_worker_streams",
    "read_events",
    "worker_stream_path",
    "TraceReport",
    "load_report",
]
