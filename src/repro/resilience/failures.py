"""Structured failure records: per-cell failures and grid manifests.

When a grid runs with ``on_error="collect"`` the surviving cells complete
and every dead cell becomes one :class:`CellFailure` — what failed (the
cell key), how it failed (exception / crash / timeout / dependency, with
the remote traceback), and how hard the engine tried (attempt count,
retryable classification).  The grid's failures are persisted as one
:class:`FailureManifest` JSON file next to the artifacts it failed to
produce: the post-mortem record.  Nothing reads it back; running the
grid again rebuilds exactly its failed cells, since every finished
artifact is a cache hit.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime
from pathlib import Path

#: ``CellFailure.kind`` values.
KIND_EXCEPTION = "exception"  # fn raised inside the worker
KIND_CRASH = "crash"  # worker process died without reporting a result
KIND_TIMEOUT = "timeout"  # cell exceeded its deadline; worker was replaced
KIND_DEPENDENCY = "dependency"  # an upstream cell (e.g. the parent) failed


def _wall_stamp() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S")


@dataclass(frozen=True)
class CellFailure:
    """One grid cell that exhausted its retry budget."""

    key: str
    index: int
    kind: str
    error_type: str
    message: str
    attempts: int = 1
    remote_traceback: str = ""
    retryable: bool = False
    #: Wall-clock time the failure was recorded (auto-stamped); lets a
    #: post-mortem line failures up against the run ledger.
    timestamp: str = ""

    def __post_init__(self):
        if not self.timestamp:
            object.__setattr__(self, "timestamp", _wall_stamp())

    def describe(self) -> str:
        """One human line: ``key: kind ErrorType: message (n attempts)``."""
        return (
            f"{self.key}: {self.kind} {self.error_type}: {self.message} "
            f"({self.attempts} attempt{'s' if self.attempts != 1 else ''})"
        )


@dataclass
class FailureManifest:
    """All failures of one degraded grid run, JSON-persistable."""

    label: str
    failures: list[CellFailure] = field(default_factory=list)
    total_cells: int = 0
    created: str = ""

    def __post_init__(self):
        if not self.created:
            self.created = _wall_stamp()

    def to_json(self) -> str:
        return json.dumps(
            {
                "label": self.label,
                "created": self.created,
                "total_cells": self.total_cells,
                "failures": [asdict(f) for f in self.failures],
            },
            indent=2,
        )

    def save(self, path: str | Path) -> Path:
        """Atomically publish this manifest to ``path`` (JSON)."""
        from repro.parallel.locks import atomic_write

        path = Path(path)
        with atomic_write(path) as tmp:
            tmp.write_text(self.to_json(), encoding="utf-8")
        return path


def default_manifest_path(directory: str | Path, label: str) -> Path:
    """Where a grid persists its manifest: ``failures-<label>-<stamp>-<pid>.json``.

    The stamp's microseconds keep two grids of one process degrading in
    the same second (a grid re-run at once) from clobbering each other's
    manifests; the pid suffix does the same for racing builders.
    """
    safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in label)
    stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
    return Path(directory) / f"failures-{safe}-{stamp}-{os.getpid()}.json"
