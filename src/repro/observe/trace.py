"""Trace reports: span trees and metric rollups over one run ledger.

``python -m repro trace <run.jsonl>`` renders what a run actually did:
the nested span tree with wall times (sibling groups of many same-named
spans — grid cells — are collapsed into one aggregate line), counter
sums, last-wins gauges, and histogram summaries.  ``--json`` emits the
same structure as machine-readable JSON for dashboards and CI artifacts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.observe.ledger import read_events

COLLAPSE_THRESHOLD = 12  # sibling spans of one name rendered individually


@dataclass
class SpanNode:
    """One recorded span with its resolved children."""

    name: str
    span_id: str
    parent_id: str | None
    start: float
    seconds: float
    pid: int
    attrs: dict = field(default_factory=dict)
    error: str | None = None
    children: list["SpanNode"] = field(default_factory=list)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "name": self.name,
            "seconds": round(self.seconds, 6),
            "pid": self.pid,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.error:
            out["error"] = self.error
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out


@dataclass
class TraceReport:
    """Parsed view of one run ledger."""

    path: Path
    roots: list[SpanNode]
    counters: dict[str, float]
    gauges: dict[str, float]
    hists: dict[str, list[float]]
    event_counts: dict[str, int]
    n_records: int
    n_spans: int
    pids: list[int]

    # ----------------------------------------------------------- rollups
    def hist_summary(self, name: str) -> dict[str, float]:
        values = self.hists[name]
        return {
            "count": len(values),
            "mean": sum(values) / len(values),
            "min": min(values),
            "max": max(values),
            "p50": _percentile(values, 50.0),
            "p99": _percentile(values, 99.0),
        }

    @property
    def cache_hit_rate(self) -> float | None:
        """Zoo cache hit rate from the recorded counters (``None`` if unused)."""
        hits = self.counters.get("zoo.cache_hit", 0)
        misses = self.counters.get("zoo.cache_miss", 0)
        total = hits + misses
        return None if total == 0 else hits / total

    @property
    def grid_scope(self) -> dict[str, float] | None:
        """What evaluation grids shared instead of redoing, plus corrupt
        archives met on the way (``None`` when none was recorded).

        ``warm_hits`` are artifact loads served from memory (disk reads
        saved); ``model_reuses`` are eval models served to a later cell,
        each skipping a model build and its engine's plan compiles.
        """
        rollup = {
            "warm_hits": self.counters.get("zoo.warm_hit", 0),
            "warm_misses": self.counters.get("zoo.warm_miss", 0),
            "model_reuses": self.counters.get("zoo.model_reuse", 0),
            "corrupt": self.counters.get("cache.corrupt", 0),
        }
        return rollup if any(rollup.values()) else None

    @property
    def resilience(self) -> dict[str, float] | None:
        """Fault-tolerance rollup: retries, crashes, timeouts, dead cells,
        chaos injections, and degraded/resumed grids (``None`` when the run
        recorded none of them)."""
        rollup = {
            "retries": self.counters.get("resilience.retry", 0),
            "crashes": self.counters.get("resilience.crash", 0),
            "timeouts": self.counters.get("resilience.timeout", 0),
            "failed_cells": self.counters.get("resilience.failed", 0),
            "chaos_injected": self.counters.get("chaos.injected", 0),
            "degraded_grids": self.event_counts.get("degraded", 0),
            "resumes": self.event_counts.get("resume", 0),
        }
        return rollup if any(rollup.values()) else None

    @property
    def queue(self) -> dict[str, Any] | None:
        """Work-queue rollup: claims, reclaims, quarantines, renewals, and
        per-worker throughput (``None`` when the run used no queue).

        Per-worker counts come from the ``queue.worker_tasks.<worker>``
        counters each completion increments, so a multi-process (or
        multi-host, given a merged ledger) drain shows who did the work.
        """
        claims = self.counters.get("queue.claims", 0)
        enqueued = self.counters.get("queue.enqueued", 0)
        if not claims and not enqueued:
            return None
        prefix = "queue.worker_tasks."
        per_worker = {
            name[len(prefix):]: int(value)
            for name, value in sorted(self.counters.items())
            if name.startswith(prefix)
        }
        rollup: dict[str, Any] = {
            "enqueued": enqueued,
            "claims": claims,
            "completions": self.counters.get("queue.completions", 0),
            "renewals": self.counters.get("queue.renewals", 0),
            "reclaims": self.counters.get("queue.reclaims", 0),
            "quarantines": self.counters.get("queue.quarantines", 0),
            "failures": self.counters.get("queue.failures", 0),
            "duplicate_completions": self.counters.get(
                "queue.duplicate_completions", 0
            ),
            "worker_deaths": self.counters.get("queue.worker_deaths", 0),
            "resumed_tasks": self.counters.get("queue.resumed_tasks", 0),
            "workers": per_worker,
        }
        if "queue.task_seconds" in self.hists:
            rollup["task_seconds_mean"] = self.hist_summary(
                "queue.task_seconds"
            )["mean"]
        return rollup

    @property
    def serve(self) -> dict[str, float] | None:
        """Serving rollup: request outcomes, batching, plan-cache churn
        (``None`` when the run served no traffic)."""
        requests = self.counters.get("serve.requests", 0)
        if not requests:
            return None
        rollup: dict[str, float] = {
            "requests": requests,
            "batches": self.counters.get("serve.batches", 0),
            "shed": self.counters.get("serve.shed", 0),
            "deadline_miss": self.counters.get("serve.deadline", 0),
            "batch_errors": self.event_counts.get("serve.batch_error", 0),
            "retries": self.counters.get("serve.retries", 0),
            "plan_compiles": self.counters.get("serve.plan_compiles", 0),
            "plan_evictions": self.counters.get("serve.plan_evictions", 0),
        }
        if "serve.batch_occupancy" in self.hists:
            rollup["occupancy_mean"] = self.hist_summary(
                "serve.batch_occupancy"
            )["mean"]
        if "serve.latency_s" in self.hists:
            latency = self.hist_summary("serve.latency_s")
            rollup["latency_p50_s"] = latency["p50"]
            rollup["latency_p99_s"] = latency["p99"]
        return rollup

    # ------------------------------------------------------------ output
    def to_dict(self) -> dict:
        out: dict[str, Any] = {
            "ledger": str(self.path),
            "records": self.n_records,
            "spans": self.n_spans,
            "processes": len(self.pids),
            "tree": [r.to_dict() for r in self.roots],
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": {n: self.hist_summary(n) for n in self.hists},
            "events": self.event_counts,
        }
        if self.cache_hit_rate is not None:
            out["cache_hit_rate"] = round(self.cache_hit_rate, 4)
        if self.grid_scope is not None:
            out["grid_scope"] = self.grid_scope
        if self.resilience is not None:
            out["resilience"] = self.resilience
        if self.queue is not None:
            out["queue"] = self.queue
        if self.serve is not None:
            out["serve"] = self.serve
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=repr)

    def render(self) -> str:
        lines = [
            f"{self.path.name}: {self.n_records} records, {self.n_spans} spans "
            f"across {len(self.pids)} process(es)"
        ]
        for root in self.roots:
            _render_node(root, lines, depth=0)
        if self.counters:
            lines.append("counters:")
            for name in sorted(self.counters):
                lines.append(f"  {name} = {_fmt_num(self.counters[name])}")
            if self.cache_hit_rate is not None:
                lines.append(f"  zoo cache hit rate = {self.cache_hit_rate:.1%}")
        if self.gauges:
            lines.append("gauges:")
            for name in sorted(self.gauges):
                lines.append(f"  {name} = {_fmt_num(self.gauges[name])}")
        if self.hists:
            lines.append("histograms:")
            for name in sorted(self.hists):
                s = self.hist_summary(name)
                lines.append(
                    f"  {name}: n={s['count']} mean={_fmt_num(s['mean'])} "
                    f"min={_fmt_num(s['min'])} max={_fmt_num(s['max'])}"
                )
        if self.grid_scope is not None:
            g = self.grid_scope
            lines.append(
                "grid scope: "
                f"{_fmt_num(g['warm_hits'])} artifact load(s) served from memory, "
                f"{_fmt_num(g['warm_misses'])} read from disk, "
                f"{_fmt_num(g['model_reuses'])} eval model(s) reused, "
                f"{_fmt_num(g['corrupt'])} corrupt archive(s)"
            )
        if self.resilience is not None:
            r = self.resilience
            lines.append(
                "resilience: "
                f"{_fmt_num(r['retries'])} retried, "
                f"{_fmt_num(r['crashes'])} crashed, "
                f"{_fmt_num(r['timeouts'])} timed out, "
                f"{_fmt_num(r['failed_cells'])} cells failed, "
                f"{_fmt_num(r['chaos_injected'])} chaos injections, "
                f"{_fmt_num(r['degraded_grids'])} degraded grid(s), "
                f"{_fmt_num(r['resumes'])} resume(s)"
            )
        if self.queue is not None:
            q = self.queue
            line = (
                "queue: "
                f"{_fmt_num(q['enqueued'])} enqueued, "
                f"{_fmt_num(q['claims'])} claims, "
                f"{_fmt_num(q['completions'])} completed, "
                f"{_fmt_num(q['renewals'])} heartbeat(s), "
                f"{_fmt_num(q['reclaims'])} reclaimed, "
                f"{_fmt_num(q['quarantines'])} quarantined, "
                f"{_fmt_num(q['duplicate_completions'])} duplicate(s), "
                f"{_fmt_num(q['worker_deaths'])} worker death(s)"
            )
            if q["workers"]:
                per = ", ".join(
                    f"{worker}={count}"
                    for worker, count in sorted(q["workers"].items())
                )
                line += f"; per-worker: {per}"
            lines.append(line)
        if self.serve is not None:
            s = self.serve
            line = (
                "serve: "
                f"{_fmt_num(s['requests'])} requests in "
                f"{_fmt_num(s['batches'])} batches, "
                f"{_fmt_num(s['shed'])} shed, "
                f"{_fmt_num(s['deadline_miss'])} deadline-missed, "
                f"{_fmt_num(s['batch_errors'])} batch error(s), "
                f"{_fmt_num(s['retries'])} retried, "
                f"{_fmt_num(s['plan_compiles'])} plan compile(s), "
                f"{_fmt_num(s['plan_evictions'])} eviction(s)"
            )
            if "latency_p50_s" in s:
                line += (
                    f"; latency p50 {1e3 * s['latency_p50_s']:.2f}ms "
                    f"p99 {1e3 * s['latency_p99_s']:.2f}ms"
                )
            lines.append(line)
        return "\n".join(lines)


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile over a copy (stdlib-only on purpose:
    the trace renderer must work on any ledger without numpy loaded)."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def _fmt_num(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def _fmt_attrs(attrs: dict) -> str:
    if not attrs:
        return ""
    parts = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, float):
            value = _fmt_num(value)
        parts.append(f"{key}={value}")
    return " [" + " ".join(parts) + "]"


def _render_node(node: SpanNode, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    error = f" ERROR:{node.error}" if node.error else ""
    lines.append(
        f"{pad}- {node.name} {node.seconds:.3f}s{_fmt_attrs(node.attrs)}{error}"
    )
    by_name: dict[str, list[SpanNode]] = {}
    for child in node.children:
        by_name.setdefault(child.name, []).append(child)
    for name, group in by_name.items():
        if len(group) > COLLAPSE_THRESHOLD:
            total = sum(c.seconds for c in group)
            slowest = max(group, key=lambda c: c.seconds)
            lines.append(
                f"{pad}  - {name} ×{len(group)} (total {total:.3f}s, "
                f"mean {total / len(group):.3f}s, "
                f"max {slowest.seconds:.3f}s{_fmt_attrs(slowest.attrs)})"
            )
        else:
            for child in group:
                _render_node(child, lines, depth + 1)


def build_report(path: str | Path, events: list[dict]) -> TraceReport:
    """Assemble the span forest and metric rollups from raw records."""
    nodes: dict[str, SpanNode] = {}
    spans: list[SpanNode] = []
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, list[float]] = {}
    event_counts: dict[str, int] = {}
    pids: set[int] = set()
    for record in events:
        pids.add(int(record.get("pid", 0)))
        kind = record.get("type")
        if kind == "span":
            node = SpanNode(
                name=str(record.get("name", "?")),
                span_id=str(record.get("id", "")),
                parent_id=record.get("parent"),
                start=float(record.get("start", record.get("ts", 0.0))),
                seconds=float(record.get("seconds", 0.0)),
                pid=int(record.get("pid", 0)),
                attrs=record.get("attrs") or {},
                error=record.get("error"),
            )
            nodes[node.span_id] = node
            spans.append(node)
        elif kind == "counter":
            name = str(record.get("name"))
            counters[name] = counters.get(name, 0) + float(record.get("value", 0))
        elif kind == "gauge":
            gauges[str(record.get("name"))] = float(record.get("value", 0))
        elif kind == "hist":
            hists.setdefault(str(record.get("name")), []).append(
                float(record.get("value", 0))
            )
        elif kind == "event":
            name = str(record.get("name"))
            event_counts[name] = event_counts.get(name, 0) + 1
    roots: list[SpanNode] = []
    for node in spans:
        parent = nodes.get(node.parent_id) if node.parent_id else None
        if parent is not None and parent is not node:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in spans:
        node.children.sort(key=lambda c: c.start)
    roots.sort(key=lambda c: c.start)
    return TraceReport(
        path=Path(path),
        roots=roots,
        counters=counters,
        gauges=gauges,
        hists=hists,
        event_counts=event_counts,
        n_records=len(events),
        n_spans=len(spans),
        pids=sorted(pids),
    )


def load_report(path: str | Path) -> TraceReport:
    """Read ``path`` (a ``*.jsonl`` ledger, or a directory holding runs —
    the newest ``run-*.jsonl`` is picked) into a :class:`TraceReport`."""
    path = Path(path)
    if path.is_dir():
        runs = sorted(
            (p for p in path.glob("*.jsonl") if ".worker-" not in p.name),
            key=lambda p: p.stat().st_mtime,
        )
        if not runs:
            raise FileNotFoundError(f"no run ledgers (*.jsonl) under {path}")
        path = runs[-1]
    elif not path.exists():
        raise FileNotFoundError(f"no run ledger at {path}")
    return build_report(path, read_events(path))
