"""One measured run of one workload: set-up, timed tasks, checks, result.

The run sets up ``SETUP_REPEATS`` times (``setup_s`` is the median of a
fresh interpreter's import time plus the workload's set-up), then repeats
the workload's task until ``--seconds`` have passed and at least
``MIN_TASKS`` ran, then checks the outputs.

``task_s`` is the fastest untraced task.  The host is shared: other
tenants slow it by up to 1.5x for seconds to minutes at a time, and
interference only ever adds time, so the fastest repeat is the steadiest
estimate of what the task itself costs (the ``timeit`` rule).  Medians
and quartiles are taken across runs, by ``python -m benchmarks.suite``.

With ``--trace 1`` the tasks alternate untraced and traced in ABBA order
(U T T U U T T U ...), so host drift hits both sides alike;
``trace.overhead_frac`` is the traced over the untraced median task time,
minus one, and every per-layer metric comes from the traced tasks.

The last line of standard output is the JSON result; the lines before it
are a human-readable table of every metric, including workload-specific
ones (``serve_p99_ms_r400``, ...) that the end-to-end set cannot carry
because every workload must report every end-to-end metric.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.infer import InferenceEngine
from repro.serve.loadgen import BENCH_BATCH_SIZE

from benchmarks.suite import host, tracing
from benchmarks.suite.checks import Checks
from benchmarks.suite.stats import tail
from benchmarks.suite.workloads import WORKLOADS

SETUP_REPEATS = 3
MIN_TASKS = 3
TRACE_MIN_TASKS = 4  # one full ABBA cycle
WORK_DIR = ".bench_work"


class Region:
    """The timed part of one task; traced when given a tracer."""

    def __init__(self, tracer: tracing.Tracer | None = None):
        self.tracer = tracer
        self.seconds = 0.0

    def __enter__(self) -> "Region":
        if self.tracer is not None:
            self.tracer.install()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._t0
        if self.tracer is not None:
            self.tracer.uninstall()


def declared_metrics(root: Path) -> dict[str, dict[str, str]]:
    """Units of the metrics BENCHMARK.json declares, by section."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {
        section: {m["name"]: m["unit"] for m in spec[section]}
        for section in ("end_to_end", "per_layer")
    }


def _grid_metrics(results) -> tuple[dict[str, float], dict[str, float]]:
    """experiments.* and parallel.* from the GridTimings the tasks returned."""
    grids = [g for r in results for g in r.grids]
    cells = [c for g in grids for c in g.cells]
    zoo = [c for c in cells if "/" not in c.key]  # eval cells are "rep0/nominal"
    busy = sum(c.seconds for c in cells)
    capacity = sum(g.wall_seconds * g.jobs for g in grids)
    out = {
        "experiments.zoo_cells": len(zoo) / len(results),
        "experiments.zoo_hit_ratio": sum(c.cached for c in zoo) / len(zoo) if zoo else 0.0,
        "experiments.eval_cells": (len(cells) - len(zoo)) / len(results),
        "parallel.cells": len(cells) / len(results),
        "parallel.busy_frac": busy / capacity if capacity else 0.0,
        "parallel.overhead_frac": 1 - busy / capacity if capacity else 0.0,
    }
    detail = {
        "parallel.overhead_ms_per_cell": 1e3 * (capacity - busy) / len(cells) if cells else 0.0,
        "experiments.zoo_cell_ms": 1e3 * statistics.mean(c.seconds for c in zoo) if zoo else 0.0,
        "experiments.eval_cell_ms": (
            1e3 * statistics.mean(c.seconds for c in cells if "/" in c.key)
            if len(cells) > len(zoo) else 0.0
        ),
    }
    return out, detail


def _serve_metrics(results) -> dict[str, float]:
    phases = [p for r in results for p in r.phases]
    rows = [n for p in phases for n in p.batch_rows]
    return {
        "serve.batches": len(rows) / len(results),
        "serve.rows_per_batch": statistics.mean(rows) if rows else 0.0,
        # Every batch is padded to the registry's batch size.
        "serve.pad_efficiency": sum(rows) / (BENCH_BATCH_SIZE * len(rows)) if rows else 0.0,
        "serve.plan_evictions": sum(r.plan_evictions for r in results) / len(results),
        "serve.shed": sum(p.statuses.count("shed") for p in phases) / len(results),
        "serve.deadline_miss": sum(p.statuses.count("deadline") for p in phases) / len(results),
    }


def _serve_extras(results) -> dict[str, dict]:
    """Latency by offered rate, timed from the schedule, pooled over tasks."""
    extras = {}
    by_rate: dict[float, list] = {}
    for r in results:
        for p in r.phases:
            by_rate.setdefault(p.rate, []).append(p)
    for rate, phases in sorted(by_rate.items()):
        latency = [1e3 * s for p in phases for s in p.latency_s]
        extras[f"serve_p50_ms_r{rate:g}"] = _extra(statistics.median(latency), "ms", len(latency))
        level, value = tail(latency)
        extras[f"serve_p{level}_ms_r{rate:g}"] = _extra(value, "ms", len(latency))
    phases = [p for r in results for p in r.phases]
    for name, samples in (
        ("serve.gen_late_ms", [1e3 * s for p in phases for s in p.gen_late_s]),
        ("serve.queue_wait_ms", [1e3 * s for p in phases for s in p.queue_wait_s]),
    ):
        level, value = tail(samples)
        extras[f"{name}_p{level}"] = _extra(value, "ms", len(samples))
    engine = [1e3 * s for p in phases for s in p.engine_s]
    extras["serve.engine_ms"] = _extra(statistics.mean(engine), "ms", len(engine))
    return extras


def _extra(value: float, unit: str, n: int) -> dict:
    return {"value": value, "unit": unit, "n": n}


def import_seconds(root: Path) -> float:
    """Seconds a fresh interpreter takes to import numpy and every repro layer."""
    code = (
        "import time; t0 = time.perf_counter(); import benchmarks.suite.runner; "
        "print(time.perf_counter() - t0)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env,
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout)


def measure(args, root: Path, env: dict) -> dict:
    """Run one workload as ``args`` say; returns the full report."""
    declared = declared_metrics(root)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    try:
        probe_before = host.speed_probe()
        workload = WORKLOADS[args.workload](args.seed, args.quick, work_dir)
        # A set-up is what a fresh process pays before its first task: the
        # imports, then the workload's own set-up.
        imports, setups = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds(root))
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)

        tracer = tracing.Tracer(tracing.repro_targets()) if args.trace else None
        min_tasks = TRACE_MIN_TASKS if tracer else MIN_TASKS
        results, traced = [], []
        start = time.perf_counter()
        while len(results) < min_tasks or time.perf_counter() - start < args.seconds:
            on = tracer is not None and len(results) % 4 in (1, 2)
            region = Region(tracer if on else None)
            results.append(workload.task(len(results), region))
            traced.append(on)
            if len(results) == 1:
                # Set-up plus one task: the same work on every run, however
                # many tasks fit in --seconds (memory the tasks leak would
                # otherwise scale the peak with host speed).
                peak_rss = host.peak_rss_mb()

        checks = Checks()
        workload.check(results, checks)
        ladder = workload.ladder() if args.ladder else None
        gc.collect()
        live_engines = sum(isinstance(o, InferenceEngine) for o in gc.get_objects())
        probe_after = host.speed_probe()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            (root / WORK_DIR).rmdir()
        except OSError:  # another run is still using it
            pass
        for child in multiprocessing.active_children():
            child.join()

    plain = [r for r, on in zip(results, traced) if not on]
    items = [s for r in plain for s in r.item_seconds]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    extras = {
        "item_p50_ms": _extra(1e3 * statistics.median(items), "ms", len(items)),
        "fail_frac": _extra(failed / attempted, "frac", attempted),
        "check_failures": _extra(len(checks.failures), "count", len(checks.results)),
    }
    if workload.name == "grid-fanout":
        cells_per_s = [len(r.item_seconds) / r.seconds for r in plain]
        extras["grid_cells_per_s"] = _extra(statistics.median(cells_per_s), "cells/s", len(plain))
    if workload.name == "serve-open":
        extras.update(_serve_extras(plain))
    if ladder is not None:
        extras["serve_max_rps"] = _extra(ladder[0], "req/s", len(ladder[1]))

    values = {}
    detail = {}
    if tracer is None:
        values = {
            "setup_s": statistics.median(i + s for i, s in zip(imports, setups)),
            "task_s": min(r.seconds for r in plain),
            "peak_rss_mb": peak_rss,
        }
        section = "end_to_end"
    else:
        on = [r for r, t in zip(results, traced) if t]
        wall, n = sum(r.seconds for r in on), len(on)
        for key in tracing.SPAN_KEYS:
            values[f"{key}_frac"] = tracer.self_seconds[key] / wall
            detail[f"{key}_s"] = tracer.self_seconds[key] / n
            detail[f"{key}.calls"] = tracer.calls[key] / n
        for key in tracing.COUNT_KEYS:
            values[key] = tracer.counts[key] / n
        grid_values, grid_detail = _grid_metrics(on)
        values.update(grid_values)
        detail.update(grid_detail)
        values.update(_serve_metrics(on))
        values.update({
            "infer.live_engines": live_engines,
            "verify.checks": len(checks.results),
            "verify.failed": len(checks.failures),
            "host.gemm_gflops": (probe_before["gemm_gflops"] + probe_after["gemm_gflops"]) / 2,
            "host.py_loop_ns": (probe_before["py_loop_ns"] + probe_after["py_loop_ns"]) / 2,
            "trace.overhead_frac": (
                statistics.median(r.seconds for r in on)
                / statistics.median(r.seconds for r in plain) - 1
            ),
        })
        for key, rate_of in (
            ("training.samples_per_s", ("training.samples", "training.train_s")),
            ("infer.images_per_s", ("infer.images", "infer.logits_s")),
        ):
            count, seconds = values[rate_of[0]], detail[rate_of[1]]
            detail[key] = count / seconds if seconds else 0.0
        detail["infer.train_step_ms"] = (
            1e3 * detail["infer.train_step_s"] / values["infer.train_steps"]
            if values["infer.train_steps"] else 0.0
        )
        section = "per_layer"

    undeclared = set(values) - set(declared[section])
    missing = set(declared[section]) - set(values)
    if undeclared or missing:
        raise RuntimeError(
            f"{section} metrics differ from BENCHMARK.json: "
            f"undeclared {sorted(undeclared)}, missing {sorted(missing)}"
        )
    metrics = {name: {"value": values[name], "unit": declared[section][name]} for name in values}
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": bool(tracer),
        "result": {
            "correct": not checks.failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "extras": extras,
        "layer_detail": detail,
        "setup": {"import_s": imports, "workload_s": setups},
        "tasks": [
            {"seconds": r.seconds, "traced": on, "item_seconds": r.item_seconds,
             "attempted": r.attempted, "failed": r.failed}
            for r, on in zip(results, traced)
        ],
        "outcome": results[0].outcome,
        "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in checks.results],
        "host": {"fingerprint": host.fingerprint(), "env": env,
                 "probe_before": probe_before, "probe_after": probe_after},
        "ladder": ladder[1] if ladder else None,
        "spans": tracer.spans if tracer else None,
    }


def print_table(report: dict) -> None:
    """Every metric by name with its unit and sample count, then the checks."""
    tasks = report["tasks"]
    print(
        f"# {report['workload']} seed={report['seed']} tasks={len(tasks)} "
        f"(traced {sum(t['traced'] for t in tasks)}) setup repeats={SETUP_REPEATS}"
    )
    for name, m in report["result"]["metrics"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    for name, m in report["extras"].items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}  (n={m['n']})")
    for name, value in report["layer_detail"].items():
        print(f"{name:34s} {value:14.6g}")
    for check in report["checks"]:
        if not check["passed"]:
            print(f"CHECK FAILED {check['name']}: {check['detail']}")
    print(f"checks passed: {sum(c['passed'] for c in report['checks'])}/{len(report['checks'])}")
