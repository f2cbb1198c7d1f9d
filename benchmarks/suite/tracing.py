"""Per-layer spans recorded from outside the program.

The tracer patches the public entry points of each ``repro`` layer for the
duration of a traced task and restores them afterwards, so no file under
``src/`` knows it is being measured and a refactor inside a layer cannot
move the counters.  Methods are patched on their classes; module-level
functions are patched in every ``repro`` module that holds a reference to
them, which is where their consumers look them up (``trace`` inside
``repro.infer.engine``, ``evaluate_curve`` inside
``repro.experiments.corruption_study``, ...).

A span's *self time* is its duration minus the time covered by its child
spans, so nested layers (an eval sweep calling the engine calling a plan)
are never counted twice.  Spans stay in memory and are written once, at
the end of the run.  Worker processes forked by ``repro.parallel`` inherit
the patches, but their spans die with them: the ``parallel`` layer is
measured from the returned ``GridTiming`` instead.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Called after a successful wrapped call as count(counts, args, kwargs, result).
CountFn = Callable[[Counter, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    """One entry point: ``owner.attr`` is recorded under span ``key``."""

    owner: object  # a class (method) or a module (function)
    attr: str
    key: str
    count: CountFn | None = None


class Tracer:
    """Span recorder with install/uninstall of the patches around a region."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, key, start, end
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- patching

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            if isinstance(target.owner, type):
                original = target.owner.__dict__[target.attr]
                sites = [target.owner]
            else:
                original = getattr(target.owner, target.attr)
                sites = [
                    module
                    for name, module in list(sys.modules.items())
                    if name.startswith("repro") and getattr(module, target.attr, None) is original
                ]
            wrapper = self._wrap(original, target)
            for site in sites:
                self._undo.append((site, target.attr, original))
                setattr(site, target.attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            site, attr, original = self._undo.pop()
            setattr(site, attr, original)

    def _wrap(self, fn, target: Target):
        tracer, key, count = self, target.key, target.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                tracer.self_seconds[key] += duration - frame[1]
                tracer.calls[key] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans.append((span_id, parent, key, start, end))
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper


# ------------------------------------------------------------------ counters


def _incr(name: str) -> CountFn:
    def count(counts, args, kwargs, result):
        counts[name] += 1

    return count


def _count_training(counts, args, kwargs, history):
    trainer = args[0]
    counts["training.samples"] += len(history) * len(trainer.task.train_set())


def _count_train_step(counts, args, kwargs, result):
    engine, x, y = args[:3]
    counts["infer.train_steps"] += 1
    if not engine.compiled_for(x, y):
        counts["infer.train_fallback_steps"] += 1


def _count_logits(counts, args, kwargs, result):
    engine, images = args[0], args[1]
    batch_size = kwargs.get("batch_size") or (args[2] if len(args) > 2 else None)
    counts["infer.logits_calls"] += 1
    counts["infer.images"] += len(images)
    if not engine.compiled_for(images[: batch_size or engine.batch_size]):
        counts["infer.module_fallbacks"] += 1


def _npz(path) -> Path:
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(".npz")


def _count_save(counts, args, kwargs, result):
    counts["io.saves"] += 1
    counts["io.bytes_written"] += Path(result).stat().st_size


def _count_load(counts, args, kwargs, result):
    counts["io.loads"] += 1
    counts["io.bytes_read"] += _npz(args[0]).stat().st_size


def repro_targets() -> list[Target]:
    """The public entry point of every layer, with the counters it feeds."""
    # Modules by import path: packages re-export functions that shadow
    # their submodules (``repro.analysis.prune_potential`` is one).
    prune_potential = importlib.import_module("repro.analysis.prune_potential")
    zoo = importlib.import_module("repro.experiments.zoo")
    engine = importlib.import_module("repro.infer.engine")
    trainengine = importlib.import_module("repro.infer.trainengine")
    serialization = importlib.import_module("repro.utils.serialization")
    from repro.data.datasets import TaskSuite
    from repro.infer.grad import GradPlan
    from repro.infer.plan import CompiledPlan
    from repro.pruning.base import PruneMethod
    from repro.serve.server import PruneServer
    from repro.training.trainer import Trainer

    return [
        Target(Trainer, "train", "training.train", _count_training),
        Target(Trainer, "evaluate", "training.eval"),
        Target(trainengine.TrainEngine, "step", "infer.train_step", _count_train_step),
        Target(trainengine, "trace_training", "infer.grad_compile"),
        Target(GradPlan, "__init__", "infer.grad_compile", _incr("infer.grad_compiles")),
        Target(engine.InferenceEngine, "logits", "infer.logits", _count_logits),
        Target(engine, "trace", "infer.plan_compile"),
        Target(CompiledPlan, "__init__", "infer.plan_compile", _incr("infer.plan_compiles")),
        Target(CompiledPlan, "run", "infer.plan_run"),
        Target(PruneMethod, "prune", "pruning.prune", _incr("pruning.prune_calls")),
        Target(zoo, "make_suite", "data.suite", _incr("data.suites")),
        # Suites generate their splits lazily, on first access.
        Target(TaskSuite, "train_set", "data.suite"),
        Target(TaskSuite, "test_set", "data.suite"),
        Target(TaskSuite, "shifted_test_set", "data.suite"),
        Target(TaskSuite, "corrupted_test_set", "data.corrupt", _incr("data.corrupt_sets")),
        Target(prune_potential, "evaluate_curve", "analysis.curve", _incr("analysis.curves")),
        Target(serialization, "save_state", "io.save", _count_save),
        Target(serialization, "load_state", "io.load", _count_load),
        Target(PruneServer, "submit", "serve.server"),
        Target(PruneServer, "pump", "serve.server"),
        Target(PruneServer, "run_until_idle", "serve.server"),
    ]


# Span keys, in report order; each becomes "<key>_frac" (share of traced
# task wall time spent in the layer itself) and "<key>_s" (self seconds
# per task, in the detailed report).
SPAN_KEYS = (
    "training.train",
    "training.eval",
    "infer.train_step",
    "infer.grad_compile",
    "infer.logits",
    "infer.plan_compile",
    "infer.plan_run",
    "pruning.prune",
    "data.suite",
    "data.corrupt",
    "analysis.curve",
    "io.save",
    "io.load",
    "serve.server",
)

# Counters normalised per traced task.
COUNT_KEYS = (
    "training.samples",
    "infer.train_steps",
    "infer.train_fallback_steps",
    "infer.grad_compiles",
    "infer.logits_calls",
    "infer.images",
    "infer.plan_compiles",
    "infer.module_fallbacks",
    "pruning.prune_calls",
    "data.suites",
    "data.corrupt_sets",
    "analysis.curves",
    "io.saves",
    "io.loads",
    "io.bytes_written",
    "io.bytes_read",
)
