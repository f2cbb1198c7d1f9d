"""The four workloads: what runs, at what size, and how it is checked.

Each workload has a *set-up* (timed separately, repeated so its median is
steady), a *task* that the runner repeats for the measured duration, and
checks run once after the timed phase.  Inputs come only from the seed:
it becomes ``ExperimentScale.base_seed``, the serve registry seed and the
arrival-schedule seed.

Every task starts from the in-process state a fresh interpreter would
have (suite, memo and cache directory reset), so repeats within one
process do the same work as the first and can be compared bit for bit.

| workload       | stresses                                  | bypasses                   |
|----------------|-------------------------------------------|----------------------------|
| zoo-cold       | training (GradPlan), prune scoring, writes| corruptions, eval sweeps   |
| potential-warm | artifact reads, corruptions, plan compiles| training                   |
| serve-open     | serve batching, small fixed-pad batches   | training, I/O, plan LRU    |
| grid-fanout    | per-cell overhead of repro.parallel       | in-process execution       |
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.data.datasets import cifar_like
from repro.experiments import (
    SMOKE,
    ZooSpec,
    build_zoo,
    cached_suite,
    corruption_potential_experiment,
    get_parent_state,
    get_prune_run,
    make_model,
    make_suite,
)
from repro.serve import audit_parity, build_bench_registry
from repro.serve.loadgen import BENCH_SHAPES

from benchmarks.suite import openloop
from benchmarks.suite.checks import Checks

SAMPLE_IMAGES = 64  # per evaluated model, for the engine-vs-Module check
PARITY_SAMPLES = 32  # served responses re-computed per rate

# Same width and recipe as SMOKE, shrunk so one task takes a few seconds
# on a 2-CPU host while training, not data, still dominates.
ZOO_SCALE = SMOKE.with_(
    n_train=128, n_test=64, parent_epochs=2, retrain_epochs=1,
    target_ratios=(0.3, 0.6, 0.85), n_repetitions=1,
)
POTENTIAL_SCALE = ZOO_SCALE.with_(n_test=32, parent_epochs=1)
# The smallest scale the zoo builds at: cells are tiny, so per-cell
# overhead (fork, IPC, poll, reload, recompile) dominates.
MICRO_SCALE = SMOKE.with_(
    n_train=48, n_test=24, image_size=8, num_classes=4, base_width=2,
    parent_epochs=1, retrain_epochs=0, target_ratios=(0.4,), n_repetitions=2,
)
QUICK_SCALE = MICRO_SCALE.with_(n_repetitions=1)


@dataclass
class TaskResult:
    """What one task did; ``seconds`` is the timed region only."""

    seconds: float
    item_seconds: list[float]  # latency of each item (artifact, eval cell, request)
    attempted: int
    failed: int
    outcome: object = None  # must repeat exactly for the same seed
    grids: list = field(default_factory=list)  # GridTiming of each dispatched grid
    phases: list = field(default_factory=list)  # openloop.PhaseResult
    plan_evictions: int = 0  # serve registry LRU evictions during the task


def fresh_cache(work_dir: Path, label: str) -> Path:
    """An empty ``REPRO_CACHE_DIR`` inside the run's work directory."""
    path = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=work_dir))
    os.environ["REPRO_CACHE_DIR"] = str(path)
    return path


def reset_process_caches() -> None:
    """Forget the suites and memoized results a fresh interpreter lacks."""
    cifar_like.cache_clear()
    cached_suite.cache_clear()
    corruption_potential_experiment.cache_clear()


def sample_images(suite) -> np.ndarray:
    """Up to ``SAMPLE_IMAGES`` normalized images of ``suite``."""
    images = np.concatenate([suite.train_set().images, suite.test_set().images])
    return suite.normalizer()(images[:SAMPLE_IMAGES])


def check_zoo_models(checks: Checks, specs, scale) -> None:
    """Engine vs Module on each artifact: parents and final checkpoints."""
    suite = make_suite("cifar", scale)
    images = sample_images(suite)
    parents = {}
    for spec in specs:
        parent = ZooSpec(spec.task_name, spec.model_name, None, spec.repetition)
        if parent not in parents:
            parents[parent] = make_model(parent, suite, scale)
            parents[parent].load_state_dict(get_parent_state(parent, scale))
            checks.logits_match_module(parent.key(scale), parents[parent], images)
        model = get_prune_run(spec, scale).restore(make_model(spec, suite, scale), -1)
        checks.logits_match_module(spec.key(scale), model, images)


class Workload:
    name = ""
    # Per-layer counters that must be non-zero in a traced task: span calls
    # ("<span>.calls") or counts derived from what the task returned.
    layers: tuple[str, ...] = ()

    def __init__(self, seed: int, quick: bool, work_dir: Path):
        self.seed = seed
        self.quick = quick
        self.work_dir = work_dir

    def setup(self) -> None:
        raise NotImplementedError

    def task(self, index: int, region) -> TaskResult:
        raise NotImplementedError

    def check(self, results: list[TaskResult], checks: Checks) -> None:
        raise NotImplementedError


class ZooCold(Workload):
    name = "zoo-cold"
    layers = ("training.train.calls", "training.eval.calls", "infer.train_step.calls",
              "infer.grad_compile.calls", "infer.logits.calls", "infer.plan_compile.calls",
              "infer.plan_run.calls", "pruning.prune.calls", "data.suite.calls",
              "io.save.calls", "io.load.calls", "experiments.zoo_cells", "parallel.cells")

    def setup(self) -> None:
        if self.quick:
            self.scale = QUICK_SCALE.with_(base_seed=self.seed)
            self.specs = [ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "ft")]
        else:
            self.scale = ZOO_SCALE.with_(base_seed=self.seed)
            self.specs = [
                ZooSpec("cifar", "resnet20", m, 0) for m in ("wt", "sipp", "ft", "pfp", "lowrank")
            ] + [ZooSpec("cifar", "vgg16", m, 0) for m in ("wt", "ft")]
        reset_process_caches()
        make_suite("cifar", self.scale).normalizer()

    def task(self, index, region) -> TaskResult:
        self.cache = fresh_cache(self.work_dir, f"zoo{index}")
        with region:
            timing = build_zoo(self.specs, self.scale, jobs=1)
        outcome = [
            (run.parent_test_error, run.test_errors.tolist())
            for run in (get_prune_run(spec, self.scale) for spec in self.specs)
        ]
        return TaskResult(
            seconds=region.seconds,
            item_seconds=[c.seconds for c in timing.cells],
            attempted=len(timing.cells) + len(timing.failures),
            failed=len(timing.failures),
            outcome=outcome,
            grids=[timing],
        )

    def check(self, results, checks) -> None:
        checks.audit_cache(self.cache)
        check_zoo_models(checks, self.specs, self.scale)
        checks.identical("prune curves", [r.outcome for r in results])


class PotentialSweep(Workload):
    """Corruption potentials of every (model, method) pair on a zoo built in set-up."""

    jobs = 1

    def build(self, scale, pairs, repetitions: int) -> None:
        self.scale = scale.with_(base_seed=self.seed)
        self.pairs = pairs
        self.specs = [
            ZooSpec("cifar", model, method, rep)
            for model, method in pairs
            for rep in range(repetitions)
        ]
        reset_process_caches()
        self.cache = fresh_cache(self.work_dir, f"{self.name}-setup")
        build_zoo(self.specs, self.scale, jobs=1)

    def task(self, index, region) -> TaskResult:
        reset_process_caches()
        with region:
            potentials = [
                corruption_potential_experiment("cifar", model, method, self.scale, jobs=self.jobs)
                for model, method in self.pairs
            ]
        eval_cells = [c for p in potentials for c in p.timing.cells if not c.cached]
        failures = sum(len(p.timing.failures) for p in potentials)
        return TaskResult(
            seconds=region.seconds,
            item_seconds=[c.seconds for c in eval_cells],
            attempted=len(eval_cells) + failures,
            failed=failures,
            outcome=[
                (p.potentials.tolist(), [c.errors.tolist() for cs in p.curves.values() for c in cs])
                for p in potentials
            ],
            grids=[p.timing for p in potentials],
        )

    def check(self, results, checks) -> None:
        checks.audit_cache(self.cache)
        check_zoo_models(checks, self.specs, self.scale)
        checks.identical("potentials", [r.outcome for r in results])


class PotentialWarm(PotentialSweep):
    name = "potential-warm"
    layers = ("infer.logits.calls", "infer.plan_compile.calls", "infer.plan_run.calls",
              "data.suite.calls", "data.corrupt.calls", "analysis.curve.calls",
              "io.load.calls", "experiments.eval_cells", "parallel.cells")

    def setup(self) -> None:
        if self.quick:
            self.build(QUICK_SCALE, [("resnet20", "wt")], 1)
        else:
            self.build(POTENTIAL_SCALE, [("resnet20", "wt"), ("resnet20", "ft"), ("vgg16", "ft")], 1)


class GridFanout(PotentialSweep):
    name = "grid-fanout"
    # Eval cells run in forked workers, out of the tracer's reach; the
    # parallel layer is measured from the returned GridTiming.
    layers = ("data.suite.calls", "experiments.eval_cells", "parallel.cells")
    jobs = 2

    def setup(self) -> None:
        methods = ("wt", "ft") if self.quick else ("wt", "ft", "pfp", "lowrank")
        scale = QUICK_SCALE if self.quick else MICRO_SCALE
        self.build(scale, [("resnet20", m) for m in methods], scale.n_repetitions)


class ServeOpen(Workload):
    name = "serve-open"
    layers = ("serve.server.calls", "infer.logits.calls", "infer.plan_run.calls",
              "serve.batches")
    LIGHT_RPS, HEAVY_RPS = 25.0, 400.0

    def setup(self) -> None:
        self.registry = build_bench_registry(seed=self.seed, budget_mb=48.0)
        for key in self.registry.keys():
            self.registry.warm(key, list(BENCH_SHAPES))
        self.light_n, self.heavy_n = (20, 60) if self.quick else (340, 1000)
        self.last_phases = ()

    def task(self, index, region) -> TaskResult:
        for phase in self.last_phases:
            phase.records.clear()  # only the last task's requests are audited
        evictions = self.registry.evictions
        base = self.seed * 1_000_003 + 2 * index
        with region:
            light = openloop.drive(
                self.registry, BENCH_SHAPES, self.LIGHT_RPS, self.light_n, base)
            heavy = openloop.drive(
                self.registry, BENCH_SHAPES, self.HEAVY_RPS, self.heavy_n, base + 1)
        self.last_phases = (light, heavy)
        return TaskResult(
            seconds=region.seconds,
            # Light load: no queue builds, so the latency is one batch's
            # window plus service time, steady across runs; the heavy-load
            # percentiles are reported alongside (serve_p99_ms_r400, ...).
            item_seconds=light.latency_s,
            attempted=len(light.statuses) + len(heavy.statuses),
            failed=light.failed + heavy.failed,
            phases=[light, heavy],
            plan_evictions=self.registry.evictions - evictions,
        )

    def check(self, results, checks) -> None:
        for phase in self.last_phases:
            parity = audit_parity(
                self.registry, phase.records, n_samples=PARITY_SAMPLES, seed=self.seed)
            checks.add(
                f"parity[r{phase.rate:g}]",
                parity["bitwise_equal"] and parity["sampled"] > 0,
                f"{parity['mismatches']} of {parity['sampled']} served responses differ",
            )
        rng = np.random.default_rng(self.seed)
        for key in self.registry.keys():
            for shape in BENCH_SHAPES:
                images = rng.standard_normal((SAMPLE_IMAGES,) + shape).astype(np.float32)
                checks.logits_match_module(
                    f"{key}@{'x'.join(map(str, shape))}", self.registry.model(key), images)

    def ladder(self) -> tuple[float, list[dict]]:
        """``serve_max_rps``: x1.25 rungs from 200 req/s, p99 <= 250 ms, no failures."""
        return openloop.ladder(
            self.registry, BENCH_SHAPES, self.seed, start_rps=200.0, step=1.25,
            n_requests=60 if self.quick else 1000, p99_limit_s=0.25,
        )


WORKLOADS = {w.name: w for w in (ZooCold, PotentialWarm, ServeOpen, GridFanout)}
