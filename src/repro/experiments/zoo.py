"""Disk-cached model zoo: trained parents and prune runs.

Every experiment needs (model, method, repetition) triples produced by
PRUNERETRAIN.  Training them is the dominant cost, so the zoo caches two
artifact kinds under ``REPRO_CACHE_DIR`` (default ``./.cache/repro``):

- parent states, keyed by (task, model, repetition, robust, scale digest) —
  shared across all pruning methods, as in the paper where each network is
  trained once before pruning;
- prune runs, additionally keyed by method.

The cache is safe under concurrent builders: artifacts are published
atomically (see :mod:`repro.utils.serialization`), every train-on-miss is
guarded by a per-artifact file lock with a double-checked reload, and a
corrupt archive is treated as a cache miss (unlinked and recomputed, with a
``cache.corrupt`` counter and a warning) rather than a permanent failure.
:func:`build_zoo` fans a spec list out across worker processes, parents
first so prune runs never race their own dependency.

:func:`~repro.experiments.grid.run_grid` opens a :func:`grid_scope` around
a study grid's zoo probe and its cell dispatch, so its cells share each
loaded artifact (read-only) and one eval model per spec instead of
reloading and recompiling per cell.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro import observe
from repro.data.datasets import TaskSuite, cifar_like, imagenet_like, voc_like
from repro.experiments.config import ExperimentScale
from repro.experiments.grid import dispatch, record_grid
from repro.models import build_model
from repro.nn.module import Module
from repro.optim import MultiStepLR
from repro.parallel import (
    CellTiming,
    GridTiming,
    artifact_lock,
    resolve_jobs,
    stopwatch,
)
from repro.pruning import PruneRetrain, PruneRun, build_method, canonical_spec
from repro.resilience import CellFailure
from repro.training import TrainConfig, Trainer, default_robust_protocol
from repro.utils.rng import as_rng
from repro.utils.serialization import load_state, save_state
from repro.verify import runtime as verify_runtime


def cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", ".cache/repro"))


def clear_cache() -> None:
    """Delete all cached zoo artifacts (and their lock files)."""
    root = cache_dir()
    if root.exists():
        for pattern in ("*.npz", "*.lock"):
            for path in root.glob(pattern):
                path.unlink()


@dataclass(frozen=True)
class ZooSpec:
    """Identity of one zoo artifact.

    ``method_name`` accepts any registry spec string (``"wt"``,
    ``"lowrank(rank_frac=0.25)"``) and is normalized to its canonical form
    at construction, so equal method configurations always share one cache
    artifact and distinct hyperparameter settings never collide.
    """

    task_name: str = "cifar"  # cifar | imagenet | voc
    model_name: str = "resnet20"
    method_name: str | None = None
    repetition: int = 0
    robust: bool = False

    def __post_init__(self) -> None:
        if self.method_name is not None:
            object.__setattr__(self, "method_name", canonical_spec(self.method_name))

    def key(self, scale: ExperimentScale) -> str:
        method = self.method_name or "parent"
        robust = "robust" if self.robust else "nominal"
        return (
            f"{self.task_name}-{self.model_name}-{method}-rep{self.repetition}"
            f"-{robust}-{scale.digest()}"
        )


def make_suite(task_name: str, scale: ExperimentScale) -> TaskSuite:
    """The task suite for one of the paper's three data-set roles."""
    if task_name == "cifar":
        return cifar_like(
            seed=scale.base_seed,
            n_train=scale.n_train,
            n_test=scale.n_test,
            image_size=scale.image_size,
            num_classes=scale.num_classes,
        )
    if task_name == "imagenet":
        return imagenet_like(
            seed=scale.base_seed,
            n_train=scale.n_train,
            n_test=scale.n_test,
            image_size=scale.image_size + 8,
            num_classes=2 * scale.num_classes,
        )
    if task_name == "voc":
        return voc_like(
            seed=scale.base_seed,
            n_train=max(scale.n_train // 2, 100),
            n_test=max(scale.n_test // 2, 50),
            image_size=scale.image_size + 8,
        )
    raise ValueError(f"unknown task {task_name!r}; choose cifar, imagenet, or voc")


@functools.lru_cache(maxsize=8)
def cached_suite(task_name: str, scale: ExperimentScale) -> TaskSuite:
    """Per-process cache of :func:`make_suite`.

    Suites are deterministic in (task, scale), so grid cells dispatched to
    worker processes share one suite per process instead of regenerating
    the synthetic data per cell.
    """
    return make_suite(task_name, scale)


def make_model(spec: ZooSpec, suite: TaskSuite, scale: ExperimentScale) -> Module:
    """Freshly initialized model for ``spec`` (deterministic per repetition)."""
    seed = scale.seed_for(spec.repetition)
    return build_model(
        spec.model_name,
        num_classes=suite.num_classes,
        base_width=scale.base_width,
        rng=as_rng(seed),
    )


def make_trainer(
    model: Module, suite: TaskSuite, scale: ExperimentScale, spec: ZooSpec
) -> Trainer:
    """Trainer with the scale's recipe; robust specs get corruption augmentation."""
    parent_epochs = scale.parent_epochs
    if spec.robust:
        parent_epochs = int(round(parent_epochs * scale.robust_epochs_factor))
    config = TrainConfig(
        epochs=parent_epochs,
        batch_size=scale.batch_size,
        lr=scale.lr,
        momentum=scale.momentum,
        weight_decay=scale.weight_decay,
        warmup_epochs=scale.warmup_epochs,
        schedule=MultiStepLR(
            [m * parent_epochs for m in scale.lr_decay_milestones],
            scale.lr_decay_gamma,
        ),
        retrain_schedule=MultiStepLR(
            [m * scale.retrain_epochs for m in scale.lr_decay_milestones],
            scale.lr_decay_gamma,
        ),
        seed=scale.seed_for(spec.repetition) + 17,
    )
    augment_fn = None
    if spec.robust:
        protocol = default_robust_protocol(scale.severity)
        augment_fn = protocol.augmenter(rng=scale.seed_for(spec.repetition) + 29)
    return Trainer(model, suite, config, augment_fn=augment_fn)


def artifact_path(spec: ZooSpec, scale: ExperimentScale) -> Path:
    """Cache location of one zoo artifact."""
    return cache_dir() / f"{spec.key(scale)}.npz"


# ------------------------------------------------------------ grid scope


class _GridScope:
    """What the cells of one evaluation grid share.

    ``artifacts`` maps ``(path, st_ino, st_size, st_mtime_ns)`` to a loaded
    parent state or :class:`PruneRun` whose arrays are read-only; ``models``
    maps ``(spec, scale)`` to one eval model, hence one shared inference
    engine whose plans are compiled and self-checked once.
    """

    def __init__(self) -> None:
        self.artifacts: dict[tuple, dict[str, np.ndarray] | PruneRun] = {}
        self.models: dict[tuple[ZooSpec, ExperimentScale], Module] = {}


_SCOPE: _GridScope | None = None


@contextlib.contextmanager
def grid_scope() -> Iterator[None]:
    """Share loaded artifacts and eval models across one grid's cells.

    The scope lives exactly as long as the ``with`` block (a nested scope
    joins the open one), so a later grid reads from disk again, as in a
    fresh interpreter.  Entries are keyed on the archive's stat, so an
    artifact re-published or repaired mid-grid is reloaded, never served
    stale.  Pool workers forked inside the block inherit the scope and
    fill their own copy.
    """
    global _SCOPE
    outer = _SCOPE
    _SCOPE = outer or _GridScope()
    try:
        yield
    finally:
        _SCOPE = outer


def scoped_model(spec: ZooSpec, suite: TaskSuite, scale: ExperimentScale) -> Module:
    """The open grid scope's model for ``spec`` (:func:`make_model` outside
    one), sealed (:meth:`~repro.nn.module.Module.seal`).

    Consumers must leave its state as they found it, as
    :func:`~repro.analysis.prune_potential.evaluate_curve` does: they may
    swap states in with ``load_state_dict`` (which keeps it sealed), and an
    in-place write raises ``ValueError``.  Its inference engine then
    trusts each state by array identity and hashes it once per swap, not
    once per call.
    """
    if _SCOPE is None:
        return make_model(spec, suite, scale).seal()
    key = (spec, scale)
    model = _SCOPE.models.get(key)
    if model is None:
        model = _SCOPE.models[key] = make_model(spec, suite, scale).seal()
    else:
        observe.incr("zoo.model_reuse")
    return model


def _artifact_arrays(artifact: dict[str, np.ndarray] | PruneRun) -> Iterator[np.ndarray]:
    if isinstance(artifact, PruneRun):
        yield from artifact.parent_state.values()
        for ckpt in artifact.checkpoints:
            yield from ckpt.state.values()
    else:
        yield from artifact.values()


def _load_artifact(path: Path, load: Callable, unlink_corrupt: bool):
    """``load(path)``, shared through the open grid scope; ``None`` on a miss.

    A missing archive is a plain miss.  One that exists but fails to load
    is a miss too, but a loud one: it counts ``cache.corrupt`` and warns.
    The stat is taken before the read, so an archive replaced in between
    is stored under its old key and reloaded on the next lookup.
    """
    try:
        st = path.stat()
    except FileNotFoundError:
        return None
    key = (str(path), st.st_ino, st.st_size, st.st_mtime_ns)
    scope = _SCOPE
    if scope is not None and key in scope.artifacts:
        observe.incr("zoo.warm_hit")
        return scope.artifacts[key]
    try:
        artifact = load(path)
    except Exception as exc:
        observe.incr("cache.corrupt")
        warnings.warn(
            f"corrupt zoo artifact {path} treated as a cache miss "
            f"({type(exc).__name__}: {exc})",
            RuntimeWarning,
            stacklevel=3,
        )
        if unlink_corrupt:
            path.unlink(missing_ok=True)
        return None
    if scope is not None:
        observe.incr("zoo.warm_miss")
        for array in _artifact_arrays(artifact):
            array.flags.writeable = False
        scope.artifacts[key] = artifact
    return artifact


def _load_cached_state(
    path: Path, unlink_corrupt: bool = False
) -> dict[str, np.ndarray] | None:
    """Cached parent arrays, or ``None`` (a corrupt archive is a miss).

    ``unlink_corrupt`` may only be passed while holding the artifact lock:
    unlinking from the lock-free fast path can delete the *complete*
    archive a concurrent publisher just promoted over the torn one via
    ``os.replace`` (the corrupt read and the unlink are not atomic).
    """
    return _load_artifact(path, lambda p: load_state(p)[0], unlink_corrupt)


def _load_cached_run(path: Path, unlink_corrupt: bool = False) -> PruneRun | None:
    """Cached :class:`PruneRun`, or ``None`` (corrupt archives are misses).

    Corruption can also live in the metadata (e.g. truncated JSON), so the
    full reconstruction is attempted, not just the array load.  As with
    :func:`_load_cached_state`, ``unlink_corrupt`` is only safe under the
    artifact lock — a lock-free unlink races the atomic republish of a
    concurrent builder and can destroy its freshly published archive.
    """
    return _load_artifact(path, PruneRun.load, unlink_corrupt)


def _train_parent(parent_spec: ZooSpec, scale: ExperimentScale) -> dict[str, np.ndarray]:
    suite = make_suite(parent_spec.task_name, scale)
    model = make_model(parent_spec, suite, scale)
    trainer = make_trainer(model, suite, scale, parent_spec)
    trainer.train()
    return model.state_dict()


def get_parent_state(spec: ZooSpec, scale: ExperimentScale) -> dict[str, np.ndarray]:
    """Trained parent weights (cached, concurrency-safe).

    The fast path reads the cache without locking; on a miss the artifact
    lock is taken and the cache re-checked (another process may have
    finished training while we waited), so racing builders produce exactly
    one training run.
    """
    return _parent_state(spec, scale)[0]


def _parent_state(spec: ZooSpec, scale: ExperimentScale):
    """``(state, loaded)``: :func:`get_parent_state`'s weights, and whether
    they came from a cached artifact that loaded (not from training)."""
    parent_spec = _parent_of(spec)
    path = artifact_path(parent_spec, scale)
    state = _load_cached_state(path)
    if state is not None:
        return state, True
    with artifact_lock(path):
        # Under the lock it is safe to unlink a corrupt archive: no
        # concurrent publisher can be mid-replace on this path.
        state = _load_cached_state(path, unlink_corrupt=True)
        if state is not None:
            return state, True
        state = _train_parent(parent_spec, scale)
        save_state(path, state, {"spec": parent_spec.key(scale)})
    return state, False


def _train_prune_run(spec: ZooSpec, scale: ExperimentScale) -> PruneRun:
    suite = make_suite(spec.task_name, scale)
    model = make_model(spec, suite, scale)
    model.load_state_dict(get_parent_state(spec, scale))
    trainer = make_trainer(model, suite, scale, spec)
    pipeline = PruneRetrain(
        trainer,
        build_method(spec.method_name),
        retrain_epochs=scale.retrain_epochs,
        sample_size=scale.sample_size,
    )
    run = pipeline.run(target_ratios=scale.target_ratios)
    run.meta.update(
        {
            "task": spec.task_name,
            "model": spec.model_name,
            "repetition": spec.repetition,
            "robust": spec.robust,
        }
    )
    return run


def get_prune_run(spec: ZooSpec, scale: ExperimentScale) -> PruneRun:
    """A complete PRUNERETRAIN run (cached, concurrency-safe); requires
    ``method_name``.  Same fast-path / lock / re-check discipline as
    :func:`get_parent_state`."""
    return _prune_run(spec, scale)[0]


def _prune_run(spec: ZooSpec, scale: ExperimentScale):
    """``(run, loaded)``: :func:`get_prune_run`'s run, and whether it came
    from a cached artifact that loaded (not from pruning and retraining)."""
    if spec.method_name is None:
        raise ValueError("get_prune_run needs a method_name")
    path = artifact_path(spec, scale)
    run = _load_cached_run(path)
    if run is not None:
        verify_runtime.verify_loaded_run(run, path.name)
        return run, True
    with artifact_lock(path):
        run = _load_cached_run(path, unlink_corrupt=True)
        if run is not None:
            verify_runtime.verify_loaded_run(run, path.name)
            return run, True
        run = _train_prune_run(spec, scale)
        run.save(path)
    return run, False


# ----------------------------------------------------------- zoo building


def _build_cell(payload: tuple[ZooSpec, ExperimentScale]) -> CellTiming:
    """Materialize one artifact (worker-side)."""
    spec, scale = payload
    kind = "parent" if spec.method_name is None else "prune_run"
    t0 = time.perf_counter()
    with observe.span("zoo_cell", key=spec.key(scale), kind=kind) as sp:
        # A cell is a cache hit only if its artifact loaded: a torn or
        # corrupt one that is rebuilt is a miss.
        if spec.method_name is None:
            _, cached = _parent_state(spec, scale)
        else:
            _, cached = _prune_run(spec, scale)
        sp.set(cached=cached)
    observe.incr("zoo.cache_hit" if cached else "zoo.cache_miss")
    return CellTiming(
        key=spec.key(scale), seconds=time.perf_counter() - t0, cached=cached
    )


def _parent_of(spec: ZooSpec) -> ZooSpec:
    return ZooSpec(spec.task_name, spec.model_name, None, spec.repetition, spec.robust)


def parent_specs(specs: Iterable[ZooSpec]) -> list[ZooSpec]:
    """Unique parent specs underlying ``specs`` (order-preserving)."""
    return list(dict.fromkeys(_parent_of(spec) for spec in specs))


def _build_phase(
    specs: list[ZooSpec],
    upstreams: list[str | None],
    scale: ExperimentScale,
    **knobs,
) -> tuple[list[CellTiming], list[CellFailure]]:
    """One fan-out of :func:`build_artifacts`: built cells and failures."""
    results, failures = dispatch(
        _build_cell,
        [s.key(scale) for s in specs],
        [(s, scale) for s in specs],
        upstreams,
        **knobs,
    )
    return [cell for cell in results if cell is not None], failures


def build_artifacts(
    specs: Sequence[ZooSpec], scale: ExperimentScale, **knobs
) -> tuple[list[CellTiming], list[CellFailure]]:
    """Materialize every artifact in ``specs``; returns the built cells
    and the failures.

    Dependency-aware fan-out: all (deduplicated) parent states are built
    first, then the prune runs — so parallel prune workers always find
    their parent in the cache instead of serializing on its lock.
    ``knobs`` are :func:`~repro.experiments.grid.dispatch`'s.  Records
    nothing: :func:`build_zoo` and
    :func:`~repro.experiments.grid.run_grid` each record their grid once.
    """
    specs = list(specs)
    parents = parent_specs(specs)
    prune = [s for s in specs if s.method_name is not None]
    with observe.span(
        "build_zoo",
        specs=len(specs),
        jobs=resolve_jobs(knobs.get("jobs")),
        on_error=knobs.get("on_error", "raise"),
    ) as span:
        cells, failures = _build_phase(parents, [None] * len(parents), scale, **knobs)
        # Prune runs whose parent failed would retrain it inline under
        # the artifact lock (and likely die the same way); skip them as
        # dependency failures instead.
        dead = {f.key for f in failures}
        parent_keys = [_parent_of(s).key(scale) for s in prune]
        prune_cells, prune_failures = _build_phase(
            prune,
            [f"parent cell {key}" if key in dead else None for key in parent_keys],
            scale,
            **knobs,
        )
        failures += prune_failures
        if failures:
            span.set(failed=len(failures))
    return cells + prune_cells, failures


def build_zoo(
    specs: Sequence[ZooSpec],
    scale: ExperimentScale,
    jobs: int | None = None,
    *,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
) -> GridTiming:
    """Materialize every artifact in ``specs`` across ``jobs`` processes
    (:func:`build_artifacts`).

    Idempotent; cached artifacts are cheap cache probes.  Returns the
    per-artifact and end-to-end wall-clock record.

    With ``on_error="collect"`` a dead cell (exception, worker crash, or
    deadline blown — after ``max_retries`` attempts, see
    :mod:`repro.resilience`) no longer aborts the build: surviving cells
    complete, prune runs whose parent failed are skipped as
    ``dependency`` failures instead of retraining the parent under a
    worker lock, and every failure is recorded in a
    :class:`~repro.resilience.failures.FailureManifest` under the cache
    dir.  The returned :class:`GridTiming` carries the failures and the
    manifest path.

    A degraded build, or one killed outright (SIGKILL, OOM, power loss),
    recovers by running it again: each artifact is published by an atomic
    rename under a lock the kernel releases when its holder dies, so every
    artifact finished before the fault is a cache hit and only the rest
    are built.
    """
    with stopwatch() as elapsed:
        cells, failures = build_artifacts(
            specs,
            scale,
            jobs=jobs,
            on_error=on_error,
            max_retries=max_retries,
            cell_timeout=cell_timeout,
        )
        wall = elapsed()
    return record_grid("build_zoo", jobs, wall, cells, failures)


#: Every zoo artifact the benchmarks touch, cheapest first, as
#: (task, model, method, repetitions, robust); ``python -m repro zoo``
#: builds it up front so the benchmarks spend their time on analyses.
BENCH_ZOO: list[tuple[str, str, str, int, bool]] = [
    ("cifar", "resnet20", "wt", 2, False),
    ("cifar", "resnet20", "sipp", 2, False),
    ("cifar", "resnet20", "ft", 2, False),
    ("cifar", "resnet20", "pfp", 2, False),
    ("cifar", "resnet20", "lowrank", 2, False),
    ("cifar", "resnet20", "uniform", 2, False),
    ("cifar", "resnet20", "random", 2, False),
    ("cifar", "resnet20", "wt", 2, True),
    ("cifar", "resnet20", "ft", 2, True),
    ("cifar", "vgg16", "wt", 2, False),
    ("cifar", "vgg16", "ft", 2, False),
    ("cifar", "wrn16_8", "wt", 2, False),
    ("cifar", "wrn16_8", "ft", 2, False),
    ("imagenet", "resnet18", "wt", 1, False),
    ("imagenet", "resnet18", "ft", 1, False),
    ("voc", "deeplab_small", "wt", 1, False),
    ("voc", "deeplab_small", "ft", 1, False),
    ("voc", "deeplab_small", "pfp", 1, False),
]


def bench_zoo_specs() -> list[ZooSpec]:
    """The flat spec list behind ``BENCH_ZOO``."""
    return [
        ZooSpec(task, model, method, rep, robust)
        for task, model, method, reps, robust in BENCH_ZOO
        for rep in range(reps)
    ]
