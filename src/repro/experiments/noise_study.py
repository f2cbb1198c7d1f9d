"""Noise experiments: prune potential vs noise level (Fig. 1/28) and
functional similarity under noise (Fig. 4, Appendix C.2).

The (repetition × noise level) potential grid runs through
:func:`~repro.experiments.grid.run_grid`; every cell derives its own rng
from (rep, level), so the parallel results are identical to the serial
ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import observe
from repro.analysis.functional_distance import noise_similarity
from repro.analysis.prune_potential import evaluate_curve
from repro.data.noise import add_uniform_noise
from repro.experiments.config import ExperimentScale
from repro.experiments.grid import run_grid
from repro.experiments.zoo import (
    ZooSpec,
    cached_suite,
    get_parent_state,
    get_prune_run,
    make_model,
    make_suite,
    scoped_model,
)
from repro.parallel import CellTiming, GridTiming
from repro.utils.rng import as_rng


@dataclass
class NoisePotentialResult:
    """Prune potential per noise level (Fig. 1)."""

    task_name: str
    model_name: str
    method_name: str
    noise_levels: np.ndarray  # (L,)
    potentials: np.ndarray  # (R, L)
    timing: GridTiming | None = None

    @property
    def mean(self) -> np.ndarray:
        return self.potentials.mean(axis=0)

    @property
    def std(self) -> np.ndarray:
        return self.potentials.std(axis=0)


def _noise_cell(payload) -> tuple[int, int, float, CellTiming]:
    """Evaluate one (repetition, noise level) cell (worker-side).

    The noisy copy is regenerated per cell from the (rep, level) seed, so
    the parent and every checkpoint are compared on *identical* noisy
    inputs (noise is injected in normalized space per Section 4.1) and
    serial/parallel execution see the same bytes.
    """
    from repro.data.datasets import Dataset

    task_name, model_name, method_name, scale, rep, li = payload
    t0 = time.perf_counter()
    eps = scale.noise_levels[li]
    with observe.span("eval_cell", grid="noise", rep=rep, noise_level=eps):
        suite = cached_suite(task_name, scale)
        test = suite.test_set()
        images_norm = suite.normalizer()(test.images)
        rng = as_rng(scale.seed_for(rep) + 100 + li)
        noisy = Dataset(
            add_uniform_noise(images_norm, eps, rng),
            test.labels,
            name=f"{test.name}+noise{eps:.2f}",
        )
        spec = ZooSpec(task_name, model_name, method_name, rep)
        run = get_prune_run(spec, scale)
        model = scoped_model(spec, suite, scale)
        curve = evaluate_curve(run, model, noisy, normalizer=None)
    observe.incr("eval.cells")
    timing = CellTiming(
        key=f"rep{rep}/noise{eps:.2f}", seconds=time.perf_counter() - t0
    )
    return rep, li, curve.potential(scale.delta), timing


def noise_potential_experiment(
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    *,
    jobs: int | None = None,
    on_error: str = "raise",
    max_retries: int | None = None,
    cell_timeout: float | None = None,
    executor: str | None = None,
    queue_dir: str | Path | None = None,
) -> NoisePotentialResult:
    """Evaluate Definition 1 under ℓ∞ noise of growing magnitude.

    Under ``on_error="collect"`` failed cells become NaN entries in
    ``potentials`` and the grid's failure manifest is persisted (see
    :mod:`repro.resilience`).
    """
    cells = [
        (
            ZooSpec(task_name, model_name, method_name, rep),
            f"rep{rep}/noise{eps:.2f}",
            (task_name, model_name, method_name, scale, rep, li),
        )
        for rep in range(scale.n_repetitions)
        for li, eps in enumerate(scale.noise_levels)
    ]
    results, timing = run_grid(
        f"noise_potential[{task_name}/{model_name}/{method_name}]",
        _noise_cell, cells, scale, jobs=jobs,
        on_error=on_error, max_retries=max_retries, cell_timeout=cell_timeout,
        executor=executor, queue_dir=queue_dir,
    )
    potentials = np.full((scale.n_repetitions, len(scale.noise_levels)), np.nan)
    for rep, li, potential, _ in filter(None, results):
        potentials[rep, li] = potential
    return NoisePotentialResult(
        task_name=task_name,
        model_name=model_name,
        method_name=method_name,
        noise_levels=np.asarray(scale.noise_levels),
        potentials=potentials,
        timing=timing,
    )


@dataclass
class NoiseSimilarityResult:
    """Matching predictions / softmax distance vs parent (Fig. 4)."""

    task_name: str
    model_name: str
    method_name: str
    noise_levels: np.ndarray  # (L,)
    ratios: np.ndarray  # (K,)
    match_rates: np.ndarray  # (K, L) pruned-vs-parent
    l2_distances: np.ndarray  # (K, L)
    separate_match_rates: np.ndarray  # (L,) separately trained net vs parent
    separate_l2_distances: np.ndarray  # (L,)


def noise_similarity_experiment(
    task_name: str,
    model_name: str,
    method_name: str,
    scale: ExperimentScale,
    repetition: int = 0,
) -> NoiseSimilarityResult:
    """Compare pruned networks and a separately trained network to the parent."""
    suite = make_suite(task_name, scale)
    normalizer = suite.normalizer()
    test = suite.test_set()
    images = normalizer(test.images[: scale.noise_images])

    spec = ZooSpec(task_name, model_name, method_name, repetition)
    run = get_prune_run(spec, scale)
    parent = make_model(spec, suite, scale)
    parent.load_state_dict(run.parent_state)

    # The "separately trained, unpruned network": the parent of another
    # repetition (different init and data order, same recipe).
    sep_spec = ZooSpec(task_name, model_name, None, repetition + 1)
    separate = make_model(sep_spec, suite, scale)
    separate.load_state_dict(get_parent_state(sep_spec, scale))

    pruned = make_model(spec, suite, scale)
    levels = np.asarray(scale.noise_levels)
    k = len(run.checkpoints)
    match = np.zeros((k, len(levels)))
    l2 = np.zeros((k, len(levels)))
    for ki, ckpt in enumerate(run.checkpoints):
        pruned.load_state_dict(ckpt.state)
        for li, eps in enumerate(levels):
            sim = noise_similarity(
                parent,
                pruned,
                images,
                eps,
                n_trials=scale.noise_trials,
                rng=scale.seed_for(repetition) + 300 + li,
            )
            match[ki, li] = sim.match_rate
            l2[ki, li] = sim.l2_distance

    sep_match = np.zeros(len(levels))
    sep_l2 = np.zeros(len(levels))
    for li, eps in enumerate(levels):
        sim = noise_similarity(
            parent,
            separate,
            images,
            eps,
            n_trials=scale.noise_trials,
            rng=scale.seed_for(repetition) + 400 + li,
        )
        sep_match[li] = sim.match_rate
        sep_l2[li] = sim.l2_distance

    return NoiseSimilarityResult(
        task_name=task_name,
        model_name=model_name,
        method_name=method_name,
        noise_levels=levels,
        ratios=run.ratios,
        match_rates=match,
        l2_distances=l2,
        separate_match_rates=sep_match,
        separate_l2_distances=sep_l2,
    )
