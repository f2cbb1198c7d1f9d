"""Noise experiments: prune potential vs noise level (Fig. 1/28) and
functional similarity under noise (Fig. 4, Appendix C.2).

The (repetition × noise level) potential grid runs through
:func:`~repro.experiments.corruption_study.evaluate_grid`, one cell per
(repetition, block of noise levels), each checkpoint swapped in once per
cell.  The caller builds every noisy test set before the fan-out, each
from its own (rep, level) seed, so the parallel results are identical to
the serial ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.functional_distance import noise_similarity
from repro.data.datasets import Dataset, TaskSuite
from repro.data.noise import add_uniform_noise
from repro.experiments.config import ExperimentScale
from repro.experiments.corruption_study import evaluate_grid
from repro.experiments.zoo import (
    ZooSpec,
    cached_suite,
    get_parent_state,
    get_prune_run,
    make_model,
    make_suite,
)
from repro.parallel import GridTiming
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


def noisy_test_set(
    suite: TaskSuite, scale: ExperimentScale, rep: int, level: int
) -> Dataset:
    """The normalized test set under noise level ``scale.noise_levels[level]``.

    The noise is drawn from the (rep, level) seed, so the parent and
    every checkpoint are compared on *identical* noisy inputs (noise is
    injected in normalized space per Section 4.1) and serial/parallel
    execution see the same bytes.
    """
    test = suite.test_set()
    eps = scale.noise_levels[level]
    rng = as_rng(scale.seed_for(rep) + 100 + level)
    return Dataset(
        add_uniform_noise(suite.normalizer()(test.images), eps, rng),
        test.labels,
        name=f"{test.name}+noise{eps:.2f}",
    )


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
) -> NoisePotentialResult:
    """Evaluate Definition 1 under ℓ∞ noise of growing magnitude.

    Every noisy test set is built here, before the fan-out.  Under
    ``on_error="collect"`` a failed cell (one repetition's block of noise
    levels) becomes NaN entries in ``potentials`` and the grid's failure
    manifest is persisted (see :mod:`repro.resilience`).
    """
    suite = cached_suite(task_name, scale)
    levels = range(len(scale.noise_levels))
    grid, timing = evaluate_grid(
        f"noise_potential[{task_name}/{model_name}/{method_name}]",
        [ZooSpec(task_name, model_name, method_name, rep) for rep in range(scale.n_repetitions)],
        [f"noise{eps:.2f}" for eps in scale.noise_levels],
        [
            [noisy_test_set(suite, scale, rep, li) for li in levels]
            for rep in range(scale.n_repetitions)
        ],
        scale,
        None,
        jobs=jobs, on_error=on_error, max_retries=max_retries, cell_timeout=cell_timeout,
    )
    potentials = np.full((scale.n_repetitions, len(scale.noise_levels)), np.nan)
    for rep in range(scale.n_repetitions):
        for li in levels:
            curve = grid.get((rep, li))
            if curve is not None:
                potentials[rep, li] = curve.potential(scale.delta)
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
