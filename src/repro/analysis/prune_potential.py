"""Prune potential (Definition 1) from prune-accuracy curves.

The prune potential P(θ, D) is the maximal prune ratio whose pruned network
(produced by PRUNERETRAIN) keeps its expected loss within margin δ of the
unpruned parent *on distribution D*.  With the paper's indicator loss this
is: the largest achieved ratio whose test error on D exceeds the parent's
error on D by at most δ (δ = 0.5% by default); 0 if no ratio qualifies.

:func:`evaluate_curve` measures the curves of one prune run on several
distributions at once: it swaps each network (the parent, then every
checkpoint) into the model once and evaluates it on every distribution,
so a grid of D distributions refreshes the compiled plan once per
network, not D times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.data.datasets import Dataset, Normalizer
from repro.infer import engine_for
from repro.nn.module import Module, preserve_state
from repro.pruning.pipeline import PruneRun
from repro.training.trainer import evaluate_model
from repro.verify import runtime as verify_runtime

DEFAULT_DELTA = 0.005


@dataclass
class PruneAccuracyCurve:
    """Errors of the parent and each pruned checkpoint on one distribution."""

    distribution: str
    ratios: np.ndarray
    errors: np.ndarray
    parent_error: float

    def potential(self, delta: float = DEFAULT_DELTA) -> float:
        return prune_potential_from_curve(
            self.ratios, self.errors, self.parent_error, delta
        )


def prune_potential_from_curve(
    ratios: np.ndarray,
    errors: np.ndarray,
    parent_error: float,
    delta: float = DEFAULT_DELTA,
) -> float:
    """Largest ratio with ``error <= parent_error + delta``; 0 if none."""
    ratios = np.asarray(ratios, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if ratios.shape != errors.shape:
        raise ValueError(f"shape mismatch: {ratios.shape} vs {errors.shape}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    ok = errors <= parent_error + delta
    if not ok.any():
        return 0.0
    return float(ratios[ok].max())


def evaluate_curve(
    run: PruneRun,
    model: Module,
    datasets: Sequence[Dataset],
    normalizer: Normalizer | None = None,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[PruneAccuracyCurve]:
    """Evaluate the parent and every checkpoint of ``run`` on each of
    ``datasets``; returns one curve per dataset, in order.

    ``model`` must share the run's architecture.  The sweep is
    checkpoint-outer: each state (the parent, then every checkpoint) is
    swapped into ``model`` once and evaluated on every dataset, and the
    caller's state is restored on exit (also on exception).  ``transform``
    applies to normalized inputs (noise injection); it is called per
    batch, state by state, so a transform drawing from its own rng draws
    in a different order than one call per dataset would.
    """

    # One engine serves the whole sweep; each load_state_dict changes the
    # model's state signature, which re-densifies the cached plans once
    # per state instead of recompiling them.
    engine = engine_for(model)

    def errors_of(state: dict) -> list[float]:
        model.load_state_dict(state)
        return [
            evaluate_model(
                engine, d.images, d.labels, normalizer, transform=transform
            )["error"]
            for d in datasets
        ]

    with preserve_state(model):
        parent_errors = errors_of(run.parent_state)
        errors = [errors_of(c.state) for c in run.checkpoints]
    curves = [
        PruneAccuracyCurve(
            distribution=dataset.name,
            ratios=run.ratios,
            errors=np.array([row[i] for row in errors]),
            parent_error=parent_errors[i],
        )
        for i, dataset in enumerate(datasets)
    ]
    for curve in curves:
        verify_runtime.verify_curve(curve)
    return curves


def prune_potential(
    run: PruneRun,
    model: Module,
    dataset: Dataset,
    normalizer: Normalizer | None = None,
    delta: float = DEFAULT_DELTA,
    transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> float:
    """Definition 1 for the networks of ``run`` on ``dataset``."""
    [curve] = evaluate_curve(run, model, [dataset], normalizer, transform)
    return curve.potential(delta)
