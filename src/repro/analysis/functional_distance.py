"""Functional-distance metrics under input noise (Section 4.1).

For two networks f and g and noise x' ~ D + U(-ε, ε)ⁿ we estimate

- the matching-prediction rate  E[argmax f(x') == argmax g(x')], and
- the softmax output distance   E‖softmax f(x') − softmax g(x')‖₂,

by repeated noise injection over a fixed image sample, as the paper does
(1000 test images × 100 noise draws; scaled presets shrink both).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import table
from repro.data.noise import add_uniform_noise
from repro.infer import engine_for
from repro.nn.module import Module
from repro.utils.rng import as_rng


def predictions_and_softmax(
    model: Module, images: np.ndarray, batch_size: int = 256
) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode predictions and softmax outputs for normalized ``images``.

    Forwards run through the :mod:`repro.infer` engine, whose fallback
    restores the caller's train/eval mode in a ``finally`` — an exception
    mid-eval can no longer leave ``model`` stuck in eval mode.
    """
    logits = engine_for(model).logits(images, batch_size=batch_size)
    probs = table.KERNELS["softmax"]((logits,), {"axis": 1})
    return logits.argmax(axis=1), probs


@dataclass
class NoiseSimilarity:
    """Result of one noise-similarity comparison at fixed ε."""

    eps: float
    match_rate: float
    match_rate_std: float
    l2_distance: float
    l2_distance_std: float


def noise_similarity(
    model_a: Module,
    model_b: Module,
    images: np.ndarray,
    eps: float,
    n_trials: int = 10,
    rng: np.random.Generator | int | None = 0,
    batch_size: int = 256,
) -> NoiseSimilarity:
    """Compare two models on noisy copies of normalized ``images``.

    Standard deviations are across noise trials.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    rng = as_rng(rng)
    match_rates, l2_dists = [], []
    for _ in range(n_trials):
        noisy = add_uniform_noise(images, eps, rng)
        preds_a, probs_a = predictions_and_softmax(model_a, noisy, batch_size)
        preds_b, probs_b = predictions_and_softmax(model_b, noisy, batch_size)
        match_rates.append(float((preds_a == preds_b).mean()))
        l2_dists.append(float(np.linalg.norm(probs_a - probs_b, axis=1).mean()))
    return NoiseSimilarity(
        eps=eps,
        match_rate=float(np.mean(match_rates)),
        match_rate_std=float(np.std(match_rates)),
        l2_distance=float(np.mean(l2_dists)),
        l2_distance_std=float(np.std(l2_dists)),
    )
