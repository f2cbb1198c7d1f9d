"""Shared machinery for structured (channel) pruning.

Structured methods prune *input channels* of conv layers — the ``W_:j``
columns of Table 1 — which is equivalent to removing the producing layer's
filters.  A pruned channel zeroes an entire column of the weight tensor, so
channel decisions translate directly into weight prune ratios and FLOP
reductions.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.module import Module
from repro.pruning.mask import (
    model_prune_ratio,
    prunable_layers,
    structured_prunable_layers,
    total_prunable_weights,
)


def channel_weight_cost(layer: Conv2d) -> int:
    """Weights removed by pruning one input channel of ``layer``."""
    return layer.out_channels * layer.kernel_size * layer.kernel_size


def pruned_channels(layer: Conv2d) -> np.ndarray:
    """Boolean (C,) array of input channels that are fully masked."""
    return (layer.weight_mask.sum(axis=(0, 2, 3)) == 0)


def apply_channel_counts(
    model: Module,
    sensitivities: Mapping[str, np.ndarray],
    counts: Mapping[str, int],
) -> float:
    """Prune the ``counts[name]`` lowest-sensitivity channels of each layer.

    Counts are cumulative (include already-pruned channels); already-pruned
    channels always sort lowest, so the operation is monotone.  Returns the
    achieved model weight prune ratio.
    """
    for name, layer in structured_prunable_layers(model):
        count = counts.get(name, 0)
        scores = sensitivities[name].astype(np.float64).copy()
        scores[pruned_channels(layer)] = -np.inf
        if count >= layer.in_channels:
            raise ValueError(f"cannot prune all {layer.in_channels} channels of {name}")
        drop = np.argsort(scores, kind="stable")[:count]
        mask = layer.weight_mask.copy()
        mask[:, drop, :, :] = 0.0
        layer.set_weight_mask(mask)
    return model_prune_ratio(model)


def solve_counts_for_target(
    model: Module,
    target_ratio: float,
    counts_at: Callable[[float], dict[str, int]],
) -> dict[str, int]:
    """Bisect a scalar knob in [0, 1] so the weight ratio reaches the target.

    ``counts_at(t)`` maps the knob (a uniform prune fraction for FT, an
    error budget for PFP) to cumulative per-layer channel counts; counts
    must be non-decreasing in ``t``.  Returns the counts of the smallest
    knob whose predicted ratio >= target, or the maximum-prune counts if the
    target is unreachable (structured methods cannot touch every weight).
    """
    layers = dict(structured_prunable_layers(model))
    costs = {name: channel_weight_cost(layer) for name, layer in layers.items()}
    total = total_prunable_weights(model)
    # Weights pruned in layers structured methods cannot touch (carried over
    # state, e.g. if a mask was loaded) still count toward the ratio.
    carried = sum(
        layer.num_pruned for name, layer in prunable_layers(model) if name not in layers
    )

    def achieved_ratio(counts: Mapping[str, int]) -> float:
        """Predicted weight prune ratio if ``counts`` channels are pruned."""
        pruned = sum(counts.get(name, 0) * cost for name, cost in costs.items())
        return (pruned + carried) / total

    if achieved_ratio(counts_at(1.0)) < target_ratio:
        return counts_at(1.0)

    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if achieved_ratio(counts_at(mid)) >= target_ratio:
            hi = mid
        else:
            lo = mid
    return counts_at(hi)
