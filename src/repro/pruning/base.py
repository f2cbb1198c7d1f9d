"""Pruning method interface and activation capture for data-informed methods.

A :class:`PruneMethod` installs masks so the model's *cumulative* weight
prune ratio reaches a target.  Methods are monotone by construction: already
masked weights are never revived, so iterative pruning (Algorithm 1) only
ever removes more.

:meth:`PruneMethod.prune` is a template method: it validates the target,
expands the method's schedule (``steps=1`` is one-shot; ``steps=N`` walks
to the target in N equal sub-steps, re-scoring between them) and calls the
family-specific :meth:`PruneMethod._prune_step` per sub-target.  The
allocation helpers shared by the unstructured families live here too:
:func:`global_threshold_prune` (one threshold across all layers) and
:func:`uniform_threshold_prune` (the same fraction in every layer).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.nn.module import Module
from repro.pruning.mask import model_prune_ratio, prunable_layers, total_prunable_weights


@dataclass
class ActivationStats:
    """Per-layer mean absolute input activation per input feature/channel.

    For a conv layer the vector has one entry per input channel; for a
    linear layer one per input feature.  Computed from a small sample batch
    S ⊆ validation set, as SiPP/PFP prescribe.
    """

    per_layer: dict[str, np.ndarray]

    def __getitem__(self, layer_name: str) -> np.ndarray:
        return self.per_layer[layer_name]

    def __contains__(self, layer_name: str) -> bool:
        return layer_name in self.per_layer


def collect_activation_stats(model: Module, sample_inputs: np.ndarray) -> ActivationStats:
    """Run ``sample_inputs`` through the model, capturing layer inputs.

    ``sample_inputs`` must already be normalized the way the model is
    trained.  Returns mean |activation| per input channel for every
    prunable layer.
    """
    stats: dict[str, np.ndarray] = {}
    removers = []
    for name, layer in prunable_layers(model):

        def hook(module, args, out, _name=name):
            x = args[0]
            data = x.data if isinstance(x, Tensor) else np.asarray(x)
            if data.ndim == 4:  # (N, C, H, W) -> per channel
                stats[_name] = np.abs(data).mean(axis=(0, 2, 3))
            else:  # (N, F) -> per feature
                stats[_name] = np.abs(data).mean(axis=0)

        removers.append(layer.register_forward_hook(hook))

    was_training = model.training
    model.eval()
    try:
        with no_grad():
            model(Tensor(sample_inputs))
    finally:
        model.train(was_training)
        for remove in removers:
            remove()
    return ActivationStats(stats)


class PruneMethod(abc.ABC):
    """Interface shared by all pruning methods.

    Subclasses implement :meth:`_prune_step`; the public :meth:`prune`
    handles validation and the schedule.  Registered methods (see
    :mod:`repro.pruning.registry`) must store each declared hyperparameter
    as an instance attribute of the same name so live instances serialize
    back to their exact spec string.
    """

    name: str = "base"
    structured: bool = False
    data_informed: bool = False

    def __init__(self, steps: int = 1):
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.steps = int(steps)

    def prune(
        self,
        model: Module,
        target_ratio: float,
        sample_inputs: np.ndarray | None = None,
    ) -> float:
        """Prune ``model`` to a cumulative weight ratio of ``target_ratio``.

        ``sample_inputs`` (normalized) is required by data-informed methods.
        Returns the achieved ratio.  Rounding usually takes a prune past
        its target; a later target that falls inside that overshoot is
        already met, and the call returns the current ratio untouched.
        """
        self._validate(model, target_ratio)
        sample = self._require_sample(sample_inputs)
        achieved = current = model_prune_ratio(model)
        if target_ratio < current - 1e-9:  # let through: met by the last prune
            return current
        for sub_target in self._schedule(current, target_ratio):
            achieved = self._prune_step(model, sub_target, sample)
        model._last_prune = (target_ratio, achieved)
        return achieved

    @abc.abstractmethod
    def _prune_step(
        self,
        model: Module,
        target_ratio: float,
        sample_inputs: np.ndarray | None,
    ) -> float:
        """One scored prune step to cumulative ``target_ratio``."""

    def _schedule(self, current: float, target: float) -> list[float]:
        """The sub-targets of one prune call (linear in the weight ratio)."""
        if self.steps == 1 or target <= current:
            return [target]
        return [
            current + (target - current) * (k / self.steps)
            for k in range(1, self.steps + 1)
        ]

    def spec_string(self) -> str:
        """Canonical spec string of this instance (see the registry)."""
        from repro.pruning.registry import spec_of

        return spec_of(self)

    def hyperparameters(self) -> dict:
        """The instance's resolved hyperparameter bindings (incl. defaults)."""
        spec = getattr(type(self), "spec", None)
        if spec is None:
            return {}
        return {
            hp.name: getattr(self, hp.name)
            for hp in spec.hyperparams
            if hasattr(self, hp.name)
        }

    def _validate(self, model: Module, target_ratio: float) -> None:
        if not 0.0 <= target_ratio < 1.0:
            raise ValueError(f"target_ratio must be in [0, 1), got {target_ratio}")
        current = model_prune_ratio(model)
        # The model's last prune call may have rounded past this target
        # from a lower one: then the target is already met, not undercut.
        last_target, last_ratio = getattr(model, "_last_prune", (None, None))
        if target_ratio < current - 1e-9 and not (
            last_ratio == current and last_target <= target_ratio
        ):
            raise ValueError(
                f"target ratio {target_ratio:.3f} below current ratio "
                f"{current:.3f}; pruning is monotone"
            )

    def _require_sample(self, sample_inputs: np.ndarray | None) -> np.ndarray:
        if self.data_informed and sample_inputs is None:
            raise ValueError(f"{self.name} is data-informed and needs sample_inputs")
        return sample_inputs

    def __repr__(self) -> str:
        kind = "structured" if self.structured else "unstructured"
        return f"{type(self).__name__}(name={self.name!r}, {kind})"


def global_threshold_prune(
    model: Module, sensitivities: dict[str, np.ndarray], target_ratio: float
) -> float:
    """Shared global unstructured step: mask lowest-sensitivity weights.

    ``sensitivities`` maps layer name -> array shaped like the layer weight.
    Already-masked weights are forced to the bottom of the ordering so the
    step is monotone.  Returns the achieved ratio.
    """
    layers = dict(prunable_layers(model))
    total = total_prunable_weights(model)
    n_prune = int(round(target_ratio * total))

    scores = []
    for name, layer in layers.items():
        s = sensitivities[name].reshape(-1).astype(np.float64).copy()
        s[layer.weight_mask.reshape(-1) == 0] = -np.inf  # keep pruned pruned
        scores.append(s)
    flat = np.concatenate(scores)
    if n_prune > 0:
        threshold_idx = np.argpartition(flat, n_prune - 1)[:n_prune]
        to_prune = np.zeros(total, dtype=bool)
        to_prune[threshold_idx] = True
    else:
        to_prune = np.zeros(total, dtype=bool)

    offset = 0
    for name, layer in layers.items():
        size = layer.weight.size
        mask = (~to_prune[offset : offset + size]).astype(np.float32)
        mask = mask.reshape(layer.weight.shape)
        layer.set_weight_mask(mask * layer.weight_mask)
        offset += size
    return model_prune_ratio(model)


def uniform_threshold_prune(
    model: Module, sensitivities: dict[str, np.ndarray], target_ratio: float
) -> float:
    """Shared per-layer unstructured step: the same fraction in every layer.

    Each layer independently masks its ``round(target * size)``
    lowest-sensitivity weights (already-masked weights sort to the bottom,
    keeping the step monotone), so layerwise sparsity is uniform — the
    "uniform" allocation policy of the registry.  Returns the achieved
    model ratio, which can differ from the target only by per-layer
    rounding.
    """
    for name, layer in prunable_layers(model):
        size = layer.weight.size
        n_prune = int(round(target_ratio * size))
        if n_prune <= 0:
            continue
        s = sensitivities[name].reshape(-1).astype(np.float64).copy()
        s[layer.weight_mask.reshape(-1) == 0] = -np.inf
        drop = np.argpartition(s, n_prune - 1)[:n_prune]
        mask = np.ones(size, dtype=np.float32)
        mask[drop] = 0.0
        layer.set_weight_mask(mask.reshape(layer.weight.shape) * layer.weight_mask)
    return model_prune_ratio(model)
