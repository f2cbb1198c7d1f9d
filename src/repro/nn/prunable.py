"""Shared machinery for weight-bearing, prunable layers.

Both :class:`~repro.nn.linear.Linear` and :class:`~repro.nn.conv.Conv2d`
carry a binary ``weight_mask`` buffer the same shape as ``weight``.  The
forward pass multiplies the weight by its mask, so

- pruned weights contribute nothing to the output, and
- their gradient is zero during retraining (the mask factors into the
  chain rule), which is exactly the semantics of Algorithm 1 in the paper.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor


class PrunableWeightMixin:
    """Adds ``weight_mask`` handling; host must define ``self.weight``."""

    def _init_mask(self) -> None:
        self.register_buffer("weight_mask", np.ones(self.weight.shape, dtype=np.float32))

    def set_weight_mask(self, mask: np.ndarray) -> None:
        """Zero the pruned weights in place and install a binary mask.

        The weights are zeroed first, so on a sealed layer
        (:meth:`~repro.nn.module.Module.seal`) this raises ``ValueError``
        and changes neither weight nor mask.
        """
        mask = np.asarray(mask, dtype=np.float32)
        if mask.shape != self.weight.shape:
            raise ValueError(
                f"mask shape {mask.shape} != weight shape {self.weight.shape}"
            )
        if not np.isin(mask, (0.0, 1.0)).all():
            raise ValueError("mask must be binary")
        self.weight.data *= mask
        self.set_buffer("weight_mask", mask)

    def reset_weight_mask(self) -> None:
        """Remove all pruning from this layer."""
        self.set_buffer("weight_mask", np.ones(self.weight.shape, dtype=np.float32))

    @property
    def masked_weight(self) -> Tensor:
        """The weight with the prune mask applied (graph-connected)."""
        return self.weight * self.weight_mask

    @property
    def num_pruned(self) -> int:
        return int((self.weight_mask == 0).sum())

    def mask_violations(self) -> int:
        """Number of weights that disagree with their mask (``w != w * mask``).

        Zero on any healthy layer: :meth:`set_weight_mask` zeroes pruned
        weights in place, and the masked gradient keeps them at zero during
        retraining.  A nonzero count means the artifact was corrupted (or
        the weights were mutated behind the mask's back).
        """
        return int((self.weight.data != self.weight.data * self.weight_mask).sum())

    @property
    def prune_ratio(self) -> float:
        return self.num_pruned / self.weight_mask.size
