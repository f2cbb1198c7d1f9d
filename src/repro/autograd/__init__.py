"""Reverse-mode automatic differentiation over NumPy arrays.

This subpackage replaces the role PyTorch autograd plays in the original
paper's code base (torchprune).  It provides:

- :class:`~repro.autograd.tensor.Tensor`: an ndarray wrapper carrying a
  gradient and a backward graph,
- elementwise / reduction / shape ops with broadcasting-aware gradients,
- fused deep-learning kernels (``conv2d``, ``max_pool2d``, ``batch_norm``,
  ``cross_entropy``) implemented with vectorized im2col arithmetic,
- :mod:`~repro.autograd.table`, the one table of every op's kernels and
  gradient rule, which the tape and ``repro.infer``'s tracer and plans
  all run from,
- :func:`~repro.autograd.gradcheck.gradcheck` for finite-difference
  verification of every op.
"""

from repro.autograd.tensor import Tensor, is_grad_enabled, no_grad
from repro.autograd import ops as _ops  # noqa: F401  (patches Tensor operators)
from repro.autograd import functional
from repro.autograd.gradcheck import gradcheck

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "functional", "gradcheck"]
