"""Fused deep-learning ops: convolution, pooling, batch norm, losses.

Each op validates its inputs and makes one
:func:`~repro.autograd.tensor.apply` call; the kernels and gradient rules
live in :mod:`repro.autograd.table`.  Convolution and pooling use
``sliding_window_view``-based im2col so that the heavy lifting happens
inside BLAS / vectorized NumPy.  Batch norm and cross entropy are fused
because the composed-primitives versions are both slower and less
numerically stable.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.table import conv_output_size, update_running_stats
from repro.autograd.tensor import Tensor, apply, ensure_tensor, refuse_trace

# -------------------------------------------------------------- convolution


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution over NCHW input.

    ``weight`` has shape ``(F, C, KH, KW)``; ``bias`` shape ``(F,)``.
    """
    xt, wt = ensure_tensor(x), ensure_tensor(weight)
    if xt.ndim != 4 or wt.ndim != 4:
        raise ValueError(
            f"conv2d expects 4-D input/weight, got {xt.shape} and {wt.shape}"
        )
    if xt.shape[1] != wt.shape[1]:
        raise ValueError(f"input channels {xt.shape[1]} != weight channels {wt.shape[1]}")
    operands = (x, weight) if bias is None else (x, weight, bias)
    return apply("conv2d", operands, {"stride": int(stride), "padding": int(padding)})


def linear(x, weight, bias=None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` for 2-D ``x``."""
    operands = (x, weight) if bias is None else (x, weight, bias)
    return apply("linear", operands)


# ------------------------------------------------------------------ pooling


def _pool_params(x, kernel_size: int, stride: int | None) -> dict:
    """Window params of an NCHW pooling op, its geometry validated."""
    k, s = int(kernel_size), int(stride or kernel_size)
    _, _, h, w = ensure_tensor(x).shape
    conv_output_size(h, k, s, 0)
    conv_output_size(w, k, s, 0)
    return {"kernel": k, "stride": s}


def max_pool2d(x, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over NCHW input (no padding); the kernel keeps each
    window's argmax for the backward."""
    out, _ = apply("max_pool2d_train", (x,), _pool_params(x, kernel_size, stride))
    return out


def avg_pool2d(x, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over NCHW input (no padding)."""
    return apply("avg_pool2d", (x,), _pool_params(x, kernel_size, stride))


def global_avg_pool2d(x) -> Tensor:
    """Mean over spatial dims: (N, C, H, W) -> (N, C)."""
    if ensure_tensor(x).ndim != 4:
        raise ValueError(f"global_avg_pool2d expects 4-D input, got {ensure_tensor(x).shape}")
    return apply("global_avg_pool2d", (x,))


def upsample_nearest2d(x, scale: int) -> Tensor:
    """Nearest-neighbour upsampling of NCHW input by an integer factor."""
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    if ensure_tensor(x).ndim != 4:
        raise ValueError(f"upsample_nearest2d expects 4-D input, got {ensure_tensor(x).shape}")
    return apply("upsample_nearest2d", (x,), {"scale": int(scale)})


# --------------------------------------------------------------- batch norm


def batch_norm(
    x,
    gamma,
    beta,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Fused batch normalization over the channel axis.

    Supports NCHW (per-channel over N, H, W) and NC (per-feature over N)
    inputs.  In training mode batch statistics are used and the running
    buffers are updated in place; in eval mode the running buffers are used.
    """
    ndim = ensure_tensor(x).ndim
    if ndim not in (2, 4):
        raise ValueError(f"batch_norm expects 2-D or 4-D input, got {ensure_tensor(x).shape}")
    params = {"eps": float(eps), "ndim": ndim}
    if not training:
        operands = (x, gamma, beta, running_mean, running_var)
        inputs = (*map(ensure_tensor, (x, gamma, beta)), running_mean, running_var)
        return apply("batch_norm", operands, params, inputs)
    # The kernel reads (x, gamma, beta); a trace also reads the running
    # buffers and the momentum, to replay the update below.
    operands = (x, gamma, beta, running_mean, running_var, momentum)
    out, (_, _, _, mean, var) = apply(
        "bn_train", operands, params, tuple(map(ensure_tensor, (x, gamma, beta)))
    )
    update_running_stats(
        running_mean, running_var, mean, var, momentum, out.size // out.shape[1]
    )
    return out


# --------------------------------------------------- softmax / cross-entropy


def softmax(x, axis: int = -1) -> Tensor:
    return apply("softmax", (x,), {"axis": int(axis)})


def log_softmax(x, axis: int = -1) -> Tensor:
    return apply("log_softmax", (x,), {"axis": int(axis)})


def cross_entropy(logits, targets) -> Tensor:
    """Mean cross-entropy between ``logits (N, K)`` and int ``targets (N,)``."""
    lt = ensure_tensor(logits)
    labels = np.asarray(targets.data if isinstance(targets, Tensor) else targets)
    if labels.ndim != 1 or lt.ndim != 2:
        raise ValueError(
            f"expected logits (N, K) and targets (N,), got {lt.shape}, {labels.shape}"
        )
    out, _ = apply("cross_entropy", (logits, targets), {}, (lt, labels))
    return out


def dropout(x, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - p)``."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    x = ensure_tensor(x)
    if not training or p == 0.0:
        return x
    refuse_trace("active dropout is stochastic, not a static plan")
    keep = ((rng.random(x.shape) >= p) / (1.0 - p)).astype(x.dtype)
    return apply("mul", (x, keep), inputs=(x, keep))
