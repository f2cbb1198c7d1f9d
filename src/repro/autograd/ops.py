"""Primitive differentiable ops and the Tensor operator protocol.

Each op validates its inputs and makes one :func:`~repro.autograd.tensor.apply`
call, which runs the op's kernel from :mod:`repro.autograd.table`, links
the tape and records the op if this thread is tracing.  Broadcasting is
supported everywhere; the table's gradient rules reduce gradients back to
the operand shapes.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, apply, ensure_tensor, refuse_trace

# --------------------------------------------------------------- arithmetic


def _pair(a, b) -> tuple[Tensor, Tensor]:
    """Coerce operands to Tensors; python scalars adopt the other operand's
    dtype so float32 networks are not silently upcast to float64."""
    if isinstance(a, Tensor) and isinstance(b, (int, float)):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    elif isinstance(b, Tensor) and isinstance(a, (int, float)):
        a = Tensor(np.asarray(a, dtype=b.data.dtype))
    return ensure_tensor(a), ensure_tensor(b)


def add(a, b) -> Tensor:
    return apply("add", (a, b), inputs=_pair(a, b))


def sub(a, b) -> Tensor:
    return apply("sub", (a, b), inputs=_pair(a, b))


def mul(a, b) -> Tensor:
    return apply("mul", (a, b), inputs=_pair(a, b))


def div(a, b) -> Tensor:
    return apply("div", (a, b), inputs=_pair(a, b))


def neg(a) -> Tensor:
    return apply("neg", (a,))


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a scalar exponent."""
    if isinstance(exponent, Tensor):
        raise TypeError("power supports scalar exponents only")
    return apply("power", (a,), {"exponent": float(exponent)})


def matmul(a, b) -> Tensor:
    """Matrix product with numpy's ``@`` semantics, at any ranks."""
    if ensure_tensor(a).ndim < 1 or ensure_tensor(b).ndim < 1:
        raise ValueError("matmul requires operands with ndim >= 1")
    return apply("matmul", (a, b))


# -------------------------------------------------------------- elementwise


def exp(a) -> Tensor:
    return apply("exp", (a,))


def log(a) -> Tensor:
    return apply("log", (a,))


def sqrt(a) -> Tensor:
    return apply("sqrt", (a,))


def relu(a) -> Tensor:
    return apply("relu", (a,))


def tanh(a) -> Tensor:
    return apply("tanh", (a,))


def sigmoid(a) -> Tensor:
    return apply("sigmoid", (a,))


def absolute(a) -> Tensor:
    return apply("abs", (a,))


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties send the gradient to the first operand."""
    return apply("maximum", (a, b))


def clip(a, low: float, high: float) -> Tensor:
    return apply("clip", (a,), {"low": float(low), "high": float(high)})


# --------------------------------------------------------------- reductions


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    return apply("sum", (a,), {"axis": axis, "keepdims": bool(keepdims)})


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    return apply("mean", (a,), {"axis": axis, "keepdims": bool(keepdims)})


def tensor_max(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient splits evenly among tied maxima."""
    return apply("max", (a,), {"axis": axis, "keepdims": bool(keepdims)})


# --------------------------------------------------------------------- shape


def reshape(a, *shape) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return apply("reshape", (a,), {"shape": shape})


def transpose(a, *axes) -> Tensor:
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        axes = tuple(reversed(range(ensure_tensor(a).ndim)))
    return apply("transpose", (a,), {"axes": tuple(axes)})


def getitem(a, index) -> Tensor:
    items = index if isinstance(index, tuple) else (index,)
    if any(isinstance(item, Tensor) for item in items):
        refuse_trace("tensor-valued indexing is not traceable")
    return apply("getitem", (a,), {"index": index})


def concatenate(tensors, axis: int = 0) -> Tensor:
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("need at least one tensor to concatenate")
    return apply("concatenate", tensors, {"axis": int(axis)})


def pad2d(a, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) dims of an NCHW tensor."""
    if padding < 0:
        raise ValueError(f"padding must be >= 0, got {padding}")
    if padding == 0:
        return ensure_tensor(a)
    return apply("pad2d", (a,), {"padding": int(padding)})


# ----------------------------------------------------- patch Tensor methods

Tensor.__add__ = add
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = sub
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = mul
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = div
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = neg
Tensor.__pow__ = power
Tensor.__matmul__ = matmul
Tensor.__getitem__ = getitem
Tensor.sum = tensor_sum
Tensor.mean = tensor_mean
Tensor.max = tensor_max
Tensor.reshape = reshape
Tensor.transpose = transpose
Tensor.exp = exp
Tensor.log = log
Tensor.sqrt = sqrt
Tensor.relu = relu
Tensor.tanh = tanh
Tensor.sigmoid = sigmoid
Tensor.abs = absolute
