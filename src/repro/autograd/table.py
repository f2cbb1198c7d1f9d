"""The op table: every op's kernels and gradient rule, written once.

:data:`OPS` maps an op name to its kernel and, for a differentiable op,
its gradient rule.  The tape (:mod:`repro.autograd.tensor`), the tracer
and both plan kinds of :mod:`repro.infer` all run ops from this table:

- a **kernel** is ``kernel(args, params)``: ``args`` are the op's input
  arrays (or python scalars) by position, ``params`` its static
  parameters.  A tuple-valued kernel returns its value first, then the
  intermediates its backward reads.  Backward kernels are table entries
  like any other;
- a **gradient rule** is ``rule(e, x, y, g, p, need)``: given the op's
  inputs ``x``, its value ``y``, the output gradient ``g`` and its params
  ``p``, it emits through ``e`` the backward kernels that compute one
  gradient for every input position whose ``need`` flag is set, and
  returns them as ``(position, gradient)`` pairs in the order the tape
  accumulates them.

A rule computes nothing itself.  The tape's backward runs it through
:data:`EAGER`, whose ``op`` calls each kernel on the spot, and
``repro.infer.grad`` runs the same rule through an emitter whose ``op``
appends a plan node; ``e.shape`` gives the shape of an ``x`` or ``y``.
Exact plans run :data:`KERNELS` unchanged, so they replay the tape's
arithmetic by construction; fast plans override a few entries.

A kernel whose backward reads something it computed keeps it in
``params`` when ``params["_save"]`` asks (the tape asks for every op it
records, the plan derivation for every node it differentiates): the
exact conv keeps its im2col columns for the weight gradient.  Params
keys with a leading underscore are kernel state, never traced.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class Op(NamedTuple):
    """One row of :data:`OPS`: a kernel and, if differentiable, its rule."""

    kernel: Callable
    rule: Callable | None = None


# ------------------------------------------------------------------ helpers


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution / pooling window."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"invalid conv geometry: size={size} kernel={kernel} "
            f"stride={stride} padding={padding}"
        )
    return out


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Extract convolution patches.

    Returns ``(cols, oh, ow)`` where ``cols`` has shape
    ``(N * oh * ow, C * kh * kw)``.
    """
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = conv_output_size(h, kh, stride, padding)
    ow = conv_output_size(w, kw, stride, padding)
    windows = sliding_window_view(x, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    # (N, C, oh, ow, kh, kw) -> (N, oh, ow, C, kh, kw)
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(n * oh * ow, c * kh * kw), oh, ow


def _col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
    oh: int,
    ow: int,
) -> np.ndarray:
    """Scatter-add im2col patches back into an image (conv input gradient)."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    dx = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    # (N*oh*ow, C*kh*kw) -> (N, oh, ow, C, kh, kw) -> (N, C, kh, kw, oh, ow)
    patches = cols.reshape(n, oh, ow, c, kh, kw).transpose(0, 3, 4, 5, 1, 2)
    for i in range(kh):
        hi = i + stride * oh
        for j in range(kw):
            wj = j + stride * ow
            dx[:, :, i:hi:stride, j:wj:stride] += patches[:, :, i, j]
    if padding:
        dx = dx[:, :, padding:-padding, padding:-padding]
    return dx


def _norm_axis(axis, ndim):
    if axis is None:
        return None
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(ax % ndim for ax in axis)


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast dimensions."""
    if grad.shape == shape:
        return grad
    # Sum away leading dims added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum dims that were 1 in the original shape but expanded by broadcast.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _bn_axes(ndim):
    """(reduction axes, per-channel broadcast shape) of 4-D or 2-D BatchNorm."""
    return ((0, 2, 3), (1, -1, 1, 1)) if ndim == 4 else ((0,), (1, -1))


def _bn_xhat(x, mean, var, params):
    """``(xhat, invstd)``: ``x`` normalized by the given statistics."""
    _, shape = _bn_axes(params["ndim"])
    invstd = 1.0 / np.sqrt(var + params["eps"])
    return (x - mean.reshape(shape)) * invstd.reshape(shape), invstd


def _bn_apply(x, gamma, beta, mean, var, params):
    """``(out, xhat, invstd)``: BatchNorm of ``x`` under the given statistics."""
    _, shape = _bn_axes(params["ndim"])
    xhat, invstd = _bn_xhat(x, mean, var, params)
    return gamma.reshape(shape) * xhat + beta.reshape(shape), xhat, invstd


def _bn_grads(g, xhat, invstd, gamma, ndim, training):
    """``(gx, ggamma, gbeta)`` of BatchNorm; in training mode the
    statistics are the batch's own, so ``gx`` picks up their gradient."""
    axes, shape = _bn_axes(ndim)
    gbeta = g.sum(axis=axes)
    ggamma = (g * xhat).sum(axis=axes)
    gxhat = g * gamma.reshape(shape)
    if training:
        gx = (
            gxhat
            - gxhat.mean(axis=axes, keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=axes, keepdims=True)
        ) * invstd.reshape(shape)
    else:
        gx = gxhat * invstd.reshape(shape)
    return (gx, ggamma, gbeta)


def update_running_stats(running_mean, running_var, mean, var, momentum, m) -> None:
    """Fold one batch's ``mean`` and ``var`` into BatchNorm's running
    buffers, in place.  ``m`` elements stand behind each channel
    statistic; the running variance is the unbiased one, as torch keeps."""
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * var * (m / max(m - 1, 1))


# ----------------------------------------------------------- forward kernels


def _k_add(args, params):
    return args[0] + args[1]


def _k_sub(args, params):
    return args[0] - args[1]


def _k_mul(args, params):
    return args[0] * args[1]


def _k_div(args, params):
    return args[0] / args[1]


def _k_matmul(args, params):
    return args[0] @ args[1]


def _k_maximum(args, params):
    a, b = args
    return np.where(a >= b, a, b)  # ties send the value (and gradient) to a


def _k_neg(args, params):
    return -args[0]


def _k_power(args, params):
    return args[0] ** params["exponent"]


def _k_exp(args, params):
    return np.exp(args[0])


def _k_log(args, params):
    return np.log(args[0])


def _k_sqrt(args, params):
    return np.sqrt(args[0])


def _k_relu(args, params):
    x = args[0]
    return np.where(x > 0, x, 0.0)


def _k_tanh(args, params):
    return np.tanh(args[0])


def _k_sigmoid(args, params):
    return 1.0 / (1.0 + np.exp(-args[0]))


def _k_abs(args, params):
    return np.abs(args[0])


def _k_clip(args, params):
    return np.clip(args[0], params["low"], params["high"])


def _k_getitem(args, params):
    return args[0][params["index"]]


def _k_reshape(args, params):
    return args[0].reshape(params["shape"])


def _k_transpose(args, params):
    return args[0].transpose(params["axes"])


def _k_sum(args, params):
    axis = _norm_axis(params["axis"], args[0].ndim)
    return args[0].sum(axis=axis, keepdims=params["keepdims"])


def _k_mean(args, params):
    axis = _norm_axis(params["axis"], args[0].ndim)
    return args[0].mean(axis=axis, keepdims=params["keepdims"])


def _k_max(args, params):
    axis = _norm_axis(params["axis"], args[0].ndim)
    return args[0].max(axis=axis, keepdims=params["keepdims"])


def _k_concatenate(args, params):
    return np.concatenate(args, axis=params["axis"])


def _k_pad2d(args, params):
    x, p = args[0], params["padding"]
    widths = [(0, 0)] * (x.ndim - 2) + [(p, p), (p, p)]
    return np.pad(x, widths)


def _k_conv2d_exact(args, params):
    """Convolution as one im2col GEMM, any shape: the tape's convolution,
    and the reference route every exact plan takes.  Asked to
    (``params["_save"]``), it keeps the columns in ``params["_cols"]``
    for the weight gradient."""
    x, w = args[0], args[1]
    f, _, kh, kw = w.shape
    cols, oh, ow = _im2col(x, kh, kw, params["stride"], params["padding"])
    if params.get("_save"):
        params["_cols"] = cols
    out = cols @ w.reshape(f, -1).T
    if len(args) == 3:
        out += args[2]
    return out.reshape(x.shape[0], oh, ow, f).transpose(0, 3, 1, 2)


def _k_linear(args, params):
    out = args[0] @ args[1].T
    if len(args) == 3:
        out = out + args[2]
    return out


def _k_max_pool2d_train(args, params):
    """Max pooling that also returns each window's argmax, for the backward.
    (Taking the argmax first is also about twice as fast as a max over the
    strided window view.)"""
    x, k, s = args[0], params["kernel"], params["stride"]
    n, c = x.shape[0], x.shape[1]
    windows = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    oh, ow = windows.shape[2], windows.shape[3]
    flat = windows.reshape(n, c, oh, ow, k * k)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return (out, arg)


def _k_max_pool2d(args, params):
    return _k_max_pool2d_train(args, params)[0]


def _k_avg_pool2d(args, params):
    x, k, s = args[0], params["kernel"], params["stride"]
    windows = sliding_window_view(x, (k, k), axis=(2, 3))
    return windows[:, :, ::s, ::s].mean(axis=(-2, -1))


def _k_global_avg_pool2d(args, params):
    return args[0].mean(axis=(2, 3))


def _k_upsample_nearest2d(args, params):
    s = params["scale"]
    return args[0].repeat(s, axis=2).repeat(s, axis=3)


def _k_softmax(args, params):
    x, axis = args[0], params["axis"]
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _k_log_softmax(args, params):
    x, axis = args[0], params["axis"]
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def _k_batch_norm(args, params):
    """Eval-mode BatchNorm under the running statistics."""
    return _bn_apply(*args, params)[0]


def _k_bn_train(args, params):
    """Train-mode BatchNorm under the batch's statistics:
    ``(out, xhat, invstd, mean, var)``."""
    x, gamma, beta = args
    axes, _ = _bn_axes(params["ndim"])
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    return (*_bn_apply(x, gamma, beta, mean, var, params), mean, var)


def _k_cross_entropy(args, params):
    """Mean cross-entropy of ``(N, K)`` logits against int targets:
    ``(loss, logprobs)``."""
    logits, targets = args
    targets = np.asarray(targets).astype(np.int64)
    logprobs = _k_log_softmax((logits,), {"axis": 1})
    loss = -logprobs[np.arange(logits.shape[0]), targets].mean()
    return (np.asarray(loss, dtype=logits.dtype), logprobs)


# ---------------------------------------------------------- backward kernels


def _k_unbroadcast(args, params):
    return unbroadcast(args[0], params["shape"])


def _k_relu_bwd(args, params):
    g, out = args
    return g * (out > 0)  # out>0 ⟺ pre-relu>0, also after an in-place forward


def _k_tanh_bwd(args, params):
    g, out = args
    return g * (1.0 - out * out)


def _k_sigmoid_bwd(args, params):
    g, out = args
    return g * out * (1.0 - out)


def _k_sqrt_bwd(args, params):
    g, out = args
    return g / (2.0 * out)


def _k_abs_bwd(args, params):
    g, a = args
    return g * np.sign(a)


def _k_power_bwd(args, params):
    g, a = args
    e = params["exponent"]
    return g * e * a ** (e - 1)


def _k_maximum_bwd_a(args, params):
    g, a, b = args
    return g * (a >= b)


def _k_maximum_bwd_b(args, params):
    g, a, b = args
    return g * ~(a >= b)


def _k_clip_bwd(args, params):
    g, a = args
    return g * ((a >= params["low"]) & (a <= params["high"]))


def _k_sum_bwd(args, params):
    g, shape = args[0], params["shape"]
    axis = _norm_axis(params["axis"], len(shape))
    if axis is not None and not params["keepdims"]:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def _k_mean_bwd(args, params):
    g, shape = args[0], params["shape"]
    axis = _norm_axis(params["axis"], len(shape))
    count = (
        int(np.prod(shape))
        if axis is None
        else int(np.prod([shape[ax] for ax in axis]))
    )
    if axis is not None and not params["keepdims"]:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape) / count


def _k_max_bwd(args, params):
    """Max-reduction gradient; it splits evenly among tied maxima."""
    g, a, out = args
    axis = _norm_axis(params["axis"], a.ndim)
    expanded = out
    if axis is not None and not params["keepdims"]:
        expanded = np.expand_dims(out, axis)
        g = np.expand_dims(g, axis)
    mask = (a == expanded).astype(a.dtype)
    mask /= mask.sum(axis=axis, keepdims=True)
    return mask * g


def _k_getitem_bwd(args, params):
    g, x = args
    # np.zeros_like (not np.zeros): gradients keep the forward input's
    # memory layout, and downstream axis reductions associate differently
    # on different layouts.
    grad = np.zeros_like(x)
    np.add.at(grad, params["index"], g)
    return grad


def _k_slice_axis(args, params):
    # One operand of concatenate's gradient: a view, like np.split's.
    index = [slice(None)] * args[0].ndim
    index[params["axis"]] = slice(params["lo"], params["hi"])
    return args[0][tuple(index)]


def _k_unpad2d(args, params):
    p = params["padding"]
    return args[0][(Ellipsis, slice(p, -p), slice(p, -p))]


def _matmul_grad_out(g, a_ndim, b_ndim):
    """``g`` with back the dims numpy's matmul drops for 1-D operands."""
    if b_ndim == 1:
        g = np.expand_dims(g, -1)
    if a_ndim == 1:
        g = np.expand_dims(g, -2)
    return g


def _k_matmul_bwd_a(args, params):
    """Gradient of ``a @ b`` for ``a`` of shape ``params["shape"]``, at
    any ranks: a 1-D operand is the matrix numpy promotes it to, and the
    dims ``a`` was broadcast over are summed away."""
    g, b = args
    shape = params["shape"]
    g = _matmul_grad_out(g, len(shape), b.ndim)
    bt = b[None, :] if b.ndim == 1 else np.swapaxes(b, -1, -2)
    promoted = (1,) + shape if len(shape) == 1 else shape
    return unbroadcast(g @ bt, promoted).reshape(shape)


def _k_matmul_bwd_b(args, params):
    """Gradient of ``a @ b`` for ``b`` of shape ``params["shape"]``; see
    :func:`_k_matmul_bwd_a`."""
    a, g = args
    shape = params["shape"]
    g = _matmul_grad_out(g, a.ndim, len(shape))
    at = a[:, None] if a.ndim == 1 else np.swapaxes(a, -1, -2)
    promoted = shape + (1,) if len(shape) == 1 else shape
    return unbroadcast(at @ g, promoted).reshape(shape)


def _k_linear_bwd_x(args, params):
    g, w = args
    return g @ w


def _k_linear_bwd_w(args, params):
    g, x = args
    return g.T @ x


def _k_linear_bwd_b(args, params):
    return args[0].sum(axis=0)


def _gcols(g):
    """``g`` in the ``(N*oh*ow, F)`` row layout of the forward's im2col GEMM."""
    return g.transpose(0, 2, 3, 1).reshape(-1, g.shape[1])


def _k_conv_bwd_x_exact(args, params):
    g, w = args
    f, _, kh, kw = w.shape
    return _col2im(
        _gcols(g) @ w.reshape(f, -1), params["xshape"], kh, kw,
        params["stride"], params["padding"], g.shape[2], g.shape[3],
    )


def _k_conv_bwd_w_exact(args, params):
    """Weight gradient from the im2col columns the forward kept (computed
    again only when it kept none)."""
    g, x = args
    _, _, kh, kw = params["wshape"]
    cols = params["_fwd"].pop("_cols", None)
    if cols is None:
        cols, _, _ = _im2col(x, kh, kw, params["stride"], params["padding"])
    return (_gcols(g).T @ cols).reshape(params["wshape"])


def _k_conv_bwd_b_exact(args, params):
    # Summed in the row layout of the forward GEMM, whose pairwise-summation
    # order differs from g.sum((0, 2, 3)).
    return _gcols(args[0]).sum(axis=0)


def _k_max_pool2d_bwd(args, params):
    g, tup, x = args
    arg = tup[1]
    k, s = params["kernel"], params["stride"]
    n, c, oh, ow = g.shape
    dx = np.zeros_like(x)  # layout-preserving, see _k_getitem_bwd
    # Window-local argmax to absolute (row, col) indices.
    ki, kj = np.divmod(arg, k)
    rows = ki + s * np.arange(oh)[None, None, :, None]
    cols = kj + s * np.arange(ow)[None, None, None, :]
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    if s >= k:  # disjoint windows: argmax cells are unique, so the
        # unbuffered np.add.at scatter reduces to a plain (much faster)
        # fancy assignment with identical values.
        dx[ni, ci, rows, cols] = g
    else:
        np.add.at(dx, (ni, ci, rows, cols), g)
    return dx


def _k_avg_pool_bwd(args, params):
    g, x = args
    k, s = params["kernel"], params["stride"]
    oh, ow = g.shape[2], g.shape[3]
    dx = np.zeros_like(x)  # layout-preserving, see _k_getitem_bwd
    g_scaled = g / (k * k)
    # Broadcasted scatter over all k*k in-window offsets at once: the
    # (oh, k) row and (ow, k) column grids enumerate every input cell
    # each output cell averaged over.
    rows = s * np.arange(oh)[:, None] + np.arange(k)
    cols = s * np.arange(ow)[:, None] + np.arange(k)
    idx = (slice(None), slice(None), rows[:, :, None, None], cols[None, None, :, :])
    vals = g_scaled[:, :, :, None, :, None]  # -> (N, C, oh, k, ow, k)
    if s >= k:  # windows are disjoint: plain fancy assignment suffices
        dx[idx] = vals
    else:  # overlapping windows: indices repeat, so accumulate
        np.add.at(dx, idx, vals)
    return dx


def _k_gap_bwd(args, params):
    g, shape = args[0], params["shape"]
    h, w = shape[2], shape[3]
    return np.broadcast_to(g[:, :, None, None], shape) / (h * w)


def _k_upsample_bwd(args, params):
    g, s = args[0], params["scale"]
    n, c, h, w = params["shape"]
    return g.reshape(n, c, h, s, w, s).sum(axis=(3, 5))


def _k_softmax_bwd(args, params):
    g, out = args
    dot = (g * out).sum(axis=params["axis"], keepdims=True)
    return out * (g - dot)


def _k_log_softmax_bwd(args, params):
    g, out = args
    return g - np.exp(out) * g.sum(axis=params["axis"], keepdims=True)


def _k_batch_norm_bwd(args, params):
    g, x, gamma, mean, var = args
    xhat, invstd = _bn_xhat(x, mean, var, params)
    return _bn_grads(g, xhat, invstd, gamma, params["ndim"], training=False)


def _k_bn_train_bwd(args, params):
    g, tup, gamma = args
    _, xhat, invstd, _, _ = tup
    return _bn_grads(g, xhat, invstd, gamma, params["ndim"], training=True)


def _k_cross_entropy_bwd(args, params):
    g, tup, targets = args
    logprobs = tup[1]
    targets = np.asarray(targets).astype(np.int64)
    n = logprobs.shape[0]
    grad = np.exp(logprobs)
    grad[np.arange(n), targets] -= 1.0
    return grad * (g / n)


# ----------------------------------------------------------- gradient rules


class _Eager:
    """The tape's emitter: each kernel a rule emits runs on the spot."""

    @staticmethod
    def op(name, inputs, params=None):
        return KERNELS[name](inputs, {} if params is None else params)

    shape = staticmethod(np.shape)


EAGER = _Eager()


def _ub(e, g, y, x):
    """``g``, shaped like the op value ``y``, summed down to ``x``'s shape."""
    want = e.shape(x)
    return g if e.shape(y) == want else e.op("unbroadcast", (g,), {"shape": want})


def tuple_grads(e, tup, need, positions):
    """``(positions[k], tup[k])`` pairs of a tuple-valued backward kernel,
    for each ``k`` whose input position is set and needed."""
    return [
        (pos, e.op("tuple_get", (tup,), {"index": k}))
        for k, pos in enumerate(positions)
        if pos is not None and need[pos]
    ]


def _unary(bwd, *keys, from_value):
    """Rule of a unary op whose gradient is ``bwd(g, y)`` (``from_value``)
    or ``bwd(g, x)``, under the op's params ``keys``."""

    def rule(e, x, y, g, p, need):
        params = {key: p[key] for key in keys}
        return [(0, e.op(bwd, (g, y if from_value else x[0]), params))]

    return rule


def _add_rule(e, x, y, g, p, need):
    return [(k, _ub(e, g, y, x[k])) for k in (0, 1) if need[k]]


def _sub_rule(e, x, y, g, p, need):
    out = [(0, _ub(e, g, y, x[0]))] if need[0] else []
    if need[1]:
        out.append((1, _ub(e, e.op("neg", (g,)), y, x[1])))
    return out


def _mul_rule(e, x, y, g, p, need):
    return [
        (k, _ub(e, e.op("mul", (g, x[1 - k])), y, x[k])) for k in (0, 1) if need[k]
    ]


def _div_rule(e, x, y, g, p, need):
    out = [(0, _ub(e, e.op("div", (g, x[1])), y, x[0]))] if need[0] else []
    if need[1]:
        # -g * a / (b * b) evaluates as ((-g) * a) / (b * b)
        num = e.op("mul", (e.op("neg", (g,)), x[0]))
        gb = e.op("div", (num, e.op("mul", (x[1], x[1]))))
        out.append((1, _ub(e, gb, y, x[1])))
    return out


def _neg_rule(e, x, y, g, p, need):
    return [(0, e.op("neg", (g,)))]


def _exp_rule(e, x, y, g, p, need):
    return [(0, e.op("mul", (g, y)))]


def _log_rule(e, x, y, g, p, need):
    return [(0, e.op("div", (g, x[0])))]


def _matmul_rule(e, x, y, g, p, need):
    out = []
    if need[0]:
        out.append((0, e.op("matmul_bwd_a", (g, x[1]), {"shape": e.shape(x[0])})))
    if need[1]:
        out.append((1, e.op("matmul_bwd_b", (x[0], g), {"shape": e.shape(x[1])})))
    return out


def _maximum_rule(e, x, y, g, p, need):
    return [
        (k, _ub(e, e.op(bwd, (g, x[0], x[1])), y, x[k]))
        for k, bwd in enumerate(("maximum_bwd_a", "maximum_bwd_b"))
        if need[k]
    ]


def _sum_rule(e, x, y, g, p, need):
    params = {"axis": p["axis"], "keepdims": p["keepdims"], "shape": e.shape(x[0])}
    return [(0, e.op("sum_bwd", (g,), params))]


def _mean_rule(e, x, y, g, p, need):
    params = {"axis": p["axis"], "keepdims": p["keepdims"], "shape": e.shape(x[0])}
    return [(0, e.op("mean_bwd", (g,), params))]


def _max_rule(e, x, y, g, p, need):
    params = {"axis": p["axis"], "keepdims": p["keepdims"]}
    return [(0, e.op("max_bwd", (g, x[0], y), params))]


def _reshape_rule(e, x, y, g, p, need):
    return [(0, e.op("reshape", (g,), {"shape": e.shape(x[0])}))]


def _transpose_rule(e, x, y, g, p, need):
    inverse = tuple(int(v) for v in np.argsort(p["axes"]))
    return [(0, e.op("transpose", (g,), {"axes": inverse}))]


def _getitem_rule(e, x, y, g, p, need):
    return [(0, e.op("getitem_bwd", (g, x[0]), {"index": p["index"]}))]


def _concatenate_rule(e, x, y, g, p, need):
    axis, lo, out = p["axis"], 0, []
    for k, xk in enumerate(x):
        hi = lo + e.shape(xk)[axis]
        if need[k]:
            out.append((k, e.op("slice_axis", (g,), {"axis": axis, "lo": lo, "hi": hi})))
        lo = hi
    return out


def _pad2d_rule(e, x, y, g, p, need):
    return [(0, e.op("unpad2d", (g,), {"padding": p["padding"]}))]


def _linear_rule(e, x, y, g, p, need):
    grads = (
        ("linear_bwd_x", (g, x[1])),
        ("linear_bwd_w", (g, x[0])),
        ("linear_bwd_b", (g,)),
    )
    return [(k, e.op(*grads[k])) for k in range(len(x)) if need[k]]


def _conv2d_rule(e, x, y, g, p, need):
    stride, padding = p["stride"], p["padding"]
    wshape = e.shape(x[1])
    grads = (
        ("conv_bwd_x", (g, x[1]), {
            "stride": stride, "padding": padding, "xshape": e.shape(x[0]),
        }),
        ("conv_bwd_w", (g, x[0]), {
            "stride": stride, "padding": padding, "wshape": wshape,
            # A fast weight gradient reads the padded input the forward
            # kept; an exact one, its im2col columns.
            "_use_shared": stride == 1 and wshape[2] * wshape[3] > 1,
            "_fwd": p,
        }),
        ("conv_bwd_b", (g,)),
    )
    return [(k, e.op(*grads[k])) for k in range(len(x)) if need[k]]


def _batch_norm_rule(e, x, y, g, p, need):
    params = {"eps": p["eps"], "ndim": p["ndim"]}
    bwd = e.op("batch_norm_bwd", (g, x[0], x[1], x[3], x[4]), params)
    return tuple_grads(e, bwd, need, (0, 1, 2))


def bn_train_rule(bwd):
    """Rule of a train-mode BatchNorm tuple op whose backward is ``bwd``."""

    def rule(e, x, y, g, p, need):
        bwd_node = e.op(bwd, (g, y, x[1]), {"ndim": p["ndim"]})
        return tuple_grads(e, bwd_node, need, (0, 1, 2))

    return rule


def _max_pool2d_rule(e, x, y, g, p, need):
    params = {"kernel": p["kernel"], "stride": p["stride"]}
    return [(0, e.op("max_pool2d_bwd", (g, y, x[0]), params))]


def _avg_pool2d_rule(e, x, y, g, p, need):
    params = {"kernel": p["kernel"], "stride": p["stride"]}
    return [(0, e.op("avg_pool_bwd", (g, x[0]), params))]


def _gap_rule(e, x, y, g, p, need):
    return [(0, e.op("gap_bwd", (g,), {"shape": e.shape(x[0])}))]


def _upsample_rule(e, x, y, g, p, need):
    params = {"scale": p["scale"], "shape": e.shape(x[0])}
    return [(0, e.op("upsample_bwd", (g,), params))]


def _cross_entropy_rule(e, x, y, g, p, need):
    return [(0, e.op("cross_entropy_bwd", (g, y, x[1])))]


# ------------------------------------------------------------------ the table

OPS: dict[str, Op] = {
    # arithmetic and elementwise
    "add": Op(_k_add, _add_rule),
    "sub": Op(_k_sub, _sub_rule),
    "mul": Op(_k_mul, _mul_rule),
    "div": Op(_k_div, _div_rule),
    "neg": Op(_k_neg, _neg_rule),
    "power": Op(_k_power, _unary("power_bwd", "exponent", from_value=False)),
    "matmul": Op(_k_matmul, _matmul_rule),
    "maximum": Op(_k_maximum, _maximum_rule),
    "exp": Op(_k_exp, _exp_rule),
    "log": Op(_k_log, _log_rule),
    "sqrt": Op(_k_sqrt, _unary("sqrt_bwd", from_value=True)),
    "relu": Op(_k_relu, _unary("relu_bwd", from_value=True)),
    "tanh": Op(_k_tanh, _unary("tanh_bwd", from_value=True)),
    "sigmoid": Op(_k_sigmoid, _unary("sigmoid_bwd", from_value=True)),
    "abs": Op(_k_abs, _unary("abs_bwd", from_value=False)),
    "clip": Op(_k_clip, _unary("clip_bwd", "low", "high", from_value=False)),
    # reductions and shape
    "sum": Op(_k_sum, _sum_rule),
    "mean": Op(_k_mean, _mean_rule),
    "max": Op(_k_max, _max_rule),
    "reshape": Op(_k_reshape, _reshape_rule),
    "transpose": Op(_k_transpose, _transpose_rule),
    "getitem": Op(_k_getitem, _getitem_rule),
    "concatenate": Op(_k_concatenate, _concatenate_rule),
    "pad2d": Op(_k_pad2d, _pad2d_rule),
    # layers
    "conv2d": Op(_k_conv2d_exact, _conv2d_rule),
    "linear": Op(_k_linear, _linear_rule),
    "batch_norm": Op(_k_batch_norm, _batch_norm_rule),
    "bn_train": Op(_k_bn_train, bn_train_rule("bn_train_bwd")),
    "max_pool2d": Op(_k_max_pool2d),
    "max_pool2d_train": Op(_k_max_pool2d_train, _max_pool2d_rule),
    "avg_pool2d": Op(_k_avg_pool2d, _avg_pool2d_rule),
    "global_avg_pool2d": Op(_k_global_avg_pool2d, _gap_rule),
    "upsample_nearest2d": Op(_k_upsample_nearest2d, _upsample_rule),
    "softmax": Op(_k_softmax, _unary("softmax_bwd", "axis", from_value=True)),
    "log_softmax": Op(
        _k_log_softmax, _unary("log_softmax_bwd", "axis", from_value=True)
    ),
    "cross_entropy": Op(_k_cross_entropy, _cross_entropy_rule),
    "tuple_get": Op(_k_getitem),  # one element of a tuple-valued kernel
    # backward kernels
    "unbroadcast": Op(_k_unbroadcast),
    "add_acc": Op(_k_add),
    "relu_bwd": Op(_k_relu_bwd),
    "tanh_bwd": Op(_k_tanh_bwd),
    "sigmoid_bwd": Op(_k_sigmoid_bwd),
    "sqrt_bwd": Op(_k_sqrt_bwd),
    "abs_bwd": Op(_k_abs_bwd),
    "power_bwd": Op(_k_power_bwd),
    "maximum_bwd_a": Op(_k_maximum_bwd_a),
    "maximum_bwd_b": Op(_k_maximum_bwd_b),
    "clip_bwd": Op(_k_clip_bwd),
    "sum_bwd": Op(_k_sum_bwd),
    "mean_bwd": Op(_k_mean_bwd),
    "max_bwd": Op(_k_max_bwd),
    "getitem_bwd": Op(_k_getitem_bwd),
    "slice_axis": Op(_k_slice_axis),
    "unpad2d": Op(_k_unpad2d),
    "matmul_bwd_a": Op(_k_matmul_bwd_a),
    "matmul_bwd_b": Op(_k_matmul_bwd_b),
    "linear_bwd_x": Op(_k_linear_bwd_x),
    "linear_bwd_w": Op(_k_linear_bwd_w),
    "linear_bwd_b": Op(_k_linear_bwd_b),
    "conv_bwd_x": Op(_k_conv_bwd_x_exact),
    "conv_bwd_w": Op(_k_conv_bwd_w_exact),
    "conv_bwd_b": Op(_k_conv_bwd_b_exact),
    "batch_norm_bwd": Op(_k_batch_norm_bwd),
    "bn_train_bwd": Op(_k_bn_train_bwd),
    "max_pool2d_bwd": Op(_k_max_pool2d_bwd),
    "avg_pool_bwd": Op(_k_avg_pool_bwd),
    "gap_bwd": Op(_k_gap_bwd),
    "upsample_bwd": Op(_k_upsample_bwd),
    "softmax_bwd": Op(_k_softmax_bwd),
    "log_softmax_bwd": Op(_k_log_softmax_bwd),
    "cross_entropy_bwd": Op(_k_cross_entropy_bwd),
}

# Every kernel by name, and every differentiable op's rule.
KERNELS: dict[str, Callable] = {name: op.kernel for name, op in OPS.items()}
RULES: dict[str, Callable] = {
    name: op.rule for name, op in OPS.items() if op.rule is not None
}
