"""Compile a traced :class:`~repro.infer.trace.TrainGraph` into a gradient plan.

The backward pass is *derived*, not traced: :func:`_derive_backward` replays
``Tensor.backward``'s depth-first walk over the traced forward graph and, for
every op, emits kernel nodes computing exactly the arithmetic of the op's
backward closure in :mod:`repro.autograd.ops` / ``functional``.  Gradient
accumulation is materialized as explicit ``add_acc`` nodes emitted in the
same (reverse-topological node order, then parent-position order) the tape
uses — float addition is not associative, so an exact plan must replay the
tape's accumulation order bit for bit, not just its dataflow.

Two kernel tables back one derivation:

- **exact** — convolution backward recomputes the module's im2col/col2im
  route and the whole plan replays the tape's floating-point arithmetic
  bit-for-bit (the reference mode differential oracles compare against);
- **fast** — per-offset GEMM conv backward sharing the forward kernel's
  padded channel-first scratch, a fused ``conv → BN → ReLU`` forward with
  one matching fused backward, and in-place elementwise rewrites; it is
  validated against the tape within a scale-aware tolerance at compile time.

Unlike eval plans, gradient plans hold **no parameter snapshots**: SGD
mutates weights every batch, so ``param``/``buffer`` leaves are re-bound
from the live model on every :meth:`GradPlan.run`.  Plan kernels never
write into leaf slots (in-place rewrites are restricted to buffers the plan
itself produced), which is what makes live binding safe.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.functional import _col2im, _im2col
from repro.infer.plan import (
    KERNELS,
    KERNELS_EXACT,
    CompileError,
    _k_conv2d,
    _norm_axis,
    _run_steps,
    _schedule,
    _toposort,
)
from repro.infer.trace import _LEAF_OPS, Node, TrainGraph
from repro.nn.module import Module

# ----------------------------------------------------------- forward kernels
# Training-mode ops the eval table does not have.  Tuple-valued kernels
# return the saved intermediates their backward needs (the tape keeps them
# alive in closures; a static plan keeps them in the tuple slot).


def _bn_axes(ndim):
    return ((0, 2, 3), (1, -1, 1, 1)) if ndim == 4 else ((0,), (1, -1))


def _k_bn_train(args, params):
    x, gamma, beta = args
    axes, shape = _bn_axes(params["ndim"])
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    invstd = 1.0 / np.sqrt(var + params["eps"])
    xhat = (x - mean.reshape(shape)) * invstd.reshape(shape)
    out = gamma.reshape(shape) * xhat + beta.reshape(shape)
    return (out, xhat, invstd, mean, var)


def _k_bn_train_bwd(args, params):
    g, tup, gamma = args
    _, xhat, invstd, _, _ = tup
    axes, shape = _bn_axes(params["ndim"])
    gbeta = g.sum(axis=axes)
    ggamma = (g * xhat).sum(axis=axes)
    gxhat = g * gamma.reshape(shape)
    gx = (
        gxhat
        - gxhat.mean(axis=axes, keepdims=True)
        - xhat * (gxhat * xhat).mean(axis=axes, keepdims=True)
    ) * invstd.reshape(shape)
    return (gx, ggamma, gbeta)


def _k_max_pool2d_train(args, params):
    x, k, s = args[0], params["kernel"], params["stride"]
    n, c = x.shape[0], x.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
    windows = windows[:, :, ::s, ::s]
    oh, ow = windows.shape[2], windows.shape[3]
    flat = windows.reshape(n, c, oh, ow, k * k)
    arg = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, arg[..., None], axis=-1)[..., 0]
    return (out, arg)


def _k_max_pool2d_bwd(args, params):
    # np.zeros_like (not np.zeros): the tape allocates dx with the
    # forward input's memory layout, and downstream axis-reductions
    # associate differently on different layouts — bitwise parity needs
    # the same strides, not just the same values.
    g, tup, x = args
    arg = tup[1]
    k, s = params["kernel"], params["stride"]
    n, c, oh, ow = g.shape
    dx = np.zeros_like(x)
    ki, kj = np.divmod(arg, k)
    rows = ki + s * np.arange(oh)[None, None, :, None]
    cols = kj + s * np.arange(ow)[None, None, None, :]
    ni = np.arange(n)[:, None, None, None]
    ci = np.arange(c)[None, :, None, None]
    if s >= k:  # disjoint windows: argmax cells are unique, assign directly
        dx[ni, ci, rows, cols] = g
    else:
        np.add.at(dx, (ni, ci, rows, cols), g)
    return dx


def _k_cross_entropy(args, params):
    logits, targets = args
    targets = np.asarray(targets).astype(np.int64)
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logprobs = shifted - logsumexp
    loss = -logprobs[np.arange(n), targets].mean()
    return (np.asarray(loss, dtype=logits.dtype), logprobs)


def _k_cross_entropy_bwd(args, params):
    g, tup, targets = args
    logprobs = tup[1]
    targets = np.asarray(targets).astype(np.int64)
    n = logprobs.shape[0]
    grad = np.exp(logprobs)
    grad[np.arange(n), targets] -= 1.0
    return grad * (g / n)


def _k_tuple_get(args, params):
    return args[0][params["index"]]


# ---------------------------------------------------------- backward kernels
# Each replicates the corresponding autograd backward closure's arithmetic
# expression for expression (same operand order, same intermediate shapes).


def _k_unbroadcast(args, params):
    grad, shape = args[0], params["shape"]
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _k_add_acc(args, params):
    return args[0] + args[1]


def _k_relu_bwd(args, params):
    g, out = args
    return g * (out > 0)  # out>0 ⟺ pre-relu>0, also after in-place forward


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
    grad = np.zeros_like(x)  # layout-preserving, matching the tape
    np.add.at(grad, params["index"], g)
    return grad


def _k_slice_axis(args, params):
    # One operand of concatenate's backward np.split: a view, so the node
    # must be in the aliased set.
    index = [slice(None)] * args[0].ndim
    index[params["axis"]] = slice(params["lo"], params["hi"])
    return args[0][tuple(index)]


def _k_unpad2d(args, params):
    p = params["padding"]
    return args[0][(Ellipsis, slice(p, -p), slice(p, -p))]


def _k_matmul_bwd_a(args, params):
    g, b = args
    return g @ np.swapaxes(b, -1, -2)


def _k_matmul_bwd_b(args, params):
    a, g = args
    return np.swapaxes(a, -1, -2) @ g


def _k_linear_bwd_x(args, params):
    g, w = args
    return g @ w


def _k_linear_bwd_w(args, params):
    g, x = args
    return g.T @ x


def _k_linear_bwd_b(args, params):
    return args[0].sum(axis=0)


def _k_softmax_bwd(args, params):
    g, out = args
    dot = (g * out).sum(axis=params["axis"], keepdims=True)
    return out * (g - dot)


def _k_log_softmax_bwd(args, params):
    g, out = args
    return g - np.exp(out) * g.sum(axis=params["axis"], keepdims=True)


def _k_gap_bwd(args, params):
    g, shape = args[0], params["shape"]
    h, w = shape[2], shape[3]
    return np.broadcast_to(g[:, :, None, None], shape) / (h * w)


def _k_upsample_bwd(args, params):
    g, s = args[0], params["scale"]
    n, c, h, w = params["shape"]
    return g.reshape(n, c, h, s, w, s).sum(axis=(3, 5))


def _k_avg_pool_bwd(args, params):
    g, x = args
    k, s = params["kernel"], params["stride"]
    oh, ow = g.shape[2], g.shape[3]
    dx = np.zeros_like(x)  # layout-preserving, matching the tape
    g_scaled = g / (k * k)
    rows = s * np.arange(oh)[:, None] + np.arange(k)
    cols = s * np.arange(ow)[:, None] + np.arange(k)
    idx = (slice(None), slice(None), rows[:, :, None, None], cols[None, None, :, :])
    vals = g_scaled[:, :, :, None, :, None]
    if s >= k:
        dx[idx] = vals
    else:
        np.add.at(dx, idx, vals)
    return dx


# -------------------------------------------------------- convolution backward
# The fast weight gradient reuses the forward conv's persistent padded
# channel-first scratch of its row count (``params["_fwd"]`` is the forward
# node's params dict, wired after plan-local node copies are made): at
# backward time it still holds this batch's padded input, so ``gw`` needs
# no gather at all — one contiguous-view tensordot per kernel offset.


def _conv_grad_w(g, x, params):
    f, c, kh, kw = params["wshape"]
    stride, padding = params["stride"], params["padding"]
    n, _, oh, ow = g.shape
    gw = np.empty(params["wshape"], dtype=g.dtype)
    fwd = params.get("_fwd")
    xp = fwd.get("_scratch", {}).get(n) if params.get("_use_shared") and fwd else None
    if xp is not None and xp.shape[:2] == (c, n):
        # xp is (c, n, hp, wp), its interior this batch's input (stride 1).
        gt = g.transpose(1, 0, 2, 3)
        for dy in range(kh):
            for dx in range(kw):
                gw[:, :, dy, dx] = np.tensordot(
                    gt, xp[:, :, dy : dy + oh, dx : dx + ow],
                    axes=([1, 2, 3], [1, 2, 3]),
                )
        return gw
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    for dy in range(kh):
        for dx in range(kw):
            xs = x[:, :, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride]
            gw[:, :, dy, dx] = np.tensordot(g, xs, axes=([0, 2, 3], [0, 2, 3]))
    return gw


# Below this many output pixels the transposed-convolution formulation of
# the input gradient (flat C-contiguous accumulator, one GEMM per kernel
# offset) beats accumulating GEMM results into overlapping strided slices
# of the padded buffer; at larger spatial extents the window-gather copies
# it needs start to dominate and the strided-accumulation route wins.
_GX_FLAT_MAX_PIXELS = 100


def _conv_grad_x(g, w, params):
    n, c, h, wi = params["xshape"]
    f, _, kh, kw = w.shape
    stride, padding = params["stride"], params["padding"]
    hp, wp = h + 2 * padding, wi + 2 * padding
    oh, ow = g.shape[2], g.shape[3]
    if stride == 1 and oh * ow <= _GX_FLAT_MAX_PIXELS:
        py, px = kh - 1 - padding, kw - 1 - padding
        if py >= 0 and px >= 0:
            return _conv_grad_x_flat(g, w, params, py, px)
    scratch = params.get("_scratch_gx")
    if scratch is None or scratch[0].shape != (c, n, hp, wp):
        scratch = (
            np.zeros((c, n, hp, wp), dtype=g.dtype),
            np.empty((c, n * oh * ow), dtype=g.dtype),
        )
        params["_scratch_gx"] = scratch
    gxp, tbuf = scratch
    gxp.fill(0.0)
    gt = np.ascontiguousarray(g.transpose(1, 0, 2, 3)).reshape(f, -1)
    for dy in range(kh):
        for dx in range(kw):
            np.matmul(w[:, :, dy, dx].T, gt, out=tbuf)
            gxp[
                :, :, dy : dy + stride * oh : stride, dx : dx + stride * ow : stride
            ] += tbuf.reshape(c, n, oh, ow)
    interior = gxp[:, :, padding : padding + h, padding : padding + wi]
    return np.ascontiguousarray(interior.transpose(1, 0, 2, 3))


def _conv_grad_x_flat(g, w, params, py, px):
    """Input gradient as a stride-1 transposed convolution.

    ``g`` is zero-padded channel-first and the spatially flipped kernel is
    applied per offset, accumulating into one flat ``(c, n*h*w)`` buffer —
    every write is a contiguous GEMM add, never a scatter into overlapping
    strided views.
    """
    n, c, h, wi = params["xshape"]
    f, _, kh, kw = w.shape
    oh, ow = g.shape[2], g.shape[3]
    gp_shape = (f, n, oh + 2 * py, ow + 2 * px)
    scratch = params.get("_scratch_gx_flat")
    if scratch is None or scratch[0].shape != gp_shape:
        scratch = (
            np.zeros(gp_shape, dtype=g.dtype),
            np.zeros((c, n * h * wi), dtype=g.dtype),
            np.empty((c, n * h * wi), dtype=g.dtype),
        )
        params["_scratch_gx_flat"] = scratch
    gp, acc, tbuf = scratch
    gp[:, :, py : py + oh, px : px + ow] = g.transpose(1, 0, 2, 3)
    acc.fill(0.0)
    for dy in range(kh):
        for dx in range(kw):
            win = gp[:, :, dy : dy + h, dx : dx + wi].reshape(f, -1)
            np.matmul(w[:, :, kh - 1 - dy, kw - 1 - dx].T, win, out=tbuf)
            acc += tbuf
    return np.ascontiguousarray(acc.reshape(c, n, h, wi).transpose(1, 0, 2, 3))


def _k_conv_bwd_w(args, params):
    g, x = args
    return _conv_grad_w(g, x, params)


def _k_conv_bwd_x(args, params):
    g, w = args
    return _conv_grad_x(g, w, params)


def _k_conv_bwd_b(args, params):
    return args[0].sum(axis=(0, 2, 3))


def _k_conv_bwd_w_exact(args, params):
    g, x = args
    f, _, kh, kw = params["wshape"]
    cols, _, _ = _im2col(x, kh, kw, params["stride"], params["padding"])
    gcols = g.transpose(0, 2, 3, 1).reshape(-1, f)
    return (gcols.T @ cols).reshape(params["wshape"])


def _k_conv_bwd_x_exact(args, params):
    g, w = args
    f, _, kh, kw = w.shape
    oh, ow = g.shape[2], g.shape[3]
    gcols = g.transpose(0, 2, 3, 1).reshape(-1, f)
    return _col2im(
        gcols @ w.reshape(f, -1), params["xshape"], kh, kw,
        params["stride"], params["padding"], oh, ow,
    )


def _k_conv_bwd_b_exact(args, params):
    # The tape sums the (N*oh*ow, F) gcols layout, whose pairwise-summation
    # order differs from g.sum((0, 2, 3)); replicate it exactly.
    g = args[0]
    f = g.shape[1]
    return g.transpose(0, 2, 3, 1).reshape(-1, f).sum(axis=0)


# ----------------------------------------------------- fused conv → BN → ReLU
# Fast mode only.  The fused tuple keeps the bn_train layout
# (out, xhat, invstd, mean, var) so the tracer's running-stat tuple_gets
# (indices 3/4) stay valid when the fusion pass replaces the bn node in
# place; ``out`` is post-ReLU.


def _chan_dot(a, b):
    """``(a * b).sum`` over all-but-channel axes, without the product array."""
    if a.ndim == 4:
        return np.einsum("nchw,nchw->c", a, b)
    return np.einsum("nc,nc->c", a, b)


def _k_conv_bn_relu(args, params):
    nca = params["n_conv_args"]
    y = _k_conv2d(args[:nca], params)
    gamma, beta = args[nca], args[nca + 1]
    axes, shape = _bn_axes(params["ndim"])
    mean = y.mean(axis=axes)
    # ``y`` is this kernel's own conv output, so it can be centred and
    # scaled in place, becoming the xhat the tuple hands to the backward.
    y -= mean.reshape(shape)
    var = (y * y).mean(axis=axes)
    invstd = 1.0 / np.sqrt(var + params["eps"])
    y *= invstd.reshape(shape)
    out = y * gamma.reshape(shape)
    out += beta.reshape(shape)
    np.maximum(out, 0.0, out=out)
    return (out, y, invstd, mean, var)


def _k_conv_bn_relu_bwd(args, params):
    g, tup, x, w, gamma = args
    # The gated BN gradient lives in this node's persistent scratch; it
    # never escapes (the conv gradients below are fresh arrays).
    gz, ggamma, gbeta = _k_bn_relu_train_bwd((g, tup, gamma), params)
    gw = _conv_grad_w(gz, x, params)
    gb = gz.sum(axis=(0, 2, 3)) if params["has_bias"] else None
    gx = _conv_grad_x(gz, w, params) if params["need_gx"] else None
    return (gx, gw, gb, ggamma, gbeta)


# Fast-table overrides of the shared (tape-replicating) BatchNorm train
# kernels: same arithmetic with the temporaries squeezed out — centring in
# a single allocated buffer, channel reductions via einsum instead of a
# materialized product.  Exact mode keeps the originals, whose operation
# order matches the tape bit for bit.


def _k_bn_train_fast(args, params):
    x, gamma, beta = args
    axes, shape = _bn_axes(params["ndim"])
    mean = x.mean(axis=axes)
    xhat = x - mean.reshape(shape)
    var = (xhat * xhat).mean(axis=axes)
    invstd = 1.0 / np.sqrt(var + params["eps"])
    xhat *= invstd.reshape(shape)
    out = xhat * gamma.reshape(shape)
    out += beta.reshape(shape)
    return (out, xhat, invstd, mean, var)


def _k_bn_train_bwd_fast(args, params):
    g, tup, gamma = args
    _, xhat, invstd, _, _ = tup
    axes, shape = _bn_axes(params["ndim"])
    gbeta = g.sum(axis=axes)
    ggamma = _chan_dot(g, xhat)
    cnt = g.size // g.shape[1]
    gx = g - (gbeta / cnt).reshape(shape)
    gx -= xhat * (ggamma / cnt).reshape(shape)
    gx *= (gamma * invstd).reshape(shape)
    return (gx, ggamma, gbeta)


# Fused BN → ReLU for pre-activation networks (DenseNet et al.), where no
# producing conv is available to absorb the triple.  The tuple keeps the
# bn_train slot layout; ``out`` is post-ReLU, and the backward gates on it
# (``max(z, 0) > 0  ⇔  z > 0``) before running the BN chain in place.


def _k_bn_relu_train(args, params):
    out, xhat, invstd, mean, var = _k_bn_train_fast(args, params)
    np.maximum(out, 0.0, out=out)
    return (out, xhat, invstd, mean, var)


def _k_bn_relu_train_bwd(args, params):
    g, tup, gamma = args
    out, xhat, invstd, _, _ = tup
    axes, shape = _bn_axes(params["ndim"])
    # Persistent per-node buffers: the gated gradient, an xhat-sized
    # temporary, and the ReLU mask.  Freshly mmapped multi-MB arrays cost
    # a page-fault sweep per touch; reusing warm buffers avoids it.  Only
    # ``gr`` escapes, and solely into downstream backward kernels whose
    # own outputs are freshly allocated, so no returned gradient aliases
    # these buffers across runs.
    scratch = params.get("_scratch_bnr")
    if scratch is None or scratch[0].shape != g.shape:
        scratch = (
            np.empty_like(g),
            np.empty_like(g),
            np.empty(g.shape, dtype=bool),
        )
        params["_scratch_bnr"] = scratch
    gr, tmp, mask = scratch
    np.greater(out, 0.0, out=mask)
    np.multiply(g, mask, out=gr)
    gbeta = gr.sum(axis=axes)
    ggamma = _chan_dot(gr, xhat)
    # gx = (gamma * invstd) * (gr - gbeta/cnt - xhat * ggamma/cnt): the
    # batch means of gamma*gr and gamma*gr*xhat are gamma*gbeta/cnt and
    # gamma*ggamma/cnt, so the two reductions above are the only ones
    # needed; the whole chain runs in place on the scratch.
    cnt = gr.size // gr.shape[1]
    gr -= (gbeta / cnt).reshape(shape)
    np.multiply(xhat, (ggamma / cnt).reshape(shape), out=tmp)
    gr -= tmp
    gr *= (gamma * invstd).reshape(shape)
    return (gr, ggamma, gbeta)


_TRAIN_KERNELS = {
    "bn_train": _k_bn_train,
    "bn_train_bwd": _k_bn_train_bwd,
    "max_pool2d_train": _k_max_pool2d_train,
    "max_pool2d_bwd": _k_max_pool2d_bwd,
    "cross_entropy": _k_cross_entropy,
    "cross_entropy_bwd": _k_cross_entropy_bwd,
    "tuple_get": _k_tuple_get,
    "unbroadcast": _k_unbroadcast,
    "add_acc": _k_add_acc,
    "relu_bwd": _k_relu_bwd,
    "tanh_bwd": _k_tanh_bwd,
    "sigmoid_bwd": _k_sigmoid_bwd,
    "sqrt_bwd": _k_sqrt_bwd,
    "abs_bwd": _k_abs_bwd,
    "power_bwd": _k_power_bwd,
    "maximum_bwd_a": _k_maximum_bwd_a,
    "maximum_bwd_b": _k_maximum_bwd_b,
    "clip_bwd": _k_clip_bwd,
    "sum_bwd": _k_sum_bwd,
    "mean_bwd": _k_mean_bwd,
    "max_bwd": _k_max_bwd,
    "getitem_bwd": _k_getitem_bwd,
    "slice_axis": _k_slice_axis,
    "unpad2d": _k_unpad2d,
    "matmul_bwd_a": _k_matmul_bwd_a,
    "matmul_bwd_b": _k_matmul_bwd_b,
    "linear_bwd_x": _k_linear_bwd_x,
    "linear_bwd_w": _k_linear_bwd_w,
    "linear_bwd_b": _k_linear_bwd_b,
    "softmax_bwd": _k_softmax_bwd,
    "log_softmax_bwd": _k_log_softmax_bwd,
    "gap_bwd": _k_gap_bwd,
    "upsample_bwd": _k_upsample_bwd,
    "avg_pool_bwd": _k_avg_pool_bwd,
}

KTABLE_FAST = {
    **KERNELS,
    **_TRAIN_KERNELS,
    "conv_bwd_w": _k_conv_bwd_w,
    "conv_bwd_x": _k_conv_bwd_x,
    "conv_bwd_b": _k_conv_bwd_b,
    "conv_bn_relu": _k_conv_bn_relu,
    "conv_bn_relu_bwd": _k_conv_bn_relu_bwd,
    "bn_train": _k_bn_train_fast,
    "bn_train_bwd": _k_bn_train_bwd_fast,
    "bn_relu_train": _k_bn_relu_train,
    "bn_relu_train_bwd": _k_bn_relu_train_bwd,
}

KTABLE_EXACT = {
    **KERNELS_EXACT,
    **_TRAIN_KERNELS,
    "conv_bwd_w": _k_conv_bwd_w_exact,
    "conv_bwd_x": _k_conv_bwd_x_exact,
    "conv_bwd_b": _k_conv_bwd_b_exact,
}


# ------------------------------------------------------- backward derivation


def _requires_flags(nodes: list[Node]) -> list[bool]:
    """``requires[i]`` replicates ``Tensor.requires_grad`` propagation:
    parameters are the only requiring leaves; compute nodes require iff any
    input does (``build`` detaches outputs with no requiring parent)."""
    requires = [False] * len(nodes)
    for i, node in enumerate(nodes):
        if node.op == "param":
            requires[i] = True
        elif node.op not in _LEAF_OPS:
            requires[i] = any(requires[j] for j in node.inputs)
    return requires


def _tape_topo(nodes: list[Node], requires: list[bool], root: int) -> list[int]:
    """Replicate ``Tensor.backward``'s DFS over the traced graph.

    Same stack discipline, same push order — non-requiring nodes are not
    expanded (their tape tensors have ``_prev = ()``), so the reverse
    visitation order (and with it the gradient accumulation order) matches
    the tape's float-addition order exactly.
    """
    topo: list[int] = []
    seen: set[int] = set()
    stack: list[tuple[int, bool]] = [(root, False)]
    while stack:
        index, processed = stack.pop()
        if processed:
            topo.append(index)
            continue
        if index in seen:
            continue
        seen.add(index)
        stack.append((index, True))
        if requires[index] and nodes[index].op not in _LEAF_OPS:
            for j in nodes[index].inputs:
                if j not in seen:
                    stack.append((j, False))
    return topo


class _Deriver:
    """Emits backward kernel nodes onto a (copied) forward graph."""

    def __init__(self, nodes: list[Node], shapes: list, requires: list[bool]):
        self.nodes = nodes
        self.shapes = shapes
        self.requires = requires

    def emit(self, op, inputs=(), params=None, shape=None) -> int:
        self.nodes.append(Node(op, tuple(inputs), params or {}))
        self.shapes.append(shape)
        return len(self.nodes) - 1

    def _ub(self, g: int, gshape, target: int) -> int:
        """Unbroadcast ``g`` to a parent's shape — a no-op node-free pass
        when shapes already agree, exactly like ``tensor.unbroadcast``."""
        want = self.shapes[target]
        if gshape == want:
            return g
        return self.emit("unbroadcast", (g,), {"shape": want}, shape=want)

    def vjp(self, i: int, g: int) -> list[tuple[int, int]]:
        """(parent position, gradient node) pairs in backward-closure order."""
        node = self.nodes[i]
        ins = node.inputs
        op = node.op
        oshape = self.shapes[i]
        emit, ub = self.emit, self._ub
        if op == "add":
            return [(0, ub(g, oshape, ins[0])), (1, ub(g, oshape, ins[1]))]
        if op == "sub":
            gb = emit("neg", (g,), shape=oshape)
            return [(0, ub(g, oshape, ins[0])), (1, ub(gb, oshape, ins[1]))]
        if op == "mul":
            ga = emit("mul", (g, ins[1]), shape=oshape)
            gb = emit("mul", (g, ins[0]), shape=oshape)
            return [(0, ub(ga, oshape, ins[0])), (1, ub(gb, oshape, ins[1]))]
        if op == "div":
            ga = emit("div", (g, ins[1]), shape=oshape)
            # -g * a / (b*b) evaluates as ((-g) * a) / (b * b)
            ng = emit("neg", (g,), shape=oshape)
            num = emit("mul", (ng, ins[0]), shape=oshape)
            den = emit("mul", (ins[1], ins[1]), shape=self.shapes[ins[1]])
            gb = emit("div", (num, den), shape=oshape)
            return [(0, ub(ga, oshape, ins[0])), (1, ub(gb, oshape, ins[1]))]
        if op == "neg":
            return [(0, emit("neg", (g,), shape=oshape))]
        if op == "power":
            p = {"exponent": node.params["exponent"]}
            return [(0, emit("power_bwd", (g, ins[0]), p, shape=oshape))]
        if op == "matmul":
            a_s, b_s = self.shapes[ins[0]], self.shapes[ins[1]]
            if len(a_s) != 2 or len(b_s) != 2:
                raise CompileError("only 2-D matmul has a gradient rule")
            ga = emit("matmul_bwd_a", (g, ins[1]), shape=a_s)
            gb = emit("matmul_bwd_b", (ins[0], g), shape=b_s)
            return [(0, ga), (1, gb)]
        if op == "exp":
            return [(0, emit("mul", (g, i), shape=oshape))]
        if op == "log":
            return [(0, emit("div", (g, ins[0]), shape=oshape))]
        if op == "sqrt":
            return [(0, emit("sqrt_bwd", (g, i), shape=oshape))]
        if op == "relu":
            return [(0, emit("relu_bwd", (g, i), shape=oshape))]
        if op == "tanh":
            return [(0, emit("tanh_bwd", (g, i), shape=oshape))]
        if op == "sigmoid":
            return [(0, emit("sigmoid_bwd", (g, i), shape=oshape))]
        if op == "abs":
            return [(0, emit("abs_bwd", (g, ins[0]), shape=oshape))]
        if op == "maximum":
            ga = emit("maximum_bwd_a", (g, ins[0], ins[1]), shape=oshape)
            gb = emit("maximum_bwd_b", (g, ins[0], ins[1]), shape=oshape)
            return [(0, ub(ga, oshape, ins[0])), (1, ub(gb, oshape, ins[1]))]
        if op == "clip":
            p = {"low": node.params["low"], "high": node.params["high"]}
            return [(0, emit("clip_bwd", (g, ins[0]), p, shape=oshape))]
        if op in ("sum", "mean"):
            shape = self.shapes[ins[0]]
            p = {
                "axis": node.params["axis"],
                "keepdims": node.params["keepdims"],
                "shape": shape,
            }
            return [(0, emit(op + "_bwd", (g,), p, shape=shape))]
        if op == "max":
            shape = self.shapes[ins[0]]
            p = {"axis": node.params["axis"], "keepdims": node.params["keepdims"]}
            return [(0, emit("max_bwd", (g, ins[0], i), p, shape=shape))]
        if op == "reshape":
            shape = self.shapes[ins[0]]
            return [(0, emit("reshape", (g,), {"shape": shape}, shape=shape))]
        if op == "transpose":
            axes = node.params["axes"]
            inverse = tuple(int(v) for v in np.argsort(axes))
            shape = self.shapes[ins[0]]
            return [(0, emit("transpose", (g,), {"axes": inverse}, shape=shape))]
        if op == "getitem":
            shape = self.shapes[ins[0]]
            p = {"index": node.params["index"], "shape": shape}
            return [(0, emit("getitem_bwd", (g, ins[0]), p, shape=shape))]
        if op == "concatenate":
            axis = node.params["axis"]
            out: list[tuple[int, int]] = []
            lo = 0
            for pos, j in enumerate(ins):
                hi = lo + self.shapes[j][axis]
                p = {"axis": axis, "lo": lo, "hi": hi}
                out.append((pos, emit("slice_axis", (g,), p, shape=self.shapes[j])))
                lo = hi
            return out
        if op == "pad2d":
            p = {"padding": node.params["padding"]}
            return [(0, emit("unpad2d", (g,), p, shape=self.shapes[ins[0]]))]
        if op == "linear":
            out = [
                (0, emit("linear_bwd_x", (g, ins[1]), shape=self.shapes[ins[0]])),
                (1, emit("linear_bwd_w", (g, ins[0]), shape=self.shapes[ins[1]])),
            ]
            if len(ins) == 3:
                out.append(
                    (2, emit("linear_bwd_b", (g,), shape=self.shapes[ins[2]]))
                )
            return out
        if op == "conv2d":
            xshape = self.shapes[ins[0]]
            wshape = self.shapes[ins[1]]
            stride, padding = node.params["stride"], node.params["padding"]
            kh, kw = wshape[2], wshape[3]
            wp = {
                "stride": stride, "padding": padding, "wshape": wshape,
                "_use_shared": stride == 1 and kh * kw > 1, "_fwd_node": i,
            }
            xp = {"stride": stride, "padding": padding, "xshape": xshape}
            out = [
                (0, emit("conv_bwd_x", (g, ins[1]), xp, shape=xshape)),
                (1, emit("conv_bwd_w", (g, ins[0]), wp, shape=wshape)),
            ]
            if len(ins) == 3:
                out.append(
                    (2, emit("conv_bwd_b", (g,), shape=self.shapes[ins[2]]))
                )
            return out
        if op == "conv_bn_relu":
            nca = node.params["n_conv_args"]
            xshape = self.shapes[ins[0]]
            wshape = self.shapes[ins[1]]
            kh, kw = wshape[2], wshape[3]
            stride = node.params["stride"]
            p = {
                "stride": stride,
                "padding": node.params["padding"],
                "ndim": node.params["ndim"],
                "wshape": wshape,
                "xshape": xshape,
                "has_bias": nca == 3,
                "need_gx": self.requires[ins[0]],
                "_use_shared": stride == 1 and kh * kw > 1,
                "_fwd_node": i,
            }
            bwd = emit("conv_bn_relu_bwd", (g, i, ins[0], ins[1], ins[nca]), p)
            out = [
                (0, emit("tuple_get", (bwd,), {"index": 0}, shape=xshape)),
                (1, emit("tuple_get", (bwd,), {"index": 1}, shape=wshape)),
            ]
            if nca == 3:
                out.append((2, emit(
                    "tuple_get", (bwd,), {"index": 2}, shape=self.shapes[ins[2]]
                )))
            out.append((nca, emit(
                "tuple_get", (bwd,), {"index": 3}, shape=self.shapes[ins[nca]]
            )))
            out.append((nca + 1, emit(
                "tuple_get", (bwd,), {"index": 4}, shape=self.shapes[ins[nca + 1]]
            )))
            return out
        if op in ("bn_train", "bn_relu_train"):
            p = {"ndim": node.params["ndim"]}
            bwd = emit(op + "_bwd", (g, i, ins[1]), p)
            return [
                (0, emit("tuple_get", (bwd,), {"index": 0}, shape=self.shapes[ins[0]])),
                (1, emit("tuple_get", (bwd,), {"index": 1}, shape=self.shapes[ins[1]])),
                (2, emit("tuple_get", (bwd,), {"index": 2}, shape=self.shapes[ins[2]])),
            ]
        if op == "max_pool2d_train":
            shape = self.shapes[ins[0]]
            p = {
                "kernel": node.params["kernel"],
                "stride": node.params["stride"],
                "shape": shape,
            }
            return [(0, emit("max_pool2d_bwd", (g, i, ins[0]), p, shape=shape))]
        if op == "cross_entropy":
            shape = self.shapes[ins[0]]
            ce = emit("cross_entropy_bwd", (g, i, ins[1]), shape=shape)
            return [(0, ce)]
        if op == "tuple_get":
            if node.params["index"] != 0:
                raise CompileError(
                    "gradient reached a saved-intermediate tuple slot"
                )
            return [(0, g)]
        if op == "global_avg_pool2d":
            shape = self.shapes[ins[0]]
            return [(0, emit("gap_bwd", (g,), {"shape": shape}, shape=shape))]
        if op == "upsample_nearest2d":
            shape = self.shapes[ins[0]]
            p = {"scale": node.params["scale"], "shape": shape}
            return [(0, emit("upsample_bwd", (g,), p, shape=shape))]
        if op == "avg_pool2d":
            shape = self.shapes[ins[0]]
            p = {
                "kernel": node.params["kernel"],
                "stride": node.params["stride"],
                "shape": shape,
            }
            return [(0, emit("avg_pool_bwd", (g, ins[0]), p, shape=shape))]
        if op in ("softmax", "log_softmax"):
            p = {"axis": node.params["axis"]}
            return [(0, emit(op + "_bwd", (g, i), p, shape=oshape))]
        raise CompileError(f"no gradient rule for op {op!r}")


def _derive_backward(
    nodes: list[Node],
    shapes: list,
    loss: int,
    sample_loss: np.ndarray,
) -> dict[int, int]:
    """Emit the backward graph; returns {forward node -> gradient node}.

    The traversal and the ``add_acc`` emission order replicate the tape:
    nodes in reverse DFS-topological order, then each node's parents in
    backward-closure position order, accumulating second and later
    contributions with an explicit add.
    """
    requires = _requires_flags(nodes)
    if not requires[loss]:
        raise CompileError("loss does not depend on any parameter")
    topo = _tape_topo(nodes, requires, loss)
    deriver = _Deriver(nodes, shapes, requires)
    grad_of: dict[int, int] = {}
    grad_of[loss] = deriver.emit(
        "value", params={"value": np.ones_like(sample_loss)}, shape=sample_loss.shape
    )
    for i in reversed(topo):
        if not requires[i] or nodes[i].op in _LEAF_OPS:
            continue
        g = grad_of.get(i)
        if g is None:
            continue
        for pos, gnode in deriver.vjp(i, g):
            parent = nodes[i].inputs[pos]
            if not requires[parent]:
                continue
            held = grad_of.get(parent)
            if held is None:
                grad_of[parent] = gnode
            else:
                grad_of[parent] = deriver.emit(
                    "add_acc", (held, gnode), shape=shapes[parent]
                )
    return grad_of


# ------------------------------------------------------------- fusion (fast)


def _fuse_bn_relu(nodes: list[Node], protected: set[int]) -> None:
    """Fast-mode peephole: ``bn_train → tuple_get0 → relu`` becomes one
    tuple node.

    When the BatchNorm input is an unprotected ``conv2d`` with no other
    consumer, the conv is absorbed too (``conv_bn_relu``); otherwise the
    pre-activation form ``bn_relu_train`` is emitted (DenseNet's
    BN→ReLU→conv blocks).  The bn node's index is reused for the fused
    node so the tracer's running-stat ``tuple_get`` consumers (indices 3/4
    — same slot layout) stay valid without rewiring; the relu node's index
    becomes the post-ReLU projection, keeping downstream consumers valid
    too.  The old conv and projection nodes go dead and fall to the
    scheduling DCE.
    """
    consumers: dict[int, int] = {}
    for node in nodes:
        for j in node.inputs:
            consumers[j] = consumers.get(j, 0) + 1
    for r, node in enumerate(nodes):
        if node.op != "relu":
            continue
        t = node.inputs[0]
        proj = nodes[t]
        if (
            proj.op != "tuple_get"
            or proj.params["index"] != 0
            or consumers.get(t, 0) != 1
        ):
            continue
        b = proj.inputs[0]
        bn = nodes[b]
        if bn.op != "bn_train" or {t, b} & protected:
            continue
        c = bn.inputs[0]
        conv = nodes[c]
        if conv.op == "conv2d" and consumers.get(c, 0) == 1 and c not in protected:
            nodes[b] = Node(
                "conv_bn_relu",
                conv.inputs + bn.inputs[1:],
                {
                    "stride": conv.params["stride"],
                    "padding": conv.params["padding"],
                    "eps": bn.params["eps"],
                    "ndim": bn.params["ndim"],
                    "n_conv_args": len(conv.inputs),
                },
            )
        else:
            nodes[b] = Node("bn_relu_train", bn.inputs, dict(bn.params))
        nodes[r] = Node("tuple_get", (b,), {"index": 0})


# -------------------------------------------------------------- GradPlan


class GradPlan:
    """An executable training step (loss + logits + gradients) for one
    (input shape, label shape) pair.

    ``run`` binds the input batch, the labels, and the model's *live*
    parameter/buffer arrays into leaf slots, streams the flat step list,
    and returns ``(loss, logits, grads, stats)`` where ``grads`` maps
    parameter names to gradient arrays (absent parameters received no
    gradient, like a tape ``p.grad`` of ``None``) and ``stats`` holds the
    batch ``(mean, var)`` pairs the engine replays into the BatchNorm
    running buffers.

    ``exact=True`` disables fusion and in-place rewrites and routes convs
    through the module's own im2col arithmetic: the plan then replays the
    tape's floating-point operations bit for bit.
    """

    def __init__(self, graph: TrainGraph, model: Module, exact: bool = False):
        nodes = [Node(n.op, n.inputs, dict(n.params)) for n in graph.nodes]
        shapes = list(graph.shapes)
        self.exact = exact
        self.bn_updates = [dict(u) for u in graph.bn_updates]
        if not exact:
            protected = {graph.input, graph.logits, graph.loss}
            if graph.label is not None:
                protected.add(graph.label)
            _fuse_bn_relu(nodes, protected)
        grad_of = _derive_backward(nodes, shapes, graph.loss, graph.sample_loss)
        self._grad_index = {
            nodes[i].params["name"]: grad_of[i]
            for i in grad_of
            if nodes[i].op == "param"
        }
        stat_nodes = [u["mean"] for u in self.bn_updates] + [
            u["var"] for u in self.bn_updates
        ]
        roots = [graph.loss, graph.logits, *self._grad_index.values(), *stat_nodes]
        order = _toposort(nodes, roots)
        # Wire shared-scratch references now that node copies are final:
        # a backward conv reads the padded input its forward kernel cached.
        for i in order:
            fwd = nodes[i].params.get("_fwd_node")
            if fwd is not None:
                nodes[i].params["_fwd"] = nodes[fwd].params

        self._nodes = nodes
        self._input = graph.input
        self._label = graph.label
        self._label_shape = (
            None if graph.label is None else nodes[graph.label].params["shape"]
        )
        self._loss = graph.loss
        self._logits = graph.logits

        params = dict(model.named_parameters())
        buffers: dict[str, tuple[Module, str]] = {}
        for prefix, module in model.named_modules():
            for local in module._buffers:
                full = f"{prefix}.{local}" if prefix else local
                buffers[full] = (module, local)
        self._param_slots: list[tuple[int, object]] = []
        self._buffer_slots: list[tuple[int, Module, str]] = []
        for i in order:
            node = nodes[i]
            if node.op == "param":
                name = node.params["name"]
                if name not in params:
                    raise CompileError(f"model has no parameter {name!r}")
                self._param_slots.append((i, params[name]))
            elif node.op == "buffer":
                name = node.params["name"]
                if name not in buffers:
                    raise CompileError(f"model has no buffer {name!r}")
                module, local = buffers[name]
                self._buffer_slots.append((i, module, local))

        # "value" leaves (traced constants and the backward seed) are
        # preset once and survive every run; everything non-leaf is a
        # runtime step.
        self._slots: list = [None] * len(nodes)
        for i in order:
            if nodes[i].op == "value":
                value = nodes[i].params["value"]
                self._slots[i] = (
                    value.copy() if isinstance(value, np.ndarray) else value
                )
        steps = [i for i in order if nodes[i].op not in _LEAF_OPS]
        self._steps = _schedule(
            nodes, steps, set(roots),
            KTABLE_EXACT if exact else KTABLE_FAST, inplace=not exact,
        )
        self._runtime_slots = steps

    @property
    def n_steps(self) -> int:
        return len(self._steps)

    def run(self, x: np.ndarray, y: np.ndarray):
        """One training step's compute: ``(loss, logits, grads, stats)``."""
        slots = self._slots
        slots[self._input] = x
        if self._label is not None:
            labels = np.asarray(y)
            if labels.shape != self._label_shape:
                labels = labels.reshape(self._label_shape)
            slots[self._label] = labels
        for i, param in self._param_slots:
            slots[i] = param.data
        for i, module, local in self._buffer_slots:
            slots[i] = module._buffers[local]
        try:
            _run_steps(slots, self._steps)
            loss = slots[self._loss]
            logits = slots[self._logits]
            grads = {name: slots[i] for name, i in self._grad_index.items()}
            stats = [
                (slots[u["mean"]], slots[u["var"]]) for u in self.bn_updates
            ]
            return loss, logits, grads, stats
        finally:
            slots[self._input] = None
            if self._label is not None:
                slots[self._label] = None
            for i, _ in self._param_slots:
                slots[i] = None
            for i, _, _ in self._buffer_slots:
                slots[i] = None
            for i in self._runtime_slots:
                slots[i] = None
