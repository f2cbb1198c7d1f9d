"""Compile a traced :class:`~repro.infer.trace.TrainGraph` into a gradient plan.

The backward pass is *derived*, not traced: :func:`_derive_backward`
replays ``Tensor.backward``'s depth-first walk over the traced forward
graph and runs every op's gradient rule from the op table
(:mod:`repro.autograd.table`), with an emitter that appends the kernel
nodes the rule emits instead of running them.  Gradient accumulation is
materialized as explicit ``add_acc`` nodes emitted in the same
(reverse-topological node order, then rule order) the tape uses — float
addition is not associative, so an exact plan must replay the tape's
accumulation order bit for bit, not just its dataflow.

One derivation backs two kernel tables:

- **exact** — the op table unchanged: the tape's own kernels, so the plan
  replays the tape's floating-point arithmetic bit for bit (the reference
  mode differential oracles compare against);
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

from repro.autograd import table
from repro.autograd.table import _bn_axes, bn_train_rule, tuple_grads
from repro.infer.plan import (
    KERNELS,
    CompileError,
    _k_conv2d,
    _run_steps,
    _schedule,
    _toposort,
)
from repro.infer.trace import _LEAF_OPS, Node, TrainGraph
from repro.nn.module import Module

# -------------------------------------------------------- convolution backward
# Fast overrides of the op table's conv backward kernels.  The weight
# gradient reuses the forward conv's persistent padded channel-first
# scratch of its row count (``params["_fwd"]`` is the forward node's params
# dict, which the gradient rule hands over): at backward time it still
# holds this batch's padded input, so ``gw`` needs no gather at all — one
# contiguous-view tensordot per kernel offset.


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


def _conv_bn_relu_rule(e, x, y, g, p, need):
    nca = p["n_conv_args"]
    wshape = e.shape(x[1])
    params = {
        "stride": p["stride"],
        "padding": p["padding"],
        "ndim": p["ndim"],
        "wshape": wshape,
        "xshape": e.shape(x[0]),
        "has_bias": nca == 3,
        "need_gx": need[0],
        "_use_shared": p["stride"] == 1 and wshape[2] * wshape[3] > 1,
        "_fwd": p,
    }
    bwd = e.op("conv_bn_relu_bwd", (g, y, x[0], x[1], x[nca]), params)
    # The tuple is (gx, gw, gb, ggamma, gbeta); gb is None without a bias.
    positions = (0, 1, 2 if nca == 3 else None, nca, nca + 1)
    return tuple_grads(e, bwd, need, positions)


# The fast table: the eval fast table plus the fast conv backward and the
# fused BatchNorm kernels.  Exact plans run ``table.KERNELS`` unchanged.
KTABLE_FAST = {
    **KERNELS,
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

# The op table's rules, plus those of the fused ops only fast plans hold.
_RULES = {
    **table.RULES,
    "conv_bn_relu": _conv_bn_relu_rule,
    "bn_relu_train": bn_train_rule("bn_relu_train_bwd"),
}


# ------------------------------------------------------- backward derivation


def _requires_flags(nodes: list[Node]) -> list[bool]:
    """``requires[i]`` replicates ``Tensor.requires_grad`` propagation:
    parameters are the only requiring leaves; compute nodes require iff any
    input does (``apply`` links no tape entry for an output with no
    requiring input)."""
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
    expanded (their tensors have no tape entry), so the reverse
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
    """The plan-side emitter of the op table's gradient rules: each kernel
    a rule emits becomes a node appended to the (copied) forward graph."""

    def __init__(self, nodes: list[Node], shapes: list):
        self.nodes = nodes
        self.shapes = shapes

    def op(self, name, inputs, params=None) -> int:
        self.nodes.append(Node(name, tuple(inputs), params or {}))
        self.shapes.append(None)
        return len(self.nodes) - 1

    def shape(self, index: int):
        return self.shapes[index]


def _derive_backward(
    nodes: list[Node],
    shapes: list,
    loss: int,
    sample_loss: np.ndarray,
) -> dict[int, int]:
    """Emit the backward graph; returns {forward node -> gradient node}.

    The traversal and the ``add_acc`` emission order replicate the tape:
    nodes in reverse DFS-topological order, then each node's gradients in
    the order its rule returns them, accumulating second and later
    contributions with an explicit add.  A ``tuple_get`` of a tuple op's
    value passes its gradient through; the tape holds no such node.
    """
    requires = _requires_flags(nodes)
    if not requires[loss]:
        raise CompileError("loss does not depend on any parameter")
    topo = _tape_topo(nodes, requires, loss)
    deriver = _Deriver(nodes, shapes)
    grad_of: dict[int, int] = {}
    grad_of[loss] = deriver.op("value", (), {"value": np.ones_like(sample_loss)})
    for i in reversed(topo):
        node = nodes[i]
        if not requires[i] or node.op in _LEAF_OPS:
            continue
        g = grad_of.get(i)
        if g is None:
            continue
        if node.op == "tuple_get":
            if node.params["index"] != 0:
                raise CompileError("gradient reached a saved-intermediate tuple slot")
            grads = [(0, g)]
        else:
            rule = _RULES.get(node.op)
            if rule is None:
                raise CompileError(f"no gradient rule for op {node.op!r}")
            node.params["_save"] = True
            need = [requires[j] for j in node.inputs]
            grads = rule(deriver, node.inputs, i, g, node.params, need)
        for pos, gnode in grads:
            parent = node.inputs[pos]
            held = grad_of.get(parent)
            grad_of[parent] = (
                gnode if held is None else deriver.op("add_acc", (held, gnode))
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

    ``exact=True`` disables fusion and in-place rewrites and runs the op
    table's kernels unchanged: the plan then replays the tape's
    floating-point operations bit for bit.
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
            table.KERNELS if exact else KTABLE_FAST, inplace=not exact,
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
