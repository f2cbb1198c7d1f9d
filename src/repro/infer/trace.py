"""Graph capture: run one forward and record every tensor op.

The autograd stack funnels all tensor math through module-level functions
(``repro.autograd.ops`` / ``repro.autograd.functional``) that are *also*
installed as :class:`Tensor` methods.  Tracing therefore patches

- the ``Tensor`` class attributes (dunders and named methods), and
- the ``functional`` / ``ops`` module attributes that layers look up at
  call time (``F.conv2d``, ``ops.concatenate``, ...),

runs the model once, and restores everything in a ``finally``.  Each
wrapper calls the original op (so the traced forward is bit-identical to a
normal one) and appends a :class:`Node` to the graph.  :func:`trace` runs
the eval forward under :func:`no_grad`; :func:`trace_training` keeps the
tape on and, once the patches are gone, runs the backward too, so the
traced step doubles as the reference its gradient plan is validated
against.

Leaves are classified by identity against the model's registered state:
parameters and buffers become named leaves re-resolved at plan refresh
time (``load_state_dict`` / ``set_buffer`` rebind the arrays, so capturing
them by reference would go stale); any other tensor entering the graph
from outside is captured as a frozen constant.  A forward that produces
its output through untraced code paths raises :exc:`TraceError` and the
engine falls back to the plain ``Module`` forward.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

import numpy as np

from repro.autograd import functional as F
from repro.autograd import ops
from repro.autograd.tensor import Tensor, free_tape, no_grad
from repro.nn.module import Module


class TraceError(RuntimeError):
    """The model's forward cannot be captured as a static op graph."""


@dataclass
class Node:
    """One vertex of the traced dataflow graph.

    ``op`` names either a leaf (``input`` / ``param`` / ``buffer`` /
    ``value``) or a compute op with ``inputs`` referencing earlier nodes.
    """

    op: str
    inputs: tuple[int, ...] = ()
    params: dict[str, Any] = field(default_factory=dict)


@dataclass
class Graph:
    """A traced forward: nodes plus the input/output node indices."""

    nodes: list[Node]
    input: int
    output: int
    sample_output: np.ndarray  # module output on the traced sample


@dataclass
class TrainGraph:
    """A traced train-mode forward: model forward plus the loss head.

    Training traces differ from eval traces in three ways:

    - BatchNorm keeps its batch statistics as a fused ``bn_train`` tuple
      node ``(out, xhat, invstd, mean, var)`` — the backward pass and the
      engine's running-stat update both need the saved intermediates;
    - the labels enter as a dedicated ``label`` leaf (they are a plain
      ndarray, so without explicit matching they would freeze into the
      plan as a constant of the traced batch);
    - ``shapes[i]`` records every node's traced output shape (``None``
      for tuple nodes) so the backward derivation can reason about
      broadcasting without re-running the forward.

    ``bn_updates`` carries one entry per BatchNorm layer: the tuple-get
    node indices of the batch mean/var plus the running-buffer names,
    momentum, and element count needed to replay the in-place update.

    The ``sample_*`` fields record the traced step itself: its loss and
    logits, every parameter's gradient (``None`` where the tape left it
    unset) and the running-stat buffers as the forward left them.
    """

    nodes: list[Node]
    shapes: list[tuple[int, ...] | None]
    input: int
    label: int | None
    logits: int
    loss: int
    bn_updates: list[dict]
    sample_loss: np.ndarray
    sample_logits: np.ndarray
    sample_grads: dict[str, np.ndarray | None]
    sample_buffers: dict[str, np.ndarray]


# Leaf ops of traced graphs: slots bound from outside, never runtime steps.
_LEAF_OPS = frozenset({"input", "param", "buffer", "value", "label"})


class _Tracer:
    def __init__(self, model: Module, training: bool = False):
        self.nodes: list[Node] = []
        # Traced output shape per node (None for tuple-valued nodes).
        self.shapes: list[tuple[int, ...] | None] = []
        # id(Tensor) -> node index for every traced intermediate.
        self.var_of: dict[int, int] = {}
        # Strong references to everything memoized by id, so CPython
        # cannot recycle an id mid-trace.
        self.keep: list[Any] = []
        self.param_names = {id(p): name for name, p in model.named_parameters()}
        self.buffer_names = {id(b): name for name, b in model.named_buffers()}
        self._leaf_cache: dict[tuple[str, str], int] = {}
        self.training = training
        # Training-trace state: the label array the loss must consume and
        # the BatchNorm running-stat updates replayed by the engine.
        self.label_value: np.ndarray | None = None
        self.label_index: int | None = None
        self.bn_updates: list[dict] = []

    def emit(
        self,
        op: str,
        inputs: tuple[int, ...] = (),
        params: dict | None = None,
        shape: tuple[int, ...] | None = None,
    ) -> int:
        self.nodes.append(Node(op, inputs, params or {}))
        self.shapes.append(shape)
        return len(self.nodes) - 1

    def bind(self, tensor: Tensor, index: int) -> None:
        self.var_of[id(tensor)] = index
        self.keep.append(tensor)

    def _leaf(self, kind: str, name: str, shape: tuple[int, ...] | None = None) -> int:
        key = (kind, name)
        if key not in self._leaf_cache:
            self._leaf_cache[key] = self.emit(kind, params={"name": name}, shape=shape)
        return self._leaf_cache[key]

    def ref(self, value) -> int:
        """Node index for an op operand (tensor, ndarray, or scalar)."""
        if isinstance(value, Tensor):
            index = self.var_of.get(id(value))
            if index is not None:
                return index
            if id(value) in self.param_names:
                index = self._leaf(
                    "param", self.param_names[id(value)], shape=value.shape
                )
            else:
                index = self.emit(
                    "value",
                    params={"value": np.array(value.data)},
                    shape=value.shape,
                )
            self.bind(value, index)
            return index
        if isinstance(value, np.ndarray):
            if id(value) in self.buffer_names:
                self.keep.append(value)
                return self._leaf(
                    "buffer", self.buffer_names[id(value)], shape=value.shape
                )
            return self.emit("value", params={"value": np.array(value)}, shape=value.shape)
        if isinstance(value, (int, float, np.integer, np.floating)):
            # Plain python scalars stay python floats so NumPy's scalar
            # promotion matches ops._pair (no silent float64 upcast).
            return self.emit("value", params={"value": float(value)}, shape=())
        raise TraceError(f"cannot trace operand of type {type(value).__name__}")

    def ref_label(self, targets) -> int:
        """Node index for the loss targets; must derive from the label array.

        The targets reaching the loss are a plain ndarray — either the
        traced label batch itself or a view of it (``CrossEntropyLoss``
        flattens dense labels with a numpy ``reshape``).  Anything else
        would silently freeze this batch's labels into the plan.
        """
        arr = targets.data if isinstance(targets, Tensor) else np.asarray(targets)
        lv = self.label_value
        if lv is None or not (arr is lv or arr.base is lv):
            raise TraceError("loss targets do not derive from the traced labels")
        shape = tuple(arr.shape)
        if self.label_index is None:
            self.label_index = self.emit("label", params={"shape": shape}, shape=shape)
        elif self.nodes[self.label_index].params["shape"] != shape:
            raise TraceError("loss consumes the labels under two different shapes")
        return self.label_index


def _check_static_index(index) -> None:
    items = index if isinstance(index, tuple) else (index,)
    for item in items:
        if isinstance(item, Tensor):
            raise TraceError("tensor-valued indexing is not traceable")


def _record(tracer: _Tracer, op: str, operands: tuple, params: dict, out: Tensor) -> Tensor:
    tracer.bind(
        out,
        tracer.emit(
            op, tuple(tracer.ref(v) for v in operands), params, shape=out.shape
        ),
    )
    return out


def _patched_attrs(tracer: _Tracer) -> dict[tuple[Any, str], Any]:
    """Build the {(owner, attr): wrapper} patch table for one trace."""
    # Capture the originals up front: the wrappers below must never go
    # through the (patched) module attributes or they would recurse.
    orig_getitem, orig_reshape, orig_transpose = ops.getitem, ops.reshape, ops.transpose
    orig_power, orig_clip, orig_pad2d = ops.power, ops.clip, ops.pad2d
    orig_concatenate = ops.concatenate
    orig_conv2d, orig_linear, orig_batch_norm = F.conv2d, F.linear, F.batch_norm
    orig_max_pool, orig_avg_pool = F.max_pool2d, F.avg_pool2d
    orig_gap, orig_upsample = F.global_avg_pool2d, F.upsample_nearest2d
    orig_softmax, orig_log_softmax, orig_dropout = F.softmax, F.log_softmax, F.dropout
    orig_cross_entropy = F.cross_entropy

    def binary(op_name, orig, swap=False):
        def wrapper(a, b):
            operands = (b, a) if swap else (a, b)
            return _record(tracer, op_name, operands, {}, orig(a, b))

        return wrapper

    def unary(op_name, orig):
        def wrapper(a):
            return _record(tracer, op_name, (a,), {}, orig(a))

        return wrapper

    def reduction(op_name, orig):
        def wrapper(a, axis=None, keepdims=False):
            params = {"axis": axis, "keepdims": bool(keepdims)}
            return _record(tracer, op_name, (a,), params, orig(a, axis, keepdims))

        return wrapper

    def power(a, exponent):
        out = orig_power(a, exponent)
        return _record(tracer, "power", (a,), {"exponent": float(exponent)}, out)

    def getitem(a, index):
        _check_static_index(index)
        return _record(tracer, "getitem", (a,), {"index": index}, orig_getitem(a, index))

    def reshape(a, *shape):
        out = orig_reshape(a, *shape)
        recorded = out.shape
        if a.ndim and out.ndim and out.shape[0] == a.shape[0] and out.size:
            # Keeping the leading dimension keeps each row's elements in
            # that row, so the reshape holds at any row count (Flatten).
            recorded = (-1,) + out.shape[1:]
        return _record(tracer, "reshape", (a,), {"shape": recorded}, out)

    def transpose(a, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        norm = tuple(axes) if axes else tuple(reversed(range(a.ndim)))
        return _record(tracer, "transpose", (a,), {"axes": norm}, orig_transpose(a, *axes))

    def clip(a, low, high):
        out = orig_clip(a, low, high)
        return _record(tracer, "clip", (a,), {"low": float(low), "high": float(high)}, out)

    def pad2d(a, padding):
        out = orig_pad2d(a, padding)
        if padding == 0:  # identity: ops.pad2d returns its argument
            return out
        return _record(tracer, "pad2d", (a,), {"padding": int(padding)}, out)

    def concatenate(tensors, axis=0):
        tensors = list(tensors)
        out = orig_concatenate(tensors, axis=axis)
        tracer.bind(out, tracer.emit(
            "concatenate",
            tuple(tracer.ref(t) for t in tensors),
            {"axis": int(axis)},
            shape=out.shape,
        ))
        return out

    def conv2d(x, weight, bias=None, stride=1, padding=0):
        out = orig_conv2d(x, weight, bias, stride=stride, padding=padding)
        operands = (x, weight) if bias is None else (x, weight, bias)
        params = {"stride": int(stride), "padding": int(padding)}
        return _record(tracer, "conv2d", operands, params, out)

    def linear(x, weight, bias=None):
        out = orig_linear(x, weight, bias)
        operands = (x, weight) if bias is None else (x, weight, bias)
        return _record(tracer, "linear", operands, {}, out)

    def batch_norm(x, gamma, beta, running_mean, running_var, training,
                   momentum=0.1, eps=1e-5):
        if training and not tracer.training:
            raise TraceError("training-mode batch_norm mutates running stats")
        if training:
            # The original op mutates the running buffers in place;
            # trace_training snapshots and restores them around the trace.
            out = orig_batch_norm(x, gamma, beta, running_mean, running_var,
                                  training=True, momentum=momentum, eps=eps)
            for buf in (running_mean, running_var):
                if id(buf) not in tracer.buffer_names:
                    raise TraceError(
                        "batch_norm running stats are not registered buffers"
                    )
            bn = tracer.emit(
                "bn_train",
                (tracer.ref(x), tracer.ref(gamma), tracer.ref(beta)),
                {"eps": float(eps), "ndim": x.ndim},
            )
            tracer.bind(
                out, tracer.emit("tuple_get", (bn,), {"index": 0}, shape=out.shape)
            )
            stat_shape = (out.shape[1],)
            tracer.bn_updates.append({
                "mean": tracer.emit("tuple_get", (bn,), {"index": 3}, shape=stat_shape),
                "var": tracer.emit("tuple_get", (bn,), {"index": 4}, shape=stat_shape),
                "running_mean": tracer.buffer_names[id(running_mean)],
                "running_var": tracer.buffer_names[id(running_var)],
                "momentum": float(momentum),
                # Element count behind each channel statistic; fixes the
                # unbiased-variance correction of the running update.
                "m": int(np.prod(out.shape) // out.shape[1]),
            })
            return out
        out = orig_batch_norm(x, gamma, beta, running_mean, running_var,
                              training=False, momentum=momentum, eps=eps)
        operands = (x, gamma, beta, running_mean, running_var)
        return _record(tracer, "batch_norm", operands, {"eps": float(eps), "ndim": x.ndim}, out)

    def max_pool2d(x, kernel_size, stride=None):
        out = orig_max_pool(x, kernel_size, stride)
        params = {"kernel": int(kernel_size), "stride": int(stride or kernel_size)}
        if tracer.training:
            # Keep the argmax indices: the backward scatter needs them.
            node = tracer.emit(
                "max_pool2d_train", (tracer.ref(x),), dict(params)
            )
            tracer.bind(
                out, tracer.emit("tuple_get", (node,), {"index": 0}, shape=out.shape)
            )
            return out
        return _record(tracer, "max_pool2d", (x,), params, out)

    def cross_entropy(logits, targets):
        out = orig_cross_entropy(logits, targets)
        if not tracer.training:
            raise TraceError("cross_entropy is only traced in training mode")
        node = tracer.emit(
            "cross_entropy", (tracer.ref(logits), tracer.ref_label(targets)), {}
        )
        tracer.bind(
            out, tracer.emit("tuple_get", (node,), {"index": 0}, shape=out.shape)
        )
        return out

    def avg_pool2d(x, kernel_size, stride=None):
        out = orig_avg_pool(x, kernel_size, stride)
        params = {"kernel": int(kernel_size), "stride": int(stride or kernel_size)}
        return _record(tracer, "avg_pool2d", (x,), params, out)

    def global_avg_pool2d(x):
        return _record(tracer, "global_avg_pool2d", (x,), {}, orig_gap(x))

    def upsample_nearest2d(x, scale):
        out = orig_upsample(x, scale)
        return _record(tracer, "upsample_nearest2d", (x,), {"scale": int(scale)}, out)

    def softmax(x, axis=-1):
        return _record(tracer, "softmax", (x,), {"axis": int(axis)}, orig_softmax(x, axis))

    def log_softmax(x, axis=-1):
        return _record(tracer, "log_softmax", (x,), {"axis": int(axis)}, orig_log_softmax(x, axis))

    def dropout(x, p, rng, training=True):
        if training and p > 0.0:
            raise TraceError("active dropout is stochastic, not a static plan")
        return orig_dropout(x, p, rng, training=training)  # identity in eval

    return {
        (Tensor, "__add__"): binary("add", ops.add),
        (Tensor, "__radd__"): binary("add", lambda a, b: ops.add(b, a), swap=True),
        (Tensor, "__sub__"): binary("sub", ops.sub),
        (Tensor, "__rsub__"): binary("sub", lambda a, b: ops.sub(b, a), swap=True),
        (Tensor, "__mul__"): binary("mul", ops.mul),
        (Tensor, "__rmul__"): binary("mul", lambda a, b: ops.mul(b, a), swap=True),
        (Tensor, "__truediv__"): binary("div", ops.div),
        (Tensor, "__rtruediv__"): binary("div", lambda a, b: ops.div(b, a), swap=True),
        (Tensor, "__matmul__"): binary("matmul", ops.matmul),
        (Tensor, "__neg__"): unary("neg", ops.neg),
        (Tensor, "__pow__"): power,
        (Tensor, "__getitem__"): getitem,
        (Tensor, "sum"): reduction("sum", ops.tensor_sum),
        (Tensor, "mean"): reduction("mean", ops.tensor_mean),
        (Tensor, "max"): reduction("max", ops.tensor_max),
        (Tensor, "reshape"): reshape,
        (Tensor, "transpose"): transpose,
        (Tensor, "exp"): unary("exp", ops.exp),
        (Tensor, "log"): unary("log", ops.log),
        (Tensor, "sqrt"): unary("sqrt", ops.sqrt),
        (Tensor, "relu"): unary("relu", ops.relu),
        (Tensor, "tanh"): unary("tanh", ops.tanh),
        (Tensor, "sigmoid"): unary("sigmoid", ops.sigmoid),
        (Tensor, "abs"): unary("abs", ops.absolute),
        (ops, "maximum"): binary("maximum", ops.maximum),
        (ops, "clip"): clip,
        (ops, "pad2d"): pad2d,
        (ops, "concatenate"): concatenate,
        (ops, "getitem"): getitem,
        (F, "conv2d"): conv2d,
        (F, "linear"): linear,
        (F, "batch_norm"): batch_norm,
        (F, "max_pool2d"): max_pool2d,
        (F, "avg_pool2d"): avg_pool2d,
        (F, "global_avg_pool2d"): global_avg_pool2d,
        (F, "upsample_nearest2d"): upsample_nearest2d,
        (F, "softmax"): softmax,
        (F, "log_softmax"): log_softmax,
        (F, "dropout"): dropout,
        (F, "cross_entropy"): cross_entropy,
    }


@contextmanager
def _patched(tracer: _Tracer) -> Iterator[None]:
    table = _patched_attrs(tracer)
    saved = {key: getattr(owner, attr) for key in table for owner, attr in [key]}
    try:
        for (owner, attr), wrapper in table.items():
            setattr(owner, attr, wrapper)
        yield
    finally:
        for (owner, attr), original in saved.items():
            setattr(owner, attr, original)


def trace(model: Module, sample: np.ndarray) -> Graph:
    """Capture ``model``'s eval-mode forward on ``sample`` as a :class:`Graph`.

    The model's train/eval state is restored on exit, also on exception.
    Tracing is not thread-safe (it patches class/module attributes), which
    matches the process-parallel execution model of the rest of the stack.
    """
    tracer = _Tracer(model)
    inp = Tensor(sample)
    tracer.bind(inp, tracer.emit("input"))
    was_training = model.training
    model.eval()
    try:
        with no_grad(), _patched(tracer):
            out = model(inp)
    finally:
        model.train(was_training)
    if not isinstance(out, Tensor):
        raise TraceError(f"model returned {type(out).__name__}, not a Tensor")
    out_index = tracer.var_of.get(id(out))
    if out_index is None:
        raise TraceError("model output was not produced by traced ops")
    return Graph(
        nodes=tracer.nodes,
        input=tracer.var_of[id(inp)],
        output=out_index,
        sample_output=out.data.copy(),
    )


@contextmanager
def sandboxed_step(model: Module) -> Iterator[list]:
    """Take one train-mode step on ``model`` without keeping its effects.

    Yields ``model``'s named parameters with their ``grad`` slots cleared.
    On exit the ``grad`` slots, every buffer (BatchNorm running stats
    included: the train-mode forward updates them in place) and the
    train/eval state are restored, also on exception.
    """
    params = list(model.named_parameters())
    saved = [p.grad for _, p in params]
    snapshot = {name: buf.copy() for name, buf in model.named_buffers()}
    was_training = model.training
    model.train()
    try:
        for _, p in params:
            p.grad = None
        yield params
    finally:
        model.train(was_training)
        for (_, p), grad in zip(params, saved):
            p.grad = grad
        # Restore in place: rebinding via set_buffer would orphan the
        # array identities a tracer keys its buffer leaves on.
        for name, buf in model.named_buffers():
            buf[...] = snapshot[name]


def trace_training(
    model: Module, loss_fn, sample: np.ndarray, labels: np.ndarray
) -> TrainGraph:
    """Capture a train-mode step as a :class:`TrainGraph`.

    Runs ``loss_fn(model(sample), labels)`` once with the model in train
    mode under the tracing patches, with the tape on, then runs the
    backward once the patches are gone, and records the step's loss,
    logits, gradients and running-stat buffers in the graph.  The trace is
    side-effect free (see :func:`sandboxed_step`), and the tape is
    unlinked before returning, so its activations die with the call.
    """
    tracer = _Tracer(model, training=True)
    tracer.label_value = np.asarray(labels)
    inp = Tensor(sample)
    tracer.bind(inp, tracer.emit("input", shape=inp.shape))
    with sandboxed_step(model) as params:
        try:
            with _patched(tracer):
                logits = model(inp)
                loss = loss_fn(logits, tracer.label_value)
            for tensor, what in ((logits, "logits"), (loss, "loss")):
                if not isinstance(tensor, Tensor):
                    raise TraceError(
                        f"{what} is {type(tensor).__name__}, not a Tensor"
                    )
                if tracer.var_of.get(id(tensor)) is None:
                    raise TraceError(f"{what} was not produced by traced ops")
            loss.backward()
            # Each grad is a fresh array the restore below lets go of.
            grads = {name: p.grad for name, p in params}
            buffers = dict(model.named_buffers())
            stat_buffers = {
                name: buffers[name].copy()
                for upd in tracer.bn_updates
                for name in (upd["running_mean"], upd["running_var"])
            }
        finally:
            free_tape(*(t for t in tracer.keep if isinstance(t, Tensor)))
    return TrainGraph(
        nodes=tracer.nodes,
        shapes=tracer.shapes,
        input=tracer.var_of[id(inp)],
        label=tracer.label_index,
        logits=tracer.var_of[id(logits)],
        loss=tracer.var_of[id(loss)],
        bn_updates=tracer.bn_updates,
        sample_loss=loss.data.copy(),
        sample_logits=logits.data.copy(),
        sample_grads=grads,
        sample_buffers=stat_buffers,
    )
