"""Graph capture: run one forward and record every tensor op.

Every op the autograd stack runs goes through one call,
:func:`repro.autograd.tensor.apply`, which hands it to the recorder
active on its thread.  Tracing installs a :class:`_Tracer` as this
thread's recorder (:func:`~repro.autograd.tensor.recording`), runs the
model once and uninstalls it; nothing is patched, and ops on other
threads are neither recorded nor refused.  The traced forward is the
plain forward, bit for bit: the recorder only looks.  :func:`trace` runs
the eval forward under :func:`no_grad`; :func:`trace_training` keeps the
tape on and, once recording stops, runs the backward too, so the traced
step doubles as the reference its gradient plan is validated against.

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

from repro.autograd.tensor import Tensor, no_grad, recording
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

# Applied ops the recorder does not record as one node of their own name
# and params (see :meth:`_Tracer.record`).
_SPECIAL_OPS = frozenset({"max_pool2d_train", "cross_entropy", "bn_train", "reshape"})


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

    def refuse(self, reason: str) -> None:
        raise TraceError(reason)

    def record(self, op: str, operands: tuple, params: dict, out: Tensor) -> None:
        """Record one applied op (see :func:`~repro.autograd.tensor.recording`).

        Most ops become one node of their name over their operands.  The
        tuple-valued ops of a training trace (``bn_train``, max pooling,
        ``cross_entropy``) become their tuple node plus a ``tuple_get`` of
        the value: their backward reads the saved intermediates, and the
        running-stat update reads ``bn_train``'s batch statistics.
        """
        if op in _SPECIAL_OPS:
            if op == "max_pool2d_train":
                if self.training:
                    self._tuple_node(op, (self.ref(operands[0]),), params, out)
                    return
                op = "max_pool2d"  # an eval plan needs no argmax
            elif op == "cross_entropy":
                if not self.training:
                    raise TraceError("cross_entropy is only traced in training mode")
                inputs = (self.ref(operands[0]), self.ref_label(operands[1]))
                self._tuple_node(op, inputs, params, out)
                return
            elif op == "bn_train":
                self._record_bn_train(operands, params, out)
                return
            else:  # reshape
                a = operands[0]
                if a.ndim and out.ndim and out.shape[0] == a.shape[0] and out.size:
                    # Keeping the leading dimension keeps each row's elements
                    # in that row, so the reshape holds at any row count
                    # (Flatten).
                    params = {"shape": (-1,) + out.shape[1:]}
                else:
                    params = {"shape": out.shape}
        inputs = tuple([self.ref(v) for v in operands])
        self.bind(out, self.emit(op, inputs, params, shape=out.shape))

    def _tuple_node(self, op: str, inputs: tuple, params: dict, out: Tensor) -> int:
        node = self.emit(op, inputs, params)
        self.bind(out, self.emit("tuple_get", (node,), {"index": 0}, shape=out.shape))
        return node

    def _record_bn_train(self, operands: tuple, params: dict, out: Tensor) -> None:
        """A train-mode BatchNorm: the ``bn_train`` tuple node
        ``(out, xhat, invstd, mean, var)`` and the running-stat update the
        engine replays from its batch mean and variance."""
        x, gamma, beta, running_mean, running_var, momentum = operands
        if not self.training:
            raise TraceError("training-mode batch_norm mutates running stats")
        for buf in (running_mean, running_var):
            if id(buf) not in self.buffer_names:
                raise TraceError("batch_norm running stats are not registered buffers")
        inputs = (self.ref(x), self.ref(gamma), self.ref(beta))
        bn = self._tuple_node("bn_train", inputs, params, out)
        stat_shape = (out.shape[1],)
        self.bn_updates.append({
            "mean": self.emit("tuple_get", (bn,), {"index": 3}, shape=stat_shape),
            "var": self.emit("tuple_get", (bn,), {"index": 4}, shape=stat_shape),
            "running_mean": self.buffer_names[id(running_mean)],
            "running_var": self.buffer_names[id(running_var)],
            "momentum": float(momentum),
            # Element count behind each channel statistic; fixes the
            # unbiased-variance correction of the running update.
            "m": int(np.prod(out.shape) // out.shape[1]),
        })


def trace(model: Module, sample: np.ndarray) -> Graph:
    """Capture ``model``'s eval-mode forward on ``sample`` as a :class:`Graph`.

    The model's train/eval state is restored on exit, also on exception.
    Only this thread's ops are recorded, so other threads may run (and
    trace) concurrently, on other models.
    """
    tracer = _Tracer(model)
    inp = Tensor(sample)
    tracer.bind(inp, tracer.emit("input"))
    was_training = model.training
    model.eval()
    try:
        with no_grad(), recording(tracer):
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
    mode, recording, with the tape on, then runs the backward once
    recording stops, and records the step's loss, logits, gradients and
    running-stat buffers in the graph.  The trace is side-effect free (see
    :func:`sandboxed_step`), and its tape dies with the call.
    """
    tracer = _Tracer(model, training=True)
    tracer.label_value = np.asarray(labels)
    inp = Tensor(sample)
    tracer.bind(inp, tracer.emit("input", shape=inp.shape))
    with sandboxed_step(model) as params:
        with recording(tracer):
            logits = model(inp)
            loss = loss_fn(logits, tracer.label_value)
        for tensor, what in ((logits, "logits"), (loss, "loss")):
            if not isinstance(tensor, Tensor):
                raise TraceError(f"{what} is {type(tensor).__name__}, not a Tensor")
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
