"""The :class:`Tensor` class: a NumPy array with reverse-mode autodiff.

Every op runs through :func:`apply`, which runs the op's forward kernel
from the op table (:mod:`repro.autograd.table`), links the output into
the tape and, if this thread is tracing, records it.  A tape entry
holds the op's name, params, inputs and value, never its output tensor,
so a finished tape holds no reference cycle and dies by refcount.
``Tensor.backward`` walks the tape in reverse topological order and runs
each entry's gradient rule on the spot, through the table's kernels.

Grad mode (:func:`no_grad`) and the trace recorder (:func:`recording`)
are per thread: ops on one thread neither build another's tape nor land
in another's trace.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

import numpy as np

from repro.autograd.table import EAGER, KERNELS, RULES


class _ThreadState(threading.local):
    grad = True  # grad mode
    recorder = None  # the trace recording this thread's ops, if any


_state = _ThreadState()


def is_grad_enabled() -> bool:
    """Whether ops on this thread currently record a backward graph."""
    return _state.grad


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph construction (inference mode)."""
    prev = _state.grad
    _state.grad = False
    try:
        yield
    finally:
        _state.grad = prev


@contextlib.contextmanager
def recording(recorder) -> Iterator[None]:
    """Hand every op this thread applies to ``recorder.record`` too.

    ``recorder.record(op, operands, params, out)`` sees each op's operands
    exactly as its caller passed them, its traced params and its output;
    ``recorder.refuse(reason)`` is called, and must raise, before an op
    that no static graph can hold (active dropout) runs.
    """
    prev = _state.recorder
    _state.recorder = recorder
    try:
        yield
    finally:
        _state.recorder = prev


def refuse_trace(reason: str) -> None:
    """Let a trace active on this thread refuse the op about to run."""
    recorder = _state.recorder
    if recorder is not None:
        recorder.refuse(reason)


class _Entry:
    """One tape entry: what ``backward`` needs to run ``op``'s rule."""

    __slots__ = ("op", "params", "inputs", "args", "value")

    def __init__(self, op, params, inputs, args, value):
        self.op = op
        self.params = params
        self.inputs = inputs  # Tensor or raw operand, by position
        self.args = args  # the arrays the forward kernel read
        self.value = value  # the forward kernel's value (tuple or array)

    def backward(self, grad: np.ndarray) -> None:
        inputs = self.inputs
        need = [isinstance(t, Tensor) and t.requires_grad for t in inputs]
        for pos, g in RULES[self.op](
            EAGER, self.args, self.value, grad, self.params, need
        ):
            inputs[pos].accumulate_grad(g)


class Tensor:
    """An ndarray with an optional gradient and backward graph.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float32`` unless it already has a
        floating dtype.
    requires_grad:
        Whether gradients should be accumulated into ``self.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_tape", "name")
    __array_priority__ = 100  # numpy defers binary ops to Tensor

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._tape: _Entry | None = None
        self.name = name

    # ------------------------------------------------------------------ info
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return self.data.item()

    def detach(self) -> "Tensor":
        """A view of the same data cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    # -------------------------------------------------------------- backward
    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        ``grad`` defaults to ones (appropriate for scalar losses).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"grad shape {grad.shape} does not match tensor shape {self.data.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            if node._tape is not None:
                for parent in node._tape.inputs:
                    if isinstance(parent, Tensor) and id(parent) not in visited:
                        stack.append((parent, False))

        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(topo):
            if node._tape is not None and node.grad is not None:
                node._tape.backward(node.grad)

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` into ``self.grad`` (creating it if absent)."""
        if self.grad is None:
            # Copy so in-place += later never aliases an op's scratch buffer.
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    # ------------------------------------------------------------- operators
    # Implemented in ops.py and patched onto the class to avoid an import
    # cycle; declared here for discoverability / static tooling.
    def __add__(self, other): ...
    def __radd__(self, other): ...
    def __sub__(self, other): ...
    def __rsub__(self, other): ...
    def __mul__(self, other): ...
    def __rmul__(self, other): ...
    def __truediv__(self, other): ...
    def __rtruediv__(self, other): ...
    def __neg__(self): ...
    def __pow__(self, exponent): ...
    def __matmul__(self, other): ...
    def __getitem__(self, index): ...

    def sum(self, axis=None, keepdims: bool = False): ...
    def mean(self, axis=None, keepdims: bool = False): ...
    def reshape(self, *shape): ...
    def transpose(self, *axes): ...
    def exp(self): ...
    def log(self): ...
    def sqrt(self): ...
    def relu(self): ...
    def tanh(self): ...
    def sigmoid(self): ...
    def abs(self): ...

    @property
    def T(self) -> "Tensor":
        return self.transpose()


def ensure_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (constants get no grad)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def apply(op: str, operands: tuple, params: dict | None = None, inputs=None):
    """Run ``op``'s forward kernel on this thread and return its value.

    ``operands`` are the op's operands exactly as the caller passed them
    (what a trace records), ``params`` its params (a trace records them as
    passed, without the state the kernel keeps in them), and ``inputs``
    the operands as the kernel reads them, by default each coerced to a
    :class:`Tensor`; a raw array among them is a constant.  The output
    links into the tape when grad mode is on and an input requires grad.
    A tuple-valued kernel's output is its first element; ``apply`` then
    returns ``(output, kernel value)``.
    """
    params = {} if params is None else params
    if inputs is None:
        inputs = [v if isinstance(v, Tensor) else Tensor(v) for v in operands]
    args = [t.data if isinstance(t, Tensor) else t for t in inputs]
    recorder = _state.recorder
    traced = None if recorder is None else dict(params)
    requires = False
    if _state.grad:
        for t in inputs:
            if isinstance(t, Tensor) and t.requires_grad:
                requires = True
                params["_save"] = True
                break
    value = KERNELS[op](args, params)
    tup = isinstance(value, tuple)
    out = Tensor(value[0] if tup else value, requires_grad=requires)
    if requires:
        out._tape = _Entry(op, params, inputs, args, value)
    if recorder is not None:
        recorder.record(op, operands, traced, out)
    return (out, value) if tup else out
