"""The :class:`Tensor` class: a NumPy array with reverse-mode autodiff.

Gradients flow through a dynamically built tape.  Each op attaches to its
output a ``_backward`` closure that scatters the output gradient into the
inputs; ``Tensor.backward`` walks the tape in reverse topological order.

Graph construction can be disabled globally with the :func:`no_grad` context
manager, which evaluation loops use to avoid tape overhead.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Whether ops currently record a backward graph."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


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

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")
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
        self._backward: Callable[[], None] | None = None
        self._prev: tuple[Tensor, ...] = ()
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
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = grad if self.grad is None else self.grad + grad
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

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


def build(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], Iterable[np.ndarray | None]],
) -> Tensor:
    """Construct an op output tensor.

    ``backward`` maps the output gradient to one gradient (or ``None``) per
    parent, in order.  When grad mode is off or no parent requires grad the
    output is a detached leaf.
    """
    requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._prev = tuple(parents)

        def _backward() -> None:
            grads = backward(out.grad)
            for parent, g in zip(out._prev, grads):
                if parent.requires_grad and g is not None:
                    parent.accumulate_grad(g)

        out._backward = _backward
    return out


def free_tape(*roots: Tensor) -> None:
    """Unlink the finished tape below ``roots`` so that it dies by refcount.

    Every op's backward closure holds its own output, so a tape is one big
    reference cycle: left alone, a whole step's activations stay resident
    until the cyclic garbage collector happens to run, and the peak memory
    of a process that keeps stepping depends on when that is.
    """
    stack = list(roots)
    while stack:
        node = stack.pop()
        stack.extend(node._prev)
        node._prev, node._backward = (), None
