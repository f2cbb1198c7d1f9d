"""Base :class:`Module` and :class:`Parameter` classes.

A :class:`Module` registers parameters, numpy buffers, and child modules
automatically on attribute assignment, and exposes the traversal,
state-dict, and train/eval machinery the rest of the library builds on.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor; modules collect these automatically."""

    def __init__(self, data, requires_grad: bool = True, name: str | None = None):
        super().__init__(data, requires_grad=requires_grad, name=name)


def is_sealed(array: np.ndarray) -> bool:
    """Whether ``array`` is read-only and owns its memory: then nothing
    can write its contents, short of turning ``writeable`` back on."""
    flags = array.flags
    return not flags.writeable and flags.owndata


def _sealed(array: np.ndarray) -> np.ndarray:
    """``array`` if it is sealed, else a read-only copy of it."""
    if is_sealed(array):
        return array
    array = array.copy()
    array.flags.writeable = False
    return array


def _keep_sealed(current: np.ndarray, new: np.ndarray) -> np.ndarray:
    """``new`` (an owning copy) for a slot holding ``current``,
    read-only if ``current`` is."""
    if not current.flags.writeable:
        new.flags.writeable = False
    return new


class Module:
    """Base class for all neural-network modules."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_forward_hooks", {})
        object.__setattr__(self, "training", True)

    # --------------------------------------------------------- registration
    def __setattr__(self, name: str, value) -> None:
        params = self.__dict__.get("_parameters")
        if params is None:
            raise RuntimeError(
                "Module.__init__() must be called before assigning attributes"
            )
        for registry in (self._parameters, self._buffers, self._modules):
            registry.pop(name, None)
        if isinstance(value, Parameter):
            params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (running stats, prune masks)."""
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    def set_buffer(self, name: str, value: np.ndarray) -> None:
        """Replace an existing buffer's contents (keeps registration)."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = np.asarray(value)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------ traversal
    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for module_name, module in self.named_modules(prefix):
            for name, param in module._parameters.items():
                yield (f"{module_name}.{name}" if module_name else name), param

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for module_name, module in self.named_modules(prefix):
            for name, buf in module._buffers.items():
                yield (f"{module_name}.{name}" if module_name else name), buf

    def apply(self, fn: Callable[["Module"], None]) -> "Module":
        for module in self.modules():
            fn(module)
        return self

    # ------------------------------------------------------------ state I/O
    def state_dict(self) -> dict[str, np.ndarray]:
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        state.update({name: b.copy() for name, b in self.named_buffers()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = {
            name: (module, local)
            for module_name, module in self.named_modules()
            for local in module._buffers
            for name in [f"{module_name}.{local}" if module_name else local]
        }
        missing = (set(own_params) | set(own_buffers)) - set(state)
        unexpected = set(state) - (set(own_params) | set(own_buffers))
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch; missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, param in own_params.items():
            value = np.asarray(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.shape}"
                )
            param.data = _keep_sealed(param.data, value.copy())
        for name, (module, local) in own_buffers.items():
            value = np.asarray(state[name])
            current = module._buffers[local]
            if value.shape != current.shape:
                # A wrong-shaped mask or BN running stat comes from a
                # different architecture; installing it silently corrupts
                # every downstream forward pass.
                raise ValueError(
                    f"shape mismatch for buffer {name}: {value.shape} vs {current.shape}"
                )
            module.set_buffer(local, _keep_sealed(current, value.copy()))

    def seal(self) -> "Module":
        """Make every parameter and buffer array read-only and the sole
        owner of its memory (:func:`is_sealed`), and return ``self``.

        A sealed model's state changes only when an array is rebound —
        by ``load_state_dict``, ``set_buffer`` or assigning a parameter's
        ``data`` — so a consumer may trust it by array identity; an
        in-place write raises ``ValueError``.  Every array that is
        writable or a view is replaced by a read-only copy: a view shares
        its base's memory, and a writable array may have views, taken
        before sealing, that could still write it.  ``load_state_dict``
        keeps a read-only slot read-only, so a sealed model stays sealed.
        """
        for module in self.modules():
            for param in module._parameters.values():
                param.data = _sealed(param.data)
            for name, buf in list(module._buffers.items()):
                module.set_buffer(name, _sealed(buf))
        return self

    # ----------------------------------------------------------------- mode
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            object.__setattr__(module, "training", mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------- training
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self, trainable_only: bool = False) -> int:
        return sum(
            p.size
            for p in self.parameters()
            if not trainable_only or p.requires_grad
        )

    # ------------------------------------------------------------- forward
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        for hook in list(self._forward_hooks.values()):
            hook(self, args, out)
        return out

    def register_forward_hook(self, hook: Callable) -> Callable[[], None]:
        """Register ``hook(module, inputs, output)``; returns a remover.

        Used by data-informed pruning methods (SiPP, PFP) to capture layer
        input activations on a sample batch.
        """
        key = object()
        self._forward_hooks[key] = hook

        def remove() -> None:
            self._forward_hooks.pop(key, None)

        return remove

    def extra_repr(self) -> str:
        return ""

    def __repr__(self) -> str:
        lines = [f"{type(self).__name__}({self.extra_repr()}"]
        for name, child in self._modules.items():
            child_repr = repr(child).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child_repr}")
        if len(lines) == 1:
            return lines[0] + ")"
        return "\n".join(lines) + "\n)"


@contextmanager
def preserve_state(module: Module) -> Iterator[Module]:
    """Snapshot ``module``'s state on entry and restore it on exit.

    Curve and excess-error evaluation swap checkpoint weights into a
    shared model via :meth:`Module.load_state_dict`; wrapping the sweep in
    this context guarantees the caller gets its model back bit-identical —
    parameters, buffers, and masks — even when evaluation raises.
    """
    snapshot = module.state_dict()
    try:
        yield module
    finally:
        module.load_state_dict(snapshot)
