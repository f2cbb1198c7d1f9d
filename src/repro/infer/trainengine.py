"""The training engine: compiled gradient plans behind one seam.

:func:`train_engine_for` is the seam ``Trainer.train`` goes through.  The
engine traces one train-mode step per (input shape, label shape), derives
a static backward (see :mod:`repro.infer.grad`), and then serves every
batch of that shape from the flat plan: no per-batch tape or Python
autograd traversal.  The tape path remains as fallback — for
``REPRO_TRAINC=0``, untraceable models (active dropout, tensor indexing),
or a plan that fails its compile-time validation.

Correctness machinery:

- every plan is validated at compile time against the tape step its trace
  ran on the first batch (:func:`~repro.infer.trace.trace_training`
  records it) — loss, logits, every parameter gradient, and the BatchNorm
  running-stat updates must agree (bitwise in exact mode, within a
  scale-aware tolerance in fast mode).  The validated run is that batch's
  step, so a compile costs one tape step and one plan run.  This relies
  on the traced step being the plain one: the tracer only records what
  the op table's kernels compute, and
  ``tests/infer/test_grad_plan.py::test_traced_step_is_the_tape_step``
  holds every registry architecture to that, bitwise;
- parameters and buffers are bound *live* on every run (SGD mutates them
  each batch), so there is no constant refresh or content signature.
  Every prunable layer traces ``weight * mask`` whatever its mask, with
  the mask a live-bound buffer leaf, so a prune between steps changes
  only leaf values and a plan serves the model across the whole prune →
  retrain loop;
- BatchNorm running statistics are updated by the engine after each plan
  run, through the same ``update_running_stats`` as
  ``functional.batch_norm``;
- the optimizer consumes plan gradients through :meth:`SGD.apply`, which
  shares the momentum state and arithmetic of ``step`` without mutating
  the (possibly shared) gradient buffers.
"""

from __future__ import annotations

import os
import weakref

import numpy as np

from repro import observe
from repro.autograd.table import update_running_stats
from repro.autograd.tensor import Tensor
from repro.infer.engine import HeldModel, share_engine
from repro.infer.grad import GradPlan
from repro.infer.plan import CompileError
from repro.infer.trace import TraceError, sandboxed_step, trace_training
from repro.nn.module import Module

ENV_VAR_TRAIN = "REPRO_TRAINC"

# Fast plans reorder convolution accumulation (per-offset GEMMs vs one
# im2col GEMM), so gradients match the tape to roughly sqrt(#terms)·eps
# relative.  The gate is scale-aware on the tensor's largest entry, with
# the scale floored at 1 so near-zero tensors get the absolute budget.
_GRAD_ATOL = 1e-5
_GRAD_RTOL = 1e-4
# On deep nets (resnet56/110) the reordered forward drifts borderline
# pre-activations across zero, flipping individual ReLU gates in the
# backward mask — a discrete per-entry difference no elementwise bound
# absorbs.  Gradients that fail the elementwise gate are still accepted
# within a relative-l2 budget: gate flips perturb the norm by a few
# percent (growing with batch size — more borderline activations), while
# genuine wiring bugs (wrong scale, missing term) shift it by O(1).
# Wiring itself is proven separately — the exact-mode oracle reproduces
# the tape bitwise on every registry architecture.
_GRAD_RNORM = 1e-1


def train_enabled() -> bool:
    """Compiled training is on unless ``REPRO_TRAINC=0`` (checked per call)."""
    return os.environ.get(ENV_VAR_TRAIN, "1").lower() not in ("0", "false", "off")


def _close(got, want, exact: bool) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape:
        return False
    if exact:
        return bool(np.array_equal(got, want))
    diff = float(np.abs(got - want).max()) if got.size else 0.0
    bound = _GRAD_ATOL + _GRAD_RTOL * max(
        1.0, float(np.abs(want).max()) if want.size else 0.0
    )
    return diff <= bound


def _grad_close(got, want, exact: bool) -> bool:
    if _close(got, want, exact):
        return True
    if exact:
        return False
    got, want = np.asarray(got), np.asarray(want)
    diff = float(np.linalg.norm((got - want).ravel()))
    return diff <= _GRAD_RNORM * (float(np.linalg.norm(want.ravel())) + _GRAD_ATOL)


def _update_running_stats(buffers: dict, bn_updates: list[dict], stats) -> None:
    """Run ``functional.batch_norm``'s in-place running-stat update on the
    named arrays in ``buffers`` from a plan's batch ``(mean, var)``s."""
    for upd, (mean, var) in zip(bn_updates, stats):
        update_running_stats(
            buffers[upd["running_mean"]], buffers[upd["running_var"]],
            mean, var, upd["momentum"], upd["m"],
        )


class TrainEngine(HeldModel):
    """Compiled training steps for one (model, loss, optimizer) triple.

    :meth:`step` performs everything the tape-path loop body does —
    forward, loss, backward, BatchNorm running-stat updates, optimizer
    update — and returns ``(loss, logits)`` for the caller's bookkeeping.
    The optimizer's ``lr`` may be retuned by the caller between steps, as
    ``Trainer.train``'s schedule does.
    """

    def __init__(self, model, loss_fn, optimizer, exact: bool = False):
        self.model = model
        self.loss_fn = loss_fn
        self.optimizer = optimizer
        self.exact = exact
        # (x shape, x dtype, y shape) -> GradPlan | None (None: tape forever)
        self._plans: dict[tuple, GradPlan | None] = {}

    # -------------------------------------------------------------- compile

    def _tape_reference(self, x: np.ndarray, y: np.ndarray):
        """One untraced tape step's outputs without its side effects.

        Returns ``(loss, logits, grads, stat_buffers)``; parameter ``grad``
        slots and every model buffer are restored before returning, and the
        optimizer is never stepped.  The independent reference of
        ``oracle_grad_plan_parity``; compiles validate against the step
        their trace records instead.
        """
        with sandboxed_step(self.model) as params:
            logits = self.model(Tensor(x))
            loss = self.loss_fn(logits, y)
            loss.backward()
            grads = {name: p.grad for name, p in params}
            stat_buffers = {
                name: buf.copy() for name, buf in self.model.named_buffers()
            }
            return float(loss.data), logits.data.copy(), grads, stat_buffers

    def _validate(self, plan: GradPlan, result, reference) -> None:
        """Raise :exc:`CompileError` unless ``result``, a ``plan.run`` output
        ``(loss, logits, grads, stats)``, agrees with ``reference``, a tape
        step ``(loss, logits, grads, stat_buffers)`` on the same batch."""
        loss, logits, grads, stats = result
        want_loss, want_logits, want_grads, want_buffers = reference
        if not _close(loss, want_loss, plan.exact):
            raise CompileError(f"loss parity: {float(loss)} vs {float(want_loss)}")
        if not _close(logits, want_logits, plan.exact):
            raise CompileError("logits parity failed")
        for name, want in want_grads.items():
            got = grads.get(name)
            if (got is None) != (want is None):
                raise CompileError(f"gradient presence mismatch for {name!r}")
            if want is not None and not _grad_close(got, want, plan.exact):
                raise CompileError(f"gradient parity failed for {name!r}")
        # The running-stat update, simulated on copies, must land on the
        # same values the real train-mode forward wrote.
        buffers = {name: buf.copy() for name, buf in self.model.named_buffers()}
        _update_running_stats(buffers, plan.bn_updates, stats)
        for upd in plan.bn_updates:
            for name in (upd["running_mean"], upd["running_var"]):
                if not _close(buffers[name], want_buffers[name], plan.exact):
                    raise CompileError(f"running-stat parity failed for {name!r}")

    def _compile(self, x: np.ndarray, y: np.ndarray):
        """Trace, build and validate the plan for this batch's shapes.

        Returns the validated ``plan.run(x, y)`` — this batch's step, for
        the caller to apply — or None when the shapes fall back to the tape.
        """
        key = (x.shape, x.dtype.str, np.asarray(y).shape)
        with observe.span(
            "trainc.compile", shape=list(x.shape), exact=self.exact
        ):
            try:
                graph = trace_training(self.model, self.loss_fn, x, y)
                plan = GradPlan(graph, self.model, exact=self.exact)
                result = plan.run(x, y)
                self._validate(plan, result, (
                    graph.sample_loss, graph.sample_logits,
                    graph.sample_grads, graph.sample_buffers,
                ))
            except (TraceError, CompileError) as exc:
                observe.event(
                    "trainc.fallback", shape=list(x.shape), reason=repr(exc)
                )
                self._plans[key] = None
                return None
        self._plans[key] = plan
        return result

    # ------------------------------------------------------------- fallback

    def _tape_step(self, x: np.ndarray, y: np.ndarray):
        """The Module/tape loop body, verbatim."""
        logits = self.model(Tensor(x))
        loss = self.loss_fn(logits, y)
        self.optimizer.zero_grad()
        loss.backward()
        self.optimizer.step()
        return float(loss.data), logits.data

    # ------------------------------------------------------------------ API

    def step(self, x: np.ndarray, y: np.ndarray):
        """One full training step; returns ``(loss, logits)``."""
        if not (train_enabled() and isinstance(self.model, Module)):
            observe.incr("trainc.fallback_batches")
            return self._tape_step(x, y)
        x = np.asarray(x)
        key = (x.shape, x.dtype.str, np.asarray(y).shape)
        first = self._compile(x, y) if key not in self._plans else None
        plan = self._plans[key]
        if plan is None:
            observe.incr("trainc.fallback_batches")
            return self._tape_step(x, y)
        loss, logits, grads, stats = first if first is not None else plan.run(x, y)
        if plan.bn_updates:
            _update_running_stats(
                dict(self.model.named_buffers()), plan.bn_updates, stats
            )
        self.optimizer.apply(self._aligned(grads))
        observe.incr("trainc.batches")
        return float(loss), logits

    def compiled_for(self, x: np.ndarray, y: np.ndarray) -> bool:
        """True if a validated plan exists for this batch's shapes."""
        x = np.asarray(x)
        return self._plans.get((x.shape, x.dtype.str, np.asarray(y).shape)) is not None

    # ------------------------------------------------------------ internals

    def _aligned(self, grads: dict) -> list:
        """Plan gradients in ``optimizer.params`` order (None where absent)."""
        name_of = {id(p): name for name, p in self.model.named_parameters()}
        return [
            grads.get(name_of.get(id(p))) for p in self.optimizer.params
        ]


_TRAIN_ENGINES: "weakref.WeakKeyDictionary[Module, TrainEngine]" = (
    weakref.WeakKeyDictionary()
)


def train_engine_for(model, loss_fn, optimizer, exact: bool = False) -> TrainEngine:
    """The shared training engine for ``model``.

    Compiled plans survive across training phases (the prune → retrain
    loop re-enters ``Trainer.train`` with a fresh optimizer each time), so
    the loss/optimizer handles are refreshed on every call while the plan
    cache is kept; an ``exact`` flag change rebuilds the engine.  A shared
    engine holds its model weakly and is freed with it.
    """
    if isinstance(model, TrainEngine):
        return model
    engine = _TRAIN_ENGINES.get(model) if isinstance(model, Module) else None
    if engine is None or engine.exact != exact:
        engine = TrainEngine(model, loss_fn, optimizer, exact=exact)
        if isinstance(model, Module):
            share_engine(_TRAIN_ENGINES, engine)
        return engine
    engine.loss_fn = loss_fn
    engine.optimizer = optimizer
    return engine
