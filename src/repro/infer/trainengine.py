"""The training engine: compiled gradient plans behind one seam.

:func:`train_engine_for` is the seam ``Trainer.train`` goes through.  The
engine traces one train-mode forward + loss per (input shape, label shape),
derives a static backward (see :mod:`repro.infer.grad`), and then serves
every batch of that shape from the flat plan: no per-batch tape, closures,
or Python autograd traversal.  The tape path remains as fallback — for
``REPRO_TRAINC=0``, untraceable models (active dropout, tensor indexing),
or a plan that fails its compile-time validation.

Correctness machinery:

- every plan is validated at compile time against a full tape step on the
  probe batch — loss, logits, every parameter gradient, and the BatchNorm
  running-stat updates must agree (bitwise in exact mode, within a
  scale-aware tolerance in fast mode); the reference pass snapshots and
  restores gradients and buffers, so validation is side-effect free;
- parameters and buffers are bound *live* on every run (SGD mutates them
  each batch), so there is no constant refresh or content signature; the
  only cached-plan staleness hazard is mask *topology* — pruning a
  previously unpruned layer adds a ``weight * mask`` node the old trace
  lacks — so plans are dropped whenever any layer's mask-active flag flips;
- BatchNorm running statistics are updated by the engine after each plan
  run, replaying ``functional.batch_norm``'s in-place arithmetic exactly;
- the optimizer consumes plan gradients through :meth:`SGD.apply`, which
  shares the momentum state and arithmetic of ``step`` without mutating
  the (possibly shared) gradient buffers.
"""

from __future__ import annotations

import os
import weakref

import numpy as np

from repro import observe
from repro.autograd.tensor import Tensor
from repro.infer.engine import HeldModel, share_engine
from repro.infer.grad import GradPlan
from repro.infer.plan import CompileError
from repro.infer.trace import TraceError, trace_training
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


def _mask_signature(model: Module) -> tuple:
    """Which prunable layers currently have an active mask.

    Mask *values* need no invalidation (the mask buffer is a live-bound
    leaf), but flipping a layer between masked and unmasked changes the
    traced graph itself.
    """
    from repro.nn.prunable import PrunableWeightMixin

    return tuple(
        bool(m._mask_active)
        for m in model.modules()
        if isinstance(m, PrunableWeightMixin)
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
        self._masks: tuple | None = None

    # -------------------------------------------------------------- compile

    def _tape_reference(self, x: np.ndarray, y: np.ndarray):
        """One tape step's outputs without its side effects.

        Returns ``(loss, logits, grads, stat_buffers)``; parameter ``grad``
        slots and every model buffer are restored before returning, and the
        optimizer is never stepped.
        """
        params = list(self.model.named_parameters())
        saved = [p.grad for _, p in params]
        snapshot = {name: buf.copy() for name, buf in self.model.named_buffers()}
        was_training = self.model.training
        self.model.train()
        try:
            for _, p in params:
                p.grad = None
            logits = self.model(Tensor(x))
            loss = self.loss_fn(logits, y)
            loss.backward()
            grads = {
                name: None if p.grad is None else p.grad.copy()
                for name, p in params
            }
            stat_buffers = {
                name: buf.copy() for name, buf in self.model.named_buffers()
            }
            return float(loss.data), logits.data.copy(), grads, stat_buffers
        finally:
            self.model.train(was_training)
            for (_, p), grad in zip(params, saved):
                p.grad = grad
            for name, buf in self.model.named_buffers():
                buf[...] = snapshot[name]

    def _validate(self, plan: GradPlan, x: np.ndarray, y: np.ndarray) -> None:
        want_loss, want_logits, want_grads, want_buffers = self._tape_reference(x, y)
        loss, logits, grads, stats = plan.run(x, y)
        if not _close(loss, want_loss, plan.exact):
            raise CompileError(f"loss parity: {float(loss)} vs {want_loss}")
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
        buffers = dict(self.model.named_buffers())
        for upd, (mean, var) in zip(plan.bn_updates, stats):
            momentum, m = upd["momentum"], upd["m"]
            rm = buffers[upd["running_mean"]].copy()
            rm *= 1.0 - momentum
            rm += momentum * mean
            rv = buffers[upd["running_var"]].copy()
            rv *= 1.0 - momentum
            rv += momentum * var * (m / max(m - 1, 1))
            for name, got in ((upd["running_mean"], rm), (upd["running_var"], rv)):
                if not _close(got, want_buffers[name], plan.exact):
                    raise CompileError(f"running-stat parity failed for {name!r}")

    def _compile(self, x: np.ndarray, y: np.ndarray) -> GradPlan | None:
        key = (x.shape, x.dtype.str, np.asarray(y).shape)
        with observe.span(
            "trainc.compile", shape=list(x.shape), exact=self.exact
        ):
            try:
                graph = trace_training(self.model, self.loss_fn, x, y)
                plan = GradPlan(graph, self.model, exact=self.exact)
                self._validate(plan, x, y)
            except (TraceError, CompileError) as exc:
                observe.event(
                    "trainc.fallback", shape=list(x.shape), reason=repr(exc)
                )
                self._plans[key] = None
                return None
        self._plans[key] = plan
        return plan

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
        masks = _mask_signature(self.model)
        if masks != self._masks:
            if self._masks is not None and self._plans:
                self._plans.clear()
                observe.incr("trainc.mask_invalidations")
            self._masks = masks
        x = np.asarray(x)
        key = (x.shape, x.dtype.str, np.asarray(y).shape)
        if key not in self._plans:
            self._compile(x, y)
        plan = self._plans[key]
        if plan is None:
            observe.incr("trainc.fallback_batches")
            return self._tape_step(x, y)
        loss, logits, grads, stats = plan.run(x, y)
        self._apply_bn_updates(plan, stats)
        self.optimizer.apply(self._aligned(grads))
        observe.incr("trainc.batches")
        return float(loss), logits

    def compiled_for(self, x: np.ndarray, y: np.ndarray) -> bool:
        """True if a validated plan exists for this batch's shapes."""
        x = np.asarray(x)
        return self._plans.get((x.shape, x.dtype.str, np.asarray(y).shape)) is not None

    # ------------------------------------------------------------ internals

    def _apply_bn_updates(self, plan: GradPlan, stats) -> None:
        if not plan.bn_updates:
            return
        buffers = dict(self.model.named_buffers())
        for upd, (mean, var) in zip(plan.bn_updates, stats):
            momentum, m = upd["momentum"], upd["m"]
            rm = buffers[upd["running_mean"]]
            rm *= 1.0 - momentum
            rm += momentum * mean
            rv = buffers[upd["running_var"]]
            rv *= 1.0 - momentum
            rv += momentum * var * (m / max(m - 1, 1))

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
