"""The inference engine: compiled no-grad forwards behind one seam.

:func:`engine_for` is the seam every eval-heavy consumer goes through.
It returns a cached :class:`InferenceEngine` for a model; the engine
traces the model's eval forward once per row shape, compiles it into a
flat numpy plan (BN folded, masked weights densified) that runs at any
row count, and falls back to the plain ``Module`` forward whenever the
model cannot be traced or a compiled plan fails its self-check.

Correctness machinery:

- before it serves, every compiled plan must, on its trace probe,
  reproduce the module's traced output (scale-aware bound), keep its
  first and last rows bitwise independent of the others (licensing
  padding and coalescing), and reproduce the first row run alone, so
  that it may serve any row count;
- under ``pad="fixed"`` a row count below the batch size serves only
  once its rows match the full-width run's bitwise;
- constants are refreshed whenever the model's *state signature* — an
  adler32 over every parameter and buffer — changes, so in-place SGD
  updates and new masks invalidate the cache without version counters;
  a sealed model (:meth:`~repro.nn.module.Module.seal`, as every served
  one is) can change state only by rebinding an array, so while it
  still holds, read-only, the arrays last hashed, its state is trusted
  by identity and not hashed again;
- the fallback path restores ``model.train(...)`` in a ``finally``, so
  an exception mid-eval can never leave a caller's model stuck in eval.
"""

from __future__ import annotations

import time
import weakref
import zlib

import numpy as np

from repro import observe
from repro.autograd import table
from repro.autograd.tensor import Tensor, no_grad
from repro.infer.plan import CompiledPlan, CompileError
from repro.infer.trace import TraceError, trace
from repro.nn.module import Module, is_sealed

_PARITY_ATOL = 1e-5
# BN folding perturbs weights *before* the conv reduction, so folded plans
# match the module to ~1e-6 relative rather than bit-for-bit — and the
# resulting absolute error rides on the largest co-activation, not on each
# element.  The self-check gate is therefore scale-aware:
# max|got - want| <= atol + rtol * max|want|.
_PARITY_RTOL = 1e-5


def _assert_parity(got: np.ndarray, want: np.ndarray, what: str) -> None:
    if got.shape != want.shape:
        raise CompileError(f"{what}: output shape {got.shape} != {want.shape}")
    diff = float(np.abs(got - want).max())
    bound = _PARITY_ATOL + _PARITY_RTOL * float(np.abs(want).max())
    if not diff <= bound:  # NaNs compare false and fall through here
        raise CompileError(f"{what}: max abs diff {diff:.3e} exceeds {bound:.3e}")


def _state_arrays(model: Module) -> list[np.ndarray]:
    """Every parameter and buffer array of ``model``: each module's
    parameters, then its buffers, modules breadth first."""
    arrays = []
    modules = [model]
    for module in modules:
        arrays.extend([param.data for param in module._parameters.values()])
        arrays.extend(module._buffers.values())
        modules.extend(module._modules.values())
    return arrays


def _state_signature(model: Module) -> tuple[tuple, list[np.ndarray] | None]:
    """Content hash of every parameter and buffer, and the arrays hashed
    if ``model`` is sealed (``None`` if it is not).

    Keyed on array *contents* (not object identity or version counters)
    because SGD updates parameters in place and ``set_weight_mask``
    rewrites buffers the plan has already densified.  A sealed model's
    arrays cannot change in place (:func:`is_sealed`), so the engine
    trusts a sealed state by identity (:func:`_holds`) until an array
    is rebound.  The sealed test rides on this walk and stops at the
    first unsealed array, so an unsealed model pays next to nothing
    for it.
    """
    arrays = _state_arrays(model)
    sealed = True
    parts = []
    for array in arrays:
        if sealed and not is_sealed(array):
            sealed = False
        parts.append(zlib.adler32(np.ascontiguousarray(array)))
    return tuple(parts), (arrays if sealed else None)


def _holds(model: Module, arrays: list[np.ndarray]) -> bool:
    """Whether ``model`` still holds exactly ``arrays``, in
    :func:`_state_arrays` order, each still read-only: then a sealed
    state signed over ``arrays`` is unchanged."""
    held = iter(arrays)
    modules = [model]
    for module in modules:
        for param in module._parameters.values():
            array = param.data
            if array is not next(held, None) or array.flags.writeable:
                return False
        for array in module._buffers.values():
            if array is not next(held, None) or array.flags.writeable:
                return False
        modules.extend(module._modules.values())
    return next(held, None) is None


def _coerce_batch(images: np.ndarray) -> np.ndarray:
    arr = np.asarray(images)
    if arr.size == 0:
        raise ValueError("inference requires a non-empty batch of images")
    if not np.issubdtype(arr.dtype, np.floating):
        arr = arr.astype(np.float32)
    return arr


def _pad_to(n: int, batch_size: int) -> int:
    """Smallest power-of-two chunk (capped at ``batch_size``) holding n rows.

    Padding tail chunks up to a power of two bounds the row counts a plan
    runs at (its GEMM shapes and conv scratch) at ~log2(batch_size) even
    when callers (e.g. BackSelect's shrinking candidate sets) sweep every size.
    """
    size = 1
    while size < n:
        size *= 2
    return min(size, batch_size)


class HeldModel:
    """An engine's ``model`` attribute, held strongly until the engine is shared.

    The shared-engine registries map model -> engine in a weak-keyed dict.
    An engine that held its model strongly would keep its own key alive,
    so no entry, engine or compiled plan would ever be freed.
    :func:`share_engine` therefore downgrades a registered engine's
    reference to a weakref: the engine dies with its model.
    """

    @property
    def model(self):
        model = self._model
        return model() if isinstance(model, weakref.ref) else model

    @model.setter
    def model(self, model) -> None:
        self._model = model


def share_engine(registry: weakref.WeakKeyDictionary, engine: HeldModel):
    """Register ``engine`` as its model's shared engine in ``registry``."""
    model = engine.model
    engine.model = weakref.ref(model)
    registry[model] = engine
    return engine


class InferenceEngine(HeldModel):
    """Batched eval-mode ``logits``/``predict``/``predict_proba`` for a model.

    Parameters
    ----------
    model:
        The module to serve.  The engine never mutates it beyond the
        eval/train toggling that any evaluation does (and that is always
        restored, exception or not).
    batch_size:
        Upper bound on rows per plan run.
    pad:
        Chunk-padding policy.  One plan per row shape and dtype serves
        every row count; ``"pow2"`` (default) pads tail chunks to the next
        power of two.  ``"fixed"`` pads each chunk to the smallest
        power-of-two row bucket (capped at ``batch_size``) that is
        *licensed*: on a fixed-seed probe, the plan's output at that row
        count equals the first rows of its ``batch_size``-row output
        bitwise.  GEMMs of different row counts may take different BLAS
        kernels and round differently (a one-row GEMM can become a GEMV),
        so only a checked bucket may serve; the others send their chunks
        one bucket up.  Every row then comes out bitwise as the full-width
        run computes it, which is what makes a coalesced batch's per-row
        outputs equal to the same rows served one request at a time — the
        serving layer relies on it.  The ``batch_size`` bucket is licensed
        by definition; the others are checked, by two runs of the plan,
        the first time they serve under a model state signature.
    """

    def __init__(
        self,
        model: Module,
        batch_size: int = 256,
        pad: str = "pow2",
    ):
        if pad not in ("pow2", "fixed"):
            raise ValueError(f"pad must be 'pow2' or 'fixed', got {pad!r}")
        self.model = model
        self.batch_size = int(batch_size)
        self.pad = pad
        # (row_shape, dtype) -> CompiledPlan | None (None: fall back forever)
        self._plans: dict[tuple, CompiledPlan | None] = {}
        self._signature: tuple | None = None
        # The arrays ``_signature`` hashed, kept while the model is sealed:
        # a state still holding exactly these is not hashed again.  Held
        # here, their ids cannot be reused by other arrays.
        self._sealed: list[np.ndarray] | None = None
        # pad="fixed": (batch size, row shape, dtype, rows) -> license
        # verdict under ``_signature``, and (batch size, row shape, dtype)
        # -> the full-width probe output every such verdict compares
        # against; both cleared when the signature changes.
        self._licenses: dict[tuple, bool] = {}
        self._probe_outputs: dict[tuple, np.ndarray] = {}
        # Serving-layer seam: called as hook(engine, plan_key, plan) every
        # time a compiled plan is about to serve a chunk (including right
        # after compilation, and license probes), so an LRU can track
        # recency and budget.
        self.plan_used_hook = None

    # -------------------------------------------------------------- compile

    def _compile(self, chunk: np.ndarray) -> CompiledPlan | None:
        """Trace + compile for ``chunk``'s row shape; None on any mismatch.

        A 1-row chunk is traced tiled to two rows, so that row independence
        is always checked.  The plan serves every row count.
        """
        key = (chunk.shape[1:], chunk.dtype.str)
        probe = chunk if chunk.shape[0] > 1 else np.concatenate([chunk, chunk])
        with observe.span("infer.compile", shape=list(probe.shape)):
            try:
                graph = trace(self.model, probe)
                plan = CompiledPlan(graph)
                plan.refresh(self.model)
                plan.signature = self._signature
                # Kernel exactness + dataflow: re-running the probe through
                # the compiled kernels must reproduce the module's own
                # output recorded during tracing.
                got = plan.run(probe)
                _assert_parity(got, graph.sample_output, "compile self-check")
                # Row independence licenses tail padding *and* batch
                # coalescing: perturbing every trailing row must leave the
                # leading row's output bitwise unchanged, and vice versa
                # (any batch-mixing op would couple the rows).  The second
                # direction matters to the serving layer, which places a
                # request's rows in the middle of a coalesced batch.
                for row, others in ((0, slice(1, None)), (-1, slice(None, -1))):
                    perturbed = probe.copy()
                    perturbed[others] = probe[others] * -3.0 + 1.0
                    if not np.array_equal(plan.run(perturbed)[row], got[row]):
                        raise CompileError("forward mixes batch rows")
                # Row count: a graph that sizes a constant or an index by
                # the traced batch must not serve other row counts.  The
                # check's 1-row conv scratch is then freed: only an engine
                # that serves 1-row chunks needs it, and allocates it again.
                try:
                    first = plan.run(probe[:1])
                except (ValueError, IndexError) as exc:
                    raise CompileError(f"plan fails at one row: {exc!r}") from exc
                plan.drop_scratch(1)
                _assert_parity(first, graph.sample_output[:1], "row-count check")
            except (TraceError, CompileError, AssertionError) as exc:
                observe.event(
                    "infer.fallback", shape=list(probe.shape), reason=repr(exc)
                )
                self._plans[key] = None
                return None
        self._plans[key] = plan
        return plan

    def _plan_for(self, chunk: np.ndarray) -> CompiledPlan | None:
        """The plan for ``chunk``'s row shape, compiled or refreshed as
        needed, and reported to the hook."""
        key = (chunk.shape[1:], chunk.dtype.str)
        if key not in self._plans:
            plan = self._compile(chunk)
        else:
            plan = self._plans[key]
            if plan is not None and plan.signature != self._signature:
                plan.refresh(self.model)
                plan.signature = self._signature
                observe.incr("infer.refreshes")
        hook = self.plan_used_hook
        if plan is not None and hook is not None:
            hook(self, key, plan)
        return plan

    def _license(self, chunk: np.ndarray, rows: int, batch_size: int) -> bool:
        """Whether ``rows``-row chunks of ``chunk``'s row shape may serve:
        on a fixed-seed probe, the plan's output at ``rows`` rows must equal
        the first rows of its output at ``batch_size`` rows, bitwise.  The
        full-width run is made once per row shape and state signature, and
        a refused bucket's conv scratch is freed."""
        rng = np.random.default_rng(0)
        probe = rng.standard_normal((batch_size,) + chunk.shape[1:]).astype(chunk.dtype)
        plan = self._plan_for(probe)
        if plan is None:
            return False
        key = (batch_size, chunk.shape[1:], chunk.dtype.str)
        if key not in self._probe_outputs:
            self._probe_outputs[key] = plan.run(probe)
        if np.array_equal(plan.run(probe[:rows]), self._probe_outputs[key][:rows]):
            return True
        plan.drop_scratch(rows)  # an unlicensed bucket never runs
        observe.event("infer.unlicensed", shape=[rows, *chunk.shape[1:]])
        return False

    def _chunk_rows(self, chunk: np.ndarray, batch_size: int) -> int:
        """Rows the padded chunk will occupy under this engine's pad policy.

        Under ``pad="fixed"`` a bucket without a license verdict is checked
        now.
        """
        rows = _pad_to(chunk.shape[0], batch_size)
        while self.pad == "fixed" and rows < batch_size:
            key = (batch_size, chunk.shape[1:], chunk.dtype.str, rows)
            if key not in self._licenses:
                self._licenses[key] = self._license(chunk, rows, batch_size)
            if self._licenses[key]:
                break
            rows = min(2 * rows, batch_size)
        return rows

    def _sign_state(self) -> None:
        """Bring ``_signature`` up to the model's state; a changed
        signature drops the bucket licenses and probe outputs.

        A sealed state still held (:func:`_holds`) is unchanged and is
        not hashed; any other state is.
        """
        model = self.model
        if self._sealed is not None and _holds(model, self._sealed):
            return
        signature, self._sealed = _state_signature(model)
        observe.incr("infer.state_hashes")
        if signature != self._signature:
            self._licenses.clear()
            self._probe_outputs.clear()
        self._signature = signature

    # ------------------------------------------------------------- fallback

    def _module_logits(self, images: np.ndarray) -> np.ndarray:
        """Plain ``Module`` forward, train-state restored in a ``finally``."""
        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                return self.model(Tensor(images)).data
        finally:
            self.model.train(was_training)

    # ------------------------------------------------------------------ API

    def logits(self, images: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Eval-mode logits for ``images``, batched and (if possible) compiled."""
        arr = _coerce_batch(images)
        bs = int(batch_size) if batch_size is not None else self.batch_size
        # Module-like duck types (test doubles with just __call__/eval/train)
        # are served through the fallback path — tracing and the state
        # signature need the real parameter/buffer API.
        use_plans = isinstance(self.model, Module)
        if use_plans:
            self._sign_state()
        outputs = []
        start = time.perf_counter()
        for lo in range(0, arr.shape[0], bs):
            chunk = arr[lo : lo + bs]
            plan = None
            if use_plans:
                # Pad every chunk up to a power of two (capped at the batch
                # size) so a sweep of batch sizes — BackSelect's shrinking
                # candidate sets — runs the plan at O(log bs) row counts,
                # not one each.  (pad="fixed" takes the smallest licensed
                # such bucket.)
                rows = self._chunk_rows(chunk, bs)
                if rows != chunk.shape[0]:
                    padded = np.zeros((rows,) + chunk.shape[1:], dtype=chunk.dtype)
                    padded[: chunk.shape[0]] = chunk
                else:
                    padded = chunk
                plan = self._plan_for(padded)
            if plan is not None:
                outputs.append(plan.run(padded)[: chunk.shape[0]])
                observe.incr("infer.batches")
            else:
                outputs.append(self._module_logits(chunk))
                observe.incr("infer.fallback_batches")
        out = outputs[0] if len(outputs) == 1 else np.concatenate(outputs, axis=0)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            observe.hist("infer.images_per_s", arr.shape[0] / elapsed)
        return out

    def predict(self, images: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Argmax class predictions over axis 1."""
        return np.argmax(self.logits(images, batch_size=batch_size), axis=1)

    def predict_proba(
        self, images: np.ndarray, batch_size: int | None = None
    ) -> np.ndarray:
        """Softmax probabilities over axis 1 (stable shifted exp)."""
        logits = self.logits(images, batch_size=batch_size)
        return table.KERNELS["softmax"]((logits,), {"axis": 1})

    def compiled_for(self, images: np.ndarray) -> bool:
        """True if a validated plan exists for this batch's row shape."""
        arr = _coerce_batch(images)
        return self._plans.get((arr.shape[1:], arr.dtype.str)) is not None

    def licensed_buckets(self, row_shape: tuple, dtype=np.float32) -> list[int]:
        """Row counts of the buckets licensed for ``row_shape`` at this
        engine's batch size under the last state signature seen; the
        ``batch_size`` bucket is always one."""
        row_shape, dtype = tuple(row_shape), np.dtype(dtype).str
        licensed = {
            rows
            for (bs, shape, dt, rows), ok in self._licenses.items()
            if ok and bs == self.batch_size and shape == row_shape and dt == dtype
        }
        return sorted(licensed | {self.batch_size})

    # ----------------------------------------------------- plan bookkeeping

    def plan_stats(self) -> dict[tuple, int]:
        """Resident compiled plans: ``(row shape, dtype) -> resident bytes``
        (constants and conv scratch, :attr:`CompiledPlan.nbytes`).

        Fallback markers (row shapes that failed to compile and are pinned
        to the module forward) are excluded — there is nothing to evict.
        """
        return {
            key: plan.nbytes
            for key, plan in self._plans.items()
            if plan is not None
        }

    def evict_plan(self, key: tuple) -> bool:
        """Drop the compiled plan of the ``(row shape, dtype)`` under
        ``key`` (returns whether one existed).

        The next batch of that row shape recompiles from scratch; fallback
        markers are left in place so a known-untraceable row shape never
        re-attempts compilation because of memory pressure, and so are its
        row-bucket licenses: the recompiled plan is the same plan.
        """
        if self._plans.get(key) is None:
            return False
        del self._plans[key]
        observe.incr("infer.plan_evictions")
        return True


_ENGINES: "weakref.WeakKeyDictionary[Module, InferenceEngine]" = (
    weakref.WeakKeyDictionary()
)


def engine_for(model: Module, batch_size: int = 256) -> InferenceEngine:
    """The shared engine for ``model`` (pass-through for engines).

    Consumers accept either a ``Module`` or an ``InferenceEngine``; routing
    both through this seam lets callers pre-warm and share one engine
    across an entire study loop.  The engine holds ``model`` weakly and is
    freed with it.
    """
    if isinstance(model, InferenceEngine):
        return model
    engine = _ENGINES.get(model)
    if engine is None:
        engine = share_engine(_ENGINES, InferenceEngine(model, batch_size=batch_size))
    return engine


def adopt_engine(engine: InferenceEngine) -> InferenceEngine:
    """Install ``engine`` as the shared :func:`engine_for` engine of its model.

    The serving registry builds engines with non-default settings
    (``pad="fixed"``, its own batch size) and adopts them so every other
    consumer of the same model — including differential parity checks —
    routes through the identical plans.  Like every shared engine it then
    holds its model weakly, so the caller keeps the model alive.
    """
    return share_engine(_ENGINES, engine)
