"""The model-zoo registry: warm engines + a plan LRU under a memory budget.

A serving process holds many variants of the paper's networks at once —
``(architecture, prune_method, ratio)`` triples — each behind a warm
:class:`~repro.infer.InferenceEngine`.  Compiled plans are the expensive
resident state (densified masked weights, folded BN constants and conv
scratch per row count), so the registry tracks every plan that serves
traffic in one recency list and evicts least-recently-used plans
whenever their total resident bytes exceed the configured budget.
Evicted shapes recompile on next use; staleness is *not* the LRU's
problem — the engine re-densifies a plan whenever the model's state
changes.  A registered model is sealed: its arrays are read-only, so an
in-place write raises instead of changing what is served, and its state
changes only when ``load_state_dict`` rebinds its arrays, which the
engine sees by identity without hashing a weight.

Engines are built with ``pad="fixed"``: a batch pads to the smallest
power-of-two row bucket licensed bitwise against the full batch width,
so every row comes out as the full-width run computes it.  That is what
makes a coalesced batch's per-row outputs bitwise equal to serving each
request alone.  One plan serves every row count, so the LRU tracks one
plan per (model, row shape).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import observe
from repro.infer import InferenceEngine, adopt_engine
from repro.nn.module import Module
from repro.serve.safety import SafetyContext

DEFAULT_BATCH_SIZE = 64


@dataclass(frozen=True)
class ModelKey:
    """Identity of one servable model: architecture × prune method × ratio."""

    architecture: str
    prune_method: str | None = None
    ratio: float | None = None

    def __str__(self) -> str:
        if self.prune_method is None:
            return self.architecture
        tag = f"{self.architecture}/{self.prune_method}"
        return tag if self.ratio is None else f"{tag}@{self.ratio:g}"

    @classmethod
    def parse(cls, text: str) -> "ModelKey":
        """Inverse of ``str()``: ``"resnet20/wt@0.5"`` → a :class:`ModelKey`."""
        if "/" not in text:
            return cls(text)
        architecture, rest = text.split("/", 1)
        if "@" in rest:
            method, ratio = rest.split("@", 1)
            return cls(architecture, method, float(ratio))
        return cls(architecture, rest)


def as_model_key(key: "ModelKey | str") -> ModelKey:
    """Normalize a registry key (accepts a :class:`ModelKey` or its string)."""
    return key if isinstance(key, ModelKey) else ModelKey.parse(str(key))


@dataclass
class RegisteredModel:
    """One registry entry: the module, its warm engine, and safety evidence."""

    key: ModelKey
    model: Module
    engine: InferenceEngine
    safety: SafetyContext | None = None


class ModelZooRegistry:
    """Warm engines for every registered model, plans LRU-bounded by bytes.

    Parameters
    ----------
    memory_budget_bytes:
        Cap on the summed resident bytes (:attr:`CompiledPlan.nbytes`:
        constants and conv scratch) of all resident compiled plans
        across every registered engine (``None``: unbounded).  When a plan
        touch pushes the total over budget, least-recently-used plans are
        evicted until it fits again — except the plan that just served,
        which is always retained even if it alone exceeds the budget
        (evicting it would recompile on every request forever).
    batch_size:
        Default engine batch size (and therefore the full-width row
        bucket that licenses the smaller ones) for models registered
        without an explicit one.
    """

    def __init__(
        self,
        memory_budget_bytes: int | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        if memory_budget_bytes is not None and memory_budget_bytes <= 0:
            raise ValueError(
                f"memory_budget_bytes must be positive, got {memory_budget_bytes}"
            )
        self.memory_budget_bytes = memory_budget_bytes
        self.batch_size = int(batch_size)
        self._models: dict[str, RegisteredModel] = {}
        # (key_str, plan_key) -> resident bytes; order = recency (LRU first).
        self._lru: OrderedDict[tuple[str, tuple], int] = OrderedDict()
        self._by_engine: dict[int, str] = {}  # id(engine) -> key_str
        self._lock = threading.RLock()
        self.evictions = 0

    # ------------------------------------------------------------- entries

    def register(
        self,
        key: ModelKey | str,
        model: Module,
        safety: SafetyContext | None = None,
        batch_size: int | None = None,
    ) -> RegisteredModel:
        """Add ``model`` under ``key`` with a warm fixed-pad engine.

        Re-registering a key replaces its entry (and forgets the old
        engine's plans in the LRU).  The engine is adopted as the model's
        shared :func:`repro.infer.engine_for` engine, so out-of-band
        consumers (parity checks, analysis code) use identical plans.

        ``model`` is sealed (:meth:`~repro.nn.module.Module.seal`): an
        in-place write to it raises ``ValueError``, and its engine trusts
        its state by array identity instead of hashing every weight per
        batch.  Swap states with ``load_state_dict``, which keeps it
        sealed.  It stays read-only after :meth:`unregister`.
        """
        key = as_model_key(key)
        key_str = str(key)
        model.seal()
        engine = InferenceEngine(
            model,
            batch_size=batch_size or self.batch_size,
            pad="fixed",
        )
        adopt_engine(engine)
        engine.plan_used_hook = self._on_plan_used
        entry = RegisteredModel(key=key, model=model, engine=engine, safety=safety)
        with self._lock:
            if key_str in self._models:
                self._forget(key_str)
            self._models[key_str] = entry
            self._by_engine[id(engine)] = key_str
        observe.event("serve.register", model=key_str)
        return entry

    def unregister(self, key: ModelKey | str) -> None:
        """Drop ``key`` and its plans (no-op if absent)."""
        key_str = str(as_model_key(key))
        with self._lock:
            entry = self._models.pop(key_str, None)
            if entry is not None:
                self._forget(key_str)
                self._by_engine.pop(id(entry.engine), None)

    def _forget(self, key_str: str) -> None:
        for lru_key in [k for k in self._lru if k[0] == key_str]:
            del self._lru[lru_key]

    def keys(self) -> list[str]:
        """String keys of every registered model, sorted."""
        with self._lock:
            return sorted(self._models)

    def get(self, key: ModelKey | str) -> RegisteredModel:
        """The full entry for ``key`` (raises ``KeyError`` with choices).

        A canonical key string is looked up as is; any other string is
        parsed first, so ``"resnet20/wt@0.50"`` finds ``resnet20/wt@0.5``.
        """
        with self._lock:
            entry = self._models.get(key) if isinstance(key, str) else None
            if entry is not None:
                return entry
            key_str = str(as_model_key(key))
            try:
                return self._models[key_str]
            except KeyError:
                raise KeyError(
                    f"unknown model {key_str!r}; registered: {sorted(self._models)}"
                ) from None

    def engine(self, key: ModelKey | str) -> InferenceEngine:
        """The warm engine serving ``key``."""
        return self.get(key).engine

    def model(self, key: ModelKey | str) -> Module:
        """The module registered under ``key``."""
        return self.get(key).model

    def safety_context(self, key: ModelKey | str) -> SafetyContext | None:
        """Cached Def.-1 safety evidence for ``key`` (``None`` if unset)."""
        return self.get(key).safety

    # ----------------------------------------------------------------- LRU

    def _on_plan_used(self, engine: InferenceEngine, plan_key: tuple, plan) -> None:
        """Engine hook: refresh recency and enforce the byte budget."""
        with self._lock:
            key_str = self._by_engine.get(id(engine))
            if key_str is None:  # engine was unregistered mid-flight
                return
            lru_key = (key_str, plan_key)
            known = lru_key in self._lru
            # Re-read on every touch: a refresh or a run at a new row count
            # may have resized the plan.
            self._lru[lru_key] = plan.nbytes
            self._lru.move_to_end(lru_key)
            if not known:
                observe.incr("serve.plan_compiles")
            self._evict_over_budget(keep=lru_key)

    def _evict_over_budget(self, keep: tuple[str, tuple]) -> None:
        if self.memory_budget_bytes is None:
            return
        while (
            sum(self._lru.values()) > self.memory_budget_bytes
            and len(self._lru) > 1
        ):
            victim, nbytes = next(iter(self._lru.items()))
            if victim == keep:
                break
            del self._lru[victim]
            key_str, plan_key = victim
            entry = self._models.get(key_str)
            if entry is not None:
                entry.engine.evict_plan(plan_key)
            self.evictions += 1
            observe.incr("serve.plan_evictions")
            observe.event(
                "serve.evict", model=key_str,
                shape=list(plan_key[0]), bytes=nbytes,
            )

    def plan_memory_bytes(self) -> int:
        """Summed resident bytes of every tracked plan."""
        with self._lock:
            return sum(self._lru.values())

    def resident_plans(self) -> list[tuple[str, tuple]]:
        """Tracked ``(model key, plan key)`` pairs, least recent first."""
        with self._lock:
            return list(self._lru)

    # ---------------------------------------------------------------- warm

    def warm(
        self,
        key: ModelKey | str,
        row_shapes: list[tuple[int, ...]],
        dtype=np.float32,
    ) -> None:
        """Pre-compile the plan of each of ``row_shapes``.

        A ``batch_size``-row probe compiles the plan at the full width,
        which is licensed by definition.  Smaller row buckets are licensed
        by traffic that first needs them, which runs that plan twice.
        """
        engine = self.engine(key)
        for shape in row_shapes:
            probe = np.zeros((engine.batch_size,) + tuple(shape), dtype=dtype)
            engine.logits(probe)

    def stats(self) -> dict:
        """Registry occupancy snapshot for rollups and benchmarks."""
        with self._lock:
            return {
                "models": len(self._models),
                "resident_plans": len(self._lru),
                "plan_memory_bytes": sum(self._lru.values()),
                "memory_budget_bytes": self.memory_budget_bytes,
                "evictions": self.evictions,
            }
