"""Prune-potential-as-a-service: multi-model serving over ``repro.infer``.

The compiled-plan engine (PR 5) is a per-call library; this package turns
it into a long-running serving subsystem, built simulation-first so every
latency, batching, and shedding behaviour is deterministically testable:

- :class:`ModelZooRegistry` — warm fixed-pad engines keyed by
  ``(architecture, prune_method, ratio)``, with a cross-model compiled-
  plan LRU under an explicit memory budget;
- :class:`DynamicBatcher` — bounded request queue that coalesces
  same-model/same-shape traffic, flushes on window or deadline, and
  sheds oldest under backpressure;
- :class:`PruneServer` — the serving loop (simulated on a
  :class:`VirtualClock`, or threaded on a wall clock) with retry/
  containment on engine faults and a ``safety`` endpoint attaching the
  paper's Def.-1 prune-potential context to predictions;
- :func:`run_load` / :func:`run_serve_bench` — the seeded heavy-tail
  load harness behind ``python -m repro serve-bench`` and
  ``BENCH_serve.json``.
"""

from repro.serve.batcher import (
    TERMINAL,
    Batch,
    DynamicBatcher,
    GroupKey,
    PendingResponse,
    Request,
)
from repro.serve.clock import Clock, MonotonicClock, VirtualClock
from repro.serve.loadgen import (
    Arrival,
    LoadProfile,
    LoadReport,
    TrafficMix,
    audit_parity,
    build_bench_registry,
    generate_arrivals,
    run_load,
    run_serve_bench,
)
from repro.serve.registry import (
    ModelKey,
    ModelZooRegistry,
    RegisteredModel,
    as_model_key,
)
from repro.serve.safety import (
    SafetyContext,
    safety_from_arrays,
    safety_from_curves,
)
from repro.serve.server import (
    PruneServer,
    SafetyAnswer,
    ServeConfig,
)

__all__ = [
    "Arrival",
    "Batch",
    "Clock",
    "DynamicBatcher",
    "GroupKey",
    "LoadProfile",
    "LoadReport",
    "ModelKey",
    "ModelZooRegistry",
    "MonotonicClock",
    "PendingResponse",
    "PruneServer",
    "RegisteredModel",
    "Request",
    "SafetyAnswer",
    "SafetyContext",
    "ServeConfig",
    "TERMINAL",
    "TrafficMix",
    "VirtualClock",
    "as_model_key",
    "audit_parity",
    "build_bench_registry",
    "generate_arrivals",
    "run_load",
    "run_serve_bench",
    "safety_from_arrays",
    "safety_from_curves",
]
