"""Prune-potential-as-a-service: multi-model serving over ``repro.infer``.

The compiled-plan engine is a per-call library; this package serves it
to a stream of requests on a simulated clock, so every latency, batching,
and shedding behaviour is deterministically testable:

- :class:`ModelZooRegistry` — warm fixed-pad engines keyed by
  ``(architecture, prune_method, ratio)``, with a cross-model compiled-
  plan LRU under an explicit memory budget;
- :class:`DynamicBatcher` — bounded request queue that coalesces
  same-model/same-shape traffic, flushes on window or deadline, and
  sheds oldest under backpressure;
- :class:`PruneServer` — the serving loop, single-threaded on a
  :class:`VirtualClock` that each batch charges its service time to,
  with retry/containment on engine faults and a ``safety`` endpoint
  attaching the paper's Def.-1 prune-potential context to predictions;
- :func:`run_load` / :func:`run_serve_bench` — the seeded heavy-tail
  open-loop load harness behind ``python -m repro serve-bench`` and
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
from repro.serve.clock import VirtualClock
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
    "DynamicBatcher",
    "GroupKey",
    "LoadProfile",
    "LoadReport",
    "ModelKey",
    "ModelZooRegistry",
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
