"""Fast no-grad inference: trace → compile → flat numpy forward plan.

Entry point for consumers is :func:`engine_for`; the pieces underneath
(:func:`trace`, :class:`CompiledPlan`) are exported for tests and the
``repro.verify`` plan-parity oracle.
"""

from repro.infer.engine import InferenceEngine, adopt_engine, engine_for
from repro.infer.grad import GradPlan
from repro.infer.plan import CompiledPlan, CompileError
from repro.infer.trace import (
    Graph,
    Node,
    TraceError,
    TrainGraph,
    trace,
    trace_training,
)
from repro.infer.trainengine import TrainEngine, train_engine_for

__all__ = [
    "CompiledPlan",
    "CompileError",
    "GradPlan",
    "Graph",
    "InferenceEngine",
    "Node",
    "TraceError",
    "TrainEngine",
    "TrainGraph",
    "adopt_engine",
    "engine_for",
    "trace",
    "trace_training",
    "train_engine_for",
]
