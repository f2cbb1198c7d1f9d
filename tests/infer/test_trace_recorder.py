"""The trace recorder: it refuses what no static graph can hold, and it
records and refuses only the ops of the thread that runs it."""

import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.infer.trace import TraceError, trace, trace_training
from repro.nn.losses import CrossEntropyLoss

from tests.conftest import make_tiny_cnn


class Paused(nn.Module):
    """A model whose forward, once armed, stops halfway until released."""

    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(4, 3, rng=0)
        self.halfway = threading.Event()
        self.release = threading.Event()
        self.armed = False

    def forward(self, x):
        h = self.fc(x)
        if self.armed:
            self.halfway.set()
            assert self.release.wait(timeout=30), "never released"
        return (h * 2.0).relu()


def graph_of(graph):
    return [(node.op, node.inputs, repr(node.params)) for node in graph.nodes]


class Gather(nn.Module):
    def forward(self, x):
        return x.reshape(x.shape[0], -1)[:, Tensor(np.array([0.0]))]


def test_tensor_valued_index_is_refused():
    with pytest.raises(TraceError, match="tensor-valued indexing"):
        trace(Gather(), np.zeros((2, 3), dtype=np.float32))


def test_active_dropout_is_refused_before_it_draws():
    """The refused trace leaves the layer's generator where an untraced
    tape step, the engine's fallback, then finds it."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 4, 4)
    drop = nn.Dropout(0.5, rng=1)
    model = nn.Sequential(make_tiny_cnn(), drop)
    with pytest.raises(TraceError, match="dropout"):
        trace_training(model, CrossEntropyLoss(), x, y)
    assert drop.rng.random() == np.random.default_rng(1).random()


def test_trace_is_confined_to_its_thread():
    rng = np.random.default_rng(0)
    sample = rng.standard_normal((2, 4)).astype(np.float32)
    model = Paused()
    undisturbed = graph_of(trace(model, sample))

    logits = rng.standard_normal((5, 3)).astype(np.float32)
    labels = rng.integers(0, 3, 5)
    a = rng.standard_normal(3).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    want_loss = F.cross_entropy(Tensor(logits), labels).data.copy()
    want_sum = (Tensor(a) + Tensor(b)).data.copy()

    traced = {}

    def trace_in_thread():
        try:
            traced["graph"] = trace(model, sample)
        except BaseException as exc:  # surfaced by the main thread
            traced["error"] = exc

    model.armed = True
    tracer = threading.Thread(target=trace_in_thread)
    tracer.start()
    try:
        assert model.halfway.wait(timeout=30), "trace never reached the pause"
        # The trace is live on the other thread: ops here run untraced,
        # unrefused, with their normal results.
        loss = F.cross_entropy(Tensor(logits), labels)
        total = Tensor(a) + Tensor(b)
    finally:
        model.release.set()
        tracer.join(timeout=30)
    assert not tracer.is_alive()
    assert "error" not in traced, traced.get("error")
    np.testing.assert_array_equal(loss.data, want_loss)
    np.testing.assert_array_equal(total.data, want_sum)
    assert graph_of(traced["graph"]) == undisturbed


def test_concurrent_traces_and_tape_steps_stay_apart():
    """Four threads on two cores, switching every microsecond: two trace
    their own models (eval traces run under ``no_grad``) while two take
    tape steps.  Every trace equals its model's solo trace and every tape
    step's gradients equal its solo step's, so neither the recorder nor
    grad mode leaks across threads."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 4, 4)
    models = [make_tiny_cnn(seed=s) for s in range(4)]

    def tape_grads(model):
        model.train()
        for p in model.parameters():
            p.grad = None
        F.cross_entropy(model(Tensor(x)), y).backward()
        return [p.grad.copy() for p in model.parameters()]

    want_graphs = {i: graph_of(trace(models[i], x)) for i in (0, 1)}
    want_grads = {i: tape_grads(models[i]) for i in (2, 3)}
    bad = []

    def work(i):
        try:
            for _ in range(5):
                if i in want_graphs:
                    if graph_of(trace(models[i], x)) != want_graphs[i]:
                        bad.append(f"trace {i}")
                else:
                    got = tape_grads(models[i])
                    if not all(np.array_equal(g, w) for g, w in zip(got, want_grads[i])):
                        bad.append(f"tape {i}")
        except Exception as exc:  # reported with the mismatches below
            bad.append(f"thread {i}: {exc!r}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not bad, bad
