"""Compiled training step vs tape step: speedup, BENCH_train.json.

Times one full training step (forward, loss, backward, BatchNorm stat
update, SGD update) at the paper's CIFAR batch size through the per-batch
autograd tape and through the :mod:`repro.infer` gradient-plan engine,
then

- emits ``BENCH_train.json`` at the repo root with per-model wall clocks
  and speedups,
- asserts the compiled path reaches the >= 2x per-step speedup target on
  at least one model (per-model factors vary with BLAS/core count; the
  deep ResNets are the reliable winners).

Each model's ``first_step_s`` is what a new batch shape costs: the best
of three fresh engines' first ``step``, which traces the step, builds the
gradient plan, validates it and applies it.  ``host`` records what the
numbers depend on (CPU count, BLAS, thread pins).

    PYTHONPATH=src:. python -m pytest -q -s benchmarks/test_bench_train.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.suite.host import fingerprint
from repro.autograd.tensor import Tensor
from repro.infer import TrainEngine
from repro.models.registry import build_model
from repro.nn.losses import CrossEntropyLoss
from repro.optim import SGD

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEEDUP_TARGET = 2.0
BENCH_MODELS = ("resnet56", "densenet22", "wrn16_8")
BATCH_SIZE = 64
ROUNDS = 6
INNER = 2
FIRST_STEPS = 3


def _interleaved(fn_a, fn_b, rounds=ROUNDS, inner=INNER):
    """Best per-call wall clock for two workloads measured back to back.

    Alternating the workloads within each round keeps slow drifts in
    machine load (CPU contention, allocator state) from landing entirely
    on one side, and averaging ``inner`` consecutive calls damps per-call
    jitter before the min is taken.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(inner):
            fn_a()
        best_a = min(best_a, (time.perf_counter() - start) / inner)
        start = time.perf_counter()
        for _ in range(inner):
            fn_b()
        best_b = min(best_b, (time.perf_counter() - start) / inner)
    return best_a, best_b


def test_bench_train():
    rng = np.random.default_rng(0)
    images = rng.standard_normal((BATCH_SIZE, 3, 16, 16)).astype(np.float32)
    labels = rng.integers(0, 10, BATCH_SIZE)
    rows = {}
    for name in BENCH_MODELS:
        first_step_s = float("inf")
        for _ in range(FIRST_STEPS):
            model = build_model(name, rng=np.random.default_rng(3))
            loss_fn = CrossEntropyLoss()
            optimizer = SGD(
                model.parameters(), lr=0.01, momentum=0.9, weight_decay=1e-4
            )
            engine = TrainEngine(model, loss_fn, optimizer)
            start = time.perf_counter()
            engine.step(images, labels)  # traces, validates and applies the plan
            first_step_s = min(first_step_s, time.perf_counter() - start)
            assert engine.compiled_for(images, labels), f"{name} fell back to the tape"

        def tape_step():
            model.train()
            loss = loss_fn(model(Tensor(images)), labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        tape_s, engine_s = _interleaved(
            tape_step, lambda: engine.step(images, labels)
        )
        rows[name] = {
            "tape_s": round(tape_s, 4),
            "engine_s": round(engine_s, 4),
            "speedup": round(tape_s / engine_s, 3),
            "steps_per_s": round(1.0 / engine_s, 2),
            "first_step_s": round(first_step_s, 4),
        }

    best = max(row["speedup"] for row in rows.values())
    report = {
        "host": fingerprint(),
        "batch_size": BATCH_SIZE,
        "input_shape": [3, 16, 16],
        "rounds": ROUNDS,
        "inner": INNER,
        "models": rows,
        "best_speedup": best,
    }
    (REPO_ROOT / "BENCH_train.json").write_text(json.dumps(report, indent=2) + "\n")
    print()
    for name, row in rows.items():
        print(
            f"BENCH_train: {name} tape {row['tape_s']:.3f}s/step, "
            f"compiled {row['engine_s']:.3f}s/step, speedup {row['speedup']:.2f}x, "
            f"first step {row['first_step_s']:.3f}s"
        )

    assert best >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x on at least one model, best {best:.2f}x"
    )
