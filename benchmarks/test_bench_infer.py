"""Compiled inference vs plain Module forward: speedup, BENCH_infer.json.

Times eval-mode logits for the paper's deep CIFAR models (random weights,
half their prunable parameters masked — the state every study loop
evaluates in) through the plain ``Module`` forward and through the
:mod:`repro.infer` engine, then

- emits ``BENCH_infer.json`` at the repo root with per-model wall clocks
  and speedups,
- asserts the engine reaches the >= 2x speedup target on at least one
  model (per-model factors vary with BLAS/core count; the deep ResNets
  and DenseNet are the reliable winners).

Its ``fr_vs_speed`` rows set the paper's FLOP-reduction axis (FR, from
``repro.nn.flops.flop_reduction``) against measured speed: resnet56 and
vgg16 pruned by ft, lowrank and wt at three ratios, each timed through
the engine against the same model's unpruned parent.  Structured masks
kill whole input channels, which the eval plans compile out; unstructured
ones leave every GEMM at full width.  The only assertion is that ft@0.85
beats its parent on both models.  ``host`` records what the numbers
depend on (CPU count, BLAS, thread pins).

    PYTHONPATH=src:. python -m pytest -q -s benchmarks/test_bench_infer.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.suite.host import fingerprint
from repro.infer import InferenceEngine
from repro.models.registry import build_model
from repro.nn.flops import flop_reduction
from repro.nn.prunable import PrunableWeightMixin
from repro.pruning import build_method
from tests.infer.test_engine import assert_parity, module_logits

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEEDUP_TARGET = 2.0
BENCH_MODELS = ("resnet56", "resnet110", "densenet22")
N_IMAGES = 256
BATCH_SIZE = 256
REPEATS = 3
FR_MODELS = ("resnet56", "vgg16")
FR_METHODS = ("ft", "lowrank", "wt")
FR_RATIOS = (0.3, 0.6, 0.85)


def _prune_half(model):
    for module in model.modules():
        if isinstance(module, PrunableWeightMixin):
            weight = module.weight.data
            cut = np.median(np.abs(weight))
            module.set_weight_mask((np.abs(weight) > cut).astype(np.float32))


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _engine_s(model, images):
    """Best-of wall clock of the compiled engine, after a parity check."""
    engine = InferenceEngine(model, batch_size=BATCH_SIZE)
    got = engine.logits(images)  # warm-up: traces + compiles the plan
    assert engine.compiled_for(images), "engine fell back to module forward"
    assert_parity(got, module_logits(model, images))
    return _best_of(lambda: engine.logits(images))


def _fr_vs_speed(images):
    """FR next to measured engine speedup over the unpruned parent."""
    input_shape = images.shape[1:]
    table = {}
    for name in FR_MODELS:
        parent = build_model(name, rng=np.random.default_rng(3))
        parent_s = _engine_s(parent, images)
        rows = []
        for method in FR_METHODS:
            for ratio in FR_RATIOS:
                model = build_model(name, rng=np.random.default_rng(3))
                build_method(method).prune(model, ratio)
                engine_s = _engine_s(model, images)
                rows.append({
                    "method": method,
                    "ratio": ratio,
                    "fr": round(flop_reduction(model, parent, input_shape), 4),
                    "engine_s": round(engine_s, 4),
                    "speedup": round(parent_s / engine_s, 3),
                })
        table[name] = {"parent_s": round(parent_s, 4), "rows": rows}
    return table


def test_bench_infer():
    rng = np.random.default_rng(0)
    images = rng.standard_normal((N_IMAGES, 3, 16, 16)).astype(np.float32)
    rows = {}
    for name in BENCH_MODELS:
        model = build_model(name, rng=np.random.default_rng(3))
        _prune_half(model)
        engine_s = _engine_s(model, images)
        module_s = _best_of(lambda: module_logits(model, images))
        rows[name] = {
            "module_s": round(module_s, 4),
            "engine_s": round(engine_s, 4),
            "speedup": round(module_s / engine_s, 3),
            "images_per_s": round(N_IMAGES / engine_s, 1),
        }

    best = max(row["speedup"] for row in rows.values())
    fr_table = _fr_vs_speed(images)
    report = {
        "host": fingerprint(),
        "n_images": N_IMAGES,
        "batch_size": BATCH_SIZE,
        "input_shape": [3, 16, 16],
        "pruned": True,
        "repeats": REPEATS,
        "models": rows,
        "best_speedup": best,
        "fr_vs_speed": fr_table,
    }
    (REPO_ROOT / "BENCH_infer.json").write_text(json.dumps(report, indent=2) + "\n")
    print()
    for name, row in rows.items():
        print(
            f"BENCH_infer: {name} module {row['module_s']:.3f}s, "
            f"engine {row['engine_s']:.3f}s, speedup {row['speedup']:.2f}x"
        )
    for name, entry in fr_table.items():
        for row in entry["rows"]:
            print(
                f"BENCH_infer: {name} {row['method']}@{row['ratio']} "
                f"FR {row['fr']:.3f}, speedup over parent {row['speedup']:.2f}x"
            )

    assert best >= SPEEDUP_TARGET, (
        f"expected >= {SPEEDUP_TARGET}x on at least one model, best {best:.2f}x"
    )
    for name, entry in fr_table.items():
        (ft,) = [r for r in entry["rows"] if (r["method"], r["ratio"]) == ("ft", 0.85)]
        assert ft["speedup"] > 1.0, f"{name} ft@0.85 is not faster than its parent"
