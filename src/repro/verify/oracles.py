"""Differential oracles: two routes to the same answer must agree.

Unlike the invariants (facts about one object), each oracle computes a
quantity twice through independent code paths and compares:

- masked forward ≡ forward of a model with the masks baked into the
  weights (the mask buffer is bookkeeping, not semantics);
- save → load round-trips are bit-exact, dtypes included (the cache
  returns what was put in);
- a fixed-seed (re)train is deterministic (repetitions differ because of
  seeds, never because of hidden state);
- ``jobs=1`` and ``jobs=N`` zoo builds produce identical artifacts (the
  parallel engine is an execution detail, not part of the experiment).
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.nn.module import Module
from repro.verify.invariants import mask_pairs
from repro.verify.report import VerificationReport


def state_mismatches(
    a: Mapping[str, np.ndarray], b: Mapping[str, np.ndarray]
) -> list[str]:
    """Keys on which two state dicts differ (missing, dtype, shape, or value)."""
    bad = sorted(set(a) ^ set(b))
    for key in sorted(set(a) & set(b)):
        left, right = np.asarray(a[key]), np.asarray(b[key])
        if (
            left.dtype != right.dtype
            or left.shape != right.shape
            or not np.array_equal(left, right)
        ):
            bad.append(key)
    return bad


def _forward(model: Module, inputs: np.ndarray) -> np.ndarray:
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return model(Tensor(inputs)).data.copy()
    finally:
        model.train(was_training)


def oracle_masked_forward(
    model: Module,
    inputs: np.ndarray,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Pruned-model forward ≡ dense forward with masks baked into weights.

    The baked model has every weight pre-multiplied by its mask and the
    mask reset to all-ones, so its forward multiplies by all-ones masks.
    Both paths multiply by 0.0/1.0 floats, so agreement is exact.
    """
    report = report if report is not None else VerificationReport(subject="model")
    masked_out = _forward(model, inputs)
    state = model.state_dict()
    baked = dict(state)
    for prefix, weight, mask in mask_pairs(state):
        weight_key = f"{prefix}.weight" if prefix != "<root>" else "weight"
        baked[weight_key] = weight * mask
        baked[f"{weight_key}_mask"] = np.ones_like(mask)
    try:
        model.load_state_dict(baked)
        baked_out = _forward(model, inputs)
    finally:
        model.load_state_dict(state)
    equal = np.array_equal(masked_out, baked_out)
    drift = 0.0 if equal else float(np.abs(masked_out - baked_out).max())
    report.add(
        "masked_forward_equivalence",
        equal,
        detail="" if equal else f"masked vs baked forward differ by {drift:.3e}",
        context={"max_abs_diff": drift},
    )
    return report


def oracle_plan_parity(
    model: Module,
    inputs: np.ndarray,
    report: VerificationReport | None = None,
    atol: float = 1e-5,
) -> VerificationReport:
    """Compiled inference-plan logits ≡ eval-mode ``Module`` logits.

    Two differential checks against the module forward:

    - ``plan_parity_unfolded`` — a reference plan (no BatchNorm folding,
      module-exact conv route, no in-place rewrites) must agree within
      ``atol`` max-abs-diff — empirically it is bit-exact;
    - ``plan_parity_folded`` — the production engine (BN folded, masked
      weights densified) must agree within ``atol + 1e-5·max(1, ‖logits‖∞)``:
      folding perturbs weights before the conv reduction, so its rounding
      rides on the largest co-activation.  This check also fails if the
      engine silently fell back to the module path instead of compiling.
    """
    from repro.infer import CompiledPlan, CompileError, InferenceEngine, TraceError, trace

    report = report if report is not None else VerificationReport(subject="model")
    inputs = np.asarray(inputs, dtype=np.float32)
    want = _forward(model, inputs)
    scale = float(np.abs(want).max())
    try:
        graph = trace(model, inputs)
        plan = CompiledPlan(graph, exact=True)
        plan.refresh(model)
        diff = float(np.abs(plan.run(inputs) - want).max())
        report.add(
            "plan_parity_unfolded",
            diff <= atol,
            detail="" if diff <= atol else f"unfolded plan differs by {diff:.3e}",
            context={"max_abs_diff": diff, "atol": atol},
        )
    except (TraceError, CompileError) as exc:
        report.add("plan_parity_unfolded", False, detail=f"plan compilation failed: {exc!r}")
        return report
    engine = InferenceEngine(model, batch_size=len(inputs))
    folded = engine.logits(inputs)
    compiled = engine.compiled_for(inputs)
    bound = atol + 1e-5 * max(1.0, scale)
    diff = float(np.abs(folded - want).max())
    ok = compiled and diff <= bound
    report.add(
        "plan_parity_folded",
        ok,
        detail=""
        if ok
        else ("engine fell back to module forward" if not compiled
              else f"folded engine differs by {diff:.3e} (bound {bound:.3e})"),
        context={"max_abs_diff": diff, "bound": bound, "compiled": compiled},
    )
    return report


def _registry_probes(batch: int, with_targets: bool = False):
    """Yield ``(subject, model, inputs, targets)`` for every registry model.

    Each architecture is built at its registry default width and yielded
    three times:

    - ``[unpruned]``, fresh;
    - ``[pruned]``, after zeroing the bottom half of every prunable
      layer's weights (median-|w| masks) — the state the study loops
      evaluate and retrain in;
    - ``[channel-pruned]``, with only the lowest-ℓ1 half of the input
      channels of every conv with ≥ 4 input channels masked (FT's
      scoring), so whole channels are dead and the eval plan's live-width
      pass narrows them.

    ``targets`` (drawn only ``with_targets``, so the input stream is the
    same either way) are class labels, dense for the segmentation model.
    """
    from repro.models.registry import available_models, build_model
    from repro.nn.prunable import PrunableWeightMixin
    from repro.pruning.ft import channel_l1_sensitivity
    from repro.pruning.mask import structured_prunable_layers

    rng = np.random.default_rng(0)
    for name in available_models():
        model = build_model(name, rng=np.random.default_rng(3))
        shape = (batch, 3, 4, 4) if name == "mlp" else (batch, 3, 16, 16)
        inputs = rng.standard_normal(shape).astype(np.float32)
        targets = None
        if with_targets:
            if name == "deeplab_small":  # dense labels, 6 classes
                targets = rng.integers(0, 6, (batch, 16, 16))
            else:
                targets = rng.integers(0, 10, batch)
        yield f"{name}[unpruned]", model, inputs, targets
        for module in model.modules():
            if isinstance(module, PrunableWeightMixin):
                weight = module.weight.data
                cut = np.median(np.abs(weight))
                module.set_weight_mask((np.abs(weight) > cut).astype(np.float32))
        yield f"{name}[pruned]", model, inputs, targets
        model = build_model(name, rng=np.random.default_rng(3))
        for _, conv in structured_prunable_layers(model):
            score = channel_l1_sensitivity(conv.weight.data)
            dead = np.argsort(score, kind="stable")[: len(score) // 2]
            mask = np.ones(conv.weight.shape, dtype=np.float32)
            mask[:, dead] = 0.0
            conv.set_weight_mask(mask)
        yield f"{name}[channel-pruned]", model, inputs, targets


def oracle_registry_plan_parity(
    batch: int = 4, atol: float = 1e-5
) -> VerificationReport:
    """Plan-vs-module parity for every registry model: unpruned, pruned and
    channel-pruned (see :func:`_registry_probes`)."""
    reports: list[VerificationReport] = []
    for subject, model, inputs, _ in _registry_probes(batch):
        sub = VerificationReport(subject=subject)
        try:
            oracle_plan_parity(model, inputs, report=sub, atol=atol)
        except Exception as exc:  # noqa: BLE001 — one broken entry
            # (e.g. a leaked custom registration that cannot run the
            # probe shape) must not abort the whole registry audit.
            sub.add("plan_parity", False, detail=f"probe crashed: {exc!r}")
        reports.append(sub)
    from repro.verify.report import merge_reports

    return merge_reports("registry plan parity", reports)


def oracle_grad_plan_parity(
    model: Module,
    inputs: np.ndarray,
    targets: np.ndarray,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Compiled training-step gradients ≡ tape gradients.

    Two differential checks against one side-effect-free, untraced tape
    step on the probe batch:

    - ``grad_plan_parity_exact`` — a plan built with the tape-replicating
      kernel table must agree **bitwise** on loss, logits, and every
      parameter gradient.  This proves the static backward derivation
      (wiring, accumulation, tuple projections) reproduces autograd, not
      merely approximates it.
    - ``grad_plan_parity_fast`` — the production fast plan (fused
      conv→BN→ReLU, shared scratch, reordered conv accumulation) must pass
      the engine's compile-time validation: loss/logits/running-stats
      within the scale-aware tolerance and every gradient within it or the
      relative-ℓ2 budget that absorbs borderline ReLU-gate flips.  This
      also fails if the engine would silently fall back to the tape.
    """
    from repro.infer import CompileError, GradPlan, TraceError, TrainEngine, trace_training
    from repro.nn.losses import CrossEntropyLoss
    from repro.optim import SGD

    report = report if report is not None else VerificationReport(subject="model")
    x = np.asarray(inputs, dtype=np.float32)
    y = np.asarray(targets)
    engine = TrainEngine(model, CrossEntropyLoss(), SGD(model.parameters(), lr=0.1))
    reference = engine._tape_reference(x, y)
    want_loss, want_logits, want_grads, _ = reference
    try:
        graph = trace_training(model, engine.loss_fn, x, y)
        plan = GradPlan(graph, model, exact=True)
        loss, logits, grads, _ = plan.run(x, y)
        bad = []
        if float(loss) != want_loss:
            bad.append(f"loss {float(loss)} vs {want_loss}")
        if not np.array_equal(logits, want_logits):
            bad.append("logits")
        for name, want in want_grads.items():
            got = grads.get(name)
            if (got is None) != (want is None) or (
                want is not None and not np.array_equal(got, want)
            ):
                bad.append(name)
        report.add(
            "grad_plan_parity_exact",
            not bad,
            detail=f"exact plan diverges from tape on {bad[:5]}" if bad else "",
            context={"mismatched": bad},
        )
    except (TraceError, CompileError) as exc:
        report.add(
            "grad_plan_parity_exact", False, detail=f"plan compilation failed: {exc!r}"
        )
        return report
    try:
        fast = GradPlan(graph, model, exact=False)
        engine._validate(fast, fast.run(x, y), reference)
        report.add("grad_plan_parity_fast", True)
    except CompileError as exc:
        report.add(
            "grad_plan_parity_fast", False, detail=f"fast plan out of tolerance: {exc!r}"
        )
    return report


def oracle_registry_grad_plan_parity(batch: int = 4) -> VerificationReport:
    """Gradient-plan-vs-tape parity for every registry model and probe state.

    The training-path twin of :func:`oracle_registry_plan_parity`, over
    the same probes — so the compiled default of ``Trainer.train`` is
    proven against the tape for the whole model zoo.
    """
    reports: list[VerificationReport] = []
    for subject, model, inputs, targets in _registry_probes(batch, with_targets=True):
        sub = VerificationReport(subject=subject)
        try:
            oracle_grad_plan_parity(model, inputs, targets, report=sub)
        except Exception as exc:  # noqa: BLE001 — one broken entry
            # must not abort the whole registry audit.
            sub.add("grad_plan_parity", False, detail=f"probe crashed: {exc!r}")
        reports.append(sub)
    from repro.verify.report import merge_reports

    return merge_reports("registry grad-plan parity", reports)


def oracle_save_load_roundtrip(
    arrays: Mapping[str, np.ndarray],
    meta: Mapping[str, Any] | None = None,
    path: str | Path | None = None,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """``save_state`` → ``load_state`` returns exactly what went in."""
    from repro.utils.serialization import load_state, save_state

    report = report if report is not None else VerificationReport(subject="state")
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(path) if path is not None else Path(tmp) / "roundtrip.npz"
        save_state(target, arrays, meta)
        loaded, loaded_meta = load_state(target)
    bad = state_mismatches(arrays, loaded)
    report.add(
        "save_load_array_roundtrip",
        not bad,
        detail=f"arrays changed across roundtrip: {bad[:5]}" if bad else "",
        context={"mismatched_keys": bad},
    )
    if meta is not None:
        report.add(
            "save_load_meta_roundtrip",
            loaded_meta == dict(meta),
            context={"meta": loaded_meta},
        )
    return report


def oracle_retrain_determinism(
    trainer_factory: Callable[[], Any],
    epochs: int | None = None,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """Two trainings from identical (model, config, seed) end bit-identical.

    ``trainer_factory`` must build a *fresh* trainer each call — same
    initial weights, same ``TrainConfig`` seed.  Divergence means hidden
    state leaks into training (unseeded RNG, accumulation-order change),
    which would silently break repetition error bars and cache reuse.
    """
    report = report if report is not None else VerificationReport(subject="trainer")
    states = []
    for _ in range(2):
        trainer = trainer_factory()
        trainer.train(epochs)
        states.append(trainer.model.state_dict())
    bad = state_mismatches(states[0], states[1])
    report.add(
        "fixed_seed_retrain_determinism",
        not bad,
        detail=f"weights diverged on keys {bad[:5]}" if bad else "",
        context={"mismatched_keys": bad},
    )
    return report


@contextmanager
def _cache_dir_override(path: Path):
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(path)
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old


def oracle_jobs_equivalence(
    specs: Sequence[Any],
    scale: Any,
    jobs: int = 2,
    report: VerificationReport | None = None,
) -> VerificationReport:
    """``build_zoo(jobs=1)`` and ``build_zoo(jobs=N)`` make identical artifacts.

    Builds the same spec list twice into throwaway cache directories — one
    serial, one through :mod:`repro.parallel` — and compares every artifact
    array-for-array.  This is the worker-count-independence contract of
    PR 1 stated as an executable check.
    """
    from repro.experiments.zoo import artifact_path, build_zoo, parent_specs
    from repro.utils.serialization import load_state

    report = report if report is not None else VerificationReport(subject="zoo")
    with tempfile.TemporaryDirectory() as tmp:
        serial_dir, parallel_dir = Path(tmp) / "serial", Path(tmp) / "parallel"
        with _cache_dir_override(serial_dir):
            build_zoo(specs, scale, jobs=1)
            serial_paths = {
                spec: artifact_path(spec, scale)
                for spec in [*parent_specs(specs), *specs]
            }
            serial = {
                spec: load_state(path) for spec, path in serial_paths.items()
            }
        with _cache_dir_override(parallel_dir):
            build_zoo(specs, scale, jobs=jobs)
            for spec in serial:
                loaded = load_state(artifact_path(spec, scale))
                bad = state_mismatches(serial[spec][0], loaded[0])
                meta_equal = serial[spec][1] == loaded[1]
                report.add(
                    f"jobs_equivalence[{spec.key(scale)}]",
                    not bad and meta_equal,
                    detail=(
                        f"serial vs jobs={jobs} artifacts differ: "
                        f"{bad[:5] or 'metadata'}"
                        if bad or not meta_equal
                        else ""
                    ),
                    context={"mismatched_keys": bad},
                )
    return report
