"""Safety invariants of the shared plan schedule, on every registry model.

Output parity alone cannot see a free that happens to land after the
last real read, or an in-place write that happens not to corrupt this
probe.  These tests walk each fast plan's step list symbolically and
check the schedule itself, then check that a run — also one that raises
mid-way — leaves no runtime array behind in the slot table.
"""

import numpy as np
import pytest

from repro.infer import CompiledPlan, GradPlan, trace, trace_training
from repro.infer.plan import _VIEW_OPS
from repro.models.registry import available_models, build_model
from repro.nn.losses import CrossEntropyLoss


def _probe(name):
    rng = np.random.default_rng(0)
    shape = (4, 3, 4, 4) if name == "mlp" else (4, 3, 16, 16)
    x = rng.standard_normal(shape).astype(np.float32)
    y = rng.integers(0, 6, (4, 16, 16)) if name == "deeplab_small" else rng.integers(0, 10, 4)
    return x, y


def _eval_plan(name):
    model = build_model(name, rng=np.random.default_rng(3))
    x, _ = _probe(name)
    plan = CompiledPlan(trace(model, x))
    plan.refresh(model)
    return plan, (x,), {plan._output}, set(plan._const_order)


def _grad_plan(name):
    model = build_model(name, rng=np.random.default_rng(3))
    x, y = _probe(name)
    plan = GradPlan(trace_training(model, CrossEntropyLoss(), x, y), model)
    keep = {plan._loss, plan._logits, *plan._grad_index.values()}
    for upd in plan.bn_updates:
        keep.update((upd["mean"], upd["var"]))
    # "value" leaves (constants, the backward seed) are preset for life.
    resident = {i for i, n in enumerate(plan._nodes) if n.op == "value"}
    return plan, (x, y), keep, resident


BUILDERS = {"eval": _eval_plan, "grad": _grad_plan}


@pytest.fixture(params=[(k, n) for k in BUILDERS for n in available_models()],
                ids=lambda p: f"{p[0]}-{p[1]}")
def fast_plan(request):
    kind, name = request.param
    return BUILDERS[kind](name)


def _assert_no_runtime_arrays(plan, resident):
    held = [
        i for i, value in enumerate(plan._slots)
        if value is not None and i not in resident
    ]
    assert held == [], f"slots still bound after run: {held[:10]}"


class TestScheduleInvariants:
    def test_no_read_after_free(self, fast_plan):
        plan = fast_plan[0]
        freed: set[int] = set()
        for _, inputs, out, _, frees, _, _ in plan._steps:
            stale = freed.intersection(inputs)
            assert not stale, f"step {out} reads freed slots {sorted(stale)}"
            assert out not in freed
            freed.update(frees)

    def test_inplace_never_writes_a_view_or_a_leaf(self, fast_plan):
        plan = fast_plan[0]
        produced = {step[2] for step in plan._steps}
        aliased: set[int] = set()
        for _, inputs, out, _, _, _, _ in plan._steps:
            if plan._nodes[out].op in _VIEW_OPS:
                aliased.add(out)
                aliased.update(inputs)
        for _, inputs, out, _, frees, iop, ipos in plan._steps:
            if iop is None:
                continue
            target = inputs[ipos]
            assert target not in aliased, f"step {out} writes view slot {target}"
            # Only a buffer this plan produced, dying at this very step.
            assert target in produced and target in frees

    def test_keep_values_never_freed(self, fast_plan):
        plan, _, keep, _ = fast_plan
        freed = {j for step in plan._steps for j in step[4]}
        assert not keep & freed

    def test_run_clears_runtime_slots(self, fast_plan):
        plan, args, _, resident = fast_plan
        plan.run(*args)
        _assert_no_runtime_arrays(plan, resident)

    def test_raising_kernel_clears_runtime_slots(self, fast_plan):
        plan, args, _, resident = fast_plan

        def boom(args, params):
            raise RuntimeError("injected kernel failure")

        k = len(plan._steps) // 2
        _, inputs, out, params, frees, _, _ = plan._steps[k]
        plan._steps[k] = (boom, inputs, out, params, frees, None, None)
        with pytest.raises(RuntimeError, match="injected"):
            plan.run(*args)
        _assert_no_runtime_arrays(plan, resident)
