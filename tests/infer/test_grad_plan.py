"""Compiled gradient plans: tape parity, fused-kernel gradients, registry smoke."""

import gc
import weakref

import numpy as np
import pytest

from repro import nn
from repro.infer import GradPlan, TrainEngine, trace_training
from repro.infer.grad import _k_conv_bn_relu, _k_conv_bn_relu_bwd
from repro.models.registry import available_models, build_model
from repro.nn.losses import CrossEntropyLoss
from repro.nn.prunable import PrunableWeightMixin
from repro.optim import SGD
from repro.pruning import build_method
from repro.verify import oracle_grad_plan_parity
from repro.verify.oracles import _registry_probes

from tests.conftest import make_tiny_cnn


@pytest.fixture
def batch(rng):
    x = rng.standard_normal((8, 3, 8, 8)).astype(np.float32)
    y = rng.integers(0, 4, 8)
    return x, y


def prune_half(model):
    for module in model.modules():
        if isinstance(module, PrunableWeightMixin):
            weight = module.weight.data
            cut = np.median(np.abs(weight))
            module.set_weight_mask((np.abs(weight) > cut).astype(np.float32))


class TestGradPlanParity:
    """The oracle twins: exact plans bitwise, fast plans within tolerance."""

    def test_tiny_cnn(self, batch):
        model = make_tiny_cnn()
        report = oracle_grad_plan_parity(model, *batch)
        assert report.passed, report.summary()

    def test_tiny_cnn_pruned(self, batch):
        model = make_tiny_cnn()
        prune_half(model)
        report = oracle_grad_plan_parity(model, *batch)
        assert report.passed, report.summary()

    def test_exact_plan_gradients_bitwise(self, batch):
        """Direct restatement of the exact half of the oracle: every grad
        out of the exact plan is the tape's array, bit for bit."""
        from repro.autograd.tensor import Tensor

        x, y = batch
        model = make_tiny_cnn()
        loss_fn = CrossEntropyLoss()
        model.train()
        logits = model(Tensor(x))
        loss = loss_fn(logits, y)
        loss.backward()
        want = {name: p.grad.copy() for name, p in model.named_parameters()}
        for _, p in model.named_parameters():
            p.grad = None
        plan = GradPlan(trace_training(model, loss_fn, x, y), model, exact=True)
        plan_loss, plan_logits, grads, _ = plan.run(x, y)
        assert float(plan_loss) == float(loss.data)
        np.testing.assert_array_equal(plan_logits, logits.data)
        assert set(grads) == set(want)
        for name in want:
            np.testing.assert_array_equal(grads[name], want[name], err_msg=name)

    def test_conv_backward_reuses_forward_columns(self, batch, monkeypatch):
        """One im2col per conv per step, on the tape and in an exact plan:
        the weight gradient reads the columns its forward kept."""
        from repro.autograd import table
        from repro.autograd.tensor import Tensor

        x, y = batch
        model = make_tiny_cnn()
        loss_fn = CrossEntropyLoss()
        plan = GradPlan(trace_training(model, loss_fn, x, y), model, exact=True)
        n_convs = sum(isinstance(m, nn.Conv2d) for m in model.modules())
        calls = []
        im2col = table._im2col
        monkeypatch.setattr(
            table, "_im2col", lambda *args: calls.append(1) or im2col(*args)
        )
        model.train()
        loss_fn(model(Tensor(x)), y).backward()
        assert len(calls) == n_convs
        calls.clear()
        plan.run(x, y)
        assert len(calls) == n_convs

    def test_plan_is_repeatable(self, batch):
        """Scratch/in-place buffer reuse must not leak state across runs."""
        x, y = batch
        model = make_tiny_cnn()
        plan = GradPlan(
            trace_training(model, CrossEntropyLoss(), x, y), model, exact=False
        )
        first = plan.run(x, y)
        second = plan.run(x, y)
        assert float(first[0]) == float(second[0])
        for name, grad in first[2].items():
            np.testing.assert_array_equal(grad, second[2][name], err_msg=name)


class TestFusedConvBnReluGradients:
    """Finite-difference gradcheck of the fused forward/backward pair.

    The fused kernels never see the autograd tape, so the generic
    ``gradcheck`` machinery cannot reach them; this drives them directly
    in float64 against central differences.
    """

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.x = rng.standard_normal((2, 2, 4, 4))
        self.w = rng.standard_normal((3, 2, 3, 3)) * 0.5
        self.gamma = rng.uniform(0.5, 1.5, 3)
        self.beta = rng.standard_normal(3) * 0.1
        self.params = {
            "stride": 1,
            "padding": 1,
            "eps": 1e-5,
            "ndim": 4,
            "n_conv_args": 2,
            "has_bias": False,
            "need_gx": True,
            "wshape": self.w.shape,
            "xshape": self.x.shape,
        }

    def _loss(self):
        out = _k_conv_bn_relu(
            (self.x, self.w, self.gamma, self.beta), dict(self.params)
        )
        return float(out[0].sum())

    def _fd(self, array, eps=1e-6):
        grad = np.zeros_like(array)
        flat, gflat = array.ravel(), grad.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = self._loss()
            flat[j] = orig - eps
            lo = self._loss()
            flat[j] = orig
            gflat[j] = (hi - lo) / (2 * eps)
        return grad

    def test_against_finite_differences(self):
        params = dict(self.params)
        tup = _k_conv_bn_relu((self.x, self.w, self.gamma, self.beta), params)
        g = np.ones_like(tup[0])
        gx, gw, gb, ggamma, gbeta = _k_conv_bn_relu_bwd(
            (g, tup, self.x, self.w, self.gamma), params
        )
        assert gb is None  # bias-free conv, as under BatchNorm
        for name, analytic, array in (
            ("gx", gx, self.x),
            ("gw", gw, self.w),
            ("ggamma", ggamma, self.gamma),
            ("gbeta", gbeta, self.beta),
        ):
            numeric = self._fd(array)
            np.testing.assert_allclose(
                analytic, numeric, atol=1e-5, rtol=1e-4, err_msg=name
            )


@pytest.mark.parametrize("name", available_models())
def test_registry_compiled_step_smoke(name, monkeypatch):
    """Tier-1 canary: every registry architecture takes one *compiled*
    training step — compile, validate against the tape, and apply — with
    the environment override pinned on."""
    monkeypatch.setenv("REPRO_TRAINC", "1")
    model = build_model(name, rng=np.random.default_rng(3))
    rng = np.random.default_rng(0)
    shape = (4, 3, 4, 4) if name == "mlp" else (4, 3, 16, 16)
    x = rng.standard_normal(shape).astype(np.float32)
    if name == "deeplab_small":
        y = rng.integers(0, 6, (4, 16, 16))
    else:
        y = rng.integers(0, 10, 4)
    before = {k: v.copy() for k, v in model.state_dict().items()}
    engine = TrainEngine(
        model, CrossEntropyLoss(), SGD(model.parameters(), lr=0.05, momentum=0.9)
    )
    loss, logits = engine.step(x, y)
    assert engine.compiled_for(x, y), f"{name} fell back to the tape"
    assert np.isfinite(loss) and np.all(np.isfinite(logits))
    changed = any(
        not np.array_equal(before[k], v)
        for k, v in model.state_dict().items()
    )
    assert changed, "compiled step left the model untouched"


def test_tape_reference_leaves_no_reference_cycles(batch):
    """The compile-time tape steps free their graphs: the untraced reference
    and the step ``trace_training`` records both let their activations die
    with the call instead of waiting for the cyclic garbage collector."""
    rng = np.random.default_rng(0)
    x16 = rng.standard_normal((4, 3, 16, 16)).astype(np.float32)
    y16 = rng.integers(0, 10, 4)
    subjects = [(make_tiny_cnn(), *batch)] + [
        (build_model(name, rng=np.random.default_rng(3)), x16, y16)
        for name in ("resnet20", "vgg16", "densenet22", "wrn16_8")
    ]
    gc.collect()
    gc.disable()
    try:
        for model, x, y in subjects:
            loss_fn = CrossEntropyLoss()
            engine = TrainEngine(model, loss_fn, SGD(model.parameters(), lr=0.1))
            engine._tape_reference(x, y)
            assert gc.collect() == 0
            trace_training(model, loss_fn, x, y)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_tape_fallback_step_frees_its_tape(batch, monkeypatch):
    """A step on the tape fallback lets its graph die with the call: the
    loss it computed is gone once ``step`` returns, without the cyclic
    garbage collector."""
    monkeypatch.setenv("REPRO_TRAINC", "0")
    x, y = batch
    model = make_tiny_cnn()
    losses = []

    def loss_fn(logits, targets):
        loss = CrossEntropyLoss()(logits, targets)
        losses.append(weakref.ref(loss.data))
        return loss

    engine = TrainEngine(model, loss_fn, SGD(model.parameters(), lr=0.1))
    gc.collect()
    gc.disable()
    try:
        engine.step(x, y)
        assert not engine.compiled_for(x, y)
        assert losses[0]() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_traced_step_is_the_tape_step():
    """Compiles validate their plan against the step ``trace_training``
    records, so that step must be the one the plain forward takes: a
    tracer wrapper that calls an op differently (a re-declared default,
    say) would otherwise pass its own check.  Every registry probe holds
    the recorded step bitwise to an untraced tape step."""
    checked, bad = 0, []
    for subject, model, x, y in _registry_probes(4, with_targets=True):
        loss_fn = CrossEntropyLoss()
        engine = TrainEngine(model, loss_fn, SGD(model.parameters(), lr=0.1))
        want_loss, want_logits, want_grads, want_buffers = engine._tape_reference(x, y)
        graph = trace_training(model, loss_fn, x, y)
        checked += 1
        if not np.array_equal(graph.sample_loss, want_loss):
            bad.append(f"{subject} loss")
        if not np.array_equal(graph.sample_logits, want_logits):
            bad.append(f"{subject} logits")
        if set(graph.sample_grads) != set(want_grads):
            bad.append(f"{subject} gradient names")
        for name, want in want_grads.items():
            got = graph.sample_grads.get(name)
            if (got is None) != (want is None) or (
                want is not None and not np.array_equal(got, want)
            ):
                bad.append(f"{subject} gradient {name}")
        stat_names = {
            name
            for upd in graph.bn_updates
            for name in (upd["running_mean"], upd["running_var"])
        }
        if set(graph.sample_buffers) != stat_names:
            bad.append(f"{subject} running-stat names")
        for name in stat_names:
            if not np.array_equal(graph.sample_buffers.get(name), want_buffers[name]):
                bad.append(f"{subject} running stat {name}")
    assert checked == 3 * len(available_models())
    assert not bad, bad


def test_first_step_runs_the_plan_and_the_model_once(batch, monkeypatch):
    """A new shape's first step is the step its compile validated: one
    plan run and one (traced) forward.  Later steps run the plan alone."""
    x, y = batch
    model = make_tiny_cnn()
    engine = TrainEngine(model, CrossEntropyLoss(), SGD(model.parameters(), lr=0.1))
    calls = {"run": 0, "forward": 0}
    plan_run, forward = GradPlan.run, model.forward

    def counted_run(plan, *args):
        calls["run"] += 1
        return plan_run(plan, *args)

    def counted_forward(*args):
        calls["forward"] += 1
        return forward(*args)

    monkeypatch.setattr(GradPlan, "run", counted_run)
    monkeypatch.setattr(model, "forward", counted_forward)

    def step_calls(x, y):
        calls.update(run=0, forward=0)
        engine.step(x, y)
        assert engine.compiled_for(x, y)
        return calls["run"], calls["forward"]

    assert step_calls(x, y) == (1, 1)
    assert step_calls(x, y) == (1, 0)
    assert step_calls(x[:4], y[:4]) == (1, 1)
    assert step_calls(x[:4], y[:4]) == (1, 0)


def test_failed_validation_falls_back_to_the_tape(batch, monkeypatch):
    """A plan that disagrees with the traced step never serves: its shape
    falls back to the tape, and the first step is the tape's, on a model
    the failed compile left untouched."""
    x, y = batch
    model, tape_model = make_tiny_cnn(), make_tiny_cnn()
    plan_run = GradPlan.run

    def off_by_one(plan, *args):
        loss, logits, grads, stats = plan_run(plan, *args)
        return loss + 1.0, logits, grads, stats

    monkeypatch.setattr(GradPlan, "run", off_by_one)
    engine = TrainEngine(model, CrossEntropyLoss(), SGD(model.parameters(), lr=0.1))
    loss, logits = engine.step(x, y)
    assert not engine.compiled_for(x, y)
    monkeypatch.setenv("REPRO_TRAINC", "0")
    tape = TrainEngine(
        tape_model, CrossEntropyLoss(), SGD(tape_model.parameters(), lr=0.1)
    )
    tape_loss, tape_logits = tape.step(x, y)
    assert loss == tape_loss
    np.testing.assert_array_equal(logits, tape_logits)
    want = tape_model.state_dict()
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(value, want[name], err_msg=name)


def test_prune_between_steps_keeps_the_plan(batch, monkeypatch):
    """Every layer traces ``weight * mask`` whatever its mask, so a prune
    between training steps changes leaf values, not the graph: the plan
    compiled on the unpruned model keeps serving the retrain, holds the
    masked weights at zero and steps exactly as the tape does."""
    x, y = batch
    builds = []
    plan_init = GradPlan.__init__

    def counted_init(plan, *args, **kwargs):
        builds.append(1)
        plan_init(plan, *args, **kwargs)

    monkeypatch.setattr(GradPlan, "__init__", counted_init)

    def prune_and_retrain(model):
        engine = TrainEngine(
            model, CrossEntropyLoss(),
            SGD(model.parameters(), lr=0.1, momentum=0.9), exact=True,
        )
        engine.step(x, y)
        build_method("wt").prune(model, 0.5)
        engine.optimizer = SGD(model.parameters(), lr=0.1, momentum=0.9)
        for _ in range(3):
            engine.step(x, y)
        return engine

    model = make_tiny_cnn()
    engine = prune_and_retrain(model)
    assert engine.compiled_for(x, y)
    assert len(builds) == 1
    for module in model.modules():
        if isinstance(module, PrunableWeightMixin):
            assert module.num_pruned > 0
            assert module.mask_violations() == 0
    monkeypatch.setenv("REPRO_TRAINC", "0")
    tape_model = make_tiny_cnn()
    prune_and_retrain(tape_model)
    assert len(builds) == 1
    want = tape_model.state_dict()
    for name, value in model.state_dict().items():
        np.testing.assert_array_equal(value, want[name], err_msg=name)
