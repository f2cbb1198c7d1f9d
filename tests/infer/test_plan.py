"""Compiled plans: BN folding numerics, the exact reference mode, bn_affine,
and the fast conv kernel's routes."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import functional as F
from repro.autograd.table import _k_conv2d_exact
from repro.infer import CompiledPlan, trace
from repro.infer.plan import _VIEW_OPS, _conv_per_offset, _k_conv2d
from repro.models.registry import build_model
from repro.pruning import build_method

from tests.conftest import make_tiny_cnn
from tests.infer.test_engine import assert_parity, module_logits


@pytest.fixture
def images(rng):
    return rng.standard_normal((8, 3, 8, 8)).astype(np.float32)


def randomize_bn_stats(model, rng):
    """Non-trivial running stats so folding errors cannot cancel out."""
    for name, buf in model.named_buffers():
        if name.endswith("running_mean"):
            buf[:] = rng.standard_normal(buf.shape).astype(np.float32)
        elif name.endswith("running_var"):
            buf[:] = rng.uniform(0.5, 2.0, buf.shape).astype(np.float32)


class TestBnFolding:
    def test_folds_into_conv_and_matches_module(self, images, rng):
        model = make_tiny_cnn()
        randomize_bn_stats(model, rng)
        plan = CompiledPlan(trace(model, images))
        plan.refresh(model)
        # All three BNs sit directly on a single-consumer conv: folded away.
        assert plan.n_folded == 3
        assert "bn_affine" not in plan.op_counts
        assert_parity(plan.run(images), module_logits(model, images))

    def test_unfoldable_bn_becomes_affine(self, images, rng):
        # BN on the raw input has no conv/linear producer to fold into.
        model = nn.Sequential(
            nn.BatchNorm2d(3),
            nn.Conv2d(3, 4, 3, padding=1, rng=rng),
            nn.ReLU(),
            nn.GlobalAvgPool2d(),
            nn.Linear(4, 2, rng=rng),
        )
        randomize_bn_stats(model, rng)
        plan = CompiledPlan(trace(model, images))
        plan.refresh(model)
        assert plan.n_folded == 0
        assert plan.op_counts.get("bn_affine") == 1
        assert_parity(plan.run(images), module_logits(model, images))


class TestExactMode:
    def test_exact_plan_is_bit_identical_to_module(self, images, rng):
        model = make_tiny_cnn()
        randomize_bn_stats(model, rng)
        plan = CompiledPlan(trace(model, images), exact=True)
        plan.refresh(model)
        np.testing.assert_array_equal(plan.run(images), module_logits(model, images))


def _conv_case(rng, n, c, f, size, k):
    x = rng.standard_normal((n, c, size, size)).astype(np.float32)
    w = rng.standard_normal((f, c, k, k)).astype(np.float32)
    b = rng.standard_normal(f).astype(np.float32)
    return x, w, b


class TestConvKernel:
    """``_k_conv2d``'s two routes against the module-exact reference."""

    SHAPES = [
        (stride, k, size, c, f)
        for stride in (1, 2)
        for k in (1, 3)
        for size in (2, 4, 8, 16)
        for c, f in ((4, 8), (8, 4))
    ]

    def test_shape_grid_takes_both_routes(self):
        routes = set()
        for stride, k, size, c, f in self.SHAPES:
            pad = size + 2 * (k // 2)
            out = (pad - k) // stride + 1
            cols_bytes = c * k * k * 4 * out * out * 4
            routes.add(_conv_per_offset(c, f, pad * pad, out * out, stride, k * k, cols_bytes))
        assert routes == {True, False}

    @pytest.mark.parametrize("stride,k,size,c,f", SHAPES)
    def test_matches_exact_kernel(self, rng, stride, k, size, c, f):
        x, w, b = _conv_case(rng, 4, c, f, size, k)
        params = {"stride": stride, "padding": k // 2}
        want = _k_conv2d_exact([x, w, b], dict(params))
        got = _k_conv2d([x, w, b], params)
        assert got.shape == want.shape
        assert_parity(got, want)
        # The persistent scratch is reused on the next call.
        assert_parity(_k_conv2d([x, w, b], params), want)

    @pytest.mark.parametrize("size", [2, 16])
    def test_no_live_input_channel_gives_the_bias(self, rng, size):
        x, w, b = _conv_case(rng, 4, 6, 5, size, 3)
        params = {"stride": 1, "padding": 1, "gather": np.array([], dtype=np.intp)}
        got = _k_conv2d([x, w[:, :0], b], params)
        np.testing.assert_array_equal(got, np.broadcast_to(b[None, :, None, None], got.shape))

    def test_gather_reads_only_the_live_channels(self, rng):
        x, w, b = _conv_case(rng, 4, 6, 5, 8, 3)
        live = np.array([0, 2, 5])
        dense = np.zeros_like(w)
        dense[:, live] = w[:, live]
        want = _k_conv2d_exact([x, dense, b], {"stride": 1, "padding": 1})
        got = _k_conv2d([x, w[:, live], b], {"stride": 1, "padding": 1, "gather": live})
        assert_parity(got, want)

    @pytest.mark.parametrize("size", [4, 16])
    def test_scratch_follows_a_narrower_weight(self, rng, size):
        # One params dict, as a plan step keeps across refreshes: later
        # calls have fewer output channels, then fewer input channels.
        params = {"stride": 1, "padding": 1}
        for c, f in ((8, 4), (8, 2), (6, 2)):
            x, w, b = _conv_case(rng, 4, c, f, size, 3)
            want = _k_conv2d_exact([x, w, b], {"stride": 1, "padding": 1})
            assert_parity(_k_conv2d([x, w, b], params), want)


class TiedConvs(nn.Module):
    """One weight read by two functional convs in a chain: its constant
    slot has two users, so each narrowed copy must get a slot of its own.
    (Two ``self.conv(x)`` calls would not share it: each call traces its
    own ``weight * mask`` product.)"""

    def __init__(self, rng):
        super().__init__()
        self.conv = nn.Conv2d(6, 6, 3, padding=1, rng=rng)
        self.pool = nn.GlobalAvgPool2d()
        self.fc = nn.Linear(6, 3, rng=rng)

    def forward(self, x):
        for _ in range(2):
            x = F.conv2d(x, self.conv.weight, self.conv.bias, padding=1).relu()
        return self.fc(self.pool(x))


class TestLiveWidth:
    def test_shared_weight_slot_narrows_per_user(self, rng):
        model = TiedConvs(rng)
        images = rng.standard_normal((4, 6, 8, 8)).astype(np.float32)
        plan = CompiledPlan(trace(model, images))
        plan.refresh(model)
        # Constant bytes: ``nbytes`` also counts the conv scratch runs keep.
        full = plan._const_nbytes
        model.conv.weight.data[:, [1, 4]] = 0.0
        plan.refresh(model)
        assert_parity(plan.run(images), module_logits(model, images))
        # The sliced copies sit in spare slots beside the full weight.
        assert plan._const_nbytes > full
        model.conv.weight.data[:] = rng.standard_normal(model.conv.weight.shape)
        plan.refresh(model)
        assert plan._const_nbytes == full
        assert_parity(plan.run(images), module_logits(model, images))


def _pruned_resnet20():
    model = build_model("resnet20", rng=np.random.default_rng(3))
    build_method("ft").prune(model, 0.5)
    return model


class TestConstantSlots:
    """After refresh a plan holds only the constants its runtime steps read."""

    @pytest.mark.parametrize(
        "build", [make_tiny_cnn, _pruned_resnet20], ids=["tiny_cnn", "resnet20_ft"]
    )
    def test_every_held_constant_is_read_by_a_runtime_step(self, images, build):
        model = build()
        plan = CompiledPlan(trace(model, images))
        plan.refresh(model)
        reached: set[int] = set()
        stack = [j for step in plan._steps for j in step[1]]
        while stack:
            j = stack.pop()
            if j not in reached:
                reached.add(j)
                if j < len(plan._nodes) and plan._nodes[j].op in _VIEW_OPS:
                    stack.extend(plan._nodes[j].inputs)
        spares = range(len(plan._nodes), len(plan._slots))
        held = {i for i in (*plan._const_order, *spares) if plan._slots[i] is not None}
        assert held and held <= reached
        assert_parity(plan.run(images), module_logits(model, images))

    def test_plan_holds_less_than_a_copy_of_the_model_state(self, images):
        # A plan that copied every parameter and buffer leaf, as refresh
        # once did, held at least the model's state bytes (39,504 bytes
        # for this network, products included); the densified, BN-folded
        # weights the steps read take less than the weights and masks alone.
        model = make_tiny_cnn()
        plan = CompiledPlan(trace(model, images))
        plan.refresh(model)
        state_bytes = sum(value.nbytes for value in model.state_dict().values())
        assert plan.nbytes < state_bytes


def test_refresh_refits_scratch_to_new_widths(images):
    """``nbytes`` is the constants plus the conv scratch a plan holds. A
    refresh that narrows or widens convs refits their scratch at every row
    count held, so the runs after it allocate nothing."""
    model = build_model("resnet20", rng=np.random.default_rng(3))
    dense = model.state_dict()
    build_method("ft").prune(model, 0.5)
    pruned = model.state_dict()
    plan = CompiledPlan(trace(model, images))
    plan.refresh(model)
    plan.run(images)
    plan.run(images[:1])

    def held() -> int:
        return plan._const_nbytes + sum(
            buf.nbytes
            for step in plan._steps
            for key in ("_scratch", "_scratch_t")
            for buf in step[3].get(key, {}).values()
        )

    for state in (dense, pruned, dense):
        model.load_state_dict(state)
        plan.refresh(model)
        refreshed = plan.nbytes
        assert_parity(plan.run(images), module_logits(model, images))
        assert_parity(plan.run(images[:1]), module_logits(model, images[:1]))
        assert plan.nbytes == refreshed == held()
