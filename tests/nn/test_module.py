"""Module system: registration, traversal, state dicts, modes, hooks."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor
from repro.nn.module import is_sealed


def small_net():
    rng = np.random.default_rng(0)
    return nn.Sequential(
        nn.Conv2d(3, 4, 3, padding=1, rng=rng),
        nn.BatchNorm2d(4),
        nn.ReLU(),
        nn.GlobalAvgPool2d(),
        nn.Linear(4, 2, rng=rng),
    )


class TestRegistration:
    def test_parameters_registered(self):
        layer = nn.Linear(3, 2)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}

    def test_child_modules_registered(self):
        net = small_net()
        assert len(list(net.modules())) == 6  # container + 5 children

    def test_nested_names_are_dotted(self):
        net = small_net()
        names = [n for n, _ in net.named_parameters()]
        assert "0.weight" in names
        assert "4.bias" in names

    def test_buffers_registered(self):
        bn = nn.BatchNorm2d(4)
        names = [n for n, _ in bn.named_buffers()]
        assert set(names) == {"running_mean", "running_var"}

    def test_reassignment_replaces_registration(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.layer = nn.Linear(2, 2)

        m = M()
        m.layer = nn.Linear(3, 3)
        assert dict(m.named_parameters())["layer.weight"].shape == (3, 3)
        assert len(m._modules) == 1

    def test_attribute_before_init_raises(self):
        class Bad(nn.Module):
            def __init__(self):
                self.x = 1  # no super().__init__()

        with pytest.raises(RuntimeError, match="__init__"):
            Bad()

    def test_set_buffer_unknown_raises(self):
        bn = nn.BatchNorm2d(2)
        with pytest.raises(KeyError):
            bn.set_buffer("nope", np.zeros(2))


class TestStateDict:
    def test_roundtrip_preserves_outputs(self, rng):
        net = small_net()
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        net.eval()
        before = net(x).data.copy()
        state = net.state_dict()
        net2 = small_net()
        # Perturb then restore.
        for p in net2.parameters():
            p.data += 1.0
        net2.load_state_dict(state)
        net2.eval()
        np.testing.assert_allclose(net2(x).data, before, rtol=1e-6)

    def test_state_dict_copies(self):
        net = small_net()
        state = net.state_dict()
        state["0.weight"][:] = 0.0
        assert not np.all(dict(net.named_parameters())["0.weight"].data == 0)

    def test_missing_key_raises(self):
        net = small_net()
        state = net.state_dict()
        del state["0.weight"]
        with pytest.raises(KeyError, match="missing"):
            net.load_state_dict(state)

    def test_unexpected_key_raises(self):
        net = small_net()
        state = net.state_dict()
        state["bogus"] = np.zeros(1)
        with pytest.raises(KeyError, match="unexpected"):
            net.load_state_dict(state)

    def test_shape_mismatch_raises(self):
        net = small_net()
        state = net.state_dict()
        state["0.weight"] = np.zeros((1, 1, 1, 1))
        with pytest.raises(ValueError, match="shape"):
            net.load_state_dict(state)

    def test_buffer_shape_mismatch_raises(self):
        net = small_net()
        state = net.state_dict()
        state["1.running_mean"] = np.zeros(7)  # BatchNorm2d(4) buffer
        with pytest.raises(ValueError, match="shape mismatch for buffer"):
            net.load_state_dict(state)

    def test_mask_state_resynced_on_load(self):
        # A loaded mask governs the forward on its own: weights revived
        # behind it in the state dict change nothing.
        net = small_net().eval()
        conv = net[0]
        mask = np.ones_like(conv.weight_mask)
        mask[0] = 0
        conv.set_weight_mask(mask)
        state = net.state_dict()
        state["0.weight"][0] = 0.5

        fresh = small_net().eval()
        fresh.load_state_dict(state)
        assert fresh[0].num_pruned == conv.num_pruned
        x = Tensor(
            np.random.default_rng(1).standard_normal((2, 3, 5, 5)).astype(np.float32)
        )
        np.testing.assert_array_equal(fresh(x).data, net(x).data)


class TestPreserveState:
    def test_restores_after_mutation(self):
        net = small_net()
        before = net.state_dict()
        with nn.preserve_state(net):
            for p in net.parameters():
                p.data += 1.0
        after = net.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)

    def test_restores_on_exception(self):
        net = small_net()
        before = net.state_dict()
        with pytest.raises(RuntimeError):
            with nn.preserve_state(net):
                for p in net.parameters():
                    p.data += 1.0
                raise RuntimeError("mid-sweep failure")
        after = net.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key], err_msg=key)

    def test_yields_the_module(self):
        net = small_net()
        with nn.preserve_state(net) as m:
            assert m is net


def state_arrays(net):
    return [p.data for p in net.parameters()] + [b for _, b in net.named_buffers()]


class TestSeal:
    def test_every_array_is_read_only_and_owns_its_memory(self):
        net = small_net()
        assert net.seal() is net
        assert all(is_sealed(a) for a in state_arrays(net))
        with pytest.raises(ValueError, match="read-only"):
            net[0].weight.data += 1.0
        with pytest.raises(ValueError, match="read-only"):
            net[1].running_mean[...] = 0.0

    def test_views_and_writable_arrays_are_copied_sealed_ones_kept(self):
        net = small_net()
        base = np.zeros((4, 4), dtype=np.float32)
        net[4].weight.data = base[:2]  # a view of a writable base
        held = net[0].weight.data  # a reference taken before sealing
        net.seal()
        sealed = state_arrays(net)
        assert net[4].weight.data.base is None
        base[:] = 1.0  # writes through the base no longer reach the model
        np.testing.assert_array_equal(net[4].weight.data, 0.0)
        assert net[0].weight.data is not held
        np.testing.assert_array_equal(net[0].weight.data, held)
        net.seal()  # already sealed: nothing is copied again
        assert all(a is b for a, b in zip(state_arrays(net), sealed))

    def test_load_state_dict_keeps_a_sealed_model_sealed(self):
        net = small_net().seal()
        donor = small_net()
        for p in donor.parameters():
            p.data += 1.0
        state = donor.state_dict()
        net.load_state_dict(state)
        assert all(is_sealed(a) for a in state_arrays(net))
        for key, value in net.state_dict().items():
            np.testing.assert_array_equal(value, state[key], err_msg=key)

    def test_load_state_dict_leaves_an_unsealed_model_writable(self):
        net = small_net()
        net.load_state_dict(small_net().state_dict())
        assert all(a.flags.writeable for a in state_arrays(net))


class TestModes:
    def test_train_eval_propagates(self):
        net = small_net()
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_batchnorm_respects_mode(self, rng):
        bn = nn.BatchNorm2d(3)
        x = Tensor(rng.standard_normal((8, 3, 4, 4)).astype(np.float32) + 5.0)
        bn.train()
        out_train = bn(x).data.copy()
        bn.eval()
        out_eval = bn(x).data
        # Training normalizes with batch stats; eval uses (partially updated)
        # running stats, so the two differ.
        assert not np.allclose(out_train, out_eval)


class TestGradsAndCounts:
    def test_zero_grad(self, rng):
        net = small_net()
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        net(x).sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_num_parameters(self):
        layer = nn.Linear(3, 2)
        assert layer.num_parameters() == 3 * 2 + 2

    def test_apply_visits_all_modules(self):
        net = small_net()
        visited = []
        net.apply(lambda m: visited.append(type(m).__name__))
        assert len(visited) == 6


class TestHooks:
    def test_forward_hook_called_with_io(self, rng):
        layer = nn.Linear(3, 2)
        seen = []
        layer.register_forward_hook(lambda m, args, out: seen.append((args[0], out)))
        x = Tensor(rng.standard_normal((4, 3)).astype(np.float32))
        y = layer(x)
        assert len(seen) == 1
        assert seen[0][0] is x
        assert seen[0][1] is y

    def test_hook_remover(self, rng):
        layer = nn.Linear(3, 2)
        seen = []
        remove = layer.register_forward_hook(lambda m, a, o: seen.append(1))
        layer(Tensor(np.zeros((1, 3), dtype=np.float32)))
        remove()
        layer(Tensor(np.zeros((1, 3), dtype=np.float32)))
        assert len(seen) == 1


class TestRepr:
    def test_repr_contains_children(self):
        text = repr(small_net())
        assert "Conv2d" in text and "Linear" in text
