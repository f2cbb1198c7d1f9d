"""Prune-mask semantics on weight-bearing layers."""

import numpy as np
import pytest

from repro import nn
from repro.autograd import Tensor


def assert_bitwise_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestMaskInstall:
    def test_initial_mask_all_ones(self):
        conv = nn.Conv2d(2, 3, 3)
        assert conv.weight_mask.shape == conv.weight.shape
        assert conv.weight_mask.all()
        assert conv.num_pruned == 0
        assert conv.prune_ratio == 0.0

    def test_set_mask_zeroes_weights(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        mask = np.ones_like(layer.weight_mask)
        mask[0] = 0
        layer.set_weight_mask(mask)
        np.testing.assert_array_equal(layer.weight.data[0], 0.0)
        assert layer.num_pruned == 4
        assert layer.prune_ratio == pytest.approx(1 / 3)

    def test_wrong_shape_raises(self):
        layer = nn.Linear(4, 3)
        with pytest.raises(ValueError, match="shape"):
            layer.set_weight_mask(np.ones((2, 2)))

    def test_non_binary_raises(self):
        layer = nn.Linear(4, 3)
        with pytest.raises(ValueError, match="binary"):
            layer.set_weight_mask(np.full((3, 4), 0.5))

    def test_reset_mask(self, rng):
        layer = nn.Linear(4, 3, rng=rng)
        mask = np.zeros_like(layer.weight_mask)
        mask[0] = 1
        layer.set_weight_mask(mask)
        layer.reset_weight_mask()
        assert layer.num_pruned == 0
        assert_bitwise_equal(layer.masked_weight.data, layer.weight.data)

    def test_set_mask_on_sealed_layer_raises_and_changes_nothing(self, rng):
        layer = nn.Linear(4, 3, rng=rng).seal()
        weight, mask = layer.weight.data, layer.weight_mask
        before = weight.copy()
        cut = np.ones_like(mask)
        cut[0] = 0
        with pytest.raises(ValueError, match="read-only"):
            layer.set_weight_mask(cut)
        assert layer.weight.data is weight and layer.weight_mask is mask
        assert_bitwise_equal(weight, before)
        assert mask.all()


class TestMaskForwardBackward:
    def test_masked_weights_do_not_contribute(self, rng):
        layer = nn.Linear(2, 1, bias=False, rng=rng)
        layer.weight.data[:] = [[1.0, 1.0]]
        mask = np.array([[1.0, 0.0]], dtype=np.float32)
        layer.set_weight_mask(mask)
        out = layer(Tensor(np.array([[3.0, 5.0]], dtype=np.float32)))
        assert out.item() == pytest.approx(3.0)

    def test_masked_weights_get_zero_grad(self, rng):
        layer = nn.Linear(3, 2, bias=False, rng=rng)
        mask = np.ones_like(layer.weight_mask)
        mask[:, 1] = 0
        layer.set_weight_mask(mask)
        out = layer(Tensor(np.ones((2, 3), dtype=np.float32)))
        out.sum().backward()
        np.testing.assert_array_equal(layer.weight.grad[:, 1], 0.0)
        assert (layer.weight.grad[:, 0] != 0).all()

    def test_masked_weights_stay_zero_after_sgd(self, rng):
        from repro.optim import SGD

        layer = nn.Linear(3, 2, bias=False, rng=rng)
        mask = np.ones_like(layer.weight_mask)
        mask[0, 0] = 0
        layer.set_weight_mask(mask)
        opt = SGD(layer.parameters(), lr=0.1, momentum=0.9, weight_decay=1e-2)
        for _ in range(5):
            opt.zero_grad()
            layer(Tensor(np.ones((2, 3), dtype=np.float32))).sum().backward()
            opt.step()
        assert layer.weight.data[0, 0] == 0.0
        assert (layer.weight.data[0, 1:] != 0).all()

    def test_no_mask_forward_uses_raw_weight(self, rng):
        # An all-ones mask multiplies every weight by 1.0: bitwise the weight.
        layer = nn.Linear(2, 2, bias=False, rng=rng)
        assert_bitwise_equal(layer.masked_weight.data, layer.weight.data)
