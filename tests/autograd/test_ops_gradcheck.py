"""Finite-difference verification of every primitive op's gradient."""

import numpy as np
import pytest

from repro.autograd import Tensor, gradcheck
from repro.autograd import ops
from repro.autograd.gradcheck import randn_tensor


@pytest.fixture
def rng():
    return np.random.default_rng(42)


class TestArithmeticGrads:
    def test_add(self, rng):
        a, b = randn_tensor(rng, 3, 4), randn_tensor(rng, 3, 4)
        gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_add_broadcast(self, rng):
        a, b = randn_tensor(rng, 3, 4), randn_tensor(rng, 4)
        gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_add_broadcast_keepdim(self, rng):
        a, b = randn_tensor(rng, 3, 4), randn_tensor(rng, 3, 1)
        gradcheck(lambda a, b: (a + b).sum(), [a, b])

    def test_sub(self, rng):
        a, b = randn_tensor(rng, 2, 3), randn_tensor(rng, 2, 3)
        gradcheck(lambda a, b: (a - b).sum(), [a, b])

    def test_mul(self, rng):
        a, b = randn_tensor(rng, 3, 4), randn_tensor(rng, 3, 4)
        gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_mul_broadcast_scalar_tensor(self, rng):
        a, b = randn_tensor(rng, 3, 4), randn_tensor(rng)
        gradcheck(lambda a, b: (a * b).sum(), [a, b])

    def test_div(self, rng):
        a = randn_tensor(rng, 3, 4)
        b = Tensor(rng.uniform(1.0, 2.0, (3, 4)), requires_grad=True)
        gradcheck(lambda a, b: (a / b).sum(), [a, b])

    def test_neg(self, rng):
        a = randn_tensor(rng, 5)
        gradcheck(lambda a: (-a).sum(), [a])

    def test_power(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, (3, 3)), requires_grad=True)
        gradcheck(lambda a: (a**3.0).sum(), [a])

    def test_power_rejects_tensor_exponent(self, rng):
        a = randn_tensor(rng, 2)
        with pytest.raises(TypeError):
            ops.power(a, a)


class TestMatmulGrads:
    def test_2d_2d(self, rng):
        a, b = randn_tensor(rng, 3, 4), randn_tensor(rng, 4, 5)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_2d_1d(self, rng):
        a, b = randn_tensor(rng, 3, 4), randn_tensor(rng, 4)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_1d_1d(self, rng):
        a, b = randn_tensor(rng, 4), randn_tensor(rng, 4)
        gradcheck(lambda a, b: a @ b, [a, b])

    def test_batched(self, rng):
        a, b = randn_tensor(rng, 2, 3, 4), randn_tensor(rng, 2, 4, 5)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_1d_times_batched(self, rng):
        a, b = randn_tensor(rng, 3), randn_tensor(rng, 2, 3, 4)
        (a @ b).sum().backward()
        assert a.grad.shape == (3,) and b.grad.shape == (2, 3, 4)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])

    def test_batched_times_1d(self, rng):
        a, b = randn_tensor(rng, 2, 3, 4), randn_tensor(rng, 4)
        gradcheck(lambda a, b: (a @ b).sum(), [a, b])


class TestElementwiseGrads:
    def test_exp(self, rng):
        gradcheck(lambda a: a.exp().sum(), [randn_tensor(rng, 3, 3)])

    def test_log(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, (3, 3)), requires_grad=True)
        gradcheck(lambda a: a.log().sum(), [a])

    def test_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, (3, 3)), requires_grad=True)
        gradcheck(lambda a: a.sqrt().sum(), [a])

    def test_relu_away_from_kink(self, rng):
        a = Tensor(rng.uniform(0.1, 1.0, (3, 3)) * rng.choice([-1, 1], (3, 3)))
        a.requires_grad = True
        gradcheck(lambda a: a.relu().sum(), [a])

    def test_tanh(self, rng):
        gradcheck(lambda a: a.tanh().sum(), [randn_tensor(rng, 3, 3)])

    def test_sigmoid(self, rng):
        gradcheck(lambda a: a.sigmoid().sum(), [randn_tensor(rng, 3, 3)])

    def test_abs_away_from_zero(self, rng):
        a = Tensor(rng.uniform(0.1, 1.0, (4,)) * rng.choice([-1, 1], (4,)))
        a.requires_grad = True
        gradcheck(lambda a: a.abs().sum(), [a])

    def test_maximum(self, rng):
        a, b = randn_tensor(rng, 6), randn_tensor(rng, 6)
        gradcheck(lambda a, b: ops.maximum(a, b).sum(), [a, b])

    def test_clip_interior(self, rng):
        a = Tensor(rng.uniform(-0.4, 0.4, (5,)), requires_grad=True)
        gradcheck(lambda a: ops.clip(a, -0.5, 0.5).sum(), [a])


class TestReductionGrads:
    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), ((0, 1), False)])
    def test_sum(self, rng, axis, keepdims):
        a = randn_tensor(rng, 3, 4)
        gradcheck(lambda a: a.sum(axis=axis, keepdims=keepdims).sum(), [a])

    @pytest.mark.parametrize("axis,keepdims", [(None, False), (0, False), (1, True), (-1, False)])
    def test_mean(self, rng, axis, keepdims):
        a = randn_tensor(rng, 3, 4)
        gradcheck(lambda a: a.mean(axis=axis, keepdims=keepdims).sum(), [a])

    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_max(self, rng, axis):
        # Distinct values keep the max differentiable.
        a = Tensor(rng.permutation(12).reshape(3, 4).astype(np.float64), requires_grad=True)
        gradcheck(lambda a: a.max(axis=axis).sum(), [a])

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
        a.max(axis=1).backward(np.array([1.0]))
        np.testing.assert_allclose(a.grad, [[0.5, 0.5]])


class TestShapeGrads:
    def test_reshape(self, rng):
        a = randn_tensor(rng, 3, 4)
        gradcheck(lambda a: a.reshape(2, 6).sum(), [a])

    def test_reshape_tuple_arg(self, rng):
        a = randn_tensor(rng, 3, 4)
        gradcheck(lambda a: a.reshape((12,)).sum(), [a])

    def test_transpose_default(self, rng):
        a = randn_tensor(rng, 3, 4)
        gradcheck(lambda a: (a.T * Tensor(np.arange(12.0).reshape(4, 3))).sum(), [a])

    def test_transpose_axes(self, rng):
        a = randn_tensor(rng, 2, 3, 4)
        weights = Tensor(np.arange(24.0).reshape(4, 2, 3))
        gradcheck(lambda a: (a.transpose(2, 0, 1) * weights).sum(), [a])

    def test_getitem_slice(self, rng):
        a = randn_tensor(rng, 4, 5)
        gradcheck(lambda a: a[1:3, ::2].sum(), [a])

    def test_getitem_int_index(self, rng):
        a = randn_tensor(rng, 4, 5)
        gradcheck(lambda a: a[2].sum(), [a])

    def test_getitem_fancy_repeated_index_accumulates(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        a[np.array([0, 0, 1])].sum().backward()
        np.testing.assert_allclose(a.grad, [2.0, 1.0])

    def test_concatenate(self, rng):
        a, b = randn_tensor(rng, 2, 3), randn_tensor(rng, 4, 3)
        gradcheck(lambda a, b: ops.concatenate([a, b], axis=0).sum(), [a, b])

    def test_concatenate_axis1(self, rng):
        a, b = randn_tensor(rng, 2, 3), randn_tensor(rng, 2, 5)
        gradcheck(lambda a, b: ops.concatenate([a, b], axis=1).sum(), [a, b])

    def test_concatenate_empty_raises(self):
        with pytest.raises(ValueError):
            ops.concatenate([])

    def test_pad2d(self, rng):
        a = randn_tensor(rng, 2, 3, 4, 4)
        gradcheck(lambda a: ops.pad2d(a, 2).sum(), [a])

    def test_pad2d_zero_is_identity(self, rng):
        a = randn_tensor(rng, 1, 1, 2, 2)
        assert ops.pad2d(a, 0) is a

    def test_pad2d_negative_raises(self, rng):
        with pytest.raises(ValueError):
            ops.pad2d(randn_tensor(rng, 1, 1, 2, 2), -1)
