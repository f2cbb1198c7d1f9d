"""Property-based tests of autograd invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, functional as F
from repro.autograd.table import unbroadcast
import pytest

pytestmark = pytest.mark.tier2

finite_floats = st.floats(-10, 10, allow_nan=False, width=32)


def small_arrays(max_side=4, min_dims=1, max_dims=3):
    return hnp.arrays(
        dtype=np.float64,
        shape=hnp.array_shapes(min_dims=min_dims, max_dims=max_dims, max_side=max_side),
        elements=st.floats(-5, 5, allow_nan=False),
    )


class TestBackwardLinearity:
    @settings(max_examples=25, deadline=None)
    @given(small_arrays())
    def test_grad_of_sum_is_ones(self, data):
        x = Tensor(data, requires_grad=True)
        x.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(data))

    @settings(max_examples=25, deadline=None)
    @given(small_arrays(), st.floats(-3, 3, allow_nan=False))
    def test_scalar_mul_scales_grad(self, data, c):
        x = Tensor(data, requires_grad=True)
        (x * c).sum().backward()
        np.testing.assert_allclose(x.grad, np.full_like(data, c), rtol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(small_arrays())
    def test_add_self_doubles_grad(self, data):
        x = Tensor(data, requires_grad=True)
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, 2 * np.ones_like(data))


class TestUnbroadcast:
    @settings(max_examples=30, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=2))
    def test_row_broadcast_sums_rows(self, data):
        grad = unbroadcast(data, (1, data.shape[1]))
        np.testing.assert_allclose(grad, data.sum(axis=0, keepdims=True))

    @settings(max_examples=30, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=3))
    def test_scalar_broadcast_sums_all(self, data):
        grad = unbroadcast(data, ())
        np.testing.assert_allclose(grad, data.sum())

    @settings(max_examples=30, deadline=None)
    @given(small_arrays())
    def test_same_shape_identity(self, data):
        np.testing.assert_array_equal(unbroadcast(data, data.shape), data)


class TestNumericInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 5), st.integers(2, 6)),
            elements=st.floats(-30, 30, allow_nan=False),
        )
    )
    def test_softmax_is_distribution(self, logits):
        probs = F.softmax(Tensor(logits)).data
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 5), st.integers(2, 6)),
            elements=st.floats(-30, 30, allow_nan=False),
        )
    )
    def test_softmax_shift_invariant(self, logits):
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 4), st.integers(2, 5)),
            elements=st.floats(-10, 10, allow_nan=False),
        ),
        st.data(),
    )
    def test_cross_entropy_nonnegative(self, logits, data):
        n, k = logits.shape
        targets = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        )
        loss = F.cross_entropy(Tensor(logits), targets)
        assert loss.item() >= 0

    @settings(max_examples=15, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float64,
            shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(2, 6), st.integers(2, 6)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    def test_max_pool_upper_bounds_avg_pool(self, x):
        mx = F.max_pool2d(Tensor(x), 2, stride=1).data
        av = F.avg_pool2d(Tensor(x), 2, stride=1).data
        assert (mx >= av - 1e-9).all()

    @settings(max_examples=15, deadline=None)
    @given(small_arrays(min_dims=2, max_dims=2))
    def test_relu_idempotent(self, x):
        once = Tensor(x).relu()
        twice = once.relu()
        np.testing.assert_array_equal(once.data, twice.data)


class TestConvGeometryProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(1, 2),  # batch
        st.integers(1, 3),  # in channels
        st.integers(1, 3),  # out channels
        st.integers(4, 7),  # spatial size
        st.sampled_from([1, 3]),  # kernel
        st.sampled_from([1, 2]),  # stride
        st.sampled_from([0, 1]),  # padding
        st.integers(0, 100),  # seed
    )
    def test_conv_forward_backward_shapes(self, n, c, f, s, k, stride, pad, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.standard_normal((n, c, s, s)), requires_grad=True)
        w = Tensor(rng.standard_normal((f, c, k, k)), requires_grad=True)
        out = F.conv2d(x, w, stride=stride, padding=pad)
        expected = (s + 2 * pad - k) // stride + 1
        assert out.shape == (n, f, expected, expected)
        out.sum().backward()
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape
        assert np.isfinite(x.grad).all() and np.isfinite(w.grad).all()

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 50))
    def test_conv_linearity_in_input(self, seed):
        """conv(a*x) == a*conv(x) — convolution is linear."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 2, 5, 5))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)))
        a = float(rng.uniform(0.5, 2.0))
        out1 = F.conv2d(Tensor(a * x), w, padding=1).data
        out2 = a * F.conv2d(Tensor(x), w, padding=1).data
        np.testing.assert_allclose(out1, out2, rtol=1e-6)
