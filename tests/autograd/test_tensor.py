"""Tensor core behaviour: construction, backward, grad mode, detach."""

import numpy as np
import pytest

from repro.autograd import Tensor, is_grad_enabled, no_grad


class TestConstruction:
    def test_int_data_becomes_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32

    def test_float64_preserved(self):
        t = Tensor(np.zeros(3, dtype=np.float64))
        assert t.dtype == np.float64

    def test_from_tensor_shares_data(self):
        a = Tensor([1.0, 2.0])
        b = Tensor(a)
        assert b.data is a.data

    def test_shape_size_ndim(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.size == 24
        assert t.ndim == 3

    def test_len(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_item(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)


class TestBackward:
    def test_scalar_backward_default_grad(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])

    def test_backward_with_explicit_grad(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 3.0
        y.backward(np.array([1.0, 10.0], dtype=np.float32))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_backward_shape_mismatch_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(ValueError, match="grad shape"):
            y.backward(np.zeros(3))

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        (x * 2.0).backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*x + x*x should give dy/dx = 4x, not 2x.
        x = Tensor([3.0], requires_grad=True)
        a = x * x
        (a + a).backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_deep_chain_does_not_recurse(self):
        # The iterative topo sort must handle graphs deeper than the
        # recursion limit.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_for_constant_inputs(self):
        x = Tensor([1.0])  # requires_grad False
        y = x * 2.0
        assert not y.requires_grad
        assert y._tape is None


class TestGradMode:
    def test_no_grad_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._tape is None

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                assert not is_grad_enabled()
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()


class TestDetachCopy:
    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        z = y * 3.0
        assert not z.requires_grad

    def test_detach_shares_data(self):
        x = Tensor([1.0], requires_grad=True)
        assert x.detach().data is x.data

    def test_copy_is_independent(self):
        x = Tensor([1.0], requires_grad=True)
        c = x.copy()
        c.data[0] = 99.0
        assert x.data[0] == 1.0
        assert c.requires_grad


class TestNumpyInterop:
    def test_radd_with_ndarray(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = np.array([1.0, 1.0], dtype=np.float32) + x
        assert isinstance(y, Tensor)
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_rsub_scalar(self):
        x = Tensor([1.0], requires_grad=True)
        y = 5.0 - x
        y.backward()
        np.testing.assert_allclose(x.grad, [-1.0])
        np.testing.assert_allclose(y.data, [4.0])

    def test_rtruediv_scalar(self):
        x = Tensor([2.0], requires_grad=True)
        y = 1.0 / x
        y.backward()
        np.testing.assert_allclose(y.data, [0.5])
        np.testing.assert_allclose(x.grad, [-0.25])
