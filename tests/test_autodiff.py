"""Finite-difference checks for every autodiff operation.

The oracle is central differences: (f(x+e) - f(x-e)) / (2e) on a scalar
functional of each op's output.
"""

import numpy as np
import pytest

from gridpose import autodiff as ad


def fd_grad(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at ndarray x."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = fn(x)
        flat[i] = orig - eps
        lo = fn(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2 * eps)
    return g


def check_op(build, x0, rtol=1e-6, atol=1e-8):
    """build(t) -> scalar Tensor; compares backward() grad against FD."""
    t = ad.Tensor(x0.copy(), requires_grad=True)
    out = build(t)
    out.backward()
    analytic = t.grad.copy()

    def scalar_fn(x):
        return float(build(ad.Tensor(x)).data)

    numeric = fd_grad(scalar_fn, x0.copy())
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


RNG = np.random.default_rng(0)


class TestElementwise:
    def test_add_broadcast(self):
        b = RNG.normal(size=(1, 4))
        check_op(lambda t: (t + ad.Tensor(b)).sum(), RNG.normal(size=(3, 4)))

    def test_mul(self):
        other = RNG.normal(size=(3, 4))
        check_op(lambda t: ad.mul(t, ad.Tensor(other)).sum(), RNG.normal(size=(3, 4)))

    def test_mul_broadcast_grad_flows_to_small_side(self):
        big = ad.Tensor(RNG.normal(size=(5, 3)))
        x0 = RNG.normal(size=(3,))
        check_op(lambda t: ad.mul(big, t).sum(), x0)

    def test_square_chain(self):
        check_op(lambda t: ad.mul(t, t).sum(), RNG.normal(size=(7,)))

    def test_sub_and_neg(self):
        other = ad.Tensor(RNG.normal(size=(4,)))
        check_op(lambda t: (other - t).sum(), RNG.normal(size=(4,)))


def masked_sigmoid(x):
    """Reference: the branch form, each side of 0 through its own mask."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestActivations:
    def test_sigmoid(self):
        check_op(lambda t: ad.sigmoid(t).sum(), RNG.normal(scale=3, size=(10,)))

    def test_logistic_equals_masked_form(self):
        rng = np.random.default_rng(1)
        special = np.array([0.0, -0.0, np.inf, -np.inf, 1000.0, -1000.0, np.nan,
                            745.0, -745.0, 1e-300, -1e-300])
        for x in (rng.normal(scale=8.0, size=(300, 1000)), special):
            ref = masked_sigmoid(x)
            assert np.array_equal(ad.logistic(x), ref, equal_nan=True)
            assert np.array_equal(ad.sigmoid(ad.Tensor(x)).data, ref, equal_nan=True)

    def test_tanh(self):
        check_op(lambda t: ad.tanh(t).sum(), RNG.normal(scale=2, size=(10,)))

    def test_leaky_relu(self):
        x = RNG.normal(size=(20,))
        x[np.abs(x) < 1e-3] = 0.5  # keep away from the kink
        check_op(lambda t: ad.leaky_relu(t, 0.1).sum(), x)

    def test_relu(self):
        x = RNG.normal(size=(20,))
        x[np.abs(x) < 1e-3] = -0.5
        check_op(lambda t: ad.relu(t).sum(), x)

    def test_log_softmax(self):
        w = ad.Tensor(RNG.normal(size=(4, 5)))
        check_op(lambda t: ad.mul(ad.log_softmax(t, axis=-1), w).sum(),
                 RNG.normal(size=(4, 5)))


class TestLinearAlgebra:
    def test_matmul_left(self):
        b = ad.Tensor(RNG.normal(size=(4, 6)))
        check_op(lambda t: (t @ b).sum(), RNG.normal(size=(3, 4)))

    def test_matmul_right(self):
        a = ad.Tensor(RNG.normal(size=(3, 4)))
        check_op(lambda t: (a @ t).sum(), RNG.normal(size=(4, 6)))

    def test_matmul_batched(self):
        b = ad.Tensor(RNG.normal(size=(5, 4, 2)))
        check_op(lambda t: (t @ b).sum(), RNG.normal(size=(5, 3, 4)))

    def test_linear_map_is_exact(self):
        # For f(x) = sum(A x), central differences are exact up to rounding.
        a = RNG.normal(size=(6, 6))
        at = ad.Tensor(a)
        x0 = RNG.normal(size=(6, 1))
        t = ad.Tensor(x0.copy(), requires_grad=True)
        (at @ t).sum().backward()
        numeric = fd_grad(lambda x: float((a @ x).sum()), x0.copy(), eps=1e-4)
        rel = np.abs(t.grad - numeric) / np.maximum(np.abs(t.grad), 1e-12)
        assert rel.max() < 1e-8


class TestLstm:
    SHAPES = {"x": (2, 3, 4), "wx": (4, 12), "wh": (3, 12), "b": (12,)}

    @pytest.mark.parametrize("arg", ["x", "wx", "wh", "b"])
    def test_grad(self, arg):
        rng = np.random.default_rng(2)
        values = {k: rng.uniform(-0.8, 0.8, size=shape) for k, shape in self.SHAPES.items()}
        proj = ad.Tensor(rng.normal(size=(2, 3, 3)))

        def build(t):
            args = {k: t if k == arg else ad.Tensor(v) for k, v in values.items()}
            return ad.mul(ad.lstm(args["x"], args["wx"], args["wh"], args["b"]), proj).sum()

        check_op(build, values[arg])


class TestShapeOps:
    def test_reshape(self):
        w = ad.Tensor(RNG.normal(size=(12,)))
        check_op(lambda t: ad.mul(t.reshape(12), w).sum(), RNG.normal(size=(3, 4)))

    def test_transpose(self):
        w = ad.Tensor(RNG.normal(size=(4, 3, 2)))
        check_op(lambda t: ad.mul(t.transpose(2, 1, 0), w).sum(),
                 RNG.normal(size=(2, 3, 4)))

    def test_getitem_slice(self):
        check_op(lambda t: t[1:3, ::2].sum(), RNG.normal(size=(4, 6)))

    def test_getitem_integer_arrays_with_duplicates(self):
        idx = (np.array([0, 1, 1, 2]), np.array([2, 0, 0, 1]))
        w = ad.Tensor(RNG.normal(size=(4,)))
        check_op(lambda t: ad.mul(t[idx], w).sum(), RNG.normal(size=(3, 3)))

    def test_sum_axis_keepdims(self):
        w = ad.Tensor(RNG.normal(size=(3, 1)))
        check_op(lambda t: ad.mul(t.sum(axis=1, keepdims=True), w).sum(),
                 RNG.normal(size=(3, 5)))

    def test_mean(self):
        check_op(lambda t: ad.mean(t, axis=0).sum(), RNG.normal(size=(4, 3)))


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1), (3, 1)])
    def test_grad_wrt_input(self, stride, padding):
        w = ad.Tensor(RNG.normal(size=(2, 3, 3, 3)))
        b = ad.Tensor(RNG.normal(size=(2,)))
        check_op(lambda t: ad.conv2d(t, w, b, stride, padding).sum(),
                 RNG.normal(size=(2, 3, 7, 7)))

    def test_grad_wrt_weights_and_bias(self):
        x = ad.Tensor(RNG.normal(size=(2, 3, 6, 6)))
        w0 = RNG.normal(size=(4, 3, 3, 3))
        b0 = RNG.normal(size=(4,))

        wt = ad.Tensor(w0.copy(), requires_grad=True)
        bt = ad.Tensor(b0.copy(), requires_grad=True)
        ad.conv2d(x, wt, bt, stride=2, padding=1).sum().backward()

        nw = fd_grad(lambda w: float(ad.conv2d(x, ad.Tensor(w), ad.Tensor(b0), 2, 1).data.sum()), w0.copy())
        nb = fd_grad(lambda b: float(ad.conv2d(x, ad.Tensor(w0), ad.Tensor(b), 2, 1).data.sum()), b0.copy())
        np.testing.assert_allclose(wt.grad, nw, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(bt.grad, nb, rtol=1e-6, atol=1e-8)

    def test_known_value(self):
        # 1x1 input, 1x1 kernel: convolution is just w*x + b
        x = ad.Tensor(np.array([[[[3.0]]]]))
        w = ad.Tensor(np.array([[[[2.0]]]]))
        b = ad.Tensor(np.array([5.0]))
        out = ad.conv2d(x, w, b)
        assert out.data.item() == pytest.approx(11.0)

    def test_output_shape(self):
        x = ad.Tensor(np.zeros((1, 3, 56, 56)))
        w = ad.Tensor(np.zeros((16, 3, 3, 3)))
        b = ad.Tensor(np.zeros(16))
        assert ad.conv2d(x, w, b, stride=2, padding=1).shape == (1, 16, 28, 28)


class TestGraph:
    def test_grad_accumulates_over_reuse(self):
        # f(x) = sum(x*x + x): grad = 2x + 1
        x0 = RNG.normal(size=(5,))
        t = ad.Tensor(x0.copy(), requires_grad=True)
        (ad.mul(t, t) + t).sum().backward()
        np.testing.assert_allclose(t.grad, 2 * x0 + 1, rtol=1e-12)

    def test_diamond_graph(self):
        # y = x*x reused twice: f = sum(y) + sum(y) -> grad = 4x
        x0 = RNG.normal(size=(4,))
        t = ad.Tensor(x0.copy(), requires_grad=True)
        y = ad.mul(t, t)
        (y.sum() + y.sum()).backward()
        np.testing.assert_allclose(t.grad, 4 * x0, rtol=1e-12)

    def test_backward_requires_scalar(self):
        t = ad.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(ValueError):
            (t + 1.0).backward()

    def test_no_grad_without_flag(self):
        t = ad.Tensor(np.ones(3))
        out = (t * 2.0).sum()
        out.backward()
        assert t.grad is None

    def test_deep_chain(self):
        # 2000 sequential adds: iterative toposort must not blow the stack
        t = ad.Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(2000):
            out = out + 0.001
        out.sum().backward()
        assert t.grad.item() == pytest.approx(1.0)


class TestTrainingCore:
    def test_value_and_grads_zero_fills_unused_arrays(self):
        arrays = {"a": RNG.normal(size=(3,)), "b": RNG.normal(size=(2, 2))}
        value, grads, aux = ad.value_and_grads(
            arrays, lambda pt: (ad.mul(pt["a"], pt["a"]).sum(), "aux"))
        assert value == pytest.approx(float((arrays["a"] ** 2).sum()), rel=1e-15)
        np.testing.assert_array_equal(grads["a"], 2 * arrays["a"])
        np.testing.assert_array_equal(grads["b"], np.zeros((2, 2)))
        assert aux == "aux"

    def test_sgd_epoch_returns_mean_loss_per_item(self):
        # batches of 2, 2 and 1 items: the short batch weighs half as much
        per_item = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        arrays = {"w": np.zeros(1)}
        mean = ad.sgd_epoch(arrays, 5, lambda idx: (per_item[idx].mean(), {"w": np.ones(1)}),
                            0.5, np.random.default_rng(0), batch_size=2)
        assert mean == pytest.approx(per_item.mean(), rel=1e-15)
        np.testing.assert_array_equal(arrays["w"], [-1.5])  # three steps of lr * 1

    @staticmethod
    def abs_sum_check(report_kinks: bool) -> float:
        # sum(|w|) with one entry 1e-6 from the kink at 0, inside eps = 1e-4:
        # its difference quotient is 0.01 against an analytic slope of 1
        w = np.array([0.8, -0.5, 1e-6, 1.3, -2.0])

        def value():
            return float(np.abs(w).sum()), [w > 0] if report_kinks else []

        return ad.grad_check({"w": w}, {"w": np.sign(w)}, value, eps=1e-4,
                             n_samples=w.size, seed=0)

    def test_grad_check_resamples_kink_crossing_entries(self):
        assert self.abs_sum_check(report_kinks=True) < 1e-9

    def test_grad_check_without_kinks_sees_the_kink(self):
        assert self.abs_sum_check(report_kinks=False) > 0.9
