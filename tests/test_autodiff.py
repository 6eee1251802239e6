"""Finite-difference checks for every autodiff operation.

The oracle is central differences: (f(x+e) - f(x-e)) / (2e) on a scalar
functional of each op's output.
"""

import numpy as np
import pytest

from gridpose import autodiff as ad
from gridpose import config, synth
from gridpose import network as net
from gridpose.errors import ConfigError, NumericError

from conftest import grad_check, tanh


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
        check_op(lambda t: tanh(t).sum(), RNG.normal(scale=2, size=(10,)))

    def test_leaky_relu(self):
        x = RNG.normal(size=(20,))
        x[np.abs(x) < 1e-3] = 0.5  # keep away from the kink
        check_op(lambda t: ad.leaky_relu(t, 0.1).sum(), x)

    def test_leaky_relu_of_a_scalar(self):
        # a 0-d product comes back as a numpy scalar; leaky_relu scales its
        # gradient in place, so the gradient must still be an array
        check_op(lambda t: ad.mul(ad.leaky_relu(ad.mul(t, -1.0).sum(), 0.1), 3.0),
                 np.array([0.5, 1.5]))

    def test_relu(self):
        x = RNG.normal(size=(20,))
        x[np.abs(x) < 1e-3] = -0.5
        check_op(lambda t: ad.relu(t).sum(), x)

    def test_log_softmax(self):
        w = ad.Tensor(RNG.normal(size=(4, 5)))
        check_op(lambda t: ad.mul(ad.log_softmax(t, axis=-1), w).sum(),
                 RNG.normal(size=(4, 5)))


def rectifier_inputs(dtype):
    """Signed zeros, subnormals, values around 0 and ordinary values."""
    fi = np.finfo(dtype)
    tiny = np.array([0.0, fi.smallest_subnormal, 3 * fi.smallest_subnormal,
                     fi.smallest_normal / 2, fi.smallest_normal, fi.eps, 1e-3, 1.0, 7.5, 1e30])
    x = np.concatenate([tiny, -tiny, RNG.normal(size=200), RNG.normal(scale=1e-30, size=50)])
    return x.astype(dtype)


def bits(a):
    a = np.asarray(a)
    return a.view(f"u{a.dtype.itemsize}")


class TestRectifierBits:
    """leaky_relu and relu, forward and backward, are the same bits as the
    masked select x > 0 ? x : slope·x and g scaled by slope where x <= 0."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_forward_and_backward(self, dtype, slope):
        x = rectifier_inputs(dtype)
        g = RNG.normal(size=x.shape).astype(dtype)
        t = ad.Tensor(x, requires_grad=True)
        out = ad.leaky_relu(t, slope) if slope else ad.relu(t)
        ad.mul(out, ad.Tensor(g)).sum().backward()
        assert out.data.dtype == dtype and t.grad.dtype == dtype
        assert np.array_equal(bits(out.data), bits(np.where(x > 0, x, slope * x)))
        assert np.array_equal(bits(t.grad), bits(np.where(x > 0, g, g * dtype(slope))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_zero_dimensional_input(self, dtype, slope):
        # slope·x of a 0-d array is a numpy scalar; the output stays an array
        for value in (-1.5, 0.0, -0.0, 2.0):
            x = np.array(value, dtype)
            t = ad.Tensor(x, requires_grad=True)
            out = ad.leaky_relu(t, slope)
            ad.mul(out, 3.0).backward()
            assert isinstance(out.data, np.ndarray) and out.data.shape == ()
            assert bits(out.data) == bits(np.where(x > 0, x, slope * x))
            assert bits(t.grad) == bits(np.where(x > 0, dtype(3.0), dtype(3.0) * dtype(slope)))

    @pytest.mark.parametrize("slope", [0.0, 0.1, 1.0])
    def test_non_finite_input_gives_non_finite_output(self, slope):
        # max(+inf, 0·inf) is NaN where the masked select gave +inf
        x = np.array([np.inf, -np.inf, np.nan], np.float32)
        with np.errstate(invalid="ignore"):   # 0·inf, as in the masked select
            assert not np.isfinite(ad.leaky_relu(ad.Tensor(x), slope).data).any()


def block_sum(a, b):
    """The per-block Python sum that _batch_gemm's order is defined by."""
    return sum(a[..., s:s + 256] @ b[..., s:s + 256, :] for s in range(0, a.shape[-1], 256))


class TestBatchGemm:
    @pytest.mark.parametrize("k", [1, 255, 256, 257, 512, 784, 12544])
    @pytest.mark.parametrize("shapes", [
        pytest.param(((16, None), (None, 27)), id="2d"),
        pytest.param(((4, 16, None), (4, None, 9)), id="leading"),
        pytest.param(((3, 1, 5, None), (2, None, 6)), id="broadcast"),
        pytest.param(((1, None), (None, 3)), id="one-row"),
    ])
    def test_bits_of_the_block_sum(self, k, shapes):
        rng = np.random.default_rng(k)
        (*lead_a, m, _), (*lead_b, _, n) = shapes
        a = rng.normal(size=(*lead_a, m, k)).astype(np.float32)
        # b as the transposed view that conv2d's weight gradient passes
        b = np.swapaxes(rng.normal(size=(*lead_b, n, k)).astype(np.float32), -1, -2)
        got, want = ad._batch_gemm(a, b), block_sum(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(bits(got), bits(want))


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

    def test_second_backward_on_released_graph_raises(self):
        # a second pass used to add into the interior gradients left by the
        # first: x.grad went 12 -> 60 where accumulation would give 24
        x = ad.Tensor(np.array([2.0]), requires_grad=True)
        loss = ad.mul(ad.mul(x, 3.0), x).sum()
        loss.backward()
        assert x.grad.item() == 12.0
        with pytest.raises(ValueError, match="released"):
            loss.backward()
        assert x.grad.item() == 12.0

    def test_new_graph_over_a_released_node_raises(self):
        x = ad.Tensor(np.array([2.0]), requires_grad=True)
        y = ad.mul(x, 3.0)
        y.sum().backward()
        with pytest.raises(ValueError, match="released"):
            ad.mul(y, y).sum().backward()

    def test_fan_out_gradients_are_not_shared(self):
        # sum(a + b) + sum(3a): add hands its gradient to one parent only
        a = ad.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = ad.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        ((a + b).sum() + ad.mul(a, 3.0).sum()).backward()
        np.testing.assert_array_equal(b.grad, np.ones((2, 3)))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))
        assert not np.shares_memory(a.grad, b.grad)

    @pytest.mark.parametrize("view", ["reshape", "transpose"])
    def test_fan_out_through_views_is_not_shared(self, view):
        # a reaches the add through a view op, which hands its gradient on
        a = ad.Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        av = a.reshape(3, 2) if view == "reshape" else a.transpose(1, 0)
        b = ad.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        ((av + b).sum() + ad.mul(a, 3.0).sum()).backward()
        np.testing.assert_array_equal(b.grad, np.ones((3, 2)))
        np.testing.assert_array_equal(a.grad, np.full((2, 3), 4.0))
        assert not np.shares_memory(a.grad, b.grad)

    def test_self_add_doubles(self):
        # x + x: the one gradient buffer is both parents' first gradient
        t = ad.Tensor(RNG.normal(size=(3,)), requires_grad=True)
        (t + t).sum().backward()
        np.testing.assert_array_equal(t.grad, np.full(3, 2.0))

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

    def test_toy_multitask_grads_share_no_memory(self):
        cfg = config.toy_preset()
        frames = [synth.sample_scene(seed, cfg.scene) for seed in range(2)]
        batch = net.BatchTargets.from_scenes(frames, cfg.grid, cfg.labels, cfg.camera,
                                             np.stack([f.raster for f in frames]))
        params = net.init_params(cfg.backbone, cfg.grid, cfg.labels, seed=0)
        _, grads, _ = ad.value_and_grads(params.tensors, lambda pt: net.loss_graph(
            net.forward_graph(pt, batch.images, cfg.backbone, cfg.grid, cfg.labels),
            batch, cfg.loss, cfg.grid, cfg.labels))
        assert sorted(grads) == sorted(params.tensors)
        names = sorted(grads)
        for i, name in enumerate(names):
            assert grads[name].shape == params.tensors[name].shape
            for other in names[i + 1:]:
                assert not np.shares_memory(grads[name], grads[other]), (name, other)
            for array in params.tensors.values():
                assert not np.shares_memory(grads[name], array), name

    def test_sgd_epoch_returns_mean_loss_per_item(self):
        # batches of 2, 2 and 1 items: the short batch weighs half as much
        per_item = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        arrays = {"w": np.zeros(1)}
        mean = ad.sgd_epoch(arrays, 5, lambda idx: (per_item[idx].mean(), {"w": np.ones(1)}),
                            0.5, np.random.default_rng(0), batch_size=2)
        assert mean == pytest.approx(per_item.mean(), rel=1e-15)
        np.testing.assert_array_equal(arrays["w"], [-1.5])  # three steps of lr * 1

    def test_sgd_epoch_without_items_rejected(self):
        with pytest.raises(ConfigError, match="at least one item"):
            ad.sgd_epoch({"w": np.zeros(1)}, 0, lambda idx: (0.0, {"w": np.ones(1)}),
                         0.5, np.random.default_rng(0), batch_size=2)

    @staticmethod
    def abs_sum_check(report_kinks: bool) -> float:
        # sum(|w|) with one entry 1e-6 from the kink at 0, inside eps = 1e-4:
        # its difference quotient is 0.01 against an analytic slope of 1
        w = np.array([0.8, -0.5, 1e-6, 1.3, -2.0])

        def value():
            return float(np.abs(w).sum()), [w > 0] if report_kinks else []

        return grad_check({"w": w}, {"w": np.sign(w)}, value, eps=1e-4,
                          n_samples=w.size, seed=0)

    def test_grad_check_resamples_kink_crossing_entries(self):
        assert self.abs_sum_check(report_kinks=True) < 1e-9

    def test_grad_check_without_kinks_sees_the_kink(self):
        assert self.abs_sum_check(report_kinks=False) > 0.9

    def test_grad_check_that_compares_nothing_fails(self):
        # every entry sits within eps of the kink of |w|, so every draw is
        # redrawn; the gradients are wrong, and no comparison may pass them
        w = np.array([1e-6, -1e-6, 2e-6])

        def value():
            return float(np.abs(w).sum()), [w > 0]

        with pytest.raises(NumericError, match="compared no entry"):
            grad_check({"w": w}, {"w": np.full(3, 7.0)}, value, eps=1e-4,
                       n_samples=w.size, seed=0)
