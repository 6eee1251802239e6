"""conv2d against a reference implementation, on the toy backbone's shapes.

The reference is the per-image formulation: an (n, c·k², L) column tensor,
a batched matmul per image for the forward and an einsum for the weight
gradient. It shares no code with autodiff.conv2d, so agreement to 1e-10
checks the batched GEMMs, the batch-innermost column layout and the
col2im adds of the production version, on the input layouts production
feeds it: C-contiguous and strided NCHW arrays, and the NCHW view over
batch-innermost memory that a conv output keeps through leaky_relu. The
finite-difference tests in test_autodiff.py check both against calculus.
"""

import itertools

import numpy as np
import pytest

from gridpose import autodiff as ad


def reference_cols(x, k, stride, padding):
    """The (n, c·k², oh·ow) columns of the zero-padded input, and (oh, ow)."""
    n, c, h, wd = x.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((n, c, k, k, oh, ow), x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i: i + stride * oh: stride, j: j + stride * ow: stride]
    return cols.reshape(n, c * k * k, oh * ow), (oh, ow)


def reference_conv2d(x, w, b, stride, padding, g):
    """Forward output and the (x, w, b) gradients for upstream gradient g."""
    n, c, h, wd = x.shape
    f, _, k, _ = w.shape
    cols, (oh, ow) = reference_cols(x, k, stride, padding)
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    w2 = w.reshape(f, c * k * k)
    out = (w2 @ cols).reshape(n, f, oh, ow) + b[None, :, None, None]

    gflat = g.reshape(n, f, oh * ow)
    gb = g.sum(axis=(0, 2, 3))
    gw = np.einsum("nfl,ncl->fc", gflat, cols).reshape(w.shape)
    gcols = (w2.T @ gflat).reshape(n, c, k, k, oh, ow)
    gxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i: i + stride * oh: stride, j: j + stride * ow: stride] += gcols[:, :, i, j]
    gx = gxp[:, :, padding: padding + h, padding: padding + wd]
    return out, gx, gw, gb


def assert_matches(actual, expected):
    # atol only guards entries that cancel to ~0 against terms of size ~max
    np.testing.assert_allclose(actual, expected, rtol=1e-10,
                               atol=1e-13 * np.abs(expected).max())


def run_both(n, c, f, hw, k, stride, padding, x_grad=True, seed=0, strided=False):
    rng = np.random.default_rng(seed)
    if strided:
        # every other row and column of a wider batch, one channel in: a view
        big = rng.normal(size=(n, c + 1, 2 * hw[0], 2 * hw[1]))
        x0 = big[:, 1:, ::2, 1::2]
    else:
        x0 = rng.normal(size=(n, c) + hw)
    w0 = rng.normal(size=(f, c, k, k))
    b0 = rng.normal(size=(f,))
    x = ad.Tensor(x0, requires_grad=x_grad)
    w = ad.Tensor(w0, requires_grad=True)
    b = ad.Tensor(b0, requires_grad=True)
    out = ad.conv2d(x, w, b, stride, padding)
    g = rng.normal(size=out.shape)
    ad.mul(out, ad.Tensor(g)).sum().backward()
    return (x, w, b, out), reference_conv2d(x0, w0, b0, stride, padding, g)


# (c_in, c_out, (h, w), kernel, stride, padding): the toy preset's layers
# (56 px input, channels (16, 32, 64, 64, 96), strides (2, 2, 2, 1, 1), and
# the 1x1 head onto 3 depth bins x 135 cell channels), then odd sizes.
LAYERS = {
    "conv1_28_to_14": (16, 32, (28, 28), 3, 2, 1),
    "conv0_56_to_28": (3, 16, (56, 56), 3, 2, 1),
    "conv2_14_to_7": (32, 64, (14, 14), 3, 2, 1),
    "conv3_7_to_7": (64, 64, (7, 7), 3, 1, 1),
    "conv4_7_to_7": (64, 96, (7, 7), 3, 1, 1),
    "head_1x1": (96, 405, (7, 7), 1, 1, 0),
    "odd_stride2": (5, 4, (9, 11), 3, 2, 1),
    "odd_stride3": (4, 3, (11, 10), 3, 3, 1),
    "k3_no_pad": (3, 2, (7, 6), 3, 1, 0),
    "k5_pad2_stride2": (3, 2, (8, 9), 5, 2, 2),
    "pad_wider_than_kernel": (2, 3, (3, 4), 3, 2, 3),
}


class TestConv2dMatchesReference:
    @pytest.mark.parametrize("batch", [1, 16])
    @pytest.mark.parametrize("layer", sorted(LAYERS))
    def test_output_and_gradients(self, layer, batch):
        c, f, hw, k, stride, padding = LAYERS[layer]
        (x, w, b, out), (ref_out, ref_gx, ref_gw, ref_gb) = run_both(
            batch, c, f, hw, k, stride, padding)
        assert out.shape == ref_out.shape
        assert_matches(out.data, ref_out)
        assert_matches(x.grad, ref_gx)
        assert_matches(w.grad, ref_gw)
        assert_matches(b.grad, ref_gb)

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    def test_strided_input_view(self, layer):
        c, f, hw, k, stride, padding = LAYERS[layer]
        (x, w, b, out), (ref_out, ref_gx, ref_gw, ref_gb) = run_both(
            16, c, f, hw, k, stride, padding, strided=True)
        assert not x.data.flags.c_contiguous
        assert_matches(out.data, ref_out)
        assert_matches(x.grad, ref_gx)
        assert_matches(w.grad, ref_gw)
        assert_matches(b.grad, ref_gb)

    def test_input_without_grad_gets_none(self):
        # conv0 reads the images, which never require a gradient
        (x, w, b, out), (ref_out, _, ref_gw, ref_gb) = run_both(
            16, 3, 16, (56, 56), 3, 2, 1, x_grad=False)
        assert x.grad is None
        assert_matches(out.data, ref_out)
        assert_matches(w.grad, ref_gw)
        assert_matches(b.grad, ref_gb)

    def test_chained_layers(self):
        # a conv output feeds the next conv, as in the backbone
        rng = np.random.default_rng(1)
        x0 = rng.normal(size=(4, 3, 12, 12))
        params = [rng.normal(size=(6, 3, 3, 3)), rng.normal(size=(6,)),
                  rng.normal(size=(5, 6, 3, 3)), rng.normal(size=(5,))]
        check_chain(x0, params, (2, 1), (1, 1))

    # consecutive toy backbone layers: two stride-2 layers, two stride-1
    # layers, and the last 3x3 layer into the 1x1 head
    @pytest.mark.parametrize("first, second", [
        ("conv0_56_to_28", "conv1_28_to_14"),
        ("conv3_7_to_7", "conv4_7_to_7"),
        ("conv4_7_to_7", "head_1x1"),
    ])
    def test_chained_toy_layers(self, first, second):
        rng = np.random.default_rng(2)
        (c0, f0, hw, k0, s0, p0), (c1, f1, _, k1, s1, p1) = LAYERS[first], LAYERS[second]
        x0 = rng.normal(size=(16, c0) + hw)
        params = [rng.normal(size=(f0, c0, k0, k0)), rng.normal(size=(f0,)),
                  rng.normal(size=(f1, c1, k1, k1)), rng.normal(size=(f1,))]
        check_chain(x0, params, (s0, p0), (s1, p1))


# (c_in, c_out, (h, w), kernel, stride, padding) whose taps leave a padding
# border, or read nothing at all (padding >= kernel), or need no padding
BORDERS = {
    "pad_wider_than_kernel": (2, 3, (3, 4), 3, 2, 3),
    "empty_taps_stride3": (2, 3, (1, 2), 3, 3, 2),
    "odd_stride3": (4, 3, (11, 10), 3, 3, 1),
    "k1_pad1_stride2": (3, 2, (7, 6), 1, 2, 1),
    "k1_no_pad": (3, 2, (7, 6), 1, 1, 0),
    "k5_pad5_stride3": (2, 2, (4, 3), 5, 3, 5),
    "k5_pad2_stride2": (3, 2, (8, 9), 5, 2, 2),
    "k3_no_pad": (3, 2, (7, 6), 3, 1, 0),
    "conv0_56_to_28": (3, 16, (56, 56), 3, 2, 1),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", sorted(BORDERS))
def test_columns_are_the_padded_windows_bit_for_bit(layer, dtype, monkeypatch):
    """conv2d's forward and weight gradient are the same bits as the same
    GEMMs over the reference's columns, laid out batch-innermost. Its column
    buffer comes from np.empty, filled with NaN here, so any entry that the
    padding border or the tap copies leave unwritten shows as NaN."""
    c, f, hw, k, stride, padding = BORDERS[layer]
    n = 3
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(n, c) + hw).astype(dtype)
    w0 = rng.normal(size=(f, c, k, k)).astype(dtype)
    b0 = rng.normal(size=(f,)).astype(dtype)
    ref, (oh, ow) = reference_cols(x0, k, stride, padding)
    ref = np.ascontiguousarray(ref.transpose(1, 2, 0)).reshape(c * k * k, oh * ow * n)
    g = rng.normal(size=(n, f, oh, ow)).astype(dtype)
    gT = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(f, oh * ow * n)
    want_out = w0.reshape(f, -1) @ ref
    want_out += b0[:, None]
    want_gw = ad._batch_gemm(gT, ref.T).reshape(w0.shape)

    w = ad.Tensor(w0, requires_grad=True)
    with monkeypatch.context() as m:
        m.setattr(np, "empty", lambda shape, dtype=float: np.full(shape, np.nan, dtype))
        out = ad.conv2d(ad.Tensor(x0), w, ad.Tensor(b0), stride, padding)
    ad.mul(out, ad.Tensor(g)).sum().backward()
    assert np.array_equal(out.data, want_out.reshape(f, oh, ow, n).transpose(3, 0, 1, 2))
    assert np.array_equal(w.grad, want_gw)



@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layer", sorted(BORDERS))
def test_input_gradient_adds_the_taps_in_kernel_order(layer, dtype):
    """conv2d's input gradient is the same bits as the reference's col2im
    over the same column gradient: every input entry sums its taps' terms
    in kernel order, row i before row i + 1 and column j before j + 1."""
    c, f, hw, k, stride, padding = BORDERS[layer]
    n = 3
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(n, c) + hw).astype(dtype)
    w0 = rng.normal(size=(f, c, k, k)).astype(dtype)
    x = ad.Tensor(x0, requires_grad=True)
    out = ad.conv2d(x, ad.Tensor(w0), ad.Tensor(np.zeros(f, dtype)), stride, padding)
    _, _, oh, ow = out.shape
    g = rng.normal(size=out.shape).astype(dtype)
    ad.mul(out, ad.Tensor(g)).sum().backward()

    gT = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).reshape(f, oh * ow * n)
    gcols = (w0.reshape(f, -1).T @ gT).reshape(c, k, k, oh, ow, n)
    gxp = np.zeros((c, hw[0] + 2 * padding, hw[1] + 2 * padding, n), dtype)
    for i in range(k):
        for j in range(k):
            gxp[:, i: i + stride * oh: stride, j: j + stride * ow: stride] += gcols[:, i, j]
    want = gxp[:, padding: padding + hw[0], padding: padding + hw[1]].transpose(3, 0, 1, 2)
    assert np.array_equal(x.grad, want)


def check_chain(x0, params, first, second):
    """conv2d -> leaky_relu -> conv2d against the reference, where the
    second conv reads the first one's output as production does: an NCHW
    view over batch-innermost (c, h, w, n) memory."""
    rng = np.random.default_rng(3)
    x = ad.Tensor(x0, requires_grad=True)
    ws = [ad.Tensor(v, requires_grad=True) for v in params]
    act = ad.leaky_relu(ad.conv2d(x, ws[0], ws[1], *first), 0.1)
    assert act.data.transpose(1, 2, 3, 0).flags.c_contiguous
    out = ad.conv2d(act, ws[2], ws[3], *second)
    g = rng.normal(size=out.shape)
    ad.mul(out, ad.Tensor(g)).sum().backward()

    ref_mid, _, _, _ = reference_conv2d(x0, *params[:2], *first, np.zeros(act.shape))
    ref_act = np.where(ref_mid > 0, ref_mid, 0.1 * ref_mid)
    ref_out, g_act, ref_gw1, ref_gb1 = reference_conv2d(ref_act, *params[2:], *second, g)
    g_mid = g_act * np.where(ref_mid > 0, 1.0, 0.1)
    _, ref_gx, ref_gw0, ref_gb0 = reference_conv2d(x0, *params[:2], *first, g_mid)
    assert_matches(out.data, ref_out)
    for t, ref in zip([x] + ws, (ref_gx, ref_gw0, ref_gb0, ref_gw1, ref_gb1)):
        assert_matches(t.grad, ref)


def conv_bits(layer, seed=5):
    """The bytes of conv2d's output and of its x, w and b gradients on a BORDERS layer."""
    c, f, hw, k, stride, padding = BORDERS[layer]
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(3, c) + hw).astype(np.float32), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(f, c, k, k)).astype(np.float32), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(f,)).astype(np.float32), requires_grad=True)
    out = ad.conv2d(x, w, b, stride, padding)
    g = rng.normal(size=out.shape).astype(np.float32)
    ad.mul(out, ad.Tensor(g)).sum().backward()
    return [a.tobytes() for a in (out.data, x.grad, w.grad, b.grad)]


def empty_taps(hw, k, stride, padding):
    """The (i, j) taps whose every window lies in the padding, found by
    reading the padded input's coordinates, without _taps."""
    oh, ow = ((n + 2 * padding - k) // stride + 1 for n in hw)
    inside = [[0 <= o * stride + t - padding < n for t in range(k) for o in range(m)]
              for n, m in zip(hw, (oh, ow))]
    rows = [not any(inside[0][t * oh: (t + 1) * oh]) for t in range(k)]
    cols = [not any(inside[1][t * ow: (t + 1) * ow]) for t in range(k)]
    return {(i, j) for i in range(k) for j in range(k) if rows[i] or cols[j]}


class TestConvPlan:
    """conv2d reads one cached index plan per layer shape (_conv_plan)."""

    @pytest.mark.parametrize("layer", sorted(BORDERS))
    def test_cold_and_warm_cache_give_the_same_bits(self, layer):
        ad._conv_plan.cache_clear()
        cold = conv_bits(layer)
        assert ad._conv_plan.cache_info().misses == 1
        warm = conv_bits(layer)
        assert ad._conv_plan.cache_info().hits >= 1
        assert cold == warm

    def test_second_call_of_a_shape_is_a_cache_hit(self):
        ad._conv_plan.cache_clear()
        conv_bits("conv0_56_to_28")
        assert ad._conv_plan.cache_info()[:2] == (0, 1)   # hits, misses
        conv_bits("conv0_56_to_28", seed=6)
        assert ad._conv_plan.cache_info()[:2] == (1, 1)

    def test_same_size_other_stride_or_padding_gets_its_own_plan(self):
        ad._conv_plan.cache_clear()
        plans = {(s, p): ad._conv_plan(7, 6, 3, s, p) for s in (1, 2) for p in (0, 1)}
        assert ad._conv_plan.cache_info().misses == 4
        assert all(a != b for a, b in itertools.combinations(plans.values(), 2))
        assert (plans[1, 1].out_h, plans[2, 1].out_h, plans[1, 0].out_h) == (7, 4, 5)

    @pytest.mark.parametrize("layer", sorted(BORDERS))
    def test_empty_tap_is_all_border_and_has_no_copy(self, layer):
        _, _, hw, k, stride, padding = BORDERS[layer]
        empty = empty_taps(hw, k, stride, padding)
        # kernel rows 0 and 1 of empty_taps_stride3 read only padding; every
        # tap of the other layers, pad_wider_than_kernel too, reads an input
        assert bool(empty) == (layer == "empty_taps_stride3")
        plan = ad._conv_plan(*hw, k, stride, padding)
        copied = {to[1:3] for to, _ in plan.taps}
        assert copied == {(i, j) for i in range(k) for j in range(k)} - empty
        cols = np.full((1, k, k, plan.out_h, plan.out_w, 1), np.nan)
        for edge in plan.border:
            cols[edge] = 0
        for i, j in empty:
            assert (cols[:, i, j] == 0).all()
        for i, j in copied:    # the border leaves each copied window unwritten
            assert np.isnan(cols[:, i, j]).any()
