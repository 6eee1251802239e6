"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just enough operations for a strided convolutional backbone, the grid
loss, an MLP and an LSTM: elementwise arithmetic, matmul, conv2d,
activations, reshape/transpose/indexing, sum and log-softmax. Each op computes
in its operands' dtype (a constant takes that of the tensor it meets), so the
model runs in COMPUTE_DTYPE and the gradient checks in float64. Gradients
accumulate into leaf tensors on backward().

Gradients are handed over, not zero-filled. A node adopts its first
gradient as its .grad buffer when the sender owns it: an array the
sender's backward just made, or the sender's own gradient (or a reshape
or transpose view of it), which the sender gives up. add hands its
gradient to at most one parent. Any other gradient is copied once. So no
two live nodes share a .grad buffer: getitem scatters straight into its
parent's gradient, and leaky_relu scales its own gradient in place.
backward() releases each interior node once its backward has run, so
only leaf gradients are defined afterwards.

conv2d, where training spends its time, is im2col + GEMM over the whole
batch (Chellapilla et al. 2006): the in-bounds input windows of the k²
kernel taps are copied once into a batch-innermost (c·k², L·n) column
matrix, L = oh·ow output positions per image, and the forward, the
weight gradient (in blocks of 256 positions: _batch_gemm) and the input
gradient are BLAS GEMMs against it. Its outputs and input gradients are
NCHW tensors over (c, h, w, n) memory, so each tap copy and col2im add
runs over ow·n contiguous elements.

lstm runs a whole LSTM layer over a sequence as one node (Appleyard et al.
2016). The input projection of all B·T frames, bias included, is one
(B·T, in) @ (in, 4h) GEMM before the recurrence. Each step then does one
(B, h) @ (h, 4h) GEMM for the hidden state, a single tanh over all four
gate blocks, sigmoid(z) = (1 + tanh(z/2)) / 2, and the cell update, all
written through out= into preallocated time-major (T, B, ·) buffers. Its
backward is written by hand and reuses the forward's gate buffer in place:
a few whole-array passes turn it into per-gate factors, a reverse loop
turns each step's row into that step's gate gradient with one
(B, 4h) @ (4h, h) GEMM per step, then the gradients of wx, wh, b and x are
GEMMs (_batch_gemm) or a reduction over all B·T rows.

The training core at the end (wrap, value_and_grads, the minibatch loop
sgd_epoch and the finite-difference checker grad_check) serves both
training stages: it takes named parameter arrays and a loss closure.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NonFiniteLoss, NumericError

COMPUTE_DTYPE = np.float32


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, g, owned: bool = False):
        """Add g to this node's gradient. The first g becomes the buffer:
        as it is when the caller owns it (see the module docstring), else
        copied into the memory order of this node's data."""
        if self.grad is None:
            if owned:
                self.grad = np.asarray(g)  # 0-d products come back as scalars
            else:
                self.grad = np.empty_like(self.data)
                np.copyto(self.grad, g)
        else:
            self.grad += g

    def backward(self):
        """Accumulate d(self)/d(leaf) into the .grad of every leaf that
        requires a gradient.

        Once an interior node's own backward has run, its closure, parents
        and .grad are dropped, so buffers such as conv columns die during
        the pass. Only leaf gradients are defined afterwards; a second
        backward() through a released node raises ValueError.
        """
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
        if self._backward is _released:
            raise ValueError("backward() already ran on this graph, which is released")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data), owned=True)
        while topo:
            node = topo.pop()
            fn, g = node._backward, node.grad
            if fn is None:
                continue
            node._backward, node._parents, node.grad = _released, (), None
            if g is not None:
                fn(g)

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, -other)

    def __rsub__(self, other):
        return add(-self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 or isinstance(shape[0], int) else shape[0])

    def transpose(self, *axes):
        return transpose(self, axes)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def _released(g):
    raise ValueError("backward() through a node whose graph was already released")


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    """x as a Tensor; a constant takes the dtype of the tensor like, if given."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, like and like.data.dtype))


def _batch_gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b summed in order over blocks of 256 of the inner dimension, for products that
    sum over a batch (gradients): OpenBLAS blocks a longer inner dimension one way on one
    thread and another on several, so a single GEMM would round by the thread count."""
    return sum(a[..., s:s + 256] @ b[..., s:s + 256, :] for s in range(0, a.shape[-1], 256))


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a, b) -> Tensor:
    a, b = as_tensor(a, b), as_tensor(b, a)
    out_data = a.data + b.data

    def backward(g):
        # g itself goes to at most one parent; the other gets a copy
        handed = False
        if a.requires_grad:
            ga = _unbroadcast(g, a.data.shape)
            handed = ga is g
            a._accumulate(ga, owned=True)
        if b.requires_grad:
            gb = _unbroadcast(g, b.data.shape)
            b._accumulate(gb, owned=gb is not g or not handed)

    return Tensor._make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a, b), as_tensor(b, a)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape), owned=True)

    return Tensor._make(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a, b), as_tensor(b, a)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = _batch_gemm(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape), owned=True)
        if b.requires_grad:
            gb = _batch_gemm(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape), owned=True)

    return Tensor._make(out_data, (a, b), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(old), owned=True)

    return Tensor._make(out_data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward(g):
        a._accumulate(g.transpose(inv), owned=True)

    return Tensor._make(out_data, (a,), backward)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out_data = np.array(a.data[key])
    advanced = isinstance(key, tuple) and any(isinstance(k, np.ndarray) for k in key)

    def backward(g):
        # scatter into a's own gradient: no full-size buffer per slice
        if a.grad is None:
            a.grad = np.zeros_like(a.data)
        if advanced:
            np.add.at(a.grad, key, g)
        else:
            a.grad[key] += g

    return Tensor._make(out_data, (a,), backward)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis=axis)
        a._accumulate(np.broadcast_to(g, a.data.shape))

    return Tensor._make(out_data, (a,), backward)


def leaky_relu(a, slope: float = 0.1) -> Tensor:
    a = as_tensor(a)
    pos = a.data > 0
    out_data = np.where(pos, a.data, slope * a.data)

    def backward(g):
        np.multiply(g, slope, out=g, where=~pos)
        a._accumulate(g, owned=True)

    return Tensor._make(out_data, (a,), backward)


def relu(a) -> Tensor:
    return leaky_relu(a, slope=0.0)


def logistic(x) -> np.ndarray:
    """Numerically stable logistic function on an array, in its dtype, without masks.

    With e = exp(-|x|) it is 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    the same operations per element as the branch form, so the values are
    the same bits; exp never overflows. NaN stays NaN.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = logistic(a.data)

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data), owned=True)

    return Tensor._make(out_data, (a,), backward)


# Per LSTM gate block i, f, g, o: the scale of the tanh argument and of its
# output, the shift that makes a sigmoid of it, and the derivative's peak.
_GATE_COLUMNS = np.array([[0.5, 0.5, 1.0, 0.5], [0.5, 0.5, 0.0, 0.5], [0.25, 0.25, 1.0, 0.25]])


def lstm(x, wx, wh, b) -> Tensor:
    """One LSTM layer over a whole sequence as a single node.

    x (B, T, in), wx (in, 4h), wh (h, 4h), b (4h,) -> hidden states (B, T, h),
    starting from zero hidden and cell states. The gate blocks of the 4h
    axis are input, forget, cell candidate and output, in that order:

      z_t = (x_t @ wx + b) + h_{t-1} @ wh
      i, f, o = sigmoid(z_t),   g = tanh(z_t)
      c_t = f * c_{t-1} + i * g,   h_t = o * tanh(c_t)

    The input projection of every step, bias included, is one GEMM over B·T
    rows before the recurrence (Appleyard et al. 2016). It fills the
    time-major (T, B, 4h) gate buffer, so a step reads and writes contiguous
    rows. A step adds one (B, h) @ (h, 4h) GEMM into its row, then applies
    all four gate functions with one tanh, since sigmoid(z) = (1 + tanh(z/2)) / 2:
    it halves the i, f and o columns (exactly), takes the tanh in place, and
    scales those blocks by 1/2 and shifts them by 1/2. Every result is written
    through out=. The row is halved, not a copy of wh once per call: for
    sequences shorter than h steps, that copy (h·4h values) would outweigh
    the gate buffer of a single sequence and raise the peak memory of
    classifying it.

    The backward keeps the gate buffer, the cell states, tanh(c_t) and the
    hidden states, and reuses the gate buffer in place; that is safe because
    backward() runs once per graph. A few whole-array passes turn it into the
    factors that map dc_t (for i, f, g) and dh_t (for o) to the gradient of
    z_t: the gate derivatives (1 - T²)·[1/4, 1/4, 1, 1/4], with T the tanh
    of the forward, read off the stored gates as 1/4 - (sigmoid - 1/2)² and
    1 - g², times [g, c_{t-1}, i, tanh c_t]. A reverse loop overwrites each
    step's row with its gate gradient dG_t and takes one GEMM per step,
    dh_{t-1} = dG_t @ wh.T. Then dwx = X.T @ dG, dwh = Hprev.T @ dG (each
    through _batch_gemm), db = sum(dG) and dx = dG @ wx.T are GEMMs or a
    reduction over all B·T rows.
    """
    x, wx, wh, b = as_tensor(x), as_tensor(wx), as_tensor(wh), as_tensor(b)
    n, t, width_in = x.data.shape
    h = wh.data.shape[0]
    if wx.data.shape != (width_in, 4 * h) or wh.data.shape != (h, 4 * h) or b.data.shape != (4 * h,):
        raise ValueError(f"LSTM weights {wx.data.shape}, {wh.data.shape}, {b.data.shape} "
                         f"do not match input {x.data.shape}")
    xs = x.data.transpose(1, 0, 2).reshape(t * n, width_in)
    act = xs @ wx.data
    dtype = act.dtype
    scale, shift, peak = np.repeat(_GATE_COLUMNS.astype(dtype), h, axis=1)
    act += b.data
    act = act.reshape(t, n, 4 * h)       # x_t @ wx + b, then z_t, then the gates
    cs = np.zeros((t + 1, n, h), dtype)  # cs[s + 1] = c_s, cs[0] = 0
    hs = np.zeros((t + 1, n, h), dtype)  # hs[s + 1] = h_s, hs[0] = 0
    tcs = np.empty((t, n, h), dtype)     # tanh(c_s)
    blocks = act.reshape(t, n, 4, h)
    i, f, g, o = blocks.transpose(2, 0, 1, 3)
    rec, ig = np.empty((n, 4 * h), dtype), np.empty((n, h), dtype)
    for s, (a, i_s, f_s, g_s, o_s, h_prev, h_s, c_prev, c_s, tc) in enumerate(zip(
            act, i, f, g, o, hs[:-1], hs[1:], cs[:-1], cs[1:], tcs)):
        if s:                            # h_0 = 0
            np.matmul(h_prev, wh.data, out=rec)
            a += rec
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        np.multiply(f_s, c_prev, out=c_s)
        np.multiply(i_s, g_s, out=ig)
        c_s += ig
        np.tanh(c_s, out=tc)
        np.multiply(o_s, tc, out=h_s)
    out_data = hs[1:].transpose(1, 0, 2)

    def backward(gout):
        gh = gout.transpose(1, 0, 2)
        # what the reverse loop reads besides the factors: f, and o·(1 - tanh² c) = dh -> dc
        f_keep = f.copy()
        dh_to_dc = np.square(tcs)
        np.subtract(1.0, dh_to_dc, out=dh_to_dc)
        dh_to_dc *= o
        g_i = blocks[:, :, 2::-2].copy()     # [g, i], the factors of the i and g blocks
        np.subtract(act, shift, out=act)
        np.square(act, out=act)
        np.subtract(peak, act, out=act)      # gate derivatives
        blocks[:, :, ::2] *= g_i             # times [g, c_{t-1}, i, tanh c_t]
        del g_i                              # before the gradient GEMMs allocate
        np.multiply(f, cs[:-1], out=f)
        np.multiply(o, tcs, out=o)
        wh_t = wh.data.T
        dh, dc, tmp = np.zeros((n, h), dtype), np.zeros((n, h), dtype), np.empty((n, h), dtype)
        for s, d, d_ifg, d_o, g_s, to_c, f_s in zip(
                range(t - 1, -1, -1), act[::-1], blocks[::-1, :, :3], o[::-1],
                gh[::-1], dh_to_dc[::-1], f_keep[::-1]):
            dh += g_s
            np.multiply(dh, to_c, out=tmp)
            dc += tmp
            np.multiply(d_ifg, dc[:, None], out=d_ifg)
            d_o *= dh
            if s:
                dc *= f_s
                np.matmul(d, wh_t, out=dh)
        dG = act.reshape(t * n, 4 * h)
        if b.requires_grad:
            b._accumulate(dG.sum(axis=0), owned=True)
        if wx.requires_grad:
            wx._accumulate(_batch_gemm(xs.T, dG), owned=True)
        if wh.requires_grad:
            wh._accumulate(_batch_gemm(hs[:-1].reshape(t * n, h).T, dG), owned=True)
        if x.requires_grad:
            x._accumulate((dG @ wx.data.T).reshape(t, n, width_in).transpose(1, 0, 2), owned=True)

    return Tensor._make(out_data, (x, wx, wh, b), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse

    def backward(g):
        soft = np.exp(out_data)
        a._accumulate(g - soft * g.sum(axis=axis, keepdims=True), owned=True)

    return Tensor._make(out_data, (a,), backward)


def _taps(i: int, size: int, out: int, stride: int, padding: int) -> tuple[slice, slice]:
    """Kernel tap i along one axis of length size: the slice of the out
    output positions o whose input o * stride + i - padding lies in
    [0, size), and the strided slice of those inputs (both may be empty)."""
    lo = max(0, -((i - padding) // stride))
    hi = max(lo, min(out, (size - 1 + padding - i) // stride + 1))
    first = lo * stride + i - padding
    return slice(lo, hi), slice(first, first + (hi - lo) * stride, stride)


def conv2d(x, w, b, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution, NCHW layout, square kernel, single stride/pad value.

    im2col + GEMM over the whole batch. The columns matrix is
    batch-innermost, cols[(ci, i, j), (oy, ox, m)] =
    xpad[m, ci, oy * stride + i, ox * stride + j], shape (c·k², L·n) with
    L = oh·ow, where xpad is the input zero-padded by p. The padded input
    is never built: cols starts at zero and each of the k² taps copies only
    the strided window of x that lands inside it (see _taps), which keeps a
    padded copy of the batch out of the forward's peak memory. Each pass is
    one GEMM, the weight gradient one per 256 columns (_batch_gemm):

      forward          out (f, L·n) = w2 (f, c·k²) @ cols, bias added in place
      weight gradient  gw  (f, c·k²) = gT (f, L·n) @ cols.T
      input gradient   gc  (c·k², L·n) = w2.T @ gT, then k² col2im adds

    where gT is the output gradient as (f, L·n). The backward reuses cols.
    col2im mirrors the forward: each tap adds its window of gc straight into
    a zeroed, unpadded (c, h, w, n) input gradient.

    The output is the (n, f, oh, ow) view of the (f, L·n) product, and the
    input gradient the same view of its (c, h, w, n) buffer; neither is
    copied. Elementwise ops keep that memory order, so the next layer's tap
    copies and col2im adds run over ow·n contiguous elements, and gT is a
    free reshape of a gradient that comes back in the same order. Any other
    input, such as the NCHW image batch, is read through the same view.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    n, c, h, wd = x.data.shape
    f, c2, k, k2 = w.data.shape
    if c != c2 or k != k2:
        raise ValueError(f"kernel {w.data.shape} does not match input {x.data.shape}")
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    taps_y = [_taps(i, h, oh, stride, padding) for i in range(k)]
    taps_x = [_taps(j, wd, ow, stride, padding) for j in range(k)]

    xt = x.data.transpose(1, 2, 3, 0)
    cols = np.zeros((c, k, k, oh, ow, n), x.data.dtype)
    for i, (out_y, in_y) in enumerate(taps_y):
        for j, (out_x, in_x) in enumerate(taps_x):
            cols[:, i, j, out_y, out_x] = xt[:, in_y, in_x]
    cols = cols.reshape(c * k * k, oh * ow * n)
    w2 = w.data.reshape(f, c * k * k)
    out = w2 @ cols
    out += b.data[:, None]
    out_data = out.reshape(f, oh, ow, n).transpose(3, 0, 1, 2)

    def backward(g):
        gT = g.transpose(1, 2, 3, 0).reshape(f, oh * ow * n)
        if b.requires_grad:
            b._accumulate(gT.sum(axis=1), owned=True)
        if w.requires_grad:
            w._accumulate(_batch_gemm(gT, cols.T).reshape(w.data.shape), owned=True)
        if x.requires_grad:
            gcols = (w2.T @ gT).reshape(c, k, k, oh, ow, n)
            gx = np.zeros((c, h, wd, n), x.data.dtype)
            for i, (out_y, in_y) in enumerate(taps_y):
                for j, (out_x, in_x) in enumerate(taps_x):
                    gx[:, in_y, in_x] += gcols[:, i, j, out_y, out_x]
            x._accumulate(gx.transpose(3, 0, 1, 2), owned=True)

    return Tensor._make(out_data, (x, w, b), backward)


# -- training core shared by both stages ----------------------------------------

def wrap(arrays: dict[str, np.ndarray], requires_grad: bool = True) -> dict[str, Tensor]:
    """Leaf tensors over named arrays; the data is shared, not copied."""
    return {k: Tensor(v, requires_grad=requires_grad) for k, v in arrays.items()}


def value_and_grads(arrays: dict[str, np.ndarray], loss_fn):
    """(loss, grads, aux) where loss_fn(wrap(arrays)) gives (scalar Tensor, aux);
    an array the loss does not reach gets a zero gradient."""
    pt = wrap(arrays)
    loss, aux = loss_fn(pt)
    loss.backward()
    grads = {k: t.grad if t.grad is not None else np.zeros_like(t.data)
             for k, t in pt.items()}
    return float(loss.data), grads, aux


def sgd_epoch(arrays: dict[str, np.ndarray], n: int, batch_grads, lr: float,
              rng: np.random.Generator, batch_size: int) -> float:
    """One epoch of minibatch SGD over n items, updating arrays in place.

    batch_grads(idx) gives (mean loss, grads) over the items idx of each batch
    of a permutation. Returns the mean loss per item.
    """
    if lr < 0:
        raise ConfigError("learning rate must be >= 0")
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    if n < 1:
        raise ConfigError(f"an epoch needs at least one item, got {n}")
    order = rng.permutation(n)
    losses = []
    for start in range(0, n, batch_size):
        idx = order[start: start + batch_size]
        try:
            value, grads = batch_grads(idx)
        except NonFiniteLoss as e:
            raise NonFiniteLoss(f"epoch aborted at batch {start // batch_size}: {e}") from e
        for name, g in grads.items():
            arrays[name] -= lr * g
        losses.append((value, len(idx)))
    total = sum(k for _, k in losses)
    return sum(v * k for v, k in losses) / total


def grad_check(arrays: dict[str, np.ndarray], grads: dict[str, np.ndarray], value,
               eps: float, n_samples: int, seed: int) -> float:
    """Max relative error of grads against central finite differences.

    Checks up to n_samples entries drawn without replacement. value()
    gives (loss, kinks) at the current arrays, kinks a list of arrays such as
    rectifier sign patterns; an entry whose +-eps sides differ in kinks is
    redrawn, since the loss is only piecewise smooth. The denominator is
    max(|analytic|, |numeric|, 1e-6), so vanishing gradients do not fail.
    Raises NumericError when every drawn entry was redrawn: a check that
    compared nothing must not pass.
    """
    rng = np.random.default_rng(seed)
    names = sorted(arrays)
    offsets = np.concatenate([[0], np.cumsum([arrays[k].size for k in names])])
    picks = list(rng.permutation(int(offsets[-1])))
    worst = 0.0
    checked = 0
    while checked < n_samples and picks:
        flat_idx = picks.pop()
        t_i = int(np.searchsorted(offsets, flat_idx, side="right") - 1)
        name = names[t_i]
        local = int(flat_idx - offsets[t_i])
        arr = arrays[name].ravel()
        orig = arr[local]
        arr[local] = orig + eps
        hi, kinks_hi = value()
        arr[local] = orig - eps
        lo, kinks_lo = value()
        arr[local] = orig
        if any(not np.array_equal(a, b) for a, b in zip(kinks_hi, kinks_lo)):
            continue
        numeric = (hi - lo) / (2 * eps)
        analytic = grads[name].ravel()[local]
        rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, rel)
        checked += 1
    if checked == 0:
        raise NumericError("grad_check compared no entry: every drawn entry crossed a kink")
    return worst
