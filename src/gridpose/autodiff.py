"""Minimal reverse-mode automatic differentiation on numpy arrays.

Just enough operations for a strided convolutional backbone, the grid
loss, an MLP and an LSTM: elementwise arithmetic, matmul, conv2d,
activations, reshape/transpose/indexing, sum and log-softmax. All data
is float64; gradients accumulate into leaf tensors on backward().

conv2d, where training spends its time, is im2col + GEMM over the whole
batch (Chellapilla et al. 2006): the padded input is unrolled once into a
channel-major (c·k², n·L) column matrix, L = oh·ow output positions per
image, and the forward, the weight gradient and the input gradient are
one BLAS GEMM each against it.

lstm runs a whole LSTM layer over a sequence as one node (Appleyard et al.
2016). The input projection of all B·T frames is one (B·T, in) @ (in, 4h)
GEMM before the recurrence, so each step does one (B, h) @ (h, 4h) GEMM
for the hidden state and elementwise gate work into preallocated
time-major (T, B, ·) buffers. Its backward is written by hand: a reverse
loop fills the (T, B, 4h) gate gradient with one (B, 4h) @ (4h, h) GEMM per
step, then the gradients of wx, wh, b and x are one GEMM or reduction each
over all B·T rows.

The training core at the end (wrap, value_and_grads, the minibatch loop
sgd_epoch and the finite-difference checker grad_check) serves both
training stages: it takes named parameter arrays and a loss closure.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NonFiniteLoss


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
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

    def _accumulate(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar output")
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
        self._accumulate(np.ones_like(self.data))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators -----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


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
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.swapaxes(a.data, -1, -2) @ g
            b._accumulate(_unbroadcast(gb, b.data.shape))

    return Tensor._make(out_data, (a, b), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.data.shape
    out_data = a.data.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(old))

    return Tensor._make(out_data, (a,), backward)


def transpose(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def backward(g):
        a._accumulate(g.transpose(inv))

    return Tensor._make(out_data, (a,), backward)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)
    out_data = np.array(a.data[key])
    advanced = isinstance(key, tuple) and any(isinstance(k, np.ndarray) for k in key)

    def backward(g):
        ga = np.zeros_like(a.data)
        if advanced:
            np.add.at(ga, key, g)
        else:
            ga[key] += g
        a._accumulate(ga)

    return Tensor._make(out_data, (a,), backward)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            if not keepdims:
                g = np.expand_dims(g, axis=axis)
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return Tensor._make(out_data, (a,), backward)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = as_tensor(a)
    n = a.data.size if axis is None else np.prod(
        [a.data.shape[ax] for ax in (axis if isinstance(axis, tuple) else (axis,))]
    )
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / float(n))


def leaky_relu(a, slope: float = 0.1) -> Tensor:
    a = as_tensor(a)
    pos = a.data > 0
    out_data = np.where(pos, a.data, slope * a.data)

    def backward(g):
        a._accumulate(g * np.where(pos, 1.0, slope))

    return Tensor._make(out_data, (a,), backward)


def relu(a) -> Tensor:
    return leaky_relu(a, slope=0.0)


def logistic(x) -> np.ndarray:
    """Numerically stable logistic function on an array, without masks.

    With e = exp(-|x|) it is 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    the same operations per element as the branch form, so the values are
    the same bits; exp never overflows. NaN stays NaN.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    out_data = logistic(a.data)

    def backward(g):
        a._accumulate(g * out_data * (1.0 - out_data))

    return Tensor._make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - out_data * out_data))

    return Tensor._make(out_data, (a,), backward)


def lstm(x, wx, wh, b) -> Tensor:
    """One LSTM layer over a whole sequence as a single node.

    x (B, T, in), wx (in, 4h), wh (h, 4h), b (4h,) -> hidden states (B, T, h),
    starting from zero hidden and cell states. The gate blocks of the 4h
    axis are input, forget, cell candidate and output, in that order:

      gates_t = (x_t @ wx + h_{t-1} @ wh) + b
      c_t = f * c_{t-1} + i * g,   h_t = o * tanh(c_t)

    The input projection of every step is one GEMM over B·T rows before the
    recurrence (Appleyard et al. 2016), so a step costs one (B, h) @ (h, 4h)
    GEMM and a few elementwise passes. The backward walks the steps in
    reverse, filling a (T, B, 4h) gate gradient dG with one GEMM per step
    (dh_{t-1} = dG_t @ wh.T); then each of dwx = X.T @ dG, dwh = Hprev.T @ dG,
    db = sum(dG) and dx = dG @ wx.T is one GEMM or reduction over B·T rows.
    Buffers are time-major, so a step reads and writes contiguous blocks.
    """
    x, wx, wh, b = as_tensor(x), as_tensor(wx), as_tensor(wh), as_tensor(b)
    n, t, width_in = x.data.shape
    h = wh.data.shape[0]
    if wx.data.shape != (width_in, 4 * h) or wh.data.shape != (h, 4 * h) or b.data.shape != (4 * h,):
        raise ValueError(f"LSTM weights {wx.data.shape}, {wh.data.shape}, {b.data.shape} "
                         f"do not match input {x.data.shape}")
    xs = x.data.transpose(1, 0, 2).reshape(t * n, width_in)
    xg = (xs @ wx.data).reshape(t, n, 4 * h)
    act = np.empty((t, n, 4 * h))        # i, f, g, o after their nonlinearities
    cs = np.zeros((t + 1, n, h))         # cs[s + 1] = c_s, cs[0] = 0
    hs = np.zeros((t + 1, n, h))         # hs[s + 1] = h_s, hs[0] = 0
    tcs = np.empty((t, n, h))            # tanh(c_s)
    for s in range(t):
        gates = xg[s] + hs[s] @ wh.data
        gates += b.data
        act[s] = logistic(gates)
        np.tanh(gates[:, 2 * h: 3 * h], out=act[s, :, 2 * h: 3 * h])
        i, f, g, o = act[s, :, :h], act[s, :, h: 2 * h], act[s, :, 2 * h: 3 * h], act[s, :, 3 * h:]
        c = cs[s + 1]
        np.multiply(f, cs[s], out=c)
        c += i * g
        np.tanh(c, out=tcs[s])
        np.multiply(o, tcs[s], out=hs[s + 1])
    out_data = hs[1:].transpose(1, 0, 2)

    def backward(gout):
        gh = gout.transpose(1, 0, 2)
        i, f, g, o = act[..., :h], act[..., h: 2 * h], act[..., 2 * h: 3 * h], act[..., 3 * h:]
        # Per-step factors that turn dc_t (for i, f, g) and dh_t (for o)
        # into the pre-activation gate gradients, for all steps at once.
        dc_to_gates = np.concatenate([g * i * (1.0 - i), cs[:-1] * f * (1.0 - f),
                                      i * (1.0 - g * g)], axis=-1).reshape(t, n, 3, h)
        dh_to_o = tcs * o * (1.0 - o)
        dh_to_dc = o * (1.0 - tcs * tcs)
        dG = np.empty((t, n, 4, h))
        dh = np.zeros((n, h))
        dc = np.zeros((n, h))
        for s in range(t - 1, -1, -1):
            dh += gh[s]
            dc += dh * dh_to_dc[s]
            np.multiply(dc[:, None, :], dc_to_gates[s], out=dG[s, :, :3])
            np.multiply(dh, dh_to_o[s], out=dG[s, :, 3])
            if s:
                dc *= f[s]
                dh = dG[s].reshape(n, 4 * h) @ wh.data.T
        dG2 = dG.reshape(t * n, 4 * h)
        if b.requires_grad:
            b._accumulate(dG2.sum(axis=0))
        if wx.requires_grad:
            wx._accumulate(xs.T @ dG2)
        if wh.requires_grad:
            wh._accumulate(hs[:-1].reshape(t * n, h).T @ dG2)
        if x.requires_grad:
            x._accumulate((dG2 @ wx.data.T).reshape(t, n, width_in).transpose(1, 0, 2))

    return Tensor._make(out_data, (x, wx, wh, b), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - lse

    def backward(g):
        soft = np.exp(out_data)
        a._accumulate(g - soft * g.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (a,), backward)


def conv2d(x, w, b, stride: int = 1, padding: int = 0) -> Tensor:
    """2D convolution, NCHW layout, square kernel, single stride/pad value.

    im2col + GEMM over the whole batch. The columns matrix is channel-major,
    cols[(ci, i, j), (m, oy, ox)] = xpad[m, ci, oy * stride + i, ox * stride + j],
    shape (c·k², n·L) with L = oh·ow, built from k² strided copies of the
    padded input held as (c, n, h + 2p, w + 2p). Each pass is one GEMM:

      forward          out (f, n·L) = w2 (f, c·k²) @ cols, bias added in place
      weight gradient  gw  (f, c·k²) = gT (f, n·L) @ cols.T
      input gradient   gc  (c·k², n·L) = w2.T @ gT, then k² strided col2im adds

    where gT is the output gradient as (f, n·L). The backward reuses cols.
    A 1x1 kernel at stride 1 without padding skips the pad and the k² copies:
    its cols is the input itself as (c, n·L).

    The output is an (n, f, oh, ow) view of the (f, n·L) product, not a copy.
    Elementwise ops keep that channel-major memory order, so the next layer
    fills its padded input with contiguous reads, and gT is a free reshape
    of a gradient that comes back in the same order.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    n, c, h, wd = x.data.shape
    f, c2, k, k2 = w.data.shape
    if c != c2 or k != k2:
        raise ValueError(f"kernel {w.data.shape} does not match input {x.data.shape}")
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    pointwise = k == 1 and stride == 1 and padding == 0
    hp, wp = h + 2 * padding, wd + 2 * padding

    if pointwise:
        cols = x.data.transpose(1, 0, 2, 3).reshape(c, n * oh * ow)
    else:
        xp = np.zeros((c, n, hp, wp))
        xp[:, :, padding: padding + h, padding: padding + wd] = x.data.transpose(1, 0, 2, 3)
        cols = np.empty((c, k, k, n, oh, ow))
        for i in range(k):
            for j in range(k):
                cols[:, i, j] = xp[:, :, i: i + stride * oh: stride, j: j + stride * ow: stride]
        cols = cols.reshape(c * k * k, n * oh * ow)
    w2 = w.data.reshape(f, c * k * k)
    out = w2 @ cols
    out += b.data[:, None]
    out_data = out.reshape(f, n, oh, ow).transpose(1, 0, 2, 3)

    def backward(g):
        gT = g.transpose(1, 0, 2, 3).reshape(f, n * oh * ow)
        if b.requires_grad:
            b._accumulate(gT.sum(axis=1))
        if w.requires_grad:
            w._accumulate((gT @ cols.T).reshape(w.data.shape))
        if x.requires_grad:
            gcols = w2.T @ gT
            if pointwise:
                gx = gcols.reshape(c, n, h, wd)
            else:
                gcols = gcols.reshape(c, k, k, n, oh, ow)
                gxp = np.zeros((c, n, hp, wp))
                for i in range(k):
                    for j in range(k):
                        gxp[:, :, i: i + stride * oh: stride, j: j + stride * ow: stride] += gcols[:, i, j]
                gx = gxp[:, :, padding: padding + h, padding: padding + wd]
            x._accumulate(gx.transpose(1, 0, 2, 3))

    return Tensor._make(out_data, (x, w, b), backward)


# -- training core shared by both stages ----------------------------------------

def wrap(arrays: dict[str, np.ndarray], requires_grad: bool = True) -> dict[str, Tensor]:
    """Leaf tensors over named float64 arrays; the data is shared, not copied."""
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
    return worst
