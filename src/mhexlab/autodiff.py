"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A ``Tensor`` wraps an ndarray together with backward closures; the recorded
forward graph (the tape) is the DAG of parent links. The graph is retained
after backward passes so several losses from one forward pass can each be
differentiated with respect to the same parameter (``grad_wrt``).

``backward`` sweeps every node that leads to the loss. A single-target
gradient (``grad_wrt``, ``adjoint``) sweeps only the nodes that both
descend from the target and lead to the loss (activity analysis, as in
Griewank & Walther, *Evaluating Derivatives*, 2008); every other node's
adjoint cannot reach the target. The result is bit-identical to the full
sweep's, because the same adjoints are summed in the same order.

The tape holds the activations and little else. ``conv2d`` builds its
im2col columns in chunks of samples of at most ``_COLS_BYTES`` and rebuilds
them in its backward closure instead of keeping them (the recomputation trade
of Chen et al., *Training Deep Nets with Sublinear Memory Cost*, 2016). The
reverse sweep drops each adjoint once the node's closure has consumed it.

``conv2d`` spreads a batch's chunks over the usable CPUs (the batch split of
Hadjis et al., *Caffe con Troll*, 2015): one contiguous range of samples per
worker, the calling thread included, on a thread pool made by the first call
that needs it. A worker runs the same per-sample GEMMs into its own rows of
the output and gradient buffers, using scratch (padded input and columns)
that the calling thread allocates; the weight gradient is summed on the
calling thread once all have finished. So every result is bit-identical
whatever the split. A batch with less than two chunks' worth of columns, such
as any batch-1 call, runs on the calling thread alone.

Inside ``no_grad()`` nothing is recorded: a new tensor keeps no parents and
no closure, so a forward-only pass frees each intermediate once the next op
has read it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, DimensionError, ConfigurationError

_recording = True
LAYER_NORM_EPS = 1e-5
# im2col columns of one conv2d chunk; a fresh array above glibc's mmap
# threshold page-faults on every call, 2 MB chunks reuse heap pages
_COLS_BYTES = 1 << 21
# conv2d spreads its sample chunks over the usable CPUs, the calling thread
# included; the pool of the other _WORKERS - 1 starts on the first such call
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_pool = None


def _forget_pool():
    global _pool
    _pool = None        # a forked child has none of the parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@contextmanager
def no_grad():
    """Record no tape for the tensors built inside the block (nests)."""
    global _recording
    prev, _recording = _recording, False
    try:
        yield
    finally:
        _recording = prev


class Tensor:
    """Node of the differentiation tape.

    ``data`` is always float64. ``grad`` stays ``None`` until ``backward``
    populates it; repeated backward calls accumulate. Under ``no_grad`` the
    parents and the backward closure are dropped here, for every primitive.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = tuple(_parents) if _recording else ()
        self._backward = _backward if _recording else None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    out_data = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
        )

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def relu(x):
    x = _as_tensor(x)
    mask = x.data > 0  # subgradient at 0 is 0

    def backward(g):
        return (g * mask,)

    return Tensor(np.where(mask, x.data, 0.0), _parents=(x,), _backward=backward)


def sigmoid(x):
    x = _as_tensor(x)
    # two-branch form, stable for large |x|: 1/(1+e) for x >= 0, e/(1+e) below
    e = np.exp(-np.abs(x.data))
    out_data = np.where(x.data >= 0, 1.0, e) / (1.0 + e)

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def sum_axis(x, axis=None, keepdims=False):
    x = _as_tensor(x)
    out_data = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, x.data.shape).copy(),)
        gg = g
        if not keepdims:
            gg = np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.data.shape).copy(),)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def mean_all(x):
    x = _as_tensor(x)
    n = x.data.size
    return mul(sum_axis(x), 1.0 / n)


def reshape(x, shape):
    x = _as_tensor(x)

    def backward(g):
        return (g.reshape(x.data.shape),)

    return Tensor(x.data.reshape(shape), _parents=(x,), _backward=backward)


def transpose(x, axes):
    x = _as_tensor(x)
    inv = np.argsort(axes)

    def backward(g):
        return (g.transpose(inv),)

    return Tensor(x.data.transpose(axes), _parents=(x,), _backward=backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    """Matrix product; stacked (batched) operands share leading dims, or one
    operand may be a plain 2-D matrix."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise DimensionError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise DimensionError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    if a.data.ndim > 2 and b.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]:
        raise DimensionError(f"matmul leading dims differ: {a.shape} @ {b.shape}")
    out_data = np.matmul(a.data, b.data)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def _scratch(size, x_shape, pad, k, l):
    """One worker's ``conv2d`` scratch for chunks of up to ``size`` samples of
    ``x_shape`` (N,C,H,W): a zero-bordered padded input (``None`` without
    padding) and an (size, k, l) column buffer."""
    _, c, h, w = x_shape
    xp = np.zeros((size, c, h + 2 * pad, w + 2 * pad)) if pad else None
    return xp, np.empty((size, k, l))


def _columns(x, kh, kw, stride, pad, xp, cols):
    """im2col columns (m, C*kh*kw, oh*ow) of ``x`` (m,C,H,W) zero-padded by
    ``pad``, written into the first m samples of ``cols`` (a 1x1, stride-1
    kernel without padding reads ``x`` itself); the padding goes through
    ``xp``, whose border is zero (see ``_scratch``)."""
    m, c, h, w = x.shape
    if kh == kw == stride == 1 and not pad:
        # 1x1 columns are x itself, a view where numpy can make one: a GEMM
        # operand keeps the layout of x and so its BLAS rounding
        return x.reshape(m, c, h * w)
    if pad:     # np.pad's own overhead outweighs a batch-1 GEMM
        xp = xp[:m]
        xp[:, :, pad:pad + h, pad:pad + w] = x
        x = xp
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (w + 2 * pad - kw) // stride + 1
    sn, sc, sh, sw = x.strides
    # win[n, c, i, j, a, b] = x[n, c, stride*a + i, stride*b + j]: the windows
    # sliding_window_view gives, without its per-call argument handling; a
    # contiguous x is viewed through its buffer (as_strided costs ~6 us a call)
    shape, strides = (m, c, kh, kw, oh, ow), (sn, sc, sh, sw, stride * sh, stride * sw)
    win = (np.ndarray(shape, x.dtype, x, 0, strides) if x.flags.c_contiguous
           else as_strided(x, shape, strides, writeable=False))
    out = cols[:m]
    np.copyto(out.reshape(m, c, kh, kw, oh, ow), win)
    return out


def _chunks(n, sample_bytes):
    """``conv2d``'s split of ``n`` samples: contiguous (lo, hi) ranges of
    near-equal length, one per worker that gets at least ``_COLS_BYTES`` of
    columns (at most ``_WORKERS``, at least one), and one chunk size that cuts
    each range into equal chunks whose columns fit ``_COLS_BYTES`` (at least
    one sample per chunk)."""
    step = max(1, _COLS_BYTES // sample_bytes)
    groups = max(1, min(_WORKERS, n * sample_bytes // _COLS_BYTES))
    span = -(-n // groups)                          # the longest range
    chunks = -(-span // step)                       # in the longest range
    size = -(-span // chunks) if chunks else 1
    return [(n * t // groups, n * (t + 1) // groups) for t in range(groups)], size


def _spread(task, ranges):
    """Run ``task(t, lo, hi)`` for each range ``t``: the first on the calling
    thread, the others on the pool, and return once all have finished. A
    task calls only numpy and private helpers, whose copies and GEMMs
    release the GIL, and writes only its own samples' rows."""
    global _pool
    if len(ranges) == 1:
        task(0, *ranges[0])
        return
    if _pool is None:       # its import alone costs a CLI start-up ~7 ms
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="conv2d")
    futures = [_pool.submit(task, t, lo, hi) for t, (lo, hi) in enumerate(ranges) if t]
    try:
        task(0, *ranges[0])
    finally:
        errors = [f.exception() for f in futures]      # waits for each task
    for err in errors:
        if err is not None:
            raise err


def conv2d(x, w, stride=1, pad=0):
    """Cross-correlation with zero padding.

    ``x`` is (N,C,H,W); ``w`` is (O,C,kh,kw). The output extent is
    floor((H + 2*pad - kh) / stride) + 1.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    xd = x.data
    if xd.ndim != 4 or w.data.ndim != 4:
        raise DimensionError(f"conv2d expects (N,C,H,W) and (O,C,kh,kw), got {x.shape}, {w.shape}")
    n, c, h, wd_ = xd.shape
    o, cw, kh, kw = w.data.shape
    if cw != c:
        raise DimensionError(f"conv2d channel mismatch: input {c} vs kernel {cw}")
    if kh > h + 2 * pad or kw > wd_ + 2 * pad:
        raise DimensionError(f"kernel {kh}x{kw} larger than padded input {h + 2 * pad}x{wd_ + 2 * pad}")
    if stride < 1:
        raise ConfigurationError(f"conv2d stride must be >= 1, got {stride}")
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd_ + 2 * pad - kw) // stride + 1
    k, l = c * kh * kw, oh * ow
    ranges, size = _chunks(n, 8 * k * l)
    wdat = w.data
    wk = wdat.reshape(o, k)
    # what outlives the call comes before the scratch, so that the freed
    # scratch does not sit under it in the heap (peak RSS)
    out_data = np.empty((n, o, l))
    scratch = [_scratch(size, xd.shape, pad, k, l) for _ in ranges]

    def forward(t, lo, hi):
        # the same per-sample GEMMs as one stacked matmul, in any split
        xp, cols = scratch[t]
        for a in range(lo, hi, size):
            b = min(a + size, hi)
            np.matmul(wk, _columns(xd[a:b], kh, kw, stride, pad, xp, cols), out=out_data[a:b])

    _spread(forward, ranges)
    out_data = out_data.reshape(n, o, oh, ow)

    def backward(g):
        gm = g.reshape(n, o, l)
        gxp = np.zeros((n, c, h + 2 * pad, wd_ + 2 * pad))    # before the scratch,
        gw = np.empty(wdat.shape)                              # as in the forward
        gwn = np.empty((n, o, k))
        rows = [wdat[:, :, i].transpose(2, 1, 0).reshape(kw * c, o) for i in range(kh)]
        scratch = [_scratch(size, xd.shape, pad, k, l) for _ in ranges]

        def task(t, lo, hi):
            xp, cols = scratch[t]
            for a in range(lo, hi, size):
                b = min(a + size, hi)
                # one GEMM per sample as in the forward, summed over the batch
                # below (einsum without optimize runs numpy's own loop, not BLAS)
                cm = _columns(xd[a:b], kh, kw, stride, pad, xp, cols)
                np.matmul(gm[a:b], cm.transpose(0, 2, 1), out=gwn[a:b])
                # one GEMM per kernel row, not a cols-sized one; per tap, a
                # 1-channel input would become a matrix-vector product that
                # rounds differently. The spent columns' buffer takes each row.
                drow = cols.reshape(-1)[:(b - a) * kw * c * l].reshape(b - a, kw * c, l)
                for i in range(kh):
                    np.matmul(rows[i], gm[a:b], out=drow)
                    d = drow.reshape(b - a, kw, c, oh, ow)
                    for j in range(kw):
                        gxp[a:b, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += d[:, j]

        _spread(task, ranges)
        gwn.sum(axis=0, out=gw.reshape(o, k))
        gx = gxp[:, :, pad:pad + h, pad:pad + wd_] if pad else gxp
        return gx, gw

    return Tensor(out_data, _parents=(x, w), _backward=backward)


def global_avg_pool(x):
    """Spatial mean over the trailing two axes: (C,H,W)->(C,), (N,C,H,W)->(N,C)."""
    x = _as_tensor(x)
    if x.data.ndim < 3:
        raise DimensionError(f"global_avg_pool expects >=3-D input, got {x.shape}")
    h, w = x.data.shape[-2:]
    out_data = x.data.mean(axis=(-2, -1))

    def backward(g):
        return (np.broadcast_to(g[..., None, None] / (h * w), x.data.shape).copy(),)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def layer_norm(x, gamma=None, beta=None):
    """Standardize the last axis, then apply the optional affine map."""
    x = _as_tensor(x)
    d = x.data.shape[-1]
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True)     # np.var's own steps
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    gdat = gamma.data if gamma is not None else np.ones(d)
    bdat = beta.data if beta is not None else np.zeros(d)
    out_data = xhat * gdat + bdat
    parents = [x] + ([gamma] if gamma is not None else []) + ([beta] if beta is not None else [])

    def backward(g):
        gxhat = g * gdat
        gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        grads = [gx]
        if gamma is not None:
            grads.append((g * xhat).reshape(-1, d).sum(axis=0).reshape(gamma.data.shape))
        if beta is not None:
            grads.append(g.reshape(-1, d).sum(axis=0).reshape(bdat.shape))
        return tuple(grads)

    return Tensor(out_data, _parents=parents, _backward=backward)


def softmax_last(x, additive_mask=None):
    """Softmax over the last axis; ``additive_mask`` (ndarray) is added to the
    logits first (large negatives suppress padded positions)."""
    x = _as_tensor(x)
    z = x.data + additive_mask if additive_mask is not None else x.data
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return Tensor(s, _parents=(x,), _backward=backward)


def softmax_cross_entropy(logits, targets):
    """Mean negative log softmax probability of the target classes.

    ``logits`` is (B, C); ``targets`` are class indices.
    """
    logits = _as_tensor(logits)
    ld = logits.data
    if ld.ndim != 2:
        raise DimensionError(f"logits must be (B,C), got {logits.shape}")
    t = np.atleast_1d(np.asarray(targets, dtype=np.intp))
    b, c = ld.shape
    if t.shape != (b,):
        raise DimensionError(f"targets shape {t.shape} does not match batch {b}")
    if t.min() < 0 or t.max() >= c:
        raise IndexError(f"target out of range [0, {c})")
    z = ld - ld.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(logsumexp - z[np.arange(b), t]))
    probs = np.exp(z - logsumexp[:, None])

    def backward(g):
        gl = probs.copy()
        gl[np.arange(b), t] -= 1.0
        gl *= float(g) / b
        return (gl,)

    return Tensor(loss, _parents=(logits,), _backward=backward)


def nearest_resize(x, out_hw):
    """Nearest-neighbor resize of the trailing two axes."""
    x = _as_tensor(x)
    h, w = x.data.shape[-2:]
    h2, w2 = out_hw
    ir = (np.arange(h2) * h) // h2
    ic = (np.arange(w2) * w) // w2
    out_data = x.data[..., ir[:, None], ic[None, :]]

    def backward(g):
        gx = np.zeros_like(x.data).reshape(-1, h, w)
        gg = g.reshape(-1, h2, w2)
        m = gx.shape[0]
        np.add.at(gx, (np.arange(m)[:, None, None], ir[None, :, None], ic[None, None, :]), gg)
        return (gx.reshape(x.data.shape),)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def embedding(table, ids):
    """Row lookup into ``table`` (V, D) by integer ``ids`` (any shape)."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.intp)

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.data.shape[1]))
        return (gt,)

    return Tensor(table.data[ids], _parents=(table,), _backward=backward)


def masked_seq_mean(x, keep_mask):
    """Mean over the sequence axis of (B, S, D), counting positions where
    ``keep_mask`` (B, S) is truthy."""
    x = _as_tensor(x)
    m = np.asarray(keep_mask, dtype=np.float64)
    counts = m.sum(axis=1)
    if np.any(counts == 0):
        raise ContractError("masked_seq_mean: a sequence has no kept positions")
    out_data = (x.data * m[:, :, None]).sum(axis=1) / counts[:, None]

    def backward(g):
        return (g[:, None, :] * m[:, :, None] / counts[:, None, None],)

    return Tensor(out_data, _parents=(x,), _backward=backward)


# ---------------------------------------------------------------------------
# backward engine


def _topo_order(root):
    order, seen = [], set()
    stack = [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order  # parents before children


def _reverse(loss, order, marked=None):
    """Reverse loop over ``order`` (parents before children); with
    ``marked`` (a set of ids), adjoints flow only into marked parents.

    Once a node's closure has run, its entry is set to ``None``: every
    child has already added to it, so nothing reads it again. The key stays,
    and so do the adjoints of nodes without a closure (leaves such as
    parameters, and the target of ``adjoint``, which is not swept)."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    adj = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = adj.get(id(node))
        if g is None or node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            key = id(parent)
            if pg is None or (marked is not None and key not in marked):
                continue
            if key in adj:
                adj[key] = adj[key] + pg
            else:
                adj[key] = pg
        adj[id(node)] = None
    return adj


def _adjoints(loss):
    """Full reverse sweep; returns ({id(tensor): adjoint ndarray}, order)
    without touching any ``.grad`` buffer."""
    order = _topo_order(loss)
    return _reverse(loss, order), order


def adjoint(loss, target):
    """d(loss)/d(target) as an ndarray, or ``None`` when ``target`` does not
    influence ``loss``. ``target`` may be any node on the tape.

    Only the descendants of ``target`` are swept. Every child that adds to a
    descendant's adjoint is itself a descendant, and the loop keeps the full
    sweep's order, so the result equals the full sweep's bit for bit.
    """
    marked = {id(target)}
    path = []
    for node in _topo_order(loss):
        if any(id(p) in marked for p in node._parents):
            marked.add(id(node))
            path.append(node)
    return _reverse(loss, path, marked).get(id(target))


def backward(loss):
    """Populate ``.grad`` of every requires_grad tensor reachable from
    ``loss`` (accumulating on repeated calls). The graph is retained."""
    adj, order = _adjoints(loss)
    for node in order:
        if node.requires_grad and id(node) in adj:
            g = adj[id(node)]
            node.grad = g.copy() if node.grad is None else node.grad + g


def grad_wrt(loss, param):
    """d(loss)/d(param) without disturbing pending ``.grad`` buffers.

    Sweeps only the nodes between ``param`` and ``loss`` (see ``adjoint``);
    the result is bit-identical to the full sweep's. Returns a zero tensor
    when ``param`` does not influence ``loss``.
    """
    if not isinstance(param, Tensor) or not param.requires_grad:
        raise ContractError("grad_wrt: param is not a differentiable tensor on the tape")
    g = adjoint(loss, param)
    return Tensor(np.zeros_like(param.data) if g is None else g)
