"""Reverse-mode automatic differentiation over dense float64 numpy arrays.

A ``Tensor`` holds a value (``data``) and, if an op recorded it, that op's
tape node (``_node``): a ``_Node`` with the nodes of the op's parents and
its backward closure, but no output. A leaf is its own node. The recorded
forward graph (the tape) is the DAG of these nodes; it is retained after a
sweep, so several losses from one forward pass can each be differentiated
with respect to the same parameter (``grad_wrt``).

Gradients are returned, not stored: ``backward`` gives every
``requires_grad`` leaf's, ``grad_wrt`` one parameter's. Each sweeps only
the nodes that descend from such a tensor and lead to the loss (activity
analysis, as in Griewank & Walther, *Evaluating Derivatives*, 2008), so a
frozen parameter or the input gets no adjoint. The result is bit-identical
to a full sweep's, because the same adjoints are summed in the same order.

The tape keeps what closures read. Each closure captures the shapes and
arrays its gradient needs, never a parent ``Tensor``, so an intermediate
that no closure reads (a conv output that feeds ``relu`` or ``add``, an
``add`` output that feeds ``relu``, a resize or product) is freed with its
``Tensor`` once the next op has read it; PyTorch's autograd keeps only what
each op saves for its backward in the same way (Paszke et al., NeurIPS
2019). ``conv2d`` builds its im2col columns in chunks of samples of at most
``_COLS_BYTES`` and rebuilds them in its backward closure instead of keeping
them (the recomputation trade of Chen et al., *Training Deep Nets with
Sublinear Memory Cost*, 2016). It adds a layer's bias itself, and computes
no input gradient for a leaf that asks for none (the image batch); ``relu``
reads its gradient mask from its own output instead of storing one (no
buffer that no backward reads, as in Rota Bulò et al., *In-Place Activated
BatchNorm*, 2018). The reverse sweep drops each adjoint once the node's
closure has consumed it.

``conv2d`` spreads its work over the usable CPUs, the calling thread
included, on a thread pool made by the first call that needs it. Its
forward gives each worker one contiguous range of samples (the batch split
of Hadjis et al., *Caffe con Troll*, 2015), which runs the same per-sample
GEMMs into its own rows of the output. Its backward splits the work by kind
instead: the calling thread makes every sample's columns and adds its kernel
gradient into the weight gradient as it goes, in sample order, so no
batch-sized block of them is held; the other workers make the input
gradients, which read no columns, taking chunks of samples in turn, and the
calling thread takes those still left once its own work is done. Each
sample's products are the same GEMMs on any thread, so every result is
bit-identical whatever the split. The calling thread allocates all scratch
(padded input, columns, and a buffer per input-gradient worker). A call
spreads only if each of its ranges would hold a chunk's worth of columns and
``_SPREAD_SAMPLES`` samples; so a ``conv2d`` batch below 64 runs on the
calling thread alone, and so does a backward that makes no input gradient.

A forward without a tape spreads over the same pool a level up, a batch's
whole chunks (``_spread_batch``, which ``ResNetModel._spread_backbone`` uses):
``_batch_chunks`` gives one range per worker, cut into chunks of 2 to
``_BATCH_CHUNK`` samples, so a 20-step curve's prediction runs as 2 ranges of
two 5-sample chunks on 2 CPUs. Every chunk holds at least 2 samples, so the
rows keep their bits. A task marks its thread as inside a task: a
``_spread`` called there, such as a nested ``conv2d``'s, runs all its ranges
on that thread (no deadlock on a small pool, no oversubscription), and a
nested ``conv2d`` takes one range whose columns fit ``_COLS_BYTES`` divided
by the number of tasks, so the tasks together hold no more columns than one
top-level call.

Inside ``no_grad()`` nothing is recorded: a new tensor gets no node, so
every tensor is a leaf and no closure keeps an array alive. The flag is the
thread's own, so a task can enter ``no_grad`` while another thread tapes.
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ContractError, DimensionError, ConfigurationError

LAYER_NORM_EPS = 1e-5
# im2col columns of one conv2d chunk; a fresh array above glibc's mmap
# threshold page-faults on every call, 2 MB chunks reuse heap pages
_COLS_BYTES = 1 << 21
# conv2d and a forward without a tape spread their sample chunks over the
# usable CPUs, the calling thread included; the one pool of the other
# _WORKERS - 1 starts on the first such call
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# a worker gets a range only if it holds this many samples: on 2 vCPUs, a
# whole CNN pass spread over both took 0.7-0.8 of one thread's time at batch
# 64 but 0.8-1.0 at batch 20, with or without a tape, and up to 1.3 when the
# other vCPU was busy
_SPREAD_SAMPLES = 32
# a forward spread by _batch_chunks runs chunks of at most this many samples:
# on 2 vCPUs a 20-step default-CNN curve's tracemalloc peak was 4.4-4.6 MB in
# 5-sample chunks, 7.0 in one 10-sample chunk per worker, 7.42 on one thread
_BATCH_CHUNK = 5
_pool = None


class _ThreadState(threading.local):
    """What each thread has of its own: whether new tensors record a tape
    (``no_grad`` clears it), and inside a ``_spread`` task the number of its
    ranges, which share ``_COLS_BYTES`` (0 outside any task)."""
    recording = True
    ranges = 0


_state = _ThreadState()


def _forget_pool():
    global _pool
    _pool = None        # a forked child has none of the parent's threads


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


@contextmanager
def no_grad():
    """Record no tape for the tensors built inside the block (nests)."""
    prev, _state.recording = _state.recording, False
    try:
        yield
    finally:
        _state.recording = prev


class _Node:
    """One recorded op: the nodes of its parents (a leaf stands for itself)
    and the backward closure that maps the op's output adjoint to theirs.
    It holds no output: what a closure reads, it captures itself."""

    __slots__ = ("_parents", "_backward")
    requires_grad = False

    def __init__(self, parents, backward):
        self._parents = parents
        self._backward = backward


class Tensor:
    """A value and, if an op recorded it, the tape node that made it.

    ``data`` is always float64; ``requires_grad`` asks ``backward`` for a
    leaf's gradient. A leaf (no ``_node``) is its own node on the tape.
    Under ``no_grad`` no node is made, for every primitive.
    """

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self._node = (_Node(tuple(p._node or p for p in _parents), _backward)
                      if _backward is not None and _state.recording else None)

    @property
    def _parents(self):
        return self._node._parents if self._node is not None else ()

    @property
    def _backward(self):
        return self._node._backward if self._node is not None else None

    @_backward.setter
    def _backward(self, fn):
        self._node._backward = fn

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
    a_shape, b_shape = a.data.shape, b.data.shape

    def backward(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.data, b.data
    out_data = av * bv

    def backward(g):
        return _unbroadcast(g * bv, av.shape), _unbroadcast(g * av, bv.shape)

    return Tensor(out_data, _parents=(a, b), _backward=backward)


def relu(x):
    x = _as_tensor(x)
    # the bits of np.where(x > 0, x, 0.0) without its branchy select: fmax
    # gives 0.0 for NaN but keeps -0.0, which adding +0.0 turns into +0.0 (a
    # signalling NaN, which no arithmetic makes, may come back as NaN)
    out_data = np.fmax(x.data, 0.0)
    out_data += 0.0

    def backward(g):
        return (g * (out_data > 0),)   # out > 0 where x > 0; 0 is subgradient at 0

    return Tensor(out_data, _parents=(x,), _backward=backward)


def sigmoid(x):
    x = _as_tensor(x)
    # two-branch form, stable for large |x|: 1/(1+e) for x >= 0, e/(1+e) below
    e = np.exp(-np.abs(x.data))
    out_data = np.where(x.data >= 0, 1.0, e) / (1.0 + e)

    def backward(g):
        return (g * out_data * (1.0 - out_data),)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def sum_axis(x):
    x = _as_tensor(x)
    x_shape = x.data.shape

    def backward(g):
        return (np.broadcast_to(g, x_shape).copy(),)

    return Tensor(x.data.sum(), _parents=(x,), _backward=backward)


def reshape(x, shape):
    x = _as_tensor(x)
    x_shape = x.data.shape

    def backward(g):
        return (g.reshape(x_shape),)

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
    av, bv = a.data, b.data
    out_data = np.matmul(av, bv)

    def backward(g):
        ga = np.matmul(g, np.swapaxes(bv, -1, -2))
        gb = np.matmul(np.swapaxes(av, -1, -2), g)
        return _unbroadcast(ga, av.shape), _unbroadcast(gb, bv.shape)

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


def _cols_budget():
    """Bytes of im2col columns one ``conv2d`` may hold: ``_COLS_BYTES``, or
    its share inside a ``_spread`` task, so that the tasks together hold no
    more than one top-level call."""
    return _COLS_BYTES // max(1, _state.ranges)


def _chunks(n, sample_bytes):
    """``conv2d``'s split of ``n`` samples: contiguous (lo, hi) ranges of
    near-equal length, one per worker that gets at least ``_COLS_BYTES`` of
    columns and ``_SPREAD_SAMPLES`` samples (at most ``_WORKERS``, at least
    one; inside a ``_spread`` task just one), and one chunk size that cuts
    each range into equal chunks whose columns fit ``_cols_budget()`` (at
    least one sample per chunk)."""
    step = max(1, _cols_budget() // sample_bytes)
    groups = 1 if _state.ranges else max(
        1, min(_WORKERS, n * sample_bytes // _COLS_BYTES, n // _SPREAD_SAMPLES))
    span = -(-n // groups)                          # the longest range
    chunks = -(-span // step)                       # in the longest range
    size = -(-span // chunks) if chunks else 1
    return _cut(0, n, groups), size


def _cut(lo, hi, parts):
    """``range(lo, hi)`` as ``parts`` contiguous (lo, hi) pieces, in order,
    whose lengths differ by at most one."""
    return [(lo + (hi - lo) * i // parts, lo + (hi - lo) * (i + 1) // parts)
            for i in range(parts)]


def _batch_chunks(n):
    """The split of a batch of ``n`` samples for ``_spread_batch``: one list
    of (lo, hi) chunks per worker, contiguous and in order, each range cut
    into near-equal chunks of at most ``_BATCH_CHUNK`` samples. Every chunk
    holds at least 2 samples, because a 1-sample GEMM is a matrix-vector
    product, which rounds differently; so on one CPU, below 4 samples or
    inside a ``_spread`` task, the batch is one range of one chunk."""
    groups = 0 if _state.ranges else min(_WORKERS, n // 2)
    if groups <= 1:
        return [[(0, n)]]
    return [_cut(lo, hi, -(-(hi - lo) // _BATCH_CHUNK)) for lo, hi in _cut(0, n, groups)]


def _spread_batch(fn, chunks):
    """``fn(lo, hi)``, the result of rows lo..hi, for every chunk of the
    split ``chunks`` (see ``_batch_chunks``), as a list in order: a range per
    ``_spread`` task, each computed without a tape."""
    rows = [None] * len(chunks)

    def task(t, lo, hi):
        with no_grad():
            rows[t] = [fn(a, b) for a, b in chunks[t]]

    _spread(task, [(c[0][0], c[-1][1]) for c in chunks])
    return [r for part in rows for r in part]


def _sum_rows(acc, rows):
    """Add each of ``rows`` to ``acc`` in order, ``acc`` the first operand.
    From zeros this makes the additions of ``rows.sum(axis=0)``, so its bits
    (no -0.0, and the NaN payload it keeps) over any split of the rows;
    except for rows of one element, which that sum adds pairwise."""
    for row in rows:
        np.add(acc, row, out=acc)


def _spread(task, ranges):
    """Run ``task(t, lo, hi)`` for each range ``t``: the first on the calling
    thread, the others on the pool, and return once all have finished; the
    first error of a task is raised then. No two tasks write the same
    array elements; what a task runs is marked as inside a task
    (``_state.ranges``), so a ``_spread`` called from inside one, such as a
    nested ``conv2d``'s, runs all its ranges on the current thread, in
    order. A ``conv2d`` task calls only numpy and private helpers, whose
    copies and GEMMs release the GIL."""
    global _pool
    if len(ranges) == 1 or _state.ranges:
        for t, (lo, hi) in enumerate(ranges):
            task(t, lo, hi)
        return
    if _pool is None:       # its import alone costs a CLI start-up ~7 ms
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="mhexlab")

    def marked(t, lo, hi):
        _state.ranges = len(ranges)
        try:
            task(t, lo, hi)
        finally:
            _state.ranges = 0

    futures = [_pool.submit(marked, t, lo, hi) for t, (lo, hi) in enumerate(ranges) if t]
    try:
        marked(0, *ranges[0])
    finally:
        errors = [f.exception() for f in futures]      # waits for each task
    for err in errors:
        if err is not None:
            raise err


def conv2d(x, w, stride=1, pad=0, bias=None):
    """Cross-correlation with zero padding, plus ``bias`` (O,) per channel.

    ``x`` is (N,C,H,W); ``w`` is (O,C,kh,kw). The output extent is
    floor((H + 2*pad - kh) / stride) + 1. The bias makes the same additions
    as ``add(conv2d(x, w), reshape(bias, (1, -1, 1, 1)))`` without that
    pair's two nodes. If ``x`` is a leaf without ``requires_grad`` when the
    op is recorded, the closure returns ``None`` for its gradient and skips
    those GEMMs; the kernel and bias gradients keep their bits. The kernel
    gradient adds the per-sample products in sample order (``_sum_rows``)
    without holding the batch's: the calling thread makes them all, holding
    at most ``_cols_budget()`` of them (or one sample's, if larger), while a
    spread's other workers make the input gradient (the calling thread
    helps once its kernel gradients are done).
    """
    x, w = _as_tensor(x), _as_tensor(w)
    bias = None if bias is None else _as_tensor(bias)
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
    if bias is not None and bias.data.shape != (w.data.shape[0],):
        raise DimensionError(f"conv2d bias {bias.shape} does not match {w.data.shape[0]} kernels")
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
    del scratch
    if bias is not None:
        # a new array once the scratch is freed, where a separate add put its
        # output: added in place, per chunk or after the spread, the batch-20
        # curves of evaluate peaked 1.5 MB higher (glibc's heap placement)
        out_data = out_data + bias.data.reshape(o, 1)
    out_data = out_data.reshape(n, o, oh, ow)
    input_grad = x.requires_grad or x._node is not None
    biased = bias is not None

    def backward(g):
        gm = g.reshape(n, o, l)
        # what outlives the call before the scratch, as in the forward
        gxp = np.zeros((n, c, h + 2 * pad, wd_ + 2 * pad)) if input_grad else None
        gw = np.zeros((o, k))
        # the calling thread adds each sample's kernel gradient into gw through
        # a buffer of at most _cols_budget() (see _sum_rows)
        part = min(size, max(1, _cols_budget() // (8 * o * k)))
        gwn = np.empty((part, o, k))
        rows = ([wdat[:, :, i].transpose(2, 1, 0).reshape(kw * c, o) for i in range(kh)]
                if input_grad else None)
        xp, cols = _scratch(size, xd.shape, pad, k, l)
        # spread, the work splits by kind: the calling thread makes every
        # sample's columns and kernel gradient, the other workers the input
        # gradients (no columns), each into a row buffer of its own; the
        # calling thread then takes the chunks of input gradients left, into
        # its spent columns' buffer (an input job can outweigh a kernel job)
        spread = input_grad and len(ranges) > 1
        bufs = [cols] + [np.empty((size, kw * c, l)) for _ in ranges[1:] if spread]
        starts, lock = iter(range(0, n, size)), threading.Lock()

        def input_rows(t, a):
            # one GEMM per kernel row, not a cols-sized one; per tap, a
            # 1-channel input would become a matrix-vector product that
            # rounds differently
            b = min(a + size, n)
            drow = bufs[t].reshape(-1)[:(b - a) * kw * c * l].reshape(b - a, kw * c, l)
            for i in range(kh):
                np.matmul(rows[i], gm[a:b], out=drow)
                d = drow.reshape(b - a, kw, c, oh, ow)
                for j in range(kw):
                    gxp[a:b, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += d[:, j]

        def task(t, lo, hi):
            if not t:
                for a in range(0, n, size):
                    b = min(a + size, n)
                    # one GEMM per sample as in the forward, a stacked call per
                    # buffer (einsum without optimize runs numpy's own loop, not BLAS)
                    cm = _columns(xd[a:b], kh, kw, stride, pad, xp, cols).transpose(0, 2, 1)
                    for s in range(a, b, part):
                        e = min(s + part, b)
                        _sum_rows(gw, np.matmul(gm[s:e], cm[s - a:e - a], out=gwn[:e - s]))
                    if input_grad and not spread:
                        input_rows(0, a)
            while spread:
                with lock:
                    a = next(starts, None)
                if a is None:
                    return
                input_rows(t, a)

        _spread(task, ranges if spread else [(0, n)])
        gw = gw.reshape(wdat.shape)
        gx = gxp[:, :, pad:pad + h, pad:pad + wd_] if pad and input_grad else gxp
        if not biased:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    parents = (x, w) if bias is None else (x, w, bias)
    return Tensor(out_data, _parents=parents, _backward=backward)


def global_avg_pool(x):
    """Spatial mean over the trailing two axes: (C,H,W)->(C,), (N,C,H,W)->(N,C)."""
    x = _as_tensor(x)
    if x.data.ndim < 3:
        raise DimensionError(f"global_avg_pool expects >=3-D input, got {x.shape}")
    x_shape = x.data.shape
    h, w = x_shape[-2:]
    out_data = x.data.mean(axis=(-2, -1))

    def backward(g):
        return (np.broadcast_to(g[..., None, None] / (h * w), x_shape).copy(),)

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
    has_gamma, has_beta = gamma is not None, beta is not None
    gdat = gamma.data if has_gamma else np.ones(d)
    bdat = beta.data if has_beta else np.zeros(d)
    out_data = xhat * gdat + bdat
    parents = [x] + ([gamma] if has_gamma else []) + ([beta] if has_beta else [])

    def backward(g):
        gxhat = g * gdat
        gx = inv * (gxhat - gxhat.mean(axis=-1, keepdims=True)
                    - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True))
        grads = [gx]
        if has_gamma:
            grads.append((g * xhat).reshape(-1, d).sum(axis=0).reshape(gdat.shape))
        if has_beta:
            grads.append(g.reshape(-1, d).sum(axis=0).reshape(bdat.shape))
        return tuple(grads)

    return Tensor(out_data, _parents=parents, _backward=backward)


def softmax_last(x, additive_mask=None):
    """Softmax over the last axis; ``additive_mask`` (ndarray) is added to the
    logits first (large negatives suppress padded positions)."""
    x = _as_tensor(x)
    z = x.data + additive_mask if additive_mask is not None else x.data
    # numpy reduces a short last axis one row at a time; over a class-first
    # copy the max is one elementwise pass, and max rounds nothing. A zero max
    # of either sign gives the same exp; which NaN a row returns depends on
    # the order, so a NaN row max takes the last-axis reduction
    zmax = np.moveaxis(z, -1, 0).copy().max(axis=0)
    if np.isnan(zmax).any():
        zmax = z.max(axis=-1)
    z = z - zmax[..., None]
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
        raise ConfigurationError(f"a target class is outside [0, {c})")
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


def _replicas(n_out, n_in):
    """``nearest_resize``'s map along one axis, where output ``i`` reads
    input ``i * n_in // n_out``, split by replica offset: for offset ``a``,
    the (inputs, outputs) index arrays of every input read more than ``a``
    times and of the ``a``-th output that reads it."""
    src = (np.arange(n_out) * n_in) // n_out
    first = np.flatnonzero(np.diff(src, prepend=-1))     # an input's first output
    reads = np.diff(first, append=n_out)
    return [(src[first[reads > a]], first[reads > a] + a) for a in range(reads.max())]


def _grid(rows, cols):
    """Index of the (rows, cols) grid of the trailing two axes: slices, so a
    view, where both are evenly spaced, else read-only index arrays."""
    steps = [int(v[1] - v[0]) if len(v) > 1 else 1 for v in (rows, cols)]
    if all(np.all(np.diff(v) == step) for v, step in zip((rows, cols), steps)):
        return (...,) + tuple(slice(int(v[0]), int(v[-1]) + 1, step)
                              for v, step in zip((rows, cols), steps))
    for v in (rows, cols):
        v.setflags(write=False)
    return ..., rows[:, None], cols


@functools.lru_cache(maxsize=64)      # a host resizes between a few extents
def _resize_plan(in_hw, out_hw):
    """(input index, output index) pairs of ``nearest_resize``'s backward:
    each adds every input's ``(a, b)``-th reading output, row offset ``a``
    outer, so an input sums its outputs from zero in row-major order, as
    ``np.add.at`` does. No input occurs twice in one index."""
    return tuple((_grid(ri, ci), _grid(ro, co))
                 for ri, ro in _replicas(out_hw[0], in_hw[0])
                 for ci, co in _replicas(out_hw[1], in_hw[1]))


def nearest_resize(x, out_hw):
    """Nearest-neighbor resize of the trailing two axes."""
    x = _as_tensor(x)
    x_shape = x.data.shape
    h, w = x_shape[-2:]
    h2, w2 = out_hw
    ir = (np.arange(h2) * h) // h2
    ic = (np.arange(w2) * w) // w2
    out_data = x.data[..., ir[:, None], ic[None, :]]

    def backward(g):
        gx = np.zeros(x_shape)
        for ik, ok in _resize_plan((h, w), (h2, w2)):
            # the output's adjoint is the first operand, as in np.add.at's
            # sum: of two NaNs, the order picks the payload that is kept
            if isinstance(ik[-1], slice):
                part = gx[ik]
                np.add(g[ok], part, out=part)
            else:
                gx[ik] = g[ok] + gx[ik]
        return (gx,)

    return Tensor(out_data, _parents=(x,), _backward=backward)


def embedding(table, ids):
    """Row lookup into ``table`` (V, D) by integer ``ids`` (any shape)."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.intp)
    t_shape = table.data.shape

    def backward(g):
        gt = np.zeros(t_shape)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, t_shape[1]))
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


def _topo_order(t):
    """Every node that tensor ``t`` depends on, its own included (a leaf is
    its own node), parents before children."""
    order, seen = [], set()
    stack = [(t._node or t, False)]
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
    return order


def _path(order, marked):
    """The nodes of ``order`` (parents before children) that descend from a
    node in ``marked``, a set of ids that gains each of theirs. Every child
    of a path node that leads to the loss is on the path too."""
    path = []
    for node in order:
        if any(id(p) in marked for p in node._parents):
            marked.add(id(node))
            path.append(node)
    return path


def _reverse(loss, path, marked):
    """Reverse loop over ``path`` (see ``_path``); adjoints flow only into
    marked parents, and reach every path node before its closure runs.

    Once a node's closure has run, its entry is set to ``None``: every
    child has already added to it, so nothing reads it again. The key stays,
    and so do the adjoints of the marked leaves, which are not swept."""
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    adj = {id(loss._node or loss): np.ones_like(loss.data)}
    for node in reversed(path):
        for parent, pg in zip(node._parents, node._backward(adj[id(node)])):
            key = id(parent)
            if key in marked:
                adj[key] = adj[key] + pg if key in adj else pg
        adj[id(node)] = None
    return adj


def _adjoints(loss):
    """Sweep of the nodes between every ``requires_grad`` leaf and ``loss``;
    returns ({id(node): adjoint ndarray}, order), ``order`` holding every
    node that ``loss`` depends on, parents before children (a leaf is its
    own node)."""
    order = _topo_order(loss)
    marked = {id(t) for t in order if t.requires_grad}
    return _reverse(loss, _path(order, marked), marked), order


def backward(loss):
    """``{tensor: d(loss)/d(tensor)}`` for every ``requires_grad`` leaf that
    ``loss`` depends on. The arrays are the sweep's own, and one array may
    serve two tensors, so callers must not write into them. The graph is
    retained."""
    adj, order = _adjoints(loss)
    return {t: adj[id(t)] for t in order if t.requires_grad}


def grad_wrt(loss, param):
    """d(loss)/d(param) as an ndarray (not to be written into, as in
    ``backward``), zeros when ``loss`` does not depend on ``param``.

    Sweeps only the nodes between ``param`` and ``loss``, so a sweep for an
    explainer parameter visits no backbone node."""
    if not isinstance(param, Tensor) or not param.requires_grad:
        raise ContractError("grad_wrt: param is not a differentiable tensor on the tape")
    key = id(param._node or param)
    marked = {key}
    g = _reverse(loss, _path(_topo_order(loss), marked), marked).get(key)
    return np.zeros_like(param.data) if g is None else g
