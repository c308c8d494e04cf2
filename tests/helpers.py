"""Shared test utilities: finite-difference gradient oracle and small
reference implementations used to cross-check the library.
"""

import struct
import tracemalloc
import zlib
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

import mhexlab.autodiff as ad
from mhexlab.autodiff import Tensor, _topo_order, grad_wrt
from mhexlab.datasets import KEYWORDS_PER_CLASS, N_SPECIALS
from mhexlab.metrics import mean_intensity


def mean_all(x):
    """Mean of every entry of tensor ``x`` as a taped scalar."""
    return ad.mul(ad.sum_axis(x), 1.0 / x.data.size)


def keyword_ids(label):
    """The token ids that ``gen_tokens`` plants for class ``label``."""
    base = N_SPECIALS + label * KEYWORDS_PER_CLASS
    return list(range(base, base + KEYWORDS_PER_CLASS))


def read_pgm(path):
    """Pixels of a binary PGM written by ``saliency.render_heatmap``."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, _, rest = data.partition(b"255\n")
    fields = header.split()
    assert fields[0] == b"P5", f"{path} is not a binary PGM"
    w, h = int(fields[1]), int(fields[2])
    return np.frombuffer(rest[:w * h], dtype=np.uint8).reshape(h, w)


def numeric_grad(f, params, eps=1e-6):
    """Central-difference gradient of scalar ``f()`` with respect to each
    Tensor in ``params`` (list), perturbing the raw data in place."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            hi = float(f().data)
            flat[i] = old - eps
            lo = float(f().data)
            flat[i] = old
            gflat[i] = (hi - lo) / (2 * eps)
        grads.append(g)
    return grads


def analytic_grads(f, params):
    loss = f()
    return [grad_wrt(loss, p) for p in params]


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)


def check_grads(f, params, tol=1e-4, eps=1e-6):
    ana = analytic_grads(f, params)
    num = numeric_grad(f, params, eps=eps)
    errs = [rel_err(a, n) for a, n in zip(ana, num)]
    assert max(errs) < tol, f"gradient mismatch: rel errors {errs}"
    return errs


def rng_tensor(rng, shape, scale=1.0, requires_grad=True):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=requires_grad)


def im2col_reference(x, kh, kw, stride, pad):
    """The whole batch's im2col columns (N, C*kh*kw, oh*ow) of ndarray ``x``
    padded by ``np.pad``, and the output extent (oh, ow)."""
    n, c = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = win.shape[2:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow), (oh, ow)


def conv2d_forward_reference(x, w, stride, pad):
    """``conv2d``'s forward on ndarrays as one stacked GEMM over the whole
    batch's columns, with the input padded by ``np.pad``."""
    o, _, kh, kw = w.shape
    cols, (oh, ow) = im2col_reference(x, kh, kw, stride, pad)
    return np.matmul(w.reshape(o, -1), cols).reshape(x.shape[0], o, oh, ow)


def conv2d_weight_grad_stacked(x, w, g, stride, pad):
    """``conv2d``'s weight gradient as one stacked GEMM over the whole
    batch's columns, summed over the samples: the same per-sample products
    in the same order as the chunked closure."""
    o, _, kh, kw = w.shape
    cols, _ = im2col_reference(x, kh, kw, stride, pad)
    gm = g.reshape(x.shape[0], o, -1)
    return np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)


def conv2d_backward_reference(x, w, g, stride, pad):
    """Gradients of ``conv2d(x, w)`` for the output adjoint ``g`` the im2col
    way: the weight gradient as one einsum over the columns, the input
    gradient as the full column adjoint ``dcols`` scattered back (col2im).
    All arrays are plain (N, ...) ndarrays; returns (gx, gw)."""
    n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    oh, ow = g.shape[-2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c, kh, kw, oh, ow))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
    gm = g.reshape(n, o, oh * ow)
    gw = np.einsum("nol,nkl->ok", gm, cols.reshape(n, -1, oh * ow)).reshape(w.shape)
    dcols = np.matmul(w.reshape(o, -1).T, gm).reshape(n, c, kh, kw, oh, ow)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[:, :, i, j]
    return gxp[:, :, pad:pad + h, pad:pad + wd], gw


def conv2d_add_bias_reference(x, w, b, g, stride, pad):
    """Forward and (x, w, bias) gradients, for the output adjoint ``g``, of
    ``conv2d`` followed by a broadcast ``add`` of ``reshape(b, (1, -1, 1,
    1))``: the two nodes that ``conv2d``'s ``bias`` replaced."""
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = ad.add(ad.conv2d(xt, wt, stride=stride, pad=pad), ad.reshape(bt, (1, -1, 1, 1)))
    loss = ad.sum_axis(ad.mul(out, Tensor(g)))
    return out.data, [grad_wrt(loss, t) for t in (xt, wt, bt)]


def relu_reference(x, g):
    """``relu``'s output and input gradient the select way: ``np.where`` on
    the mask ``x > 0``, and ``g`` times that mask."""
    mask = x > 0
    return np.where(mask, x, 0.0), g * mask


def nearest_resize_grad_reference(x_shape, g):
    """``nearest_resize``'s input gradient as a scatter: ``np.add.at`` from
    zeros, every input summing its reading outputs in row-major order."""
    h, w = x_shape[-2:]
    h2, w2 = g.shape[-2:]
    ir = (np.arange(h2) * h) // h2
    ic = (np.arange(w2) * w) // w2
    gx = np.zeros(x_shape).reshape(-1, h, w)
    index = (np.arange(gx.shape[0])[:, None, None], ir[None, :, None], ic[None, None, :])
    np.add.at(gx, index, g.reshape(-1, h2, w2))
    return gx.reshape(x_shape)


def softmax_last_reference(z):
    """Softmax over the last axis with the row max taken along that axis."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def same_bits(a, b):
    """Whether float64 arrays ``a`` and ``b`` hold the same bytes: signed
    zeros and NaN payloads count."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def owning_buffer(a):
    """The array that owns the memory of ``a``, a view or not."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_output_mib(loss):
    """MiB of the distinct buffers that the backward closures on the tape of
    ``loss`` hold (see ``closure_arrays``), those of ``requires_grad`` leaves
    (the parameters) not counted."""
    order = _topo_order(loss)
    params = {id(owning_buffer(t.data)) for t in order if t.requires_grad}
    held = {id(b): b for n in order if n._backward is not None
            for b in map(owning_buffer, closure_arrays(n._backward))}
    return sum(b.nbytes for key, b in held.items() if key not in params) / 2**20


def adjoints_reference(loss):
    """Every node's adjoint from a full reverse sweep that keeps all of them:
    ``{id(node): ndarray}`` (a leaf is its own node, a tensor ``t`` made by an
    op has ``t._node``), the sweep of ``autodiff`` without the release."""
    adj = {id(loss._node or loss): np.ones_like(loss.data)}
    for node in reversed(_topo_order(loss)):
        g = adj.get(id(node))
        if g is None or node._backward is None:
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if pg is not None:
                key = id(parent)
                adj[key] = adj[key] + pg if key in adj else pg
    return adj


def closure_arrays(fn):
    """Every ndarray that function ``fn`` holds in its closure, through the
    functions it holds in turn; a tensor it holds counts with its ``data``,
    and its parents are not followed."""
    arrays, stack = [], [fn]
    while stack:
        for cell in stack.pop().__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, Tensor):
                v = v.data
            if isinstance(v, np.ndarray):
                arrays.append(v)
            elif callable(v) and hasattr(v, "__closure__"):
                stack.append(v)
    return arrays


@contextmanager
def conv_workers(monkeypatch, n):
    """``conv2d`` spreads its chunks over ``n`` workers, with a pool of its
    own that is shut down on exit (``monkeypatch`` restores the module's)."""
    monkeypatch.setattr(ad, "_WORKERS", n)
    monkeypatch.setattr(ad, "_pool", None)
    try:
        yield
    finally:
        if ad._pool is not None:
            ad._pool.shutdown()


def peak_mb(fn):
    """tracemalloc peak in MB of one call of ``fn()``, whose result is
    dropped; what was allocated before the call is not counted."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def checkpoint_with_config(data, edit):
    """Checkpoint bytes with the config section replaced by
    ``edit(config_bytes)``; its length field follows the 8-byte magic and
    the 4-byte version. The checksum is resealed, so the loader parses the
    edited config."""
    (cfg_len,) = struct.unpack_from("<I", data, 12)
    cfg = edit(data[16:16 + cfg_len])
    return reseal(data[:12] + struct.pack("<I", len(cfg)) + cfg + data[16 + cfg_len:])


def checkpoint_with_value(model, data, name, value):
    """Checkpoint bytes of ``model`` with the first entry of tensor ``name``
    set to ``value``. The tensor data sit in ``model.params`` order just
    before the 4-byte checksum, which is resealed."""
    names = list(model.params)
    tail = sum(model.params[n].data.size for n in names[names.index(name):])
    at = len(data) - 4 - 8 * tail
    return reseal(data[:at] + struct.pack("<d", value) + data[at + 8:])


def reseal(data):
    """Format-v2 or v3 checkpoint bytes with the trailing CRC32 of everything
    after the 8-byte magic recomputed, as if the edit had been written."""
    data = bytes(data[:-4])
    return data + struct.pack("<I", zlib.crc32(data[8:]))


def as_format_v2(data):
    """The format-v2 file of a format-v3 checkpoint, as the v2 writer laid it
    out: version 2 and the seed's low 32 bits in a 4-byte field (v3's is 8
    bytes) after the config, then the shape table, data and checksum."""
    (cfg_len,) = struct.unpack_from("<I", data, 12)
    at = 16 + cfg_len
    (seed,) = struct.unpack_from("<Q", data, at)
    return reseal(data[:8] + struct.pack("<I", 2) + data[12:at]
                  + struct.pack("<I", seed & 0xFFFFFFFF) + data[at + 8:])


def as_format_v1(data):
    """The format-v1 file of a format-v3 checkpoint: the v2 layout with
    version 1 and no trailing checksum."""
    data = as_format_v2(data)
    return data[:8] + struct.pack("<I", 1) + data[12:-4]


def class_logit(rec, head, class_id):
    """Head ``head``'s raw logit of ``class_id``, summed over the batch, as
    a loss: linear in the head's pooled features, unlike cross-entropy."""
    logits = rec.head_logits()[head]
    onehot = np.zeros(logits.data.shape)
    onehot[..., class_id] = 1.0
    return ad.sum_axis(ad.mul(logits, onehot))


def gradient_pair_reference(model, rec, label, site):
    """Gradients of site ``site``'s w1 from its own head's and the next
    head's cross-entropy on a batch-1 record of ``model``, whose mixers are
    single matrices: the pair as the analysis took it one replay at a time."""
    w1 = model.mhex_params(site).w1
    heads = rec.head_logits()
    return tuple(grad_wrt(ad.softmax_cross_entropy(heads[h], [label]), w1)
                 for h in (site, site + 1))


def cell_masks(hw, grid):
    """The ``(grid, grid)`` cells of an (h, w) site, row-major, as masks."""
    rows = (np.arange(hw[0]) * grid) // hw[0]
    cols = (np.arange(hw[1]) * grid) // hw[1]
    for gi in range(grid):
        for gj in range(grid):
            mask = np.zeros(hw)
            mask[np.ix_(rows == gi, cols == gj)] = 1.0
            yield mask


def count_calls(owner, name, monkeypatch):
    """List that gains one entry per call of attribute ``name`` of a class or
    module ``owner``: a class's method counts the calls of every instance
    (models loaded inside a CLI command too), a module's function the calls
    made through that module's name."""
    calls = []
    fn = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def perturbation_curve_images(image, cam, steps, insert):
    """The stacked ``(steps, C, H, W)`` images of a deletion (or insertion)
    curve, each step built by copying the image (or a mean-filled canvas)
    and assigning the first k pixels of the stable saliency order."""
    image = np.asarray(image, dtype=np.float64)
    c = image.shape[0]
    mu = mean_intensity(image).reshape(-1, 1, 1)
    baseline = np.broadcast_to(mu, image.shape).copy()
    order = np.argsort(-np.asarray(cam, dtype=np.float64).ravel(), kind="stable")
    flat_img = image.reshape(c, -1)
    frames = []
    for frac in np.linspace(0.0, 1.0, steps):
        k = int(round(frac * cam.size))
        chosen = order[:k]
        if insert:
            cur = baseline.copy().reshape(c, -1)
            cur[:, chosen] = flat_img[:, chosen]
        else:
            cur = flat_img.copy()
            cur[:, chosen] = np.broadcast_to(mu.reshape(-1, 1), (c, k))
        frames.append(cur.reshape(image.shape))
    return np.stack(frames)
