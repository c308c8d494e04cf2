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
from mhexlab.metrics import mean_intensity


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
    return [grad_wrt(loss, p).data for p in params]


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


def adjoints_reference(loss):
    """Every node's adjoint from a full reverse sweep that keeps all of them:
    ``{id(tensor): ndarray}``, the sweep of ``autodiff`` without the release."""
    adj = {id(loss): np.ones_like(loss.data)}
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
    functions it holds in turn (a tensor it holds is a tape node, not
    followed)."""
    arrays, stack = [], [fn]
    while stack:
        for cell in stack.pop().__closure__ or ():
            v = cell.cell_contents
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
    """Format-v2 checkpoint bytes with the trailing CRC32 of everything
    after the 8-byte magic recomputed, as if the edit had been written."""
    data = bytes(data[:-4])
    return data + struct.pack("<I", zlib.crc32(data[8:]))


def as_format_v1(data):
    """The format-v1 file of a format-v2 checkpoint: version 1 and no
    trailing checksum."""
    return data[:8] + struct.pack("<I", 1) + data[12:-4]


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


def perturbation_curve_reference(predict, image, cam, label, steps, insert):
    """Confidences of a deletion (or insertion) curve, each step built by
    copying the image (or a mean-filled canvas) and assigning the first k
    pixels of the stable saliency order."""
    image = np.asarray(image, dtype=np.float64)
    c = image.shape[0]
    mu = mean_intensity(image).reshape(-1, 1, 1)
    baseline = np.broadcast_to(mu, image.shape).copy()
    order = np.argsort(-np.asarray(cam, dtype=np.float64).ravel(), kind="stable")
    flat_img = image.reshape(c, -1)
    confidences = np.empty(steps)
    for i, frac in enumerate(np.linspace(0.0, 1.0, steps)):
        k = int(round(frac * cam.size))
        chosen = order[:k]
        if insert:
            cur = baseline.copy().reshape(c, -1)
            cur[:, chosen] = flat_img[:, chosen]
        else:
            cur = flat_img.copy()
            cur[:, chosen] = np.broadcast_to(mu.reshape(-1, 1), (c, k))
        p = np.asarray(predict(cur.reshape(image.shape)[None]), dtype=np.float64)
        confidences[i] = float(p[0, label])
    return confidences
