"""Shared test utilities: finite-difference gradient oracle and small
reference implementations used to cross-check the library.
"""

import struct
import zlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from mhexlab.autodiff import Tensor, grad_wrt


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


def conv2d_forward_reference(x, w, stride, pad):
    """``conv2d``'s forward on ndarrays with the input padded by ``np.pad``;
    the same im2col columns and GEMM otherwise."""
    n, c = x.shape[:2]
    o, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = win.shape[2:4]
    cols = win.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)
    return np.matmul(w.reshape(o, -1), cols).reshape(n, o, oh, ow)


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


def checkpoint_with_config(data, edit):
    """Checkpoint bytes with the config section replaced by
    ``edit(config_bytes)``; its length field follows the 8-byte magic and
    the 4-byte version. The checksum is resealed, so the loader parses the
    edited config."""
    (cfg_len,) = struct.unpack_from("<I", data, 12)
    cfg = edit(data[16:16 + cfg_len])
    return reseal(data[:12] + struct.pack("<I", len(cfg)) + cfg + data[16 + cfg_len:])


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
