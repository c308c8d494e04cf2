import os
import signal
import sys
import threading
import weakref

import numpy as np
import pytest

import mhexlab as mx
import mhexlab.autodiff as ad
from mhexlab.autodiff import Tensor, backward, grad_wrt
from mhexlab.blocks import mhex_loss
from mhexlab.errors import ConfigurationError, ContractError, DimensionError

from helpers import (adjoints_reference, check_grads, closure_arrays,
                     conv2d_add_bias_reference, conv2d_backward_reference,
                     conv2d_forward_reference, conv2d_weight_grad_stacked,
                     conv_workers, mean_all, nearest_resize_grad_reference,
                     owning_buffer, peak_mb, rel_err, relu_reference, rng_tensor, same_bits,
                     softmax_last_reference, tape_output_mib)

# values whose bits a select, a max or a scatter may treat apart: NaN of
# either sign and with a payload, signed zeros and infinities, subnormals
# and the smallest normals
SPECIALS = np.concatenate([
    [np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310,
     -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308, 1.0, -1.0],
    np.array([0x7FF8000000000123, 0xFFF80000DEADBEEF], dtype=np.uint64).view(np.float64)])


def _rng(seed=0):
    return np.random.default_rng(seed)


def _with_specials(rng, shape, share=0.3):
    """Normal draws of ``shape`` with about ``share`` of them replaced by
    ``SPECIALS``."""
    x = rng.normal(size=shape)
    pick = rng.random(shape) < share
    x[pick] = rng.choice(SPECIALS, size=int(pick.sum()))
    return x


# ---------------------------------------------------------------------------
# forward values against plain numpy


def test_add_mul_forward():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([10.0, 20.0])
    assert np.array_equal(ad.add(a, b).data, a.data + b.data)
    assert np.array_equal(ad.mul(a, b).data, a.data * b.data)


def test_relu_sigmoid_forward():
    x = _rng().normal(size=(5, 7))
    assert np.array_equal(ad.relu(Tensor(x)).data, np.maximum(x, 0))
    s = ad.sigmoid(Tensor(x)).data
    assert np.allclose(s, 1.0 / (1.0 + np.exp(-x)))
    # numerically stable at extremes
    big = ad.sigmoid(Tensor(np.array([-1e4, 1e4]))).data
    assert np.all(np.isfinite(big)) and big[0] == 0.0 and big[1] == 1.0


def test_relu_equals_select_bit_for_bit():
    """``relu``'s output and gradient have the bits of ``np.where(x > 0, x,
    0.0)`` and ``g * (x > 0)``: NaN and -0.0 give +0.0, at every length
    (vector loop and scalar tail) and on a strided input. Its closure keeps
    the node's own output and no mask."""
    rng = _rng(21)
    for n in list(range(1, 40)) + [1000]:
        for x in (_with_specials(rng, n), _with_specials(rng, (n, 3))[:, 1]):
            g = _with_specials(rng, n)
            out = ad.relu(Tensor(x))
            with np.errstate(invalid="ignore"):         # inf * 0 in g * mask
                ref_out, ref_gx = relu_reference(x, g)
                gx = out._backward(g)[0]
            assert same_bits(out.data, ref_out), n
            assert same_bits(gx, ref_gx), n
            assert all(a is out.data for a in closure_arrays(out._backward))


def test_sigmoid_equals_two_branch_formula_bit_for_bit():
    """One exp per element gives the two-branch form's values and gradient
    exactly: 1/(1+e) for x >= 0 and e/(1+e) below, with e = exp(-|x|)."""
    x = np.concatenate([
        [-np.inf, -1e4, -745.0, -700.0, -37.0, -1.0, -1e-300, -0.0,
         0.0, 1e-300, 1.0, 37.0, 700.0, 745.0, 1e4, np.inf],
        _rng(4).normal(scale=30.0, size=500)])
    e = np.exp(-np.abs(x))
    ref = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    xt = Tensor(x, requires_grad=True)
    out = ad.sigmoid(xt)
    assert np.array_equal(out.data, ref)
    g = _rng(5).normal(size=x.shape)
    grad = ad.grad_wrt(ad.sum_axis(ad.mul(out, Tensor(g))), xt)
    assert np.array_equal(grad, g * ref * (1.0 - ref))


def test_matmul_forward_and_mismatch():
    a, b = _rng().normal(size=(3, 4)), _rng(1).normal(size=(4, 5))
    assert np.allclose(ad.matmul(Tensor(a), Tensor(b)).data, a @ b)
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(a), Tensor(a))


def test_conv2d_forward_matches_direct():
    rng = _rng(2)
    x = rng.normal(size=(2, 3, 8, 8))
    w = rng.normal(size=(4, 3, 3, 3))
    for stride, pad in [(1, 0), (1, 1), (2, 1), (2, 0)]:
        out = ad.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh = (xp.shape[2] - 3) // stride + 1
        ow = (xp.shape[3] - 3) // stride + 1
        ref = np.zeros((2, 4, oh, ow))
        for i in range(oh):
            for j in range(ow):
                patch = xp[:, :, i * stride:i * stride + 3, j * stride:j * stride + 3]
                ref[:, :, i, j] = np.einsum("ncij,ocij->no", patch, w)
        assert np.allclose(out, ref), (stride, pad)


def test_softmax_cross_entropy_forward():
    logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    t = [2, 0]
    loss = ad.softmax_cross_entropy(Tensor(logits), t)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    ref = -np.mean(np.log(p[np.arange(2), t]))
    assert abs(float(loss.data) - ref) < 1e-12
    with pytest.raises(ConfigurationError):
        ad.softmax_cross_entropy(Tensor(logits), [3, 0])


def _zeros(*shape):
    return Tensor(np.zeros(shape), requires_grad=True)


PRIMITIVE_ERRORS = {
    "matmul_leading_dims": (DimensionError, lambda: ad.matmul(_zeros(2, 3, 4), _zeros(3, 4, 5))),
    "conv2d_channels": (DimensionError, lambda: ad.conv2d(_zeros(1, 2, 5, 5), _zeros(3, 1, 3, 3))),
    "conv2d_kernel_above_input": (DimensionError,
                                  lambda: ad.conv2d(_zeros(1, 1, 2, 2), _zeros(3, 1, 5, 5), pad=1)),
    "conv2d_stride_0": (ConfigurationError,
                        lambda: ad.conv2d(_zeros(1, 1, 5, 5), _zeros(3, 1, 3, 3), stride=0)),
    "global_avg_pool_2d": (DimensionError, lambda: ad.global_avg_pool(_zeros(2, 3))),
    "cross_entropy_targets_shape": (DimensionError,
                                    lambda: ad.softmax_cross_entropy(_zeros(2, 3), [0, 1, 2])),
    "masked_seq_mean_empty_row": (ContractError, lambda: ad.masked_seq_mean(
        _zeros(2, 3, 4), np.array([[True, True, False], [False, False, False]]))),
    "backward_non_scalar": (ContractError, lambda: ad.backward(_zeros(2, 2))),
}


@pytest.mark.parametrize("case", sorted(PRIMITIVE_ERRORS))
def test_primitive_input_errors(case):
    """Operands a primitive cannot take raise from the taxonomy before any
    arithmetic."""
    error, call = PRIMITIVE_ERRORS[case]
    with pytest.raises(error):
        call()


def test_nearest_resize_forward():
    x = np.arange(4.0).reshape(1, 1, 2, 2)
    up = ad.nearest_resize(Tensor(x), (4, 4)).data
    assert np.array_equal(up[0, 0], np.repeat(np.repeat(x[0, 0], 2, 0), 2, 1))


def test_masked_seq_mean_forward():
    x = Tensor(np.arange(12.0).reshape(1, 4, 3))
    keep = np.array([[1.0, 1.0, 0.0, 0.0]])
    out = ad.masked_seq_mean(x, keep)
    assert np.allclose(out.data, x.data[0, :2].mean(axis=0))


# ---------------------------------------------------------------------------
# gradients: finite differences across 10 seeds


@pytest.mark.parametrize("seed", range(10))
def test_composite_graph_gradcheck(seed):
    """An MLP-ish composite touching add/mul/matmul/relu/sigmoid/reductions."""
    rng = _rng(seed)
    x = rng_tensor(rng, (3, 4), requires_grad=False)
    w1 = rng_tensor(rng, (4, 5), 0.7)
    b1 = rng_tensor(rng, (5,), 0.3)
    w2 = rng_tensor(rng, (5, 2), 0.7)

    def f():
        h = ad.relu(ad.add(ad.matmul(x, w1), b1))
        g = ad.sigmoid(ad.matmul(h, w2))
        return mean_all(ad.mul(g, g))

    check_grads(f, [w1, b1, w2], tol=1e-4)


@pytest.mark.parametrize("seed", range(3))
def test_conv_gradcheck(seed):
    rng = _rng(100 + seed)
    x = rng_tensor(rng, (2, 2, 6, 6), requires_grad=False)
    w = rng_tensor(rng, (3, 2, 3, 3), 0.5)

    def f():
        y = ad.relu(ad.conv2d(x, w, stride=2, pad=1))
        return mean_all(ad.mul(y, y))

    check_grads(f, [w], tol=1e-4)


def test_conv_input_gradcheck():
    rng = _rng(7)
    x = rng_tensor(rng, (1, 2, 5, 5), 1.0)
    w = rng_tensor(rng, (3, 2, 3, 3), 0.5, requires_grad=False)
    w.requires_grad = False

    def f():
        return mean_all(ad.conv2d(x, w, stride=1, pad=1))

    check_grads(f, [x], tol=1e-4)


# (x shape, w shape, stride, pad) like the CNN host's convs, at batch 3
HOSTLIKE_CONVS = [((3, 4, 7, 7), (5, 4, 3, 3), 2, 1),     # downsampling 3x3
                  ((3, 4, 8, 8), (5, 4, 1, 1), 2, 0),     # downsampling projection
                  ((3, 1, 6, 6), (4, 1, 3, 3), 1, 1)]     # 1-channel stem


@pytest.mark.parametrize("xs, ws, stride, pad", HOSTLIKE_CONVS)
def test_conv_hostlike_gradcheck(xs, ws, stride, pad):
    rng = _rng(11)
    x = rng_tensor(rng, xs, 1.0)
    w = rng_tensor(rng, ws, 0.5)

    def f():
        y = ad.conv2d(x, w, stride=stride, pad=pad)
        return mean_all(ad.mul(y, y))

    check_grads(f, [x, w], tol=1e-5)


# every conv of the default CNN host, (C, H, O, k, stride, pad), at batch 2:
# stem, blocks, projections, then the side chain's global and carry 1x1s
HOST_CONVS = [(1, 32, 8, 3, 1, 1), (8, 32, 8, 3, 1, 1), (8, 32, 16, 3, 2, 1),
              (8, 32, 16, 1, 2, 0), (16, 16, 16, 3, 1, 1), (16, 16, 32, 3, 2, 1),
              (16, 16, 32, 1, 2, 0), (32, 8, 32, 3, 1, 1), (32, 8, 64, 3, 2, 1),
              (32, 8, 64, 1, 2, 0), (64, 4, 64, 3, 1, 1),
              (64, 4, 16, 1, 1, 0), (64, 4, 32, 1, 1, 0), (64, 4, 64, 1, 1, 0),
              (16, 8, 32, 1, 1, 0), (32, 4, 64, 1, 1, 0)]


@pytest.mark.parametrize("c, h, o, k, stride, pad", HOST_CONVS)
def test_conv_forward_matches_np_pad(c, h, o, k, stride, pad):
    """The zero-buffer padding gives the bits of ``np.pad``'s."""
    rng = _rng(13)
    x = rng.normal(size=(2, c, h, h))
    w = rng.normal(size=(o, c, k, k))
    out = ad.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad).data
    assert np.array_equal(out, conv2d_forward_reference(x, w, stride, pad))


@pytest.mark.parametrize("c, h, o, k, stride, pad", HOST_CONVS)
def test_conv_backward_matches_col2im(c, h, o, k, stride, pad):
    """The input gradient has the bits of the im2col reference; the weight
    gradient sums the same products in another order."""
    rng = _rng(12)
    x = Tensor(rng.normal(size=(2, c, h, h)), requires_grad=True)
    w = Tensor(rng.normal(size=(o, c, k, k)))
    out = ad.conv2d(x, w, stride=stride, pad=pad)
    g = rng.normal(size=out.shape)
    gx, gw = out._backward(g)
    ref_gx, ref_gw = conv2d_backward_reference(x.data, w.data, g, stride, pad)
    assert np.array_equal(gx, ref_gx)
    assert rel_err(gw, ref_gw) <= 1e-12


# several column chunks with a remainder: (8, 32, 8, 3, 1, 1) fits 3 samples
# in one 2 MB chunk; at N = 5 most host shapes are a single chunk
CHUNKED_CONVS = ([(7, HOST_CONVS[1]), (64, HOST_CONVS[1])]
                 + [(5, shape) for shape in HOST_CONVS])


@pytest.mark.parametrize("n, shape", CHUNKED_CONVS)
def test_conv_chunks_match_full_batch(n, shape):
    """Chunked columns give the bits of one stacked GEMM over the whole
    batch: forward, input gradient and weight gradient."""
    c, h, o, k, stride, pad = shape
    rng = _rng(14)
    x = rng.normal(size=(n, c, h, h))
    w = rng.normal(size=(o, c, k, k))
    out = ad.conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=stride, pad=pad)
    g = rng.normal(size=out.shape)
    gx, gw = out._backward(g)
    assert np.array_equal(out.data, conv2d_forward_reference(x, w, stride, pad))
    assert np.array_equal(gx, conv2d_backward_reference(x, w, g, stride, pad)[0])
    assert np.array_equal(gw, conv2d_weight_grad_stacked(x, w, g, stride, pad))


def test_conv_chunk_cases_span_several_chunks():
    # a sample's columns: 8 bytes x (C*kh*kw = 8*3*3) x (oh*ow = 32*32)
    per_chunk = ad._COLS_BYTES // (8 * 8 * 3 * 3 * 32 * 32)
    assert [n // per_chunk for n, _ in CHUNKED_CONVS[:2]] == [2, 21]
    assert all(n % per_chunk for n, _ in CHUNKED_CONVS[:2])


@pytest.mark.parametrize("n", [1, 5, 64, 128])
@pytest.mark.parametrize("shape", HOST_CONVS)
def test_conv_workers_match_references(monkeypatch, shape, n):
    """Spread over 1, 2 or 3 workers (3 split the chunks unevenly), conv2d
    keeps the bits of the stacked references: forward with and without a
    tape, input gradient and weight gradient."""
    c, h, o, k, stride, pad = shape
    rng = _rng(17)
    x = rng.normal(size=(n, c, h, h))
    w = rng.normal(size=(o, c, k, k))
    ref = conv2d_forward_reference(x, w, stride, pad)
    g = rng.normal(size=ref.shape)
    ref_gx = conv2d_backward_reference(x, w, g, stride, pad)[0]
    ref_gw = conv2d_weight_grad_stacked(x, w, g, stride, pad)
    for workers in (1, 2, 3):
        with conv_workers(monkeypatch, workers):
            out = ad.conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=stride, pad=pad)
            gx, gw = out._backward(g)
            with ad.no_grad():
                untaped = ad.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad)
        assert np.array_equal(out.data, ref), workers
        assert np.array_equal(untaped.data, ref), workers
        assert np.array_equal(gx, ref_gx), workers
        assert np.array_equal(gw, ref_gw), workers


@pytest.mark.parametrize("n", [1, 5, 64])
@pytest.mark.parametrize("shape", HOST_CONVS)
def test_conv_bias_matches_add_of_reshaped_bias(monkeypatch, shape, n):
    """``conv2d(..., bias=b)`` on 1, 2 or 3 workers keeps the bits of
    ``add(conv2d(...), reshape(b, (1, -1, 1, 1)))``: forward with and
    without a tape, and the gradients of input, kernel and bias."""
    c, h, o, k, stride, pad = shape
    rng = _rng(22)
    x = rng.normal(size=(n, c, h, h))
    w = rng.normal(size=(o, c, k, k))
    b = rng.normal(size=o)
    oh = (h + 2 * pad - k) // stride + 1
    g = rng.normal(size=(n, o, oh, oh))
    for workers in (1, 2, 3):
        with conv_workers(monkeypatch, workers):
            ref, ref_grads = conv2d_add_bias_reference(x, w, b, g, stride, pad)
            out = ad.conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=stride, pad=pad,
                            bias=Tensor(b))
            grads = out._backward(g)
            with ad.no_grad():
                untaped = ad.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad,
                                    bias=Tensor(b))
        assert same_bits(out.data, ref), workers
        assert same_bits(untaped.data, ref), workers
        assert len(grads) == 3
        for got, want in zip(grads, ref_grads):
            assert same_bits(got, want), workers


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("shape", HOST_CONVS)
def test_conv_skips_the_gradient_of_a_leaf_that_needs_none(monkeypatch, shape, n):
    """On an input leaf without ``requires_grad`` the closure returns no
    input gradient, and the kernel and bias gradients keep the bits they
    have when the input asks for one; a non-leaf input always gets one."""
    c, h, o, k, stride, pad = shape
    rng = _rng(25)
    x, w, b = rng.normal(size=(n, c, h, h)), rng.normal(size=(o, c, k, k)), rng.normal(size=o)
    oh = (h + 2 * pad - k) // stride + 1
    g = rng.normal(size=(n, o, oh, oh))
    with conv_workers(monkeypatch, 2):
        want = ad.conv2d(Tensor(x, requires_grad=True), Tensor(w), stride=stride, pad=pad,
                         bias=Tensor(b))._backward(g)
        got = ad.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad,
                        bias=Tensor(b))._backward(g)
        inner = ad.conv2d(ad.reshape(Tensor(x), x.shape), Tensor(w), stride=stride, pad=pad)
        assert same_bits(inner._backward(g)[0], want[0])
    assert got[0] is None
    assert same_bits(got[1], want[1]) and same_bits(got[2], want[2])


def test_conv_bias_shape_checked():
    with pytest.raises(DimensionError):
        ad.conv2d(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((2, 1, 3, 3))),
                  bias=Tensor(np.zeros(3)))


def test_conv_chunk_split_covers_batch_in_equal_chunks(monkeypatch):
    """Contiguous, near-equal sample ranges, one per worker that gets a full
    chunk's columns and 32 samples, and one chunk size whose columns fit
    ``_COLS_BYTES``; a batch below 64, such as a 20-image curve, is one
    range, taped or not."""
    big = 8 * 8 * 3 * 3 * 32 * 32               # (8, 32, 8, 3, 1, 1): 3 per chunk
    small = big // 16                           # 56 per chunk
    assert ad._SPREAD_SAMPLES == 32
    # sample bytes, n, and the ranges for 1, 2 and 3 workers
    cases = [(big, 1, (1, 1, 1)), (big, 4, (1, 1, 1)), (big, 8, (1, 1, 1)),
             (big, 20, (1, 1, 1)), (big, 63, (1, 1, 1)), (big, 64, (1, 2, 2)),
             (big, 96, (1, 2, 3)), (big, 128, (1, 2, 3)),
             (small, 64, (1, 1, 1)), (small, 128, (1, 2, 2)), (small, 200, (1, 2, 3))]
    for sample, n, groups in cases:
        for workers, want in zip((1, 2, 3), groups):
            monkeypatch.setattr(ad, "_WORKERS", workers)
            for recording in (True, False):
                monkeypatch.setattr(ad._state, "recording", recording)
                ranges, size = ad._chunks(n, sample)
                assert ranges[0][0] == 0 and ranges[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
                lengths = [hi - lo for lo, hi in ranges]
                assert len(ranges) == want, (sample, n, workers)
                assert max(lengths) - min(lengths) <= 1
                assert 1 <= size and size * sample <= ad._COLS_BYTES


@pytest.mark.parametrize("workers", [1, 2])
def test_conv_1x1_reads_strided_input_in_place(monkeypatch, workers):
    """A 1x1 conv's GEMMs read a strided input (a nearest resize, as the CNN
    side chain feeds its carry conv) in its own layout, not a contiguous
    copy: the operand layout picks the BLAS kernel, and so the rounding."""
    rng = _rng(19)
    x = ad.nearest_resize(Tensor(rng.normal(size=(512, 16, 4, 4))), (8, 8)).data
    assert not x.flags.c_contiguous
    w = rng.normal(size=(32, 16, 1, 1))
    xl = x.reshape(512, 16, 64)
    assert np.shares_memory(xl, x)
    with conv_workers(monkeypatch, workers):
        out = ad.conv2d(Tensor(x), Tensor(w))
        g = rng.normal(size=out.shape)
        gw = out._backward(g)[1]
    gm = g.reshape(512, 32, 64)
    assert np.array_equal(out.data.reshape(512, 32, 64), np.matmul(w.reshape(32, 16), xl))
    assert np.array_equal(gw.reshape(32, 16),
                          np.matmul(gm, xl.transpose(0, 2, 1)).sum(axis=0))


# a 64-channel 3x3 conv at 4x4: a sample's kernel gradient (8*64*576 bytes)
# outweighs its columns (8*576*16), so the calling thread's buffer of 7 such
# gradients cuts its column chunks (16 to 19 samples here) mid-way
WIDE_CONV = (64, 4, 64, 3, 1, 1)


@pytest.mark.parametrize("n", [37, 64, 100])
def test_conv_weight_grad_adds_samples_in_order(monkeypatch, n):
    """The calling thread adds every sample's kernel gradient into the
    result as it goes, in sample order, while a spread's other workers make
    the input gradients: on 1, 2 or 3 workers the bits of the stacked
    reference's sum, with a first sample whose products are all -0.0 and NaN
    payloads in two samples that a split by sample range would put in
    different ranges."""
    c, h, o, k, stride, pad = WIDE_CONV
    assert ad._COLS_BYTES // (8 * o * c * k * k) == 7
    rng = _rng(26)
    x = rng.normal(size=(n, c, h, h))
    w = rng.normal(size=(o, c, k, k))
    g = rng.normal(size=(n, o, h, h))
    x[0] = np.abs(x[0])
    g[0] = -0.0
    x[1, 0, 1, 1], x[n - 2, 0, 1, 1] = SPECIALS[-2:]
    ref = conv2d_weight_grad_stacked(x, w, g, stride, pad)
    # where both NaNs meet, the sum keeps the first sample's payload
    assert set(ref[np.isnan(ref)].view(np.uint64)) == {SPECIALS[-2:-1].view(np.uint64)[0]}
    splits = set()
    for workers in (1, 2, 3):
        with conv_workers(monkeypatch, workers):
            ranges, size = ad._chunks(n, 8 * c * k * k * h * h)
            splits.add((len(ranges), size))
            gw = ad.conv2d(Tensor(x, requires_grad=True), Tensor(w), pad=pad)._backward(g)[1]
        assert same_bits(gw, ref), workers
    assert all(size % 7 for _, size in splits)
    assert max(r for r, _ in splits) == (1 if n < 64 else 2 if n < 96 else 3)


@pytest.mark.parametrize("workers", [1, 2])
def test_conv_backward_keeps_no_batch_of_kernel_gradients(monkeypatch, workers):
    """A batch-64 backward of the CNN's 64-channel 3x3 conv peaks below half
    of one (64, 64, 576) block of per-sample kernel gradients: 5.8 MB on one
    worker, 5.6 MB on two, where the calling thread adds every sample's into
    the result and the other worker makes the input gradients (15.7 MB when
    a second range of samples kept its 32 until the join; 21.8 and 22.9 MB
    when the whole batch's were kept)."""
    c, h, o, k, stride, pad = WIDE_CONV
    rng = _rng(28)
    x = Tensor(rng.normal(size=(64, c, h, h)), requires_grad=True)
    w = Tensor(rng.normal(size=(o, c, k, k)))
    g = rng.normal(size=(64, o, h, h))
    block = 64 * o * c * k * k * 8 / 2**20
    with conv_workers(monkeypatch, workers):
        out = ad.conv2d(x, w, pad=pad)
        assert len(ad._chunks(64, 8 * c * k * k * h * h)[0]) == workers
        peak = peak_mb(lambda: out._backward(g))
    assert peak < 0.5 * block, (peak, block)


def test_sum_rows_keeps_the_bits_of_the_axis_0_sum():
    """Rows added one at a time into zeros, cut anywhere into runs, give the
    bits of ``sum(axis=0)``: no -0.0 from an all -0.0 first row, and the NaN
    payload that the sum keeps when two rows hold different ones."""
    rng = _rng(27)
    rows = rng.normal(size=(9, 4, 6))
    rows[0] = -0.0
    rows[2, :, :3], rows[7, :, 1:4] = SPECIALS[-2], SPECIALS[-1]
    want = rows.sum(axis=0)
    for cut in range(10):
        acc = np.zeros(rows.shape[1:])
        ad._sum_rows(acc, rows[:cut])
        ad._sum_rows(acc, rows[cut:])
        assert same_bits(acc, want), cut


def test_threaded_conv_backward_repeats_bit_for_bit(monkeypatch):
    """Twenty backward passes of one conv on three workers, with the
    interpreter switching threads as often as it can, give the bytes of one
    worker's: the threads that share the input-gradient chunks take each
    chunk once."""
    rng = _rng(18)
    x = Tensor(rng.normal(size=(96, 8, 32, 32)), requires_grad=True)   # 32 a worker
    w = Tensor(rng.normal(size=(16, 8, 3, 3)))
    g = rng.normal(size=(96, 16, 16, 16))
    with conv_workers(monkeypatch, 1):
        first = [a.tobytes() for a in ad.conv2d(x, w, stride=2, pad=1)._backward(g)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with conv_workers(monkeypatch, 3):
            out = ad.conv2d(x, w, stride=2, pad=1)
            assert len(ad._chunks(96, 8 * 8 * 9 * 16 * 16)[0]) == 3
            for _ in range(20):
                assert [a.tobytes() for a in out._backward(g)] == first
    finally:
        sys.setswitchinterval(interval)


def test_worker_exception_reaches_caller(monkeypatch):
    """An error inside a pool task is raised on the calling thread, after
    every task has finished."""
    with conv_workers(monkeypatch, 2):
        calls = []

        def task(t, lo, hi):
            calls.append(t)
            if t:
                raise ValueError("worker failed")

        with pytest.raises(ValueError, match="worker failed"):
            ad._spread(task, [(0, 1), (1, 2)])
        assert sorted(calls) == [0, 1]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool(monkeypatch):
    """A child forked after the pool started has none of its threads: its
    first spread conv makes a pool of its own instead of waiting forever."""
    rng = _rng(20)
    x = Tensor(rng.normal(size=(64, 8, 32, 32)))
    w = Tensor(rng.normal(size=(8, 8, 3, 3)))
    with conv_workers(monkeypatch, 2):
        ref = ad.conv2d(x, w, pad=1).data
        assert ad._pool is not None
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(20)            # a hung child dies of SIGALRM
                code = 0 if np.array_equal(ad.conv2d(x, w, pad=1).data, ref) else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_conv_inside_a_spread_task_runs_on_its_thread(monkeypatch):
    """A batch-64 conv2d that spreads at top level runs, inside a ``_spread``
    task, as one range on the task's thread, with columns of its share of
    ``_COLS_BYTES``: on a pool of one thread, where a nested spread would
    wait on itself, both tasks finish, with the bits of the top-level call
    in the forward and the kernel gradient. A forked child does it, so that
    a hang ends in its SIGALRM."""
    rng = _rng(21)
    x = Tensor(rng.normal(size=(64, 8, 32, 32)))
    w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
    g = rng.normal(size=(64, 8, 32, 32))
    with conv_workers(monkeypatch, 2):
        top = ad.conv2d(x, w, pad=1)
        ref, ref_gw = top.data, top._backward(g)[1]
        assert len(ad._chunks(64, 8 * 8 * 9 * 32 * 32)[0]) == 2
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.alarm(20)            # a hung child dies of SIGALRM
                got = [None, None]

                def task(t, lo, hi):
                    out = ad.conv2d(x, w, pad=1)
                    got[t] = (out.data, out._backward(g)[1],
                              ad._chunks(64, 8 * 8 * 9 * 32 * 32)[0], ad._cols_budget())

                ad._spread(task, [(0, 1), (1, 2)])
                code = 0 if all(np.array_equal(d, ref) and np.array_equal(gw, ref_gw)
                                and r == [(0, 64)] and b == ad._COLS_BYTES // 2
                                for d, gw, r, b in got) else 2
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_no_grad_is_per_thread():
    """``no_grad`` stops taping in its own thread only: while a second thread
    holds it, the calling thread's ops record nodes, and after that thread
    has left it, the calling thread's own ``no_grad`` still records none."""
    entered, leave = threading.Event(), threading.Event()
    held = []

    def hold():
        with ad.no_grad():
            held.append(ad.relu(Tensor(np.ones(2), requires_grad=True))._node)
            entered.set()
            leave.wait(10)

    x = Tensor(np.ones(2), requires_grad=True)
    other = threading.Thread(target=hold)
    other.start()
    try:
        assert entered.wait(10)
        assert ad.relu(x)._node is not None
        with ad.no_grad():
            leave.set()
            other.join(10)
            assert not other.is_alive()
            assert ad.relu(x)._node is None
    finally:
        leave.set()
        other.join(10)
    assert held == [None]
    assert ad.relu(x)._node is not None


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_batch_chunks_cut_a_batch_into_chunks_of_two_or_more(monkeypatch, workers):
    """``_batch_chunks`` covers the batch with contiguous chunks in order: one
    range per worker of near-equal length, each cut into chunks of 2 to
    ``_BATCH_CHUNK`` samples; a batch that gives no two workers 2 samples,
    or one on one worker or inside a task, is one chunk."""
    monkeypatch.setattr(ad, "_WORKERS", workers)
    for n in range(1, 140):
        split = ad._batch_chunks(n)
        flat = [c for part in split for c in part]
        assert flat[0][0] == 0 and flat[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(flat, flat[1:]))
        assert len(split) == max(1, min(workers, n // 2))
        if len(split) == 1:
            assert flat == [(0, n)]
            continue
        lengths = [part[-1][1] - part[0][0] for part in split]
        assert max(lengths) - min(lengths) <= 1
        assert all(2 <= b - a <= ad._BATCH_CHUNK for a, b in flat), (n, flat)
    monkeypatch.setattr(ad._state, "ranges", 2)
    assert ad._batch_chunks(20) == [[(0, 20)]]


def _cnn_tape(model, n, seed):
    """One taped forward of ``n`` shapes images and its combined head loss;
    returns (loss, final_feats)."""
    ds = mx.gen_shapes(n, seed=seed)
    backbone_out = model._backbone(ds.images)
    rec = model.side_chain(backbone_out)
    return mhex_loss(rec.head_logits(), ds.labels, "finetune"), backbone_out[1]


PRIMITIVES = ("conv2d", "matmul", "add", "mul", "relu", "sigmoid", "layer_norm",
              "softmax_last", "softmax_cross_entropy", "nearest_resize", "embedding",
              "masked_seq_mean", "global_avg_pool", "reshape", "transpose", "sum_axis")


def _noting_nodes(monkeypatch):
    """Wrap every primitive so that each node it tapes is noted, as
    ``{id(node): (primitive, output size, input arrays)}``; the note keeps
    the inputs alive."""
    made = {}
    for name in PRIMITIVES:
        def noting(*args, _orig=getattr(ad, name), _name=name, **kwargs):
            out = _orig(*args, **kwargs)
            inputs = [a.data if isinstance(a, Tensor) else a
                      for a in list(args) + list(kwargs.values())
                      if isinstance(a, (Tensor, np.ndarray))]
            made[id(out._node)] = (_name, out.data.size, inputs)
            return out
        monkeypatch.setattr(ad, name, noting)
    return made


def test_tape_holds_no_columns_or_padded_copies(small_cnn, monkeypatch):
    """A conv closure holds only its input and kernel arrays themselves, so
    neither its im2col columns nor a padded copy, whatever their size; no
    other closure on a CNN tape holds an array larger than its node's inputs
    and output."""
    made = _noting_nodes(monkeypatch)
    loss, _ = _cnn_tape(small_cnn, 4, seed=15)
    monkeypatch.undo()
    convs = 0
    for node in ad._topo_order(loss):
        if node._backward is None:
            continue
        name, size, inputs = made[id(node)]
        arrays = closure_arrays(node._backward)
        if name == "conv2d":
            convs += 1
            assert arrays and all(any(a is i for i in inputs) for a in arrays)
        else:
            limit = max([size] + [i.size for i in inputs])
            assert all(a.size <= limit for a in arrays)
    assert convs > 0


def test_cnn_tape_closures_hold_under_50_mib(small_cnn):
    """The closures of a batch-64 taped forward of the default CNN with its
    head losses hold under 50 MiB besides the parameters (112.7 MiB when a
    node kept its output and its parents, so every output whether a closure
    read it or not)."""
    loss, _ = _cnn_tape(small_cnn, 64, seed=15)
    assert tape_output_mib(loss) < 50


@pytest.mark.parametrize("host, stem", [("small_cnn", "conv2d"),
                                        ("small_transformer", "embedding")])
def test_an_intermediate_dies_with_its_tensor(request, monkeypatch, host, stem):
    """On a taped batch forward, the stem's output (the CNN's first conv, the
    transformer's token embedding), which no closure reads, is freed while
    the loss lives; no tape node holds a value of its own, and ``backward``
    and ``grad_wrt`` give a full sweep's gradients bit for bit."""
    model = request.getfixturevalue(host)
    if model.kind == "resnet":
        ds = mx.gen_shapes(8, seed=26)
        x = ds.images
    else:
        ds = mx.gen_tokens(8, seed=26)
        x = ds.ids
    outputs = []

    def noting(*args, _orig=getattr(ad, stem), **kwargs):
        out = _orig(*args, **kwargs)
        outputs.append(weakref.ref(owning_buffer(out.data)))
        return out

    monkeypatch.setattr(ad, stem, noting)
    rec = model.forward_collect(x)
    monkeypatch.undo()
    loss = mhex_loss(rec.head_logits(), ds.labels, "finetune")
    assert outputs and outputs[0]() is None
    order = ad._topo_order(loss)
    nodes = [n for n in order if isinstance(n, ad._Node)]
    assert nodes[-1] is loss._node and not any(hasattr(n, "data") for n in nodes)
    ref = adjoints_reference(loss)
    params = [t for t in model.params.values() if id(t) in ref]
    grads = backward(loss)
    assert params and set(grads) == set(params)
    for t in params:
        assert same_bits(grads[t], ref[id(t)])
        assert same_bits(grad_wrt(loss, t), ref[id(t)])


def test_sweep_releases_consumed_adjoints(small_cnn):
    """After ``_adjoints`` every node whose closure ran is still a key (the
    sweep counter of ``perfbench`` reads ``key in adj``) with its entry set to
    ``None``; parameter adjoints equal a sweep that keeps every adjoint."""
    loss, _ = _cnn_tape(small_cnn, 2, seed=16)
    ran = set()

    def recording(node, bw):
        def wrapper(g):
            ran.add(id(node))
            return bw(g)
        return wrapper

    for node in ad._topo_order(loss):
        if node._backward is not None:
            node._backward = recording(node, node._backward)
    ref = adjoints_reference(loss)
    ran.clear()
    adj, order = ad._adjoints(loss)
    assert ran and all(key in adj and adj[key] is None for key in ran)
    params = [t for t in small_cnn.params.values() if id(t) in ref]
    assert params
    assert all(np.array_equal(adj[id(t)], ref[id(t)]) for t in params)


def test_targeted_sweeps_equal_a_sweep_that_keeps_adjoints():
    """``grad_wrt`` and ``backward`` give every parameter's gradient, bit for
    bit, as a sweep of every node that keeps every adjoint."""
    model = mx.ResNetModel(mx.ResNetConfig(), seed=3)
    loss, _ = _cnn_tape(model, 2, seed=17)
    ref = adjoints_reference(loss)
    grads = backward(loss)
    assert set(grads) == set(model.params.values())
    for t in model.params.values():
        assert np.array_equal(grad_wrt(loss, t), ref[id(t)])
        assert np.array_equal(grads[t], ref[id(t)])


def _records(t):
    return bool(t._parents) and t._backward is not None


def test_no_grad_restores_on_exit_exception_and_nesting():
    a, b = Tensor([1.0], requires_grad=True), Tensor([2.0])
    assert _records(ad.add(a, b))
    with pytest.raises(KeyError):
        with ad.no_grad():
            assert not _records(ad.add(a, b))
            raise KeyError("inside")
    assert _records(ad.add(a, b))
    with ad.no_grad():
        with ad.no_grad():
            pass
        assert not _records(ad.mul(a, b))
    assert _records(ad.mul(a, b))


@pytest.mark.parametrize("seed", range(3))
def test_layer_norm_gradcheck(seed):
    rng = _rng(200 + seed)
    x = rng_tensor(rng, (2, 3, 6), 1.0)
    g = rng_tensor(rng, (6,), 0.4)
    b = rng_tensor(rng, (6,), 0.4)

    def f():
        return mean_all(ad.mul(ad.layer_norm(x, g, b), Tensor(np.arange(6.0))))

    check_grads(f, [x, g, b], tol=1e-4)


def test_softmax_ce_gradcheck():
    rng = _rng(11)
    z = rng_tensor(rng, (4, 3), 1.0)

    def f():
        return ad.softmax_cross_entropy(z, [0, 2, 1, 1])

    check_grads(f, [z], tol=1e-4)


def test_embedding_and_masked_mean_gradcheck():
    rng = _rng(12)
    table = rng_tensor(rng, (9, 4), 0.8)
    ids = np.array([[1, 3, 3, 0]])
    keep = np.array([[1.0, 1.0, 1.0, 0.0]])

    def f():
        e = ad.embedding(table, ids)
        return mean_all(ad.mul(ad.masked_seq_mean(e, keep), Tensor(np.arange(4.0))))

    check_grads(f, [table], tol=1e-4)


@pytest.mark.parametrize("seed", range(4))
def test_softmax_last_equals_last_axis_max_bit_for_bit(seed):
    """The row max over a class-first copy gives the bits of the last-axis
    max formula, forward and backward, on attention scores with padded keys
    and on logits, with NaN, infinities and signed zeros in the rows."""
    rng = _rng(24 + seed)
    pad = rng.random((64, 1, 1, 16)) < 0.25
    pad[:, ..., 0] = False                      # no sequence is all padding
    mask = np.where(pad, -1e9, 0.0)
    for z, m in ((_with_specials(rng, (64, 4, 16, 16), 0.01), mask),
                 (_with_specials(rng, (64, 4, 16, 16), 0.01), None),
                 (np.where(rng.random((64, 4, 16, 16)) < 0.5, -0.0, 0.0), mask),
                 (_with_specials(rng, (128, 4), 0.1), None)):
        g = rng.normal(size=z.shape)
        with np.errstate(invalid="ignore"):             # inf - inf
            out = ad.softmax_last(Tensor(z), additive_mask=m)
            ref = softmax_last_reference(z + m if m is not None else z)
            gx = out._backward(g)[0]
            ref_gx = ref * (g - (g * ref).sum(axis=-1, keepdims=True))
        assert same_bits(out.data, ref)
        assert same_bits(gx, ref_gx)


def test_softmax_last_gradcheck():
    rng = _rng(13)
    x = rng_tensor(rng, (2, 3, 4), 1.0)
    mask = np.zeros((2, 3, 4))
    mask[..., -1] = -1e9

    def f():
        return mean_all(ad.mul(ad.softmax_last(x, additive_mask=mask),
                                  Tensor(np.arange(4.0))))

    check_grads(f, [x], tol=1e-4)


# (input, output) extents: the CNN host's factors (up 8, 4, 2 and 1, and down
# 2 for the carry), a non-integer resize each way and a single pixel
RESIZES = [((4, 4), (32, 32)), ((4, 4), (16, 16)), ((4, 4), (8, 8)), ((4, 4), (4, 4)),
           ((16, 16), (8, 8)), ((8, 8), (4, 4)), ((3, 3), (5, 5)), ((5, 5), (3, 3)),
           ((3, 5), (5, 3)), ((1, 1), (3, 3))]


@pytest.mark.parametrize("n", [1, 64])
@pytest.mark.parametrize("src, dst", RESIZES)
def test_nearest_resize_backward_matches_add_at(n, src, dst):
    """The resize gradient has the bits of ``np.add.at`` from zeros: the
    same sums in the same order, signed zeros, infinities and NaN included."""
    rng = _rng(23)
    x = Tensor(rng.normal(size=(n, 8) + src))
    out = ad.nearest_resize(x, dst)
    g = _with_specials(rng, out.shape, share=0.05)
    with np.errstate(invalid="ignore"):                 # inf + -inf
        assert same_bits(out._backward(g)[0], nearest_resize_grad_reference(x.shape, g))
    zeros = np.where(rng.random(out.shape) < 0.5, -0.0, 0.0)
    assert same_bits(out._backward(zeros)[0], nearest_resize_grad_reference(x.shape, zeros))


def test_nearest_resize_gradcheck():
    rng = _rng(14)
    x = rng_tensor(rng, (1, 2, 3, 3), 1.0)

    def f():
        return mean_all(ad.mul(ad.nearest_resize(x, (6, 6)),
                                  Tensor(_rng(15).normal(size=(1, 2, 6, 6)))))

    check_grads(f, [x], tol=1e-4)


# ---------------------------------------------------------------------------
# engine semantics


def test_fanout_accumulation():
    # y = x*x + x => dy/dx = 2x + 1
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.sum_axis(ad.add(ad.mul(x, x), x))
    assert np.allclose(backward(y)[x], 2 * 3.0 + 1)


def test_gradients_are_returned_not_stored():
    """``backward`` returns a dict of ndarrays for the ``requires_grad``
    tensors alone and ``grad_wrt`` an ndarray; no tensor keeps a gradient."""
    x = Tensor(np.array([2.0]), requires_grad=True)
    c = Tensor(np.array([3.0]))
    loss = ad.sum_axis(ad.mul(ad.mul(x, x), c))
    grads = backward(loss)
    assert list(grads) == [x] and isinstance(grads[x], np.ndarray)
    assert np.allclose(grads[x], 12.0)
    g = grad_wrt(loss, x)
    assert isinstance(g, np.ndarray) and np.allclose(g, 12.0)
    assert not hasattr(x, "grad") and not hasattr(ad, "adjoint")


def test_grad_wrt_unreachable_is_zero():
    x = Tensor(np.array([2.0]), requires_grad=True)
    z = Tensor(np.array([5.0]), requires_grad=True)
    loss = ad.sum_axis(ad.mul(x, x))
    assert np.all(grad_wrt(loss, z) == 0)


def test_grad_wrt_requires_grad_contract():
    x = Tensor(np.array([2.0]))
    loss = ad.sum_axis(ad.mul(x, x))
    with pytest.raises(ContractError):
        grad_wrt(loss, x)


def test_graph_reusable_for_two_sweeps():
    """The graph survives a sweep: a second ``backward`` or ``grad_wrt``
    on the same loss returns the same gradient, not a sum of the two."""
    x = Tensor(np.array([2.0]), requires_grad=True)
    loss = ad.sum_axis(ad.mul(x, x))
    g1 = backward(loss)[x].copy()
    assert np.array_equal(backward(loss)[x], g1) and np.array_equal(grad_wrt(loss, x), g1)
    assert np.allclose(g1, 4.0)


def test_deep_chain_no_recursion_limit():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.add(y, Tensor(np.array([0.0])))
    assert np.allclose(backward(ad.sum_axis(y))[x], 1.0)


def test_broadcast_unreduction():
    rng = _rng(16)
    b = rng_tensor(rng, (4,), 1.0)
    x = Tensor(rng.normal(size=(3, 4)))

    def f():
        return mean_all(ad.mul(ad.add(x, b), ad.add(x, b)))

    check_grads(f, [b], tol=1e-4)


def test_relu_subgradient_zero_at_zero():
    x = Tensor(np.array([0.0, -1.0, 1.0]), requires_grad=True)
    assert np.array_equal(backward(ad.sum_axis(ad.relu(x)))[x], [0.0, 0.0, 1.0])


def test_float64_everywhere():
    t = Tensor(np.array([1, 2], dtype=np.int64))
    assert t.data.dtype == np.float64
    out = ad.relu(ad.mul(t, t))
    assert out.data.dtype == np.float64
