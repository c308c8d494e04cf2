import os
import signal
import sys

import numpy as np
import pytest

import mhexlab as mx
import mhexlab.autodiff as ad
from mhexlab.autodiff import Tensor, backward, grad_wrt
from mhexlab.blocks import mhex_loss
from mhexlab.errors import ContractError, DimensionError

from helpers import (adjoints_reference, check_grads, closure_arrays,
                     conv2d_backward_reference, conv2d_forward_reference,
                     conv2d_weight_grad_stacked, conv_workers, rel_err, rng_tensor)


def _rng(seed=0):
    return np.random.default_rng(seed)


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
    grad = ad.grad_wrt(ad.sum_axis(ad.mul(out, Tensor(g))), xt).data
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
    with pytest.raises(IndexError):
        ad.softmax_cross_entropy(Tensor(logits), [3, 0])


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
        return ad.mean_all(ad.mul(g, g))

    check_grads(f, [w1, b1, w2], tol=1e-4)


@pytest.mark.parametrize("seed", range(3))
def test_conv_gradcheck(seed):
    rng = _rng(100 + seed)
    x = rng_tensor(rng, (2, 2, 6, 6), requires_grad=False)
    w = rng_tensor(rng, (3, 2, 3, 3), 0.5)

    def f():
        y = ad.relu(ad.conv2d(x, w, stride=2, pad=1))
        return ad.mean_all(ad.mul(y, y))

    check_grads(f, [w], tol=1e-4)


def test_conv_input_gradcheck():
    rng = _rng(7)
    x = rng_tensor(rng, (1, 2, 5, 5), 1.0)
    w = rng_tensor(rng, (3, 2, 3, 3), 0.5, requires_grad=False)
    w.requires_grad = False

    def f():
        return ad.mean_all(ad.conv2d(x, w, stride=1, pad=1))

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
        return ad.mean_all(ad.mul(y, y))

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
    x = Tensor(rng.normal(size=(2, c, h, h)))
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
    out = ad.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad)
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
    keeps the bits of the stacked references: forward, input gradient and
    weight gradient."""
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
            out = ad.conv2d(Tensor(x), Tensor(w), stride=stride, pad=pad)
            gx, gw = out._backward(g)
        assert np.array_equal(out.data, ref), workers
        assert np.array_equal(gx, ref_gx), workers
        assert np.array_equal(gw, ref_gw), workers


def test_conv_chunk_split_covers_batch_in_equal_chunks(monkeypatch):
    """Contiguous, near-equal sample ranges, one per worker that gets a full
    chunk's columns, and one chunk size whose columns fit ``_COLS_BYTES``;
    a batch with less than two chunks' columns is one range."""
    sample = 8 * 8 * 3 * 3 * 32 * 32            # (8, 32, 8, 3, 1, 1): 3 per chunk
    for workers in (1, 2, 3):
        monkeypatch.setattr(ad, "_WORKERS", workers)
        for n, full_chunks in ((1, 0), (3, 0), (4, 1), (7, 1), (8, 2), (64, 18), (128, 36)):
            ranges, size = ad._chunks(n, sample)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
            lengths = [hi - lo for lo, hi in ranges]
            assert len(ranges) == max(1, min(workers, full_chunks))
            assert max(lengths) - min(lengths) <= 1
            assert 1 <= size <= 3 and size * sample <= ad._COLS_BYTES


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


def test_threaded_conv_backward_repeats_bit_for_bit(monkeypatch):
    """Twenty backward passes of one conv on three workers, with the
    interpreter switching threads as often as it can, give the same bytes."""
    rng = _rng(18)
    x = Tensor(rng.normal(size=(64, 8, 32, 32)))
    w = Tensor(rng.normal(size=(16, 8, 3, 3)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with conv_workers(monkeypatch, 3):
            out = ad.conv2d(x, w, stride=2, pad=1)
            g = rng.normal(size=out.shape)
            first = [a.tobytes() for a in out._backward(g)]
            for _ in range(19):
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
    x = Tensor(rng.normal(size=(16, 8, 32, 32)))
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


def _cnn_tape(model, n, seed):
    """One taped forward of ``n`` shapes images and its combined head loss;
    returns (loss, final_feats)."""
    ds = mx.gen_shapes(n, seed=seed)
    backbone_out = model._backbone(ds.images)
    rec = model.side_chain(backbone_out)
    return mhex_loss(rec.head_logits(), ds.labels, "finetune"), backbone_out[1]


def test_tape_holds_no_columns_or_padded_copies(small_cnn):
    """A conv closure holds only its input and kernel arrays themselves, so
    neither its im2col columns nor a padded copy, whatever their size; no
    other closure on a CNN tape holds an array larger than its node's inputs
    and output."""
    loss, _ = _cnn_tape(small_cnn, 4, seed=15)
    convs = 0
    for node in ad._topo_order(loss):
        if node._backward is None:
            continue
        arrays = closure_arrays(node._backward)
        if node._backward.__qualname__.startswith("conv2d."):
            convs += 1
            assert arrays and all(any(a is p.data for p in node._parents) for a in arrays)
        else:
            limit = max([node.data.size] + [p.data.size for p in node._parents])
            assert all(a.size <= limit for a in arrays)
    assert convs > 0


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
    """``grad_wrt``, ``backward`` and the interior-node ``adjoint`` that
    Grad-CAM asks for are bit-identical to a sweep without the release."""
    model = mx.build_resnet(mx.ResNetConfig(), seed=3)
    loss, final_feats = _cnn_tape(model, 2, seed=17)
    ref = adjoints_reference(loss)
    assert np.array_equal(ad.adjoint(loss, final_feats), ref[id(final_feats)])
    backward(loss)
    for t in model.params.values():
        assert np.array_equal(grad_wrt(loss, t).data, ref[id(t)])
        assert np.array_equal(t.grad, ref[id(t)])


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
        return ad.mean_all(ad.mul(ad.layer_norm(x, g, b), Tensor(np.arange(6.0))))

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
        return ad.mean_all(ad.mul(ad.masked_seq_mean(e, keep), Tensor(np.arange(4.0))))

    check_grads(f, [table], tol=1e-4)


def test_softmax_last_gradcheck():
    rng = _rng(13)
    x = rng_tensor(rng, (2, 3, 4), 1.0)
    mask = np.zeros((2, 3, 4))
    mask[..., -1] = -1e9

    def f():
        return ad.mean_all(ad.mul(ad.softmax_last(x, additive_mask=mask),
                                  Tensor(np.arange(4.0))))

    check_grads(f, [x], tol=1e-4)


def test_nearest_resize_gradcheck():
    rng = _rng(14)
    x = rng_tensor(rng, (1, 2, 3, 3), 1.0)

    def f():
        return ad.mean_all(ad.mul(ad.nearest_resize(x, (6, 6)),
                                  Tensor(_rng(15).normal(size=(1, 2, 6, 6)))))

    check_grads(f, [x], tol=1e-4)


# ---------------------------------------------------------------------------
# engine semantics


def test_fanout_accumulation():
    # y = x*x + x => dy/dx = 2x + 1
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.sum_axis(ad.add(ad.mul(x, x), x))
    backward(y)
    assert np.allclose(x.grad, 2 * 3.0 + 1)


def test_grad_wrt_leaves_grad_untouched():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.mul(x, x)
    g = grad_wrt(ad.sum_axis(y), x)
    assert np.allclose(g.data, 4.0)
    assert x.grad is None or np.all(x.grad == 0)


def test_grad_wrt_unreachable_is_zero():
    x = Tensor(np.array([2.0]), requires_grad=True)
    z = Tensor(np.array([5.0]), requires_grad=True)
    loss = ad.sum_axis(ad.mul(x, x))
    assert np.all(grad_wrt(loss, z).data == 0)


def test_grad_wrt_requires_grad_contract():
    x = Tensor(np.array([2.0]))
    loss = ad.sum_axis(ad.mul(x, x))
    with pytest.raises(ContractError):
        grad_wrt(loss, x)


def test_graph_reusable_for_two_backwards():
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = ad.mul(x, x)
    loss = ad.sum_axis(y)
    g1 = grad_wrt(loss, x).data.copy()
    g2 = grad_wrt(loss, x).data
    assert np.array_equal(g1, g2)


def test_deep_chain_no_recursion_limit():
    x = Tensor(np.array([1.0]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ad.add(y, Tensor(np.array([0.0])))
    backward(ad.sum_axis(y))
    assert np.allclose(x.grad, 1.0)


def test_broadcast_unreduction():
    rng = _rng(16)
    b = rng_tensor(rng, (4,), 1.0)
    x = Tensor(rng.normal(size=(3, 4)))

    def f():
        return ad.mean_all(ad.mul(ad.add(x, b), ad.add(x, b)))

    check_grads(f, [b], tol=1e-4)


def test_relu_subgradient_zero_at_zero():
    x = Tensor(np.array([0.0, -1.0, 1.0]), requires_grad=True)
    backward(ad.sum_axis(ad.relu(x)))
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_float64_everywhere():
    t = Tensor(np.array([1, 2], dtype=np.int64))
    assert t.data.dtype == np.float64
    out = ad.relu(ad.mul(t, t))
    assert out.data.dtype == np.float64
