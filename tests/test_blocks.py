import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mhexlab.autodiff as ad
import mhexlab.blocks as blocks
from mhexlab.autodiff import Tensor
from mhexlab.blocks import (MhexParams, attention_gate, ds_logits,
                            equivalent_matrix, mhex_loss, run_block)
from mhexlab.errors import ContractError, DimensionError

from helpers import check_grads, mean_all


def _params(c=6, n_class=4, seed=0):
    rng = np.random.default_rng(seed)
    return MhexParams(
        w1=Tensor(rng.normal(0, 0.5, (c, c)), requires_grad=True),
        w2=Tensor(rng.normal(0, 0.5, (n_class, c)), requires_grad=True))


def test_param_shape_contracts():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionError):
        MhexParams(w1=Tensor(rng.normal(size=(3, 4))), w2=Tensor(rng.normal(size=(2, 3))))
    with pytest.raises(DimensionError):
        MhexParams(w1=Tensor(rng.normal(size=(3, 3))), w2=Tensor(rng.normal(size=(2, 4))))


def test_per_row_param_shape_contracts():
    """Per-row copies are a (B, C, C) w1 and a (B, n_class, C) w2 with the
    same B and C; a 2-D w2 does not go with a stacked w1."""
    rng = np.random.default_rng(0)
    MhexParams(w1=Tensor(rng.normal(size=(3, 4, 4))), w2=Tensor(rng.normal(size=(3, 5, 4))))
    for w1, w2 in [((3, 4, 4), (2, 5, 4)),      # leading dimensions differ
                   ((3, 4, 4), (3, 5, 6)),      # channels differ
                   ((3, 4, 4), (5, 4)),         # one stacked, one not
                   ((3, 4, 5), (3, 5, 5)),      # copies not square
                   ((2, 3, 4, 4), (2, 3, 5, 4))]:
        with pytest.raises(DimensionError):
            MhexParams(w1=Tensor(rng.normal(size=w1)), w2=Tensor(rng.normal(size=w2)))


@settings(max_examples=40, deadline=None)
@given(b=st.sampled_from([1, 2, 7]), c=st.integers(1, 70), k=st.integers(1, 70),
       scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e200]), seed=st.integers(0, 2 ** 32 - 1))
def test_per_row_product_equals_the_2d_product_row_by_row(b, c, k, scale, seed):
    """Row r of ``_mix`` over per-row copies of a (K, C) matrix is the 2-D
    product of row r alone, bit for bit, and so are the gradients of row r
    and of copy r."""
    rng = np.random.default_rng(seed)
    v, w, g = rng.normal(size=(b, c)) * scale, rng.normal(size=(k, c)), rng.normal(size=(b, k))
    vt = Tensor(v, requires_grad=True)
    copies = Tensor(np.broadcast_to(w, (b, k, c)).copy(), requires_grad=True)
    out = blocks._mix(vt, copies)
    loss = ad.sum_axis(ad.mul(out, g))
    gv, gw = ad.grad_wrt(loss, vt), ad.grad_wrt(loss, copies)
    for r in range(b):
        vr, wr = Tensor(v[r:r + 1], requires_grad=True), Tensor(w, requires_grad=True)
        ref = blocks._mix(vr, wr)
        ref_loss = ad.sum_axis(ad.mul(ref, g[r:r + 1]))
        assert np.array_equal(out.data[r], ref.data[0])
        assert np.array_equal(gv[r], ad.grad_wrt(ref_loss, vr)[0])
        assert np.array_equal(gw[r], ad.grad_wrt(ref_loss, wr))


def test_gate_matches_manual_formula():
    rng = np.random.default_rng(1)
    p = _params()
    x = Tensor(rng.normal(size=(2, 6, 5, 5)))
    xg = Tensor(rng.normal(size=(2, 6, 5, 5)))
    g, x_att = attention_gate(x, xg, p)
    pooled = (x.data + xg.data).mean(axis=(2, 3))
    ref = 1.0 / (1.0 + np.exp(-(pooled @ p.w1.data.T)))
    assert np.allclose(g.data, ref)
    assert np.all((g.data > 0) & (g.data < 1))
    assert np.allclose(x_att.data, x.data * ref[:, :, None, None])


def test_ds_logits_matches_manual_formula():
    rng = np.random.default_rng(2)
    p = _params()
    x = Tensor(rng.normal(size=(3, 6, 4, 4)))
    xg = Tensor(rng.normal(size=(3, 6, 4, 4)))
    logits, feats = ds_logits(x, xg, p)
    relu = np.maximum(x.data + xg.data, 0)
    ref = relu.mean(axis=(2, 3)) @ p.w1.data.T @ p.w2.data.T
    assert np.allclose(logits.data, ref)
    assert np.allclose(feats.data, relu)


def test_logit_equals_mean_of_layer_cam():
    """Each supervision logit must equal the spatial mean of the CAM built
    from the equivalent matrix row and the rectified features."""
    rng = np.random.default_rng(3)
    p = _params()
    x = Tensor(rng.normal(size=(1, 6, 4, 4)))
    xg = Tensor(rng.normal(size=(1, 6, 4, 4)))
    logits, feats = ds_logits(x, xg, p)
    w_eq = equivalent_matrix(p)
    for cls in range(p.w2.data.shape[0]):
        cam = np.tensordot(w_eq[cls], feats.data[0], axes=(0, 0))
        assert abs(cam.mean() - logits.data[0, cls]) < 1e-12


@pytest.mark.parametrize("op", ["conv2d", "softmax_cross_entropy", "run_block"])
def test_unbatched_inputs_raise(op):
    """Primitives and blocks take batched inputs only; a single (C,H,W)
    image or (C,) logit vector is a shape error, not a silent squeeze."""
    rng = np.random.default_rng(6)
    with pytest.raises(DimensionError):
        if op == "conv2d":
            ad.conv2d(Tensor(rng.normal(size=(2, 5, 5))), Tensor(rng.normal(size=(3, 2, 3, 3))))
        elif op == "softmax_cross_entropy":
            ad.softmax_cross_entropy(Tensor(rng.normal(size=(4,))), [1])
        else:
            x = Tensor(rng.normal(size=(6, 4, 4)))
            run_block(x, Tensor(rng.normal(size=(6, 4, 4))), _params())


def test_equivalent_matrix_is_product():
    p = _params()
    assert np.allclose(equivalent_matrix(p), p.w2.data @ p.w1.data)


def test_shared_w1_receives_both_gradient_paths():
    rng = np.random.default_rng(4)
    p = _params()
    x = Tensor(rng.normal(size=(2, 6, 4, 4)))
    xg = Tensor(rng.normal(size=(2, 6, 4, 4)))
    out = run_block(x, xg, p)
    gate_loss = mean_all(out.x_att)
    ds_loss = ad.softmax_cross_entropy(out.ds_logits, [0, 1])
    g_gate = ad.grad_wrt(gate_loss, p.w1)
    g_ds = ad.grad_wrt(ds_loss, p.w1)
    assert np.linalg.norm(g_gate) > 0 and np.linalg.norm(g_ds) > 0


def test_block_gradcheck():
    rng = np.random.default_rng(5)
    p = _params(c=4, n_class=3, seed=5)
    x = Tensor(rng.normal(size=(2, 4, 3, 3)))
    xg = Tensor(rng.normal(size=(2, 4, 3, 3)))

    def f():
        out = run_block(x, xg, p)
        return ad.add(ad.softmax_cross_entropy(out.ds_logits, [0, 2]),
                      mean_all(ad.mul(out.x_att, out.x_att)))

    check_grads(f, [p.w1, p.w2], tol=1e-4)


def test_token_host_shapes_and_pad_mask():
    rng = np.random.default_rng(6)
    p = _params(c=5, n_class=3, seed=6)
    x = Tensor(rng.normal(size=(2, 7, 5)))           # (B, S, D)
    xg = Tensor(rng.normal(size=(2, 1, 5)))          # broadcast global vector
    pad = np.zeros((2, 7), dtype=bool)
    pad[:, 5:] = True
    out = run_block(x, xg, p, pad_mask=pad)
    assert out.gate.data.shape == (2, 5)
    assert out.x_att.data.shape == (2, 7, 5)
    assert out.ds_logits.data.shape == (2, 3)
    # pooling must ignore padded positions
    x2 = x.data.copy()
    x2[:, 5:] = 99.0
    out2 = run_block(Tensor(x2), xg, p, pad_mask=pad)
    assert np.allclose(out.gate.data, out2.gate.data)
    assert np.allclose(out.ds_logits.data, out2.ds_logits.data)


def test_shape_mismatch_raises():
    p = _params()
    x = Tensor(np.zeros((2, 6, 4, 4)))
    xg = Tensor(np.zeros((2, 6, 5, 5)))
    with pytest.raises(DimensionError):
        attention_gate(x, xg, p)


@pytest.mark.parametrize("case", ["gate_on_2d", "gate_on_other_width", "global_widens_input"])
def test_block_shape_checks(case):
    """A gate that fits neither an image nor a token feature tensor, and
    global features that broadcast but would widen the block input, are
    shape errors."""
    with pytest.raises(DimensionError):
        if case == "gate_on_2d":
            blocks._gate_broadcast(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 5))))
        elif case == "gate_on_other_width":
            blocks._gate_broadcast(Tensor(np.zeros((2, 5))), Tensor(np.zeros((2, 4, 6))))
        else:
            attention_gate(Tensor(np.zeros((2, 6, 1, 1))), Tensor(np.zeros((2, 6, 4, 4))),
                           _params())


def test_loss_modes():
    rng = np.random.default_rng(7)
    heads = [Tensor(rng.normal(size=(2, 4)), requires_grad=True) for _ in range(3)]
    t = [1, 3]
    pre = mhex_loss(heads, t, "pretrain")
    total = sum(h.data for h in heads)
    z = total - total.max(axis=1, keepdims=True)
    ref = float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(2), t]))
    assert abs(float(pre.data) - ref) < 1e-12
    fin = mhex_loss(heads, t, "finetune")
    refs = []
    for h in heads:
        z = h.data - h.data.max(axis=1, keepdims=True)
        refs.append(float(np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(2), t])))
    assert abs(float(fin.data) - sum(refs)) < 1e-12


def test_loss_contracts():
    with pytest.raises(ContractError):
        mhex_loss([], [0], "finetune")
    with pytest.raises(ContractError):
        mhex_loss([Tensor(np.zeros((1, 2)))], [0], "warmup")
