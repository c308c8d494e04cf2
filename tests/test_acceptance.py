"""Acceptance gate: one criterion per test, one printed pass/fail line each.

Run with plain pytest; the verdict lines are written straight to the
terminal even under output capture.
"""

import math

import numpy as np
import pytest

import mhexlab as mx
import mhexlab.analysis as A
import mhexlab.autodiff as ad
import mhexlab.metrics as M
import mhexlab.saliency as S
from mhexlab.autodiff import Tensor
from mhexlab.blocks import equivalent_matrix
from mhexlab.datasets import SHAPE_CLASSES
from mhexlab.models import (ResNetConfig, TransformerConfig,
                            TransformerModel, clone_model, count_mhex_params,
                            head_accuracies, load_checkpoint, save_checkpoint,
                            strip_mhex)

from helpers import check_grads, mean_all

pytestmark = pytest.mark.acceptance


def _verdict(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def heldout_shapes():
    return mx.gen_shapes(200, seed=1)


@pytest.fixture(scope="module")
def heldout_tokens():
    return mx.gen_tokens(200, seed=1)


def test_criterion_01_parameter_accounting(capsys):
    cfg = ResNetConfig(stage_channels=(64, 128, 256, 512), blocks_per_stage=2,
                       n_class=9, mhex_sites="all")
    got = count_mhex_params(cfg)
    _verdict(capsys, 1, "parameter accounting", got == 713600,
             f"count={got}, expected 713600 = 1920*9 + 696320")


def test_criterion_02_area_weight(capsys):
    at_peak = M.area_weight(0.25)
    eps = 1e-6
    deriv = (M.area_weight(0.25 + eps) - M.area_weight(0.25 - eps)) / (2 * eps)
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
    vals = M.area_weight(grid)
    argmax = grid[int(np.argmax(vals))]
    ok = at_peak == 1.0 and abs(deriv) < 1e-4 \
        and abs(argmax - 0.25) < 1e-9 \
        and int((vals == vals.max()).sum()) == 1
    _verdict(capsys, 2, "area weight", ok,
             f"f(0.25)={at_peak}, |f'(0.25)|={abs(deriv):.2e}, argmax={argmax}")


def test_criterion_03_entropy(capsys):
    est = A.relu_entropy_drop(1_000_000, seed=0)
    ok = 0.3266 <= est <= 0.3666
    _verdict(capsys, 3, "entropy reduction", ok,
             f"estimate={est:.5f}, target {0.5 * math.log(2):.5f} +/- 0.02")


def test_criterion_04_gradient_integrity(capsys):
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        w = Tensor(rng.normal(0, 0.5, size=(3, 2, 3, 3)), requires_grad=True)
        ln_g = Tensor(rng.normal(0, 0.3, size=(4,)), requires_grad=True)
        table = Tensor(rng.normal(0, 0.5, size=(7, 4)), requires_grad=True)
        proj = Tensor(rng.normal(0, 0.5, size=(3, 4)), requires_grad=True)
        ids = rng.integers(0, 7, size=(2, 3))
        keep = np.ones((2, 3)); keep[:, -1] = 0.0

        def f():
            # touch every differentiable primitive in one composite
            conv = ad.relu(ad.conv2d(x, w, stride=2, pad=1))
            pooled = ad.global_avg_pool(conv)                     # (2, 3)
            emb = ad.layer_norm(ad.embedding(table, ids), ln_g)   # (2, 3, 4)
            att = ad.softmax_last(emb, additive_mask=np.where(keep[..., None] > 0, 0.0, -1e9))
            seq = ad.masked_seq_mean(ad.mul(att, emb), keep)      # (2, 4)
            logits = ad.add(ad.matmul(seq, ad.transpose(proj, (1, 0))), pooled)
            gate = ad.sigmoid(ad.sum_axis(logits, axis=1, keepdims=True))
            up = ad.nearest_resize(ad.reshape(conv, (2, 3, 3, 3)), (5, 5))
            return ad.add(ad.softmax_cross_entropy(ad.mul(logits, gate), [0, 2]),
                          mean_all(ad.mul(up, up)))

        errs = check_grads(f, [w, ln_g, table, proj], tol=1e-4)
        worst = max(worst, max(errs))
    _verdict(capsys, 4, "gradient integrity", worst < 1e-4,
             f"worst finite-difference rel err {worst:.2e} over 10 seeds")


def test_criterion_05_oracle_equivalence(capsys):
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        # cam_layer vs explicit channel loop
        c, h, w = rng.integers(2, 6), rng.integers(2, 6), rng.integers(2, 6)
        wr = rng.normal(size=c)
        feats = rng.normal(size=(c, h, w))
        ref = sum(wr[i] * feats[i] for i in range(c))
        worst = max(worst, float(np.abs(S.cam_layer(wr, feats) - ref).max()))

        # conv2d vs quadruple loop
        kn = int(rng.integers(1, 4))
        xin = rng.normal(size=(1, 2, 5, 5))
        ker = rng.normal(size=(2, 2, kn, kn))
        stride = int(rng.integers(1, 3))
        pad = int(rng.integers(0, 2))
        out = ad.conv2d(Tensor(xin), Tensor(ker), stride=stride, pad=pad).data
        xp = np.pad(xin, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        oh = (xp.shape[2] - kn) // stride + 1
        ow = (xp.shape[3] - kn) // stride + 1
        ref = np.zeros((1, 2, oh, ow))
        for o in range(2):
            for i in range(oh):
                for j in range(ow):
                    ref[0, o, i, j] = np.sum(
                        xp[0, :, i * stride:i * stride + kn, j * stride:j * stride + kn]
                        * ker[o])
        worst = max(worst, float(np.abs(out - ref).max()))

        # aggregate_cams vs explicit decay loop
        grids = [rng.normal(size=(4, 4)), rng.normal(size=(2, 2))]
        decay = float(rng.uniform(0.5, 1.0))
        agg = S.aggregate_cams(grids, decay)
        ref = decay * grids[0] + decay ** 2 * S.resize_map(grids[1], (4, 4))
        worst = max(worst, float(np.abs(agg.raw - ref).max()))

        # explain_tokens on a small random transformer vs explicit
        # per-token loop over its recorded features and filtered weights
        tcfg = TransformerConfig(vocab_size=8, d_model=5, n_heads=1, n_layers=2,
                                 max_seq=4, n_class=3)
        model = TransformerModel(tcfg, seed=int(rng.integers(2 ** 31)))
        ids = rng.integers(2, tcfg.vocab_size, size=tcfg.max_seq)
        ids[int(rng.integers(1, tcfg.max_seq + 1)):] = tcfg.pad_id
        cfg = S.WeightFilterConfig(token_layers=2, ss_threshold=0.0,
                                   layer_decay=decay)
        cls = int(rng.integers(0, tcfg.n_class))
        sal = S.explain_tokens(model, ids, cls, cfg)
        rec = model.forward_collect(ids)
        live = np.flatnonzero(ids != tcfg.pad_id)
        ref = np.zeros(len(live))
        for l in range(2):
            wf = S.final_weights(equivalent_matrix(model.mhex_params(l)), cfg)[cls]
            feats = rec.site_outputs[l].relu_features.data[0]
            for k, t in enumerate(live):
                ref[k] += decay ** (l + 1) * float(wf @ feats[t])
        worst = max(worst, float(np.abs(sal.scores - ref).max()))
    _verdict(capsys, 5, "oracle equivalence", worst < 1e-6,
             f"max abs deviation {worst:.2e} over 100 instances x 4 ops")


def test_criterion_06_alpha_affinity_and_ss_support(capsys):
    rng = np.random.default_rng(1)
    ok = True
    detail = []
    for trial in range(20):
        w = rng.normal(size=(4, 16))
        feats = rng.normal(size=(16, 6, 6))
        cams = {}
        for a in (0.0, 0.5, 1.0):
            cfg = S.WeightFilterConfig(neg_mix=a, ss_threshold=0.0)
            cams[a] = S.cam_layer(S.final_weights(w, cfg)[0], feats)
        dev = float(np.abs(cams[0.5] - 0.5 * (cams[0.0] + cams[1.0])).max())
        ok = ok and dev < 1e-10
    detail.append(f"collinearity dev {dev:.2e}")
    w = rng.normal(size=(4, 64))
    supports = [int(np.count_nonzero(
        S.final_weights(w, S.WeightFilterConfig(ss_threshold=t))))
        for t in (0.0, 0.3, 0.5, 0.9)]
    mono = all(a >= b for a, b in zip(supports, supports[1:])) \
        and supports[0] > supports[-1]
    ok = ok and mono
    detail.append(f"supports over ss {supports}")
    _verdict(capsys, 6, "alpha affinity / ss filter", ok, "; ".join(detail))


def test_criterion_07_training_sanity(capsys, trained_cnn, trained_cnn_log,
                                      heldout_shapes):
    epochs = len(trained_cnn_log)
    accs = head_accuracies(trained_cnn, heldout_shapes)
    final = accs[-1]
    chance = 1.0 / len(SHAPE_CLASSES)
    ds_ok = all(a > chance for a in accs[:-1])
    ok = epochs <= 10 and final >= 0.90 and ds_ok
    _verdict(capsys, 7, "training sanity", ok,
             f"epochs={epochs}, held-out head accuracies "
             f"{[round(a, 3) for a in accs]} (final >= 0.90, DS heads > {chance})")


def _mhex_cam(model, image, label):
    smap = S.explain_image(model, image, label)
    return S.resize_map(smap.grid, image.shape[-2:])


def test_criterion_08_localization(capsys, trained_cnn, heldout_shapes):
    n = 200
    wins = losses = 0
    mhex_scores, grad_scores = [], []
    for i in range(n):
        label = int(heldout_shapes.labels[i])
        img = heldout_shapes.images[i]
        cam = _mhex_cam(trained_cnn, img, label)
        gcam = S.resize_map(S.gradcam_baseline(trained_cnn, img, label).grid,
                            img.shape[-2:])
        ms = mx.localization_score(cam, heldout_shapes.truth_masks[i])
        gs = mx.localization_score(gcam, heldout_shapes.truth_masks[i])
        mhex_scores.append(ms)
        grad_scores.append(gs)
        if ms > gs:
            wins += 1
        elif ms < gs:
            losses += 1
    mean_m = float(np.mean(mhex_scores))
    mean_g = float(np.mean(grad_scores))
    if mean_m > mean_g:
        branch_ok = A.sign_test_p(wins, losses) < 0.05
        branch = f"strict, sign-test p={A.sign_test_p(wins, losses):.2e}"
    else:
        branch_ok = mean_m >= mean_g - 0.05
        branch = "within-0.05"
    ok = mean_m > 0.6 and branch_ok
    _verdict(capsys, 8, "localization", ok,
             f"mhex={mean_m:.3f} (> 0.6), gradcam={mean_g:.3f}, {branch}")


def test_criterion_09_metric_ordering(capsys, trained_cnn, heldout_shapes):
    n, steps = 200, 20
    rng = np.random.default_rng(0)
    wins = losses = 0
    cams, rand_cams = [], []
    for i in range(n):
        label = int(heldout_shapes.labels[i])
        img = heldout_shapes.images[i]
        cam = _mhex_cam(trained_cnn, img, label)
        area = M.saliency_area(cam)
        rand = (rng.random(cam.shape) < area).astype(np.float64)
        cams.append(cam)
        rand_cams.append(rand)
        r_m = M.drop_record(trained_cnn.predict_proba, img, label, cam, sample_id=i)
        r_r = M.drop_record(trained_cnn.predict_proba, img, label, rand, sample_id=i)
        if r_m.drop > r_r.drop:
            wins += 1
        elif r_m.drop < r_r.drop:
            losses += 1
    p_sign = A.sign_test_p(wins, losses)

    def mean_del_auc(maps):
        curves = [M.deletion_curve(trained_cnn.predict_proba, heldout_shapes.images[i],
                                   maps[i], int(heldout_shapes.labels[i]), steps=steps)
                  for i in range(n)]
        return M.auc(M.Curve(curves[0].fractions,
                             np.mean([c.confidences for c in curves], axis=0)))

    auc_m = mean_del_auc(cams)
    auc_r = mean_del_auc(rand_cams)
    ok = wins > losses and p_sign < 0.01 and auc_m < auc_r
    _verdict(capsys, 9, "metric ordering", ok,
             f"drop wins {wins} vs {losses} (sign p={p_sign:.2e} < 0.01), "
             f"deletion AUC mhex={auc_m:.3f} < random={auc_r:.3f}")


def test_criterion_10_statistics(capsys):
    x = np.arange(10.0)
    res1 = A.pearson(x, 3.0 * x + 2.0)
    exact1 = res1.r == 1.0 and res1.p < 1e-12
    res0 = A.pearson([-1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0])
    exact0 = res0.r == 0.0 and res0.p == 1.0
    n, r = 20, 0.444
    xs = (x2 := np.arange(n, dtype=np.float64)) - x2.mean()
    xs /= np.sqrt((xs ** 2).sum())
    e = np.sin(1.7 * np.arange(n)); e -= e.mean(); e -= (e @ xs) * xs
    e /= np.sqrt((e ** 2).sum())
    resr = A.pearson(np.arange(n, dtype=np.float64),
                     r * xs + math.sqrt(1 - r * r) * e)
    ok = exact1 and exact0 and abs(resr.t - 2.10) < 0.01 \
        and abs(resr.p - 0.05) < 0.005
    _verdict(capsys, 10, "statistics", ok,
             f"r=1 fixture ({res1.r}, p={res1.p:.1e}), r=0 fixture "
             f"({res0.r}, p={res0.p}), r=0.444: t={resr.t:.4f}, p={resr.p:.4f}")


def test_criterion_11_structural_fidelity(capsys, trained_cnn,
                                          trained_transformer, tmp_path,
                                          heldout_shapes, heldout_tokens):
    img = heldout_shapes.images[:4]
    stripped = strip_mhex(trained_cnn)
    bit_cnn = np.array_equal(trained_cnn.forward_logits(img).data,
                             stripped.forward_logits(img).data)
    st = strip_mhex(trained_transformer)
    bit_tfm = np.array_equal(
        trained_transformer.forward_logits(heldout_tokens.ids[:4]).data,
        st.forward_logits(heldout_tokens.ids[:4]).data)
    label = int(heldout_shapes.labels[0])
    cos = A.collaboration_cosine(trained_cnn, heldout_shapes.images[0], label, 0)
    bq = A.blockwise_quality(trained_cnn, heldout_shapes.images[0], label,
                             grid=1, site=0)
    grid_ok = abs(bq[0, 0] - cos) < 1e-9
    save_checkpoint(trained_cnn, tmp_path / "rt.ckpt")
    twin = load_checkpoint(tmp_path / "rt.ckpt")
    rt_ok = all(np.array_equal(t.data, twin.params[n].data)
                for n, t in trained_cnn.params.items())
    ok = bit_cnn and bit_tfm and grid_ok and rt_ok
    _verdict(capsys, 11, "structural fidelity", ok,
             f"head-removal bit-identical (cnn={bit_cnn}, tfm={bit_tfm}), "
             f"|grid1 - cosine|={abs(bq[0, 0] - cos):.1e}, "
             f"checkpoint round-trip exact={rt_ok}")


def test_criterion_12_token_pipeline(capsys, trained_transformer,
                                     heldout_tokens):
    n = 200
    hits = 0
    ids, labels = heldout_tokens.ids[:n], heldout_tokens.labels[:n]
    sals = S.explain_tokens(trained_transformer, ids, labels)
    for sal, truth_mask in zip(sals, heldout_tokens.truth_masks[:n]):
        truth = np.flatnonzero(truth_mask)
        top = sal.positions[np.argsort(-sal.scores, kind="stable")[:len(truth)]]
        if set(top.tolist()) == set(truth.tolist()):
            hits += 1
    recs = M.token_perturb_drop(trained_transformer.predict_proba, ids, sals, labels,
                                top_frac=0.10)
    drops = [r.drop for r in recs]
    hit_rate = hits / n
    mean_drop = float(np.mean(drops))
    ok = hit_rate >= 0.80 and mean_drop > 0.2
    _verdict(capsys, 12, "token pipeline", ok,
             f"top-k keyword hit rate {hit_rate:.2f} (>= 0.80), "
             f"mean top-10% drop {mean_drop:.3f} (> 0.2)")
