import numpy as np
import pytest

import mhexlab as mx
from mhexlab import autodiff as ad, saliency as S
from mhexlab.blocks import equivalent_matrix
from mhexlab.datasets import PAD_ID
from mhexlab.errors import (ConfigurationError, ContractError, DimensionError)
from mhexlab.models import COLLAB_ROWS, batches, clone_model

from helpers import (adjoints_reference, conv_workers, count_calls, read_pgm, rel_err,
                     same_bits)


def _w(seed=0, n_class=4, c=8):
    return np.random.default_rng(seed).normal(size=(n_class, c))


def test_split_weights_recompose():
    w = _w()
    pos, neg = S.split_weights(w)
    assert np.all(pos >= 0) and np.all(neg <= 0)
    assert np.allclose(pos + neg, w)


def test_salience_sharpness_columns_sum_to_one():
    w = _w(2)
    ss_pos, ss_neg = S.salience_sharpness(w)
    pos, neg = S.split_weights(w)
    live = pos.sum(axis=0) > 0
    assert np.allclose(ss_pos.sum(axis=0)[live], 1.0, atol=1e-6)
    assert np.all((ss_pos >= 0) & (ss_pos <= 1))
    assert np.all((ss_neg >= 0) & (ss_neg <= 1))


def test_final_weights_selection():
    # one column concentrated on class 0, one spread evenly
    w = np.array([[1.0, 0.25], [0.0, 0.25], [0.0, 0.25], [0.0, 0.25]])
    cfg = S.WeightFilterConfig()       # threshold 1/4 + 0.2 = 0.45
    out = S.final_weights(w, cfg)
    assert out[0, 0] == 1.0            # sharpness 1.0 > 0.45
    assert np.all(out[:, 1] == 0.0)    # sharpness 0.25 each, filtered out
    neg = np.array([[-1.0], [0.0], [0.0], [0.0]])
    outn = S.final_weights(neg, cfg)
    assert outn[0, 0] == pytest.approx(-0.25)   # damped by neg_mix


def test_final_weights_support_shrinks_with_threshold():
    w = _w(3, n_class=4, c=32)
    supports = []
    for thr in (0.0, 0.3, 0.5, 0.9):
        cfg = S.WeightFilterConfig(ss_threshold=thr)
        supports.append(int(np.count_nonzero(S.final_weights(w, cfg))))
    assert all(a >= b for a, b in zip(supports, supports[1:]))
    assert supports[0] > supports[-1]


def test_cam_affine_in_neg_mix():
    """With the threshold at zero the filtered map is affine in neg_mix:
    cam(a) = cam_pos + a * cam_neg."""
    w = _w(4)
    feats = np.random.default_rng(5).normal(size=(8, 6, 6))
    cams = {}
    for a in (0.0, 0.5, 1.0):
        cfg = S.WeightFilterConfig(neg_mix=a, ss_threshold=0.0)
        cams[a] = S.cam_layer(S.final_weights(w, cfg)[2], feats)
    interp = 0.5 * (cams[0.0] + cams[1.0])
    assert np.max(np.abs(cams[0.5] - interp)) < 1e-10


def test_cam_layer_matches_manual_sum():
    w_row = np.array([1.0, -2.0, 0.5])
    feats = np.random.default_rng(6).normal(size=(3, 4, 4))
    ref = w_row[0] * feats[0] + w_row[1] * feats[1] + w_row[2] * feats[2]
    assert np.allclose(S.cam_layer(w_row, feats), ref)
    with pytest.raises(DimensionError):
        S.cam_layer(np.ones(4), feats)


def test_normalize_map():
    raw = np.array([[1.0, 3.0], [2.0, 5.0]])
    out = S.normalize_map(raw)
    assert out.min() == 0.0 and out.max() == 1.0
    assert np.all(S.normalize_map(np.full((3, 3), 7.0)) == 0.0)


def test_aggregate_cams_decay_and_resolution():
    fine = np.ones((8, 8))
    coarse = np.ones((4, 4)) * 2.0
    out = S.aggregate_cams([fine, coarse], layer_decay=0.5)
    # raw = 0.5^1 * fine + 0.5^2 * upsampled(coarse) = 0.5 + 0.5 = 1.0
    assert out.raw.shape == (8, 8)
    assert np.allclose(out.raw, 1.0)
    assert np.all(out.grid == 0.0)      # constant map -> zeros
    with pytest.raises(ContractError):
        S.aggregate_cams([], 0.9)


def test_resize_map_nearest():
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    up = S.resize_map(g, (4, 4))
    assert np.array_equal(up[:2, :2], np.full((2, 2), 1.0))
    assert np.array_equal(up[2:, 2:], np.full((2, 2), 4.0))
    down = S.resize_map(up, (2, 2))
    assert np.array_equal(down, g)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        S.WeightFilterConfig(neg_mix=-0.1)
    with pytest.raises(ConfigurationError):
        S.WeightFilterConfig(ss_threshold=1.5)
    with pytest.raises(ConfigurationError):
        S.WeightFilterConfig(layer_decay=0.0)
    # 0 layers crashed on an empty score sum; -1 scored all sites but the last
    for layers in (0, -1):
        with pytest.raises(ConfigurationError, match="token_layers"):
            S.WeightFilterConfig(token_layers=layers)
    assert S.WeightFilterConfig().resolved_threshold(4) == pytest.approx(0.45)
    assert S.WeightFilterConfig(ss_threshold=0.7).resolved_threshold(4) == 0.7


# ---------------------------------------------------------------------------
# model-facing pipelines


def test_explain_image_shapes(small_cnn):
    ds = mx.gen_shapes(2, seed=20)
    smap = S.explain_image(small_cnn, ds.images[0], int(ds.labels[0]))
    assert smap.grid.shape == (16, 16)          # finest site resolution
    assert smap.grid.min() >= 0.0 and smap.grid.max() <= 1.0
    assert len(smap.layer_grids) == len(small_cnn.sites)
    assert all(g.shape == (16, 16) for g in smap.layer_grids)


def test_image_map_reads_a_taped_record(small_cnn):
    """The map read from a taped record is explain_image's bit for bit."""
    ds = mx.gen_shapes(1, seed=21)
    label = int(ds.labels[0])
    (smap,) = S.image_map(small_cnn, small_cnn.forward_collect(ds.images[0]), [label])
    ref = S.explain_image(small_cnn, ds.images[0], label)
    assert np.array_equal(smap.raw, ref.raw) and np.array_equal(smap.grid, ref.grid)


def test_image_maps_share_one_backbone(small_cnn, monkeypatch):
    """One tape-free backbone pass gives the MHEX map of a taped record, the
    Grad-CAM map of the class logit's gradient on the final features, and
    predict_proba's probabilities, bit for bit, with or without the Grad-CAM
    map. The reference gradient comes from a sweep of a whole taped
    backbone, not of ``_head``. gradcam_baseline gives the same Grad-CAM map
    without running the side chain."""
    ds = mx.gen_shapes(1, seed=24)
    img, label = ds.images[0], int(ds.labels[0])
    (ref_s,) = S.image_map(small_cnn, small_cnn.forward_collect(img), [label])
    _, feats, logits, _ = small_cnn._backbone(img)
    onehot = np.eye(logits.shape[1])[label][None]
    grad = adjoints_reference(ad.sum_axis(ad.mul(logits, onehot)))[id(feats._node)][0]
    ref_g = np.maximum(np.tensordot(grad.mean(axis=(1, 2)), feats.data[0], axes=1), 0.0)
    ref_p = small_cnn.predict_proba(img[None])[0]
    taped, backbone = [], type(small_cnn)._backbone

    def recording(self, x):
        taped.append(ad._state.recording)
        return backbone(self, x)

    monkeypatch.setattr(type(small_cnn), "_backbone", recording)
    for grad_cam in (True, False):
        ((smap, gmap, probs),) = S.image_maps(small_cnn, [img], [label], grad_cam=grad_cam)
        assert np.array_equal(smap.raw, ref_s.raw) and np.array_equal(smap.grid, ref_s.grid)
        assert np.array_equal(probs, ref_p)
        assert np.array_equal(gmap.raw, ref_g) if grad_cam else gmap is None
    assert taped == [False, False]
    side = count_calls(type(small_cnn), "side_chain", monkeypatch)
    assert np.array_equal(S.gradcam_baseline(small_cnn, img, label).raw, ref_g)
    assert side == [] and taped == [False] * 3
    assert np.array_equal(S.explain_image(small_cnn, img, label).grid, ref_s.grid)


def _per_image_maps(model, images, labels):
    """Each image's MHEX map from a batch-1 record with the host's single
    mixers, its batch-1 Grad-CAM map and its batch-1 probabilities."""
    return [(S.image_map(model, model.forward_collect(img), [c])[0],
             S.gradcam_baseline(model, img, c), model.predict_proba(img[None])[0])
            for img, c in zip(images, labels)]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 17])
def test_batched_image_maps_equal_per_image_maps(monkeypatch, small_cnn, n):
    """In stacks, the pieces of ``batches(n, COLLAB_ROWS)``, on one worker and
    spread over two, every image's grid, raw and layer grids, Grad-CAM map and
    probabilities have the bits of per-image calls; one ``forward_collect``
    runs per stack, without a tape."""
    ds = mx.gen_shapes(n, seed=40 + n)
    labels = [int(c) for c in ds.labels]
    with conv_workers(monkeypatch, 1):
        want = _per_image_maps(small_cnn, ds.images, labels)
    collects, collect = [], type(small_cnn).forward_collect

    def recording(self, x):
        collects.append((len(x), ad._state.recording))
        return collect(self, x)

    monkeypatch.setattr(type(small_cnn), "forward_collect", recording)
    for workers in (1, 2):
        collects.clear()
        with conv_workers(monkeypatch, workers):
            got = S.image_maps(small_cnn, ds.images, labels, grad_cam=True)
        stacks = [hi - lo for lo, hi in batches(n, COLLAB_ROWS)]
        assert collects == [(rows, False) for rows in stacks]
        assert len(got) == n
        for (smap, gmap, probs), (ref_s, ref_g, ref_p) in zip(got, want):
            assert smap.class_id == ref_s.class_id and gmap.class_id == ref_g.class_id
            assert same_bits(smap.grid, ref_s.grid) and same_bits(smap.raw, ref_s.raw)
            assert len(smap.layer_grids) == len(ref_s.layer_grids)
            assert all(same_bits(a, b) for a, b in zip(smap.layer_grids, ref_s.layer_grids))
            assert same_bits(gmap.grid, ref_g.grid) and same_bits(gmap.raw, ref_g.raw)
            assert same_bits(probs, ref_p), workers


def test_image_maps_check_every_class_id_before_any_forward(small_cnn, small_transformer,
                                                             monkeypatch):
    """A class id out of range or not an integer anywhere in the batch
    raises ``ConfigurationError`` before any forward (a float was truncated
    or ended in a bare ``IndexError``), and so does a class-id count that is
    not the image count (``DimensionError``); the transformer raises
    ``ContractError``, with or without Grad-CAM."""
    ds = mx.gen_shapes(10, seed=26)
    labels = [int(c) for c in ds.labels]
    forwards = count_calls(type(small_cnn), "_backbone", monkeypatch)
    for bad in (-1, small_cnn.cfg.n_class):
        with pytest.raises(ConfigurationError, match=f"class id {bad}"):
            S.image_maps(small_cnn, ds.images, labels[:9] + [bad], grad_cam=False)
    with pytest.raises(ConfigurationError, match="class id 1.0 is not an integer"):
        S.image_maps(small_cnn, ds.images, labels[:9] + [1.0])
    with pytest.raises(DimensionError):
        S.image_maps(small_cnn, ds.images, labels[:9])
    assert forwards == []
    td = mx.gen_tokens(2, seed=26)
    for grad_cam in (True, False):
        with pytest.raises(ContractError):
            S.image_maps(small_transformer, td.ids, [0, 1], grad_cam=grad_cam)


def test_explain_tokens_shapes(small_transformer):
    td = mx.gen_tokens(2, seed=20)
    sal = S.explain_tokens(small_transformer, td.ids[0], int(td.labels[0]))
    n_live = int((td.ids[0] != PAD_ID).sum())
    assert sal.scores.shape == (n_live,)
    assert np.array_equal(sal.positions, np.flatnonzero(td.ids[0] != PAD_ID))
    assert len(sal.layer_scores) == 3


def test_token_saliency_uses_first_layers_only(small_transformer, monkeypatch):
    td = mx.gen_tokens(2, seed=21)
    one = S.explain_tokens(small_transformer, td.ids[0], 0,
                           S.WeightFilterConfig(token_layers=1))
    three = S.explain_tokens(small_transformer, td.ids[0], 0,
                             S.WeightFilterConfig(token_layers=3))
    assert np.allclose(three.layer_scores[0], one.layer_scores[0])
    assert not np.allclose(one.scores, three.scores)
    calls = count_calls(type(small_transformer), "_backbone", monkeypatch)
    with pytest.raises(ConfigurationError):
        S.explain_tokens(small_transformer, td.ids[0], 0,
                         S.WeightFilterConfig(token_layers=99))
    assert calls == []      # rejected before the forward


def test_token_saliency_shares_cam_kernel(small_transformer):
    """Token scores are the grid kernel applied to each site's (D, 1, J)
    stack of non-pad token features; a per-token loop over the same
    features and filtered weights agrees to machine precision."""
    td = mx.gen_tokens(1, seed=22)
    ids, label = td.ids[0], int(td.labels[0])
    cfg = S.WeightFilterConfig(token_layers=2, layer_decay=0.7)
    sal = S.explain_tokens(small_transformer, ids, label, cfg)
    rec = small_transformer.forward_collect(ids)
    live = np.flatnonzero(ids != PAD_ID)
    ref = np.zeros(len(live))
    for l in range(2):
        wf = S.final_weights(equivalent_matrix(small_transformer.mhex_params(l)), cfg)[label]
        feats = rec.site_outputs[l].relu_features.data[0]
        for k, t in enumerate(live):
            ref[k] += 0.7 ** (l + 1) * float(wf @ feats[t])
    assert np.array_equal(sal.positions, live)
    assert np.allclose(sal.scores, ref, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("bad", [-1, 4])
def test_class_id_out_of_range_raises(small_cnn, small_transformer, bad):
    """-1 used to return the last class's map and n_class a bare IndexError."""
    img = mx.gen_shapes(1, seed=27).images[0]
    td = mx.gen_tokens(2, seed=27)
    calls = [lambda: S.explain_image(small_cnn, img, bad),
             lambda: S.image_map(small_cnn, small_cnn.forward_collect(img), [bad]),
             lambda: S.gradcam_baseline(small_cnn, img, bad),
             lambda: S.image_maps(small_cnn, [img], [bad], grad_cam=True),
             lambda: S.explain_tokens(small_transformer, td.ids[0], bad),
             lambda: S.explain_tokens(small_transformer, td.ids, [0, bad])]
    for call in calls:
        with pytest.raises(ConfigurationError, match=f"class id {bad}"):
            call()


def test_token_sanity_explainer_redraw_collapses_hit_rate(trained_transformer):
    """Sanity check: with every explainer tensor redrawn as a normal of its
    own std, the criterion-12 keyword hit rate (0.84 trained) collapses."""
    held = mx.gen_tokens(200, seed=1)

    def hit_rate(model):
        hits = 0
        sals = S.explain_tokens(model, held.ids, held.labels)
        for sal, truth_mask in zip(sals, held.truth_masks):
            truth = np.flatnonzero(truth_mask)
            top = sal.positions[np.argsort(-sal.scores, kind="stable")[:len(truth)]]
            hits += set(top.tolist()) == set(truth.tolist())
        return hits / len(held)

    assert hit_rate(trained_transformer) >= 0.80
    for seed in range(3):
        rng = np.random.default_rng(seed)
        model = clone_model(trained_transformer)
        for name in model.mhex_param_names():
            t = model.params[name]
            t.data = rng.normal(0.0, t.data.std(), size=t.data.shape)
        assert hit_rate(model) < 0.25, f"redraw seed {seed}"


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_explain_tokens_batch_rows_match_single_calls(trained_transformer):
    """Each row of a mixed-length batch matches its own call on the padded
    row and on the row without its pad tail: the batched matmuls change only
    rounding, never positions or rankings."""
    td = mx.gen_tokens(24, seed=23)
    assert len(set((td.ids != PAD_ID).sum(axis=1).tolist())) > 1
    batch = S.explain_tokens(trained_transformer, td.ids, td.labels)
    assert len(batch) == len(td)
    for row, label, sal in zip(td.ids, td.labels, batch):
        for ids in (row, row[row != PAD_ID]):
            one = S.explain_tokens(trained_transformer, ids, int(label))
            assert sal.class_id == one.class_id == label
            assert np.array_equal(sal.positions, one.positions)
            assert _rel(sal.scores, one.scores) <= 1e-12
            for a, b in zip(sal.layer_scores, one.layer_scores):
                assert _rel(a, b) <= 1e-12
            assert np.array_equal(np.argsort(-sal.scores, kind="stable"),
                                  np.argsort(-one.scores, kind="stable"))


def test_explain_tokens_batch_of_one_is_the_single_call(small_transformer):
    td = mx.gen_tokens(1, seed=24)
    one = S.explain_tokens(small_transformer, td.ids[0], int(td.labels[0]))
    (batch,) = S.explain_tokens(small_transformer, td.ids, td.labels)
    assert batch.class_id == one.class_id
    assert np.array_equal(batch.positions, one.positions)
    assert np.array_equal(batch.scores, one.scores)
    assert all(np.array_equal(a, b) for a, b in zip(batch.layer_scores, one.layer_scores))


def test_explain_tokens_batch_contracts(small_transformer):
    td = mx.gen_tokens(3, seed=25)
    ids = td.ids.copy()
    ids[1] = PAD_ID
    with pytest.raises(ContractError):
        S.explain_tokens(small_transformer, ids, td.labels)
    with pytest.raises(DimensionError):
        S.explain_tokens(small_transformer, td.ids, td.labels[:2])


def test_gradcam_baseline(small_cnn, small_transformer):
    ds = mx.gen_shapes(1, seed=23)
    gmap = S.gradcam_baseline(small_cnn, ds.images[0], 0)
    assert gmap.grid.shape == (4, 4)
    assert gmap.raw.min() >= 0.0
    with pytest.raises(ContractError):
        S.gradcam_baseline(small_transformer, ds.images[0], 0)


# ---------------------------------------------------------------------------
# rendering


def test_render_and_read_pgm(tmp_path):
    grid = np.random.default_rng(24).uniform(size=(16, 16))
    smap = S.SaliencyMap(class_id=0, grid=grid, raw=grid)
    p = tmp_path / "map.pgm"
    S.render_heatmap(smap, p)
    back = read_pgm(p)
    assert back.shape == (16, 16)
    assert np.max(np.abs(back / 255.0 - grid)) < 1.0 / 255.0


def test_render_overlay_ppm(tmp_path):
    ds = mx.gen_shapes(1, seed=25)
    grid = np.random.default_rng(26).uniform(size=(16, 16))
    smap = S.SaliencyMap(class_id=0, grid=grid, raw=grid)
    p = tmp_path / "map.ppm"
    S.render_heatmap(smap, p, overlay=ds.images[0])
    data = p.read_bytes()
    assert data.startswith(b"P6\n32 32\n255\n")
    assert len(data) == len(b"P6\n32 32\n255\n") + 32 * 32 * 3


def test_render_unwritable_path_raises():
    grid = np.zeros((4, 4))
    with pytest.raises(OSError) as exc:
        S.render_heatmap(S.SaliencyMap(0, grid, grid), "/nonexistent-dir/x.pgm")
    assert "x.pgm" in str(exc.value)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_render_non_finite_map_raises_and_writes_nothing(tmp_path, bad):
    """A NaN cell used to reach astype(np.uint8) and write an undefined byte."""
    grid = np.random.default_rng(27).uniform(size=(16, 16))
    grid[4, 5] = bad
    overlay = mx.gen_shapes(1, seed=27).images[0]
    for sal_map, kw in ((S.SaliencyMap(0, grid, grid), {}), (grid, {"overlay": overlay})):
        with pytest.raises(ContractError, match="NaN or an infinity"):
            S.render_heatmap(sal_map, tmp_path / "map.pnm", **kw)
    assert list(tmp_path.iterdir()) == []


def test_token_exports(tmp_path):
    sal = S.TokenSaliency(class_id=1, scores=np.array([0.5, 2.0, 1.0]),
                          positions=np.array([0, 1, 2]))
    tokens = ["alpha", "<beta>", "gamma"]
    csv_path = S.export_token_csv(tokens, sal, tmp_path / "t.csv")
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "token,position,score"
    assert len(lines) == 4
    html_path = S.export_token_html(tokens, sal, tmp_path / "t.html")
    doc = html_path.read_text()
    assert "&lt;beta&gt;" in doc and "alpha" in doc
