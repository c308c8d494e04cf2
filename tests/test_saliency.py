import numpy as np
import pytest

import mhexlab as mx
from mhexlab import saliency as S
from mhexlab.errors import (ConfigurationError, ContractError, DimensionError)

from helpers import rel_err


def _w(seed=0, n_class=4, c=8):
    return np.random.default_rng(seed).normal(size=(n_class, c))


def test_split_weights_recompose():
    w = _w()
    pos, neg = S.split_weights(w)
    assert np.all(pos >= 0) and np.all(neg <= 0)
    assert np.allclose(pos + neg, w)


def test_adjust_weights_endpoints():
    w = _w(1)
    pos, neg = S.split_weights(w)
    assert np.allclose(S.adjust_weights(w, 0.0), pos)
    assert np.allclose(S.adjust_weights(w, 1.0), w)
    mid = S.adjust_weights(w, 0.25)
    assert np.allclose(mid, pos + 0.25 * neg)
    with pytest.raises(ConfigurationError):
        S.adjust_weights(w, 1.5)


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
        S.aggregate_cams([])


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


def test_explain_tokens_shapes(small_transformer):
    td = mx.gen_tokens(2, seed=20)
    sal = S.explain_tokens(small_transformer, td.ids[0], int(td.labels[0]))
    n_live = int((td.ids[0] != td.pad_id).sum())
    assert sal.scores.shape == (n_live,)
    assert np.array_equal(sal.positions, np.flatnonzero(td.ids[0] != td.pad_id))
    assert len(sal.layer_scores) == 3


def test_token_saliency_uses_first_layers_only(small_transformer):
    td = mx.gen_tokens(2, seed=21)
    one = S.explain_tokens(small_transformer, td.ids[0], 0,
                           S.WeightFilterConfig(token_layers=1))
    three = S.explain_tokens(small_transformer, td.ids[0], 0,
                             S.WeightFilterConfig(token_layers=3))
    assert np.allclose(three.layer_scores[0], one.layer_scores[0])
    assert not np.allclose(one.scores, three.scores)
    with pytest.raises(ConfigurationError):
        S.explain_tokens(small_transformer, td.ids[0], 0,
                         S.WeightFilterConfig(token_layers=99))


def test_token_saliency_shares_cam_kernel():
    """Token scores are the grid kernel applied to a (D, 1, J) feature
    stack; the two paths must agree to machine precision."""
    rng = np.random.default_rng(22)
    w_eq = rng.normal(size=(4, 6))
    feats = rng.normal(size=(5, 6))     # (J, D)
    cfg = S.WeightFilterConfig(token_layers=1, layer_decay=1.0)
    sal = S.token_saliency([w_eq], [feats], 1, cfg)
    ref = S.cam_layer(S.final_weights(w_eq, cfg)[1], feats.T[:, None, :])[0]
    assert np.allclose(sal.scores, ref)


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
    back = S.read_pgm(p)
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
