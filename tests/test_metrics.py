import numpy as np
import pytest

import mhexlab.metrics as M
from mhexlab.errors import ConfigurationError, ContractError, DimensionError


def _linear_predictor(weight):
    """Deterministic stand-in model: softmax of a linear functional of the
    image, so every metric has a closed-form oracle."""
    def predict(x):
        x = np.asarray(x, dtype=np.float64)
        flat = x.reshape(x.shape[0], -1)
        z = np.stack([flat @ weight.ravel(), -flat @ weight.ravel()], axis=1)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)
    return predict


def test_mean_intensity():
    img = np.stack([np.full((4, 4), 0.25), np.full((4, 4), 0.75)])
    assert np.allclose(M.mean_intensity(img), [0.25, 0.75])


def test_soft_mask_oracle():
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(1, 6, 6))
    cam = rng.uniform(size=(6, 6))
    out = M.soft_mask(img, cam)
    mu = img.mean()
    assert np.allclose(out, img * (1 - cam) + mu * cam)
    assert np.allclose(M.soft_mask(img, np.zeros((6, 6))), img)
    assert np.allclose(M.soft_mask(img, np.ones((6, 6))), mu)


def test_hard_mask_oracle():
    img = np.arange(16.0).reshape(1, 4, 4)
    cam = np.zeros((4, 4))
    cam[0, :2] = 0.9
    out = M.hard_mask(img, cam, threshold=0.5)
    mu = img.mean()
    assert np.all(out[0, 0, :2] == mu)
    assert np.array_equal(out[0, 1:], img[0, 1:])
    with pytest.raises(DimensionError):
        M.hard_mask(img, np.zeros((3, 3)))


def test_saliency_area():
    cam = np.zeros((4, 4))
    cam[:2] = 1.0
    assert M.saliency_area(cam) == 0.5


def test_drop_record_and_avg_drop():
    w = np.zeros((1, 4, 4))
    w[0, 0, 0] = 10.0       # confidence driven by one pixel
    predict = _linear_predictor(w)
    img = np.zeros((1, 4, 4))
    img[0, 0, 0] = 1.0
    cam = np.zeros((4, 4))
    cam[0, 0] = 1.0
    r = M.drop_record(predict, img, 0, cam)
    assert r.p_orig > 0.9
    assert r.drop > 0.2
    # masking an irrelevant pixel leaves confidence untouched
    cam2 = np.zeros((4, 4)); cam2[3, 3] = 1.0
    r2 = M.drop_record(predict, img, 0, cam2)
    assert r2.drop < 0.05
    assert M.avg_drop([r, r2]) == pytest.approx((r.drop + r2.drop) / 2)


def test_drop_clamped_at_zero():
    r = M.DropRecord(sample_id=0, p_orig=0.2, p_mask=0.9, drop=0.0, area=0.1)
    assert M.avg_drop([r]) == 0.0


def test_avg_drop_excludes_zero_confidence():
    good = M.DropRecord(0, 0.5, 0.25, 0.5, 0.1)
    dead = M.DropRecord(1, 0.0, 0.0, 0.0, 0.1)
    with pytest.warns(UserWarning):
        val = M.avg_drop([good, dead])
    assert val == pytest.approx(0.5)
    with pytest.raises(ContractError):
        M.avg_drop([dead])


def test_area_weight_shape():
    assert M.area_weight(0.0) == 0.0
    assert M.area_weight(0.25) == pytest.approx(1.0)
    assert M.area_weight(1.0) == pytest.approx(5.0 / 257.0)
    with pytest.raises(ConfigurationError):
        M.area_weight(1.2)


def test_ead_weighs_area():
    small = M.DropRecord(0, 0.8, 0.4, 0.5, 0.25)   # ideal area, weight 1
    big = M.DropRecord(1, 0.8, 0.4, 0.5, 1.0)      # bloated map, tiny weight
    assert M.ead([small]) == pytest.approx(0.5)
    assert M.ead([big]) < 0.01
    with pytest.raises(ContractError):
        M.ead([])


def test_curves_linear_model_oracle():
    """For the one-pixel model, deleting that pixel first collapses the
    curve immediately; deleting it last keeps confidence high longest."""
    w = np.zeros((1, 8, 8)); w[0, 0, 0] = 10.0
    predict = _linear_predictor(w)
    img = np.zeros((1, 8, 8)); img[0, 0, 0] = 1.0
    good_cam = np.zeros((8, 8)); good_cam[0, 0] = 1.0
    bad_cam = 1.0 - good_cam
    del_good = M.deletion_curve(predict, img, good_cam, 0, steps=20)
    del_bad = M.deletion_curve(predict, img, bad_cam, 0, steps=20)
    assert M.auc(del_good) < M.auc(del_bad)
    ins_good = M.insertion_curve(predict, img, good_cam, 0, steps=20)
    ins_bad = M.insertion_curve(predict, img, bad_cam, 0, steps=20)
    assert M.auc(ins_good) > M.auc(ins_bad)
    # endpoints: deletion starts at the clean-image confidence and ends at
    # the fully mean-filled one; insertion is the reverse
    p_clean = predict(img[None])[0][0]
    p_mu = predict(np.broadcast_to(img.mean(), (1, 1, 8, 8)))[0][0]
    assert del_good.confidences[0] == pytest.approx(p_clean)
    assert del_good.confidences[-1] == pytest.approx(p_mu)
    assert ins_good.confidences[0] == pytest.approx(p_mu)
    assert ins_good.confidences[-1] == pytest.approx(p_clean)


def test_curve_contracts():
    with pytest.raises(ConfigurationError):
        M.deletion_curve(lambda x: np.ones((1, 2)), np.zeros((1, 4, 4)),
                         np.zeros((4, 4)), 0, steps=1)
    with pytest.raises(ContractError):
        M.auc(M.Curve(np.array([0.0, 0.5]), np.array([1.0, 1.0])))
    bad = M.Curve(np.array([0.5, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ContractError):
        M.auc(bad)


def test_auc_oracle():
    c = M.Curve(np.linspace(0, 1, 11), np.linspace(0, 1, 11))
    assert M.auc(c) == pytest.approx(0.5)
    flat = M.Curve(np.linspace(0, 1, 5), np.full(5, 0.3))
    assert M.auc(flat) == pytest.approx(0.3)


def test_pixel_order_stable_ties():
    cam = np.zeros((2, 3))
    cam[0, 1] = 1.0
    order = M._pixel_order(cam)
    assert order[0] == 1
    assert list(order[1:]) == [0, 2, 3, 4, 5]   # row-major tie-break


def test_token_perturb_drop():
    def predict(ids):
        ids = np.atleast_2d(ids)
        has_kw = (ids == 7).any(axis=1).astype(float)
        p1 = 0.1 + 0.8 * has_kw
        return np.stack([p1, 1 - p1], axis=1)

    ids = np.array([7, 20, 21, 22, 23, 24, 25, 26, 1, 1])   # pad tail
    sal = type("S", (), {})()
    sal.positions = np.arange(8)
    sal.scores = np.array([5.0, 1, 1, 1, 1, 1, 1, 1])
    r = M.token_perturb_drop(predict, ids, sal, 0, top_frac=0.10)
    assert r.area == pytest.approx(1 / 8)       # ceil(0.1 * 8) = 1 token
    assert r.drop > 0.8                          # keyword removed
    with pytest.raises(ContractError):
        M.token_perturb_drop(predict, np.array([1, 1]), sal, 0)


def test_csv_exports(tmp_path):
    recs = [M.DropRecord(0, 0.8, 0.4, 0.5, 0.25),
            M.DropRecord(1, 0.6, 0.6, 0.0, 0.10)]
    p = M.write_drop_csv(recs, tmp_path / "d.csv", method="mhex")
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "id,p_orig,p_mask,drop,area,f_area"
    assert len(lines) == 4 and lines[-1].startswith("summary:mhex")
    c = M.Curve(np.linspace(0, 1, 3), np.array([0.9, 0.5, 0.1]))
    p2 = M.write_curve_csv(c, tmp_path / "c.csv")
    assert p2.read_text().startswith("fraction,confidence")
