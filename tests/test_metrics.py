import numpy as np
import pytest

import mhexlab as mx
import mhexlab.metrics as M
import mhexlab.saliency as S
from mhexlab.datasets import PAD_ID
from mhexlab.errors import ConfigurationError, ContractError, DimensionError
from mhexlab.models import batches

from helpers import conv_workers, peak_mb, perturbation_curve_images, same_bits


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


def _recorded(predict):
    """``predict`` that also keeps a copy of every batch it is given."""
    seen = []

    def recording(x):
        seen.append(np.array(x))
        return predict(x)
    return recording, seen


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
    out = M.hard_mask(img, cam)
    mu = img.mean()
    assert np.all(out[0, 0, :2] == mu)
    assert np.array_equal(out[0, 1:], img[0, 1:])
    with pytest.raises(DimensionError):
        M.hard_mask(img, np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        M.hard_mask(img[0], cam)


def test_hard_mask_fills_the_cells_saliency_area_counts():
    """One salience decision: the cells hard_mask fills are the ones
    saliency_area counts, including cells exactly at SALIENT."""
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(3, 9, 9)) + 2.0      # no pixel equals its channel mean
    cam = rng.uniform(size=(9, 9))
    cam[0, :3] = [M.SALIENT, np.nextafter(M.SALIENT, 0.0), np.nextafter(M.SALIENT, 1.0)]
    filled = np.all(M.hard_mask(img, cam) != img, axis=0)
    assert np.array_equal(filled, cam >= M.SALIENT)
    assert filled[0, :3].tolist() == [True, False, True]
    assert M.saliency_area(cam) == filled.mean()


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
    # one (C,H,W) image only; a batch of one is not passed through
    with pytest.raises(DimensionError):
        M.drop_record(predict, img[None], 0, cam)


def test_drop_records_score_every_map_in_one_prediction(small_cnn):
    """One prediction over an image's masked copies gives each map's
    ``drop_record``: p_orig as given, the area exactly, p_mask within 1e-15
    of the batch-1 prediction."""
    ds = mx.gen_shapes(1, seed=33)
    img, label = ds.images[0], int(ds.labels[0])
    rng = np.random.default_rng(4)
    cams = [rng.uniform(size=(32, 32)) for _ in range(3)]
    p_orig = float(small_cnn.predict_proba(img[None])[0, label])
    recording, seen = _recorded(small_cnn.predict_proba)
    recs = M.drop_records(recording, img, label, cams, p_orig, sample_id=7)
    assert [len(x) for x in seen] == [3]
    for rec, cam in zip(recs, cams):
        single = M.drop_record(small_cnn.predict_proba, img, label, cam, sample_id=7)
        assert (rec.sample_id, rec.p_orig, rec.area) == (7, single.p_orig, single.area)
        assert abs(rec.p_mask - single.p_mask) <= 1e-15


def test_drop_records_need_a_map():
    """No maps raise ``ContractError`` before any prediction; numpy's stack
    used to raise a bare ``ValueError``."""
    img = np.zeros((1, 4, 4))
    recording, seen = _recorded(_linear_predictor(np.ones((1, 4, 4))))
    for cams in ([], np.zeros((0, 4, 4))):
        with pytest.raises(ContractError, match="no maps"):
            M.drop_records(recording, img, 0, cams, 0.5)
    assert seen == []


def test_drop_clamped_at_zero():
    r = M.DropRecord(sample_id=0, p_orig=0.2, p_mask=0.9, drop=0.0, area=0.1)
    assert M.avg_drop([r]) == 0.0


def test_drop_record_of_owns_the_drop():
    assert M.DropRecord.of(3, 0.5, 0.125, 0.5) == M.DropRecord(3, 0.5, 0.125, 0.75, 0.5)
    assert M.DropRecord.of(0, 0.2, 0.9, 0.1).drop == 0.0       # clamped
    assert M.DropRecord.of(0, 0.0, 0.0, 0.1).drop == 0.0       # no confidence


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


def _check_curve_against_reference(curve_fn, predict, img, cam, label, steps, insert):
    """The curve predicts once, on the stacked copy-and-assign images, and
    its confidences are that prediction's; each is within 1e-15 of the same
    image's batch-1 prediction."""
    frames = perturbation_curve_images(img, cam, steps, insert)
    recording, seen = _recorded(predict)
    curve = curve_fn(recording, img, cam, label, steps=steps)
    assert len(seen) == 1 and np.array_equal(seen[0], frames)
    assert np.array_equal(curve.confidences, np.asarray(predict(frames))[:, label])
    single = [np.asarray(predict(f[None]))[0, label] for f in frames]
    assert np.max(np.abs(curve.confidences - single)) <= 1e-15
    assert np.array_equal(curve.fractions, np.linspace(0.0, 1.0, steps))


@pytest.mark.parametrize("steps", [2, 7, 20])
@pytest.mark.parametrize("insert", [False, True], ids=["deletion", "insertion"])
def test_curves_equal_copy_and_assign_reference(steps, insert):
    """The rank-and-select batch holds the copy-and-assign images bit for
    bit on a 3-channel image, with a map full of ties, a random and a zero
    map."""
    rng = np.random.default_rng(steps)
    w = rng.normal(size=(3, 6, 5))
    predict = _linear_predictor(w)
    img = rng.uniform(size=(3, 6, 5))
    tied = np.round(rng.uniform(size=(6, 5)) * 3) / 3
    curve_fn = M.insertion_curve if insert else M.deletion_curve
    for cam in (tied, rng.uniform(size=(6, 5)), np.zeros((6, 5))):
        _check_curve_against_reference(curve_fn, predict, img, cam, 1, steps, insert)


def test_curves_on_a_model_equal_reference(small_cnn):
    ds = mx.gen_shapes(1, seed=31)
    img, label = ds.images[0], int(ds.labels[0])
    cam = S.resize_map(S.explain_image(small_cnn, img, label).grid, img.shape[-2:])
    for insert, curve_fn in ((False, M.deletion_curve), (True, M.insertion_curve)):
        _check_curve_against_reference(curve_fn, small_cnn.predict_proba, img, cam,
                                       label, 7, insert)


@pytest.mark.parametrize("curve_fn", [M.deletion_curve, M.insertion_curve])
def test_long_curve_predicts_per_chunk_as_in_one(monkeypatch, small_cnn, curve_fn):
    """A curve with more steps than ``EVAL_BATCH_SIZE`` predicts once per
    piece of ``batches`` and gives the curve of a single prediction."""
    ds = mx.gen_shapes(1, seed=32)
    img, label = ds.images[0], int(ds.labels[0])
    cam = S.resize_map(S.explain_image(small_cnn, img, label).grid, img.shape[-2:])
    monkeypatch.setattr(M, "EVAL_BATCH_SIZE", 4)
    recording, seen = _recorded(small_cnn.predict_proba)
    chunked = curve_fn(recording, img, cam, label, steps=10)
    assert [len(x) for x in seen] == [3, 3, 4]
    monkeypatch.setattr(M, "EVAL_BATCH_SIZE", 10)
    whole = curve_fn(small_cnn.predict_proba, img, cam, label, steps=10)
    assert np.array_equal(chunked.confidences, whole.confidences)
    assert np.array_equal(chunked.fractions, whole.fractions)


def _curve_case(model, seed):
    """An image, its label and its Grad-CAM-free saliency map."""
    ds = mx.gen_shapes(1, seed=seed)
    img, label = ds.images[0], int(ds.labels[0])
    return img, label, S.resize_map(S.explain_image(model, img, label).grid, img.shape[-2:])


@pytest.mark.parametrize("steps", [2, 3, 7, 20, 21, 128])
def test_curves_at_any_worker_count_equal_one_prediction(monkeypatch, small_cnn, steps):
    """On one worker and spread over two, a default-CNN curve's confidences
    are those of one whole-batch ``predict_proba`` on one worker, bit for
    bit."""
    img, label, cam = _curve_case(small_cnn, 33)
    for insert, curve_fn in ((False, M.deletion_curve), (True, M.insertion_curve)):
        frames = perturbation_curve_images(img, cam, steps, insert)
        with conv_workers(monkeypatch, 1):
            ref = small_cnn.predict_proba(frames)[:, label]
        for workers in (1, 2):
            with conv_workers(monkeypatch, workers):
                curve = curve_fn(small_cnn.predict_proba, img, cam, label, steps=steps)
            assert np.array_equal(curve.confidences, ref), (insert, workers)


def _image_curves_case(model, seed, n_maps):
    """An image, its label and ``n_maps`` maps: its saliency map, a random
    one and one full of ties."""
    img, label, cam = _curve_case(model, seed)
    rng = np.random.default_rng(seed)
    cams = [cam, rng.uniform(size=cam.shape), np.round(rng.uniform(size=cam.shape) * 2) / 2]
    return img, label, cams[:n_maps]


def _check_image_curves(predict, img, cams, label, steps):
    """``image_curves`` gives each map the bits of ``deletion_curve`` and
    ``insertion_curve``, with no prediction of fewer than 2 rows and the
    endpoints predicted once for every map."""
    rows = []

    def recording(x):
        rows.append(len(x))
        return predict(x)

    pairs = M.image_curves(recording, img, cams, label, steps=steps)
    assert len(pairs) == len(cams) and min(rows) >= 2
    for cam, (deletion, insertion) in zip(cams, pairs):
        for got, curve_fn in ((deletion, M.deletion_curve), (insertion, M.insertion_curve)):
            want = curve_fn(predict, img, cam, label, steps=steps)
            assert same_bits(got.confidences, want.confidences), (steps, curve_fn)
            assert same_bits(got.fractions, want.fractions)
    return rows


@pytest.mark.parametrize("steps", [2, 3, 4, 20, 21, 130])
@pytest.mark.parametrize("n_maps", [1, 2, 3])
def test_image_curves_equal_single_curves(small_cnn, steps, n_maps):
    """On the default CNN, every map's two curves equal the single-curve
    functions bit for bit; one 2-row prediction scores the endpoints of all
    maps, and a map's inner steps of both curves are predicted together in
    the pieces of ``batches(inner, EVAL_BATCH_SIZE)``."""
    img, label, cams = _image_curves_case(small_cnn, 36, n_maps)
    rows = _check_image_curves(small_cnn.predict_proba, img, cams, label, steps)
    per_map = [hi - lo for lo, hi in batches(2 * (steps - 2), M.EVAL_BATCH_SIZE)]
    assert rows == [2] + per_map * n_maps


@pytest.mark.parametrize("steps", [3, 20])
def test_spread_image_curves_equal_single_curves(monkeypatch, small_cnn, steps):
    """Spread over two workers, the shared-endpoint curves still have the
    bits of single curves on one worker."""
    img, label, cams = _image_curves_case(small_cnn, 37, 3)
    with conv_workers(monkeypatch, 1):
        want = [(M.deletion_curve(small_cnn.predict_proba, img, cam, label, steps=steps),
                 M.insertion_curve(small_cnn.predict_proba, img, cam, label, steps=steps))
                for cam in cams]
    with conv_workers(monkeypatch, 2):
        got = M.image_curves(small_cnn.predict_proba, img, cams, label, steps=steps)
    for pair, ref in zip(got, want):
        assert all(same_bits(a.confidences, b.confidences) for a, b in zip(pair, ref))


@pytest.mark.parametrize("steps", [5, 9])
def test_image_curves_at_a_piece_boundary_equal_single_curves(monkeypatch, small_cnn, steps):
    """With ``EVAL_BATCH_SIZE`` 4, ``steps - 1`` is a multiple of it, where
    cutting a single curve into slices of 4 left its last step alone, a
    batch-1 prediction that rounds its own way; in the near-equal pieces of
    ``batches`` no step is alone, so the shared 2-row endpoints keep the
    bits of the single curves."""
    monkeypatch.setattr(M, "EVAL_BATCH_SIZE", 4)
    img, label, cams = _image_curves_case(small_cnn, 38, 2)
    rows = _check_image_curves(small_cnn.predict_proba, img, cams, label, steps)
    assert rows == [2] + [hi - lo for lo, hi in batches(2 * (steps - 2), 4)] * 2


def test_spread_curve_holds_under_6_mb(monkeypatch, small_cnn):
    """Spread over two workers in chunks of at most ``_BATCH_CHUNK`` images,
    a 20-step default-CNN curve's tracemalloc peak stays under 6 MB (7.42 MB
    as one batch-20 prediction)."""
    img, label, cam = _curve_case(small_cnn, 34)
    with conv_workers(monkeypatch, 2):
        M.deletion_curve(small_cnn.predict_proba, img, cam, label)     # starts the pool
        assert peak_mb(lambda: M.deletion_curve(small_cnn.predict_proba, img, cam,
                                                label)) < 6.0


@pytest.mark.parametrize("bad", ["n_class", -1])
def test_spread_curve_label_outside_classes_raises(monkeypatch, small_cnn, bad):
    """A bad label still raises ``ConfigurationError`` when the curve's
    prediction is spread over two workers."""
    img, _, cam = _curve_case(small_cnn, 35)
    label = small_cnn.cfg.n_class if bad == "n_class" else bad
    with conv_workers(monkeypatch, 2):
        for curve_fn in (M.deletion_curve, M.insertion_curve):
            with pytest.raises(ConfigurationError, match=f"label {label} is outside"):
                curve_fn(small_cnn.predict_proba, img, cam, label, steps=20)


@pytest.mark.parametrize("bad", ["n_class", -1, -2])
@pytest.mark.parametrize("entry", ["drop_record", "drop_records", "deletion_curve",
                                   "insertion_curve", "image_curves", "token_perturb_drop"])
def test_label_outside_predict_classes_raises(entry, bad, small_cnn, small_transformer):
    """A label outside ``[0, n)`` of ``predict``'s ``n`` columns raises
    ``ConfigurationError``: label ``n`` used to end in a bare ``IndexError``,
    and a negative label scored another class."""
    model = small_transformer if entry == "token_perturb_drop" else small_cnn
    label = model.cfg.n_class if bad == "n_class" else bad
    predict = model.predict_proba
    if model.kind == "transformer":
        td = mx.gen_tokens(2, seed=28)
        sals = S.explain_tokens(model, td.ids, td.labels)

        def call():
            return M.token_perturb_drop(predict, td.ids, sals, [0, label])
    else:
        image = mx.gen_shapes(1, seed=28).images[0]
        cam = np.zeros(image.shape[1:])
        cam[:4, :4] = 1.0
        call = {
            "drop_record": lambda: M.drop_record(predict, image, label, cam),
            "drop_records": lambda: M.drop_records(predict, image, label, [cam], 0.5),
            "deletion_curve": lambda: M.deletion_curve(predict, image, cam, label, steps=3),
            "insertion_curve": lambda: M.insertion_curve(predict, image, cam, label, steps=3),
            "image_curves": lambda: M.image_curves(predict, image, [cam], label, steps=3),
        }[entry]
    with pytest.raises(ConfigurationError, match=f"label {label} is outside"):
        call()


def test_curve_contracts():
    with pytest.raises(ConfigurationError):
        M.deletion_curve(lambda x: np.ones((1, 2)), np.zeros((1, 4, 4)),
                         np.zeros((4, 4)), 0, steps=1)
    with pytest.raises(ConfigurationError):
        M.image_curves(lambda x: np.ones((len(x), 2)), np.zeros((1, 4, 4)),
                       [np.zeros((4, 4))], 0, steps=1)
    with pytest.raises(ContractError):
        M.auc(M.Curve(np.array([0.0, 0.5]), np.array([1.0, 1.0])))
    bad = M.Curve(np.array([0.5, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ContractError):
        M.auc(bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_cam_raises_before_predicting(bad):
    """A NaN soft mask gave a NaN p_mask and a silently clamped drop."""
    rng = np.random.default_rng(3)
    img = rng.uniform(size=(1, 6, 6))
    cam = rng.uniform(size=(6, 6))
    cam[2, 3] = bad
    calls = []

    def predict(x):
        calls.append(1)
        return np.full((len(x), 2), 0.5)

    checks = [lambda: M.soft_mask(img, cam), lambda: M.hard_mask(img, cam),
              lambda: M.drop_record(predict, img, 0, cam),
              lambda: M.deletion_curve(predict, img, cam, 0, steps=3),
              lambda: M.insertion_curve(predict, img, cam, 0, steps=3),
              lambda: M.image_curves(predict, img, [np.zeros((6, 6)), cam], 0, steps=3)]
    for check in checks:
        with pytest.raises(ContractError, match="NaN or an infinity"):
            check()
    assert calls == []


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
    (r,) = M.token_perturb_drop(predict, ids[None], [sal], [0], top_frac=0.10)
    assert r.area == pytest.approx(1 / 8)       # ceil(0.1 * 8) = 1 token
    assert r.drop > 0.8                          # keyword removed
    with pytest.raises(ContractError):
        M.token_perturb_drop(predict, np.array([[1, 1]]), [sal], [0])
    for bad in (ids, ids[None, None]):
        with pytest.raises(DimensionError, match=r"\(B, S\)"):
            M.token_perturb_drop(predict, bad, [sal], [0])


@pytest.mark.parametrize("top_frac", [0.0, -1.0, 1.5, 2.0, float("nan")])
def test_token_perturb_drop_rejects_top_frac(top_frac):
    """A fraction outside (0, 1] raises before any prediction; 2 used to
    pass through to an area of 2, which only area_weight rejected."""
    calls = []

    def predict(ids):
        calls.append(1)
        return np.full((len(ids), 2), 0.5)

    sal = type("S", (), {"positions": np.arange(4), "scores": np.ones(4)})()
    ids = np.arange(2, 6)[None]
    with pytest.raises(ConfigurationError, match="top_frac"):
        M.token_perturb_drop(predict, ids, [sal], [0], top_frac=top_frac)
    assert calls == []
    assert M.token_perturb_drop(predict, ids, [sal], [0], top_frac=1.0)[0].area == 1.0


def test_token_perturb_drop_batch_matches_rows(small_transformer):
    """One prediction over a batch and its masked copies gives each row's
    batch-of-one record, numbered from 0."""
    td = mx.gen_tokens(12, seed=26)
    sals = S.explain_tokens(small_transformer, td.ids, td.labels)
    predict = small_transformer.predict_proba
    batch = M.token_perturb_drop(predict, td.ids, sals, td.labels, top_frac=0.25)
    assert [r.sample_id for r in batch] == list(range(12))
    for b, r in enumerate(batch):
        (one,) = M.token_perturb_drop(predict, td.ids[b:b + 1], sals[b:b + 1],
                                      td.labels[b:b + 1], top_frac=0.25)
        assert one.sample_id == 0 and r.area == one.area
        for f in ("p_orig", "p_mask", "drop"):
            assert getattr(r, f) == pytest.approx(getattr(one, f), rel=1e-12, abs=0)


def test_token_calls_over_300_rows_equal_128_row_slices(small_transformer):
    """``explain_tokens`` and ``token_perturb_drop`` over 300 rows, three
    pieces of 100, give the bits of calls over slices of 128, 128 and 44
    rows, with the sample ids of the whole batch."""
    td = mx.gen_tokens(300, seed=28)
    predict = small_transformer.predict_proba
    sals = S.explain_tokens(small_transformer, td.ids, td.labels)
    recs = M.token_perturb_drop(predict, td.ids, sals, td.labels)
    for lo in range(0, 300, 128):
        rows = slice(lo, lo + 128)
        part = S.explain_tokens(small_transformer, td.ids[rows], td.labels[rows])
        for got, want in zip(sals[rows], part, strict=True):
            assert got.class_id == want.class_id
            assert same_bits(got.positions, want.positions)
            assert same_bits(got.scores, want.scores)
            assert all(same_bits(a, b) for a, b in zip(got.layer_scores, want.layer_scores))
        part = M.token_perturb_drop(predict, td.ids[rows], part, td.labels[rows])
        for got, want in zip(recs[rows], part, strict=True):
            assert got == M.DropRecord(lo + want.sample_id, want.p_orig, want.p_mask,
                                       want.drop, want.area)


def test_token_perturb_drop_batch_contracts(small_transformer):
    td = mx.gen_tokens(3, seed=27)
    sals = S.explain_tokens(small_transformer, td.ids, td.labels)
    ids = td.ids.copy()
    ids[2] = PAD_ID
    predict = small_transformer.predict_proba
    with pytest.raises(ContractError):
        M.token_perturb_drop(predict, ids, sals, td.labels)
    with pytest.raises(DimensionError):
        M.token_perturb_drop(predict, td.ids, sals[:2], td.labels)


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


def test_drop_csv_without_confidence_writes_no_file(tmp_path):
    """A summary that raises leaves no half-written table behind."""
    recs = [M.DropRecord(0, 0.0, 0.0, 0.0, 0.25)]
    with pytest.raises(ContractError):
        M.write_drop_csv(recs, tmp_path / "d.csv", method="mhex")
    assert not (tmp_path / "d.csv").exists()
