import math

import numpy as np
import pytest

import mhexlab as mx
import mhexlab.analysis as A
import mhexlab.metrics as M
import mhexlab.models as models
import mhexlab.saliency as S
from mhexlab import autodiff as ad
from mhexlab.errors import (ConfigurationError, ContractError,
                            UndefinedCorrelationError)

from helpers import (adjoints_reference, cell_masks, class_logit, count_calls,
                     gradient_pair_reference)

scipy_stats = pytest.importorskip("scipy.stats")
scipy_special = pytest.importorskip("scipy.special")


# ---------------------------------------------------------------------------
# native special functions against scipy oracles


def test_betainc_against_scipy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = float(rng.uniform(0.3, 30))
        b = float(rng.uniform(0.3, 30))
        x = float(rng.uniform(0, 1))
        assert abs(A.betainc_reg(a, b, x) - scipy_special.betainc(a, b, x)) < 1e-10
    assert A.betainc_reg(2.0, 3.0, 0.0) == 0.0
    assert A.betainc_reg(2.0, 3.0, 1.0) == 1.0


def test_student_t_p_against_scipy():
    for t in (-4.0, -1.3, 0.0, 0.7, 2.1, 6.0):
        for df in (1, 3, 18, 50):
            ref = 2 * scipy_stats.t.sf(abs(t), df)
            assert abs(A.student_t_two_sided_p(t, df) - ref) < 1e-10
    assert A.student_t_two_sided_p(math.inf, 10) == 0.0


@pytest.mark.parametrize("t, df, error", [
    (math.nan, 5, UndefinedCorrelationError),
    (1.0, 0, ConfigurationError),
    (2.0, -1, ConfigurationError),
    (1.0, -1, ConfigurationError),
])
def test_student_t_p_rejects_undefined_input(t, df, error):
    """A NaN statistic or df <= 0 has no p-value; neither may read as 0.0,
    maximal significance."""
    with pytest.raises(error):
        A.student_t_two_sided_p(t, df)


def test_pearson_against_scipy():
    rng = np.random.default_rng(1)
    for n in (5, 20, 100):
        x = rng.normal(size=n)
        y = 0.6 * x + rng.normal(size=n)
        res = A.pearson(x, y)
        ref_r, ref_p = scipy_stats.pearsonr(x, y)
        assert abs(res.r - ref_r) < 1e-12
        assert abs(res.p - ref_p) < 1e-10
        assert res.n == n


def test_pearson_reference_point():
    """r = 0.444 at n = 20 sits right at the 5% two-sided boundary."""
    # synthesize a series with that exact correlation
    n, r = 20, 0.444
    x = np.arange(n, dtype=np.float64)
    xs = (x - x.mean()) / np.sqrt(((x - x.mean()) ** 2).sum())
    e = np.sin(1.7 * x)
    e -= e.mean()
    e -= (e @ xs) * xs                      # orthogonalize
    e /= np.sqrt((e ** 2).sum())
    y = r * xs + np.sqrt(1 - r * r) * e
    res = A.pearson(x, y)
    assert abs(res.r - 0.444) < 1e-12
    assert abs(res.t - 2.10) < 0.01
    assert abs(res.p - 0.05) < 0.005


def test_pearson_contracts():
    with pytest.raises(ContractError):
        A.pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(UndefinedCorrelationError):
        A.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    # a NaN or Inf used to clamp to r = -1
    with pytest.raises(UndefinedCorrelationError, match="NaN or infinite"):
        A.pearson([1.0, 2.0, math.nan, 4.0], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(UndefinedCorrelationError, match="NaN or infinite"):
        A.pearson([1.0, 2.0, 3.0, 4.0], [1.0, math.inf, 3.0, 4.0])
    res = A.pearson([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 4.0, 6.0])
    assert res.r == pytest.approx(1.0)
    assert res.p < 1e-9
    # exactly degenerate series hit the closed-form branch
    exact = A.pearson([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
    if exact.r == 1.0:
        assert exact.t == math.inf and exact.p == 0.0


def test_sign_test_exact_values():
    assert A.sign_test_p(10, 0) == pytest.approx(2.0 ** -10)
    assert A.sign_test_p(5, 5) == pytest.approx(
        sum(math.comb(10, k) for k in range(5, 11)) / 1024)
    with pytest.raises(ContractError):
        A.sign_test_p(0, 0)


# ---------------------------------------------------------------------------
# entropy estimator


def test_relu_entropy_drop_near_half_log2():
    est = A.relu_entropy_drop(1_000_000, seed=0)
    assert abs(est - 0.5 * math.log(2.0)) < 0.02
    with pytest.raises(ConfigurationError):
        A.relu_entropy_drop(10_000)


# ---------------------------------------------------------------------------
# gradient collaboration


def test_site_gradient_pair_nonzero(small_cnn):
    ds = mx.gen_shapes(2, seed=30)
    g_ds, g_ag = A.site_gradient_pair(small_cnn, ds.images[0], int(ds.labels[0]), 0)
    assert np.linalg.norm(g_ds) > 0
    assert np.linalg.norm(g_ag) > 0
    with pytest.raises(ContractError):
        A.site_gradient_pair(small_cnn, ds.images[0], 0,
                             len(small_cnn.sites) - 1)


def test_cosine_bounds_and_eps():
    assert A._cosine(np.ones(4), np.ones(4)) == pytest.approx(1.0)
    assert A._cosine(np.ones(4), -np.ones(4)) == pytest.approx(-1.0)
    assert A._cosine(np.zeros(4), np.ones(4)) == 0.0


def test_blockwise_grid1_equals_global_cosine(small_cnn):
    ds = mx.gen_shapes(1, seed=31)
    label = int(ds.labels[0])
    cos = A.collaboration_cosine(small_cnn, ds.images[0], label, 0)
    bq = A.blockwise_quality(small_cnn, ds.images[0], label, grid=1, site=0)
    assert abs(bq[0, 0] - cos) < 1e-9


def test_blockwise_zero_cell(small_cnn):
    """A cell whose input activations are fully masked contributes the
    epsilon-guarded zero cosine."""
    ds = mx.gen_shapes(1, seed=32)
    label = int(ds.labels[0])
    backbone = small_cnn._backbone(ds.images[0])
    mask = np.zeros(backbone[0][small_cnn.sites[0]].data.shape[-2:])
    rec = small_cnn.side_chain(backbone, (0, mask))
    g_ds, g_ag = gradient_pair_reference(small_cnn, rec, label, 0)
    assert A._cosine(g_ag, g_ds) == 0.0


def test_blockwise_additive_for_linear_head(small_cnn):
    """With the raw class logit as head loss, per-cell w1 gradients from
    disjoint cells sum to the full-input gradient."""
    ds = mx.gen_shapes(1, seed=33)
    label = int(ds.labels[0])
    backbone = small_cnn._backbone(ds.images[0])
    hw = backbone[0][small_cnn.sites[0]].data.shape[-2:]
    w1 = small_cnn.params["mhex0.w1"]

    def own_head_grad(mask):
        rec = small_cnn.side_chain(backbone, (0, mask))
        return ad.grad_wrt(class_logit(rec, 0, label), w1)

    total = np.zeros_like(w1.data)
    for mask in cell_masks(hw, 2):
        total += own_head_grad(mask)
    g_full = own_head_grad(np.ones(hw))
    # with a constant head Jacobian the per-cell pooled contributions are
    # exactly additive, ReLU included, since ReLU(0) = 0 at masked positions
    assert np.linalg.norm(total - g_full) / max(np.linalg.norm(g_full), 1e-12) < 1e-9


def test_blockwise_grid_contract(small_cnn):
    ds = mx.gen_shapes(1, seed=34)
    with pytest.raises(ConfigurationError):
        A.blockwise_quality(small_cnn, ds.images[0], 0, grid=0)
    with pytest.raises(ConfigurationError):
        A.blockwise_quality(small_cnn, ds.images[0], 0, grid=99)


def _host_sample(model, seed):
    """One input of ``model``'s host and a site mask covering part of it."""
    if model.kind == "resnet":
        ds = mx.gen_shapes(1, seed=seed)
        x = ds.images[0]
        hw = model.forward_collect(x).site_outputs[0].relu_features.data.shape[-2:]
        mask = np.zeros(hw)
        mask[: hw[0] // 2, hw[1] // 3:] = 1.0
    else:
        ds = mx.gen_tokens(1, seed=seed)
        x = ds.ids[:1]
        mask = np.ones(x.shape[1])
        mask[::3] = 0.0
    return x, int(ds.labels[0]), mask


@pytest.mark.parametrize("host", ["small_cnn", "small_transformer"])
def test_grad_wrt_equals_full_sweep(host, request):
    """The targeted sweep gives the adjoint of a full sweep that keeps every
    adjoint, bit for bit: own head, next head, and with a masked cell."""
    model = request.getfixturevalue(host)
    x, label, mask = _host_sample(model, seed=40)
    w1 = model.params["mhex0.w1"]
    backbone = model._backbone(x)
    for site_mask in (None, (0, mask)):
        rec = model.side_chain(backbone, site_mask)
        for head in (0, 1):
            loss = A._row_loss(rec, head, [label])
            full = adjoints_reference(loss)
            assert np.array_equal(ad.grad_wrt(loss, w1), full[id(w1)])


def test_grad_wrt_skips_backbone(small_cnn, monkeypatch):
    """The own-head gradient of mhex0.w1 runs no backward closure of a
    backbone conv2d node; the sweep for every parameter runs them."""
    made = set()
    conv = ad.conv2d

    def recording(*args, **kwargs):
        out = conv(*args, **kwargs)
        made.add(id(out._node))
        return out

    ds = mx.gen_shapes(1, seed=41)
    monkeypatch.setattr(ad, "conv2d", recording)
    rec = small_cnn.forward_collect(ds.images[0])
    monkeypatch.undo()
    # the final logits read the backbone alone
    backbone_convs = [n for n in ad._topo_order(rec.final_logits) if id(n) in made]
    assert backbone_convs
    calls = []

    def counted(bw):
        def wrapper(g):
            calls.append(1)
            return bw(g)
        return wrapper

    for node in backbone_convs:
        node._backward = counted(node._backward)
    loss_own = A._row_loss(rec, 0, [int(ds.labels[0])])
    ad.grad_wrt(loss_own, small_cnn.params["mhex0.w1"])
    assert calls == []
    ad._adjoints(loss_own)
    assert len(calls) == len(backbone_convs)


def test_blockwise_runs_backbone_once(small_cnn, monkeypatch):
    ds = mx.gen_shapes(1, seed=42)
    calls = count_calls(type(small_cnn), "_backbone", monkeypatch)
    A.blockwise_quality(small_cnn, ds.images[0], int(ds.labels[0]), grid=3)
    assert len(calls) == 1


def test_blockwise_replays_only_site_and_successor(small_cnn, monkeypatch):
    """Each of the 3 grid rows is one replay of blocks 0 and 1 only, not all
    four."""
    ds = mx.gen_shapes(1, seed=42)
    calls = count_calls(models, "run_block", monkeypatch)
    A.blockwise_quality(small_cnn, ds.images[0], int(ds.labels[0]), grid=3, site=0)
    assert len(calls) == 3 * 2


@pytest.mark.parametrize("grid", [1, 3, 7])
def test_blockwise_sweeps_twice_per_grid_row(small_cnn, monkeypatch, grid):
    """A map sweeps the tape twice per grid row, not twice per cell."""
    ds = mx.gen_shapes(1, seed=42)
    calls = count_calls(ad, "grad_wrt", monkeypatch)
    A.blockwise_quality(small_cnn, ds.images[0], int(ds.labels[0]), grid=grid, site=0)
    assert len(calls) == 2 * grid


def test_collab_records_sweep_twice_per_site(small_cnn, monkeypatch):
    """The records of 5 samples come from one replay and two sweeps for each
    of the three measured sites."""
    ds = mx.gen_shapes(5, seed=45)
    sweeps = count_calls(ad, "grad_wrt", monkeypatch)
    blocks = count_calls(models, "run_block", monkeypatch)
    records = A.collect_collab_records(small_cnn, ds, n_samples=5)
    assert len(records) == 5 * 3
    assert len(sweeps) == 3 * 2
    assert len(blocks) == len(small_cnn.sites)


def test_blockwise_last_site_raises_before_forward(small_cnn, monkeypatch):
    ds = mx.gen_shapes(1, seed=43)
    calls = count_calls(type(small_cnn), "_backbone", monkeypatch)
    with pytest.raises(ContractError):
        A.blockwise_quality(small_cnn, ds.images[0], 0, grid=1,
                            site=len(small_cnn.sites) - 1)
    assert calls == []


# each entry point that takes a label or class id ``c``, on an image ``x``
# with map ``cam``, or on two token rows ``t`` with saliencies ``sals``
_LABEL_ENTRIES = {
    "drop_record": lambda m, c, x, cam, t, sals: M.drop_record(m.predict_proba, x, c, cam),
    "deletion_curve": lambda m, c, x, cam, t, sals: M.deletion_curve(m.predict_proba, x, cam,
                                                                     c, steps=3),
    "image_curves": lambda m, c, x, cam, t, sals: M.image_curves(m.predict_proba, x, [cam], c,
                                                                 steps=3),
    "token_perturb_drop": lambda m, c, x, cam, t, sals: M.token_perturb_drop(
        m.predict_proba, t.ids, sals, [0, c]),
    "collaboration_cosine": lambda m, c, x, cam, t, sals: A.collaboration_cosine(m, x, c, 0),
    "site_gradient_pair": lambda m, c, x, cam, t, sals: A.site_gradient_pair(m, x, c, 0),
    "blockwise_quality": lambda m, c, x, cam, t, sals: A.blockwise_quality(m, x, c, grid=2),
    "explain_image": lambda m, c, x, cam, t, sals: S.explain_image(m, x, c),
    "image_maps": lambda m, c, x, cam, t, sals: S.image_maps(m, [x], [c], grad_cam=True),
    "gradcam_baseline": lambda m, c, x, cam, t, sals: S.gradcam_baseline(m, x, c),
    "explain_tokens": lambda m, c, x, cam, t, sals: S.explain_tokens(m, t.ids, [0, c]),
}


@pytest.mark.parametrize("bad", [1.5, -1, "n_class"])
@pytest.mark.parametrize("entry", list(_LABEL_ENTRIES))
def test_every_label_entry_point_checks_integer_and_range(entry, bad, small_cnn,
                                                          small_transformer, monkeypatch):
    """Every entry point that takes a label or class id sends it through
    ``models.check_class_ids``: a float or a value outside ``[0, n_class)``
    raises ``ConfigurationError``. The metrics check ``predict``'s columns
    after it runs (a 1.5 ended in a bare ``IndexError``); analysis and
    saliency check ``cfg.n_class`` before any forward (analysis read a 1.5
    as class 1)."""
    model = small_transformer if "token" in entry else small_cnn
    label = model.cfg.n_class if bad == "n_class" else bad
    x = mx.gen_shapes(1, seed=47).images[0]
    cam = np.zeros(x.shape[1:])
    cam[:4, :4] = 1.0
    t = mx.gen_tokens(2, seed=47)
    sals = S.explain_tokens(small_transformer, t.ids, t.labels)
    forwards = count_calls(type(model), "_backbone", monkeypatch)
    want = "is not an integer" if bad == 1.5 else "is outside"
    with pytest.raises(ConfigurationError, match=f"{label} {want}"):
        _LABEL_ENTRIES[entry](model, label, x, cam, t, sals)
    metric = entry in ("drop_record", "deletion_curve", "image_curves", "token_perturb_drop")
    assert (forwards == []) != metric


def test_negative_site_raises_before_forward(small_cnn, monkeypatch):
    """Site -1 is not a site: ``collaboration_cosine`` used to end in a bare
    ``KeyError: 'mhex-1.w1'`` after a forward, and so did the block-wise map."""
    ds = mx.gen_shapes(1, seed=43)
    calls = count_calls(type(small_cnn), "_backbone", monkeypatch)
    with pytest.raises(ContractError, match="successor"):
        A.collaboration_cosine(small_cnn, ds.images[0], 0, -1)
    with pytest.raises(ContractError, match="successor"):
        A.blockwise_quality(small_cnn, ds.images[0], 0, grid=1, site=-1)
    assert calls == []


def test_blockwise_transformer_raises_before_forward(small_transformer, monkeypatch):
    ds = mx.gen_tokens(1, seed=45)
    calls = count_calls(type(small_transformer), "_backbone", monkeypatch)
    with pytest.raises(ContractError, match="CNN host"):
        A.blockwise_quality(small_transformer, ds.ids[0], int(ds.labels[0]), grid=2)
    assert calls == []


def test_blockwise_equals_per_cell_pairs(small_cnn):
    """Replaying the side chain one grid row at a time, with per-row mixer
    copies, gives exactly the cosines of independent batch-1 masked replays
    of the model's own mixers, at every site with a successor and grids 1,
    3 and 7 where the site's resolution allows."""
    ds = mx.gen_shapes(1, seed=44)
    x, label = ds.images[0], int(ds.labels[0])
    hws = [o.relu_features.data.shape[-2:] for o in small_cnn.forward_collect(x).site_outputs]
    cases = [(site, grid) for site in range(len(hws) - 1) for grid in (1, 3, 7)
             if grid <= min(hws[site])]
    assert len(cases) == 8          # the 4x4 third site takes grids 1 and 3
    for site, grid in cases:
        bq = A.blockwise_quality(small_cnn, x, label, grid=grid, site=site)
        ref = []
        for mask in cell_masks(hws[site], grid):
            rec = small_cnn.side_chain(small_cnn._backbone(x), (site, mask))
            g_ds, g_ag = gradient_pair_reference(small_cnn, rec, label, site)
            ref.append(A._cosine(g_ag, g_ds))
        assert np.array_equal(bq, np.reshape(ref, (grid, grid)))


def test_collab_records_equal_collaboration_cosine(small_cnn, monkeypatch):
    """Every record equals the batch-1 cosine and the independent reference
    pair, bit for bit, in a replay of all 5 samples and across the stacks of
    1, 2 and 2 rows (``batches(5, 2)``) when ``COLLAB_ROWS`` is 2."""
    ds = mx.gen_shapes(5, seed=45)
    records = A.collect_collab_records(small_cnn, ds, n_samples=5)
    monkeypatch.setattr(A, "COLLAB_ROWS", 2)
    stacked_by_2 = A.collect_collab_records(small_cnn, ds, n_samples=5)
    assert stacked_by_2 == records
    assert [(r.sample_id, r.site) for r in records] == \
        [(i, s) for i in range(5) for s in (0, 1, 2)]
    for r in records:
        x, label = ds.images[r.sample_id], int(ds.labels[r.sample_id])
        cos = A.collaboration_cosine(small_cnn, x, label, r.site)
        g_ds, g_ag = gradient_pair_reference(small_cnn, small_cnn.forward_collect(x),
                                             label, r.site)
        assert r.cosine == cos == A._cosine(g_ag, g_ds)
    # one site, without a successor: the parent returned [] and
    # correlation_triangle then died with a bare IndexError
    one_site = models.ResNetModel(models.ResNetConfig(
        stage_channels=(4, 8), blocks_per_stage=1, mhex_sites=(1,)), seed=3)
    calls = count_calls(type(one_site), "_backbone", monkeypatch)
    for collect in (A.collect_collab_records, A.correlation_triangle):
        with pytest.raises(ContractError, match="successor"):
            collect(one_site, ds, n_samples=3)
    assert calls == []


@pytest.mark.parametrize("n, n_samples", [(2, None), (5, 2)])
def test_collab_records_need_three_samples(small_cnn, monkeypatch, n, n_samples):
    """Fewer than 3 samples leave no correlation to compute: a
    ``ContractError`` before any forward."""
    ds = mx.gen_shapes(n, seed=45)
    calls = count_calls(type(small_cnn), "_backbone", monkeypatch)
    with pytest.raises(ContractError, match="at least 3"):
        A.collect_collab_records(small_cnn, ds, n_samples=n_samples)
    assert calls == []


def test_collab_records_one_backbone_per_forward(small_cnn, monkeypatch):
    """One backbone call per stack feeds p_orig and the stacked replay of
    the maps and gradient pairs, where each sample ran its own; the
    soft-masked copy of each sample is the only other forward."""
    ds = mx.gen_shapes(11, seed=45)
    calls = count_calls(type(small_cnn), "_backbone", monkeypatch)
    A.collect_collab_records(small_cnn, ds)
    assert len(calls) == len(models.batches(11, models.COLLAB_ROWS)) + 11 == 2 + 11


def test_collab_records_drop_equals_explain_and_drop_record(small_cnn):
    """p_orig and sad_drop are those of explain_image, resize_map, soft_mask,
    predict_proba and DropRecord.of, bit for bit."""
    ds = mx.gen_shapes(4, seed=46)
    records = A.collect_collab_records(small_cnn, ds, n_samples=4)
    for r in records:
        image, label = ds.images[r.sample_id], int(ds.labels[r.sample_id])
        cam = S.resize_map(S.explain_image(small_cnn, image, label).grid, image.shape[-2:])
        p_orig, p_mask = (float(small_cnn.predict_proba(x[None])[0, label])
                          for x in (image, M.soft_mask(image, cam)))
        ref = M.DropRecord.of(r.sample_id, p_orig, p_mask, M.saliency_area(cam))
        assert (r.p_orig, r.sad_drop) == (ref.p_orig, ref.drop)


def test_correlation_triangle_structure(small_cnn):
    ds = mx.gen_shapes(8, seed=35)
    rows, records = A.correlation_triangle(small_cnn, ds, n_samples=8)
    assert len(rows) == 7                   # 3 sites x 2 pairs + 1 global
    pairs = [r.pair for r in rows]
    assert pairs.count("cosine_vs_sad") == 3
    assert pairs.count("cosine_vs_p_orig") == 3
    assert pairs.count("sad_vs_p_orig") == 1
    assert all(r.result.n == 8 for r in rows)
    sites = sorted({rec.site for rec in records})
    assert len(sites) == 3
    assert all(s + 1 < len(small_cnn.sites) for s in sites)


def test_write_correlation_csv(tmp_path, small_cnn):
    ds = mx.gen_shapes(4, seed=36)
    rows, _ = A.correlation_triangle(small_cnn, ds, n_samples=4)
    p = A.write_correlation_csv(rows, tmp_path / "corr.csv")
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "pair,site,r,t,p,n"
    assert len(lines) == 8
