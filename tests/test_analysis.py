import math

import numpy as np
import pytest

import mhexlab as mx
import mhexlab.analysis as A
from mhexlab import autodiff as ad
from mhexlab.errors import (ConfigurationError, ContractError,
                            UndefinedCorrelationError)

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
    rec = small_cnn.forward_collect(ds.images[0])
    hw = rec.site_outputs[0].relu_features.data.shape[-2:]
    mask = np.zeros(hw)
    g_ds, g_ag = A.site_gradient_pair(small_cnn, ds.images[0], label, 0,
                                      site_mask=mask)
    assert A._cosine(g_ag, g_ds) == 0.0


def test_blockwise_additive_for_linear_head(small_cnn):
    """With the raw class logit as head loss, per-cell w1 gradients from
    disjoint cells sum to the full-input gradient."""
    ds = mx.gen_shapes(1, seed=33)
    label = int(ds.labels[0])
    rec = small_cnn.forward_collect(ds.images[0])
    hw = rec.site_outputs[0].relu_features.data.shape[-2:]
    grid = 2
    total = np.zeros_like(small_cnn.params["mhex0.w1"].data)
    rows = (np.arange(hw[0]) * grid) // hw[0]
    cols = (np.arange(hw[1]) * grid) // hw[1]
    for gi in range(grid):
        for gj in range(grid):
            mask = np.zeros(hw)
            mask[np.ix_(rows == gi, cols == gj)] = 1.0
            g_ds, _ = A.site_gradient_pair(small_cnn, ds.images[0], label, 0,
                                           site_mask=mask, linear_class=label)
            total += g_ds
    g_full, _ = A.site_gradient_pair(small_cnn, ds.images[0], label, 0,
                                     site_mask=np.ones(hw), linear_class=label)
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
    """The targeted sweep gives the full sweep's adjoint bit for bit: own
    head, next head, and with a masked cell."""
    model = request.getfixturevalue(host)
    x, label, mask = _host_sample(model, seed=40)
    w1 = model.params["mhex0.w1"]
    for site_mask in (None, (0, mask)):
        rec = model.forward_collect(x, site_mask=site_mask)
        for head in (0, 1):
            loss = A._head_loss(rec, head, label)
            full, _ = ad._adjoints(loss)
            assert np.array_equal(ad.grad_wrt(loss, w1).data, full[id(w1)])


def test_grad_wrt_skips_backbone(small_cnn, monkeypatch):
    """The own-head gradient of mhex0.w1 runs no backward closure of a
    backbone conv2d node; the full sweep runs them."""
    made = set()
    conv = ad.conv2d

    def recording(*args, **kwargs):
        out = conv(*args, **kwargs)
        made.add(id(out))
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
    loss_own = A._head_loss(rec, 0, int(ds.labels[0]))
    ad.grad_wrt(loss_own, small_cnn.params["mhex0.w1"])
    assert calls == []
    ad._adjoints(loss_own)
    assert len(calls) == len(backbone_convs)


def _count_backbone(model, monkeypatch):
    calls = []
    backbone = model._backbone

    def counting(x):
        calls.append(1)
        return backbone(x)

    # setitem, so the undo deletes the instance attribute instead of leaving
    # a bound method on the shared fixture
    monkeypatch.setitem(vars(model), "_backbone", counting)
    return calls


def test_blockwise_runs_backbone_once(small_cnn, monkeypatch):
    ds = mx.gen_shapes(1, seed=42)
    calls = _count_backbone(small_cnn, monkeypatch)
    A.blockwise_quality(small_cnn, ds.images[0], int(ds.labels[0]), grid=3)
    assert len(calls) == 1


def test_blockwise_last_site_raises_before_forward(small_cnn, monkeypatch):
    ds = mx.gen_shapes(1, seed=43)
    calls = _count_backbone(small_cnn, monkeypatch)
    with pytest.raises(ContractError):
        A.blockwise_quality(small_cnn, ds.images[0], 0, grid=1,
                            site=len(small_cnn.sites) - 1)
    assert calls == []


def test_blockwise_transformer_raises_before_forward(small_transformer, monkeypatch):
    ds = mx.gen_tokens(1, seed=45)
    calls = _count_backbone(small_transformer, monkeypatch)
    with pytest.raises(ContractError, match="CNN host"):
        A.blockwise_quality(small_transformer, ds.ids[0], int(ds.labels[0]), grid=2)
    assert calls == []


def test_blockwise_equals_per_cell_pairs(small_cnn):
    """Replaying the side chain on one backbone pass gives exactly the
    cosines of independent masked forward passes."""
    ds = mx.gen_shapes(1, seed=44)
    x, label, grid, site = ds.images[0], int(ds.labels[0]), 3, 1
    bq = A.blockwise_quality(small_cnn, x, label, grid=grid, site=site)
    h, w = small_cnn.forward_collect(x).site_outputs[site].relu_features.data.shape[-2:]
    rows = (np.arange(h) * grid) // h
    cols = (np.arange(w) * grid) // w
    ref = np.empty((grid, grid))
    for gi in range(grid):
        for gj in range(grid):
            mask = np.zeros((h, w))
            mask[np.ix_(rows == gi, cols == gj)] = 1.0
            g_ds, g_ag = A.site_gradient_pair(small_cnn, x, label, site, site_mask=mask)
            ref[gi, gj] = A._cosine(g_ag, g_ds)
    assert np.array_equal(bq, ref)


def test_collab_records_equal_collaboration_cosine(small_cnn):
    ds = mx.gen_shapes(3, seed=45)
    records = A.collect_collab_records(small_cnn, ds, n_samples=3)
    assert len(records) == 9
    for r in records:
        cos = A.collaboration_cosine(small_cnn, ds.images[r.sample_id],
                                     int(ds.labels[r.sample_id]), r.site)
        assert r.cosine == cos
    with pytest.raises(ContractError):
        A.collect_collab_records(small_cnn, ds, n_samples=3,
                                 sites=[len(small_cnn.sites) - 1])


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
