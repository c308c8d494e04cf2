"""Collaboration analysis between the gate and supervision heads,
correlation statistics with native Student-t p-values, block-wise
explanation-quality maps, and the ReLU entropy-reduction check.

For a block l with a successor, two gradients of the shared channel mixer
w1 are compared: the one contributed by block l's own supervision loss and
the one arriving from block l+1's loss through the gated side chain. Their
cosine is the collaboration strength. The block-wise map masks block l's
input one cell at a time through ``side_chain``, the only masked replay,
one grid row of cells per replay. A site outside ``[0, len(sites) - 1)``
raises ``ContractError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import metrics as met
from . import saliency as sal_mod
from .datasets import seeded_rng
from .errors import (ConfigurationError, ContractError,
                     UndefinedCorrelationError)
from .formats import write_csv
from .models import COLLAB_ROWS, batches, check_class_ids, check_cnn

COSINE_EPS = 1e-8
ENTROPY_BINS = 200          # histogram bins of the ReLU entropy estimate
# relu_entropy_drop(1_000_000, seed=0); it reads no model or data, so
# ``mhex analyze`` reports this number instead of estimating it on every run
RELU_ENTROPY_DROP = 0.3476660347142273


@dataclass
class CollabRecord:
    sample_id: int
    site: int
    cosine: float
    p_orig: float
    sad_drop: float


@dataclass
class CorrelationResult:
    r: float
    t: float
    p: float
    n: int


@dataclass
class CorrelationRow:
    pair: str
    site: int | None
    result: CorrelationResult


# ---------------------------------------------------------------------------
# gradient cosine


def _cosine(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + COSINE_EPS))


def _row_loss(rec, head, labels):
    """The rows' cross-entropies at ``head``, summed: the batch mean times B,
    so the backward scales each row's logit gradient by B/B = 1.0, as a
    batch-1 loss does."""
    return ad.mul(ad.softmax_cross_entropy(rec.head_logits()[head], labels),
                  float(len(labels)))


def _check_successor(model, site):
    if not 0 <= site < len(model.sites) - 1:
        raise ContractError(f"site {site} is not a site with a successor block")


def _replay_pairs(model, backbone, labels, sites, site_mask=None):
    """``(record, {site: (own, next)})``: one ``side_chain`` replay of B =
    ``len(labels)`` rows on a ``row_view``, and for each of ``sites`` every
    row's gradients of its own and the next head's loss with respect to the
    site's w1, two (B, C, C) arrays from two sweeps; row b's are those of a
    batch-1 replay of row b, bit for bit. ``backbone`` holds the B rows, or
    one row that ``site_mask``'s stack of B masks replays B times."""
    replayed = range(len(model.sites)) if site_mask is None else \
        (site_mask[0], site_mask[0] + 1)
    view = model.row_view(len(labels), replayed)
    rec = view.side_chain(backbone, site_mask)
    pairs = {}
    for s in sites:
        w1 = view.mhex_params(s).w1
        pairs[s] = (ad.grad_wrt(_row_loss(rec, s, labels), w1),
                    ad.grad_wrt(_row_loss(rec, s + 1, labels), w1))
    return rec, pairs


def site_gradient_pair(model, x, label, site):
    """Gradients of the two consecutive head losses with respect to the
    measured block's shared mixer w1: (from_own_head, from_next_head)."""
    _check_successor(model, site)
    check_class_ids(label, model.cfg.n_class, "label")
    with ad.no_grad():      # no backbone node leads to an explainer parameter
        backbone = model._backbone(x)
    g_ds, g_ag = _replay_pairs(model, backbone, [label], [site])[1][site]
    return g_ds[0], g_ag[0]


def collaboration_cosine(model, x, label, site):
    """Cosine similarity between the two supervision gradients sharing block
    ``site``'s w1; 0 when both gradients vanish (epsilon guard)."""
    g_ds, g_ag = site_gradient_pair(model, x, label, site)
    return _cosine(g_ag, g_ds)


def blockwise_quality(model, x, label, grid=7, site=0):
    """Per-cell collaboration cosine with the block input masked to the
    cell's region, as a (grid, grid) map.

    The backbone runs once, without a tape; each grid row of cells is one
    side-chain replay, one mask per row, up to block ``site + 1``."""
    check_cnn(model, "blockwise_quality")
    if grid < 1:
        raise ConfigurationError("grid must be >= 1")
    _check_successor(model, site)
    check_class_ids(label, model.cfg.n_class, "label")
    with ad.no_grad():
        backbone = model._backbone(x)
    # the site's block input has the shape of its backbone activation
    h, w = backbone[0][model.sites[site]].data.shape[-2:]
    if grid > min(h, w):
        raise ConfigurationError(
            f"grid {grid} exceeds site feature resolution {h}x{w}")
    rows = (np.arange(h) * grid) // h
    cells = (np.arange(w) * grid) // w == np.arange(grid)[:, None]     # (grid, w)
    out = np.empty((grid, grid))
    for gi in range(grid):
        masks = ((rows == gi)[:, None] & cells[:, None, :]).astype(np.float64)
        g_ds, g_ag = _replay_pairs(model, backbone, [label] * grid, [site],
                                   (site, masks))[1][site]
        out[gi] = [_cosine(a, d) for a, d in zip(g_ag, g_ds)]
    return out


# ---------------------------------------------------------------------------
# Pearson r with native t-distribution p-value


def _betacf(a, b, x):
    """Continued fraction for the regularized incomplete beta (modified
    Lentz), absolute tolerance 1e-15 per step, well under the 1e-10 goal."""
    fpmin = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise RuntimeError("incomplete beta continued fraction failed to converge")


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t, df):
    """P(|T| >= |t|) for a Student-t variable with ``df`` degrees of freedom;
    0 for an infinite ``t``."""
    if math.isnan(t):
        raise UndefinedCorrelationError("the t statistic is NaN")
    if not df > 0:
        raise ConfigurationError(f"degrees of freedom must be positive, got {df}")
    return betainc_reg(df / 2.0, 0.5, df / (df + t * t))


def pearson(x, y):
    """Sample correlation with the two-sided p-value of the no-correlation
    t-test (n - 2 degrees of freedom)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n != len(y) or n < 3:
        raise ContractError("pearson needs two equal-length lists with n >= 3")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise UndefinedCorrelationError("a correlation input is NaN or infinite")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance in a correlation input")
    r = float(xc @ yc) / (sx * sy)
    r = min(1.0, max(-1.0, r))
    # snap away the last-ulp rounding of sqrt so exact linear dependence
    # reports |r| = 1
    if abs(r) > 1.0 - 4e-16:
        r = math.copysign(1.0, r)
    if abs(r) == 1.0:
        t = math.inf if r > 0 else -math.inf
    else:
        t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return CorrelationResult(r=r, t=t, p=student_t_two_sided_p(t, n - 2), n=n)


# ---------------------------------------------------------------------------
# triangle report


def check_collab_inputs(model, dataset, n_samples=None):
    """The number of samples the collaboration analysis reads: the first
    ``n_samples`` of ``dataset`` (all by default). Raise ``ContractError``
    unless ``model`` is the CNN host, ``dataset`` holds images, a site has a
    successor block and at least 3 samples are read."""
    check_cnn(model, "the collaboration analysis")
    if not hasattr(dataset, "images"):
        raise ContractError("the collaboration analysis needs an image dataset")
    if len(model.sites) < 2:
        raise ContractError("the collaboration analysis needs a site with a successor block")
    n = len(dataset) if n_samples is None else min(n_samples, len(dataset))
    if n < 3:
        raise ContractError("need at least 3 evaluable samples")
    return n


def collect_collab_records(model, dataset, n_samples=None):
    """Per-sample collaboration, confidence and soft-mask drop for the
    measured sites, the last three that have a successor.

    Each stack, a piece of ``models.batches(n, COLLAB_ROWS)``, runs its
    backbone once without a tape, cut down to the site activations; a row's
    ``p_orig`` is ``head_proba``'s. A side-chain replay of the stack gives the
    maps and two sweeps per site the gradient pairs, each row with batch-1
    bits. Only the soft-masked copy needs a second forward."""
    n = check_collab_inputs(model, dataset, n_samples)
    sites = list(range(len(model.sites) - 1))[-3:]
    records = []
    for lo, hi in batches(n, COLLAB_ROWS):
        labels = [int(c) for c in dataset.labels[lo:hi]]
        with ad.no_grad():
            stacked = model._stack([model._backbone(dataset.images[lo:hi])])
            p_orig = [float(p[c]) for p, c in zip(model.head_proba(stacked[1].data), labels)]
        rec, pairs = _replay_pairs(model, stacked, labels, sites)
        maps = sal_mod.image_map(model, rec, labels)
        for k, i in enumerate(range(lo, hi)):
            image, label = dataset.images[i], labels[k]
            cam = sal_mod.resize_map(maps[k].grid, image.shape[-2:])
            p_mask = float(model.predict_proba(met.soft_mask(image, cam)[None])[0, label])
            drop = met.DropRecord.of(i, p_orig[k], p_mask, met.saliency_area(cam)).drop
            for s in sites:
                g_ds, g_ag = (g[k] for g in pairs[s])
                records.append(CollabRecord(sample_id=i, site=s, cosine=_cosine(g_ag, g_ds),
                                            p_orig=p_orig[k], sad_drop=drop))
    return records


def correlation_triangle(model, dataset, n_samples=None):
    """The seven-entry report: per measured site, collaboration vs soft
    drop and collaboration vs confidence; plus one soft-drop vs confidence
    entry. Zero-variance series raise UndefinedCorrelationError."""
    records = collect_collab_records(model, dataset, n_samples)
    sites = sorted({r.site for r in records})
    rows = []
    for s in sites:
        cos = [r.cosine for r in records if r.site == s]
        sad = [r.sad_drop for r in records if r.site == s]
        po = [r.p_orig for r in records if r.site == s]
        rows.append(CorrelationRow("cosine_vs_sad", s, pearson(cos, sad)))
        rows.append(CorrelationRow("cosine_vs_p_orig", s, pearson(cos, po)))
    first = sites[0]
    sad = [r.sad_drop for r in records if r.site == first]
    po = [r.p_orig for r in records if r.site == first]
    rows.append(CorrelationRow("sad_vs_p_orig", None, pearson(sad, po)))
    return rows, records


def write_correlation_csv(rows, out_path):
    return write_csv(out_path, ["pair", "site", "r", "t", "p", "n"],
                     ([row.pair, "" if row.site is None else row.site, f"{row.result.r:.6g}",
                       f"{row.result.t:.6g}", f"{row.result.p:.6g}", row.result.n]
                      for row in rows))


# ---------------------------------------------------------------------------
# entropy reduction and small-sample statistics


def _hist_entropy(samples, bins):
    counts, edges = np.histogram(samples, bins=bins)
    p = counts / counts.sum()
    widths = np.diff(edges)
    nz = p > 0
    return float(-(p[nz] * np.log(p[nz] / widths[nz])).sum())


def relu_entropy_drop(n_samples=1_000_000, seed=0):
    """Monte-Carlo estimate of the entropy removed by rectifying a standard
    normal: differential entropy of the input minus the mixed entropy
    (point mass at zero plus truncated continuous part) of the output."""
    n_samples = int(n_samples)
    if n_samples < 100_000:
        raise ConfigurationError("relu_entropy_drop needs n_samples >= 1e5")
    rng = seeded_rng(seed)
    z = rng.standard_normal(n_samples)
    h_in = _hist_entropy(z, ENTROPY_BINS)
    p0 = float((z <= 0).mean())
    h_discrete = -p0 * math.log(p0)
    h_continuous = _hist_entropy(z[z > 0], ENTROPY_BINS)
    return h_in - (h_discrete + h_continuous)


def sign_test_p(greater, less):
    """Exact one-sided sign test: probability of at least ``greater`` wins
    out of ``greater + less`` fair coin flips (ties excluded by caller)."""
    n = greater + less
    if n == 0:
        raise ContractError("sign test needs at least one untied pair")
    return float(sum(math.comb(n, k) for k in range(greater, n + 1)) / 2.0 ** n)
