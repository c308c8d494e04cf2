"""Class-conditional saliency from recorded activations and the blocks'
class-to-channel matrices, plus a Grad-CAM baseline read from the CNN head's
weights and simple PGM/PPM rendering.

The weight-filtering machinery works row-wise on the (n_class, C) product
matrix: split into positive/negative parts, damp negatives by ``neg_mix``,
and keep only entries whose class specificity (column-normalized share)
clears ``ss_threshold``.
"""

from __future__ import annotations

import html as html_mod
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .blocks import equivalent_matrix
from .errors import ConfigurationError, ContractError, DimensionError
from .formats import write_csv
from .models import COLLAB_ROWS, EVAL_BATCH_SIZE, batches, check_class_ids, check_cnn

SHARPNESS_EPS = 1e-8        # keeps an all-zero column's sharpness at zero


@dataclass
class WeightFilterConfig:
    neg_mix: float = 0.25          # share of negative contributions kept
    ss_threshold: float | None = None   # default 1/n_class + 0.2, set per use
    layer_decay: float = 0.9
    token_layers: int = 3          # saliency layer cutoff for token hosts

    def __post_init__(self):
        if not 0.0 <= self.neg_mix <= 1.0:
            raise ConfigurationError(f"neg_mix must be in [0,1], got {self.neg_mix}")
        if self.ss_threshold is not None and not 0.0 <= self.ss_threshold <= 1.0:
            raise ConfigurationError(f"ss_threshold must be in [0,1], got {self.ss_threshold}")
        if not 0.0 < self.layer_decay <= 1.0:
            raise ConfigurationError(f"layer_decay must be in (0,1], got {self.layer_decay}")
        if self.token_layers < 1:
            raise ConfigurationError(f"token_layers must be >= 1, got {self.token_layers}")

    def resolved_threshold(self, n_class):
        if self.ss_threshold is not None:
            return self.ss_threshold
        return 1.0 / n_class + 0.2


@dataclass
class SaliencyMap:
    class_id: int
    grid: np.ndarray              # normalized to [0,1], finest site resolution
    raw: np.ndarray               # pre-normalization weighted sum
    layer_grids: list = field(default_factory=list)


@dataclass
class TokenSaliency:
    class_id: int
    scores: np.ndarray            # one score per non-pad token
    positions: np.ndarray         # positions of those tokens in the sequence
    layer_scores: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# weight filtering


def split_weights(w):
    """Elementwise positive and negative parts; their sum recomposes w."""
    w = np.asarray(w, dtype=np.float64)
    return np.maximum(w, 0.0), np.minimum(w, 0.0)


def salience_sharpness(w_equiv):
    """Column-normalized class specificity of each feature's weight, for the
    positive and (absolute) negative parts separately."""
    pos, neg = split_weights(w_equiv)
    ss_pos = pos / (pos.sum(axis=0, keepdims=True) + SHARPNESS_EPS)
    neg_abs = np.abs(neg)
    ss_neg = neg_abs / (neg_abs.sum(axis=0, keepdims=True) + SHARPNESS_EPS)
    return ss_pos, ss_neg


def final_weights(w_equiv, cfg: WeightFilterConfig):
    """Specificity-filtered weights: positive entries survive where their
    positive sharpness clears the threshold, negative entries (damped by
    neg_mix) where their negative sharpness does."""
    w_equiv = np.asarray(w_equiv, dtype=np.float64)
    ss = cfg.resolved_threshold(w_equiv.shape[0])
    pos, neg = split_weights(w_equiv)
    ss_pos, ss_neg = salience_sharpness(w_equiv)
    return pos * (ss_pos > ss) + cfg.neg_mix * neg * (ss_neg > ss)


# ---------------------------------------------------------------------------
# map assembly


def cam_layer(w_row, features):
    """Per-position weighted channel sum: (C,) x (C,H,W) -> (H,W)."""
    w_row = np.asarray(w_row, dtype=np.float64)
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 3 or w_row.shape != (features.shape[0],):
        raise DimensionError(
            f"cam_layer needs (C,) weights and (C,H,W) features, got "
            f"{w_row.shape} and {features.shape}")
    return np.tensordot(w_row, features, axes=1)


def resize_map(grid, out_hw):
    """Nearest-neighbor resize of a 2-D score grid (``ad.nearest_resize``'s
    index rule); it records no tape node, whether or not the caller does."""
    with ad.no_grad():
        return ad.nearest_resize(grid, out_hw).data


def normalize_map(raw):
    """Min-max to [0,1]; a constant raw map normalizes to all zeros."""
    lo, hi = raw.min(), raw.max()
    if hi - lo == 0:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


def aggregate_cams(layer_grids, layer_decay, class_id=-1):
    """Decay-weighted sum of per-site grids (ordered shallow to deep) on the
    finest grid, normalized into a ``SaliencyMap``."""
    if not layer_grids:
        raise ContractError("aggregate_cams: no layer grids")
    finest = max((np.asarray(g).shape for g in layer_grids), key=lambda s: s[0] * s[1])
    resized = [resize_map(np.asarray(g, dtype=np.float64), finest) for g in layer_grids]
    raw, _ = _decayed_sum(resized, layer_decay)
    return SaliencyMap(class_id=class_id, grid=normalize_map(raw), raw=raw,
                       layer_grids=resized)


def _decayed_sum(grids, layer_decay):
    """Sum of same-shape grids weighted decay^l, l = 1 at the shallowest,
    and its weighted terms."""
    raw = np.zeros(grids[0].shape)
    terms = []
    for l, g in enumerate(grids, start=1):
        terms.append((layer_decay ** l) * g)
        raw += terms[-1]
    return raw, terms


def _site_grids(model, rec, class_ids, cfg, n_sites):
    """Per row ``b`` of ``rec``, ``cam_layer`` of its class's filtered
    ``w2·w1`` weights on each of the first ``n_sites`` sites' rectified
    features: a CNN row's ``(C, h, w)`` map, a token row's non-pad tokens as
    a ``(D, 1, J)`` grid."""
    check_class_ids(class_ids, model.cfg.n_class)
    w_fins = [final_weights(equivalent_matrix(model.mhex_params(s)), cfg)
              for s in range(n_sites)]
    feats = [o.relu_features.data for o in rec.site_outputs[:n_sites]]
    if rec.pad_mask is not None:
        feats = [[f[b][~pad].T[:, None, :] for b, pad in enumerate(rec.pad_mask)]
                 for f in feats]
    return [[cam_layer(w[c], f[b]) for w, f in zip(w_fins, feats)]
            for b, c in enumerate(class_ids)]


# ---------------------------------------------------------------------------
# model-facing pipelines


def explain_image(model, image, class_id, cfg: WeightFilterConfig | None = None):
    """Full image pipeline: the MHEX map of ``image_maps`` on a batch of one."""
    return image_maps(model, [image], [class_id], cfg)[0][0]


def image_maps(model, images, class_ids, cfg: WeightFilterConfig | None = None,
               grad_cam=False):
    """``(MHEX map, Grad-CAM map, (n_class,) probabilities)`` of each
    ``(C, H, W)`` image of ``images``, one class id per image; the Grad-CAM
    map is ``None`` unless ``grad_cam``. Only the CNN host makes them, and a
    bad class id raises before any forward.

    Each stack, a piece of ``models.batches(n, COLLAB_ROWS)``, runs one
    tape-free ``forward_collect`` on a ``row_view``: the backbone spreads over
    the usable CPUs in chunks of at least 2 images, and the side chain's
    per-row mixers make each row's block products as a batch-1 call does.
    Each row's probabilities come from the head at batch 1 (``head_proba``),
    and its Grad-CAM map reads the head's weights on its final features; so
    every output has the bits of a batch-1 call."""
    if len(class_ids) != len(images):
        raise DimensionError(
            f"image_maps needs one class id per image, got {len(class_ids)} "
            f"for {len(images)} images")
    check_cnn(model, "image_maps")
    check_class_ids(class_ids, model.cfg.n_class)
    class_ids = [int(c) for c in class_ids]
    images = np.asarray(images, dtype=np.float64)
    out = []
    for lo, hi in batches(len(class_ids), COLLAB_ROWS):
        ids = class_ids[lo:hi]
        view = model.row_view(hi - lo, range(len(model.sites)))
        with ad.no_grad():
            rec = view.forward_collect(images[lo:hi])
            feats = rec.final_feats.data
            gmaps = [_gradcam_map(model, f, c) if grad_cam else None
                     for f, c in zip(feats, ids)]
            out += zip(image_map(model, rec, ids, cfg), gmaps, model.head_proba(feats))
    return out


def image_map(model, rec, class_ids, cfg: WeightFilterConfig | None = None):
    """The maps of the first ``len(class_ids)`` images of an unmasked
    ``ForwardRecord``, one class id per image: each image's per-site grids
    and their decay-weighted aggregate. ``model`` holds the single mixers
    whose filtered ``w2·w1`` weights the maps read, also where ``rec`` is a
    replay on its ``row_view``."""
    cfg = cfg or WeightFilterConfig()
    return [aggregate_cams(grids, cfg.layer_decay, class_id=c) for c, grids in
            zip(class_ids, _site_grids(model, rec, class_ids, cfg, len(model.sites)))]


def explain_tokens(model, ids, class_id, cfg: WeightFilterConfig | None = None):
    """Token pipeline over a ``(B, S)`` batch with ``B`` class ids: one
    forward per piece of ``models.batches``, and one ``TokenSaliency`` per row
    from its first ``token_layers`` sites, scoring its non-pad tokens. A
    ``(S,)`` sequence with an int class id returns its single saliency."""
    cfg = cfg or WeightFilterConfig()
    check_class_ids(class_id, model.cfg.n_class)
    ids = np.asarray(ids, dtype=np.intp)
    single = ids.ndim == 1
    ids = np.atleast_2d(ids)
    class_ids = np.atleast_1d(class_id)
    if class_ids.shape != ids.shape[:1]:
        raise DimensionError(
            f"explain_tokens needs one class id per row, got {class_ids.shape[0]} "
            f"for {ids.shape[0]} rows")
    if cfg.token_layers > len(model.sites):
        raise ConfigurationError(
            f"token_layers {cfg.token_layers} exceeds available sites {len(model.sites)}")
    out = []
    for lo, hi in batches(len(ids), EVAL_BATCH_SIZE):
        with ad.no_grad():
            rec = model.forward_collect(ids[lo:hi])
        for c, pad, grids in zip(class_ids[lo:hi], rec.pad_mask, _site_grids(
                model, rec, class_ids[lo:hi], cfg, cfg.token_layers)):
            raw, terms = _decayed_sum(grids, cfg.layer_decay)
            out.append(TokenSaliency(class_id=int(c), scores=raw[0],
                                     positions=np.flatnonzero(~pad),
                                     layer_scores=[t[0] for t in terms]))
    return out[0] if single else out


def gradcam_baseline(model, image, class_id):
    """Grad-CAM map on the last convolutional features of one image, without
    the side chain; comparison plumbing, not part of the blocks' own saliency
    path."""
    check_cnn(model, "Grad-CAM")
    check_class_ids(class_id, model.cfg.n_class)
    with ad.no_grad():
        return _gradcam_map(model, model._backbone(image)[1].data[0], class_id)


def _gradcam_map(model, feats, class_id):
    """Grad-CAM of one image's ``(C, h, w)`` final features without a tape: the
    gradient through the CNN's pool-and-linear head is the class's head row spread
    over the grid, averaged as a sweep's is (a mean of equal values may round)."""
    grad = model.params["head.w"].data[class_id] / (feats.shape[1] * feats.shape[2])
    grad = np.broadcast_to(grad[:, None, None], feats.shape).copy()
    raw = np.maximum(cam_layer(grad.mean(axis=(1, 2)), feats), 0.0)
    return SaliencyMap(class_id=class_id, grid=normalize_map(raw), raw=raw,
                       layer_grids=[raw])


# ---------------------------------------------------------------------------
# rendering and export

_RAMP = np.array([
    [0, 0, 0],
    [0, 0, 255],
    [0, 255, 255],
    [255, 255, 0],
    [255, 0, 0],
], dtype=np.float64)


def _colorize(norm):
    """Map [0,1] scores through the fixed 5-stop ramp."""
    x = np.clip(norm, 0.0, 1.0) * (len(_RAMP) - 1)
    i0 = np.minimum(x.astype(int), len(_RAMP) - 2)
    f = (x - i0)[..., None]
    return (_RAMP[i0] * (1 - f) + _RAMP[i0 + 1] * f)


def render_heatmap(sal_map, out_path, overlay=None):
    """Write a saliency map as binary PGM (P5), or blend it over a grayscale
    input image and write binary PPM (P6)."""
    grid = sal_map.grid if isinstance(sal_map, SaliencyMap) else np.asarray(sal_map)
    if not np.isfinite(grid).all():
        raise ContractError("render_heatmap: the map holds a NaN or an infinity")
    if overlay is None:
        magic = "P5"
        pix = np.round(np.clip(grid, 0.0, 1.0) * 255).astype(np.uint8)
    else:
        magic = "P6"
        base = np.asarray(overlay, dtype=np.float64)
        if base.ndim == 3:
            base = base[0]
        color = _colorize(resize_map(grid, base.shape))
        gray = np.clip(base, 0.0, 1.0)[..., None] * 255
        pix = np.round(0.5 * gray + 0.5 * color).astype(np.uint8)
    h, w = pix.shape[:2]
    with open(out_path, "wb") as fh:
        fh.write(f"{magic}\n{w} {h}\n255\n".encode())
        fh.write(pix.tobytes())
    return out_path


def export_token_csv(tokens, sal: TokenSaliency, out_path):
    """(token, position, score) rows for the scored (non-pad) positions."""
    return write_csv(out_path, ["token", "position", "score"],
                     ([tokens[pos], int(pos), f"{score:.6g}"]
                      for pos, score in zip(sal.positions, sal.scores)))


def export_token_html(tokens, sal: TokenSaliency, out_path):
    """Self-contained HTML with background intensity proportional to each
    token's normalized score."""
    norm = normalize_map(sal.scores.astype(np.float64).reshape(1, -1))[0]
    spans = []
    for pos, score in zip(sal.positions, norm):
        tok = html_mod.escape(str(tokens[pos]))
        spans.append(
            f'<span style="background: rgba(255,80,0,{score:.3f}); '
            f'padding:2px; margin:1px; border-radius:3px">{tok}</span>')
    doc = ("<!DOCTYPE html><html><head><meta charset='utf-8'>"
           "<title>token saliency</title></head>"
           f"<body><p>class {sal.class_id}</p><p>{' '.join(spans)}</p></body></html>")
    with open(out_path, "w") as fh:
        fh.write(doc)
    return out_path
