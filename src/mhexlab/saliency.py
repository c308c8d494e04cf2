"""Class-conditional saliency from recorded activations and the blocks'
class-to-channel matrices, plus a gradient-based CAM baseline and simple
PGM/PPM rendering.

The weight-filtering machinery works row-wise on the (n_class, C) product
matrix: split into positive/negative parts, damp negatives by ``neg_mix``,
and keep only entries whose class specificity (column-normalized share)
clears ``ss_threshold``.
"""

from __future__ import annotations

import csv
import html as html_mod
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .blocks import equivalent_matrix
from .errors import ConfigurationError, ContractError, DimensionError


@dataclass
class WeightFilterConfig:
    neg_mix: float = 0.25          # share of negative contributions kept
    ss_threshold: float | None = None   # default 1/n_class + 0.2, set per use
    eps: float = 1e-8
    layer_decay: float = 0.9
    token_layers: int = 3          # saliency layer cutoff for token hosts

    def __post_init__(self):
        if not 0.0 <= self.neg_mix <= 1.0:
            raise ConfigurationError(f"neg_mix must be in [0,1], got {self.neg_mix}")
        if self.ss_threshold is not None and not 0.0 <= self.ss_threshold <= 1.0:
            raise ConfigurationError(f"ss_threshold must be in [0,1], got {self.ss_threshold}")
        if self.eps <= 0:
            raise ConfigurationError("eps must be > 0")
        if not 0.0 < self.layer_decay <= 1.0:
            raise ConfigurationError(f"layer_decay must be in (0,1], got {self.layer_decay}")

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


def adjust_weights(w, neg_mix):
    if not 0.0 <= neg_mix <= 1.0:
        raise ConfigurationError(f"neg_mix must be in [0,1], got {neg_mix}")
    pos, neg = split_weights(w)
    return pos + neg_mix * neg


def salience_sharpness(w_equiv, eps=1e-8):
    """Column-normalized class specificity of each feature's weight, for the
    positive and (absolute) negative parts separately."""
    if eps <= 0:
        raise ConfigurationError("eps must be > 0")
    pos, neg = split_weights(w_equiv)
    ss_pos = pos / (pos.sum(axis=0, keepdims=True) + eps)
    neg_abs = np.abs(neg)
    ss_neg = neg_abs / (neg_abs.sum(axis=0, keepdims=True) + eps)
    return ss_pos, ss_neg


def final_weights(w_equiv, cfg: WeightFilterConfig):
    """Specificity-filtered weights: positive entries survive where their
    positive sharpness clears the threshold, negative entries (damped by
    neg_mix) where their negative sharpness does."""
    w_equiv = np.asarray(w_equiv, dtype=np.float64)
    ss = cfg.resolved_threshold(w_equiv.shape[0])
    pos, neg = split_weights(w_equiv)
    ss_pos, ss_neg = salience_sharpness(w_equiv, cfg.eps)
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
    index rule)."""
    return ad.nearest_resize(grid, out_hw).data


def normalize_map(raw):
    """Min-max to [0,1]; a constant raw map normalizes to all zeros."""
    lo, hi = raw.min(), raw.max()
    if hi - lo == 0:
        return np.zeros_like(raw)
    return (raw - lo) / (hi - lo)


def aggregate_cams(layer_grids, layer_decay=0.9, class_id=-1):
    """Decay-weighted sum of per-site grids (ordered shallow to deep,
    weight decay^l with l = 1 at the shallowest), on the finest grid."""
    if not layer_grids:
        raise ContractError("aggregate_cams: no layer grids")
    finest = max((np.asarray(g).shape for g in layer_grids), key=lambda s: s[0] * s[1])
    resized = [resize_map(np.asarray(g, dtype=np.float64), finest) for g in layer_grids]
    raw = np.zeros(finest)
    for l, g in enumerate(resized, start=1):
        raw += (layer_decay ** l) * g
    return SaliencyMap(class_id=class_id, grid=normalize_map(raw), raw=raw,
                       layer_grids=resized)


def token_saliency(w_equivs, activations, class_id, cfg: WeightFilterConfig):
    """Per-token scores from the first L sites only.

    ``activations[l]`` holds the (J, D) rectified token features of site l;
    per-layer scores reuse the grid kernel on a 1 x J "image".
    """
    L = cfg.token_layers
    if L > len(activations):
        raise ConfigurationError(
            f"token_layers {L} exceeds available sites {len(activations)}")
    layer_scores = []
    total = None
    for l in range(L):
        w_final = final_weights(w_equivs[l], cfg)
        feats = np.asarray(activations[l], dtype=np.float64)   # (J, D)
        grid = cam_layer(w_final[class_id], feats.T[:, None, :])  # (D,1,J) -> (1,J)
        scores = (cfg.layer_decay ** (l + 1)) * grid[0]
        layer_scores.append(scores)
        total = scores.copy() if total is None else total + scores
    return TokenSaliency(class_id=class_id, scores=total,
                         positions=np.arange(len(total)), layer_scores=layer_scores)


# ---------------------------------------------------------------------------
# model-facing pipelines


def explain_image(model, image, class_id, cfg: WeightFilterConfig | None = None):
    """Full image pipeline: instrumented forward, filtered weights per site,
    per-site grids, decay-weighted aggregation."""
    cfg = cfg or WeightFilterConfig()
    with ad.no_grad():
        rec = model.forward_collect(image)
    grids = []
    for s in range(len(model.sites)):
        w_eq = equivalent_matrix(model.mhex_params(s))
        w_fin = final_weights(w_eq, cfg)
        grids.append(cam_layer(w_fin[class_id], rec.site_outputs[s].relu_features.data[0]))
    out = aggregate_cams(grids, cfg.layer_decay, class_id=class_id)
    return out


def explain_tokens(model, ids, class_id, cfg: WeightFilterConfig | None = None):
    cfg = cfg or WeightFilterConfig()
    ids = np.atleast_2d(np.asarray(ids, dtype=np.intp))
    with ad.no_grad():
        rec = model.forward_collect(ids)
    keep = ~rec.pad_mask[0]
    acts = [o.relu_features.data[0][keep] for o in rec.site_outputs]
    w_eqs = [equivalent_matrix(model.mhex_params(s)) for s in range(len(model.sites))]
    sal = token_saliency(w_eqs, acts, class_id, cfg)
    sal.positions = np.flatnonzero(keep)
    return sal


def gradcam_baseline(model, image, class_id):
    """Gradient-weighted activation map on the last convolutional features;
    comparison plumbing, not part of the blocks' own saliency path."""
    if getattr(model, "kind", None) != "resnet":
        raise ContractError("gradcam_baseline supports only the CNN host")
    _, final_feats, logits, _ = model._backbone(image)
    onehot = np.zeros(logits.data.shape)
    onehot[..., class_id] = 1.0
    target = ad.sum_axis(ad.mul(logits, onehot))
    grad = ad.adjoint(target, final_feats)
    feats = final_feats.data[0]
    if grad is None:
        weights = np.zeros(feats.shape[0])
    else:
        weights = grad[0].mean(axis=(1, 2))
    raw = np.maximum(cam_layer(weights, feats), 0.0)
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
    try:
        if overlay is None:
            pix = np.round(np.clip(grid, 0.0, 1.0) * 255).astype(np.uint8)
            h, w = pix.shape
            with open(out_path, "wb") as fh:
                fh.write(f"P5\n{w} {h}\n255\n".encode())
                fh.write(pix.tobytes())
        else:
            base = np.asarray(overlay, dtype=np.float64)
            if base.ndim == 3:
                base = base[0]
            norm = resize_map(grid, base.shape)
            color = _colorize(norm)
            gray = np.clip(base, 0.0, 1.0)[..., None] * 255
            pix = np.round(0.5 * gray + 0.5 * color).astype(np.uint8)
            h, w, _ = pix.shape
            with open(out_path, "wb") as fh:
                fh.write(f"P6\n{w} {h}\n255\n".encode())
                fh.write(pix.tobytes())
    except OSError as exc:
        raise OSError(f"failed to write heatmap to {out_path}: {exc}") from exc
    return out_path


def read_pgm(path):
    """Parse a binary PGM written by render_heatmap (test/verification aid)."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, _, rest = data.partition(b"255\n")
    fields = header.split()
    if fields[0] != b"P5":
        raise ValueError(f"{path} is not a binary PGM")
    w, h = int(fields[1]), int(fields[2])
    return np.frombuffer(rest[:w * h], dtype=np.uint8).reshape(h, w)


def export_token_csv(tokens, sal: TokenSaliency, out_path):
    """(token, position, score) rows for the scored (non-pad) positions."""
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["token", "position", "score"])
        for pos, score in zip(sal.positions, sal.scores):
            writer.writerow([tokens[pos], int(pos), f"{score:.6g}"])
    return out_path


def export_token_html(tokens, sal: TokenSaliency, out_path, title="token saliency"):
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
           f"<title>{html_mod.escape(title)}</title></head>"
           f"<body><p>class {sal.class_id}</p><p>{' '.join(spans)}</p></body></html>")
    with open(out_path, "w") as fh:
        fh.write(doc)
    return out_path
