"""Saliency-quality metrics: confidence-drop scores with soft and hard
masking, the area-weighted drop and its weighting function, and
insertion/deletion curves with trapezoidal AUC.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError, DimensionError


@dataclass
class DropRecord:
    sample_id: int
    p_orig: float
    p_mask: float
    drop: float          # max(0, (p_orig - p_mask) / p_orig)
    area: float          # fraction of the map counted as salient

    @classmethod
    def of(cls, sample_id, p_orig, p_mask, area):
        """The record with its drop; 0 when ``p_orig`` is not positive."""
        drop = max(0.0, (p_orig - p_mask) / p_orig) if p_orig > 0 else 0.0
        return cls(sample_id=sample_id, p_orig=p_orig, p_mask=p_mask, drop=drop, area=area)


@dataclass
class Curve:
    fractions: np.ndarray
    confidences: np.ndarray


def _predictor(model_or_fn):
    if callable(model_or_fn) and not hasattr(model_or_fn, "predict_proba"):
        return model_or_fn
    return model_or_fn.predict_proba


def _probs_for(predict, x, target):
    p = np.asarray(predict(x), dtype=np.float64)
    return float(p.reshape(-1, p.shape[-1])[0][target])


def mean_intensity(image):
    """Per-channel mean of a (C, H, W) image."""
    return np.asarray(image, dtype=np.float64).mean(axis=(-2, -1))


# ---------------------------------------------------------------------------
# masking


def _check_cam(image, cam):
    image = np.asarray(image, dtype=np.float64)
    cam = np.asarray(cam, dtype=np.float64)
    if cam.shape != image.shape[-2:]:
        raise DimensionError(
            f"cam shape {cam.shape} does not match image spatial shape {image.shape[-2:]}")
    return image, cam


def soft_mask(image, cam):
    """Convex per-pixel blend toward the mean intensity: the stronger the
    saliency, the more of the pixel is replaced."""
    image, cam = _check_cam(image, cam)
    mu = mean_intensity(image)[..., None, None]
    return image * (1.0 - cam) + mu * cam


def hard_mask(image, cam, threshold=0.5):
    """Replace pixels whose saliency reaches ``threshold`` by the
    per-channel mean intensity."""
    image, cam = _check_cam(image, cam)
    fill = mean_intensity(image)[..., None, None]
    keep = cam < threshold
    return np.where(keep, image, np.broadcast_to(fill, image.shape))


def saliency_area(cam, threshold=0.5):
    """Fraction of cells at or above the binarization threshold."""
    cam = np.asarray(cam, dtype=np.float64)
    return float((cam >= threshold).mean())


# ---------------------------------------------------------------------------
# drop metrics


def drop_record(model_or_fn, image, label, cam, sample_id=0, mode="hard"):
    """Confidence drop for one sample under hard (mean-fill) or soft
    (convex-blend) removal of the salient region."""
    predict = _predictor(model_or_fn)
    image = np.asarray(image, dtype=np.float64)
    p_orig = _probs_for(predict, image[None] if image.ndim == 3 else image, label)
    masked = hard_mask(image, cam) if mode == "hard" else soft_mask(image, cam)
    p_mask = _probs_for(predict, masked[None] if masked.ndim == 3 else masked, label)
    return DropRecord.of(sample_id, p_orig, p_mask, saliency_area(cam))


def avg_drop(records):
    """Mean clamped relative confidence drop; zero-confidence samples are
    excluded with a warning."""
    usable = [r for r in records if r.p_orig > 0]
    if not usable:
        raise ContractError("avg_drop: no records with positive original confidence")
    skipped = len(records) - len(usable)
    if skipped:
        warnings.warn(f"avg_drop: excluded {skipped} records with p_orig == 0")
    return float(np.mean([r.drop for r in usable]))


def area_weight(x):
    """Area-based weight 5x / (1 + 256 x^5): zero at zero area, maximal (=1)
    at 25% coverage, decaying for overly large maps."""
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0) or np.any(x > 1):
        raise ConfigurationError("area_weight domain is [0, 1]")
    out = 5.0 * x / (1.0 + 256.0 * x ** 5)
    return float(out) if out.ndim == 0 else out


def ead(records):
    """Mean of area-weighted drops."""
    if not records:
        raise ContractError("ead: no records")
    return float(np.mean([r.drop * area_weight(r.area) for r in records]))


# ---------------------------------------------------------------------------
# insertion / deletion curves


def _pixel_order(cam):
    # stable sort on the flattened map gives a row-major tie-break
    return np.argsort(-np.asarray(cam, dtype=np.float64).ravel(), kind="stable")


def deletion_curve(model_or_fn, image, cam, label, steps=20):
    """Confidence as the most-salient pixels are progressively replaced by
    the mean intensity."""
    return _perturbation_curve(model_or_fn, image, cam, label, steps, insert=False)


def insertion_curve(model_or_fn, image, cam, label, steps=20):
    """Confidence as the most-salient pixels are progressively restored onto
    a constant mean-intensity baseline."""
    return _perturbation_curve(model_or_fn, image, cam, label, steps, insert=True)


def _perturbation_curve(model_or_fn, image, cam, label, steps, insert):
    if steps < 2:
        raise ConfigurationError("curves need at least 2 steps")
    predict = _predictor(model_or_fn)
    image, cam = _check_cam(image, cam)
    mu = mean_intensity(image).reshape(-1, 1, 1)
    baseline = np.broadcast_to(mu, image.shape).copy()
    order = _pixel_order(cam)
    n_pix = cam.size
    fractions = np.linspace(0.0, 1.0, steps)
    confidences = np.empty(steps)
    flat_img = image.reshape(image.shape[0], -1)
    for i, frac in enumerate(fractions):
        k = int(round(frac * n_pix))
        chosen = order[:k]
        if insert:
            cur = baseline.copy().reshape(image.shape[0], -1)
            cur[:, chosen] = flat_img[:, chosen]
        else:
            cur = flat_img.copy()
            cur[:, chosen] = np.broadcast_to(mu.reshape(-1, 1), (image.shape[0], k))
        cur = cur.reshape(image.shape)
        confidences[i] = _probs_for(predict, cur[None], label)
    return Curve(fractions=fractions, confidences=confidences)


def auc(curve: Curve):
    """Trapezoidal integral of the confidence curve over the fraction axis."""
    f = np.asarray(curve.fractions, dtype=np.float64)
    c = np.asarray(curve.confidences, dtype=np.float64)
    if f.shape != c.shape or f.size < 2 or f[0] != 0.0 or f[-1] != 1.0 \
            or np.any(np.diff(f) < 0):
        raise ContractError("invalid curve: fractions must ascend from 0 to 1")
    return float(np.trapezoid(c, f))


# ---------------------------------------------------------------------------
# token perturbation


def token_perturb_drop(model_or_fn, ids, sal, label, top_frac=0.10, mask_token=0,
                       pad_id=1, sample_id=0):
    """Replace the ceil(top_frac * length) highest-saliency tokens with the
    mask token and record the confidence drop.

    ``ids`` is a ``(B, S)`` batch with ``B`` saliencies and labels; one
    prediction covers the originals and their masked copies, and row ``b``
    gets ``sample_id + b``. A ``(S,)`` sequence with one saliency and an int
    label is the batch of one and returns its single ``DropRecord``."""
    if not 0.0 < top_frac <= 1.0:
        raise ConfigurationError(f"top_frac must be in (0, 1], got {top_frac}")
    predict = _predictor(model_or_fn)
    ids = np.asarray(ids, dtype=np.intp)
    single = ids.ndim == 1
    ids = np.atleast_2d(ids)
    sals = [sal] if single else list(sal)
    labels = np.atleast_1d(label)
    if not len(sals) == len(labels) == len(ids):
        raise DimensionError(
            f"token_perturb_drop needs one saliency and label per row, got "
            f"{len(sals)} and {len(labels)} for {len(ids)} rows")
    masked = ids.copy()
    areas = []
    for row, s in zip(masked, sals):
        n = int((row != pad_id).sum())
        if n == 0:
            raise ContractError("token_perturb_drop: empty sequence")
        k = math.ceil(top_frac * n)
        order = np.argsort(-np.asarray(s.scores, dtype=np.float64), kind="stable")
        row[np.asarray(s.positions)[order[:k]]] = mask_token
        areas.append(k / n)
    p = np.asarray(predict(np.concatenate([ids, masked])), dtype=np.float64)
    p = p.reshape(2, len(ids), -1)[:, np.arange(len(ids)), labels]
    records = [DropRecord.of(sample_id + b, p_orig, p_mask, areas[b])
               for b, (p_orig, p_mask) in enumerate(p.T.tolist())]
    return records[0] if single else records


# ---------------------------------------------------------------------------
# CSV export


def write_drop_csv(records, out_path, method=""):
    """One row per sample plus a summary row per the metric-table contract."""
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "p_orig", "p_mask", "drop", "area", "f_area"])
        for r in records:
            writer.writerow([r.sample_id, f"{r.p_orig:.6g}", f"{r.p_mask:.6g}",
                             f"{r.drop:.6g}", f"{r.area:.6g}",
                             f"{area_weight(r.area):.6g}"])
        writer.writerow([f"summary:{method}", "", "", f"{avg_drop(records):.6g}",
                         f"{np.mean([r.area for r in records]):.6g}",
                         f"{ead(records):.6g}"])
    return out_path


def write_curve_csv(curve: Curve, out_path):
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "confidence"])
        for f, c in zip(curve.fractions, curve.confidences):
            writer.writerow([f"{f:.6g}", f"{c:.6g}"])
    return out_path
