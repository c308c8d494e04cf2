"""Saliency-quality metrics: confidence-drop scores under hard masking,
the area-weighted drop and its weighting function, and insertion/deletion
curves with trapezoidal AUC. Every metric reads the model through
``predict``, a callable that maps a batch to ``(B, n_class)`` probabilities
(a host's ``predict_proba``), and rejects a label that is not an integer in
``[0, n_class)``; images are ``(C, H, W)``, maps ``(H, W)``. A curve
predicts its steps together (in the pieces of ``models.batches``, none a
lone row) and ``drop_records`` an image's masked copies together, so a
batched row may round its last bits differently from a batch-1 call.
``image_curves`` gives an image's deletion and insertion curves for several
maps with the bits of the single-curve functions: every curve of the image
starts or ends at the image itself or at its mean fill, so one 2-row
prediction scores those endpoints for every map, and a map's inner steps of
both curves are predicted together. The CNN
host's ``predict_proba`` spreads such a batch over the usable CPUs in chunks
of at least 2 images (``autodiff._spread_batch``), with the bits of one
whole-batch call: a 20-step curve runs as four 5-step chunks on two CPUs,
while ``predict`` itself is called once per batch and never from two threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .datasets import MASK_ID, PAD_ID
from .errors import ConfigurationError, ContractError, DimensionError
from .formats import write_csv
from .models import EVAL_BATCH_SIZE, batches, check_class_ids

SALIENT = 0.5     # saliency at which a cell counts as salient and is masked


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


def mean_intensity(image):
    """Per-channel mean of a (C, H, W) image."""
    return np.asarray(image, dtype=np.float64).mean(axis=(-2, -1))


# ---------------------------------------------------------------------------
# masking


def _check_cam(image, cam):
    image = np.asarray(image, dtype=np.float64)
    cam = np.asarray(cam, dtype=np.float64)
    if image.ndim != 3 or cam.shape != image.shape[1:]:
        raise DimensionError(
            f"needs a (C,H,W) image and an (H,W) cam, got {image.shape} and {cam.shape}")
    if not np.isfinite(cam).all():
        raise ContractError("the saliency map holds a NaN or an infinity")
    return image, cam


def soft_mask(image, cam):
    """Convex per-pixel blend toward the mean intensity: the stronger the
    saliency, the more of the pixel is replaced."""
    image, cam = _check_cam(image, cam)
    mu = mean_intensity(image)[..., None, None]
    return image * (1.0 - cam) + mu * cam


def hard_mask(image, cam):
    """Replace the salient pixels (saliency >= ``SALIENT``) by the
    per-channel mean intensity."""
    image, cam = _check_cam(image, cam)
    return np.where(cam >= SALIENT, mean_intensity(image)[:, None, None], image)


def saliency_area(cam):
    """Fraction of salient cells (saliency >= ``SALIENT``)."""
    return float((np.asarray(cam, dtype=np.float64) >= SALIENT).mean())


# ---------------------------------------------------------------------------
# drop metrics


def _predict(predict, batch, labels):
    """``predict(batch)`` as floats, with every label checked against its columns."""
    p = np.asarray(predict(batch), dtype=np.float64)
    check_class_ids(labels, p.shape[-1], "label")
    return p


def drop_record(predict, image, label, cam, sample_id=0):
    """Confidence drop for one (C, H, W) image when its salient region is
    mean-filled (``hard_mask``)."""
    image, cam = _check_cam(image, cam)
    p_orig = float(_predict(predict, image[None], label)[0, label])
    (rec,) = drop_records(predict, image, label, [cam], p_orig, sample_id)
    return rec


def drop_records(predict, image, label, cams, p_orig, sample_id=0):
    """``drop_record`` of one (C, H, W) image, whose ``label`` probability is
    ``p_orig``, for each map in ``cams``: one ``predict`` call scores every
    masked copy."""
    if len(cams) == 0:
        raise ContractError("drop_records: no maps")
    image = np.asarray(image, dtype=np.float64)
    masked = np.stack([hard_mask(image, cam) for cam in cams])
    p_mask = _predict(predict, masked, label)[:, label]
    return [DropRecord.of(sample_id, p_orig, float(p), saliency_area(cam))
            for p, cam in zip(p_mask, cams)]


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


def deletion_curve(predict, image, cam, label, steps=20):
    """Confidence as the most-salient pixels are progressively replaced by
    the mean intensity."""
    return _perturbation_curve(predict, image, cam, label, steps, insert=False)


def insertion_curve(predict, image, cam, label, steps=20):
    """Confidence as the most-salient pixels are progressively restored onto
    a constant mean-intensity baseline."""
    return _perturbation_curve(predict, image, cam, label, steps, insert=True)


def _perturbation_curve(predict, image, cam, label, steps, insert):
    fractions, ks = _fractions(steps, np.shape(cam))
    image, cam = _check_cam(image, cam)
    return Curve(fractions=fractions, confidences=_confidences(
        predict, image, _rank(cam), label, ks, np.full(steps, insert)))


def image_curves(predict, image, cams, label, steps=20):
    """The ``(deletion, insertion)`` curves of one (C, H, W) image for each
    map of ``cams``, with the bits of ``deletion_curve`` and
    ``insertion_curve``.

    Every curve of the image starts at the image or at its mean fill and ends
    at the other, whatever the map, so one 2-row prediction scores those two
    endpoints for every map; ``_confidences`` scores a map's inner steps of
    both curves together. No prediction holds a single row."""
    fractions, ks = _fractions(steps, np.shape(image)[1:])
    ranks = [_rank(_check_cam(image, cam)[1]) for cam in cams]
    image = np.asarray(image, dtype=np.float64)
    fill = np.broadcast_to(mean_intensity(image)[:, None, None], image.shape)
    ends = _predict(predict, np.stack([image, fill]), label)[:, label]
    inner = steps - 2
    out = []
    for rank in ranks:
        conf = _confidences(predict, image, rank, label, np.tile(ks[1:-1], 2),
                            np.repeat([False, True], inner))
        out.append((Curve(fractions, np.concatenate([ends[:1], conf[:inner], ends[1:]])),
                    Curve(fractions, np.concatenate([ends[1:], conf[inner:], ends[:1]]))))
    return out


def _fractions(steps, hw):
    """A curve's ``steps`` fractions, 0 to 1, and the pixel count of each."""
    if steps < 2:
        raise ConfigurationError("curves need at least 2 steps")
    fractions = np.linspace(0.0, 1.0, steps)
    return fractions, np.array([int(round(frac * math.prod(hw))) for frac in fractions])


def _rank(cam):
    """Each pixel's place in the map's saliency order (``_pixel_order``)."""
    rank = np.empty(cam.size, dtype=np.intp)
    rank[_pixel_order(cam)] = np.arange(cam.size)
    return rank


def _confidences(predict, image, rank, label, ks, insert):
    """``label``'s confidence on each row that takes the first ``ks[i]``
    pixels of the saliency order ``rank`` from the image and the rest from
    its mean fill (``insert[i]``), or the reverse: one prediction per piece
    of ``batches``, so a long curve's batch stays bounded."""
    pixels = image.reshape(image.shape[0], -1)
    mu = mean_intensity(image)[:, None]
    out = np.empty(len(ks))
    for lo, hi in batches(len(ks), EVAL_BATCH_SIZE):
        batch = np.where((rank < ks[lo:hi, None, None]) == insert[lo:hi, None, None], pixels, mu)
        out[lo:hi] = _predict(predict, batch.reshape((-1,) + image.shape), label)[:, label]
    return out


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


def token_perturb_drop(predict, ids, sals, labels, top_frac=0.10):
    """Replace the ceil(top_frac * length) highest-saliency tokens (length:
    the tokens other than ``PAD_ID``) with ``MASK_ID`` and record the
    confidence drops, one ``DropRecord`` per row.

    ``ids`` is a ``(B, S)`` batch with ``B`` saliencies and labels; one
    prediction per piece of ``batches`` covers its originals and their
    masked copies, and row ``b`` gets sample id ``b``."""
    if not 0.0 < top_frac <= 1.0:
        raise ConfigurationError(f"top_frac must be in (0, 1], got {top_frac}")
    ids = np.asarray(ids, dtype=np.intp)
    if ids.ndim != 2:
        raise DimensionError(f"token_perturb_drop needs (B, S) ids, got shape {ids.shape}")
    if not len(sals) == len(labels) == len(ids):
        raise DimensionError(
            f"token_perturb_drop needs one saliency and label per row, got "
            f"{len(sals)} and {len(labels)} for {len(ids)} rows")
    masked = ids.copy()
    areas = []
    for row, s in zip(masked, sals):
        n = int((row != PAD_ID).sum())
        if n == 0:
            raise ContractError("token_perturb_drop: empty sequence")
        k = math.ceil(top_frac * n)
        order = np.argsort(-np.asarray(s.scores, dtype=np.float64), kind="stable")
        row[np.asarray(s.positions)[order[:k]]] = MASK_ID
        areas.append(k / n)
    records = []
    for lo, hi in batches(len(ids), EVAL_BATCH_SIZE):
        p = _predict(predict, np.concatenate([ids[lo:hi], masked[lo:hi]]), labels[lo:hi])
        p = p.reshape(2, hi - lo, -1)[:, np.arange(hi - lo), labels[lo:hi]]
        records += [DropRecord.of(b, p_orig, p_mask, areas[b])
                    for b, (p_orig, p_mask) in enumerate(p.T.tolist(), start=lo)]
    return records


# ---------------------------------------------------------------------------
# CSV export


def write_drop_csv(records, out_path, method=""):
    """One row per sample plus a summary row per the metric-table contract.
    Every row is built before the file opens, so a record set the summary
    rejects leaves no file."""
    rows = [[r.sample_id, f"{r.p_orig:.6g}", f"{r.p_mask:.6g}", f"{r.drop:.6g}",
             f"{r.area:.6g}", f"{area_weight(r.area):.6g}"] for r in records]
    rows.append([f"summary:{method}", "", "", f"{avg_drop(records):.6g}",
                 f"{np.mean([r.area for r in records]):.6g}", f"{ead(records):.6g}"])
    return write_csv(out_path, ["id", "p_orig", "p_mask", "drop", "area", "f_area"], rows)


def write_curve_csv(curve: Curve, out_path):
    return write_csv(out_path, ["fraction", "confidence"],
                     ([f"{f:.6g}", f"{c:.6g}"]
                      for f, c in zip(curve.fractions, curve.confidences)))
