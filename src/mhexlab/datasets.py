"""Synthetic planted-feature datasets with ground-truth saliency masks.

Images are 1x32x32 grayscale: one geometric shape (square, disk, cross or
bar) drawn over a label-independent value-noise background, with the exact
shape support recorded as a binary mask. Token sequences plant a fixed
number of class keywords among label-independent filler tokens.

All randomness is counter-based (Philox keyed by (seed, sample index)), so
generation is bit-reproducible and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ContractError

IMAGE_SIZE = 32
SHAPE_CLASSES = ("square", "disk", "cross", "bar")
NOISE_COARSE = 4          # background value-noise grid cells per side
NOISE_AMPLITUDE = 0.35    # background value-noise range [0, NOISE_AMPLITUDE)

MASK_ID = 0
PAD_ID = 1
N_SPECIALS = 2
KEYWORDS_PER_CLASS = 2
VOCAB_SIZE = 48
TOKEN_CLASSES = 4
MAX_SEQ = 16
MIN_SEQ = 8


def seeded_rng(seed, index=None):
    """Philox generator keyed by ``seed`` alone, or by ``(seed, index)`` with
    the seed in the key's upper 64 bits; the one place a seed becomes a key."""
    if not 0 <= int(seed) < 2 ** 64:
        raise ConfigurationError(f"seed must be in [0, 2**64), got {seed}")
    key = int(seed) if index is None else (int(seed) << 64) | int(index)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass
class ShapeDataset:
    images: np.ndarray       # (N, 1, 32, 32) float64 in [0, 1]
    labels: np.ndarray       # (N,) int
    truth_masks: np.ndarray  # (N, 32, 32) bool

    def __len__(self):
        return len(self.labels)


@dataclass
class TokenDataset:
    ids: np.ndarray          # (N, S) int, padded with PAD_ID
    labels: np.ndarray       # (N,) int
    truth_masks: np.ndarray  # (N, S) bool, True at planted-keyword positions

    def __len__(self):
        return len(self.labels)


def _value_noise(rng):
    """Smooth low-frequency background: bilinear blow-up of a coarse grid."""
    grid = rng.uniform(0.0, NOISE_AMPLITUDE, size=(NOISE_COARSE + 1, NOISE_COARSE + 1))
    xs = np.linspace(0, NOISE_COARSE, IMAGE_SIZE)
    i0 = np.minimum(xs.astype(int), NOISE_COARSE - 1)
    f = xs - i0
    top = grid[i0][:, i0] * (1 - f)[:, None] * (1 - f)[None, :]
    top += grid[i0][:, i0 + 1] * (1 - f)[:, None] * f[None, :]
    top += grid[i0 + 1][:, i0] * f[:, None] * (1 - f)[None, :]
    top += grid[i0 + 1][:, i0 + 1] * f[:, None] * f[None, :]
    return top + rng.uniform(0.0, 0.08, size=(IMAGE_SIZE, IMAGE_SIZE))


def _shape_mask(rng, label):
    """Boolean support of one randomly placed shape; area lands in
    [4%, 40%] of the 32x32 image by construction."""
    size = IMAGE_SIZE
    mask = np.zeros((size, size), dtype=bool)
    name = SHAPE_CLASSES[label]
    if name == "square":
        s = int(rng.integers(8, 19))
        r = int(rng.integers(0, size - s + 1))
        c = int(rng.integers(0, size - s + 1))
        mask[r:r + s, c:c + s] = True
    elif name == "disk":
        rad = int(rng.integers(5, 11))
        cy = int(rng.integers(rad, size - rad))
        cx = int(rng.integers(rad, size - rad))
        yy, xx = np.mgrid[:size, :size]
        mask = (yy - cy) ** 2 + (xx - cx) ** 2 <= rad ** 2
    elif name == "cross":
        t = int(rng.integers(3, 6))
        length = int(rng.integers(14, 25))
        cy = int(rng.integers(length // 2, size - length // 2))
        cx = int(rng.integers(length // 2, size - length // 2))
        r0, r1 = cy - length // 2, cy + (length + 1) // 2
        c0, c1 = cx - length // 2, cx + (length + 1) // 2
        mask[r0:r1, cx - t // 2:cx - t // 2 + t] = True
        mask[cy - t // 2:cy - t // 2 + t, c0:c1] = True
    elif name == "bar":
        t = int(rng.integers(3, 6))
        length = int(rng.integers(16, 27))
        horizontal = bool(rng.integers(0, 2))
        if horizontal:
            r = int(rng.integers(0, size - t + 1))
            c = int(rng.integers(0, size - length + 1))
            mask[r:r + t, c:c + length] = True
        else:
            r = int(rng.integers(0, size - length + 1))
            c = int(rng.integers(0, size - t + 1))
            mask[r:r + length, c:c + t] = True
    return mask


def gen_shapes(n, seed=0):
    """Deterministic, class-balanced dataset of planted-shape images."""
    if n < 1:
        raise ConfigurationError("gen_shapes: n must be >= 1")
    images = np.empty((n, 1, IMAGE_SIZE, IMAGE_SIZE))
    labels = np.empty(n, dtype=np.intp)
    masks = np.empty((n, IMAGE_SIZE, IMAGE_SIZE), dtype=bool)
    for i in range(n):
        rng = seeded_rng(seed, i)
        label = i % len(SHAPE_CLASSES)
        bg = _value_noise(rng)
        mask = _shape_mask(rng, label)
        intensity = rng.uniform(0.7, 1.0)
        img = bg.copy()
        img[mask] = intensity + rng.uniform(-0.05, 0.05, size=int(mask.sum()))
        images[i, 0] = np.clip(img, 0.0, 1.0)
        labels[i] = label
        masks[i] = mask
    return ShapeDataset(images=images, labels=labels, truth_masks=masks)


def gen_tokens(n, seed=0):
    """Deterministic keyword-planting token dataset: ``TOKEN_CLASSES``
    classes, sequences of ``MIN_SEQ`` to ``MAX_SEQ`` tokens over a
    ``VOCAB_SIZE`` vocabulary.

    Each sample carries exactly ``KEYWORDS_PER_CLASS`` tokens from its
    class's keyword set at random positions; every other position is filler
    drawn from a label-independent pool. Id 0 is the mask token, id 1 pad.
    """
    if n < 1:
        raise ConfigurationError("gen_tokens: n must be >= 1")
    filler_lo = N_SPECIALS + TOKEN_CLASSES * KEYWORDS_PER_CLASS
    ids = np.full((n, MAX_SEQ), PAD_ID, dtype=np.intp)
    labels = np.empty(n, dtype=np.intp)
    masks = np.zeros((n, MAX_SEQ), dtype=bool)
    for i in range(n):
        rng = seeded_rng(seed, i)
        label = i % TOKEN_CLASSES
        length = int(rng.integers(MIN_SEQ, MAX_SEQ + 1))
        seq = rng.integers(filler_lo, VOCAB_SIZE, size=length)
        pos = rng.choice(length, size=KEYWORDS_PER_CLASS, replace=False)
        base = N_SPECIALS + label * KEYWORDS_PER_CLASS
        seq[pos] = base + rng.integers(0, KEYWORDS_PER_CLASS, size=KEYWORDS_PER_CLASS)
        ids[i, :length] = seq
        labels[i] = label
        masks[i, pos] = True
    return TokenDataset(ids=ids, labels=labels, truth_masks=masks)


def localization_score(saliency, truth_mask):
    """In-mask vs out-of-mask mean-saliency ratio, in [0, 1].

    ``saliency`` must be non-negative and share the mask's footprint
    (pixels or token positions).
    """
    sal = np.asarray(saliency, dtype=np.float64)
    mask = np.asarray(truth_mask, dtype=bool)
    if sal.shape != mask.shape:
        raise ConfigurationError(
            f"saliency shape {sal.shape} does not match mask {mask.shape}")
    if not mask.any():
        raise ContractError("localization_score: empty truth mask")
    inside = sal[mask].mean()
    outside = sal[~mask].mean() if (~mask).any() else 0.0
    return float(inside / (inside + outside + 1e-12))
