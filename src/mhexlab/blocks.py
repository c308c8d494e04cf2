"""The explainer block: sigmoid channel gate, auxiliary supervision head,
and the class-to-channel product matrix shared by both host families.

One block owns a square channel mixer ``w1`` (C x C), a class head ``w2``
(n_class x C), and a learned projection that maps the host's global feature
map into the block's channel space. The gate and the supervision head share
``w1``; the class-to-channel lens is the product ``w2 @ w1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ContractError, DimensionError


@dataclass
class MhexParams:
    """Parameter bundle for one insertion point.

    ``proj_global`` maps global features into this block's channel space:
    a (C, C_global, 1, 1) conv kernel for image hosts or a (C_global, C)
    matrix for token hosts. ``proj_carry`` (optional) maps the previous
    block's gated output into this block's space, forming the explanation
    side-chain between consecutive blocks. In a batched replay ``w1`` and
    ``w2`` are per-row copies, ``(B, C, C)`` and ``(B, n_class, C)``.
    """

    w1: Tensor
    w2: Tensor
    proj_global: Tensor | None = None
    proj_carry: Tensor | None = None

    def __post_init__(self):
        s1, s2 = self.w1.data.shape, self.w2.data.shape
        if len(s1) not in (2, 3) or s1[-1] != s1[-2]:
            raise DimensionError(f"w1 must be square or a stack of square copies, got {s1}")
        if len(s2) != len(s1) or s2[:-2] != s1[:-2]:
            raise DimensionError(f"w2 {s2} and w1 {s1} must have the same leading dimensions")
        if s2[-1] != s1[-1]:
            raise DimensionError(f"w2 columns ({s2[-1]}) must match w1 size ({s1[-1]})")


@dataclass
class MhexOutput:
    gate: Tensor          # (B, C), every entry in (0, 1)
    x_att: Tensor         # gated copy of the block input
    ds_logits: Tensor     # (B, n_class)
    relu_features: Tensor  # ReLU(x + x_global), kept for saliency


def _pool(x, pad_mask=None):
    """Channel vector from a feature tensor: spatial mean for (N,C,H,W),
    non-pad sequence mean for (B,S,D)."""
    if pad_mask is not None:
        return ad.masked_seq_mean(x, ~np.asarray(pad_mask, dtype=bool))
    return ad.global_avg_pool(x)


def _gate_broadcast(g, x):
    """Multiply per-channel gate values (B, C) onto the feature tensor."""
    if x.data.ndim == 4:      # (N, C, H, W)
        return ad.mul(x, ad.reshape(g, (g.data.shape[0], g.data.shape[1], 1, 1)))
    if x.data.ndim == 3 and x.data.shape[0] == g.data.shape[0] \
            and x.data.shape[2] == g.data.shape[1]:   # tokens (B, S, D)
        return ad.mul(x, ad.reshape(g, (g.data.shape[0], 1, g.data.shape[1])))
    raise DimensionError(f"cannot broadcast gate {g.data.shape} onto {x.data.shape}")


def _check_shapes(x, x_global):
    # token hosts broadcast a per-sample global vector (B, 1, D) over positions
    try:
        if np.broadcast_shapes(x.data.shape, x_global.data.shape) != x.data.shape:
            raise ValueError
    except ValueError:
        raise DimensionError(
            f"block input {x.data.shape} and projected global features "
            f"{x_global.data.shape} are incompatible") from None


def _mix(v, w):
    """``v`` (B, C) times the transpose of ``w``: one (K, C) matrix, or
    per-row copies (B, K, C), of which row b of ``v`` meets copy b.

    With copies each row's product is the vector-matrix product of a
    batch-1 call, bit for bit, where one shared matrix would make a matrix
    product that rounds differently; and one sweep gives every copy its own
    row's gradient (the per-example gradients of Goodfellow, 2015)."""
    if w.data.ndim == 2:
        return ad.matmul(v, ad.transpose(w, (1, 0)))
    b, c = v.data.shape
    out = ad.matmul(ad.reshape(v, (b, 1, c)), ad.transpose(w, (0, 2, 1)))
    return ad.reshape(out, (b, w.data.shape[1]))


def attention_gate(x, x_global, params, pad_mask=None):
    """Gate values g = sigmoid(w1 . pool(x + x_global)) and the gated input
    x_att = g (.) x. For token hosts the pool is the non-pad sequence mean."""
    _check_shapes(x, x_global)
    pooled = _pool(ad.add(x, x_global), pad_mask)  # (B, C)
    g = ad.sigmoid(_mix(pooled, params.w1))
    return g, _gate_broadcast(g, x)


def ds_logits(x, x_global, params, pad_mask=None):
    """Supervision-head logits w2 . w1 . pool(ReLU(x + x_global)).

    The pool sits after the ReLU, so each class logit equals the spatial
    mean of that class's single-layer activation map built from the same
    rectified features. Returns (logits, relu_features).
    """
    _check_shapes(x, x_global)
    feats = ad.relu(ad.add(x, x_global))
    return _mix(_mix(_pool(feats, pad_mask), params.w1), params.w2), feats


def run_block(x, x_global, params, pad_mask=None):
    """Full block evaluation: gate, gated input, supervision logits."""
    g, x_att = attention_gate(x, x_global, params, pad_mask)
    logits, feats = ds_logits(x, x_global, params, pad_mask)
    return MhexOutput(gate=g, x_att=x_att, ds_logits=logits, relu_features=feats)


def equivalent_matrix(params):
    """The (n_class, C) product w2 @ w1 read directly from parameter data."""
    return params.w2.data @ params.w1.data


def mhex_loss(head_logits, targets, mode):
    """Combined loss over every head (auxiliary heads plus the host's final
    head). ``pretrain`` applies cross-entropy to the elementwise sum of all
    logit vectors; ``finetune`` sums per-head cross-entropies."""
    if not head_logits:
        raise ContractError("mhex_loss: empty head list")
    if mode == "pretrain":
        total = head_logits[0]
        for h in head_logits[1:]:
            total = ad.add(total, h)
        return ad.softmax_cross_entropy(total, targets)
    if mode == "finetune":
        loss = ad.softmax_cross_entropy(head_logits[0], targets)
        for h in head_logits[1:]:
            loss = ad.add(loss, ad.softmax_cross_entropy(h, targets))
        return loss
    raise ContractError(f"unknown loss mode {mode!r}")
