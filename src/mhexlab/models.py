"""Toy instrumented hosts: a small residual CNN and a small transformer
encoder, each carrying explainer blocks at configurable insertion points.

Routing of the gated features follows a non-invasive "side chain": block
l's gated output feeds block l+1's input (projected and resized as needed)
but never re-enters the backbone, so stripping every explainer parameter
leaves the host's final head bit-identical. The side chain is what lets
the supervision loss of block l+1 exert gradients on block l's gate mixer,
which the collaboration analysis measures.

One frame, ``_Host``, builds both hosts and owns their head; a host adds
its layers and the side chain's hooks. Its forward pass is split to match:
``_backbone(x)`` runs the host alone and reads no explainer parameter, and
``side_chain(backbone_out, site_mask)``, the one loop of both hosts and
the only way to mask a site, runs the explainer blocks on its activations;
``forward_collect`` is the two in turn. As the backbone never depends on
the side chain, one backbone result can feed several side-chain passes
(the block-wise analysis replays it once per row of masked cells), and a
gradient sweep for an explainer parameter never visits a backbone node.

``train`` is the only caller that tapes a backbone; the analysis tapes only
the side chain, and Grad-CAM reads the CNN head's weights without a tape.
"""

from __future__ import annotations

import copy
import io
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .blocks import LOSS_MODES, MhexParams, _pool, mhex_loss, run_block
from .datasets import (IMAGE_SIZE, MAX_SEQ, PAD_ID, SHAPE_CLASSES,
                       TOKEN_CLASSES, VOCAB_SIZE, seeded_rng)
from .errors import (CheckpointFormatError, CheckpointShapeError,
                     CheckpointVersionError, ConfigurationError,
                     ContractError, DimensionError, TrainingDivergedError)
from .formats import kv_text, parse_kv

CHECKPOINT_MAGIC = b"MHEXCKPT"
# v2 appends a CRC32 of everything after the magic; v3 widens the seed from
# <I to <Q, so a seed of 2**32 or more reloads as itself. v1 and v2 files
# still load.
CHECKPOINT_VERSION = 3
# most rows per no-grad forward of the accuracy, token and curve passes (``batches``)
EVAL_BATCH_SIZE = 128
# most rows of a side-chain replay on a ``row_view``, the one stack size of its
# two users, the collaboration records and ``saliency.image_maps``. On the default
# CNN `mhex analyze --n-samples 512` runs as fast with 8 rows as with 16 to 64,
# and 8 is the largest stack that leaves its peak RSS at the per-sample loop's
# (16 adds 3 MB, 32 adds 18 MB); 16 image maps with Grad-CAM on 2 vCPUs took
# 1.28 ms an image in 8-row stacks, 1.47 in one 16-row stack, 1.82 in 4-row
# stacks and 2.52 one at a time
COLLAB_ROWS = 8


def batches(n, size):
    """``range(n)`` as the fewest contiguous (lo, hi) pieces of at most
    ``size`` rows, in order, of near-equal length (``autodiff._cut``): the
    split of every stacked pass. With ``size`` 3 or more no piece is a lone
    row unless ``n`` is 1, so no pass rounds a row as a 1-row GEMM does."""
    return ad._cut(0, n, -(-n // size))


def check_class_ids(class_ids, n_class, what="class id"):
    """Raise ``ConfigurationError`` unless each class id is an integer in ``[0, n_class)``."""
    for c in class_ids if np.ndim(class_ids) else [class_ids]:
        if not isinstance(c, (int, np.integer)):
            raise ConfigurationError(f"{what} {c} is not an integer")
        if not 0 <= c < n_class:
            raise ConfigurationError(f"{what} {c} is outside [0, {n_class})")


def check_cnn(model, what):
    """Raise ``ContractError`` unless ``model`` is the CNN host."""
    if getattr(model, "kind", None) != "resnet":
        raise ContractError(f"{what} supports only the CNN host")


# ---------------------------------------------------------------------------
# configs: the data-format fields default to the ``datasets`` constants


@dataclass
class ResNetConfig:
    stage_channels: tuple = (8, 16, 32, 64)
    blocks_per_stage: int = 2
    in_channels: int = 1
    image_size: int = IMAGE_SIZE
    n_class: int = len(SHAPE_CLASSES)
    mhex_sites: object = "downsample"   # "downsample" | "all" | explicit indices

    def validate(self):
        ch = tuple(self.stage_channels)
        if not ch or any(c < 1 for c in ch):
            raise ConfigurationError("stage_channels must be positive")
        if any(a > b for a, b in zip(ch, ch[1:])):
            raise ConfigurationError("stage_channels must be non-decreasing")
        if self.blocks_per_stage < 1:
            raise ConfigurationError("blocks_per_stage must be >= 1")
        if self.n_class < 2:
            raise ConfigurationError("n_class must be >= 2")
        if self.in_channels not in (1, 3):
            raise ConfigurationError("in_channels must be 1 or 3")
        n_blocks = len(ch) * self.blocks_per_stage
        for idx in self.site_indices():
            if not 0 <= idx < n_blocks:
                raise ConfigurationError(f"mhex site index {idx} out of range")

    def block_channels(self):
        """Output channels of every residual block, in order."""
        out = []
        for c in self.stage_channels:
            out.extend([c] * self.blocks_per_stage)
        return out

    def downsample_blocks(self):
        """Block indices whose residual connection downsamples (first block
        of every stage after the first)."""
        return [s * self.blocks_per_stage for s in range(1, len(self.stage_channels))]

    def site_indices(self):
        n_blocks = len(self.stage_channels) * self.blocks_per_stage
        if self.mhex_sites == "downsample":
            sites = self.downsample_blocks() + [n_blocks - 1]
            return sorted(set(sites))
        if self.mhex_sites == "all":
            return list(range(n_blocks))
        return sorted(set(int(i) for i in self.mhex_sites))

    def site_channels(self):
        ch = self.block_channels()
        return [ch[i] for i in self.site_indices()]


@dataclass
class TransformerConfig:
    vocab_size: int = VOCAB_SIZE
    d_model: int = 32
    n_heads: int = 4
    n_layers: int = 4
    max_seq: int = MAX_SEQ
    n_class: int = TOKEN_CLASSES
    ffn_mult: int = 2
    pad_id: int = PAD_ID

    def validate(self):
        if self.n_layers < 1 or self.ffn_mult < 1:
            raise ConfigurationError("n_layers and ffn_mult must be >= 1")
        if self.n_heads < 1 or self.d_model < 1 or self.d_model % self.n_heads:
            raise ConfigurationError("d_model must be a positive multiple of n_heads")
        if self.n_class < 2:
            raise ConfigurationError("n_class must be >= 2")
        if self.vocab_size < self.n_class + 2:
            raise ConfigurationError("vocab_size too small")
        if self.max_seq < 1:
            raise ConfigurationError("max_seq must be >= 1")

    def site_channels(self):
        return [self.d_model] * self.n_layers


@dataclass
class ForwardRecord:
    """Everything one instrumented forward pass produces."""

    final_logits: Tensor
    site_outputs: list          # MhexOutput per site
    pad_mask: np.ndarray | None = None
    final_feats: Tensor | None = None   # the backbone's, which ``_head`` reads

    def head_logits(self):
        return [o.ds_logits for o in self.site_outputs] + [self.final_logits]


# ---------------------------------------------------------------------------
# parameter helpers


class _ParamStore:
    def __init__(self, seed):
        self.rng = seeded_rng(seed)
        self.params = {}

    def put(self, name, data):
        self.params[name] = Tensor(data, requires_grad=True)

    def kaiming(self, name, shape, fan_in):
        self.put(name, self.rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))

    def uniform(self, name, shape, scale=0.05):
        self.put(name, self.rng.uniform(-scale, scale, size=shape))

    def zeros(self, name, shape):
        self.put(name, np.zeros(shape))

    def ones(self, name, shape):
        self.put(name, np.ones(shape))


# ---------------------------------------------------------------------------
# the frame both hosts fill in


class _Host:
    """The frame both hosts fill in. A host's ``_build(store)`` draws its
    parameters in a fixed order and returns its site indices; its
    ``_backbone(x)`` returns ``(acts, final_feats, _head(final_feats,
    pad_mask), pad_mask)`` (``pad_mask`` is ``None`` on the CNN). Three
    hooks fit the side chain to the host's activations:

    - ``_global(feats, params, x_l, pad_mask)``: the final features
      projected into site ``x_l``'s channel space, at its resolution;
    - ``_carry(carry, params, x_l)``: the previous site's gated output
      mapped onto ``x_l``;
    - ``_mask(mask, x_l)``: a checked site mask (on the CNN also a stack of
      one per row) as a tensor that broadcasts over ``x_l``.
    """

    def __init__(self, cfg, seed=0):
        cfg.validate()
        self.cfg = cfg
        self.seed = seed
        store = _ParamStore(seed)
        self.sites = self._build(store)
        self.params = store.params

    def _head(self, feats, pad_mask=None):
        """Logits of the final features: the gates' ``_pool``, then the linear head."""
        p = self.params
        return ad.add(ad.matmul(_pool(feats, pad_mask), ad.transpose(p["head.w"], (1, 0))),
                      ad.reshape(p["head.b"], (1, -1)))

    def head_proba(self, feats):
        """Each row's batch-1 probabilities from ``_head``; call it under ``no_grad``."""
        return [ad.softmax_last(self._head(Tensor(f[None]))).data[0] for f in feats]

    def mhex_params(self, s):
        p = self.params
        return MhexParams(
            w1=p[f"mhex{s}.w1"], w2=p[f"mhex{s}.w2"],
            proj_global=p[f"mhex{s}.proj_global"],
            proj_carry=p.get(f"mhex{s}.proj_carry"))

    def mhex_param_names(self):
        return [n for n in self.params if n.startswith("mhex")]

    def row_view(self, batch, sites):
        """A shallow view of the host whose ``sites`` read per-row copies of
        their ``w1`` and ``w2``, ``(batch, C, C)`` and ``(batch, n_class, C)``
        leaves, through ``mhex_params``. Its ``side_chain`` over ``batch``
        rows then makes each row's block products as a batch-1 call does,
        bit for bit, and a sweep gives each copy its row's gradient."""
        view = copy.copy(self)
        view.params = dict(self.params)
        for s in sites:
            for name in (f"mhex{s}.w1", f"mhex{s}.w2"):
                w = self.params[name].data
                view.params[name] = Tensor(np.broadcast_to(w, (batch,) + w.shape).copy(),
                                           requires_grad=True)
        return view

    def side_chain(self, backbone_out, site_mask=None):
        """Explainer blocks over a ``_backbone`` result, which may be shared
        by several calls with different ``site_mask`` values.

        ``site_mask`` is an optional ``(site_index, mask)`` pair, with
        ``site_index`` in ``[0, len(sites))``; the mask multiplies that
        site's whole effective input (activations plus projected global
        features, values hence gradients), so per-cell pooled contributions
        sum exactly to the unmasked ones. A stack of B masks replays a
        batch-1 backbone B times from that site on, one mask per row (with
        a ``row_view``'s per-row mixers). A masked pass stops after block
        ``site_index + 1``, the last head that the two losses read.
        """
        acts, final_feats, final_logits, pad_mask = backbone_out
        outputs = []
        carry = None
        masked = None if site_mask is None else site_mask[0]
        if masked is not None and not 0 <= masked < len(self.sites):
            raise ContractError(f"masked site {masked} is outside [0, {len(self.sites)})")
        for s, bidx in enumerate(self.sites if masked is None else self.sites[:masked + 2]):
            params = self.mhex_params(s)
            x_l = u = acts[bidx]
            xg = self._global(final_feats, params, x_l, pad_mask)
            if carry is not None:
                u = ad.add(u, self._carry(carry, params, x_l))
            if s == masked:
                m = self._mask(np.asarray(site_mask[1], dtype=np.float64), x_l)
                u = ad.mul(u, m)
                xg = ad.mul(xg, m)
            out = run_block(u, xg, params, pad_mask=pad_mask)
            carry = out.x_att
            outputs.append(out)
        return ForwardRecord(final_logits=final_logits, site_outputs=outputs,
                             pad_mask=pad_mask, final_feats=final_feats)


# ---------------------------------------------------------------------------
# residual CNN host


class ResNetModel(_Host):
    kind = "resnet"
    config_class = ResNetConfig

    def _build(self, store):
        cfg = self.cfg
        ch = cfg.block_channels()
        c0 = cfg.stage_channels[0]
        store.kaiming("stem.w", (c0, cfg.in_channels, 3, 3), cfg.in_channels * 9)
        store.zeros("stem.b", (c0,))
        cin = c0
        self._block_specs = []
        for b, cout in enumerate(ch):
            stride = 2 if b in cfg.downsample_blocks() else 1
            store.kaiming(f"block{b}.conv1", (cout, cin, 3, 3), cin * 9)
            store.zeros(f"block{b}.b1", (cout,))
            # zero-init the closing conv so each block starts as the identity;
            # keeps the un-normalized residual stack from blowing up in depth
            store.zeros(f"block{b}.conv2", (cout, cout, 3, 3))
            store.zeros(f"block{b}.b2", (cout,))
            has_proj = stride != 1 or cin != cout
            if has_proj:
                store.kaiming(f"block{b}.proj", (cout, cin, 1, 1), cin)
            self._block_specs.append((b, cin, cout, stride, has_proj))
            cin = cout
        c_last = ch[-1]
        store.kaiming("head.w", (cfg.n_class, c_last), c_last)
        store.zeros("head.b", (cfg.n_class,))
        sites = cfg.site_indices()
        prev_c = None
        for s, bidx in enumerate(sites):
            c = ch[bidx]
            store.uniform(f"mhex{s}.w1", (c, c))
            store.uniform(f"mhex{s}.w2", (cfg.n_class, c))
            store.kaiming(f"mhex{s}.proj_global", (c, c_last, 1, 1), c_last)
            if s > 0:
                store.kaiming(f"mhex{s}.proj_carry", (c, prev_c, 1, 1), prev_c)
            prev_c = c
        return sites

    # -- forward --------------------------------------------------------
    def _backbone(self, x):
        p = self.params
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.data.ndim == 3:
            x = ad.reshape(x, (1,) + x.data.shape)
        if x.data.shape[1:] != (self.cfg.in_channels, self.cfg.image_size, self.cfg.image_size):
            raise DimensionError(
                f"input shape {x.data.shape} does not match configured "
                f"{self.cfg.in_channels}x{self.cfg.image_size}x{self.cfg.image_size}")
        h = ad.relu(ad.conv2d(x, p["stem.w"], stride=1, pad=1, bias=p["stem.b"]))
        acts = []
        for b, cin, cout, stride, has_proj in self._block_specs:
            y = ad.relu(ad.conv2d(h, p[f"block{b}.conv1"], stride=stride, pad=1,
                                  bias=p[f"block{b}.b1"]))
            y = ad.conv2d(y, p[f"block{b}.conv2"], stride=1, pad=1, bias=p[f"block{b}.b2"])
            skip = ad.conv2d(h, p[f"block{b}.proj"], stride=stride, pad=0) if has_proj else h
            h = ad.relu(ad.add(skip, y))
            acts.append(h)
        return acts, h, self._head(h), None

    def _spread_backbone(self, x, keep):
        """``keep`` of the ``_backbone`` result of each chunk of a batch
        without a tape, in order, spread over the usable CPUs
        (``autodiff._spread_batch``); ``None`` when the batch runs whole: with
        a tape, not 4-D, as one chunk of ``autodiff._batch_chunks``, or of 64
        images or more, left to ``conv2d``'s spread (a whole-backbone one took
        3 to 7.5 % more peak RSS, no faster). Every chunk holds at least 2
        images, so each row keeps the bits of one whole-batch call. Only the
        host's forward methods call it, so a chunk's ``_backbone`` runs while
        its caller's forward is open: ``perfbench``'s tracer counts one
        forward per outermost open host forward, at a depth all threads share."""
        xd = x.data if isinstance(x, Tensor) else np.asarray(x)
        if ad._state.recording or xd.ndim != 4 or len(xd) >= 2 * ad._SPREAD_SAMPLES \
                or len(chunks := ad._batch_chunks(len(xd))) == 1:
            return None
        return ad._spread_batch(lambda a, b: keep(self._backbone(xd[a:b])), chunks)

    def forward_logits(self, x):
        """Backbone-only forward; what the host computes with every explainer
        block stripped. Without a tape (``predict_proba``) a batch of 4 to 63
        images is spread over the usable CPUs in chunks of at least 2
        (``_spread_backbone``)."""
        parts = self._spread_backbone(x, lambda out: out[2].data)
        return self._backbone(x)[2] if parts is None else Tensor(np.concatenate(parts))

    def predict_proba(self, x):
        with ad.no_grad():
            return ad.softmax_last(self.forward_logits(x)).data

    def forward_collect(self, x):
        """``side_chain`` over ``_backbone(x)``. Without a tape a batch of 4
        to 63 images spreads its backbone as ``forward_logits`` does, keeps of
        each chunk only what the side chain reads and stacks the chunks
        (``_stack``)."""
        parts = self._spread_backbone(x, lambda out: self._stack([out]))
        return self.side_chain(self._backbone(x) if parts is None else self._stack(parts))

    def _stack(self, backbones):
        """One ``_backbone`` result holding the rows of several, in order; of
        the block activations only the sites' are stacked, the only ones
        ``side_chain`` reads, and the others are ``None``."""
        acts = [Tensor(np.concatenate([b[0][k].data for b in backbones]))
                if k in self.sites else None for k in range(len(backbones[0][0]))]
        feats, logits = (Tensor(np.concatenate([b[j].data for b in backbones]))
                         for j in (1, 2))
        return acts, feats, logits, None

    def _global(self, feats, params, x_l, pad_mask):
        xg = ad.conv2d(feats, params.proj_global, stride=1, pad=0)
        return ad.nearest_resize(xg, x_l.data.shape[-2:])

    def _carry(self, carry, params, x_l):
        return ad.conv2d(ad.nearest_resize(carry, x_l.data.shape[-2:]),
                         params.proj_carry, stride=1, pad=0)

    def _mask(self, mask, x_l):
        hw = x_l.data.shape[-2:]
        if mask.ndim not in (2, 3) or mask.shape[-2:] != hw:
            raise DimensionError(
                f"site mask shape {mask.shape} does not match site resolution {hw}")
        if mask.ndim == 3 and x_l.data.shape[0] != 1:
            raise DimensionError(
                f"a stack of site masks replays a batch-1 backbone, not {x_l.data.shape[0]} rows")
        return Tensor(mask.reshape((-1, 1) + hw))


# ---------------------------------------------------------------------------
# transformer encoder host


class TransformerModel(_Host):
    kind = "transformer"
    config_class = TransformerConfig

    def _build(self, store):
        cfg = self.cfg
        d, fd = cfg.d_model, cfg.d_model * cfg.ffn_mult
        store.uniform("embed", (cfg.vocab_size, d), scale=0.1)
        store.uniform("pos", (cfg.max_seq, d), scale=0.1)
        for l in range(cfg.n_layers):
            for nm in ("wq", "wk", "wv"):
                store.kaiming(f"layer{l}.{nm}", (d, d), d)
            # zero-init the attention output projection: each layer starts as
            # the identity on its residual stream, so cross-position mixing
            # only grows where the loss demands it and per-token identity
            # survives into the explainer sites
            store.zeros(f"layer{l}.wo", (d, d))
            store.ones(f"layer{l}.ln1_g", (d,))
            store.zeros(f"layer{l}.ln1_b", (d,))
            store.kaiming(f"layer{l}.ffn_w1", (d, fd), d)
            store.zeros(f"layer{l}.ffn_b1", (fd,))
            store.kaiming(f"layer{l}.ffn_w2", (fd, d), fd)
            store.zeros(f"layer{l}.ffn_b2", (d,))
            store.ones(f"layer{l}.ln2_g", (d,))
            store.zeros(f"layer{l}.ln2_b", (d,))
        store.ones("final_ln_g", (d,))
        store.zeros("final_ln_b", (d,))
        store.kaiming("head.w", (cfg.n_class, d), d)
        store.zeros("head.b", (cfg.n_class,))
        for s in range(cfg.n_layers):
            store.uniform(f"mhex{s}.w1", (d, d))
            store.uniform(f"mhex{s}.w2", (cfg.n_class, d))
            store.kaiming(f"mhex{s}.proj_global", (d, d), d)
        return list(range(cfg.n_layers))

    # -- forward --------------------------------------------------------
    def _attention(self, x, l, add_mask):
        p = self.params
        cfg = self.cfg
        b, s, d = x.data.shape
        nh, dh = cfg.n_heads, d // cfg.n_heads

        def split(t):
            return ad.transpose(ad.reshape(t, (b, s, nh, dh)), (0, 2, 1, 3))

        q = split(ad.matmul(x, p[f"layer{l}.wq"]))
        k = split(ad.matmul(x, p[f"layer{l}.wk"]))
        v = split(ad.matmul(x, p[f"layer{l}.wv"]))
        scores = ad.mul(ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
        att = ad.softmax_last(scores, additive_mask=add_mask)
        ctx = ad.matmul(att, v)
        merged = ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, s, d))
        return ad.matmul(merged, p[f"layer{l}.wo"])

    def _backbone(self, ids):
        p = self.params
        cfg = self.cfg
        ids = np.atleast_2d(np.asarray(ids, dtype=np.intp))
        if ids.shape[1] > cfg.max_seq:
            raise DimensionError(f"sequence length {ids.shape[1]} exceeds max_seq {cfg.max_seq}")
        b, s = ids.shape
        pad_mask = ids == cfg.pad_id
        if pad_mask.all(axis=1).any():
            raise ContractError("a sequence consists entirely of padding")
        if ((ids < 0) | (ids >= cfg.vocab_size)).any():
            raise ContractError(f"a token id is outside the vocabulary [0, {cfg.vocab_size})")
        add_mask = np.where(pad_mask, -1e9, 0.0)[:, None, None, :]
        x = ad.add(ad.embedding(p["embed"], ids),
                   ad.reshape(ad.embedding(p["pos"], np.arange(s)), (1, s, cfg.d_model)))
        acts = []
        for l in range(cfg.n_layers):
            a = self._attention(x, l, add_mask)
            x = ad.layer_norm(ad.add(x, a), p[f"layer{l}.ln1_g"], p[f"layer{l}.ln1_b"])
            acts.append(x)          # between attention and feed-forward
            h = ad.relu(ad.add(ad.matmul(x, p[f"layer{l}.ffn_w1"]),
                               ad.reshape(p[f"layer{l}.ffn_b1"], (1, 1, -1))))
            f = ad.add(ad.matmul(h, p[f"layer{l}.ffn_w2"]),
                       ad.reshape(p[f"layer{l}.ffn_b2"], (1, 1, -1)))
            x = ad.layer_norm(ad.add(x, f), p[f"layer{l}.ln2_g"], p[f"layer{l}.ln2_b"])
        x = ad.layer_norm(x, p["final_ln_g"], p["final_ln_b"])
        return acts, x, self._head(x, pad_mask), pad_mask

    def forward_logits(self, ids):
        return self._backbone(ids)[2]

    def predict_proba(self, ids):
        with ad.no_grad():
            return ad.softmax_last(self.forward_logits(ids)).data

    def forward_collect(self, ids):
        return self.side_chain(self._backbone(ids))

    def _global(self, feats, params, x_l, pad_mask):
        gvec = ad.matmul(_pool(feats, pad_mask), params.proj_global)
        return ad.reshape(gvec, (gvec.data.shape[0], 1, gvec.data.shape[1]))

    def _carry(self, carry, params, x_l):
        # stabilize the side chain as the host stabilizes its stream
        return ad.layer_norm(carry)

    def _mask(self, mask, x_l):
        # the broadcast global vector becomes per-position, so masked
        # positions contribute nothing
        if mask.shape != x_l.data.shape[1:2]:
            raise DimensionError(
                f"site mask shape {mask.shape} does not match sequence length "
                f"{x_l.data.shape[1]}")
        return Tensor(mask[None, :, None])


# ---------------------------------------------------------------------------
# host kinds and parameter accounting


HOSTS = {"resnet": ResNetModel, "transformer": TransformerModel}


def count_mhex_params(cfg):
    """Explainer parameters without the projections: sum over sites of C^2
    (channel mixer) plus n_class * C (class head)."""
    return sum(c * c + cfg.n_class * c for c in cfg.site_channels())


# ---------------------------------------------------------------------------
# training


@dataclass
class EpochLog:
    epoch: int
    loss: float
    head_accuracy: list   # one entry per auxiliary head, final head last


def _dataset_arrays(dataset, what):
    if len(dataset) == 0:
        raise ContractError(f"{what}: dataset is empty")
    if hasattr(dataset, "images"):
        return dataset.images, dataset.labels
    return dataset.ids, dataset.labels


def head_accuracies(model, dataset):
    """Fraction correct per head (auxiliary heads in site order, final head
    last), in the pieces of ``batches(n, EVAL_BATCH_SIZE)``; no tape."""
    xs, ys = _dataset_arrays(dataset, "head_accuracies")
    n = len(ys)
    correct = 0.0
    for lo, hi in batches(n, EVAL_BATCH_SIZE):
        with ad.no_grad():
            rec = model.forward_collect(xs[lo:hi])
        preds = [h.data.argmax(axis=1) for h in rec.head_logits()]
        correct = correct + np.array([(p == ys[lo:hi]).sum() for p in preds], dtype=float)
    return (correct / n).tolist()


def train(model, dataset, mode="finetune", epochs=5, lr=3e-3, seed=0,
          batch_size=64, eval_accuracy=True):
    """Minimize the combined head loss with a constant-rate AdamW-style
    update of every tensor with ``requires_grad`` and return one
    ``EpochLog`` per epoch. Deterministic for fixed (seed, config, dataset)."""
    if mode not in LOSS_MODES:
        raise ConfigurationError(f"mode must be one of {LOSS_MODES}, got {mode!r}")
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    if epochs < 0:
        raise ConfigurationError(f"epochs must be >= 0, got {epochs}")
    if not 0 < lr < np.inf:
        raise ConfigurationError(f"lr must be finite and > 0, got {lr}")
    xs, ys = _dataset_arrays(dataset, "train")
    n = len(ys)
    beta1, beta2, eps, weight_decay = 0.9, 0.999, 1e-8, 0.01
    m = {t: np.zeros_like(t.data) for t in model.params.values() if t.requires_grad}
    v = {t: np.zeros_like(t.data) for t in m}
    step = 0
    log = []
    for epoch in range(epochs):
        perm = seeded_rng(seed, epoch).permutation(n)
        losses = []
        for lo in range(0, n, batch_size):
            idx = perm[lo:lo + batch_size]
            rec = model.forward_collect(xs[idx])
            loss = mhex_loss(rec.head_logits(), ys[idx], mode)
            if not np.isfinite(loss.data):
                raise TrainingDivergedError(epoch)
            grads = ad.backward(loss)
            step += 1
            with np.errstate(over="ignore", invalid="ignore"):      # checked after the epoch
                for t, g in grads.items():
                    m[t] = beta1 * m[t] + (1 - beta1) * g
                    v[t] = beta2 * v[t] + (1 - beta2) * g * g
                    mh = m[t] / (1 - beta1 ** step)
                    vh = v[t] / (1 - beta2 ** step)
                    t.data -= lr * (mh / (np.sqrt(vh) + eps) + weight_decay * t.data)
            losses.append(float(loss.data))
            # free the step's tape before the next forward or the accuracy pass
            del rec, loss, grads
        if not all(np.isfinite(t.data).all() for t in model.params.values()):
            raise TrainingDivergedError(epoch)      # the loss checks miss the last update
        accs = head_accuracies(model, dataset) if eval_accuracy else []
        log.append(EpochLog(epoch=epoch, loss=float(np.mean(losses)), head_accuracy=accs))
    return log


# ---------------------------------------------------------------------------
# checkpointing


# keys of removed config fields that older checkpoints still hold; neither
# field changed a forward value or an explainer gradient
REMOVED_CONFIG_KEYS = ("saliency_layers", "ds_stop_grad")


def _config_from_text(raw):
    """(host class, config) from a checkpoint's config bytes; anything that
    does not parse raises ``CheckpointFormatError``."""
    try:
        kv = parse_kv(raw.decode())
        host = HOSTS.get(kv.pop("kind", None))
        if host is None:
            raise ValueError("missing or unknown host kind")
        cfg = host.config_class()
        for key, val in kv.items():
            if key in REMOVED_CONFIG_KEYS:
                continue
            if key not in vars(cfg):
                raise ValueError(f"unknown key {key!r}")
            cur = getattr(cfg, key)
            if key == "mhex_sites":
                if val not in ("downsample", "all"):
                    val = tuple(int(x) for x in val.split(","))
            elif isinstance(cur, int):
                val = int(val)
            elif isinstance(cur, (tuple, list)):
                val = tuple(int(x) for x in val.split(","))
            setattr(cfg, key, val)
    except ValueError as exc:       # UnicodeDecodeError is a ValueError
        raise CheckpointFormatError(f"bad checkpoint config: {exc}") from None
    return host, cfg


def save_checkpoint(model, path):
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    cfg_bytes = kv_text([("kind", model.kind)] + [
        (key, ",".join(str(x) for x in val) if isinstance(val, (tuple, list)) else val)
        for key, val in vars(model.cfg).items()]).encode()
    buf.write(struct.pack("<I", len(cfg_bytes)))
    buf.write(cfg_bytes)
    buf.write(struct.pack("<Q", int(model.seed)))
    items = list(model.params.items())
    buf.write(struct.pack("<I", len(items)))
    for name, t in items:
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", t.data.ndim))
        for d in t.data.shape:
            buf.write(struct.pack("<I", d))
    for _, t in items:
        buf.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    buf.write(struct.pack("<I", zlib.crc32(buf.getbuffer()[len(CHECKPOINT_MAGIC):])))
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def _read_exact(fh, n, what):
    data = fh.read(n)
    if len(data) != n:
        raise CheckpointFormatError(f"truncated checkpoint while reading {what}")
    return data


def load_checkpoint(path):
    """Model from a checkpoint file. A corrupt or truncated file raises a
    ``CheckpointError`` and nothing else; opening the path may raise
    ``OSError``."""
    with open(path, "rb") as f:
        data = f.read()
    head = len(CHECKPOINT_MAGIC) + 4
    if data[:len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic bytes in {path}")
    if len(data) < head:
        raise CheckpointFormatError("truncated checkpoint while reading version")
    (version,) = struct.unpack_from("<I", data, len(CHECKPOINT_MAGIC))
    if version in (2, 3):
        # checked before any field is parsed, so a corrupt config cannot
        # build a model
        data, crc = data[:-4], data[-4:]
        if len(data) < head or \
                struct.pack("<I", zlib.crc32(data[len(CHECKPOINT_MAGIC):])) != crc:
            raise CheckpointFormatError(f"checksum mismatch in {path}")
    elif version != 1:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}")
    # parse from memory, so a corrupt length field cannot make a read
    # reserve more than the file holds
    with io.BytesIO(data) as fh:
        fh.seek(head)
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        host, cfg = _config_from_text(_read_exact(fh, cfg_len, "config"))
        seed = int.from_bytes(_read_exact(fh, 8 if version == 3 else 4, "seed"), "little")
        try:
            model = host(cfg, seed=seed)
        except ConfigurationError as exc:
            raise CheckpointFormatError(f"bad checkpoint config: {exc}") from None
        (n_tensors,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        table = []
        for _ in range(n_tensors):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            try:
                name = _read_exact(fh, name_len, "name").decode()
            except UnicodeDecodeError:
                raise CheckpointFormatError("a tensor name is not UTF-8") from None
            (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "ndim"))
            shape = tuple(struct.unpack("<I", _read_exact(fh, 4, "dim"))[0]
                          for _ in range(ndim))
            table.append((name, shape))
        expected = [(n, t.data.shape) for n, t in model.params.items()]
        if table != expected:
            raise CheckpointShapeError(
                "checkpoint shape table does not match the model built from its config")
        for name, shape in table:
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(fh, count * 8, f"data for {name}")
            values = np.frombuffer(raw, dtype="<f8").reshape(shape)
            if not np.isfinite(values).all():
                raise CheckpointFormatError(f"non-finite values in tensor {name} in {path}")
            model.params[name].data = values.copy()
        if fh.tell() != len(data):
            raise CheckpointFormatError(f"{len(data) - fh.tell()} trailing bytes in {path}")
    return model


def clone_model(model):
    """Independent copy sharing no buffers."""
    twin = HOSTS[model.kind](model.cfg, seed=model.seed)
    for name, t in model.params.items():
        twin.params[name].data = t.data.copy()
    return twin


def strip_mhex(model):
    """Copy of the model with every explainer parameter zeroed out; the
    backbone forward never reads them, so final logits are unchanged."""
    twin = clone_model(model)
    for name in twin.mhex_param_names():
        twin.params[name].data[:] = 0.0
    return twin
