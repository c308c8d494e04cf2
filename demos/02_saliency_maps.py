"""Render class-activation maps for a few planted-shape images and compare
them against a Grad-CAM baseline and the ground-truth mask.

The MHEX map is built without any backward pass: each instrumented block owns
an equivalent matrix W2·W1, one row per class, and the row picks out which
channels of the block's rectified input vote for that class. Per-layer grids
are then merged finest-first with a depth decay. Grad-CAM needs no backward
pass here either: the host's head is a global average pool and a linear
layer, so a class's gradient on the final features is its head row spread
over the grid.

Run:  python3 demos/02_saliency_maps.py   (writes into /tmp/demo_saliency/)
"""

import os

import numpy as np

import mhexlab as mx
from mhexlab import saliency as S
from mhexlab.datasets import localization_score
from mhexlab.models import ResNetConfig, ResNetModel, train

OUT = "/tmp/demo_saliency"
os.makedirs(OUT, exist_ok=True)

shapes = mx.gen_shapes(600, seed=0)
model = ResNetModel(ResNetConfig(), seed=0)
print("training a small host (3 epochs)...")
train(model, shapes, mode="finetune", epochs=3, lr=3e-3, seed=0,
      eval_accuracy=False)

cfg = S.WeightFilterConfig()  # alpha=0.25 negative mix, default SS threshold
held = mx.gen_shapes(12, seed=7)

print(f"{'id':>3} {'label':>5} {'mhex loc':>9} {'gradcam loc':>11}")
labels = [int(c) for c in held.labels[:6]]
# one batched call: each image's MHEX map, Grad-CAM map and probabilities
maps = S.image_maps(model, held.images[:6], labels, cfg, grad_cam=True)
for i, (label, (smap, gc, _)) in enumerate(zip(labels, maps)):
    cam = S.resize_map(smap.grid, held.images[i].shape[-2:])
    gc_cam = S.resize_map(gc.grid, held.images[i].shape[-2:])

    loc = localization_score(cam, held.truth_masks[i])
    loc_gc = localization_score(gc_cam, held.truth_masks[i])
    print(f"{i:>3} {label:>5} {loc:>9.3f} {loc_gc:>11.3f}")

    S.render_heatmap(smap, f"{OUT}/cam_{i}.pgm")
    S.render_heatmap(smap, f"{OUT}/overlay_{i}.ppm", overlay=held.images[i])
    S.render_heatmap(gc, f"{OUT}/gradcam_{i}.pgm")

# the same machinery scores tokens; keywords should float to the top
from mhexlab.models import TransformerConfig, TransformerModel

tokens = mx.gen_tokens(600, seed=0)
tfm = TransformerModel(TransformerConfig(), seed=0)
train(tfm, tokens, mode="finetune", epochs=3, lr=2e-3, seed=0,
      eval_accuracy=False)
sample = mx.gen_tokens(3, seed=9)
# one batched call: a single forward, one TokenSaliency per row
for i, sal in enumerate(S.explain_tokens(tfm, sample.ids, sample.labels)):
    top = sal.positions[np.argsort(-sal.scores)][:2]
    truth = np.flatnonzero(sample.truth_masks[i])
    print(f"token sample {i}: top-2 positions {sorted(top.tolist())}, "
          f"planted at {truth.tolist()}")
    S.export_token_html([str(t) for t in sample.ids[i]], sal,
                        f"{OUT}/tokens_{i}.html")

print(f"wrote PGM/PPM/HTML files under {OUT}")
