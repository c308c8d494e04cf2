"""Probe how neighbouring explanation blocks collaborate.

Each MHEX block's channel mixer w1 receives gradient from two places: its own
supervision head, and the next block's head reaching back through the gated
side chain. The cosine between those two gradients says whether the two
depths pull the shared weights in the same direction. We correlate that
cosine with saliency quality (soft-mask drop) and confidence, using a
from-scratch Pearson r with a Student-t p-value.

Run:  python3 demos/04_collaboration_analysis.py
"""

import numpy as np

import mhexlab as mx
from mhexlab import analysis as A
from mhexlab.models import ResNetConfig, ResNetModel, train

shapes = mx.gen_shapes(600, seed=0)
model = ResNetModel(ResNetConfig(), seed=0)
print("training a small host (3 epochs)...")
train(model, shapes, mode="finetune", epochs=3, lr=3e-3, seed=0,
      eval_accuracy=False)

held = mx.gen_shapes(30, seed=7)

# per-sample collaboration at the deepest site with a successor
site = len(model.sites) - 2
cosines = [A.collaboration_cosine(model, held.images[i], int(held.labels[i]),
                                  site) for i in range(10)]
print(f"site {site} collaboration cosine over 10 samples: "
      f"mean {np.mean(cosines):+.3f}, min {min(cosines):+.3f}, "
      f"max {max(cosines):+.3f}")

# spatial breakdown: which regions of the block input drive the agreement?
grid = A.blockwise_quality(model, held.images[0], int(held.labels[0]),
                           grid=4, site=0)
print("4x4 block-wise quality map (site 0):")
for row in grid:
    print("   " + " ".join(f"{v:+.2f}" for v in row))

# the seven-row correlation report over the measured sites
rows, _ = A.correlation_triangle(model, held, n_samples=30)
print(f"{'pair':<18} {'site':>4} {'r':>7} {'p':>9} {'n':>3}")
for row in rows:
    site_s = "-" if row.site is None else str(row.site)
    res = row.result
    print(f"{row.pair:<18} {site_s:>4} {res.r:>7.3f} {res.p:>9.3g} {res.n:>3}")

# sanity anchor: rectifying a standard normal removes about half a nat-bit of
# entropy (0.5*ln 2 = 0.3466), estimated here by Monte Carlo histogramming
print(f"ReLU entropy drop: {A.relu_entropy_drop(seed=0):.4f} "
      f"(analytic 0.5*ln2 = {0.5 * np.log(2):.4f})")
