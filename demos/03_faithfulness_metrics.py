"""Measure how faithful the saliency maps are: confidence drops under
masking, the area-corrected EAD score, and insertion/deletion curves.

EAD reweights each sample's drop by f(area) = 5a/(1 + 256 a^5), so an
explanation that "wins" by highlighting half the image is discounted while a
tight 25%-area map gets full weight (f(0.25) = 1).

Run:  python3 demos/03_faithfulness_metrics.py
"""

import numpy as np

import mhexlab as mx
from mhexlab import metrics as M
from mhexlab import saliency as S
from mhexlab.models import ResNetConfig, ResNetModel, train

shapes = mx.gen_shapes(800, seed=0)
model = ResNetModel(ResNetConfig(), seed=0)
print("training a small host (6 epochs)...")
train(model, shapes, mode="finetune", epochs=6, lr=3e-3, seed=0,
      eval_accuracy=False)

held = mx.gen_shapes(40, seed=7)
cfg = S.WeightFilterConfig()

labels = [int(c) for c in held.labels]
# one batched call: each image's MHEX map and its class probabilities
maps = S.image_maps(model, held.images, labels, cfg)
cams = [S.resize_map(smap.grid, img.shape[-2:])
        for (smap, _, _), img in zip(maps, held.images)]
records = []
for i, (label, cam, (_, _, probs)) in enumerate(zip(labels, cams, maps)):
    records += M.drop_records(model.predict_proba, held.images[i], label, [cam],
                              float(probs[label]), sample_id=i)
areas = [M.saliency_area(cam) for cam in cams]

print(f"AVG Drop            : {M.avg_drop(records):.3f}")
print(f"EAD (area-weighted) : {M.ead(records):.3f}")
print(f"mean saliency area  : {np.mean(areas):.3f}")
print("area weight f(a):", ", ".join(
    f"f({a})={M.area_weight(a):.3f}" for a in (0.05, 0.25, 0.5, 1.0)))

# deletion: remove the most-salient pixels first and watch confidence fall;
# insertion: reveal them onto a mean-filled canvas. Good maps fall fast and
# rise fast, so deletion AUC is low and insertion AUC is high. Averaged over
# a handful of samples; any single image is noisy.
rng = np.random.Generator(np.random.Philox(key=0))
del_sal, del_rand, ins_sal = [], [], []
for i in range(10):
    rand_cam = rng.random(held.images[i].shape[-2:])
    # both maps' deletion and insertion curves, sharing their endpoints
    (dele, ins), (dele_rand, _) = M.image_curves(
        model.predict_proba, held.images[i], [cams[i], rand_cam], labels[i], steps=20)
    del_sal.append(M.auc(dele))
    ins_sal.append(M.auc(ins))
    del_rand.append(M.auc(dele_rand))
print(f"mean deletion AUC : saliency {np.mean(del_sal):.3f} "
      f"vs random {np.mean(del_rand):.3f}  (lower is better)")
print(f"mean insertion AUC: saliency {np.mean(ins_sal):.3f}")
