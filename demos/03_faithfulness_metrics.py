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

records, areas = [], []
for i in range(len(held)):
    label = int(held.labels[i])
    smap = S.explain_image(model, held.images[i], label, cfg)
    cam = S.resize_map(smap.grid, held.images[i].shape[-2:])
    rec = M.drop_record(model.predict_proba, held.images[i], label, cam,
                        sample_id=i)
    records.append(rec)
    areas.append(M.saliency_area(cam))

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
    label = int(held.labels[i])
    smap = S.explain_image(model, held.images[i], label, cfg)
    cam = S.resize_map(smap.grid, held.images[i].shape[-2:])
    del_sal.append(M.auc(M.deletion_curve(model.predict_proba, held.images[i],
                                          cam, label, steps=20)))
    ins_sal.append(M.auc(M.insertion_curve(model.predict_proba, held.images[i],
                                           cam, label, steps=20)))
    rand_cam = rng.random(held.images[i].shape[-2:])
    del_rand.append(M.auc(M.deletion_curve(model.predict_proba, held.images[i],
                                           rand_cam, label, steps=20)))
print(f"mean deletion AUC : saliency {np.mean(del_sal):.3f} "
      f"vs random {np.mean(del_rand):.3f}  (lower is better)")
print(f"mean insertion AUC: saliency {np.mean(ins_sal):.3f}")
