"""Train the two toy hosts for a couple of epochs and look at what the
explanation heads learn.

Every MHEX block carries its own little classifier (the deep-supervision
head), so "accuracy" is a vector: one entry per instrumented depth plus the
final head. Shallow heads lag the deep ones early in training — that gap is
the whole point of watching them separately.

Run:  python3 demos/01_train_and_inspect.py
"""

import numpy as np

import mhexlab as mx
from mhexlab.models import (ResNetConfig, ResNetModel, TransformerConfig,
                            TransformerModel, head_accuracies,
                            save_checkpoint, strip_mhex, train)

# --- images ---------------------------------------------------------------

shapes = mx.gen_shapes(800, seed=0)
cnn = ResNetModel(ResNetConfig(), seed=0)
print(f"resnet host: {sum(t.data.size for t in cnn.params.values())} params, "
      f"sites at blocks {cnn.sites}")

log = train(cnn, shapes, mode="finetune", epochs=4, lr=3e-3, seed=0)
for e in log:
    accs = " ".join(f"{a:.2f}" for a in e.head_accuracy)
    print(f"  epoch {e.epoch}: loss {e.loss:.3f}  head acc [{accs}]")

# the explanation machinery is a pure side chain: strip it and the backbone
# prediction does not move by a single bit
bare = strip_mhex(cnn)
same = np.array_equal(bare.forward_logits(shapes.images[:8]).data,
                      cnn.forward_logits(shapes.images[:8]).data)
print(f"backbone logits identical after stripping MHEX: {same}")

save_checkpoint(cnn, "/tmp/demo_cnn.ckpt")
print("checkpoint -> /tmp/demo_cnn.ckpt")

# --- tokens ---------------------------------------------------------------

tokens = mx.gen_tokens(400, seed=0)
tfm = TransformerModel(TransformerConfig(), seed=0)
train(tfm, tokens, mode="finetune", epochs=2, lr=2e-3, seed=0,
      eval_accuracy=False)
accs = head_accuracies(tfm, tokens)
print("transformer head acc:", " ".join(f"{a:.2f}" for a in accs))
