import ast
import hashlib
import inspect
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import mhexlab as mx
from mhexlab.errors import CheckpointError
from mhexlab.models import (ResNetConfig, ResNetModel, TransformerConfig,
                            TransformerModel, load_checkpoint,
                            save_checkpoint, train)

CACHE = Path(__file__).parent / "_cache"
SRC = Path(mx.__file__).parent
# the CI cache key (.github/workflows/tier1.yml) hashes the same files, in this
# order; test_workflow checks it
CACHE_SOURCES = ("autodiff.py", "blocks.py", "models.py", "datasets.py")
CACHE.mkdir(exist_ok=True)


@pytest.fixture(scope="session")
def shapes_2000():
    return mx.gen_shapes(2000, seed=0)


@pytest.fixture(scope="session")
def tokens_1000():
    return mx.gen_tokens(1000, seed=0)


def _cache_digest(builder):
    """Key of a cached checkpoint: the fixture's recipe (the source of its
    build function) and every source file that training depends on. A change
    to either retrains instead of reusing a stale model."""
    h = hashlib.sha256(inspect.getsource(builder).encode())
    for name in CACHE_SOURCES:
        h.update(hashlib.sha256((SRC / name).read_bytes()).digest())
    return h.hexdigest()


def _cached_model(path, builder):
    ckpt = CACHE / path
    digest_path = CACHE / (path + ".digest")
    digest = _cache_digest(builder)
    if not ckpt.exists():
        reason = "no cached checkpoint"
    elif not digest_path.exists() or digest_path.read_text().strip() != digest:
        reason = "its recipe or the training sources changed"
    else:
        try:
            return load_checkpoint(ckpt)
        except CheckpointError as exc:
            reason = f"it failed to load ({exc!r})"
    warnings.warn(f"training {path}: {reason}", stacklevel=2)
    model, log = builder()
    save_checkpoint(model, ckpt)
    with open(CACHE / (path + ".log"), "w") as fh:
        for e in log:
            fh.write(f"{e.epoch} {e.loss} {e.head_accuracy}\n")
    digest_path.write_text(digest + "\n")
    return model


@pytest.fixture(scope="session")
def trained_cnn(shapes_2000):
    """CNN host trained to criterion on the planted-shape set; cached on disk
    so a cold run pays the cost once."""
    def build():
        m = ResNetModel(ResNetConfig(), seed=0)
        log = train(m, shapes_2000, mode="finetune", epochs=10, lr=3e-3,
                    seed=0, batch_size=64)
        return m, log
    return _cached_model("cnn2000.ckpt", build)


@pytest.fixture(scope="session")
def trained_cnn_log(trained_cnn):
    log_path = CACHE / "cnn2000.ckpt.log"
    rows = []
    if log_path.exists():
        for line in log_path.read_text().splitlines():
            epoch, loss, accs = line.split(" ", 2)
            rows.append((int(epoch), float(loss), ast.literal_eval(accs)))
    return rows


@pytest.fixture(scope="session")
def trained_transformer():
    """Token host trained in two short stages; the optimizer restart between
    them kicks the model off the early loss plateau, which sharpens per-token
    locality of the learned features (picked by a pilot sweep)."""
    def build():
        data = mx.gen_tokens(2000, seed=0)
        m = TransformerModel(TransformerConfig(), seed=0)
        train(m, data, mode="finetune", epochs=4, lr=2e-3, seed=0,
              batch_size=64, eval_accuracy=False)
        log = train(m, data, mode="finetune", epochs=4, lr=2e-3, seed=4,
                    batch_size=64)
        return m, log
    return _cached_model("tfm2000.ckpt", build)


@pytest.fixture(scope="session")
def small_cnn():
    """Untrained small host for plumbing tests."""
    return ResNetModel(ResNetConfig(), seed=3)


@pytest.fixture(scope="session")
def small_transformer():
    return TransformerModel(TransformerConfig(), seed=3)
