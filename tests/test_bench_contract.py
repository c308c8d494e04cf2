"""The benchmark under ``perfbench/`` calls and patches mhexlab by name.
These tests run its exact invariants and its tracer against the library,
so a renamed or deleted name fails here instead of in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import mhexlab  # loads every mhexlab module the tracer patches
from mhexlab import autodiff as ad
from mhexlab import models
from mhexlab.models import (ResNetConfig, ResNetModel, TransformerConfig,
                            TransformerModel, save_checkpoint)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("host", ["resnet", "transformer"])
def test_perfbench_invariants_hold(tmp_path, host):
    ckpt = tmp_path / f"{host}.ckpt"
    model = (ResNetModel(ResNetConfig(), seed=3) if host == "resnet"
             else TransformerModel(TransformerConfig(), seed=3))
    save_checkpoint(model, ckpt)
    assert _load("checks").invariants(ckpt, host, tmp_path) == []


def test_perfbench_tracer_installs_and_restores_every_name():
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "mhexlab" or n.startswith("mhexlab.")]
    owners = modules + [models.ResNetModel, models.TransformerModel]
    before = [dict(vars(o)) for o in owners]
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        assert any(vars(o) != b for o, b in zip(owners, before))
    finally:
        tracer.uninstall()
    for owner, names in zip(owners, before):
        after = vars(owner)
        assert after.keys() == names.keys(), owner
        assert all(after[k] is v for k, v in names.items()), owner


@pytest.mark.parametrize("host", ["resnet", "transformer"])
def test_perfbench_tracer_counts_a_taped_train_step(monkeypatch, host):
    """Around one taped ``train`` step, the tracer times every ``conv2d`` and
    ``matmul`` node's backward closure once, and its sweep counter visits
    every node of the step's tape: the tape names it reads and wraps
    (``_backward``, ``_parents``, ``_adjoints``) still work."""
    if host == "resnet":
        model = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=3)
        ds = mhexlab.gen_shapes(8, seed=3)
    else:
        model = TransformerModel(TransformerConfig(), seed=3)
        ds = mhexlab.gen_tokens(8, seed=3)
    tracer = _load("tracing").Tracer()
    made = {"conv2d": set(), "matmul": set()}
    losses = []
    tracer.install()
    try:
        for name, ids in made.items():
            def noting(*args, _traced=getattr(ad, name), _ids=ids, **kwargs):
                out = _traced(*args, **kwargs)
                _ids.add(id(out._node))
                return out
            monkeypatch.setattr(ad, name, noting)

        def keeping(*args, _traced=models.mhex_loss, **kwargs):
            losses.append(_traced(*args, **kwargs))
            return losses[-1]
        monkeypatch.setattr(models, "mhex_loss", keeping)
        tracer.begin_run()
        models.train(model, ds, epochs=1, batch_size=len(ds), eval_accuracy=False)
    finally:
        monkeypatch.undo()
        tracer.uninstall()
    counts = tracer.counts[0]
    order = ad._topo_order(losses[0])
    taped = {name: sum(id(n) in ids for n in order) for name, ids in made.items()}
    assert taped["matmul"] > 0 and (taped["conv2d"] > 0) == (host == "resnet")
    for name, n in taped.items():
        assert counts[f"bwd_calls.{name}"] == n, name
    assert len(losses) == 1 and counts["sweep.nodes"] == len(order)
