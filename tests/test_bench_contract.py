"""The benchmark under ``perfbench/`` calls and patches mhexlab by name.
These tests run its exact invariants and its tracer against the library,
so a renamed or deleted name fails here instead of in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import mhexlab  # noqa: F401  (loads every mhexlab module the tracer patches)
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
