import gc
import math
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mhexlab as mx
import mhexlab.autodiff as ad
from mhexlab.blocks import mhex_loss
from mhexlab.errors import (CheckpointError, CheckpointFormatError,
                            CheckpointShapeError, CheckpointVersionError,
                            ConfigurationError, ContractError, DimensionError,
                            TrainingDivergedError)
from mhexlab.models import (EpochLog, ResNetConfig, TrainLog, TransformerConfig,
                            build_resnet, build_transformer, clone_model,
                            count_mhex_params, head_accuracies, load_checkpoint,
                            save_checkpoint, strip_mhex, train)

from helpers import (as_format_v1, checkpoint_with_config, checkpoint_with_value,
                     conv_workers, peak_mb, reseal)


def test_resnet_config_validation():
    with pytest.raises(ConfigurationError):
        ResNetConfig(stage_channels=()).validate()
    with pytest.raises(ConfigurationError):
        ResNetConfig(stage_channels=(16, 8)).validate()
    with pytest.raises(ConfigurationError):
        ResNetConfig(n_class=1).validate()
    with pytest.raises(ConfigurationError):
        ResNetConfig(mhex_sites=(99,)).validate()


def test_transformer_config_validation():
    with pytest.raises(ConfigurationError):
        TransformerConfig(d_model=30, n_heads=4).validate()
    with pytest.raises(ConfigurationError):
        TransformerConfig(n_heads=0).validate()
    with pytest.raises(ConfigurationError):
        TransformerConfig(ffn_mult=0).validate()
    with pytest.raises(ConfigurationError):
        TransformerConfig(vocab_size=3).validate()


def test_site_selection():
    cfg = ResNetConfig(stage_channels=(8, 16, 32, 64), blocks_per_stage=2)
    assert cfg.downsample_blocks() == [2, 4, 6]
    assert cfg.site_indices() == [2, 4, 6, 7]
    assert ResNetConfig(mhex_sites="all").site_indices() == list(range(8))
    assert ResNetConfig(mhex_sites=(1, 5)).site_indices() == [1, 5]


def test_param_count_formula():
    cfg = ResNetConfig(stage_channels=(8, 16), blocks_per_stage=1,
                       n_class=3, mhex_sites="all")
    # sites at channels 8 and 16: 8^2 + 3*8 + 16^2 + 3*16 = 392
    assert count_mhex_params(cfg) == 392
    model = build_resnet(cfg, seed=0)
    actual = sum(model.params[n].data.size for n in model.mhex_param_names()
                 if ".w1" in n or ".w2" in n)
    assert actual == 392


def test_param_count_matches_built_model_with_projections():
    cfg = ResNetConfig()
    model = build_resnet(cfg, seed=0)
    total = sum(model.params[n].data.size for n in model.mhex_param_names())
    assert count_mhex_params(cfg, include_projections=True) == total


def test_resnet18_scale_reference_count():
    cfg = ResNetConfig(stage_channels=(64, 128, 256, 512), blocks_per_stage=2,
                       n_class=9, mhex_sites="all")
    assert count_mhex_params(cfg) == 713600


def test_forward_shapes_resnet(small_cnn):
    ds = mx.gen_shapes(4, seed=5)
    rec = small_cnn.forward_collect(ds.images)
    assert rec.final_logits.data.shape == (4, 4)
    assert len(rec.site_outputs) == len(small_cnn.sites) == 4
    assert len(rec.head_logits()) == 5
    for out in rec.site_outputs:
        assert out.ds_logits.data.shape == (4, 4)
        assert np.all((out.gate.data > 0) & (out.gate.data < 1))
    probs = small_cnn.predict_proba(ds.images)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_forward_shapes_transformer(small_transformer):
    ds = mx.gen_tokens(4, seed=5)
    rec = small_transformer.forward_collect(ds.ids)
    assert rec.final_logits.data.shape == (4, 4)
    assert len(rec.site_outputs) == 4
    assert rec.pad_mask is not None


def test_input_shape_contract(small_cnn, small_transformer):
    with pytest.raises(DimensionError):
        small_cnn.forward_collect(np.zeros((1, 1, 16, 16)))
    with pytest.raises(DimensionError):
        small_transformer.forward_collect(np.ones((1, 99), dtype=np.intp) * 2)
    with pytest.raises(ContractError):
        small_transformer.forward_collect(np.ones((1, 4), dtype=np.intp))  # all pad


@pytest.mark.parametrize("host", ["small_cnn", "small_transformer"])
def test_masked_record_stops_after_successor(host, request):
    """A record masked at site s holds the s + 2 site outputs its two
    losses read, all of them at the last site; those outputs equal the
    ones of a pass that runs every block."""
    model = request.getfixturevalue(host)
    if model.kind == "resnet":
        x = mx.gen_shapes(1, seed=8).images[0]
    else:
        x = mx.gen_tokens(1, seed=8).ids[:1]
    backbone = model._backbone(x)
    full = model.side_chain(backbone)
    n_sites = len(model.sites)
    for s in range(n_sites):
        shape = backbone[0][model.sites[s]].data.shape
        mask = np.ones(shape[-2:] if model.kind == "resnet" else shape[1:2])
        rec = model.forward_collect(x, site_mask=(s, mask))
        assert len(rec.site_outputs) == min(s + 2, n_sites)
        for a, b in zip(rec.site_outputs, full.site_outputs):
            assert np.array_equal(a.ds_logits.data, b.ds_logits.data)


@pytest.mark.parametrize("length", [1, 3])
def test_transformer_site_mask_shape_contract(small_transformer, length):
    """A token site mask must hold one value per position."""
    ids = mx.gen_tokens(2, seed=5).ids
    with pytest.raises(DimensionError):
        small_transformer.forward_collect(ids, site_mask=(1, np.ones(length)))


def test_head_removal_bit_identical(small_cnn, small_transformer):
    ds = mx.gen_shapes(3, seed=6)
    stripped = strip_mhex(small_cnn)
    a = small_cnn.predict_proba(ds.images)
    b = stripped.predict_proba(ds.images)
    assert np.array_equal(a, b)
    td = mx.gen_tokens(3, seed=6)
    st = strip_mhex(small_transformer)
    assert np.array_equal(small_transformer.predict_proba(td.ids),
                          st.predict_proba(td.ids))


def test_side_chain_couples_consecutive_heads(small_cnn):
    """Block l+1's supervision loss must reach block l's mixer (through the
    gate), while the final backbone logits must not."""
    ds = mx.gen_shapes(2, seed=7)
    rec = small_cnn.forward_collect(ds.images[:1])
    w1 = small_cnn.params["mhex0.w1"]
    next_loss = ad.softmax_cross_entropy(rec.site_outputs[1].ds_logits,
                                         ds.labels[:1])
    assert np.linalg.norm(ad.grad_wrt(next_loss, w1).data) > 0
    final_loss = ad.softmax_cross_entropy(rec.final_logits, ds.labels[:1])
    assert np.all(ad.grad_wrt(final_loss, w1).data == 0)


def test_training_determinism():
    ds = mx.gen_shapes(32, seed=8)
    outs = []
    for _ in range(2):
        m = build_resnet(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1),
                         seed=1)
        train(m, ds, epochs=1, lr=1e-3, seed=3, batch_size=16,
              eval_accuracy=False)
        outs.append(np.concatenate([t.data.ravel() for t in m.params.values()]))
    assert np.array_equal(outs[0], outs[1])


def test_training_modes_and_divergence():
    ds = mx.gen_shapes(16, seed=9)
    m = build_resnet(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=2)
    log = train(m, ds, mode="pretrain", epochs=1, lr=1e-3, batch_size=8,
                eval_accuracy=False)
    assert len(log.entries) == 1 and np.isfinite(log.entries[0].loss)
    m2 = build_resnet(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=2)
    m2.params["head.b"].data[:] = np.nan
    with pytest.raises(TrainingDivergedError) as exc:
        train(m2, ds, epochs=2, lr=1e-3, batch_size=8, eval_accuracy=False)
    assert exc.value.epoch == 0
    import dataclasses
    empty = dataclasses.replace(ds, images=ds.images[:0], labels=ds.labels[:0],
                                truth_masks=ds.truth_masks[:0])
    with pytest.raises(ContractError):
        train(m, empty, epochs=1)


def test_head_accuracies_reports_all_heads(small_cnn):
    ds = mx.gen_shapes(10, seed=10)
    accs = head_accuracies(small_cnn, ds)
    assert len(accs) == 5
    assert all(0.0 <= a <= 1.0 for a in accs)


@pytest.mark.parametrize("host", ["small_cnn", "small_transformer"])
def test_no_grad_forward_holds_no_tape(request, host):
    """Under ``no_grad`` no output node keeps a parent or a backward closure,
    and the head logits equal the taped forward's bit for bit."""
    m = request.getfixturevalue(host)
    x = mx.gen_shapes(2, seed=6).images if m.kind == "resnet" else mx.gen_tokens(2, seed=6).ids
    with ad.no_grad():
        rec = m.forward_collect(x)
    taped = m.forward_collect(x)
    outputs = [rec.final_logits] + [t for o in rec.site_outputs for t in vars(o).values()
                                    if isinstance(t, ad.Tensor)]
    assert len(outputs) == 1 + 4 * len(m.sites)
    for t in outputs:
        assert all(not n._parents and n._backward is None for n in ad._topo_order(t))
    for h, t in zip(rec.head_logits(), taped.head_logits()):
        assert np.array_equal(h.data, t.data)
        assert t._backward is not None


def test_forward_only_callers_record_no_tape(monkeypatch, small_cnn, small_transformer):
    """Each forward-only caller runs its backbone under ``no_grad``; the
    gradient callers keep the tape."""
    taped = []
    for m in (small_cnn, small_transformer):
        def backbone(x, _orig=m._backbone):
            out = _orig(x)
            taped.append(out[2]._backward is not None)
            return out
        monkeypatch.setitem(vars(m), "_backbone", backbone)
    shapes, tokens = mx.gen_shapes(2, seed=7), mx.gen_tokens(2, seed=7)
    small_cnn.predict_proba(shapes.images)
    mx.saliency.explain_image(small_cnn, shapes.images[0], 0)
    head_accuracies(small_cnn, shapes)
    small_transformer.predict_proba(tokens.ids)
    mx.saliency.explain_tokens(small_transformer, tokens.ids[0], 0)
    head_accuracies(small_transformer, tokens)
    assert taped == [False] * 6
    mx.saliency.gradcam_baseline(small_cnn, shapes.images[0], 0)
    small_transformer.forward_collect(tokens.ids)
    assert taped[6:] == [True, True]


def test_head_accuracies_peak_below_quarter_of_taped_forward(small_cnn):
    """The accuracy pass holds no tape: its tracemalloc peak on 128 images is
    under a quarter of one taped forward of the same batch."""
    ds = mx.gen_shapes(128, seed=12)
    taped = peak_mb(lambda: small_cnn.forward_collect(ds.images))
    untaped = peak_mb(lambda: head_accuracies(small_cnn, ds))
    assert untaped < taped / 4, (untaped, taped)


def test_training_step_peak_below_300_mb():
    """One taped batch-64 forward plus backward of the default CNN holds its
    activations, not im2col columns, padded copies or consumed adjoints: its
    tracemalloc peak is under 300 MB (574 MB when the tape kept them)."""
    model = build_resnet(ResNetConfig(), seed=3)
    ds = mx.gen_shapes(64, seed=13)

    def step():
        rec = model.forward_collect(ds.images)
        ad.backward(mhex_loss(rec.head_logits(), ds.labels, "finetune"))

    peak = peak_mb(step)
    assert peak < 300, peak


def test_train_frees_step_tape_before_accuracy_pass(monkeypatch):
    """No tape node of the last step (activations and backward closures) is
    alive while ``train`` runs its per-epoch accuracy pass."""
    import mhexlab.models as models_mod
    ds = mx.gen_shapes(16, seed=11)
    m = build_resnet(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=4)
    params = {id(t) for t in m.params.values()}
    live = []
    accuracies = models_mod.head_accuracies

    def counting(model, dataset, **kw):
        live.append(sum(1 for o in gc.get_objects() if isinstance(o, ad.Tensor)
                        and any(id(p) in params for p in o._parents)))
        return accuracies(model, dataset, **kw)

    monkeypatch.setattr(models_mod, "head_accuracies", counting)
    train(m, ds, epochs=2, lr=1e-3, batch_size=8)
    assert live == [0, 0]


def test_batch1_forward_stays_on_calling_thread(monkeypatch, small_cnn, small_transformer):
    """A batch-1 forward of either host starts no conv2d pool and builds
    every column chunk on the calling thread; a batch-16 CNN forward spreads
    its chunks over the pool."""
    threads = []

    def columns(*args, _orig=ad._columns):
        threads.append(threading.get_ident())
        return _orig(*args)

    monkeypatch.setattr(ad, "_columns", columns)
    with conv_workers(monkeypatch, 2), ad.no_grad():
        small_cnn.forward_collect(mx.gen_shapes(1, seed=5).images)
        small_transformer.forward_collect(mx.gen_tokens(1, seed=5).ids)
        assert ad._pool is None
        assert threads and set(threads) == {threading.get_ident()}
        small_cnn.forward_collect(mx.gen_shapes(16, seed=5).images)
        assert ad._pool is not None and len(set(threads)) == 2


def test_train_checkpoint_same_bytes_for_any_worker_count(monkeypatch, tmp_path):
    """``train`` on 64 shapes images writes the same checkpoint bytes with
    conv2d on one worker and on two."""
    ds = mx.gen_shapes(64, seed=0)
    blobs = []
    for workers in (1, 2):
        with conv_workers(monkeypatch, workers):
            m = build_resnet(ResNetConfig(n_class=ds.n_class), seed=0)
            train(m, ds, epochs=1, lr=3e-3, seed=0, batch_size=64)
        path = tmp_path / f"w{workers}.ckpt"
        save_checkpoint(m, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_roundtrip_bit_exact(tmp_path, small_cnn):
    path = tmp_path / "m.ckpt"
    save_checkpoint(small_cnn, path)
    twin = load_checkpoint(path)
    for name, t in small_cnn.params.items():
        assert np.array_equal(t.data, twin.params[name].data), name
    ds = mx.gen_shapes(2, seed=11)
    assert np.array_equal(small_cnn.predict_proba(ds.images),
                          twin.predict_proba(ds.images))


def test_checkpoint_roundtrip_transformer(tmp_path, small_transformer):
    path = tmp_path / "t.ckpt"
    save_checkpoint(small_transformer, path)
    twin = load_checkpoint(path)
    td = mx.gen_tokens(2, seed=11)
    assert np.array_equal(small_transformer.predict_proba(td.ids),
                          twin.predict_proba(td.ids))


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTMHEX!" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(p)


def test_checkpoint_truncated(tmp_path, small_cnn):
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_cnn, p)
    data = p.read_bytes()
    p.write_bytes(data[:len(data) // 2])
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(p)


def test_checkpoint_bad_version(tmp_path, small_cnn):
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_cnn, p)
    data = bytearray(p.read_bytes())
    data[8] = 99        # version field follows the 8-byte magic
    p.write_bytes(bytes(data))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(p)


def test_checkpoint_shape_mismatch(tmp_path, small_cnn):
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_cnn, p)
    data = p.read_bytes()
    # grow the declared length of the first tensor's first dimension
    import struct
    magic_len = 8
    (cfg_len,) = struct.unpack_from("<I", data, magic_len + 4)
    off = magic_len + 4 + 4 + cfg_len + 4 + 4   # + seed + tensor count
    (name_len,) = struct.unpack_from("<H", data, off)
    dim_off = off + 2 + name_len + 1
    bad = bytearray(data)
    struct.pack_into("<I", bad, dim_off, 9999)
    p.write_bytes(reseal(bad))
    with pytest.raises(CheckpointShapeError):
        load_checkpoint(p)


BAD_CONFIGS = {
    "missing_kind": lambda c: c.replace(b"kind=transformer\n", b""),
    "non_integer": lambda c: c.replace(b"n_class=4", b"n_class=four"),
    "unknown_key": lambda c: c + b"colour=red\n",
    "non_utf8": lambda c: c.replace(b"pad_id=1", b"pad_id=\xff"),
    "unknown_kind": lambda c: c.replace(b"kind=transformer", b"kind=mlp"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_checkpoint_bad_config(tmp_path, small_transformer, case):
    p = tmp_path / "t.ckpt"
    save_checkpoint(small_transformer, p)
    data = p.read_bytes()
    bad = checkpoint_with_config(data, BAD_CONFIGS[case])
    assert bad != data
    p.write_bytes(bad)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(p)


@pytest.mark.parametrize("host", ["small_cnn", "small_transformer"])
def test_checkpoint_with_removed_config_keys_loads(tmp_path, request, host):
    """Checkpoints written while the configs had ``saliency_layers`` and
    ``ds_stop_grad`` fields hold both keys; they load to the same model."""
    model = request.getfixturevalue(host)
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    p.write_bytes(checkpoint_with_config(
        p.read_bytes(), lambda c: c + b"saliency_layers=3\nds_stop_grad=True\n"))
    twin = load_checkpoint(p)
    assert twin.cfg == model.cfg
    for name, t in model.params.items():
        assert np.array_equal(t.data, twin.params[name].data), name
    x = mx.gen_shapes(2, seed=11).images if host == "small_cnn" else mx.gen_tokens(2, seed=11).ids
    for a, b in zip(model.forward_collect(x).head_logits(), twin.forward_collect(x).head_logits()):
        assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_non_finite_tensor_rejected(tmp_path, small_transformer, value):
    """A NaN or Inf in a tensor raises, naming the tensor, even under a
    valid checksum: such a model writes NaN scores and ranks tokens by NaN."""
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_transformer, p)
    p.write_bytes(checkpoint_with_value(small_transformer, p.read_bytes(), "mhex0.w1", value))
    with pytest.raises(CheckpointFormatError, match="mhex0.w1"):
        load_checkpoint(p)


def _header_bits(model, data):
    """Bit count of a v2 file's magic, version, config, seed and shape
    table: all but the tensor data and the checksum."""
    return 8 * (len(data) - 4 - 8 * sum(t.data.size for t in model.params.values()))


def _flip_raises(path, data, bit):
    bad = bytearray(data)
    bad[bit // 8] ^= 1 << (bit % 8)
    path.write_bytes(bytes(bad))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("host", ["small_cnn", "small_transformer"])
def test_checkpoint_corruption_raises_only_checkpoint_error(tmp_path, request, host):
    """A bit flip in the header or the tensor data, a truncation and
    trailing bytes all raise a ``CheckpointError``: format v2 carries a
    CRC32 of everything after the magic."""
    model = request.getfixturevalue(host)
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    data = p.read_bytes()
    header = _header_bits(model, data)

    @settings(deadline=None, derandomize=True, max_examples=150, database=None)
    @given(st.integers(0, header - 1))
    def check_header_flip(bit):
        _flip_raises(p, data, bit)

    @settings(deadline=None, derandomize=True, max_examples=100, database=None)
    @given(st.integers(header, 8 * len(data) - 1))
    def check_data_flip(bit):
        _flip_raises(p, data, bit)

    @settings(deadline=None, derandomize=True, max_examples=50, database=None)
    @given(st.integers(0, len(data) - 1))
    def check_truncation(n):
        p.write_bytes(data[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(p)

    check_header_flip()
    check_data_flip()
    check_truncation()
    p.write_bytes(data + b"\x00")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(p)


@pytest.mark.parametrize("model", [
    build_resnet(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=5),
    build_transformer(TransformerConfig(d_model=8, n_heads=2, n_layers=2), seed=5),
], ids=["cnn", "transformer"])
def test_checkpoint_every_header_bit_flip_raises(tmp_path, model):
    """Every single-bit flip before the tensor data raises a
    ``CheckpointError`` (hosts small enough to try them all)."""
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    data = p.read_bytes()
    for bit in range(_header_bits(model, data)):
        _flip_raises(p, data, bit)


@pytest.mark.parametrize("host", ["small_cnn", "small_transformer"])
def test_checkpoint_format_v1_still_loads(tmp_path, request, host):
    """A format-v1 file (no checksum) loads to equal parameters, and bytes
    after its tensor data are rejected."""
    model = request.getfixturevalue(host)
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    v1 = as_format_v1(p.read_bytes())
    p.write_bytes(v1)
    twin = load_checkpoint(p)
    assert twin.cfg == model.cfg and twin.seed == model.seed
    for name, t in model.params.items():
        assert np.array_equal(t.data, twin.params[name].data), name
    p.write_bytes(v1 + b"\x00" * 4)
    with pytest.raises(CheckpointFormatError, match="trailing"):
        load_checkpoint(p)


def test_clone_is_independent(small_cnn):
    twin = clone_model(small_cnn)
    twin.params["head.w"].data += 1.0
    assert not np.array_equal(twin.params["head.w"].data,
                              small_cnn.params["head.w"].data)


def test_fixture_cache_retrains_stale_or_corrupt(tmp_path, monkeypatch):
    """The session fixtures' checkpoint cache reloads only a checkpoint whose
    digest matches; a stale digest or a corrupt file retrains with a notice."""
    import conftest
    monkeypatch.setattr(conftest, "CACHE", tmp_path)
    builds = []

    def build():
        builds.append(1)
        m = build_resnet(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=5)
        return m, TrainLog([EpochLog(0, 1.5, [0.25, 0.5])])

    with pytest.warns(UserWarning, match="no cached checkpoint"):
        first = conftest._cached_model("m.ckpt", build)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = conftest._cached_model("m.ckpt", build)
    assert len(builds) == 1
    assert np.array_equal(first.params["head.w"].data, again.params["head.w"].data)
    assert (tmp_path / "m.ckpt.log").read_text() == "0 1.5 [0.25, 0.5]\n"
    (tmp_path / "m.ckpt.digest").write_text("0" * 64 + "\n")
    with pytest.warns(UserWarning, match="sources changed"):
        conftest._cached_model("m.ckpt", build)
    (tmp_path / "m.ckpt").write_bytes(b"MHEXCKPT\x01\x00\x00\x00\x0c\x00\x00\x00kinx=resnet\n")
    with pytest.warns(UserWarning, match="failed to load"):
        conftest._cached_model("m.ckpt", build)
    assert len(builds) == 3
