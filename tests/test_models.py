import gc
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mhexlab as mx
import mhexlab.autodiff as ad
import mhexlab.analysis as A
import mhexlab.metrics as M
import mhexlab.saliency as S
from mhexlab import models
from mhexlab.analysis import relu_entropy_drop
from mhexlab.blocks import mhex_loss
from mhexlab.errors import (CheckpointError, CheckpointFormatError,
                            CheckpointShapeError, CheckpointVersionError,
                            ConfigurationError, ContractError, DimensionError,
                            TrainingDivergedError)
from mhexlab.models import (EpochLog, ResNetConfig, ResNetModel, TransformerConfig,
                            TransformerModel, batches, clone_model,
                            count_mhex_params, head_accuracies, load_checkpoint,
                            save_checkpoint, strip_mhex, train)

from helpers import (as_format_v1, as_format_v2, checkpoint_with_config, checkpoint_with_value,
                     conv_workers, count_calls, peak_mb, reseal, rows_per_call, same_bits)


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


@pytest.mark.parametrize("cfg", [ResNetConfig(blocks_per_stage=0), ResNetConfig(in_channels=2),
                                 TransformerConfig(max_seq=0)],
                         ids=["blocks_per_stage_0", "in_channels_2", "max_seq_0"])
def test_config_validation_bounds(cfg):
    with pytest.raises(ConfigurationError):
        cfg.validate()


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
    model = ResNetModel(cfg, seed=0)
    actual = sum(model.params[n].data.size for n in model.mhex_param_names()
                 if ".w1" in n or ".w2" in n)
    assert actual == 392
    # four 32-wide sites, 4 classes: 4 * (32^2 + 4 * 32)
    assert count_mhex_params(TransformerConfig()) == 4608


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
        rec = model.side_chain(backbone, (s, mask))
        assert len(rec.site_outputs) == min(s + 2, n_sites)
        for a, b in zip(rec.site_outputs, full.site_outputs):
            assert np.array_equal(a.ds_logits.data, b.ds_logits.data)


@pytest.mark.parametrize("length", [1, 3])
def test_transformer_site_mask_shape_contract(small_transformer, length):
    """A token site mask must hold one value per position."""
    ids = mx.gen_tokens(2, seed=5).ids
    with pytest.raises(DimensionError):
        small_transformer.side_chain(small_transformer._backbone(ids), (1, np.ones(length)))


@pytest.mark.parametrize("shape", [(8, 8), (16,), (2, 8, 8), (1, 1, 16, 16)])
def test_resnet_site_mask_shape_contract(small_cnn, shape):
    """An image site mask, or each of a stack of them, must match the site's
    (h, w) resolution."""
    x = mx.gen_shapes(1, seed=5).images
    with pytest.raises(DimensionError, match="site resolution"):
        small_cnn.side_chain(small_cnn._backbone(x), (0, np.ones(shape)))


@pytest.mark.parametrize("n_masks", [1, 2, 3])
def test_resnet_mask_stack_needs_a_batch_1_backbone(small_cnn, n_masks):
    """A stack of site masks replays one backbone row once per mask; over a
    2-row backbone it used to fail in numpy's broadcast (3 masks) or pair
    mask b with row b (1 or 2 masks)."""
    backbone = small_cnn._backbone(mx.gen_shapes(2, seed=5).images)
    hw = backbone[0][small_cnn.sites[0]].data.shape[-2:]
    with pytest.raises(DimensionError, match="batch-1 backbone"):
        small_cnn.side_chain(backbone, (0, np.ones((n_masks,) + hw)))


@pytest.mark.parametrize("host", ["small_cnn", "small_transformer"])
def test_masked_site_out_of_range_raises(host, request):
    """A masked site must be one of the host's sites: -1 used to mask
    nothing and return one site output, and len(sites) to mask nothing and
    return all of them."""
    model = request.getfixturevalue(host)
    x = (mx.gen_shapes(1, seed=5).images if model.kind == "resnet"
         else mx.gen_tokens(1, seed=5).ids)
    backbone = model._backbone(x)
    mask = np.ones(backbone[0][model.sites[0]].data.shape[-2:] if model.kind == "resnet"
                   else x.shape[1])
    for site in (-1, len(model.sites)):
        with pytest.raises(ContractError, match="masked site"):
            model.side_chain(backbone, (site, mask))


@pytest.mark.parametrize("bad_id", [mx.datasets.VOCAB_SIZE, -1])
def test_token_id_outside_vocabulary_raises(small_transformer, bad_id):
    """An id outside [0, vocab_size) is refused before the embedding: the
    vocabulary size used to end in a bare IndexError, and -1 silently
    embedded the last token."""
    ids = mx.gen_tokens(2, seed=5).ids.copy()
    ids[1, 0] = bad_id
    with pytest.raises(ContractError, match="vocabulary"):
        small_transformer.predict_proba(ids)
    with pytest.raises(ContractError, match="vocabulary"):
        mx.explain_tokens(small_transformer, ids, [0, 1])


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
    assert np.linalg.norm(ad.grad_wrt(next_loss, w1)) > 0
    final_loss = ad.softmax_cross_entropy(rec.final_logits, ds.labels[:1])
    assert np.all(ad.grad_wrt(final_loss, w1) == 0)


def test_training_determinism():
    ds = mx.gen_shapes(32, seed=8)
    outs = []
    for _ in range(2):
        m = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=1)
        train(m, ds, epochs=1, lr=1e-3, seed=3, batch_size=16,
              eval_accuracy=False)
        outs.append(np.concatenate([t.data.ravel() for t in m.params.values()]))
    assert np.array_equal(outs[0], outs[1])


def test_training_modes_and_divergence():
    ds = mx.gen_shapes(16, seed=9)
    m = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=2)
    log = train(m, ds, mode="pretrain", epochs=1, lr=1e-3, batch_size=8,
                eval_accuracy=False)
    assert len(log) == 1 and np.isfinite(log[0].loss)
    m2 = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=2)
    m2.params["head.b"].data[:] = np.nan
    with pytest.raises(TrainingDivergedError) as exc:
        train(m2, ds, epochs=2, lr=1e-3, batch_size=8, eval_accuracy=False)
    assert exc.value.epoch == 0
    import dataclasses
    empty = dataclasses.replace(ds, images=ds.images[:0], labels=ds.labels[:0],
                                truth_masks=ds.truth_masks[:0])
    with pytest.raises(ContractError):
        train(m, empty, epochs=1)


def test_train_rejects_non_finite_parameters_after_an_epoch(monkeypatch):
    """One batch per epoch: the loss is finite before the only update, and
    the largest finite rate overflows it to non-finite parameters. ``train``
    raises before the accuracy pass instead of returning a model no
    checkpoint can hold."""
    accuracy_passes = count_calls(models, "head_accuracies", monkeypatch)
    ds = mx.gen_shapes(8, seed=9)
    m = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=2)
    with pytest.raises(TrainingDivergedError) as exc:
        train(m, ds, epochs=1, lr=sys.float_info.max, batch_size=8)
    assert exc.value.epoch == 0
    assert accuracy_passes == []


@pytest.mark.parametrize("kwargs", [{"epochs": -1}, {"lr": -1e-3}, {"lr": 0.0},
                                    {"lr": math.nan}, {"lr": math.inf}, {"lr": -math.inf}])
def test_train_rejects_bad_epochs_and_rates(kwargs):
    """A negative epoch count, or a rate that is not finite and positive, is
    a configuration error raised before any step; zero epochs train nothing."""
    ds = mx.gen_shapes(8, seed=9)
    m = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=2)
    before = [t.data.copy() for t in m.params.values()]
    with pytest.raises(ConfigurationError):
        train(m, ds, **{"epochs": 1, "batch_size": 8, **kwargs})
    assert train(m, ds, epochs=0) == []
    assert all(np.array_equal(a, t.data) for a, t in zip(before, m.params.values()))


@pytest.mark.parametrize("epochs", [0, 1])
def test_train_rejects_unknown_mode(monkeypatch, epochs):
    """An unknown loss mode is a configuration error raised before any
    forward: zero epochs returned ``[]``, and one failed only after the first
    forward, as a ``ContractError`` from ``mhex_loss``."""
    ds = mx.gen_shapes(8, seed=9)
    m = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=2)
    forwards = count_calls(ResNetModel, "_backbone", monkeypatch)
    with pytest.raises(ConfigurationError, match="'bogus'"):
        train(m, ds, mode="bogus", epochs=epochs, batch_size=8)
    assert forwards == []


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_philox_key_range_rejected(seed):
    """Each place that turns a seed into a Philox key raises a
    ``ConfigurationError``, not numpy's bare ``ValueError``."""
    small = ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1)
    for make in (lambda: mx.gen_shapes(4, seed=seed), lambda: mx.gen_tokens(4, seed=seed),
                 lambda: ResNetModel(small, seed=seed),
                 lambda: train(ResNetModel(small), mx.gen_shapes(4), epochs=1, seed=seed),
                 lambda: relu_entropy_drop(100_000, seed=seed)):
        with pytest.raises(ConfigurationError, match=r"seed must be in \[0, 2\*\*64\)"):
            make()
    mx.gen_shapes(1, seed=2 ** 64 - 1)       # the largest seed is a valid key half


def test_train_rejects_labels_outside_the_host_classes():
    """A 2-class host on the 4-class shapes set: a ``ConfigurationError``
    from the loss, not a bare ``IndexError``."""
    ds = mx.gen_shapes(8, seed=9)
    m = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1, n_class=2), seed=2)
    with pytest.raises(ConfigurationError, match="outside"):
        train(m, ds, epochs=1, batch_size=8, eval_accuracy=False)


def test_head_accuracies_reports_all_heads(small_cnn):
    ds = mx.gen_shapes(10, seed=10)
    accs = head_accuracies(small_cnn, ds)
    assert len(accs) == 5
    assert all(0.0 <= a <= 1.0 for a in accs)


def test_head_accuracies_reject_an_empty_dataset(small_cnn, small_transformer, monkeypatch):
    """An empty dataset raises ``ContractError`` before any forward, as in
    ``train``; it used to end in a bare ``TypeError`` from ``None / 0``."""
    import dataclasses
    for m, ds in ((small_cnn, mx.gen_shapes(1, seed=10)),
                  (small_transformer, mx.gen_tokens(1, seed=10))):
        forwards = count_calls(type(m), "forward_collect", monkeypatch)
        empty = dataclasses.replace(ds, **{f.name: getattr(ds, f.name)[:0]
                                           for f in dataclasses.fields(ds)})
        with pytest.raises(ContractError, match="empty"):
            head_accuracies(m, empty)
        assert forwards == []


def test_cnn_only_callers_raise_one_message(small_cnn, small_transformer, monkeypatch):
    """The four CNN-only entry points refuse the transformer with the one
    ``check_cnn`` message before any forward, and the collaboration analysis
    refuses a CNN with a token dataset."""
    td = mx.gen_tokens(3, seed=46)
    forwards = count_calls(type(small_transformer), "_backbone", monkeypatch)
    for what, call in (
            ("image_maps", lambda: S.image_maps(small_transformer, td.ids, [0, 0, 0])),
            ("Grad-CAM", lambda: S.gradcam_baseline(small_transformer, td.ids[0], 0)),
            ("blockwise_quality", lambda: A.blockwise_quality(small_transformer, td.ids[0], 0)),
            ("the collaboration analysis",
             lambda: A.collect_collab_records(small_transformer, td))):
        with pytest.raises(ContractError, match=f"^{what} supports only the CNN host$"):
            call()
    assert forwards == []
    with pytest.raises(ContractError, match="needs an image dataset"):
        A.collect_collab_records(small_cnn, td)


@pytest.mark.parametrize("n", [1, 2, 9, 128, 129, 257])
@pytest.mark.parametrize("size", [3, 8, 128])
def test_batches_cut_near_equal_pieces(n, size):
    """``batches`` covers ``range(n)`` with contiguous pieces in order, the
    fewest of at most ``size`` rows, whose lengths differ by at most one;
    none is a lone row unless ``n`` is 1."""
    pieces = batches(n, size)
    assert [lo for lo, _ in pieces] == [0] + [hi for _, hi in pieces[:-1]]
    assert pieces[-1][1] == n and len(pieces) == math.ceil(n / size)
    lengths = [hi - lo for lo, hi in pieces]
    assert max(lengths) <= size and max(lengths) - min(lengths) <= 1
    assert min(lengths) >= min(n, 2)


@pytest.mark.parametrize("n", [2, 5, 9])
def test_stacked_passes_forward_no_lone_row(monkeypatch, small_cnn, small_transformer, n):
    """With ``EVAL_BATCH_SIZE`` 4 and ``COLLAB_ROWS`` 3, every stacked pass
    of ``n`` rows forwards the pieces of ``batches`` and never a lone row:
    ``head_accuracies``, ``explain_tokens``, ``token_perturb_drop``,
    ``image_curves`` (``n`` steps; 5 and 9 predicted the last step alone),
    ``image_maps`` and ``collect_collab_records``, whose only 1-row
    forwards are its soft-masked copies, one ``predict_proba`` per sample."""
    for mod in (models, M, S):
        monkeypatch.setattr(mod, "EVAL_BATCH_SIZE", 4)
    for mod in (S, A):
        monkeypatch.setattr(mod, "COLLAB_ROWS", 3)
    shapes, tokens = mx.gen_shapes(n, seed=50), mx.gen_tokens(n, seed=50)
    labels = [int(c) for c in shapes.labels]
    sals = S.explain_tokens(small_transformer, tokens.ids, tokens.labels)
    cam = np.random.default_rng(n).uniform(size=shapes.images.shape[-2:])
    cnn_rows, tfm_rows = (rows_per_call(host, "_backbone", monkeypatch)
                          for host in (ResNetModel, TransformerModel))
    evals = [hi - lo for lo, hi in batches(n, 4)]
    inner = [hi - lo for lo, hi in batches(2 * (n - 2), 4)]
    for call, want in [
            (lambda: head_accuracies(small_cnn, shapes), evals),
            (lambda: S.explain_tokens(small_transformer, tokens.ids, tokens.labels), evals),
            (lambda: M.token_perturb_drop(small_transformer.predict_proba, tokens.ids, sals,
                                          tokens.labels), [2 * r for r in evals]),
            (lambda: M.image_curves(small_cnn.predict_proba, shapes.images[0], [cam],
                                    labels[0], steps=n), [2] + inner),
            (lambda: S.image_maps(small_cnn, shapes.images, labels),
             [hi - lo for lo, hi in batches(n, 3)])]:
        cnn_rows.clear()
        tfm_rows.clear()
        with conv_workers(monkeypatch, 1):
            call()
        assert cnn_rows + tfm_rows == want and min(want) >= 2
    if n >= 3:
        predicts = count_calls(ResNetModel, "predict_proba", monkeypatch)
        cnn_rows.clear()
        with conv_workers(monkeypatch, 1):
            A.collect_collab_records(small_cnn, shapes)
        stacks = [hi - lo for lo, hi in batches(n, 3)]
        assert sorted(cnn_rows) == sorted(stacks + [1] * n) and len(predicts) == n
        assert min(stacks) >= 2


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
    """Each forward-only caller runs its backbone under ``no_grad``, and so
    does Grad-CAM, which reads the head's weights; ``forward_collect``,
    which ``train`` calls, keeps the tape."""
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
    mx.saliency.gradcam_baseline(small_cnn, shapes.images[0], 0)
    assert taped == [False] * 7
    small_cnn.forward_collect(shapes.images)
    small_transformer.forward_collect(tokens.ids)
    assert taped[7:] == [True, True]


def test_head_accuracies_peak_within_5_percent_of_untaped_forward(small_cnn):
    """The accuracy pass holds no tape: its tracemalloc peak on 128 images is
    within 5 % of one ``no_grad`` forward of the same batch (49.2 MB; a
    taped forward peaks at 93.2 MB)."""
    ds = mx.gen_shapes(128, seed=12)

    def untaped_forward():
        with ad.no_grad():
            small_cnn.forward_collect(ds.images)

    untaped = peak_mb(untaped_forward)
    accuracy_pass = peak_mb(lambda: head_accuracies(small_cnn, ds))
    assert accuracy_pass < untaped * 1.05, (accuracy_pass, untaped)


def test_training_step_peak_below_100_mb():
    """One taped batch-64 forward plus backward of the default CNN holds what
    its closures read, not every node's output, im2col columns, padded
    copies or consumed adjoints: its tracemalloc peak is under 100 MB (141 MB
    when each node kept its output, 574 MB when the tape kept the rest)."""
    model = ResNetModel(ResNetConfig(), seed=3)
    ds = mx.gen_shapes(64, seed=13)

    def step():
        rec = model.forward_collect(ds.images)
        ad.backward(mhex_loss(rec.head_logits(), ds.labels, "finetune"))

    peak = peak_mb(step)
    assert peak < 100, peak


def test_training_step_on_two_workers_peaks_below_70_mb(monkeypatch):
    """The batch-64 step above, spread over two workers, keeps no batch of
    per-sample kernel gradients: only the second range's until the join.
    Its tracemalloc peak is under 70 MB (66.9 MB; 73.7 MB when each conv
    kept the whole batch's)."""
    model = ResNetModel(ResNetConfig(), seed=3)
    ds = mx.gen_shapes(64, seed=13)

    def step():
        rec = model.forward_collect(ds.images)
        ad.backward(mhex_loss(rec.head_logits(), ds.labels, "finetune"))

    with conv_workers(monkeypatch, 2):
        peak = peak_mb(step)
    assert peak < 70, peak


def test_train_frees_step_tape_before_accuracy_pass(monkeypatch):
    """No tape node of the last step (activations and backward closures) is
    alive while ``train`` runs its per-epoch accuracy pass."""
    import mhexlab.models as models_mod
    ds = mx.gen_shapes(16, seed=11)
    m = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=4)
    params = {id(t) for t in m.params.values()}
    live = []
    accuracies = models_mod.head_accuracies

    def counting(model, dataset, **kw):
        live.append(sum(1 for o in gc.get_objects() if isinstance(o, (ad.Tensor, ad._Node))
                        and any(id(p) in params for p in o._parents)))
        return accuracies(model, dataset, **kw)

    monkeypatch.setattr(models_mod, "head_accuracies", counting)
    train(m, ds, epochs=2, lr=1e-3, batch_size=8)
    assert live == [0, 0]


def test_train_on_a_frozen_backbone_sweeps_only_the_side_chain(monkeypatch):
    """With ``requires_grad=False`` on every tensor outside the explainer,
    one ``train`` epoch leaves the backbone's bits alone and moves every
    ``mhex*`` tensor, and no node of a step's backbone tape (its input and
    parameters included) gets an adjoint: only side-chain closures run."""
    ds = mx.gen_shapes(16, seed=18)
    m = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=5)
    before = {name: t.data.copy() for name, t in m.params.items()}
    for name, t in m.params.items():
        t.requires_grad = name.startswith("mhex")
    tape, reached = [], []
    backbone, adjoints = m._backbone, ad._adjoints

    def taping(x):
        out = backbone(x)
        tape[:] = [n for t in out[0] + [out[2]] for n in ad._topo_order(t)]
        return out

    def sweeping(loss):
        adj, order = adjoints(loss)
        reached.append(sum(id(n) in adj for n in tape))
        return adj, order

    monkeypatch.setitem(vars(m), "_backbone", taping)
    monkeypatch.setattr(ad, "_adjoints", sweeping)
    train(m, ds, epochs=1, lr=1e-3, batch_size=8, eval_accuracy=False)
    assert reached == [0, 0] and len(tape) > 20
    for name, t in m.params.items():
        assert same_bits(t.data, before[name]) != name.startswith("mhex"), name


def test_batch1_forward_stays_on_calling_thread(monkeypatch, small_cnn, small_transformer):
    """A batch-1 forward of either host starts no conv2d pool and builds
    every column chunk on the calling thread; a batch-64 CNN forward spreads
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
        small_cnn.forward_collect(mx.gen_shapes(64, seed=5).images)
        assert ad._pool is not None and len(set(threads)) == 2


@pytest.mark.parametrize("n", [3, 4, 11, 20, 63, 64])
def test_forward_without_tape_spreads_in_chunks(monkeypatch, small_cnn, n):
    """Without a tape, a CNN batch of ``n`` images on two workers runs one
    backbone call per chunk of ``_batch_chunks``, on both threads, from 4 to
    63 images, as ``forward_collect`` does; a batch of 64 or more runs whole,
    its ``conv2d`` calls spreading their own chunks. The logits equal one
    whole-batch call on one worker, bit for bit. A taped forward is one
    call."""
    xs = mx.gen_shapes(n, seed=7).images
    with conv_workers(monkeypatch, 1), ad.no_grad():
        ref = small_cnn.forward_logits(xs).data
    calls, backbone = [], type(small_cnn)._backbone

    def recording(self, x):
        calls.append((threading.get_ident(), np.array(getattr(x, "data", x))))
        return backbone(self, x)

    monkeypatch.setattr(type(small_cnn), "_backbone", recording)
    with conv_workers(monkeypatch, 2):
        with ad.no_grad():
            got = small_cnn.forward_logits(xs).data
        chunks = [c for part in ad._batch_chunks(n) for c in part] if n < 64 else [(0, n)]
        assert np.array_equal(got, ref)
        spans = sorted(next((a, b) for a, b in chunks if np.array_equal(x, xs[a:b]))
                       for _, x in calls)
        assert spans == chunks
        assert len({t for t, _ in calls}) == (2 if 4 <= n < 64 else 1)
        calls.clear()
        small_cnn.forward_logits(xs)
        assert len(calls) == 1 and np.array_equal(calls[0][1], xs)


@pytest.mark.parametrize("n", [3, 4, 9, 63, 64])
def test_forward_collect_without_tape_spreads_below_64(monkeypatch, small_cnn, n):
    """Without a tape, a CNN ``forward_collect`` of 4 to 63 images on two
    workers runs one backbone call per chunk of ``_batch_chunks`` and stacks
    only the site activations; every head and map input equals one
    whole-batch call on one worker, bit for bit. A batch of 64 or more
    (``head_accuracies``') runs whole, its ``conv2d`` calls spreading their
    own chunks, and so does a taped forward."""
    xs = mx.gen_shapes(n, seed=9).images
    with conv_workers(monkeypatch, 1), ad.no_grad():
        ref = small_cnn.forward_collect(xs)
    calls = count_calls(type(small_cnn), "_backbone", monkeypatch)
    with conv_workers(monkeypatch, 2):
        with ad.no_grad():
            rec = small_cnn.forward_collect(xs)
        chunks = [c for part in ad._batch_chunks(n) for c in part]
        assert len(calls) == (len(chunks) if n < 64 else 1)
        assert (len(calls) > 1) == (4 <= n < 64)
        calls.clear()
        taped = small_cnn.forward_collect(xs[:4])
        assert len(calls) == 1 and taped.final_logits._node is not None
    pairs = [(rec.final_feats, ref.final_feats)] + list(zip(rec.head_logits(), ref.head_logits()))
    pairs += [(o.relu_features, r.relu_features) for o, r in zip(rec.site_outputs, ref.site_outputs)]
    assert all(same_bits(a.data, b.data) for a, b in pairs)


def test_threaded_forward_spread_repeats_bit_for_bit(monkeypatch, small_cnn):
    """Ten spread predictions of 23 images on three workers, with the
    interpreter switching threads as often as it can, give the bytes of one
    call on one worker; the calling thread's taping is untouched."""
    xs = mx.gen_shapes(23, seed=8).images
    with conv_workers(monkeypatch, 1):
        want = small_cnn.predict_proba(xs).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with conv_workers(monkeypatch, 3):
            assert [len(part) for part in ad._batch_chunks(23)] == [2, 2, 2]
            for _ in range(10):
                assert small_cnn.predict_proba(xs).tobytes() == want
                assert small_cnn.forward_logits(xs[:2])._node is not None
    finally:
        sys.setswitchinterval(interval)


def test_train_checkpoint_same_bytes_for_any_worker_count(monkeypatch, tmp_path):
    """``train`` on 64 shapes images writes the same checkpoint bytes with
    conv2d on one worker and on two."""
    ds = mx.gen_shapes(64, seed=0)
    blobs = []
    for workers in (1, 2):
        with conv_workers(monkeypatch, workers):
            m = ResNetModel(ResNetConfig(), seed=0)
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


@pytest.mark.parametrize("fmt, cut, what", [
    ("v3", 10, "version"), ("v2", 9, "version"), ("v2", 11, "version"),
    ("v1", 14, "config length"), ("v1", 60, "config"), ("v1", -1, "data for mhex3.proj_carry"),
])
def test_checkpoint_truncated_field(tmp_path, small_cnn, fmt, cut, what):
    """A file cut inside its version field, or a format-v1 file (which has
    no checksum to fail first) cut inside a field, names the field."""
    p = tmp_path / "m.ckpt"
    save_checkpoint(small_cnn, p)
    data = {"v3": bytes, "v2": as_format_v2, "v1": as_format_v1}[fmt](p.read_bytes())
    p.write_bytes(data[:cut])
    with pytest.raises(CheckpointFormatError, match=f"truncated checkpoint while reading {what}$"):
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
    off = magic_len + 4 + 4 + cfg_len + 8 + 4   # + seed + tensor count
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
    "fails_validate": lambda c: c.replace(b"n_class=4", b"n_class=1"),
    # only the ends of the config text are stripped, not each line
    "blank_line": lambda c: c.replace(b"\nn_class=", b"\n\nn_class="),
    "leading_space": lambda c: c.replace(b"\nn_class=", b"\n n_class="),
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


def test_checkpoint_non_utf8_tensor_name(tmp_path, small_transformer):
    p = tmp_path / "t.ckpt"
    save_checkpoint(small_transformer, p)
    # the first tensor name; the config text before it holds no "embed"
    p.write_bytes(reseal(p.read_bytes().replace(b"embed", b"\xffmbed", 1)))
    with pytest.raises(CheckpointFormatError, match="UTF-8"):
        load_checkpoint(p)


@pytest.mark.parametrize("sites", [(1, 3), (5,)])
def test_checkpoint_roundtrip_explicit_sites(tmp_path, sites):
    """A CNN with explicit site indices loads with the same sites."""
    model = ResNetModel(ResNetConfig(mhex_sites=sites), seed=5)
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    twin = load_checkpoint(p)
    assert twin.cfg == model.cfg and twin.sites == list(sites)
    for name, t in model.params.items():
        assert np.array_equal(t.data, twin.params[name].data), name


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
    """Bit count of a v3 file's magic, version, config, seed and shape
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
    ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=5),
    TransformerModel(TransformerConfig(d_model=8, n_heads=2, n_layers=2), seed=5),
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


@pytest.mark.parametrize("host", ["resnet", "transformer"])
def test_checkpoint_roundtrip_keeps_a_seed_above_32_bits(tmp_path, host):
    """A host built with seed 2**40 + 5 reloads with that seed, not with its
    low 32 bits (5), and with equal parameters."""
    seed = 2 ** 40 + 5
    model = (ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=seed)
             if host == "resnet" else
             TransformerModel(TransformerConfig(d_model=8, n_heads=2, n_layers=2), seed=seed))
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    twin = load_checkpoint(p)
    assert twin.seed == seed
    for name, t in model.params.items():
        assert np.array_equal(t.data, twin.params[name].data), name


@pytest.mark.parametrize("host", ["small_cnn", "small_transformer"])
def test_checkpoint_format_v2_still_loads(tmp_path, request, host):
    """A file in the format-v2 layout (a 4-byte seed) loads to the same
    config, seed and parameters, and its checksum is still checked."""
    model = request.getfixturevalue(host)
    p = tmp_path / "m.ckpt"
    save_checkpoint(model, p)
    v2 = as_format_v2(p.read_bytes())
    assert v2[8:12] == b"\x02\x00\x00\x00"
    p.write_bytes(v2)
    twin = load_checkpoint(p)
    assert twin.cfg == model.cfg and twin.seed == model.seed
    for name, t in model.params.items():
        assert np.array_equal(t.data, twin.params[name].data), name
    p.write_bytes(v2[:-1] + bytes([v2[-1] ^ 1]))
    with pytest.raises(CheckpointFormatError, match="checksum"):
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
        m = ResNetModel(ResNetConfig(stage_channels=(4, 8), blocks_per_stage=1), seed=5)
        return m, [EpochLog(0, 1.5, [0.25, 0.5])]

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
