import csv
import math
from pathlib import Path

import numpy as np
import pytest

from mhexlab import autodiff as ad, cli, metrics, saliency
from mhexlab.models import (COLLAB_ROWS, EVAL_BATCH_SIZE, ResNetModel, TransformerConfig,
                            TransformerModel, batches, load_checkpoint, save_checkpoint)

from helpers import (checkpoint_with_config, checkpoint_with_value, conv_workers, count_calls,
                     rows_per_call)


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def token_ckpt(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_train")
    rc = cli.main(["train", "--dataset", "tokens", "--n-samples", "64",
                   "--epochs", "1", "--out", str(out)])
    assert rc == 0
    return out / "checkpoint.ckpt", out


@pytest.fixture(scope="module")
def shape_ckpt(tmp_path_factory, small_cnn):
    out = tmp_path_factory.mktemp("cli_shape")
    path = out / "checkpoint.ckpt"
    save_checkpoint(small_cnn, path)
    return path


def test_train_artifacts(token_ckpt):
    ckpt, out = token_ckpt
    assert ckpt.exists()
    assert (out / "config.txt").exists()
    rows = _rows(out / "trainlog.csv")
    assert rows[0] == ["epoch", "loss", "head_accuracies"]
    assert len(rows) == 2


def test_train_shapes(tmp_path):
    rc = cli.main(["train", "--dataset", "shapes", "--n-samples", "16", "--epochs", "1",
                   "--out", str(tmp_path)])
    assert rc == 0
    assert load_checkpoint(tmp_path / "checkpoint.ckpt").kind == "resnet"
    rows = _rows(tmp_path / "trainlog.csv")
    assert len(rows) == 2
    assert len(rows[1][2].split()) == 5      # 4 explainer heads and the final head


def test_config_echo_reusable(token_ckpt, tmp_path):
    _, out = token_ckpt
    text = (out / "config.txt").read_text()
    kv = dict(line.split("=", 1) for line in text.strip().splitlines())
    assert kv["command"] == "train"
    assert kv["dataset"] == "tokens"
    assert kv["epochs"] == "1"
    rc = cli.main(["train", "--config", str(out / "config.txt"),
                   "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "checkpoint.ckpt").read_bytes() == \
        (out / "checkpoint.ckpt").read_bytes()


def test_explain_tokens(token_ckpt, tmp_path):
    ckpt, _ = token_ckpt
    rc = cli.main(["explain", "--dataset", "tokens", "--n-samples", "64",
                   "--checkpoint", str(ckpt), "--samples", "0,3",
                   "--out", str(tmp_path)])
    assert rc == 0
    rows = _rows(tmp_path / "manifest.csv")
    assert rows[0] == ["sample", "method", "artifact"]
    assert len(rows) == 5       # 2 samples x (csv + html)
    for row in rows[1:]:
        assert (tmp_path / row[2]).exists()


def test_explain_without_samples_takes_the_first_eight(token_ckpt, tmp_path):
    ckpt, _ = token_ckpt
    rc = cli.main(["explain", "--dataset", "tokens", "--n-samples", "12",
                   "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    assert rc == 0
    rows = _rows(tmp_path / "manifest.csv")
    assert [row[0] for row in rows[1:]] == [str(i) for i in range(8) for _ in range(2)]


def test_explain_shapes_with_gradcam(shape_ckpt, tmp_path):
    rc = cli.main(["explain", "--dataset", "shapes", "--n-samples", "8",
                   "--checkpoint", str(shape_ckpt), "--samples", "0",
                   "--grad-cam", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "sample0000_mhex.pgm").exists()
    assert (tmp_path / "sample0000_mhex_overlay.ppm").exists()
    assert (tmp_path / "sample0000_gradcam.pgm").exists()


def test_explain_gradcam_one_backbone_per_stack_chunk(shape_ckpt, tmp_path, monkeypatch):
    """The MHEX and Grad-CAM maps of each stack, a piece of ``batches(n,
    COLLAB_ROWS)``, come from one tape-free ``forward_collect``, whose
    backbone runs once per chunk of ``_batch_chunks``: on two CPUs 10 images
    are two stacks of 5, each in chunks of 2 and 3. Nothing else runs a
    forward."""
    collects = rows_per_call(ResNetModel, "forward_collect", monkeypatch)
    backbones = rows_per_call(ResNetModel, "_backbone", monkeypatch)
    with conv_workers(monkeypatch, 2):
        rc = cli.main(["explain", "--dataset", "shapes", "--n-samples", "12",
                       "--checkpoint", str(shape_ckpt), "--samples", "0,2,5,1,3,4,6,7,8,11",
                       "--grad-cam", "--out", str(tmp_path)])
        assert ad._batch_chunks(5) == [[(0, 2)], [(2, 5)]]
    assert rc == 0
    assert len(_rows(tmp_path / "manifest.csv")) == 1 + 10 * 3
    assert collects == [hi - lo for lo, hi in batches(10, COLLAB_ROWS)] == [5, 5]
    assert sorted(backbones) == [2, 2, 3, 3]


def test_evaluate_shapes_shares_curve_endpoints(shape_ckpt, tmp_path, monkeypatch):
    """The images' maps and p_orig come from one ``forward_collect`` per
    stack, then one prediction per image scores its masked copies. Each
    curve image's two endpoints, the image and its mean fill, are one
    2-row prediction for every method; each method's 18 inner steps of
    both curves are one more. No prediction has fewer than 2 rows. On two
    CPUs the 36 inner rows spread as eight chunks, one backbone pass each."""
    collects = rows_per_call(ResNetModel, "forward_collect", monkeypatch)
    backbones = count_calls(ResNetModel, "_backbone", monkeypatch)
    predicts = rows_per_call(ResNetModel, "predict_proba", monkeypatch)
    n, curve_samples, methods, steps = 5, 3, 3, 20
    with conv_workers(monkeypatch, 2):
        rc = cli.main(["evaluate", "--dataset", "shapes", "--n-samples", str(n),
                       "--curve-samples", str(curve_samples), "--steps", str(steps),
                       "--grad-cam", "--oracle-explainer",
                       "--checkpoint", str(shape_ckpt), "--out", str(tmp_path)])
        assert ad._pool is not None
        chunks = {rows: len([c for part in ad._batch_chunks(rows) for c in part])
                  for rows in (n, methods, 2, 2 * (steps - 2))}
    assert rc == 0
    assert chunks == {n: 2, methods: 1, 2: 1, 2 * (steps - 2): 8}
    assert len(_rows(tmp_path / "summary.csv")) == 1 + methods
    assert collects == [n]
    assert predicts == [methods] * n + ([2] + [2 * (steps - 2)] * methods) * curve_samples
    assert len(backbones) == 2 + n + curve_samples * (1 + 8 * methods)


def _explain_argv(samples):
    return ["explain", "--dataset", "shapes", "--n-samples", "8", "--samples", samples]


def _replay_with_removed_key(ckpt, tmp_path, line, argv, names):
    """Run a command, append a key of a removed flag to its config.txt and
    replay it; the unknown key is skipped and the artifacts are identical."""
    first, again = tmp_path / "first", tmp_path / "again"
    rc = cli.main(argv + ["--checkpoint", str(ckpt), "--out", str(first)])
    assert rc == 0
    cfg = first / "config.txt"
    key = line.split("=")[0]
    assert f"{key}=" not in cfg.read_text()
    cfg.write_text(cfg.read_text() + line + "\n")
    rc = cli.main([argv[0], "--config", str(cfg), "--checkpoint", str(ckpt),
                   "--out", str(again)])
    assert rc == 0
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_config_with_removed_class_id_replays(shape_ckpt, tmp_path):
    """Configs written while ``explain`` had a --class-id flag hold
    class_id=None."""
    _replay_with_removed_key(shape_ckpt, tmp_path, "class_id=None", _explain_argv("1"),
                             ["manifest.csv", "sample0001_mhex.pgm"])


def test_config_with_removed_workers_replays(shape_ckpt, tmp_path):
    """Configs written while every command had a --workers flag hold
    workers=N; a replay with workers=2 runs serially."""
    _replay_with_removed_key(shape_ckpt, tmp_path, "workers=2", _explain_argv("0,1,2"),
                             ["manifest.csv"] + [f"sample000{i}_mhex.pgm" for i in range(3)])
    assert "workers" not in (tmp_path / "again" / "config.txt").read_text()


def test_config_with_removed_force_area_replays(shape_ckpt, tmp_path):
    """Configs written while ``evaluate`` had a --force-area flag may hold
    force_area=0.3; the replay keeps every record's own area."""
    _replay_with_removed_key(shape_ckpt, tmp_path, "force_area=0.3",
                             ["evaluate", "--n-samples", "4", "--curve-samples", "2",
                              "--steps", "4"],
                             ["drop_mhex.csv", "summary.csv", "deletion_mhex.csv"])


def test_config_replay_supplies_checkpoint(shape_ckpt, tmp_path):
    """A replayed config.txt holds checkpoint=...; no --checkpoint is needed."""
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main(_explain_argv("0,2") + ["--checkpoint", str(shape_ckpt),
                                            "--out", str(first)]) == 0
    assert cli.main(["explain", "--config", str(first / "config.txt"),
                     "--out", str(again)]) == 0
    for name in ["manifest.csv", "sample0000_mhex.pgm", "sample0002_mhex.pgm"]:
        assert (again / name).read_bytes() == (first / name).read_bytes()
    assert (again / "config.txt").read_text().replace("again", "first") == \
        (first / "config.txt").read_text()


@pytest.mark.parametrize("command", ["explain", "evaluate", "analyze"])
def test_missing_checkpoint_exits_2(tmp_path, capsys, command):
    """Neither --checkpoint nor a config holding it: a usage error."""
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("config", ["missing", "binary", "unknown_dataset", "not_a_config",
                                    "other_command"])
def test_bad_config_file_exits_1(token_ckpt, shape_ckpt, tmp_path, capsys, config):
    """--config naming a missing file, a non-text one (a checkpoint), one
    whose value is not among its flag's choices, a text file that is no
    config.txt (it has no command= line) or another command's config.txt
    prints one error line naming the file, and leaves no out directory."""
    path = {"missing": tmp_path / "nonexistent.txt", "binary": shape_ckpt,
            "unknown_dataset": tmp_path / "config.txt",
            "not_a_config": Path(__file__).resolve().parent.parent / "README.md",
            "other_command": token_ckpt[1] / "config.txt"}[config]
    if config == "unknown_dataset":
        path.write_text("command=explain\ndataset=images\n")
    out = tmp_path / "out"
    rc = cli.main(["explain", "--config", str(path), "--checkpoint", str(shape_ckpt),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and err.count("\n") == 1
    assert not out.exists()


REPLAYS = {
    "lr": (["train", "--dataset", "tokens", "--n-samples", "32", "--epochs", "1",
            "--lr", "0.002"], ["checkpoint.ckpt", "trainlog.csv"]),
    "ss": (["explain", "--n-samples", "8", "--samples", "0,2", "--ss", "0.5",
            "--grad-cam"], ["manifest.csv", "sample0000_mhex.pgm",
                            "sample0002_mhex.pgm", "sample0002_gradcam.pgm"]),
    "evaluate_ss": (["evaluate", "--n-samples", "4", "--curve-samples", "2",
                     "--steps", "4", "--ss", "0.5"],
                    ["drop_mhex.csv", "summary.csv", "deletion_mhex.csv"]),
}


@pytest.mark.parametrize("case", sorted(REPLAYS))
def test_config_replay_converts_types(shape_ckpt, tmp_path, case):
    """A replayed config.txt holds every value as text, including flags whose
    default is None and store_true flags; each is converted by the flag's
    own type, so the replay writes byte-identical artifacts."""
    argv, names = REPLAYS[case]
    ckpt = [] if argv[0] == "train" else ["--checkpoint", str(shape_ckpt)]
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main(argv + ckpt + ["--out", str(first)]) == 0
    assert cli.main([argv[0], "--config", str(first / "config.txt")] + ckpt
                    + ["--out", str(again)]) == 0
    for name in names + ["config.txt"]:
        a, b = (again / name).read_bytes(), (first / name).read_bytes()
        assert a == b if name != "config.txt" else a.replace(b"again", b"first") == b


def test_explain_bad_checkpoint_config_exits_1(small_transformer, tmp_path, capsys):
    path = tmp_path / "t.ckpt"
    save_checkpoint(small_transformer, path)
    path.write_bytes(checkpoint_with_config(
        path.read_bytes(), lambda c: c.replace(b"kind=transformer", b"kind=mlp")))
    rc = cli.main(["explain", "--dataset", "tokens", "--n-samples", "8",
                   "--checkpoint", str(path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["explain", "evaluate"])
def test_non_finite_checkpoint_exits_1(small_transformer, tmp_path, capsys, command):
    """A checksum-valid checkpoint with a NaN parameter is refused before any
    score is written; it used to give NaN scores and a plausible mean drop."""
    path = tmp_path / "t.ckpt"
    save_checkpoint(small_transformer, path)
    path.write_bytes(checkpoint_with_value(small_transformer, path.read_bytes(),
                                           "mhex0.w1", math.nan))
    out = tmp_path / "out"
    rc = cli.main([command, "--dataset", "tokens", "--n-samples", "8",
                   "--checkpoint", str(path), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: non-finite values in tensor mhex0.w1")
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "evaluate"])
@pytest.mark.parametrize("dataset", ["shapes", "tokens"])
def test_checkpoint_host_must_match_dataset(token_ckpt, shape_ckpt, tmp_path, capsys,
                                            command, dataset):
    """A checkpoint of the other host is refused by name, before the output
    directory is made."""
    ckpt, want, held = ((shape_ckpt, "transformer", "resnet") if dataset == "tokens"
                        else (token_ckpt[0], "resnet", "transformer"))
    out = tmp_path / "out"
    rc = cli.main([command, "--dataset", dataset, "--n-samples", "4",
                   "--checkpoint", str(ckpt), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --dataset {dataset} needs a {want} checkpoint")
    assert f"holds a {held} host" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["explain", "evaluate", "analyze"])
def test_missing_checkpoint_file_leaves_no_out_dir(tmp_path, capsys, command):
    """A checkpoint path that does not exist exits 1 before the output
    directory is made."""
    out = tmp_path / "out"
    rc = cli.main([command, "--n-samples", "4", "--checkpoint", str(tmp_path / "nonexistent"),
                   "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_evaluate_shapes(shape_ckpt, tmp_path):
    rc = cli.main(["evaluate", "--dataset", "shapes", "--n-samples", "6",
                   "--curve-samples", "2", "--steps", "5",
                   "--checkpoint", str(shape_ckpt), "--out", str(tmp_path)])
    assert rc == 0
    rows = _rows(tmp_path / "summary.csv")
    assert rows[0] == ["method", "avg_drop", "ead", "deletion_auc",
                       "insertion_auc", "localization"]
    assert rows[1][0] == "mhex"
    drops = _rows(tmp_path / "drop_mhex.csv")
    assert len(drops) == 8      # header + 6 samples + summary


def test_evaluate_tokens(token_ckpt, tmp_path):
    ckpt, _ = token_ckpt
    rc = cli.main(["evaluate", "--dataset", "tokens", "--n-samples", "6",
                   "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "token_drop.csv").exists()
    # configs hold grad_cam=False and oracle_explainer=False, which replay
    again = tmp_path / "again"
    assert cli.main(["evaluate", "--config", str(tmp_path / "config.txt"),
                     "--out", str(again)]) == 0
    assert (again / "token_drop.csv").read_bytes() == \
        (tmp_path / "token_drop.csv").read_bytes()


def test_evaluate_tokens_forwards_per_chunk(token_ckpt, tmp_path, monkeypatch):
    """One ``explain_tokens`` and one ``token_perturb_drop`` call, each with
    one forward per piece of ``batches(130, EVAL_BATCH_SIZE)``, instead of
    three per sequence."""
    ckpt, _ = token_ckpt
    calls = count_calls(TransformerModel, "_backbone", monkeypatch)
    explains = count_calls(saliency, "explain_tokens", monkeypatch)
    drops = count_calls(metrics, "token_perturb_drop", monkeypatch)
    rc = cli.main(["evaluate", "--dataset", "tokens", "--n-samples", "130",
                   "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    assert rc == 0
    assert len(_rows(tmp_path / "token_drop.csv")) == 132    # header + 130 + summary
    assert len(explains) == len(drops) == 1
    assert len(calls) == 2 * math.ceil(130 / EVAL_BATCH_SIZE)


def test_token_chunk_boundary_changes_no_output(token_ckpt, tmp_path, monkeypatch):
    """130 sequences in pieces of 65 write the same files as one piece of
    130."""
    ckpt, _ = token_ckpt
    samples = ",".join(str(i) for i in range(130))

    def run(out):
        assert cli.main(["evaluate", "--dataset", "tokens", "--n-samples", "130",
                         "--checkpoint", str(ckpt), "--out", str(out / "eval")]) == 0
        assert cli.main(["explain", "--dataset", "tokens", "--n-samples", "130",
                         "--samples", samples, "--checkpoint", str(ckpt),
                         "--out", str(out / "explain")]) == 0
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*.*")
                if p.name != "config.txt"}

    chunked = run(tmp_path / "chunked")
    for module in (saliency, metrics):
        monkeypatch.setattr(module, "EVAL_BATCH_SIZE", 130)
    whole = run(tmp_path / "whole")
    assert len(chunked) == 1 + 1 + 2 * 130      # token_drop, manifest, csv + html
    assert chunked == whole


@pytest.mark.parametrize("flag", ["--grad-cam", "--oracle-explainer"])
def test_evaluate_tokens_rejects_image_flags(token_ckpt, tmp_path, capsys, flag):
    """Both flags name image explainers; the token path would ignore them.
    ``explain`` takes --grad-cam only, and rejects it the same way."""
    ckpt, _ = token_ckpt
    for command in ("evaluate", "explain") if flag == "--grad-cam" else ("evaluate",):
        out = tmp_path / command
        rc = cli.main([command, "--dataset", "tokens", "--n-samples", "6", flag,
                       "--checkpoint", str(ckpt), "--out", str(out)])
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_analyze(shape_ckpt, tmp_path):
    rc = cli.main(["analyze", "--dataset", "shapes", "--n-samples", "5",
                   "--block-samples", "1", "--grid", "4",
                   "--entropy-n", "100000",
                   "--checkpoint", str(shape_ckpt), "--out", str(tmp_path)])
    assert rc == 0
    rows = _rows(tmp_path / "correlation.csv")
    assert rows[0] == ["pair", "site", "r", "t", "p", "n"]
    assert len(rows) == 8
    assert (tmp_path / "sample0000_blockwise.pgm").exists()
    assert (tmp_path / "entropy.txt").read_text().startswith(
        "entropy_drop_estimate=")


def test_analyze_tokens_exits_1(token_ckpt, tmp_path, capsys):
    """The collaboration analysis has no token path: an error message, not an
    AttributeError from inside it."""
    ckpt, _ = token_ckpt
    rc = cli.main(["analyze", "--dataset", "tokens", "--n-samples", "8",
                   "--checkpoint", str(ckpt), "--out", str(tmp_path)])
    assert rc == 1
    assert "error: the collaboration analysis supports only the CNN host" in \
        capsys.readouterr().err


def test_errors_exit_nonzero(tmp_path, capsys):
    rc = cli.main(["explain", "--dataset", "tokens",
                   "--checkpoint", str(tmp_path / "missing.ckpt"),
                   "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    rc = cli.main(["analyze", "--dataset", "shapes", "--n-samples", "5",
                   "--grid", "99", "--checkpoint", str(tmp_path / "missing.ckpt"),
                   "--out", str(tmp_path)])
    assert rc == 1


BAD_INPUTS = {
    "samples_not_int": ["explain", "--dataset", "tokens", "--samples", "1,a"],
    "batch_size_0": ["train", "--dataset", "tokens", "--batch-size", "0"],
    "seed_negative": ["train", "--dataset", "tokens", "--seed", "-1"],
    "seed_2_64": ["train", "--dataset", "tokens", "--seed", str(2 ** 64)],
    "lr_inf": ["train", "--dataset", "tokens", "--lr", "inf", "--epochs", "1"],
    "lr_nan": ["train", "--dataset", "tokens", "--lr", "nan", "--epochs", "1"],
    "lr_negative": ["train", "--dataset", "tokens", "--lr", "-1", "--epochs", "1"],
    "lr_0": ["train", "--dataset", "tokens", "--lr", "0", "--epochs", "1"],
    "epochs_negative": ["train", "--dataset", "tokens", "--epochs", "-1"],
    "curve_samples_0": ["evaluate", "--curve-samples", "0"],
    "steps_1": ["evaluate", "--steps", "1"],
    "grid_0": ["analyze", "--grid", "0"],
    "grid_0_without_maps": ["analyze", "--grid", "0", "--block-samples", "0"],
    "block_samples_negative": ["analyze", "--block-samples", "-1"],
    "grid_finer_than_site_0": ["analyze", "--grid", "99"],
    "entropy_n_below_1e5": ["analyze", "--entropy-n", "99999"],
    "top_frac_2": ["evaluate", "--dataset", "tokens", "--top-frac", "2"],
    "top_frac_negative": ["evaluate", "--dataset", "tokens", "--top-frac", "-1"],
    "layers_0": ["explain", "--dataset", "tokens", "--layers", "0"],
    "layers_above_sites": ["explain", "--dataset", "tokens", "--layers", "99"],
    "layers_negative": ["evaluate", "--dataset", "tokens", "--layers", "-1"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_and_writes_nothing(token_ckpt, shape_ckpt, tmp_path,
                                              capsys, case):
    """An invalid value prints an error line instead of a traceback, and
    leaves no artifact behind."""
    argv = BAD_INPUTS[case]
    if argv[0] != "train":
        argv = argv + ["--checkpoint", str(token_ckpt[0] if "tokens" in argv else shape_ckpt)]
    out = tmp_path / "out"
    rc = cli.main(argv + ["--n-samples", "8", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_analyze_rejects_grid_0_before_any_work(shape_ckpt, tmp_path, capsys, monkeypatch):
    """``--grid 0`` is refused up front: with no map to draw it used to exit
    0 and record ``grid=0``, and with one it failed only after the
    one-million-sample entropy estimate."""
    from mhexlab import analysis
    calls = count_calls(analysis, "relu_entropy_drop", monkeypatch)
    for block_samples in ("0", "1"):
        out = tmp_path / block_samples
        rc = cli.main(["analyze", "--grid", "0", "--block-samples", block_samples,
                       "--n-samples", "8", "--checkpoint", str(shape_ckpt), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: --grid must be >= 1, got 0\n"
        assert not out.exists()
    assert calls == []


def test_zero_epochs_writes_the_initial_checkpoint(tmp_path):
    """``--epochs 0`` is valid: the checkpoint holds the seeded initial
    parameters and the training log only its header."""
    out = tmp_path / "out"
    rc = cli.main(["train", "--dataset", "tokens", "--n-samples", "8", "--epochs", "0",
                   "--out", str(out)])
    assert rc == 0
    model = load_checkpoint(out / "checkpoint.ckpt")
    init = TransformerModel(TransformerConfig(), seed=0)
    assert all(np.array_equal(model.params[k].data, t.data) for k, t in init.params.items())
    assert (out / "trainlog.csv").read_text().count("\n") == 1


def test_bad_sample_id(token_ckpt, tmp_path):
    ckpt, _ = token_ckpt
    rc = cli.main(["explain", "--dataset", "tokens", "--n-samples", "8",
                   "--checkpoint", str(ckpt), "--samples", "99",
                   "--out", str(tmp_path)])
    assert rc == 1
