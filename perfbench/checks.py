"""Correctness checks on what the `mhex` commands write, the exact
invariants of the library, and the comparison with recorded references.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# Reference tables are compared cell by cell: text cells exactly, numbers
# within |a - b| <= ATOL + RTOL * |b|. The CLI writes 4 to 6 significant
# digits, so RTOL sits above the last printed digit and below any change a
# different kernel, loss or sampling order would cause.
RTOL = 1e-4
ATOL = 1e-6
ENTROPY_RANGE = (0.3266, 0.3666)   # 0.5 * ln 2 = 0.34657 +/- 0.02


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _in(value, lo, hi):
    return math.isfinite(value) and lo <= value <= hi


def _out_of_range(path, rows, columns, lo, hi):
    bad = [f"{path.name}: {c}={r[c]} outside [{lo}, {hi}]"
           for r in rows for c in columns if not _in(float(r[c]), lo, hi)]
    return bad[:3]


def _netpbm_ok(path, magic, channels, shape):
    # the renderer writes "<magic>\n<w> <h>\n255\n" and then the pixels
    fields = path.read_bytes().split(b"\n", 3)
    if len(fields) < 4 or fields[0] != magic or fields[2] != b"255":
        return [f"{path.name}: not a binary {magic.decode()} image"]
    w, h = (int(v) for v in fields[1].split())
    if (h, w) != shape:
        return [f"{path.name}: {h}x{w} image, expected {shape[0]}x{shape[1]}"]
    if len(fields[3]) != w * h * channels:
        return [f"{path.name}: pixel data has {len(fields[3])} bytes, expected {w * h * channels}"]
    return []


def _check_train(out, cmd):
    if not (out / "checkpoint.ckpt").is_file():
        return ["train wrote no checkpoint"]
    rows = _rows(out / "trainlog.csv")
    epochs = int(cmd.argv[cmd.argv.index("--epochs") + 1])
    fails = [] if len(rows) == epochs else [f"trainlog.csv has {len(rows)} epochs, expected {epochs}"]
    for r in rows:
        if not _in(float(r["loss"]), 0.0, math.inf):
            fails.append(f"trainlog.csv: loss {r['loss']} is not finite and positive")
        accs = [float(a) for a in r["head_accuracies"].split()]
        if len(accs) != 5 or not all(_in(a, 0.0, 1.0) for a in accs):
            fails.append(f"trainlog.csv: head accuracies {accs} not 5 values in [0, 1]")
    return fails


def _check_explain(out, cmd):
    rows = _rows(out / "manifest.csv")
    per_sample = 2 if cmd.dataset == "tokens" else 3
    fails = [] if len(rows) == per_sample * cmd.samples else [
        f"manifest.csv lists {len(rows)} artifacts, expected {per_sample * cmd.samples}"]
    for r in rows:
        path = out / r["artifact"]
        if not path.is_file():
            fails.append(f"missing artifact {r['artifact']}")
        elif r["method"] == "mhex":
            fails += _netpbm_ok(path, b"P5", 1, (16, 16))
        elif r["method"] == "gradcam":
            fails += _netpbm_ok(path, b"P5", 1, (4, 4))
        elif r["method"] == "mhex_overlay":
            fails += _netpbm_ok(path, b"P6", 3, (32, 32))
        elif r["method"] == "mhex_csv":
            scores = [float(t["score"]) for t in _rows(path)]
            if not scores or not all(math.isfinite(s) for s in scores):
                fails.append(f"{path.name}: token scores missing or not finite")
    return fails[:5]


def _check_evaluate(out, cmd):
    if cmd.dataset == "tokens":
        path = out / "token_drop.csv"
        rows = _rows(path)
        per = [r for r in rows if not r["id"].startswith("summary")]
        fails = [] if len(per) == cmd.samples else [f"token_drop.csv has {len(per)} rows"]
        fails += _out_of_range(path, per, ("p_orig", "p_mask", "drop", "area", "f_area"), 0.0, 1.0)
        return fails
    path = out / "summary.csv"
    rows = _rows(path)
    methods = [r["method"] for r in rows]
    fails = [] if methods == ["mhex", "gradcam", "oracle"] else [f"summary.csv methods {methods}"]
    fails += _out_of_range(path, rows, ("avg_drop", "ead", "deletion_auc",
                                        "insertion_auc", "localization"), 0.0, 1.0)
    return fails


def _check_analyze(out, cmd):
    path = out / "correlation.csv"
    rows = _rows(path)
    fails = [] if len(rows) == 7 else [f"correlation.csv has {len(rows)} rows, expected 7"]
    fails += _out_of_range(path, rows, ("r",), -1.0, 1.0)
    fails += _out_of_range(path, rows, ("p",), 0.0, 1.0)
    text = (out / "entropy.txt").read_text().strip()
    dh = float(text.partition("=")[2])
    if not _in(dh, *ENTROPY_RANGE):
        fails.append(f"entropy estimate {dh} outside {ENTROPY_RANGE}")
    return fails + _netpbm_ok(out / "sample0000_blockwise.pgm", b"P5", 1, (7, 7))


_CHECKS = {"train": _check_train, "explain": _check_explain,
           "evaluate": _check_evaluate, "analyze": _check_analyze}


def check_command(cmd):
    """Range and shape checks on the files one command wrote."""
    try:
        return _CHECKS[cmd.name](Path(cmd.out), cmd)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{cmd.name} outputs unreadable: {exc!r}"]


def _cells(path):
    with open(path, newline="") as fh:
        return [[tok for cell in row for tok in cell.split()] for row in csv.reader(fh)]


def compare_reference(path, ref_path):
    """Cell-by-cell comparison of a CSV output with its recorded reference."""
    got, ref = _cells(path), _cells(ref_path)
    if [len(r) for r in got] != [len(r) for r in ref]:
        return [f"{path.name}: table shape differs from reference"]
    fails = []
    for i, (row, ref_row) in enumerate(zip(got, ref)):
        for a, b in zip(row, ref_row):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                ok = a == b
            else:
                ok = abs(fa - fb) <= ATOL + RTOL * abs(fb) or (math.isnan(fa) and math.isnan(fb))
            if not ok:
                fails.append(f"{path.name} row {i}: {a} != reference {b}")
    return fails[:3]


def invariants(ckpt, host, tmp_dir):
    """Exact properties of the model a pass trained or read:

    - stripping the explainer leaves the backbone logits bit-identical;
    - a checkpoint save then load reproduces the file and every parameter;
    - a grid-1 block-wise map equals the collaboration cosine (CNN host);
    - saliency maps are finite and in [0, 1]; token scores are finite.
    """
    from mhexlab import analysis, datasets, saliency
    from mhexlab.models import load_checkpoint, save_checkpoint, strip_mhex

    fails = []
    model = load_checkpoint(ckpt)
    copy = Path(tmp_dir) / "roundtrip.ckpt"
    save_checkpoint(model, copy)
    if copy.read_bytes() != Path(ckpt).read_bytes():
        fails.append("checkpoint save after load is not byte-identical")
    again = load_checkpoint(copy)
    copy.unlink()
    if not all(np.array_equal(t.data, again.params[k].data) for k, t in model.params.items()):
        fails.append("checkpoint round trip changed a parameter")

    if host == "resnet":
        data = datasets.gen_shapes(4, seed=0)
        xs = data.images
    else:
        data = datasets.gen_tokens(4, seed=0)
        xs = data.ids
    if not np.array_equal(model.forward_logits(xs).data,
                          strip_mhex(model).forward_logits(xs).data):
        fails.append("strip_mhex changed the backbone logits")

    for i in range(len(data)):
        label = int(data.labels[i])
        if host == "resnet":
            grids = [saliency.explain_image(model, xs[i], label).grid,
                     saliency.gradcam_baseline(model, xs[i], label).grid]
            if not all(np.all(np.isfinite(g)) and g.min() >= 0.0 and g.max() <= 1.0
                       for g in grids):
                fails.append(f"sample {i}: a saliency map is not finite in [0, 1]")
        elif not np.all(np.isfinite(saliency.explain_tokens(model, xs[i], label).scores)):
            fails.append(f"sample {i}: token saliency is not finite")

    if host == "resnet":
        label = int(data.labels[0])
        grid1 = analysis.blockwise_quality(model, xs[0], label, grid=1)[0, 0]
        cosine = analysis.collaboration_cosine(model, xs[0], label, 0)
        if grid1 != cosine:
            fails.append(f"grid-1 block-wise map {grid1!r} != cosine {cosine!r}")
    return fails
