"""Command-line entry point: reproducible train / explain / evaluate /
analyze runs over the synthetic datasets.

``main`` writes each command's resolved configuration to ``config.txt`` once
it returns; a ``--config`` rerun of the same command from it is deterministic.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis, formats, metrics, saliency
from .blocks import LOSS_MODES
from .datasets import gen_shapes, gen_tokens, localization_score
from .errors import ConfigurationError, MhexError
from .models import (ResNetModel, TransformerModel, load_checkpoint,
                     save_checkpoint, train)

# --dataset: its generator, the host class it trains and the default --lr
_DATASETS = {"shapes": (gen_shapes, ResNetModel, 3e-3),
             "tokens": (gen_tokens, TransformerModel, 2e-3)}


def _made(out):
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_config(args):
    (Path(args.out) / "config.txt").write_text(formats.kv_text(
        (key, val) for key, val in sorted(vars(args).items()) if key not in ("func", "config")))


def _command_parser(parser, command):
    # argparse has no public accessor for a command's sub-parser
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def _load_config_defaults(parser, args):
    """--config FILE makes its key=value pairs the command's defaults, so
    argparse converts them with each flag's type and flags given on the
    command line win. The file must be a ``config.txt`` of the same command.
    Keys no flag reads (removed flags) and ``None`` values are skipped."""
    try:
        text = Path(args.config).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read --config {args.config}: {exc}") from None
    kv = formats.parse_kv(text)
    if kv.get("command") != args.command:
        raise ConfigurationError(f"--config {args.config} is not a config.txt of {args.command}")
    choices = {a.dest: a.choices for a in _command_parser(parser, args.command)._actions if a.choices}
    defaults = {}
    for key, val in kv.items():
        key = key.replace("-", "_")
        if key in ("command", "config", "func") or not hasattr(args, key) or val == "None":
            continue
        if val not in choices.get(key, (val,)):
            raise ConfigurationError(f"{args.config}: {key}={val} is not one of {choices[key]}")
        # store_true flags: a string default would stay a (truthy) string
        defaults[key] = val == "True" if isinstance(getattr(args, key), bool) else val
    _command_parser(parser, args.command).set_defaults(**defaults)


def _load_host(args):
    """The checkpoint's model, refused unless it is the host ``--dataset`` needs."""
    model = load_checkpoint(args.checkpoint)
    want = _DATASETS[args.dataset][1].kind
    if model.kind != want:
        raise ConfigurationError(f"--dataset {args.dataset} needs a {want} checkpoint, "
                                 f"but {args.checkpoint} holds a {model.kind} host")
    return model


def _make_dataset(args):
    return _DATASETS[args.dataset][0](args.n_samples, seed=args.seed)


def _wf_config(args):
    return saliency.WeightFilterConfig(
        neg_mix=args.alpha,
        ss_threshold=args.ss,
        layer_decay=args.decay,
        token_layers=args.layers)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args, out):
    _, host, lr = _DATASETS[args.dataset]
    model = host(host.config_class(), seed=args.seed)
    log = train(model, _make_dataset(args), mode=args.mode, epochs=args.epochs,
                lr=lr if args.lr is None else args.lr, seed=args.seed,
                batch_size=args.batch_size)
    save_checkpoint(model, _made(out) / "checkpoint.ckpt")
    formats.write_csv(out / "trainlog.csv", ["epoch", "loss", "head_accuracies"],
                      ([e.epoch, f"{e.loss:.6g}", " ".join(f"{a:.4f}" for a in e.head_accuracy)]
                       for e in log))
    if log:
        print(f"trained {args.epochs} epochs; final loss {log[-1].loss:.4f}; "
              f"head accuracies {log[-1].head_accuracy}")
    print(f"checkpoint: {out / 'checkpoint.ckpt'}")


def _sample_ids(args, dataset):
    if args.samples:
        try:
            ids = [int(s) for s in args.samples.split(",")]
        except ValueError:
            raise ConfigurationError(f"--samples takes integer ids, got {args.samples!r}") from None
        for i in ids:
            if not 0 <= i < len(dataset):
                raise MhexError(f"unknown sample id {i} (dataset has {len(dataset)})")
        return ids
    return list(range(min(8, len(dataset))))


def cmd_explain(args, out):
    if args.dataset == "tokens" and args.grad_cam:
        raise ConfigurationError("--grad-cam needs --dataset shapes")
    wf = _wf_config(args)
    model = _load_host(args)
    dataset = _make_dataset(args)
    ids = _sample_ids(args, dataset)
    manifest = []
    if args.dataset == "tokens":
        sals = saliency.explain_tokens(model, dataset.ids[ids], dataset.labels[ids], wf)
        for i, sal in zip(ids, sals):
            tokens = [f"tok{t}" for t in dataset.ids[i]]
            p = _made(out) / f"sample{i:04d}_tokens.csv"
            saliency.export_token_csv(tokens, sal, p)
            manifest.append((i, "mhex_csv", p.name))
            p = out / f"sample{i:04d}_tokens.html"
            saliency.export_token_html(tokens, sal, p)
            manifest.append((i, "mhex_html", p.name))
    else:
        maps = saliency.image_maps(model, dataset.images[ids], dataset.labels[ids], wf,
                                   grad_cam=args.grad_cam)
        for i, (smap, gmap, _) in zip(ids, maps):
            image = dataset.images[i]
            p = _made(out) / f"sample{i:04d}_mhex.pgm"
            saliency.render_heatmap(smap, p)
            manifest.append((i, "mhex", p.name))
            p = out / f"sample{i:04d}_mhex_overlay.ppm"
            saliency.render_heatmap(smap, p, overlay=image)
            manifest.append((i, "mhex_overlay", p.name))
            if gmap is not None:
                p = out / f"sample{i:04d}_gradcam.pgm"
                saliency.render_heatmap(gmap, p)
                manifest.append((i, "gradcam", p.name))
    formats.write_csv(out / "manifest.csv", ["sample", "method", "artifact"], manifest)
    print(f"wrote {len(manifest)} artifacts to {out}")


def cmd_evaluate(args, out):
    if args.dataset == "tokens" and (args.grad_cam or args.oracle_explainer):
        raise ConfigurationError("--grad-cam and --oracle-explainer need --dataset shapes")
    if args.dataset == "shapes" and args.curve_samples < 1:
        raise ConfigurationError(f"--curve-samples must be >= 1, got {args.curve_samples}")
    if args.dataset == "shapes" and args.steps < 2:
        raise ConfigurationError(f"--steps must be >= 2, got {args.steps}")
    wf = _wf_config(args)
    model = _load_host(args)
    dataset = _make_dataset(args)
    n = min(args.n_samples, len(dataset))

    if args.dataset == "tokens":
        ids, labels = dataset.ids[:n], dataset.labels[:n]
        sals = saliency.explain_tokens(model, ids, labels, wf)
        records = metrics.token_perturb_drop(model.predict_proba, ids, sals, labels,
                                             top_frac=args.top_frac)
        metrics.write_drop_csv(records, _made(out) / "token_drop.csv", method="mhex")
        print(f"token mean drop: {np.mean([r.drop for r in records]):.4f}")
        return

    methods = [m for m, on in (("mhex", True), ("gradcam", args.grad_cam),
                               ("oracle", args.oracle_explainer)) if on]
    # per method, each image's full-size map and drop record: the batched
    # maps give an image's p_orig, one prediction scores its masked copies
    cams, recs = {m: [] for m in methods}, {m: [] for m in methods}
    maps = saliency.image_maps(model, dataset.images[:n], dataset.labels[:n], wf,
                               grad_cam=args.grad_cam)
    for i, (smap, gmap, probs) in enumerate(maps):
        label = int(dataset.labels[i])
        image = dataset.images[i]
        by_method = {"mhex": smap, "gradcam": gmap}
        row = [dataset.truth_masks[i].astype(np.float64) if m == "oracle"
               else saliency.resize_map(by_method[m].grid, image.shape[-2:]) for m in methods]
        drops = metrics.drop_records(model.predict_proba, image, label, row,
                                     float(probs[label]), sample_id=i)
        for m, cam, rec in zip(methods, row, drops):
            cams[m].append(cam)
            recs[m].append(rec)
    # per curve image, each method's (deletion, insertion) pair
    curves = [metrics.image_curves(model.predict_proba, dataset.images[i],
                                   [cams[m][i] for m in methods], int(dataset.labels[i]),
                                   steps=args.steps)
              for i in range(min(n, args.curve_samples))]
    summary = []
    for j, method in enumerate(methods):
        metrics.write_drop_csv(recs[method], _made(out) / f"drop_{method}.csv", method=method)
        aucs = []
        for kind, name in enumerate(("deletion", "insertion")):
            per_image = [pairs[j][kind] for pairs in curves]
            mean = metrics.Curve(per_image[0].fractions,
                                 np.mean([c.confidences for c in per_image], axis=0))
            metrics.write_curve_csv(mean, out / f"{name}_{method}.csv")
            aucs.append(metrics.auc(mean))
        loc = [localization_score(cam, dataset.truth_masks[i])
               for i, cam in enumerate(cams[method])]
        summary.append((method, metrics.avg_drop(recs[method]), metrics.ead(recs[method]),
                        *aucs, float(np.mean(loc))))

    formats.write_csv(out / "summary.csv", ["method", "avg_drop", "ead", "deletion_auc",
                                            "insertion_auc", "localization"],
                      ([row[0]] + [f"{v:.6g}" for v in row[1:]] for row in summary))
    for row in summary:
        print(f"{row[0]}: avg_drop={row[1]:.4f} ead={row[2]:.4f} "
              f"del_auc={row[3]:.4f} ins_auc={row[4]:.4f} loc={row[5]:.4f}")


def cmd_analyze(args, out):
    if args.grid < 1:
        raise ConfigurationError(f"--grid must be >= 1, got {args.grid}")
    if args.block_samples < 0:
        raise ConfigurationError(f"--block-samples must be >= 0, got {args.block_samples}")
    model = load_checkpoint(args.checkpoint)
    dataset = _make_dataset(args)
    analysis.check_collab_inputs(model, dataset)
    n = min(args.n_samples, len(dataset))
    # the parts that check --entropy-n and --grid against the site resolution
    # run before the collaboration pass, and no file is written until every
    # part has run
    dh = analysis.relu_entropy_drop(args.entropy_n, seed=args.seed)
    maps = [analysis.blockwise_quality(model, dataset.images[i], int(dataset.labels[i]),
                                       grid=args.grid)
            for i in range(min(n, args.block_samples))]
    rows, records = analysis.correlation_triangle(model, dataset, n_samples=n)
    analysis.write_correlation_csv(rows, _made(out) / "correlation.csv")
    formats.write_csv(out / "collab_records.csv",
                      ["sample", "site", "cosine", "p_orig", "sad_drop"],
                      ([r.sample_id, r.site, f"{r.cosine:.6g}", f"{r.p_orig:.6g}",
                        f"{r.sad_drop:.6g}"] for r in records))
    for i, bq in enumerate(maps):
        saliency.render_heatmap(saliency.normalize_map(bq),
                                out / f"sample{i:04d}_blockwise.pgm")
    (out / "entropy.txt").write_text(formats.kv_text([("entropy_drop_estimate", f"{dh:.6f}")]))
    print(f"entropy drop estimate: {dh:.5f} (target 0.34657)")
    print(f"correlation report: {out / 'correlation.csv'}")


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(prog="mhex",
                                     description="explainability lab runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", choices=tuple(_DATASETS), default="shapes")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="mhex_out")
        p.add_argument("--n-samples", type=int, default=512)
        p.add_argument("--config", default=None,
                       help="config.txt of an earlier run of the same command")

    def wf_flags(p):
        wf = saliency.WeightFilterConfig()
        p.add_argument("--alpha", type=float, default=wf.neg_mix)
        p.add_argument("--ss", type=float, default=wf.ss_threshold)
        p.add_argument("--decay", type=float, default=wf.layer_decay)
        p.add_argument("--layers", type=int, default=wf.token_layers,
                       help="token layer cutoff (tokens only; an image map "
                            "weights every site by --decay)")

    p = sub.add_parser("train", help="train an instrumented host")
    common(p)
    p.add_argument("--mode", choices=LOSS_MODES, default="finetune")
    p.add_argument("--epochs", type=int, default=6)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=64)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="emit saliency artifacts")
    common(p)
    wf_flags(p)
    p.add_argument("--checkpoint", help="required unless --config holds it")
    p.add_argument("--samples", default=None, help="comma-separated sample ids")
    p.add_argument("--grad-cam", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("evaluate", help="saliency-quality metric tables")
    common(p)
    wf_flags(p)
    p.add_argument("--checkpoint", help="required unless --config holds it")
    p.add_argument("--steps", type=int, default=20,
                   help="deletion/insertion curve steps (images only; the token "
                        "evaluation draws no curves)")
    p.add_argument("--top-frac", type=float, default=0.10,
                   help="share of each sequence's tokens masked for the drop "
                        "(tokens only; images mask the salient cells)")
    p.add_argument("--grad-cam", action="store_true")
    p.add_argument("--oracle-explainer", action="store_true")
    p.add_argument("--curve-samples", type=int, default=16,
                   help="samples averaged into the curves (images only)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("analyze", help="collaboration and entropy analysis")
    common(p)
    p.add_argument("--checkpoint", help="required unless --config holds it")
    p.add_argument("--grid", type=int, default=7)
    p.add_argument("--block-samples", type=int, default=4)
    p.add_argument("--entropy-n", type=int, default=1_000_000)
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _load_config_defaults(parser, args)
            args = parser.parse_args(argv)
        # checked after the config defaults apply, which may supply it
        if args.command != "train" and args.checkpoint is None:
            _command_parser(parser, args.command).error(
                "the following arguments are required: --checkpoint")
        # a command makes `out` at its first write: one failing sooner leaves no config.txt
        args.func(args, Path(args.out))
        _write_config(args)
    except (MhexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
