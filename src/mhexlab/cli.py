"""Command-line entry point: reproducible train / explain / evaluate /
analyze runs over the synthetic datasets.

Every command writes its resolved configuration next to its artifacts, and
reruns from that file are deterministic.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, metrics, saliency
from .datasets import gen_shapes, gen_tokens, localization_score
from .errors import ConfigurationError, MhexError
from .models import (EVAL_BATCH_SIZE, ResNetConfig, TransformerConfig,
                     build_resnet, build_transformer, load_checkpoint,
                     save_checkpoint, train)


def _resolve_out(args):
    """The output directory, not yet created: each command makes it just
    before its first write, so a command that fails earlier leaves none."""
    return Path(os.environ.get("MHEX_OUT") or args.out)


def _made(out):
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_config(args, out_dir, name="config.txt"):
    skip = {"func", "config"}
    with open(out_dir / name, "w") as fh:
        for key, val in sorted(vars(args).items()):
            if key in skip:
                continue
            fh.write(f"{key}={val}\n")


def _command_parser(parser, command):
    # argparse has no public accessor for a command's sub-parser
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[command]


def _load_config_defaults(parser, args):
    """--config FILE makes its key=value pairs the command's defaults, so
    argparse converts them with each flag's type and flags given on the
    command line win. Keys no flag reads (removed flags) and ``None``
    values are skipped."""
    defaults = {}
    with open(args.config) as fh:
        for line in fh:
            key, _, val = line.strip().partition("=")
            key = key.replace("-", "_")
            if key in ("command", "config", "func") or not hasattr(args, key) \
                    or val == "None":
                continue
            # store_true flags: a string default would stay a (truthy) string
            defaults[key] = val == "True" if isinstance(getattr(args, key), bool) else val
    _command_parser(parser, args.command).set_defaults(**defaults)


def _make_dataset(args):
    if args.dataset == "shapes":
        return gen_shapes(args.n_samples, seed=args.seed)
    return gen_tokens(args.n_samples, seed=args.seed)


def _wf_config(args):
    return saliency.WeightFilterConfig(
        neg_mix=args.alpha,
        ss_threshold=args.ss,
        layer_decay=args.decay,
        token_layers=args.layers)


# ---------------------------------------------------------------------------
# commands


def cmd_train(args):
    out = _resolve_out(args)
    dataset = _make_dataset(args)
    if args.dataset == "shapes":
        model = build_resnet(ResNetConfig(n_class=dataset.n_class), seed=args.seed)
        lr = args.lr if args.lr is not None else 3e-3
    else:
        model = build_transformer(
            TransformerConfig(vocab_size=dataset.vocab_size, n_class=dataset.n_class,
                              max_seq=dataset.max_seq), seed=args.seed)
        lr = args.lr if args.lr is not None else 2e-3
    log = train(model, dataset, mode=args.mode, epochs=args.epochs, lr=lr,
                seed=args.seed, batch_size=args.batch_size)
    save_checkpoint(model, _made(out) / "checkpoint.ckpt")
    with open(out / "trainlog.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "loss", "head_accuracies"])
        for e in log.entries:
            writer.writerow([e.epoch, f"{e.loss:.6g}",
                             " ".join(f"{a:.4f}" for a in e.head_accuracy)])
    _write_config(args, out)
    if log.entries:
        print(f"trained {args.epochs} epochs; final loss {log.entries[-1].loss:.4f}; "
              f"head accuracies {log.entries[-1].head_accuracy}")
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


def _chunks(ids):
    """Consecutive slices of at most ``EVAL_BATCH_SIZE`` sample ids."""
    ids = list(ids)
    return [ids[lo:lo + EVAL_BATCH_SIZE] for lo in range(0, len(ids), EVAL_BATCH_SIZE)]


def cmd_explain(args):
    wf = _wf_config(args)
    out = _resolve_out(args)
    model = load_checkpoint(args.checkpoint)
    dataset = _make_dataset(args)
    ids = _sample_ids(args, dataset)
    _made(out)
    manifest = []
    if args.dataset == "tokens":
        for chunk in _chunks(ids):
            sals = saliency.explain_tokens(model, dataset.ids[chunk],
                                           dataset.labels[chunk], wf)
            for i, sal in zip(chunk, sals):
                tokens = [f"tok{t}" for t in dataset.ids[i]]
                p = out / f"sample{i:04d}_tokens.csv"
                saliency.export_token_csv(tokens, sal, p)
                manifest.append((i, "mhex_csv", p.name))
                p = out / f"sample{i:04d}_tokens.html"
                saliency.export_token_html(tokens, sal, p)
                manifest.append((i, "mhex_html", p.name))
    else:
        for i in ids:
            label = int(dataset.labels[i])
            image = dataset.images[i]
            smap = saliency.explain_image(model, image, label, wf)
            p = out / f"sample{i:04d}_mhex.pgm"
            saliency.render_heatmap(smap, p)
            manifest.append((i, "mhex", p.name))
            p = out / f"sample{i:04d}_mhex_overlay.ppm"
            saliency.render_heatmap(smap, p, overlay=image)
            manifest.append((i, "mhex_overlay", p.name))
            if args.grad_cam:
                gmap = saliency.gradcam_baseline(model, image, label)
                p = out / f"sample{i:04d}_gradcam.pgm"
                saliency.render_heatmap(gmap, p)
                manifest.append((i, "gradcam", p.name))
    with open(out / "manifest.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "method", "artifact"])
        writer.writerows(manifest)
    _write_config(args, out)
    print(f"wrote {len(manifest)} artifacts to {out}")


def cmd_evaluate(args):
    if args.dataset == "tokens" and (args.grad_cam or args.oracle_explainer):
        raise ConfigurationError("--grad-cam and --oracle-explainer need --dataset shapes")
    if args.dataset == "shapes" and args.curve_samples < 1:
        raise ConfigurationError(f"--curve-samples must be >= 1, got {args.curve_samples}")
    if args.dataset == "shapes" and args.steps < 2:
        raise ConfigurationError(f"--steps must be >= 2, got {args.steps}")
    wf = _wf_config(args)
    out = _resolve_out(args)
    model = load_checkpoint(args.checkpoint)
    dataset = _make_dataset(args)
    n = min(args.n_samples, len(dataset))

    if args.dataset == "tokens":
        records = []
        for chunk in _chunks(range(n)):
            ids, labels = dataset.ids[chunk], dataset.labels[chunk]
            sals = saliency.explain_tokens(model, ids, labels, wf)
            records += metrics.token_perturb_drop(
                model.predict_proba, ids, sals, labels, top_frac=args.top_frac,
                mask_token=dataset.mask_id, pad_id=dataset.pad_id, sample_id=chunk[0])
        metrics.write_drop_csv(records, _made(out) / "token_drop.csv", method="mhex")
        _write_config(args, out)
        print(f"token mean drop: {np.mean([r.drop for r in records]):.4f}")
        return

    methods = [m for m, on in (("mhex", True), ("gradcam", args.grad_cam),
                               ("oracle", args.oracle_explainer)) if on]
    summary = []
    for method in methods:
        recs, loc, cams = [], [], []
        for i in range(n):
            label = int(dataset.labels[i])
            image = dataset.images[i]
            if method == "oracle":
                cam = dataset.truth_masks[i].astype(np.float64)
            else:
                smap = (saliency.explain_image(model, image, label, wf) if method == "mhex"
                        else saliency.gradcam_baseline(model, image, label))
                cam = saliency.resize_map(smap.grid, image.shape[-2:])
            recs.append(metrics.drop_record(model.predict_proba, image, label, cam, sample_id=i))
            loc.append(localization_score(cam, dataset.truth_masks[i]))
            cams.append(cam)
        metrics.write_drop_csv(recs, _made(out) / f"drop_{method}.csv", method=method)
        aucs = []
        for name, curve_fn in (("deletion", metrics.deletion_curve),
                               ("insertion", metrics.insertion_curve)):
            curves = [curve_fn(model.predict_proba, dataset.images[i], cams[i],
                               int(dataset.labels[i]), steps=args.steps)
                      for i in range(min(n, args.curve_samples))]
            mean = metrics.Curve(curves[0].fractions,
                                 np.mean([c.confidences for c in curves], axis=0))
            metrics.write_curve_csv(mean, out / f"{name}_{method}.csv")
            aucs.append(metrics.auc(mean))
        summary.append((method, metrics.avg_drop(recs), metrics.ead(recs), *aucs,
                        float(np.mean(loc))))

    with open(out / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "avg_drop", "ead", "deletion_auc",
                         "insertion_auc", "localization"])
        for row in summary:
            writer.writerow([row[0]] + [f"{v:.6g}" for v in row[1:]])
    _write_config(args, out)
    for row in summary:
        print(f"{row[0]}: avg_drop={row[1]:.4f} ead={row[2]:.4f} "
              f"del_auc={row[3]:.4f} ins_auc={row[4]:.4f} loc={row[5]:.4f}")


def cmd_analyze(args):
    out = _resolve_out(args)
    model = load_checkpoint(args.checkpoint)
    dataset = _make_dataset(args)
    analysis.check_collab_inputs(model, dataset)
    n = min(args.n_samples, len(dataset))
    # the parts that check --entropy-n and --grid run before the collaboration
    # pass, and no file is written until every part has run
    dh = analysis.relu_entropy_drop(args.entropy_n, seed=args.seed)
    maps = [analysis.blockwise_quality(model, dataset.images[i], int(dataset.labels[i]),
                                       grid=args.grid)
            for i in range(min(n, args.block_samples))]
    rows, records = analysis.correlation_triangle(model, dataset, n_samples=n)
    analysis.write_correlation_csv(rows, _made(out) / "correlation.csv")
    with open(out / "collab_records.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample", "site", "cosine", "p_orig", "sad_drop"])
        for r in records:
            writer.writerow([r.sample_id, r.site, f"{r.cosine:.6g}",
                             f"{r.p_orig:.6g}", f"{r.sad_drop:.6g}"])
    for i, bq in enumerate(maps):
        saliency.render_heatmap(saliency.normalize_map(bq),
                                out / f"sample{i:04d}_blockwise.pgm")
    with open(out / "entropy.txt", "w") as fh:
        fh.write(f"entropy_drop_estimate={dh:.6f}\n")
    _write_config(args, out)
    print(f"entropy drop estimate: {dh:.5f} (target 0.34657)")
    print(f"correlation report: {out / 'correlation.csv'}")


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(prog="mhex",
                                     description="explainability lab runner")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--dataset", choices=("shapes", "tokens"), default="shapes")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="mhex_out")
        p.add_argument("--n-samples", type=int, default=512)
        p.add_argument("--config", default=None,
                       help="key=value file of defaults (emitted by earlier runs)")

    def wf_flags(p):
        p.add_argument("--alpha", type=float, default=0.25)
        p.add_argument("--ss", type=float, default=None)
        p.add_argument("--decay", type=float, default=0.9)
        p.add_argument("--layers", type=int, default=3,
                       help="token layer cutoff (tokens only; an image map "
                            "weights every site by --decay)")

    p = sub.add_parser("train", help="train an instrumented host")
    common(p)
    p.add_argument("--mode", choices=("pretrain", "finetune"), default="finetune")
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
    p.add_argument("--top-frac", type=float, default=0.10)
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
    if args.config is not None:
        _load_config_defaults(parser, args)
        args = parser.parse_args(argv)
    # checked after the config defaults apply, which may supply it
    if args.command != "train" and args.checkpoint is None:
        _command_parser(parser, args.command).error(
            "the following arguments are required: --checkpoint")
    try:
        args.func(args)
    except (MhexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
