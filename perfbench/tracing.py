"""Outside-in tracing of mhexlab.

``Tracer.install`` swaps the public functions of every mhexlab module, the
autodiff primitives and the forward methods of both hosts for wrappers that
record a span around each call; nothing in the package changes. Each span
holds its name, start, end, parent span and run id (the traced pass). Spans
stay in memory until ``save`` writes them out. A span's self time is its
duration minus the durations of its direct children, which, in one thread,
cover disjoint parts of it.

Each primitive's returned tensor gets its backward closure wrapped too, so
reverse sweeps are timed per primitive. Counts (calls, tape nodes, computed
flops, useful adjoints) are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

PRIMITIVES = ("conv2d", "matmul", "add", "mul", "relu", "sigmoid", "layer_norm",
              "softmax_last", "softmax_cross_entropy", "nearest_resize",
              "embedding", "masked_seq_mean", "global_avg_pool", "reshape",
              "transpose", "sum_axis")
HOSTS = {"resnet": "ResNetModel", "transformer": "TransformerModel"}
MB = 2.0 ** 20

# (module, functions, span name): plain timed wrappers
_FUNCTIONS = (
    ("datasets", ("gen_shapes",), "datasets.gen_shapes"),
    ("datasets", ("gen_tokens",), "datasets.gen_tokens"),
    ("datasets", ("localization_score",), "datasets.localization_score"),
    ("models", ("save_checkpoint",), "models.checkpoint.save"),
    ("models", ("load_checkpoint",), "models.checkpoint.load"),
    ("models", ("clone_model", "strip_mhex"), "models.clone"),
    ("blocks", ("run_block",), "blocks.run_block"),
    ("blocks", ("mhex_loss",), "blocks.mhex_loss"),
    ("saliency", ("explain_image",), "saliency.explain_image"),
    ("saliency", ("explain_tokens",), "saliency.explain_tokens"),
    ("saliency", ("render_heatmap", "export_token_csv", "export_token_html"),
     "saliency.render"),
    ("metrics", ("deletion_curve", "insertion_curve"), "metrics.curve"),
    ("metrics", ("drop_record",), "metrics.drop"),
    ("metrics", ("token_perturb_drop",), "metrics.token_drop"),
    ("metrics", ("write_drop_csv", "write_curve_csv"), "metrics.csv"),
    ("analysis", ("collaboration_cosine",), "analysis.collaboration_cosine"),
    ("analysis", ("blockwise_quality",), "analysis.blockwise_quality"),
    ("analysis", ("correlation_triangle",), "analysis.correlation_triangle"),
    ("analysis", ("pearson", "write_correlation_csv"), "analysis.stats"),
    ("analysis", ("relu_entropy_drop",), "analysis.relu_entropy_drop"),
)


def _per_layer_names():
    names = []
    for p in PRIMITIVES:
        names += [(f"autodiff.{p}.fwd_s", "s"), (f"autodiff.{p}.bwd_s", "s"),
                  (f"autodiff.{p}.calls", "count")]
    names += [("autodiff.conv2d.bwd_calls", "count"), ("autodiff.matmul.bwd_calls", "count"),
              ("autodiff.sweep.self_s", "s"), ("autodiff.sweep.calls", "count"),
              ("autodiff.sweep.nodes", "count"), ("autodiff.sweep.useful_frac", "frac"),
              ("autodiff.tape.nodes_per_forward", "count"),
              ("autodiff.tape.mb_per_forward", "MB")]
    for p in ("conv2d", "matmul"):
        names += [(f"autodiff.{p}.gflop", "GFLOP"), (f"autodiff.{p}.gflops_per_s", "GFLOP/s")]
    names += [("blocks.run_block.s", "s"), ("blocks.run_block.calls", "count"),
              ("blocks.mhex_loss.s", "s")]
    for h in HOSTS:
        names += [(f"models.{h}.backbone_s", "s"), (f"models.{h}.side_chain_s", "s"),
                  (f"models.{h}.backbone_calls", "count"),
                  (f"models.{h}.predict_calls", "count"),
                  (f"models.{h}.samples_per_forward", "count")]
    names += [("models.train.forward_s", "s"), ("models.train.backward_s", "s"),
              ("models.train.optimizer_s", "s"), ("models.head_accuracies_s", "s"),
              ("models.checkpoint.save_s", "s"), ("models.checkpoint.load_s", "s"),
              ("models.train.peak_mb", "MB"), ("models.head_accuracies.peak_mb", "MB")]
    for f in ("explain_image", "explain_tokens", "gradcam_baseline"):
        names += [(f"saliency.{f}.self_s", "s"), (f"saliency.{f}.calls", "count")]
    names += [("saliency.explain_image.p50_ms", "ms"), ("saliency.explain_image.p90_ms", "ms"),
              ("saliency.render_s", "s"),
              ("metrics.curve.self_s", "s"), ("metrics.curve.calls", "count"),
              ("metrics.curve.forwards_per_curve", "count"),
              ("metrics.drop.self_s", "s"), ("metrics.drop.calls", "count"),
              ("metrics.token_drop.self_s", "s"), ("metrics.token_drop.calls", "count"),
              ("metrics.csv_s", "s"),
              ("analysis.collaboration_cosine.s", "s"),
              ("analysis.collaboration_cosine.calls", "count"),
              ("analysis.blockwise_quality.s", "s"), ("analysis.blockwise_quality.calls", "count"),
              ("analysis.blockwise.backbone_calls_per_map", "count"),
              ("analysis.grad_wrt_calls", "count"), ("analysis.stats_s", "s"),
              ("analysis.relu_entropy_drop.s", "s"),
              ("datasets.gen_shapes.s", "s"), ("datasets.gen_tokens.s", "s"),
              ("cli.self_s", "s"),
              ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
              ("trace.overhead_s", "s"), ("trace.attributed_frac", "frac")]
    return names


# name -> unit of every per-layer metric, in report order
PER_LAYER = dict(_per_layer_names())


class Tracer:
    """Span recorder and wrapper installer for one traced process."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = []            # one Counter per run
        self._c = Counter()
        self._run = -1
        self._stack = []
        self._patches = []
        self._forward_depth = 0
        self._sweep_target = None
        self._final_feats = None
        self._mem_peak = 0

    # -- spans -----------------------------------------------------------
    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_run(self):
        self._run += 1
        self._c = Counter()
        self.counts.append(self._c)

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self._run)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` inside a span called ``name``."""
        idx = self._open(self._id(name))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- wrappers --------------------------------------------------------
    def _timed(self, fn, name):
        nid, open_, close = self._id(name), self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)
        return wrapper

    def _primitive(self, fn, p):
        fid, bid = self._id(f"autodiff.{p}"), self._id(f"autodiff.{p}.bwd")
        open_, close, tracer = self._open, self._close, self
        flop_key, bwd_key = f"flop.{p}", f"bwd_calls.{p}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(fid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
            c = tracer._c
            nbytes = out.data.nbytes
            flop = 0
            if p == "conv2d":
                w = getattr(args[1], "data", args[1])
                inner = w[0].size                    # C * kh * kw
                flop = 2 * out.data.size * inner
                nbytes += out.data.size // w.shape[0] * inner * 8   # im2col columns
            elif p == "matmul":
                flop = 2 * out.data.size * getattr(args[0], "data", args[0]).shape[-1]
            c[flop_key] += flop
            if tracer._forward_depth:
                c["tape.nodes"] += 1
                c["tape.bytes"] += nbytes
            bw = out._backward
            if bw is not None:
                def timed_backward(g):
                    j = open_(bid)
                    try:
                        return bw(g)
                    finally:
                        close(j)
                        cc = tracer._c
                        cc[bwd_key] += 1
                        cc[flop_key] += 2 * flop      # input and weight gradients
                out._backward = timed_backward
            return out
        return wrapper

    def _forward(self, fn, name, host, backbone):
        nid, open_, close, tracer = self._id(name), self._open, self._close, self
        samples_key = f"samples.{host}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._forward_depth += 1
            if tracer._forward_depth == 1:
                tracer._c["forwards"] += 1
            idx = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(idx)
                tracer._forward_depth -= 1
            if backbone:
                tracer._c[samples_key] += out[2].data.shape[0]
                tracer._final_feats = out[1]
            return out
        return wrapper

    def _sweep(self, fn):
        """Reverse sweep (``_adjoints``): counts nodes visited, backward
        closures run, and those whose adjoint reaches a requested gradient."""
        nid, open_, close, tracer = self._id("autodiff.sweep"), self._open, self._close, self

        @functools.wraps(fn)
        def wrapper(loss):
            target, tracer._sweep_target = tracer._sweep_target, None
            idx = open_(nid)
            try:
                adj, order = fn(loss)
            finally:
                close(idx)
            if target == "gradcam":
                target = id(tracer._final_feats)
            called = useful = 0
            dep = set()
            for node in order:          # parents before children
                key = id(node)
                if target is None:
                    d = True
                elif target == "requires_grad":
                    d = node.requires_grad
                else:
                    d = key == target
                if d or any(id(q) in dep for q in node._parents):
                    dep.add(key)
                    d = True
                if node._backward is not None and key in adj:
                    called += 1
                    useful += d
            c = tracer._c
            c["sweep.nodes"] += len(order)
            c["sweep.called"] += called
            c["sweep.useful"] += useful
            return adj, order
        return wrapper

    def _targeted(self, fn, name, target_of):
        """A function that starts a reverse sweep for the gradients
        ``target_of(args)`` names."""
        inner, tracer = self._timed(fn, name), self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._sweep_target = target_of(args)
            return inner(*args, **kwargs)
        return wrapper

    def _memory(self, fn, name, key, outer):
        """tracemalloc peak of ``fn``; ``outer`` marks models.train, whose
        peak includes its nested head_accuracies calls."""
        inner, tracer = self._timed(fn, name), self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = not tracemalloc.is_tracing()
            if started:
                tracemalloc.start()
            if outer:
                tracer._mem_peak = 0
            else:
                tracer._mem_peak = max(tracer._mem_peak, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return inner(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                if outer:
                    peak = max(peak, tracer._mem_peak)
                tracer._mem_peak = max(tracer._mem_peak, peak)
                tracer._c[key] = max(tracer._c[key], peak / MB)
                if started:
                    tracemalloc.stop()
        return wrapper

    # -- installation ----------------------------------------------------
    def _replace(self, modules, orig, new):
        """Point every module-level reference to ``orig`` at ``new``, so
        names imported with ``from x import y`` are traced too."""
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._patches.append((mod, key, orig))
                    setattr(mod, key, new)

    def install(self):
        from mhexlab import autodiff, models
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "mhexlab" or n.startswith("mhexlab.")]
        pkg = {n.rpartition(".")[2]: m for n, m in sys.modules.items()
               if n.startswith("mhexlab.")}
        for mod, funcs, name in _FUNCTIONS:
            for f in funcs:
                orig = getattr(pkg[mod], f)
                self._replace(modules, orig, self._timed(orig, name))
        for p in PRIMITIVES:
            orig = getattr(autodiff, p)
            self._replace(modules, orig, self._primitive(orig, p))
        self._replace(modules, autodiff._adjoints, self._sweep(autodiff._adjoints))
        self._replace(modules, autodiff.backward, self._targeted(
            autodiff.backward, "autodiff.backward", lambda a: "requires_grad"))
        self._replace(modules, autodiff.grad_wrt, self._targeted(
            autodiff.grad_wrt, "autodiff.grad_wrt", lambda a: id(a[1])))
        gradcam = pkg["saliency"].gradcam_baseline
        self._replace(modules, gradcam, self._targeted(
            gradcam, "saliency.gradcam_baseline", lambda a: "gradcam"))
        self._replace(modules, models.train, self._memory(
            models.train, "models.train", "mem.train", True))
        self._replace(modules, models.head_accuracies, self._memory(
            models.head_accuracies, "models.head_accuracies", "mem.head_accuracies", False))
        for host, cls_name in HOSTS.items():
            cls = getattr(models, cls_name)
            for meth, backbone in (("_backbone", True), ("forward_collect", False),
                                   ("forward_logits", False)):
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._forward(orig, f"models.{host}.{meth.strip('_')}",
                                                 host, backbone))
            orig = cls.__dict__["predict_proba"]
            self._patches.append((cls, "predict_proba", orig))
            setattr(cls, "predict_proba", self._timed(orig, f"models.{host}.predict_proba"))

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------
    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.array(self.name, dtype=np.int32),
                            parent=np.array(self.parent, dtype=np.int32),
                            run=np.array(self.run, dtype=np.int32),
                            start=np.array(self.start), end=np.array(self.end))

    def summarize(self, runs, untraced_wall_s):
        """Per-layer metrics over the traced ``runs``: times are medians of
        the per-run totals, counts must agree exactly between runs. Returns
        (metrics, names of counts that differed, explain_image samples)."""
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        run = np.array(self.run, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        pname = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        n_names = len(self.names) + 1
        ids = {n: i for i, n in enumerate(self.names)}

        def nid(n):
            return ids.get(n, n_names - 1)        # unseen names match no span

        def under(sel, cid, aid):
            """Spans named ``cid`` in ``sel`` with an ancestor named ``aid``."""
            idx = np.flatnonzero(sel & (name == cid))
            cur = parent[idx]
            found = np.zeros(len(idx), dtype=bool)
            while (cur >= 0).any():
                ok = cur >= 0
                safe = np.maximum(cur, 0)
                found |= ok & (name[safe] == aid)
                cur = np.where(ok, parent[safe], -1)
            return int(found.sum())

        per_run, count_keys = [], set()
        for r in runs:
            sel = run == r
            incl = np.bincount(name[sel], weights=dur[sel], minlength=n_names)
            selft = np.bincount(name[sel], weights=self_t[sel], minlength=n_names)
            calls = np.bincount(name[sel], minlength=n_names)
            c = self.counts[r]

            def I(n):
                return float(incl[nid(n)])

            def S(n):
                return float(selft[nid(n)])

            def C(n):
                return int(calls[nid(n)])

            def pair(parent_name, child_name):
                m = sel & (name == nid(child_name)) & (pname == nid(parent_name))
                return float(dur[m].sum())

            t, k = {}, {}
            for p in PRIMITIVES:
                t[f"autodiff.{p}.fwd_s"] = I(f"autodiff.{p}")
                t[f"autodiff.{p}.bwd_s"] = I(f"autodiff.{p}.bwd")
                k[f"autodiff.{p}.calls"] = C(f"autodiff.{p}")
            for p in ("conv2d", "matmul"):
                k[f"autodiff.{p}.bwd_calls"] = c[f"bwd_calls.{p}"]
                k[f"autodiff.{p}.gflop"] = c[f"flop.{p}"] / 1e9
                busy = t[f"autodiff.{p}.fwd_s"] + t[f"autodiff.{p}.bwd_s"]
                t[f"autodiff.{p}.gflops_per_s"] = c[f"flop.{p}"] / 1e9 / busy if busy else 0.0
            t["autodiff.sweep.self_s"] = S("autodiff.sweep")
            k["autodiff.sweep.calls"] = C("autodiff.sweep")
            k["autodiff.sweep.nodes"] = c["sweep.nodes"]
            k["autodiff.sweep.useful_frac"] = (c["sweep.useful"] / c["sweep.called"]
                                               if c["sweep.called"] else 0.0)
            fwd = c["forwards"]
            k["autodiff.tape.nodes_per_forward"] = c["tape.nodes"] / fwd if fwd else 0.0
            k["autodiff.tape.mb_per_forward"] = c["tape.bytes"] / MB / fwd if fwd else 0.0
            t["blocks.run_block.s"] = I("blocks.run_block")
            k["blocks.run_block.calls"] = C("blocks.run_block")
            t["blocks.mhex_loss.s"] = I("blocks.mhex_loss")
            for h in HOSTS:
                bb, fc = f"models.{h}.backbone", f"models.{h}.forward_collect"
                t[f"models.{h}.backbone_s"] = I(bb)
                t[f"models.{h}.side_chain_s"] = I(fc) - pair(fc, bb)
                k[f"models.{h}.backbone_calls"] = C(bb)
                k[f"models.{h}.predict_calls"] = C(f"models.{h}.predict_proba")
                k[f"models.{h}.samples_per_forward"] = (c[f"samples.{h}"] / C(bb)
                                                        if C(bb) else 0.0)
            t["models.train.forward_s"] = (sum(pair("models.train", f"models.{h}.forward_collect")
                                               for h in HOSTS)
                                           + pair("models.train", "blocks.mhex_loss"))
            t["models.train.backward_s"] = pair("models.train", "autodiff.backward")
            t["models.train.optimizer_s"] = S("models.train")
            t["models.head_accuracies_s"] = I("models.head_accuracies")
            t["models.checkpoint.save_s"] = I("models.checkpoint.save")
            t["models.checkpoint.load_s"] = I("models.checkpoint.load")
            t["models.train.peak_mb"] = c["mem.train"]
            t["models.head_accuracies.peak_mb"] = c["mem.head_accuracies"]
            for f in ("explain_image", "explain_tokens", "gradcam_baseline"):
                t[f"saliency.{f}.self_s"] = S(f"saliency.{f}")
                k[f"saliency.{f}.calls"] = C(f"saliency.{f}")
            t["saliency.render_s"] = I("saliency.render")
            t["metrics.curve.self_s"] = S("metrics.curve")
            k["metrics.curve.calls"] = C("metrics.curve")
            predicts = sum(under(sel, nid(f"models.{h}.predict_proba"), nid("metrics.curve"))
                           for h in HOSTS)
            k["metrics.curve.forwards_per_curve"] = (predicts / C("metrics.curve")
                                                     if C("metrics.curve") else 0.0)
            for m in ("drop", "token_drop"):
                t[f"metrics.{m}.self_s"] = S(f"metrics.{m}")
                k[f"metrics.{m}.calls"] = C(f"metrics.{m}")
            t["metrics.csv_s"] = I("metrics.csv")
            for f in ("collaboration_cosine", "blockwise_quality"):
                t[f"analysis.{f}.s"] = I(f"analysis.{f}")
                k[f"analysis.{f}.calls"] = C(f"analysis.{f}")
            maps = C("analysis.blockwise_quality")
            inside = sum(under(sel, nid(f"models.{h}.backbone"), nid("analysis.blockwise_quality"))
                         for h in HOSTS)
            k["analysis.blockwise.backbone_calls_per_map"] = inside / maps if maps else 0.0
            k["analysis.grad_wrt_calls"] = C("autodiff.grad_wrt")
            t["analysis.stats_s"] = I("analysis.stats")
            t["analysis.relu_entropy_drop.s"] = I("analysis.relu_entropy_drop")
            t["datasets.gen_shapes.s"] = I("datasets.gen_shapes")
            t["datasets.gen_tokens.s"] = I("datasets.gen_tokens")
            cli = [i for n, i in ids.items() if n.startswith("cli.")]
            wall = float(incl[cli].sum())
            t["cli.self_s"] = float(selft[cli].sum())
            t["trace.wall_s"] = wall
            t["trace.attributed_frac"] = 1.0 - t["cli.self_s"] / wall if wall else 0.0
            per_run.append((t, k))
            count_keys |= set(k)

        out = {n: float(np.median([t[n] for t, _ in per_run]))
               for n in per_run[0][0]}
        mismatched = sorted(n for n in count_keys
                            if len({k[n] for _, k in per_run}) != 1)
        out.update(per_run[0][1])
        durations = dur[np.isin(run, list(runs)) & (name == nid("saliency.explain_image"))]
        p50, p90 = (np.percentile(durations * 1e3, [50, 90]) if durations.size
                    else (0.0, 0.0))
        out["saliency.explain_image.p50_ms"] = float(p50)
        out["saliency.explain_image.p90_ms"] = float(p90)
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall_s
        missing = set(PER_LAYER) ^ set(out)
        if missing:
            raise RuntimeError(f"per-layer metric set out of sync: {sorted(missing)}")
        return {n: out[n] for n in PER_LAYER}, mismatched, int(durations.size)
