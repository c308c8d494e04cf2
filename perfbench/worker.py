"""Runs one workload in a fresh interpreter and writes its measurements as
JSON. run.py starts it after the set-up, so the set-up's memory high-water
mark stays out of peak_rss_mb.

Order of work: one untimed reference pass (fixed seed; it also warms up the
process) whose outputs are checked against ``reference/``, the invariants on
its model, then timed passes with seeds derived from ``--seed``, with a
host-speed probe (hostspeed.py) before the first and after each one. With
``--trace 1`` the first third of the time runs untraced passes and the rest
traced ones, so the tracing overhead is measured in the same process.
Every command is ``mhexlab.cli.main(argv)`` called in-process.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3          # untraced passes in a --trace 0 run
MIN_TRACED = 2          # traced passes, so counts can be compared between them


def run_command(cli, cmd, tracer):
    """One closed-loop `mhex` call; returns (seconds, error or None)."""
    argv = list(cmd.argv) + ["--out", cmd.out]
    sink = io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"cli.{cmd.name}", cli.main, argv)
        error = None if rc == 0 else f"exit code {rc}: {sink.getvalue()[-300:]}"
    except Exception:       # a crashing command is a failed operation, not a crashed benchmark
        error = traceback.format_exc(limit=4)
    return perf_counter() - t0, error


class Run:
    def __init__(self, cli, checks):
        self.cli, self.checks = cli, checks
        self.attempted = self.failed = 0
        self.failures = []

    def account(self, what, fails):
        self.attempted += 1
        if fails:
            self.failed += 1
            self.failures.append(f"{what}: {fails[0]}")

    def run_pass(self, cmds, label, tracer=None):
        times = []
        for cmd in cmds:
            dt, error = run_command(self.cli, cmd, tracer)
            times.append(dt)
            self.account(f"{label} {cmd.name}", [error] if error else self.checks.check_command(cmd))
        return times


def _environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "src_sha256": src.hexdigest(),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--fixture-dir", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from mhexlab import cli

    import checks
    import hostspeed
    from workloads import REFERENCE_SEED, WORKLOADS, commands, pass_seed

    w = WORKLOADS[args.workload]
    out = Path(args.out_dir)
    fixture_dir = Path(args.fixture_dir)
    fixture = fixture_dir / "checkpoint.ckpt" if w.needs_fixture else None
    run = Run(cli, checks)

    # reference pass: fixed inputs, compared with the recorded outputs
    ref_cmds = commands(w, REFERENCE_SEED, out / "reference", fixture)
    run.run_pass(ref_cmds, "reference pass")
    ref_dir = HERE / "reference" / w.name
    for source, fname in w.references:
        got = (fixture_dir if source == "fixture" else out / "reference" / source) / fname
        ref = ref_dir / f"{source}_{fname}"
        if not got.is_file() or not ref.is_file():
            run.account(f"reference {ref.name}", [f"{got} or {ref} is missing"])
        else:
            run.account(f"reference {ref.name}", checks.compare_reference(got, ref))
    ckpt = fixture or out / "reference" / "train" / "checkpoint.ckpt"
    try:
        fails = checks.invariants(ckpt, w.host, out)
    except Exception:
        fails = [traceback.format_exc(limit=4)]
    run.account("invariants", fails)

    # timed passes
    t0 = perf_counter()
    untraced_budget = args.seconds / 3 if args.trace else args.seconds
    min_untraced = 1 if args.trace else MIN_PASSES
    passes = []
    with hostspeed.Probe() as probe:
        probes = [probe()]
        while True:
            cmds = commands(w, pass_seed(args.seed, len(passes)), out / "pass", fixture)
            passes.append(run.run_pass(cmds, f"pass {len(passes)}"))
            probes.append(probe())
            elapsed = perf_counter() - t0
            if len(passes) >= min_untraced and elapsed + sum(passes[-1]) > untraced_budget:
                break
    walls = [sum(p) for p in passes]
    scaled = hostspeed.scaled(walls, probes)
    scale = [s / wl for s, wl in zip(scaled, walls)]
    n_samples = sum(c.samples for c in cmds)
    result = {
        "passes": passes,
        "probes_s": probes,
        "commands": [[c.name, c.samples] for c in cmds],
        "raw_wall_s": statistics.median(walls),
        "raw_samples_per_s": statistics.median(n_samples / wl for wl in walls),
        "wall_s": statistics.median(scaled),
        "samples_per_s": statistics.median(n_samples / wl for wl in scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for name in dict.fromkeys(c.name for c in cmds):
        idx = [i for i, c in enumerate(cmds) if c.name == name]
        n = sum(cmds[i].samples for i in idx)
        result[f"{name}_samples_per_s"] = statistics.median(
            n / (k * sum(p[i] for i in idx)) for p, k in zip(passes, scale))

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        traced = []
        try:
            while True:
                tracer.begin_run()
                cmds = commands(w, pass_seed(args.seed, len(passes) + len(traced)),
                                out / "pass", fixture)
                traced.append(run.run_pass(cmds, f"traced pass {len(traced)}", tracer))
                elapsed = perf_counter() - t0
                if len(traced) >= MIN_TRACED and elapsed + sum(traced[-1]) > args.seconds:
                    break
        finally:
            tracer.uninstall()
        per_layer, mismatched, explain_samples = tracer.summarize(
            range(len(traced)), result["raw_wall_s"])
        run.account("exact counts repeat across traced passes",
                    [f"differ: {', '.join(mismatched)}"] if mismatched else [])
        tracer.save(out / "spans.npz")
        result.update(traced_passes=traced, per_layer=per_layer,
                      explain_image_samples=explain_samples)

    result.update(attempted=run.attempted, failed=run.failed, failures=run.failures,
                  env=_environment())
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
