"""mhexlab benchmark: runs one workload of `mhex` commands and reports it.

    python3 perfbench/run.py --workload shapes_analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Set-up runs first, several times, each in a fresh interpreter: the `mhex
train` that makes the workload's CNN checkpoint, or `mhex --help` (interpreter
and import cost) for workloads that need none. Then worker.py runs the
workload in its own process. Set-up and pass times are scaled to a reference
host speed that hostspeed.py measures next to each of them; the raw times are
printed beside them. The script prints every metric by name and unit
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

# One BLAS/OpenMP thread: no more than nproc (2 on the reference box), and
# it keeps other processes on the machine from stalling a spinning peer.
# Set before numpy is imported here (by hostspeed) and in every child.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import hostspeed  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import FIXTURE_ARGV, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3       # fixture training, about 1.5 s each
HELP_REPEATS = 9        # `mhex --help`, about 0.2 s each
TIME_LIMIT_S = 170
E2E = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s", "peak_rss_mb": "MB"}


def _child_env():
    env = dict(os.environ)
    env.pop("MHEX_OUT", None)           # the CLI would write there instead of --out
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"         # same dict and set layouts in every process
    return env


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def run_workload(w, args):
    """Set up, measure and report one workload. Returns the JSON result
    object, or None when the workload could not be measured."""
    started = perf_counter()
    out = ROOT / ".bench_out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = _child_env()
    attempted = failed = 0
    failures = []

    setup_times = []
    repeats = SETUP_REPEATS if w.needs_fixture else HELP_REPEATS
    with hostspeed.Probe() as probe:
        probes = [probe()]
        for k in range(repeats):
            if w.needs_fixture:
                argv = FIXTURE_ARGV + ["--out", str(out / f"setup{k}")]
            else:
                argv = ["--help"]
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "mhexlab.cli"] + argv, cwd=ROOT,
                                  env=env, capture_output=True, text=True, timeout=TIME_LIMIT_S)
            setup_times.append(perf_counter() - t0)
            probes.append(probe())
            attempted += 1
            if proc.returncode != 0:
                failed += 1
                failures.append(f"set-up {k}: exit code {proc.returncode}: {proc.stderr[-300:]}")
    if w.needs_fixture:
        attempted += 1
        ckpts = {(out / f"setup{k}" / "checkpoint.ckpt").read_bytes()
                 for k in range(repeats)
                 if (out / f"setup{k}" / "checkpoint.ckpt").is_file()}
        if len(ckpts) != 1:
            failed += 1
            failures.append("set-up: repeated training gave different checkpoints")
        for k in range(1, repeats):     # the worker reads only setup0
            shutil.rmtree(out / f"setup{k}", ignore_errors=True)

    result_path = out / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", w.name,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--fixture-dir", str(out / "setup0"),
           "--out-dir", str(out), "--result", str(result_path)]
    remaining = TIME_LIMIT_S - (perf_counter() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        print(f"error: {w.name} did not finish within {TIME_LIMIT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: {w.name} worker exited with code {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    res = json.loads(result_path.read_text())
    attempted += res["attempted"]
    failed += res["failed"]
    failures += res["failures"]
    res["raw_setup_s"] = statistics.median(setup_times)
    res["setup_s"] = statistics.median(hostspeed.scaled(setup_times, probes))
    res["setup_runs_s"] = setup_times
    res["setup_probes_s"] = probes
    res["env"].update(git_sha=_git_sha(), seed=args.seed, workload=w.name)

    env_line = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"env: {env_line}")
    print(f"workload {w.name}: closed loop, 1 caller; {len(res['passes'])} timed "
          f"passes of {', '.join(f'{n} x{s}' for n, s in res['commands'])}")
    print(f"  times scaled to the reference host speed (probe median "
          f"{statistics.median(res['probes_s']):.4f} s, nominal {hostspeed.PROBE_NOMINAL_S} s)")
    print(f"  setup_s       {res['setup_s']:.4f} s   (median of {repeats} set-ups; "
          f"raw {res['raw_setup_s']:.4f} s)")
    print(f"  wall_s        {res['wall_s']:.4f} s   (median of {len(res['passes'])} passes; "
          f"raw {res['raw_wall_s']:.4f} s)")
    print(f"  samples_per_s {res['samples_per_s']:.4f} 1/s (raw {res['raw_samples_per_s']:.4f} 1/s)")
    for name, _ in res["commands"]:
        print(f"  {name}_samples_per_s {res[f'{name}_samples_per_s']:.4f} 1/s")
    print(f"  peak_rss_mb   {res['peak_rss_mb']:.1f} MB")
    print(f"  ops_failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)")
    for f in failures:
        print(f"  FAILED {f}")
    if args.trace:
        layer = res["per_layer"]
        for name, unit in PER_LAYER.items():
            print(f"  {name} {layer[name]:.6g} {unit}")
        print(f"  tracing overhead {layer['trace.overhead_s']:.4f} s per pass "
              f"(traced {layer['trace.wall_s']:.4f} s, untraced "
              f"{layer['trace.untraced_wall_s']:.4f} s); explain_image percentiles from "
              f"{res['explain_image_samples']} calls")
        metrics = {n: {"value": layer[n], "unit": u} for n, u in PER_LAYER.items()}
    else:
        metrics = {n: {"value": res[n], "unit": u} for n, u in E2E.items()}
    res["failures"] = failures
    (out / "result.json").write_text(json.dumps(res, indent=1))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mhexlab" / "cli.py").is_file():
        print(f"error: no mhexlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0
    # every workload in turn; the last line then keys each metric by workload
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS.values():
        result = run_workload(w, args)
        if result is None:
            return 1
        print(json.dumps(result))
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{w.name}.{n}": m for n, m in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
