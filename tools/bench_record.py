"""Record the benchmark of a source tree into one ``BENCH_<label>.json``.

    python3 tools/bench_record.py --label pr21 --seeds 5 --seconds 24
    python3 tools/bench_record.py --label pr23 --parent ../parent --seeds 5
    python3 tools/bench_record.py --check BENCH_pr21.json

Runs the tree's own ``perfbench/run.py --workload all --trace 0`` once per
seed (seeds 1..N), then once with ``--trace 1`` (seed 1). With ``--parent
TREE`` it runs that tree too, alternating the two seed by seed (the parent
first on odd seeds, its traced run first), so that host drift falls on both
alike, and writes the parent's record as ``BENCH_<label>_parent.json``. From
the last JSON line of each run it writes, to ``<out-dir>/BENCH_<label>.json``:

- ``env``: the run's environment record (its ``env:`` lines, without the
  seed and workload, which are the same for every run and workload);
- ``git_sha`` of the tree, or null outside a git checkout;
- ``git_dirty``: whether tracked files under the tree's ``src/`` or
  ``perfbench/`` differ from that commit (``git status --porcelain
  --untracked-files=no -- src perfbench`` prints a line), or null outside a
  git checkout; a dirty record measured code that ``git_sha`` does not hold;
- ``end_to_end``: per workload and metric, the unit, the value of every
  seed and their median and quartiles;
- ``per_layer``: per workload, the traced run's metrics, whose times are
  raw seconds of that run's host;
- ``trace_host_speed``: per workload, the traced run's ``wall_s /
  raw_wall_s`` (read from the ``result.json`` that ``run.py`` leaves in
  ``.bench_out/<workload>-seed<s>-trace1/``), the factor that scales its raw
  seconds to the reference host speed of the end-to-end times; so two
  records' per-layer times compare at one host speed;
- ``correct``, ``attempted`` and ``failed`` summed over all runs;
- ``schema``: 3. Records without it (``BENCH_pr20.json``,
  ``BENCH_pr21.json``) are schema 1, which has no ``trace_host_speed``;
  schema 2 (up to ``BENCH_pr25.json``) has no ``git_dirty``.

``--check`` loads a record and exits 1 if a field of its schema is missing.
Nothing under ``perfbench/`` is changed; each run leaves its outputs in the
tree's ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIELDS = ("label", "git_sha", "env", "seeds", "seconds", "trace_seed",
          "correct", "attempted", "failed", "end_to_end", "per_layer")
SCHEMA = 3
FIELDS_SINCE = {2: ("trace_host_speed",), 3: ("git_dirty",)}
SUMMARY = ("unit", "values", "median", "q1", "q3")


def parse_run(stdout):
    """(env, result) of one ``run.py --workload all`` output: the fields of
    its ``env:`` lines that every workload shares, and its last JSON line."""
    envs = []
    for line in stdout.splitlines():
        if line.startswith("env: "):
            # values may hold spaces ("blas=scipy-openblas 0.3.31"), keys not
            pairs = re.split(r" (?=\w+=)", line[len("env: "):])
            envs.append(dict(p.split("=", 1) for p in pairs))
    if not envs:
        raise ValueError("no env: line in the run's output")
    shared = {k: v for k, v in envs[0].items() if k not in ("seed", "workload")}
    if any({k: e.get(k) for k in shared} != shared for e in envs):
        raise ValueError("the workloads of one run report different environments")
    return shared, json.loads(stdout.strip().splitlines()[-1])


def _by_workload(metrics):
    """``{"shapes_train.wall_s": m}`` -> ``{"shapes_train": {"wall_s": m}}``."""
    out = {}
    for key, m in metrics.items():
        workload, name = key.split(".", 1)
        out.setdefault(workload, {})[name] = m
    return out


def _summary(values):
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"values": values, "median": med, "q1": q1, "q3": q3}


def host_speed(root, seed, workloads):
    """``{workload: wall_s / raw_wall_s}`` of the traced run of ``seed``,
    from the ``result.json`` files that ``run.py`` left under ``root``."""
    speed = {}
    for w in workloads:
        res = json.loads((root / ".bench_out" / f"{w}-seed{seed}-trace1" / "result.json")
                         .read_text())
        speed[w] = res["wall_s"] / res["raw_wall_s"]
    return speed


def git_dirty(root):
    """Whether tracked files under ``root``'s ``src/`` or ``perfbench/``
    differ from its commit; None unless ``root`` is a git checkout (the rule
    of ``run.py``'s ``git_sha``)."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no", "--",
                           "src", "perfbench"], cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        return None
    return bool(proc.stdout)


def build_record(label, seeds, seconds, untraced, traced, trace_host_speed, dirty):
    """The record of ``untraced`` (one ``parse_run`` result per seed),
    ``traced`` (one, with ``--trace 1``), the traced run's ``host_speed``
    and the tree's ``git_dirty``."""
    runs = untraced + [traced]
    env = runs[0][0]
    if any(e != env for e, _ in runs):
        raise ValueError("the runs report different environments")
    end_to_end = {}
    for workload, names in _by_workload(untraced[0][1]["metrics"]).items():
        end_to_end[workload] = {}
        for name, m in names.items():
            values = [_by_workload(r["metrics"])[workload][name]["value"] for _, r in untraced]
            end_to_end[workload][name] = {"unit": m["unit"], **_summary(values)}
    return {
        "schema": SCHEMA,
        "label": label,
        "git_sha": None if env.get("git_sha") in (None, "None") else env["git_sha"],
        "git_dirty": dirty,
        "env": env,
        "seeds": seeds,
        "seconds": seconds,
        "trace_seed": seeds[0],
        "correct": all(r["correct"] for _, r in runs),
        "attempted": sum(r["attempted"] for _, r in runs),
        "failed": sum(r["failed"] for _, r in runs),
        "end_to_end": end_to_end,
        "per_layer": _by_workload(traced[1]["metrics"]),
        "trace_host_speed": trace_host_speed,
    }


def check_record(record):
    """Raise ``ValueError`` naming the first missing or empty field of the
    record's schema."""
    schema = record.get("schema", 1)
    if schema not in range(1, SCHEMA + 1):
        raise ValueError(f"unknown schema {schema!r}")
    for field in FIELDS + tuple(f for s, fs in FIELDS_SINCE.items() if s <= schema for f in fs):
        if field not in record:
            raise ValueError(f"no field {field!r}")
    if not record["end_to_end"] or set(record["end_to_end"]) != set(record["per_layer"]):
        raise ValueError("end_to_end and per_layer must name the same workloads")
    if schema >= 3 and not isinstance(record["git_dirty"], (bool, type(None))):
        raise ValueError("git_dirty must be true, false or null")
    if schema >= 2:
        speed = record["trace_host_speed"]
        if set(speed) != set(record["per_layer"]) or \
                not all(isinstance(v, float) and v > 0 for v in speed.values()):
            raise ValueError("trace_host_speed needs a positive factor per workload")
    for workload, names in record["end_to_end"].items():
        for name, m in names.items():
            missing = [k for k in SUMMARY if k not in m]
            if missing or len(m["values"]) != len(record["seeds"]):
                raise ValueError(f"{workload}.{name}: missing {missing} or a seed's value")
        for name, m in record["per_layer"][workload].items():
            if set(m) != {"value", "unit"}:
                raise ValueError(f"{workload}.{name}: per-layer metric needs value and unit")


def _run(root, seed, seconds, trace):
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    print("$", " ".join(cmd[1:]), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"error: run.py exited with code {proc.returncode}")
    return parse_run(proc.stdout)


def record_trees(trees, seeds, seconds):
    """``{label: record}`` of each ``(label, root)`` of ``trees``: their
    untraced runs alternate seed by seed, in the order of ``trees`` on odd
    seeds and reversed on even ones, then their traced runs of the first
    seed follow in order. Each traced run's host speed is read before the
    next run, which may write the same ``.bench_out/`` (one tree twice)."""
    untraced = {name: [] for name, _ in trees}
    for s in seeds:
        for name, root in (trees if s % 2 else trees[::-1]):
            untraced[name].append(_run(root, s, seconds, 0))
    records = {}
    for name, root in trees:
        traced = _run(root, seeds[0], seconds, 1)
        speed = host_speed(root, seeds[0], _by_workload(traced[1]["metrics"]))
        records[name] = build_record(name, seeds, seconds, untraced[name], traced, speed,
                                     git_dirty(root))
        check_record(records[name])
    return records


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="names the file BENCH_<label>.json")
    ap.add_argument("--seeds", type=int, default=5, help="untraced runs, seeds 1..N")
    ap.add_argument("--seconds", type=float, default=24, help="run.py --seconds")
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="the source tree whose perfbench/run.py runs (default: this one)")
    ap.add_argument("--parent", type=Path, metavar="TREE",
                    help="also record this tree, in alternation, as BENCH_<label>_parent.json")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    ap.add_argument("--check", type=Path, metavar="FILE", help="only check a record")
    args = ap.parse_args(argv)
    if args.check is not None:
        try:
            check_record(json.loads(args.check.read_text()))
        except (OSError, ValueError) as exc:
            print(f"error: {args.check}: {exc}", file=sys.stderr)
            return 1
        return 0
    if not args.label or args.seeds < 1:
        ap.error("--label and --seeds >= 1 are required to record")
    trees = [(args.label, args.root.resolve())]
    if args.parent is not None:
        trees.insert(0, (f"{args.label}_parent", args.parent.resolve()))
    records = record_trees(trees, list(range(1, args.seeds + 1)), args.seconds)
    for name, record in records.items():
        path = args.out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(f"wrote {path}; correct={record['correct']}", file=sys.stderr)
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
