"""``tools/bench_record.py`` on stored ``perfbench/run.py`` output (two
untraced seeds and one traced run at ``--seconds 1``, cut to their ``env:``
lines and last JSON line, a few per-layer metrics kept) and on the committed
``BENCH_*.json`` records. No benchmark runs here."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = Path(__file__).resolve().parent / "data" / "bench"
WORKLOADS = {"shapes_train", "shapes_explain_eval", "shapes_analyze", "tokens_pipeline"}
SPEED = {w: 1.0 + k / 8 for k, w in enumerate(sorted(WORKLOADS))}


def _tool():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def tool():
    return _tool()


@pytest.fixture(scope="module")
def record(tool):
    untraced = [tool.parse_run((SAMPLE / f"seed{s}.txt").read_text()) for s in (1, 2)]
    traced = tool.parse_run((SAMPLE / "trace1.txt").read_text())
    return tool.build_record("sample", [1, 2], 1.0, untraced, traced, SPEED, False)


def test_record_of_stored_runs_has_every_field(tool, record):
    tool.check_record(record)
    assert set(record["end_to_end"]) == WORKLOADS == set(record["per_layer"])
    assert record["env"]["blas_threads"] == "1"
    assert "seed" not in record["env"] and "workload" not in record["env"]
    assert record["git_sha"] == record["env"]["git_sha"]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    for names in record["end_to_end"].values():
        assert set(names) == {"setup_s", "wall_s", "samples_per_s", "peak_rss_mb"}
        for m in names.values():
            assert m["q1"] <= m["median"] <= m["q3"]
            assert min(m["values"]) <= m["q1"] and m["q3"] <= max(m["values"])


def test_median_and_quartiles_of_the_seeds(tool, record):
    a, b = record["end_to_end"]["shapes_train"]["peak_rss_mb"]["values"]
    m = record["end_to_end"]["shapes_train"]["peak_rss_mb"]
    assert m["median"] == pytest.approx((a + b) / 2)
    assert m["q1"] == pytest.approx(min(a, b) + abs(a - b) / 4)
    one = tool.build_record("one", [1], 1.0, [tool.parse_run((SAMPLE / "seed1.txt").read_text())],
                            tool.parse_run((SAMPLE / "trace1.txt").read_text()), SPEED, None)
    m = one["end_to_end"]["tokens_pipeline"]["wall_s"]
    assert m["values"] == [m["q1"]] == [m["median"]] == [m["q3"]]


def test_check_names_a_missing_field(tool, record, tmp_path):
    for field in tool.FIELDS:
        broken = {k: v for k, v in record.items() if k != field}
        with pytest.raises(ValueError, match=field):
            tool.check_record(broken)
    broken = json.loads(json.dumps(record))
    del broken["end_to_end"]["shapes_train"]["wall_s"]["q3"]
    path = tmp_path / "BENCH_broken.json"
    path.write_text(json.dumps(broken))
    assert tool.main(["--check", str(path)]) == 1
    path.write_text(json.dumps(record))
    assert tool.main(["--check", str(path)]) == 0
    assert tool.main(["--check", str(tmp_path / "missing.json")]) == 1


def test_runs_of_two_environments_are_not_mixed(tool):
    text = (SAMPLE / "seed1.txt").read_text()
    run = tool.parse_run(text)
    other = tool.parse_run(text.replace("blas_threads=1", "blas_threads=2"))
    with pytest.raises(ValueError, match="environments"):
        tool.build_record("mixed", [1], 1.0, [run], other, SPEED, None)


def test_committed_records_pass_the_check(tool):
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert len(paths) >= 2
    for path in paths:
        rec = json.loads(path.read_text())
        tool.check_record(rec)
        assert rec["label"] == path.stem[len("BENCH_"):]
        assert rec["correct"] and set(rec["end_to_end"]) == WORKLOADS


def test_host_speed_of_the_traced_runs(tool, tmp_path):
    """The factor is each traced run's scaled over raw pass time, read from
    the result.json that run.py leaves under .bench_out/."""
    for k, w in enumerate(sorted(WORKLOADS)):
        out = tmp_path / ".bench_out" / f"{w}-seed3-trace1"
        out.mkdir(parents=True)
        (out / "result.json").write_text(json.dumps({"wall_s": 0.5 * (k + 1), "raw_wall_s": 0.4}))
    speed = tool.host_speed(tmp_path, 3, WORKLOADS)
    assert speed == {w: 0.5 * (k + 1) / 0.4 for k, w in enumerate(sorted(WORKLOADS))}


def test_new_records_need_the_host_speed(tool, record):
    """A record of schema 2 or later without the factor, or with one
    missing, zero or not a float, fails the check; a schema-1 record (the
    first two committed ones) needs none."""
    assert record["schema"] == 3 and record["trace_host_speed"] == SPEED
    broken = {k: v for k, v in record.items() if k != "trace_host_speed"}
    with pytest.raises(ValueError, match="trace_host_speed"):
        tool.check_record(broken)
    for speed in ({w: v for w, v in SPEED.items() if w != "shapes_train"},
                  dict(SPEED, shapes_train=0.0), dict(SPEED, shapes_train=1)):
        with pytest.raises(ValueError, match="trace_host_speed"):
            tool.check_record(dict(record, trace_host_speed=speed))
    with pytest.raises(ValueError, match="schema"):
        tool.check_record(dict(record, schema=4))
    old = {k: v for k, v in broken.items() if k != "schema"}
    tool.check_record(old)
    for name in ("pr20", "pr21"):
        rec = json.loads((ROOT / f"BENCH_{name}.json").read_text())
        assert "schema" not in rec and "trace_host_speed" not in rec
        tool.check_record(rec)


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=root, check=True, capture_output=True)


def test_git_dirty_of_a_tree(tool, record, tmp_path):
    """``git_dirty`` is true only while a tracked file under ``src/`` or
    ``perfbench/`` differs from the commit, and null outside git; schema 3
    needs the field, as true, false or null, and schema 2 does not."""
    assert tool.git_dirty(tmp_path) is None
    for name in ("src/a.py", "perfbench/b.py", "notes.md"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text("x\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "tree")
    assert tool.git_dirty(tmp_path) is False
    (tmp_path / "notes.md").write_text("y\n")
    (tmp_path / "src" / "new.py").write_text("untracked\n")
    assert tool.git_dirty(tmp_path) is False
    for name in ("src/a.py", "perfbench/b.py"):
        (tmp_path / name).write_text("y\n")
        assert tool.git_dirty(tmp_path) is True
        _git(tmp_path, "checkout", "-q", "--", name)
    assert tool.git_dirty(tmp_path) is False
    assert record["git_dirty"] is False
    for dirty in (True, None):
        tool.check_record(dict(record, git_dirty=dirty))
    for dirty in (1, "false"):
        with pytest.raises(ValueError, match="git_dirty"):
            tool.check_record(dict(record, git_dirty=dirty))
    no_field = {k: v for k, v in record.items() if k != "git_dirty"}
    with pytest.raises(ValueError, match="git_dirty"):
        tool.check_record(no_field)
    tool.check_record(dict(no_field, schema=2))


def test_parent_runs_alternate_seed_by_seed(tool, monkeypatch, tmp_path):
    """``--parent`` runs the two trees in alternation, the parent first on odd
    seeds and in the traced runs, and writes a record of each; no benchmark
    runs here (the runner is stubbed)."""
    calls = []

    def run(root, seed, seconds, trace):
        calls.append((root.name, seed, trace))
        return tool.parse_run((SAMPLE / ("trace1.txt" if trace else "seed1.txt")).read_text())

    monkeypatch.setattr(tool, "_run", run)
    monkeypatch.setattr(tool, "host_speed", lambda root, seed, workloads: dict(SPEED))
    tree, parent, out = tmp_path / "tree", tmp_path / "parent", tmp_path / "out"
    out.mkdir()
    assert tool.main(["--label", "x", "--root", str(tree), "--parent", str(parent),
                      "--seeds", "3", "--seconds", "1", "--out-dir", str(out)]) == 0
    assert calls == [("parent", 1, 0), ("tree", 1, 0), ("tree", 2, 0), ("parent", 2, 0),
                     ("parent", 3, 0), ("tree", 3, 0), ("parent", 1, 1), ("tree", 1, 1)]
    assert sorted(p.name for p in out.iterdir()) == ["BENCH_x.json", "BENCH_x_parent.json"]
    for label in ("x", "x_parent"):
        rec = json.loads((out / f"BENCH_{label}.json").read_text())
        tool.check_record(rec)
        assert rec["label"] == label and rec["seeds"] == [1, 2, 3]
        assert rec["trace_host_speed"] == SPEED and set(rec["end_to_end"]) == WORKLOADS
        assert rec["schema"] == 3 and rec["git_dirty"] is None


BETTER = {"setup_s": "lower", "wall_s": "lower", "samples_per_s": "higher", "peak_rss_mb": "lower"}
RSS = ("shapes_train", "peak_rss_mb")
SPEED_METRIC = ("shapes_train", "samples_per_s")


def _ten_seeds(tool, record, values):
    """``record`` with seeds 1..10, every end-to-end metric 1.0 on every
    seed but those of ``values`` ({(workload, metric): ten values})."""
    rec = json.loads(json.dumps(record))
    rec["seeds"] = list(range(1, 11))
    for workload, names in rec["end_to_end"].items():
        for name, m in names.items():
            m.update(tool._summary(list(values.get((workload, name), [1.0] * 10))))
    tool.check_record(rec)
    return rec


def test_compare_counts_won_pairs_and_the_gain_rule(tool, record):
    """Pairs go seed by seed in the metric's better direction, a tie wins
    for neither; the gain rule needs ten pairs or more, nine tenths of them
    won and a median gain above the parent's interquartile range."""
    parent_rss = [119.0 + 0.1 * k for k in range(10)]          # IQR 0.45
    parent = _ten_seeds(tool, record, {RSS: parent_rss, SPEED_METRIC: [100.0] * 10})

    def row(rss, speed, base=parent):
        change = _ten_seeds(tool, record, {RSS: rss, SPEED_METRIC: speed})
        rows = {(r["workload"], r["metric"]): r for r in tool.compare(base, change, BETTER)}
        assert len(rows) == 16 and rows[RSS]["pairs"] == 10
        return rows

    rows = row([v - 4 for v in parent_rss[:9]] + [parent_rss[9] + 0.5], [110.0] * 10)
    assert (rows[RSS]["won"], rows[RSS]["claim"]) == (9, True)
    assert rows[RSS]["gain"] == pytest.approx(4.0) and rows[RSS]["parent_iqr"] == pytest.approx(0.45)
    assert (rows[SPEED_METRIC]["won"], rows[SPEED_METRIC]["gain"], rows[SPEED_METRIC]["claim"]) \
        == (10, 10.0, True)
    tie = rows[("tokens_pipeline", "wall_s")]
    assert (tie["won"], tie["gain"], tie["claim"]) == (0, 0.0, False)
    rows = row([v - 4 for v in parent_rss[:8]] + parent_rss[8:], [90.0] * 10)
    assert (rows[RSS]["won"], rows[RSS]["claim"]) == (8, False)
    assert (rows[SPEED_METRIC]["won"], rows[SPEED_METRIC]["gain"]) == (0, -10.0)
    rows = row([v - 0.3 for v in parent_rss], [100.0] * 10)
    assert (rows[RSS]["won"], rows[RSS]["claim"]) == (10, False)      # 0.3 < IQR
    few = tool.compare(record, json.loads(json.dumps(record)), BETTER)
    assert not any(r["claim"] for r in few) and all(r["pairs"] == 2 for r in few)
    with pytest.raises(ValueError, match="seeds"):
        tool.compare(record, parent, BETTER)


def test_compare_reads_a_record_and_its_parent_twin(tool, record, tmp_path, capsys):
    """``--compare BENCH_x.json`` reads ``BENCH_x_parent.json`` beside it and
    prints a header and one line per workload and end-to-end metric; without
    the twin it exits 1."""
    parent_rss = [119.0 + 0.1 * k for k in range(10)]
    parent = _ten_seeds(tool, record, {RSS: parent_rss})
    change = _ten_seeds(tool, record, {RSS: [v - 4 for v in parent_rss]})
    (tmp_path / "BENCH_x.json").write_text(json.dumps(change))
    (tmp_path / "BENCH_x_parent.json").write_text(json.dumps(parent))
    assert tool.main(["--compare", str(tmp_path / "BENCH_x.json")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 17 and lines[0].startswith("workload")
    rss = [ln for ln in lines if ln.startswith("shapes_train") and "peak_rss_mb" in ln]
    assert len(rss) == 1 and "10/10" in rss[0] and rss[0].endswith("holds")
    assert sum(ln.endswith("holds") for ln in lines) == 1
    (tmp_path / "BENCH_x_parent.json").unlink()
    assert tool.main(["--compare", str(tmp_path / "BENCH_x.json")]) == 1
