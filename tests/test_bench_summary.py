"""scripts/bench_summary.py: the BENCH_<tag>.json summary of perfbench records."""

import importlib.util
import json
import os
import subprocess

import pytest

_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "scripts", "bench_summary.py")
_SPEC = importlib.util.spec_from_file_location("bench_summary", _PATH)
bench_summary = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_summary)


def record(workload, seed, wall_s, failed=0, trace=0):
    return {"workload": workload, "seed": seed, "seconds": 32, "trace": trace, "attempted": 120, "failed": failed,
            "measured_passes": 6, "probe_median_s": 0.008 + seed * 1e-4,
            "machine": {"nproc": 2, "cpu_model": "test"}, "op_medians_s": {"op": wall_s / 2},
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"}, "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}


def test_summary_reads_untraced_records_per_workload(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    runs = [record("certify", 1, 0.10), record("certify", 2, 0.30, failed=1), record("certify", 3, 0.20),
            record("certify", 4, 0.40), record("refine", 1, 0.5), record("certify", 5, 9.0, trace=1)]
    for r in runs:
        (results / f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json").write_text(json.dumps(r))
    out = tmp_path / "BENCH_x.json"
    assert bench_summary.main(["--results", str(results), "--tag", "x", "--commit", "abc", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["commit"] == "abc" and set(summary["workloads"]) == {"certify", "refine"}
    certify = summary["workloads"]["certify"]
    assert certify["runs"] == 4 and certify["seeds"] == [1, 2, 3, 4]
    assert certify["failed_of_attempted"] == "1/480"
    wall = certify["metrics"]["wall_s"]
    assert wall["unit"] == "s"
    assert [wall[k] for k in ("q1", "median", "q3", "iqr")] == pytest.approx([0.175, 0.25, 0.325, 0.15], abs=1e-15)
    assert certify["op_medians_s"] == {"op": 0.125}
    assert certify["machine"] == [{"nproc": 2, "cpu_model": "test"}]
    refine = summary["workloads"]["refine"]["metrics"]["wall_s"]
    assert (refine["q1"], refine["median"], refine["q3"], refine["iqr"]) == (0.5, 0.5, 0.5, 0.0)
    assert "baseline" in summary["numpy"]["simd"]


def write_bench(tmp_path, tag, runs):
    """A BENCH file from synthetic certify records, runs as (seed, wall_s)."""
    results = tmp_path / tag
    results.mkdir()
    for seed, wall_s in runs:
        (results / f"certify-seed{seed}-trace0.json").write_text(json.dumps(record("certify", seed, wall_s)))
    out = tmp_path / f"BENCH_{tag}.json"
    assert bench_summary.main(["--results", str(results), "--tag", tag, "--commit", tag, "--out", str(out)]) == 0
    return out


def test_summary_keeps_each_runs_value_by_seed(tmp_path):
    out = write_bench(tmp_path, "p", [(1, 0.25), (2, 0.5), (3, 0.125)])
    wall = json.loads(out.read_text())["workloads"]["certify"]["metrics"]["wall_s"]
    assert wall["by_seed"] == {"1": 0.25, "2": 0.5, "3": 0.125}
    assert wall["median"] == 0.25


def test_compare_prints_medians_iqr_and_seed_pairs(tmp_path, capsys):
    # seeds 1-4 run on both sides, seed 5 on the parent alone: the change
    # reads lower on seeds 1 and 3, ties on seed 2 and reads higher on seed 4
    parent = write_bench(tmp_path, "p", [(1, 0.5), (2, 0.25), (3, 0.75), (4, 0.25), (5, 1.0)])
    change = write_bench(tmp_path, "c", [(1, 0.25), (2, 0.25), (3, 0.5), (4, 0.5)])
    capsys.readouterr()
    assert bench_summary.main(["--compare", str(parent), str(change)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["certify peak_rss_mb: 40 -> 40 MB (+0.0%), parent IQR 0, pairs: 0/4 lower, verdict: within bound",
                     "certify wall_s: 0.5 -> 0.375 s (-25.0%), parent IQR 0.5, pairs: 2/4 lower, verdict: unresolved",
                     "certify op op: 250 -> 187.5 ms (-25.0%)"]
    assert sorted(path.name for path in tmp_path.glob("BENCH_*.json")) == ["BENCH_c.json", "BENCH_p.json"]


def test_compare_reads_older_files_without_runs_by_seed(tmp_path, capsys):
    parent = write_bench(tmp_path, "p", [(1, 0.5), (2, 0.25)])
    summary = json.loads(parent.read_text())
    for metric in summary["workloads"]["certify"]["metrics"].values():
        del metric["by_seed"]
    parent.write_text(json.dumps(summary))
    change = write_bench(tmp_path, "c", [(1, 0.25), (2, 0.25)])
    capsys.readouterr()
    assert bench_summary.main(["--compare", str(parent), str(change)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "certify wall_s: 0.375 -> 0.25 s (-33.3%), parent IQR 0.125, pairs: n/a, verdict: unresolved",
        "certify op op: 187.5 -> 125 ms (-33.3%)"]


def bench_file(path, workloads):
    """A BENCH file of workloads {name: (wall_s median, op medians or None)},
    one wall_s run by seed each; None leaves out op_medians_s, as in a file
    written before op medians were kept."""
    summary = {"workloads": {}}
    for name, (wall_s, ops) in workloads.items():
        wall = {"median": wall_s, "q1": wall_s, "q3": wall_s, "iqr": 0.0, "unit": "s", "by_seed": {"1": wall_s}}
        summary["workloads"][name] = {"metrics": {"wall_s": wall}}
        if ops is not None:
            summary["workloads"][name]["op_medians_s"] = ops
    path.write_text(json.dumps(summary))
    return str(path)


def test_compare_prints_each_ops_median_after_the_end_to_end_lines(tmp_path, capsys):
    # ops in both files only, by workload and op name, in ms; refine's change
    # file has no op medians, so refine gets none; an op that doubles does
    # not make the exit status
    parent = bench_file(tmp_path / "p.json", {"montecarlo": (0.5, {"cdf b": 0.3, "tube": 0.02, "gone": 0.1}),
                                              "certify": (0.1, {"winding": 0.004}),
                                              "refine": (0.08, {"tradeoff": 0.02})})
    change = bench_file(tmp_path / "c.json", {"montecarlo": (0.46, {"cdf b": 0.255, "tube": 0.04, "new": 0.1}),
                                              "certify": (0.1, {"winding": 0.004}),
                                              "refine": (0.08, None)})
    capsys.readouterr()
    assert bench_summary.main(["--compare", parent, change]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["certify wall_s", "montecarlo wall_s", "refine wall_s"]
    assert lines[3:] == ["certify op winding: 4 -> 4 ms (+0.0%)",
                         "montecarlo op cdf b: 300 -> 255 ms (-15.0%)",
                         "montecarlo op tube: 20 -> 40 ms (+100.0%)"]
    worse = bench_file(tmp_path / "w.json", {"montecarlo": (0.7, {"cdf b": 0.15})})
    assert bench_summary.main(["--compare", parent, worse]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "montecarlo op cdf b: 300 -> 150 ms (-50.0%)"


PARENT = [(seed, 1.0 + 0.01 * seed) for seed in range(1, 11)]


def compare_wall(tmp_path, capsys, change, parent=PARENT, by_seed=True):
    """--compare's exit status and wall_s verdict for synthetic certify runs
    (seed, wall_s) on each side, against the repository's BENCHMARK.json."""
    tmp_path.mkdir(exist_ok=True)
    paths = [write_bench(tmp_path, tag, runs) for tag, runs in (("p", parent), ("c", change))]
    if not by_seed:
        summary = json.loads(paths[0].read_text())
        del summary["workloads"]["certify"]["metrics"]["wall_s"]["by_seed"]
        paths[0].write_text(json.dumps(summary))
    capsys.readouterr()
    status = bench_summary.main(["--compare", *map(str, paths)])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("verdict: within bound")  # peak_rss_mb, 40 MB on both sides
    return status, lines[1].rpartition("verdict: ")[2]


def test_compare_bounds_are_the_benchmarks():
    bounds = bench_summary.end_to_end_bounds()
    assert set(bounds) == {"setup_s", "wall_s", "peak_rss_mb"}
    assert bounds["wall_s"] == (0.25, "lower")


def test_compare_gives_worse_past_the_bound_and_exits_1(tmp_path, capsys):
    # parent median 1.055 s: the bound is 25% of it, 0.264 s
    assert compare_wall(tmp_path, capsys, [(s, w + 0.30) for s, w in PARENT]) == (1, "worse")


def test_compare_stays_within_bound_on_a_small_rise(tmp_path, capsys):
    assert compare_wall(tmp_path, capsys, [(s, w + 0.20) for s, w in PARENT]) == (0, "within bound")


def test_compare_gives_gain_on_nine_of_ten_pairs_past_the_iqr(tmp_path, capsys):
    # parent IQR 0.045 s; nine seeds read 0.1 s lower and seed 10 reads higher
    change = [(s, w - 0.1) for s, w in PARENT[:9]] + [(10, 1.2)]
    assert compare_wall(tmp_path, capsys, change) == (0, "gain")
    change = [(s, w - 0.1) for s, w in PARENT[:8]] + [(9, 1.2), (10, 1.2)]
    assert compare_wall(tmp_path / "eight", capsys, change) == (0, "within bound")
    change = [(s, w - 0.04) for s, w in PARENT]
    assert compare_wall(tmp_path / "small", capsys, change) == (0, "within bound")


def test_compare_never_gives_gain_without_runs_by_seed(tmp_path, capsys):
    change = [(s, w - 0.1) for s, w in PARENT]
    assert compare_wall(tmp_path, capsys, change, by_seed=False) == (0, "within bound")


def test_compare_gives_unresolved_when_the_parent_spreads_past_the_bound(tmp_path, capsys):
    # parent IQR 0.45 s against a bound of 0.31 s: unresolved unless every
    # change run beats every parent run
    parent = [(seed, 0.5 + 0.1 * seed) for seed in range(1, 11)]
    assert compare_wall(tmp_path, capsys, [(s, 1.0) for s, _ in parent], parent) == (0, "unresolved")
    assert compare_wall(tmp_path / "all", capsys, [(s, 0.55) for s, _ in parent], parent) == (0, "gain")


def test_trajectory_multiplies_the_pairs_median_ratios(tmp_path, capsys):
    # three chained pairs whose certify wall_s medians move x0.5, x1.5 and
    # x0.8: the product is 0.6; each parent's IQR/median adds to the spread
    steps = [(1.0, 0.5), (0.5, 0.75), (0.75, 0.6)]
    files = []
    for i, (before, after) in enumerate(steps):
        for tag, median in ((f"p{i}", before), (f"c{i}", after)):
            files.append(write_bench(tmp_path, tag, [(1, 0.75 * median), (2, median), (3, 1.25 * median)]))
    capsys.readouterr()
    assert bench_summary.main(["--trajectory", *map(str, files)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("indicative only: pairs 3,")
    # quartiles of (0.75, 1, 1.25) x median are 0.875 and 1.125, so each
    # parent's IQR/median is 0.25 and three of them add to 0.75
    assert lines[1:] == ["certify peak_rss_mb: x1 (+0.0%), spread 0", "certify wall_s: x0.6 (-40.0%), spread 0.75"]
    assert len(list(tmp_path.glob("BENCH_*.json"))) == 6


def test_trajectory_refuses_an_odd_number_of_files(tmp_path, capsys):
    parent = write_bench(tmp_path, "p", [(1, 0.5)])
    with pytest.raises(SystemExit) as raised:
        bench_summary.main(["--trajectory", str(parent)])
    assert raised.value.code == 2
    assert "even number of files" in capsys.readouterr().err


def test_trajectory_without_files_pairs_each_file_with_its_nearest_ancestors(tmp_path, capsys):
    # four commits: the program changes, changes, gains only a docstring and
    # a comment, and changes; one BENCH file per commit, tagged with it and
    # named so that name order is the reverse of git order
    def git(*args):
        return subprocess.run(["git", "-C", str(tmp_path), *args], check=True, capture_output=True, text=True).stdout

    def retag(out, commit, tag):
        out.write_text(json.dumps(dict(json.loads(out.read_text()), commit=commit, tag=tag)))

    git("init", "-q")
    (tmp_path / "src").mkdir()
    files, commits = [], []
    for name, program in (("d", "x = 1\n"), ("c", "x = 2\n"), ("b", '"""Doc."""\nx = 2  # why\n'), ("a", "x = 3\n")):
        (tmp_path / "src" / "m.py").write_text(program)
        git("add", "src")
        git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", name)
        out = write_bench(tmp_path, name, [(1, 0.5)])
        commits.append(git("rev-parse", "--short", "HEAD").strip())
        retag(out, commits[-1], commits[-1])
        files.append(str(out))
    d, c, b, a = files
    assert bench_summary.committed_pairs(str(tmp_path)) == [(d, c), (b, a)]
    # a second and a third file of commit c: an anchor pair's summary, whose
    # tag names no commit and whose name sorts first, and a file tagged with
    # a shorter prefix of c's commit; neither is chained
    retag(write_bench(tmp_path, "c-anchor", [(1, 0.6)]), commits[1], "c-anchor")
    retag(write_bench(tmp_path, "x", [(1, 0.6)]), commits[1], commits[1][:4])
    capsys.readouterr()
    assert bench_summary.committed_pairs(str(tmp_path)) == [(d, c), (b, a)]
    skipped = "skipped {}: not the one file tagged with its commit " + commits[1]
    assert capsys.readouterr().err.splitlines() == [skipped.format("BENCH_c-anchor.json"), skipped.format("BENCH_x.json")]
