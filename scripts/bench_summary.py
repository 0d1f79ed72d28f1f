"""Summarize perfbench run records into one small BENCH_<tag>.json, or
compare two such files.

    python3 scripts/bench_summary.py --results perfbench/results --tag 9c5a0d8
    python3 scripts/bench_summary.py --compare BENCH_9c5a0d8.json BENCH_ec5c955.json
    python3 scripts/bench_summary.py --trajectory BENCH_9c5a0d8.json BENCH_ec5c955.json \
        BENCH_ec5c955.json BENCH_26c116e.json
    python3 scripts/bench_summary.py --trajectory

``perfbench/run.py`` writes one record per run, named
``<workload>-seed<seed>-trace<trace>.json``, under ``perfbench/results/``.
This script only reads them: it reads every untraced (``trace0``) record in
the results directory and writes, per workload,

- the median, first and third quartiles and IQR of each end-to-end metric
  (quartiles as ``statistics.quantiles(..., method="inclusive")``, which is
  numpy's default linear interpolation), over the runs, and each run's
  value by its seed (``by_seed``);
- the run count, the seeds, the measured passes, and failed/attempted ops;
- the median of the runs' probe medians, and each op's median over the
  runs' op medians (seconds at the probe's nominal host speed);
- the machine facts the records carry.

It adds numpy's SIMD targets and the core name of numpy's bundled OpenBLAS,
as this interpreter sees them, and the git commit the runs measured: give it
with ``--commit`` when the results come from a copy that is not a git
checkout.

``--compare PARENT CHANGE`` reads two such files and writes nothing.  Per
workload and end-to-end metric in both, it prints the two medians, the
change in percent, the parent's IQR, and on how many of the seeds run on
both sides the change read lower (ties count for neither side).  A file
written before runs were kept by seed gives "pairs: n/a".  Each metric that
the repository's ``BENCHMARK.json`` lists under ``end_to_end`` also gets one
verdict, its ``bound`` read as a fraction of the parent median:

- ``worse``: the change median is worse than the parent median by more than
  the bound;
- ``unresolved``: the parent IQR exceeds the bound, and not every change run
  beats every parent run;
- ``gain``: the change is better on at least 9 in 10 of the seeds run on
  both sides, and its median by more than the parent IQR;
- ``within bound``: any other case.

A file without runs by seed never gives ``gain``.  After those lines it
prints, per workload, each op's median in both files (``op_medians_s``),
parent -> change in milliseconds with the change in percent; a file
without op medians gives no such lines.  The exit status is 1 when any
verdict is ``worse``, and the op medians never set it.

``--trajectory PARENT CHANGE [PARENT CHANGE ...]`` reads such files as
pairs, in the order given, and writes nothing.  Per workload and
end-to-end metric in every file, it prints the product of the pairs'
change/parent median ratios, and beside it the sum of the parents'
IQR/median as its spread.  The figures are indicative: each pair was run
in its own session, so a product cannot tell drift from noise, and the
output's first line says so.  An odd number of files exits 2.

``--trajectory`` with no files reads every ``BENCH_*.json`` at the root of
this repository, one file per commit: the one whose tag is a prefix of its
commit, as a PR's own ``BENCH_<commit>.json`` is.  It names any other file
of that commit on stderr as skipped, such as an anchor pair's summary, whose
parent is an older anchor and not the commit's parent.  It pairs each file
with the file of its commit's nearest ancestor commit that has one, when
the program differs between the two commits: some file under ``src/``
differs other than by docstrings and comments.  So a second session on the
same program pairs with nothing.  It prints each pair to stderr, and then
the trajectory of the pairs, taken in git ancestry order.
"""

from __future__ import annotations

import argparse
import ast
import ctypes
import glob
import json
import os
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def quartiles(values) -> dict:
    """Median, quartiles and IQR of values; one value is its own quartiles."""
    values = sorted(values)
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def openblas_core():
    """The kernel core numpy's bundled OpenBLAS picked on this CPU, or None."""
    paths = []
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    except OSError:
        pass
    paths += glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in paths:
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_char_p
        return get().decode()
    return None


def git_commit(directory: str):
    done = subprocess.run(["git", "-C", directory, "rev-parse", "HEAD"], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def metric(records: list, name: str) -> dict:
    """One metric's quartiles, unit and value by seed over the runs that
    report it."""
    values = [r["metrics"][name]["value"] for r in records]
    return dict(quartiles(values), unit=records[0]["metrics"][name]["unit"],
                by_seed={str(r["seed"]): value for r, value in zip(records, values)})


def end_to_end_bounds(path: str = BENCHMARK) -> dict:
    """Each end-to-end metric's (bound, better) from a BENCHMARK.json."""
    with open(path, encoding="utf-8") as fh:
        return {e["name"]: (e["bound"], e["better"]) for e in json.load(fh)["end_to_end"]}


def verdict(p: dict, c: dict, bound: float, better: str) -> str:
    """One metric's verdict, parent p against change c, as the module
    docstring lists; values are negated where higher is better."""
    sign = 1.0 if better == "lower" else -1.0
    slack = bound * abs(p["median"])
    if sign * (c["median"] - p["median"]) > slack:
        return "worse"
    runs = "by_seed" in p and "by_seed" in c
    if p["iqr"] > slack and not (runs and max(sign * v for v in c["by_seed"].values())
                                 < min(sign * v for v in p["by_seed"].values())):
        return "unresolved"
    if runs:
        seeds = set(p["by_seed"]) & set(c["by_seed"])
        better_on = sum(sign * c["by_seed"][s] < sign * p["by_seed"][s] for s in seeds)
        if seeds and 10 * better_on >= 9 * len(seeds) and sign * (p["median"] - c["median"]) > p["iqr"]:
            return "gain"
    return "within bound"


def compare(parent: dict, change: dict, bounds: dict) -> list:
    """The lines ``--compare`` prints, as the module docstring lists, given
    ``end_to_end_bounds``."""
    lines = []
    for name in sorted(set(parent["workloads"]) & set(change["workloads"])):
        before, after = parent["workloads"][name]["metrics"], change["workloads"][name]["metrics"]
        for key in sorted(set(before) & set(after)):
            p, c = before[key], after[key]
            if "by_seed" in p and "by_seed" in c:
                seeds = set(p["by_seed"]) & set(c["by_seed"])
                lower = sum(c["by_seed"][s] < p["by_seed"][s] for s in seeds)
                pairs = f"{lower}/{len(seeds)} lower"
            else:
                pairs = "n/a"
            line = (f"{name} {key}: {p['median']:.4g} -> {c['median']:.4g} {p['unit']} "
                    f"({100.0 * (c['median'] - p['median']) / p['median']:+.1f}%), "
                    f"parent IQR {p['iqr']:.3g}, pairs: {pairs}")
            if key in bounds:
                line += f", verdict: {verdict(p, c, *bounds[key])}"
            lines.append(line)
    for name in sorted(set(parent["workloads"]) & set(change["workloads"])):
        before = parent["workloads"][name].get("op_medians_s", {})
        after = change["workloads"][name].get("op_medians_s", {})
        for op in sorted(set(before) & set(after)):
            p, c = before[op], after[op]
            lines.append(f"{name} op {op}: {1e3 * p:.4g} -> {1e3 * c:.4g} ms ({100.0 * (c - p) / p:+.1f}%)")
    return lines


def trajectory(files: list, names) -> list:
    """The lines ``--trajectory`` prints, as the module docstring lists,
    given the files as parent, change, parent, change, ... and the metric
    names to read."""
    pairs = list(zip(files[::2], files[1::2]))
    lines = [f"indicative only: pairs {len(pairs)}, each from its own session, "
             "so a product cannot tell drift from noise"]
    for name in sorted(set.intersection(*(set(f["workloads"]) for f in files))):
        metrics = [f["workloads"][name]["metrics"] for f in files]
        for key in sorted(set(names).intersection(*metrics)):
            ratio, spread = 1.0, 0.0
            for parent, change in zip(metrics[::2], metrics[1::2]):
                ratio *= change[key]["median"] / parent[key]["median"]
                spread += parent[key]["iqr"] / parent[key]["median"]
            lines.append(f"{name} {key}: x{ratio:.4g} ({100.0 * (ratio - 1.0):+.1f}%), spread {spread:.3g}")
    return lines


def _git(root: str, *args: str):
    """A git command's stdout in the repository at root, or None when it fails."""
    done = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return done.stdout if done.returncode == 0 else None


def _program(root: str, commit: str, path: str):
    """A file at a commit as what runs: a Python file's syntax tree without
    docstrings (comments never reach it), any other file's text; None when
    the commit has no such file."""
    text = _git(root, "show", f"{commit}:{path}")
    if text is None or not path.endswith(".py"):
        return text
    tree = ast.parse(text)
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(tree):
        if isinstance(node, scopes) and ast.get_docstring(node):
            node.body = node.body[1:]
    return ast.dump(tree)


def committed_pairs(root: str = ROOT) -> list:
    """The (parent, change) paths of the BENCH files at root, as the module
    docstring lists, in git ancestry order."""
    commits = {}
    for path in sorted(glob.glob(os.path.join(root, "BENCH_*.json"))):
        bench = load(path)
        sha = (_git(root, "rev-parse", "--verify", "--quiet", bench["commit"] + "^{commit}") or "").strip()
        if not sha:
            print(f"skipped {os.path.basename(path)}: its commit is not in this repository", file=sys.stderr)
        elif not sha.startswith(bench["tag"]) or sha in commits.values():
            print(f"skipped {os.path.basename(path)}: not the one file tagged with its commit {bench['commit']}",
                  file=sys.stderr)
        else:
            commits[path] = sha
    ancestors = {path: set(_git(root, "rev-list", sha).split()) for path, sha in commits.items()}
    pairs = []
    for change, sha in commits.items():
        older = [path for path in commits if commits[path] != sha and commits[path] in ancestors[change]]
        if not older:
            continue
        parent = max(older, key=lambda path: len(ancestors[path]))
        changed = _git(root, "diff", "--name-only", commits[parent], sha, "--", "src").split()
        if any(_program(root, commits[parent], f) != _program(root, sha, f) for f in changed):
            pairs.append((parent, change))
    return sorted(pairs, key=lambda pair: len(ancestors[pair[1]]))


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def summarize(records: list) -> dict:
    """One workload's runs, as the module docstring lists."""
    names = sorted({name for r in records for name in r["metrics"]})
    machines = [json.dumps(r["machine"], sort_keys=True) for r in records]
    ops = sorted({op for r in records for op in r["op_medians_s"]})
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {
        "runs": len(records),
        "seeds": sorted(r["seed"] for r in records),
        "seconds": sorted({r["seconds"] for r in records}),
        "measured_passes": sum(r["measured_passes"] for r in records),
        "attempted": attempted,
        "failed": failed,
        "failed_of_attempted": f"{failed}/{attempted}",
        "metrics": {name: metric([r for r in records if name in r["metrics"]], name) for name in names},
        "probe_median_s": statistics.median(r["probe_median_s"] for r in records),
        "op_medians_s": {op: statistics.median(r["op_medians_s"][op] for r in records if op in r["op_medians_s"])
                         for op in ops},
        "machine": [json.loads(m) for m in sorted(set(machines))],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--results", default=os.path.join("perfbench", "results"),
                        help="directory of perfbench/run.py records (default: perfbench/results)")
    parser.add_argument("--tag", help="names the output BENCH_<tag>.json")
    parser.add_argument("--commit", help="the commit the runs measured (default: HEAD of the results' checkout)")
    parser.add_argument("--out", help="output path (default: BENCH_<tag>.json in the current directory)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two BENCH files by workload and metric, with a verdict per end-to-end "
                             "metric; writes nothing, exits 1 on a worse one")
    parser.add_argument("--trajectory", nargs="*", metavar="FILE",
                        help="PARENT CHANGE [PARENT CHANGE ...]: the product of the pairs' median ratios per "
                             "end-to-end metric, indicative only; with no files, the pairs of the repository's "
                             "BENCH files; writes nothing")
    args = parser.parse_args(argv)
    if args.compare:
        lines = compare(*map(load, args.compare), end_to_end_bounds())
        print("\n".join(lines))
        return int(any(line.endswith("verdict: worse") for line in lines))
    if args.trajectory is not None:
        if len(args.trajectory) % 2:
            parser.error("--trajectory takes PARENT CHANGE pairs, an even number of files")
        files = args.trajectory
        if not files:
            pairs = committed_pairs()
            if not pairs:
                parser.error("--trajectory found no BENCH file pairs in this repository")
            for parent, change in pairs:
                print(f"pair {os.path.basename(parent)} -> {os.path.basename(change)}", file=sys.stderr)
            files = [path for pair in pairs for path in pair]
        print("\n".join(trajectory([load(path) for path in files], end_to_end_bounds())))
        return 0
    if not args.tag:
        parser.error("give --tag, --compare or --trajectory")
    commit = args.commit or git_commit(args.results)
    if not commit:
        parser.error(f"{args.results} is not in a git checkout: give --commit")
    by_workload: dict = {}
    for path in sorted(glob.glob(os.path.join(args.results, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        by_workload.setdefault(record["workload"], []).append(record)
    if not by_workload:
        print(f"error: no untraced run records under {args.results}", file=sys.stderr)
        return 1
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    summary = {
        "tag": args.tag,
        "commit": commit,
        "numpy": {"version": np.__version__, "simd": simd},
        "openblas_core": openblas_core(),
        "workloads": {name: summarize(records) for name, records in sorted(by_workload.items())},
    }
    out = args.out or f"BENCH_{args.tag}.json"
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, w in summary["workloads"].items():
        wall = w["metrics"]["wall_s"]
        print(f"{name}: {w['runs']} runs, wall_s median {wall['median']:.4g} [{wall['q1']:.4g}-{wall['q3']:.4g}] s, "
              f"failed {w['failed_of_attempted']}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
