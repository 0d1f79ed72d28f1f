"""One pass of a workload's op list in a fresh interpreter; started by run.py.

The worker imports ``singlab.cli`` from the checkout's ``src`` and runs the
op list of one pass, traced or not.  A fixed pure-Python probe runs before
the first op and after every op, so each op's time can be read against the
host's speed at that moment.  It writes one JSON result file: every op's
time, probe time, exit code, failures and output digest, the process's peak
RSS and, when traced, the span summary, counters and per-op breakdown.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROBE_LOOPS = 100_000


def probe() -> float:
    """Seconds one fixed pure-Python loop takes: the host's current speed."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - t0


def _digest_cli(code, stderr_text, files) -> tuple[str, int]:
    h = hashlib.sha256(f"exit={code}\n{stderr_text}".encode())
    written = 0
    for path in files:
        with open(path, "rb") as fh:
            data = fh.read()
        written += len(data)
        h.update(os.path.basename(path).encode() + b"\0" + data)
    return h.hexdigest(), written


def run_op(op, outdir, cli, workloads) -> dict:
    """Run one op and check its outputs; returns the op's record."""
    out = workloads.Outcome()
    rec = {"key": op.key, "template": op.template, "family": op.family, "seeded": op.seeded,
           "failures": [], "bytes": 0}
    if op.argv is not None:
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                out.exit_code = cli.main(op.argv + ["--outdir", outdir])
        except (Exception, SystemExit) as exc:  # noqa: BLE001 - every raise is a failed op
            out.error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        out.stderr = stderr.getvalue().strip()
        out.files = workloads.output_files(stdout.getvalue())
        rec["exit"] = out.exit_code
        if out.error:
            rec["failures"].append(f"raised {out.error}")
        elif out.exit_code in (1, 2):
            rec["failures"].append(f"exit {out.exit_code}: {out.stderr}")
        elif out.exit_code not in (0, 3):
            rec["failures"].append(f"unexpected exit {out.exit_code}")
        rec["digest"], rec["bytes"] = _digest_cli(out.exit_code, out.stderr, out.files)
    else:
        t0 = time.perf_counter()
        try:
            out.value = op.call()
        except Exception as exc:  # noqa: BLE001 - every raise is a failed op
            out.error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if out.error:
            rec["failures"].append(f"raised {out.error}")
        rec["digest"] = hashlib.sha256(repr(out.value if out.error is None else out.error).encode()).hexdigest()
    if not rec["failures"] and op.check is not None:
        try:
            violations = op.check(out, op)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            violations = [f"unreadable output: {type(exc).__name__}: {exc}"]
        rec["failures"] += [f"invariant: {v}" for v in violations]
        rec["invariant_broken"] = bool(violations)
    rec["seconds"] = seconds
    return rec


def run_pass(workload, seed, index, outdir, cli, workloads, tracer=None):
    records = []
    probe_before = probe()
    for op in workloads.build(workload, seed, index):
        first_span = tracer.span_count() if tracer else 0
        before = dict(tracer.counters) if tracer else None
        rec = run_op(op, outdir, cli, workloads)
        probe_after = probe()
        rec["probe_s"] = 0.5 * (probe_before + probe_after)
        probe_before = probe_after
        if tracer:
            rec["spans"] = [first_span, tracer.span_count()]
            rec["counters"] = {k: v - before.get(k, 0.0) for k, v in tracer.counters.items()
                               if v != before.get(k, 0.0)}
        records.append(rec)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where a traced worker writes its spans (.npz)")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    t0 = time.perf_counter()
    import singlab.cli as cli

    import_s = time.perf_counter() - t0
    import workloads

    os.makedirs(args.outdir, exist_ok=True)
    result = {"import_s": import_s}
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result["records"] = run_pass(args.workload, args.seed, args.pass_index, args.outdir, cli, workloads, tracer)
    if tracer:
        tracer.uninstall()
        result["summary"] = tracer.summary()
        result["counters"] = dict(tracer.counters)
        result["span_count"] = tracer.span_count()
        result["evals_under_localize"] = tracer.calls_under("datamaps.evaluate", "topology.localize_singularities")
        for rec in result["records"]:
            lo, hi = rec["spans"]
            rec["summary"] = tracer.summary(lo, hi)
            rec["evals_under_localize"] = tracer.calls_under(
                "datamaps.evaluate", "topology.localize_singularities", lo, hi)
        if args.spans:
            tracer.save(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    import numpy
    import scipy

    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
