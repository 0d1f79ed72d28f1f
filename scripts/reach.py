"""Which lines of ``src/singlab`` do tier-1 and the benchmark's op lists reach?

    python scripts/reach.py

It runs one pass of each workload's op list,
``perfbench/workloads.build(workload, 0, 0)``, through
``perfbench/worker.run_op``, and each CLI command at its defaults, in this
process under a ``sys.settrace`` line trace, then tier-1 (pytest on
``tests/``) under a second one; the op lists go first, so the lines that
run at import count as theirs.  ``threading.settrace`` traces the threads
they start, since the chunk runner's helper thread runs kernel lines.
Lines run only in a fresh interpreter that a test starts are not seen.  A
line is executable when the ``co_lines`` of a code object compiled from
``src/singlab/*.py`` name it.  The script prints each executable line that
neither run reached, as ``file:line function: text``, then a summary.

``scripts/reach_allow.txt`` lists the lines allowed to stay unreached,
keyed by module, function and line text, not by line number, so edits
elsewhere do not churn it.  Each entry is one ``module.function: text``
line under a ``#`` comment that gives its reason.  The exit status is 1
when an unreached line is not allowed, or when an allowed line is no longer
unreached (it is reached now, or gone); 0 otherwise.  After that verdict
it prints how many lines the op lists and commands reach without tier-1,
then each function whose lines only tier-1 reaches, as
``module.function``: a candidate for deletion, or for README's list of
library API that no command runs.  The script writes nothing to the
checkout: no bytecode, no pytest cache, and the ops write to a temporary
directory.  It is not a tier-1 test, since it runs tier-1 itself.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tempfile
import threading
import time

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "singlab")
PERFBENCH = os.path.join(ROOT, "perfbench")
ALLOW = os.path.join(ROOT, "scripts", "reach_allow.txt")
WORKLOADS = ("certify", "montecarlo", "refine")


def executable_lines(path: str) -> dict:
    """Each executable line of a source file, mapped to the qualified name
    of the innermost code object that holds it (``<module>`` at top level)."""
    with open(path, encoding="utf-8") as fh:
        code = compile(fh.read(), path, "exec")
    owner = {}
    stack = [code]
    while stack:  # parents before children, so the innermost owner wins
        c = stack.pop(0)
        for _, _, line in c.co_lines():
            if line:  # None or 0 marks an instruction of no source line
                owner[line] = getattr(c, "co_qualname", c.co_name)
        stack += [k for k in c.co_consts if hasattr(k, "co_lines")]
    return owner


def read_allow(path: str = ALLOW) -> set:
    """The allow-list's (module, function, text) keys; an entry without a
    reason comment above it is an error."""
    keys, reason = set(), False
    with open(path, encoding="utf-8") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                reason = False
            elif line.startswith("#"):
                reason = True
            else:
                name, sep, text = line.partition(": ")
                module, dot, function = name.partition(".")
                if not (sep and dot and reason):
                    raise SystemExit(f"{path}:{number}: want 'module.function: text' under a '#' reason")
                keys.add((module, function, text.strip()))
    return keys


def trace_runs(run) -> set:
    """The (file, line, function) triples of the package that run()
    reaches, function the qualified name of the code that ran the line (a
    ``def`` line runs in the code that defines the function)."""
    files = {os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE) if name.endswith(".py")}
    reached = set()

    def local(frame, event, arg):
        if event == "line":
            code = frame.f_code
            reached.add((code.co_filename, frame.f_lineno, getattr(code, "co_qualname", code.co_name)))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached


def run_tests() -> None:
    """Tier-1."""
    import pytest

    code = pytest.main([os.path.join(ROOT, "tests"), "-q", "-p", "no:cacheprovider",
                        "--continue-on-collection-errors", "--rootdir", ROOT])
    print(f"tier-1: pytest exit {int(code)}", flush=True)


def run_ops() -> None:
    """One pass of each workload's op list, then each CLI command at its
    defaults."""
    sys.path.insert(0, PERFBENCH)
    import singlab.cli as cli
    import worker
    import workloads

    with tempfile.TemporaryDirectory() as outdir, open(os.devnull, "w") as null:
        for workload in WORKLOADS:
            ops = workloads.build(workload, 0, 0)
            with contextlib.redirect_stdout(null):
                failed = [op.key for op in ops if worker.run_op(op, outdir, cli, workloads)["failures"]]
            print(f"{workload}: {len(ops)} ops, {len(failed)} failed {failed}", flush=True)
        with contextlib.redirect_stdout(null):
            codes = {command: cli.main([command, "--outdir", outdir]) for command in cli.SCHEMAS}
        print(f"commands at their defaults: exit codes {codes}", flush=True)


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    allowed = read_allow()
    t0 = time.perf_counter()
    by_ops = trace_runs(run_ops)
    by_tests = trace_runs(run_tests)
    seconds = time.perf_counter() - t0
    ops_reached = {(path, line) for path, line, _ in by_ops}
    reached = ops_reached | {(path, line) for path, line, _ in by_tests}
    unreached, missing, total, ops_lines = set(), 0, 0, 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        owners = executable_lines(path)
        total += len(owners)
        for line, function in sorted(owners.items()):
            ops_lines += (path, line) in ops_reached
            if (path, line) in reached:
                continue
            key = (name[:-3], function, text[line - 1].strip())
            unreached.add(key)
            missing += 1
            print(f"{name}:{line} {function}: {key[2]}  [{'allowed' if key in allowed else 'NOT ALLOWED'}]")
    stale = sorted(allowed - unreached)
    for module, function, line_text in stale:
        print(f"stale allow entry, no longer unreached: {module}.{function}: {line_text}")
    bad = unreached - allowed
    print(f"reached {total - missing} of {total} executable lines; {len(bad)} unreached lines not allowed, "
          f"{len(stale)} stale allow entries; {seconds:.0f} s")
    print(f"op lists and commands reach {ops_lines} of {total} lines")
    ops_functions = {(path, function) for path, _, function in by_ops}
    for path, function in sorted({(path, function) for path, _, function in by_tests} - ops_functions):
        print(f"only tier-1 reaches {os.path.basename(path)[:-3]}.{function}")
    return int(bool(bad or stale))


if __name__ == "__main__":
    raise SystemExit(main())
