"""Record the output digests of every fixed-config op at the current commit.

    python3 perfbench/make_reference.py

Each workload's pass 0 runs in two worker processes with different
string-hash salts.  A fixed op whose digests differ between the two is
stored as null, since it does not repeat across processes; every other
fixed op stores its digest.  Seeded ops change with the seed and are not
recorded.  The result replaces
perfbench/reference.json, which run.py compares against to report
``cli.outputs_changed``.
"""

from __future__ import annotations

import json
import os
import shutil
import time

import run


def main() -> int:
    reference = {}
    workdir = os.path.join(run.HERE, ".work", f"reference-{os.getpid()}")
    os.makedirs(run.RESULTS, exist_ok=True)
    try:
        for workload in run.WORKLOADS:
            workers = []
            for salt in ("1", "2"):
                os.makedirs(workdir, exist_ok=True)
                env = dict(os.environ, PYTHONHASHSEED=salt)
                deadline = time.monotonic() + run.RUN_DEADLINE_S
                workers.append(run.run_worker(workload, 0, 0, False, workdir, deadline, env=env))
            for key, (found, fixed) in run.digests(workers).items():
                if fixed:
                    reference[key] = next(iter(found)) if len(found) == 1 else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    unstable = sorted(k for k, v in reference.items() if v is None)
    print(f"recorded {len(reference)} fixed ops; not repeatable across processes: {unstable}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
