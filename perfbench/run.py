"""singlab's benchmark: seeded certify, montecarlo and refine workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` a run times set-up (``setup_s``: a fresh interpreter until
``import singlab.cli`` returns, median of several) and then runs passes of
the workload's op list, untraced, each pass in its own fresh worker
interpreter.  Python speed differs from process to process by several
percent (memory layout, hash salt), so one pass per process and medians
over processes make a run steadier than many passes in one process.  The
number of passes is fixed by ``--seconds`` and the workload's nominal pass
time (at least three), not by the clock, so a run's attempted and failed op
counts never depend on how fast the host was.  With ``--trace 1`` untraced
passes fill half the budget, then one traced pass runs, and the run reports
the per-layer metrics.  Every output is checked (see workloads.py).

Op times are read against the host's speed.  The CPU speed of the small
virtual machines this runs on drifts by +-15% over seconds, and medians
within a run cannot remove that.  So a fixed pure-Python probe runs before
and after every op, and each op time is scaled by ``PROBE_NOMINAL_S /
probe``: seconds at the speed at which the probe takes ``PROBE_NOMINAL_S``.
Raw times are kept in the record.  Set-up samples are not scaled: a probe
run by this process right after it waits on a child reads erratically.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit and list the argv of every failed op.  The
full record (per-op times, failures, machine facts, the re-derived seed
table) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import FAMILIES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_SAMPLES = 5
MIN_PASSES = 3
# Seconds one pass takes, fresh worker included, on the 2-vCPU Xeon box the
# baseline was recorded on.
PASS_NOMINAL_S = {"certify": 5.2, "montecarlo": 3.9, "refine": 6.2}
# The probe's typical time on the 2-vCPU Xeon box the baseline was recorded on.
PROBE_NOMINAL_S = 0.008
RUN_DEADLINE_S = 170.0  # every run must end within 180 s


# ---------------------------------------------------------------------------
# Host facts
# ---------------------------------------------------------------------------

def cpu_times():
    """Aggregate (steal, total) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
             "python": platform.python_version(), "cpu_model": None, "caches": []}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for entry in sorted(os.listdir(base)):
            info = {}
            for key in ("level", "type", "size", "shared_cpu_list"):
                try:
                    with open(os.path.join(base, entry, key), encoding="ascii") as fh:
                        info[key] = fh.read().strip()
                except OSError:
                    pass
            if info:
                facts["caches"].append(info)
    return facts


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import singlab.cli; "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)


def measure_setup(deadline: float) -> float:
    """Seconds from starting a fresh interpreter until singlab.cli is imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, SRC], stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up interpreter failed to import singlab.cli")
    return elapsed


def run_worker(workload, seed, pass_index, traced, workdir, deadline, env=None) -> dict:
    tag = f"{'traced' if traced else 'untraced'}-{pass_index}"
    result_path = os.path.join(workdir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(pass_index), "--outdir", os.path.join(workdir, tag),
           "--result", result_path]
    if traced:
        cmd += ["--traced", "--spans", os.path.join(RESULTS, f"spans-{workload}.npz")]
    proc = subprocess.Popen(cmd, env=env)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{tag} worker exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def pass_count(workload, budget) -> int:
    """Passes that fill ``budget`` seconds at nominal speed; at least MIN_PASSES."""
    return max(MIN_PASSES, round(budget / PASS_NOMINAL_S[workload]))


def run_passes(workload, seed, count, workdir, deadline) -> list:
    """``count`` untraced passes, one fresh worker each."""
    workers = []
    while len(workers) < count:
        t = time.monotonic()
        workers.append(run_worker(workload, seed, len(workers), False, workdir, deadline))
        now = time.monotonic()
        if len(workers) < count and now + (now - t) > deadline:
            raise RuntimeError("the run would overrun its deadline")
    return workers


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def at_nominal(seconds: float, probe_s: float) -> float:
    return seconds * PROBE_NOMINAL_S / probe_s


def op_medians(passes, raw: bool = False) -> dict:
    """Per template: (ops per pass, median seconds over every measured op, family).

    Fixed ops are their own template; seeded ops of one template are draws
    from one distribution, so their times are pooled across passes.  Times
    are at nominal host speed unless ``raw``."""
    times = defaultdict(list)
    per_pass = {}
    family = {}
    for records in passes:
        counts = defaultdict(int)
        for rec in records:
            t = rec["seconds"] if raw else at_nominal(rec["seconds"], rec["probe_s"])
            times[rec["template"]].append(t)
            counts[rec["template"]] += 1
            family[rec["template"]] = rec["family"]
        per_pass.update(counts)
    return {t: (per_pass[t], statistics.median(v), family[t]) for t, v in times.items()}


def summed(medians: dict, families=None) -> float:
    return sum(n * med for n, med, fam in medians.values() if families is None or fam in families)


def digests(workers) -> dict:
    seen = defaultdict(set)
    fixed = {}
    for worker in workers:
        for rec in worker["records"]:
            seen[rec["key"]].add(rec["digest"])
            fixed[rec["key"]] = not rec["seeded"]
    return {k: (v, fixed[k]) for k, v in seen.items()}


def output_counts(workers) -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    seen = digests(workers)
    nondeterministic = sorted(k for k, (d, _) in seen.items() if len(d) > 1)
    compared = [k for k, (d, fixed) in seen.items() if fixed and reference.get(k)]
    changed = sorted(k for k in compared if seen[k][0] != {reference[k]})
    return {"changed": changed, "nondeterministic": nondeterministic, "compared": len(compared)}


def failures(workers):
    attempted = failed = 0
    broken = False
    failing = {}
    for worker in workers:
        for rec in worker["records"]:
            attempted += 1
            if rec["failures"]:
                failed += 1
                failing.setdefault(rec["key"], rec["failures"])
            broken |= rec.get("invariant_broken", False)
    return attempted, failed, failing, broken


def layer_metrics(traced, passes, outputs, failed_share, steal_share) -> dict:
    s = traced["summary"]
    c = traced["counters"]

    def get(name, field="s"):
        return s.get(name, {}).get(field, 0.0)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    kernels = [f"datamaps.{k}_gap_batch" for k in ("ls", "pc", "lad", "aug_mean")]
    gap_s = sum(get(k) for k in kernels)
    rows = c.get("datamaps.gap_batch.rows", 0)
    mc_s = get("measure.distance_cdf") + get("measure.tube_volume")
    windings = get("topology.winding_number", "calls")
    evals = get("datamaps.evaluate", "calls")
    medians = op_medians(passes)
    fixed = [r for r in traced["records"] if not r["seeded"]]
    untraced_fixed = sum(medians[r["template"]][1] for r in fixed)
    m = {
        "cli.self_s": sum(v["self_s"] for k, v in s.items() if k.startswith("cli.")),
        "cli.bytes_written": sum(r["bytes"] for r in traced["records"]),
        "cli.outputs_changed": len(outputs["changed"]),
        "cli.outputs_nondeterministic": len(outputs["nondeterministic"]),
    }
    for fam in FAMILIES:
        m[f"cli.{fam}_s"] = summed(medians, {fam})
    m.update({
        "slices.dataset_at.calls": get("slices.dataset_at", "calls"),
        "slices.dataset_at.s": get("slices.dataset_at"),
        "slices.render_lf_field.self_s": get("slices.render_lf_field", "self_s"),
        "datamaps.evaluate.calls": evals,
        "datamaps.evaluate.s": get("datamaps.evaluate"),
        "datamaps.evaluate.us_per_call": per(get("datamaps.evaluate"), evals, 1e6),
        "datamaps.evaluate.undefined_share": per(c.get("datamaps.evaluate.undefined", 0), evals),
        "datamaps.evaluate_with_standard.calls": get("datamaps.evaluate_with_standard", "calls"),
        "datamaps.evaluate_with_standard.self_s": get("datamaps.evaluate_with_standard", "self_s"),
        "datamaps.gap_batch.s": gap_s,
        "datamaps.gap_batch.rows": rows,
        "datamaps.gap_batch.us_per_row": per(gap_s, rows, 1e6),
        "datamaps.lad_gap_batch.s": get("datamaps.lad_gap_batch"),
        "datamaps.lad_gap_batch.bytes_computed": c.get("datamaps.lad_gap_batch.bytes_computed", 0),
        "topology.winding_number.calls": windings,
        "topology.winding_number.self_s": get("topology.winding_number", "self_s"),
        "topology.winding_number.samples_used": c.get("topology.winding_number.samples_used", 0),
        "topology.winding_number.useful_share": per(c.get("topology.winding_number.returned", 0), windings),
        "topology.localize_singularities.self_s": get("topology.localize_singularities", "self_s"),
        "topology.localize_singularities.evals": traced["evals_under_localize"],
        "topology.boxes_certified": c.get("topology.boxes_certified", 0),
        "topology.boxes_inconclusive": c.get("topology.boxes_inconclusive", 0),
        "geometry.feature_distance.calls": get("geometry.feature_distance", "calls"),
        "geometry.feature_distance.s": get("geometry.feature_distance"),
        "geometry.segment_average_norm.calls": get("geometry.segment_average_norm", "calls"),
        "geometry.segment_average_norm.s": get("geometry.segment_average_norm"),
        "metrics.oscillation.self_s": get("metrics.oscillation", "self_s"),
        "metrics.distance_to_singular.calls": get("metrics.distance_to_singular", "calls"),
        "metrics.distance_to_singular.self_s": get("metrics.distance_to_singular", "self_s"),
        "metrics.derivative_blowup_profile.self_s": get("metrics.derivative_blowup_profile", "self_s"),
        "measure.distance_cdf.self_s": get("measure.distance_cdf", "self_s"),
        "measure.tube_volume.self_s": get("measure.tube_volume", "self_s"),
        "measure.samples_per_s": per(c.get("measure.samples", 0), mc_s),
        "measure.box_count_dimension.s": get("measure.box_count_dimension"),
        "measure.box_count_dimension.cells_computed": c.get("measure.box_count_dimension.cells_computed", 0),
        "measure.tradeoff_experiment.self_s": get("measure.tradeoff_experiment", "self_s"),
        "solver.minimize.calls": get("solver.minimize", "calls"),
        "solver.minimize.s": get("solver.minimize"),
        "solver.minimize.nit": c.get("solver.minimize.nit", 0),
        "solver.minimize.nfev": c.get("solver.minimize.nfev", 0),
        "trace.overhead_share": per(sum(at_nominal(r["seconds"], r["probe_s"]) for r in fixed),
                                    untraced_fixed) - 1.0,
        "host.steal_share": steal_share,
        "run.failed_share": failed_share,
    })
    return m


def declared_units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# Seed-table cross-check against the ROADMAP baseline
# ---------------------------------------------------------------------------

def _row(what, roadmap, measured, unit, exact=False):
    if measured is None:
        verdict = "not measured"
    elif exact:
        verdict = "agrees" if measured == roadmap else "disagrees"
    else:
        verdict = "agrees" if 0.75 <= measured / roadmap <= 1.25 else "disagrees"
    return {"row": what, "roadmap": roadmap, "measured": measured, "unit": unit, "verdict": verdict}


def seed_table(workload, traced, passes) -> list:
    """Re-derive the ROADMAP baseline rows this workload measures.  Times
    come from untraced op medians; counts and layer splits from the traced
    pass; a time outside 0.75-1.25x of the ROADMAP figure disagrees."""
    medians = op_medians(passes)
    ops = {r["key"]: r for r in traced["records"]}

    def op_time(key):
        return medians[key][1] if key in medians else None

    def op_span(key, name, field="s"):
        return ops[key]["summary"].get(name, {}).get(field, 0.0) if key in ops else None

    rows = []
    if workload == "certify":
        for m, secs, evals, us in (("pc", 0.62, 9921, 59.0), ("lad", 0.70, 7776, 90.0)):
            key = f"localize --map {m}"
            n = ops[key]["evals_under_localize"] if key in ops else None
            rows.append(_row(f"localize --map {m}: time", secs, op_time(key), "s"))
            rows.append(_row(f"localize --map {m}: scalar evaluations", evals, n, "count", exact=True))
            if n:
                rows.append(_row(f"localize --map {m}: op time per evaluation", us, op_time(key) / n * 1e6, "us"))
        key = "localize --map pc"
        calls = op_span(key, "datamaps.evaluate", "calls")
        if calls:
            per_eval = (op_span(key, "datamaps.evaluate") + op_span(key, "slices.dataset_at")) / calls * 1e6
            rows.append(_row("scalar PC evaluate + slice embed (traced spans)", 50.0, per_eval, "us"))
    if workload == "montecarlo":
        key = "cdf --map pc --n-points 4"
        rows_pc = 10**5
        if key in ops:
            rows.append(_row("pc_gap_batch per row (traced span)", 0.4,
                             op_span(key, "datamaps.pc_gap_batch") / rows_pc * 1e6, "us"))
        rows.append(_row("cdf LAD n=4 at 1e5 samples", 0.10, op_time("cdf --map lad --n-points 4"), "s"))
        # the ROADMAP gives n=8 (0.67 s) and n=16 (4.3 s); n=12 is their geometric interpolation
        lad12 = next((t for t, v in medians.items() if "--n-points 12" in t), None)
        rows.append(_row("cdf LAD n=12 at 1e5 samples, --threads 2 (interpolated)",
                         round(0.67 * (4.3 / 0.67) ** 0.585, 3), medians[lad12][1] if lad12 else None, "s"))
    if workload == "refine":
        key = "tradeoff --n-points 3 --presets uniform,concentrated,moderate"
        rows.append(_row("tradeoff Gauss-Newton projection (tradeoff_experiment self)", 1.15,
                         op_span(key, "measure.tradeoff_experiment", "self_s"), "s"))
        rows.append(_row("tradeoff BFGS (solver.minimize under tradeoff)", 0.5,
                         op_span(key, "solver.minimize"), "s"))
        rows.append(_row("oscillate --map pc --k-samples 1024", 1.35,
                         op_time("oscillate --map pc --k-samples 1024"), "s"))
        calls = sum(r["summary"].get("geometry.segment_average_norm", {}).get("calls", 0) for r in ops.values())
        total = sum(r["summary"].get("geometry.segment_average_norm", {}).get("s", 0.0) for r in ops.values())
        if calls:
            rows.append(_row("segment_average_norm per call (traced span)", 205.0, total / calls * 1e6, "us"))
    return rows


def l2_bytes(facts: dict) -> int | None:
    for cache in facts["caches"]:
        if cache.get("level") == "2" and cache.get("size", "").endswith("K"):
            return int(cache["size"][:-1]) * 1024
    return None


def lad_working_sets(traced, l2) -> list:
    """Computed (not measured) LAD objective-matrix bytes per op,
    m * n(n-1)/2 * 8, against the L2 size of one core."""
    out = []
    for rec in traced["records"]:
        b = rec.get("counters", {}).get("datamaps.lad_gap_batch.bytes_computed")
        if b:
            out.append({"op": rec["key"], "bytes_computed": b, "l2_bytes": l2, "times_l2": b / l2 if l2 else None})
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "singlab", "cli.py")):
        print(f"error: no singlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(HERE, ".work", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cpu_before = cpu_times()
    try:
        if args.trace:
            # half the budget for untraced passes; the traced pass repeats pass 0
            untraced = run_passes(args.workload, args.seed, pass_count(args.workload, args.seconds / 2),
                                  workdir, deadline)
            traced = run_worker(args.workload, args.seed, 0, True, workdir, deadline)
            workers = untraced + [traced]
        else:
            setups = [measure_setup(deadline) for _ in range(SETUP_SAMPLES)]
            untraced = run_passes(args.workload, args.seed, pass_count(args.workload, args.seconds),
                                  workdir, deadline)
            workers = untraced
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cpu_after = cpu_times()
    steal = 0.0
    if cpu_before and cpu_after and cpu_after[1] > cpu_before[1]:
        steal = (cpu_after[0] - cpu_before[0]) / (cpu_after[1] - cpu_before[1])

    attempted, failed, failing, broken = failures(workers)
    measured = [w["records"] for w in untraced]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "machine": dict(machine_facts(), versions=untraced[0]["versions"]),
              "host_steal_share": steal, "attempted": attempted, "failed": failed,
              "failing_ops": failing, "measured_passes": len(measured),
              "worker_import_s": [w["import_s"] for w in untraced],
              "op_medians_s": {t: v[1] for t, v in op_medians(measured).items()},
              "raw_op_medians_s": {t: v[1] for t, v in op_medians(measured, raw=True).items()},
              "probe_median_s": statistics.median(r["probe_s"] for p in measured for r in p)}
    if args.trace:
        outputs = output_counts(workers)
        metrics = layer_metrics(traced, measured, outputs, failed / attempted, steal)
        record.update(outputs=outputs, span_count=traced["span_count"],
                      seed_table=seed_table(args.workload, traced, measured),
                      lad_working_sets=lad_working_sets(traced, l2_bytes(record["machine"])),
                      per_op=[{k: r[k] for k in ("key", "seconds", "summary", "counters", "evals_under_localize")}
                              for r in traced["records"]])
    else:
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": summed(op_medians(measured)),
                   "peak_rss_mb": max(w["peak_rss_mb"] for w in untraced)}
        record.update(setup_samples_s=setups, raw_wall_s=summed(op_medians(measured, raw=True)))
    units = declared_units()
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(measured)} untraced passes, {attempted} ops attempted, {failed} failed")
    for key, why in failing.items():
        print(f"failed op: {key}: {'; '.join(why)}")
    for row in record.get("seed_table", []):
        print(f"seed table: {row['row']}: roadmap {row['roadmap']} {row['unit']}, "
              f"measured {row['measured']} -> {row['verdict']}")
    for name, v in record["metrics"].items():
        print(f"metric {name} = {v['value']:.6g} {v['unit']}")
    if not args.trace:
        print(f"raw (unscaled) wall_s = {record['raw_wall_s']:.6g} s; "
              f"probe median {record['probe_median_s']:.6g} s against nominal {PROBE_NOMINAL_S} s")
    print(json.dumps({"correct": not broken, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
