"""Op lists of the three workloads and the checks on their outputs.

An op is one experiment a user would run: a ``singlab`` subcommand driven
through ``singlab.cli.main(argv)``, or a library call.  ``build(workload,
seed, pass_index)`` returns a pass's op list.  Fixed ops have the same argv
in every pass and for every seed; seeded ops draw their inputs from
``(seed, pass_index)``, so one seed always gives the same inputs and each
pass of a run draws fresh ones.  The LAD root boxes are the exception: they
are drawn from the pass index alone, so the boxes that fail (ROADMAP 5b) are
the same in every run and the failure count does not depend on the seed.

An op fails when it exits 1, exits 2 (every config here passes the schema),
raises from a library call, or breaks one of the invariants below.  Exit 3
(INCONCLUSIVE) is a valid outcome everywhere.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("certify", "montecarlo", "refine")

# Each op's family is the subcommand it runs; these families get their own
# summed-time metric, the rest count only in the workload's wall time.
FAMILIES = ("localize", "winding", "cdf", "tradeoff", "oscillate", "dimension")

PC_ORIGIN_TOL = 1e-2  # criterion 2: PC certified box within 1e-2 of the origin
CDF_TOLERANCES = {"ls": (3.0, 0.5), "pc": (2.0, 0.3), "lad": (1.0, 0.3)}  # criterion 1
TUBE_CODIMS = {"point": 2.0, "segment": 1.0, "circle": 1.0}  # criterion 3
TUBE_TOL = 0.1
CDF_ROWS = 10**5
LINE_DIAMETER_MAX = math.pi / 2  # the mod-pi metric never exceeds a quarter turn
LAD_BOX_SEED = 5  # LAD root boxes: the same draws in every run, whatever the seed


@dataclass
class Op:
    """One operation of a pass.

    ``template`` names what the op does without its seeded inputs; seeded
    ops of one template are interchangeable draws from one distribution.
    """

    key: str
    template: str
    family: str
    seeded: bool
    argv: list | None = None
    call: object = None
    check: object = None
    meta: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What an op produced, as the checks see it."""

    exit_code: int | None = None
    stderr: str = ""
    files: list = field(default_factory=list)
    value: object = None
    error: str | None = None

    def report(self):
        for path in self.files:
            if path.endswith(".json"):
                with open(path, encoding="utf-8") as fh:
                    return json.load(fh)["result"]
        raise ValueError("op wrote no JSON report")

    def csv_rows(self):
        for path in self.files:
            if path.endswith(".csv"):
                with open(path, encoding="utf-8", newline="") as fh:
                    return list(csv.reader(fh))
        raise ValueError("op wrote no CSV")

    def csv_column(self) -> np.ndarray:
        """The values of a one-column CSV, header dropped."""
        for path in self.files:
            if path.endswith(".csv"):
                with open(path, encoding="utf-8") as fh:
                    return np.array(fh.read().split()[1:], dtype=float)
        raise ValueError("op wrote no CSV")


def _cli(argv, check=None, seeded=False, template=None, **meta):
    key = " ".join(argv)
    return Op(key=key, template=template or key, family=argv[0], seeded=seeded,
              argv=list(argv), check=check, meta=meta)


# ---------------------------------------------------------------------------
# Checks: each returns a list of violated invariants (empty when all hold)
# ---------------------------------------------------------------------------

def check_localize(out: Outcome, op: Op) -> list:
    boxes = out.report()["boxes"]
    cx, cy, hw, eps = (op.meta[k] for k in ("cx", "cy", "hw", "eps"))
    bad = []
    for b in boxes:
        if b["status"] != "certified":
            continue
        if b["half_width"] > eps or b["degree"] == 0:
            bad.append(f"certified box {b} is wider than eps or has degree 0")
        if abs(b["center"][0] - cx) > hw or abs(b["center"][1] - cy) > hw:
            bad.append(f"certified box {b} lies outside the root box")
    return bad


def check_pc_origin(out: Outcome, op: Op) -> list:
    bad = check_localize(out, op)
    certified = [b for b in out.report()["boxes"] if b["status"] == "certified"]
    nearest = min((math.hypot(*b["center"]) for b in certified), default=math.inf)
    if nearest > PC_ORIGIN_TOL:
        bad.append(f"no certified PC box within {PC_ORIGIN_TOL} of the origin (nearest {nearest:.3e})")
    return bad


def check_degree_two(out: Outcome, op: Op) -> list:
    result = out.report()
    if out.exit_code == 3:
        return []
    if result.get("degree") != 2:
        return [f"winding degree {result.get('degree')} != 2"]
    return []


def check_winding(out: Outcome, op: Op) -> list:
    result = out.report()
    if out.exit_code == 0 and not isinstance(result.get("degree"), int):
        return ["winding report without an integer degree"]
    return []


def check_lfplot(out: Outcome, op: Op) -> list:
    rows = out.csv_rows()
    want = op.meta["resolution"] ** 2 + 1
    return [] if len(rows) == want else [f"lfplot CSV has {len(rows)} rows, want {want}"]


def _check_cdf_csv(out: Outcome) -> list:
    values = out.csv_column()
    bad = []
    if len(values) != CDF_ROWS:
        bad.append(f"CDF CSV has {len(values)} rows, want {CDF_ROWS}")
    if np.any(np.diff(values) < 0):
        bad.append("CDF CSV is not sorted")
    return bad


def check_cdf(out: Outcome, op: Op) -> list:
    bad = _check_cdf_csv(out)
    if op.meta.get("map") in CDF_TOLERANCES:
        target, tol = CDF_TOLERANCES[op.meta["map"]]
        exponent = out.report()["tail_fit"]["exponent"]
        if abs(exponent - target) > tol:
            bad.append(f"{op.meta['map']} tail exponent {exponent:.3f} outside {target} +- {tol}")
    return bad


def check_tube(out: Outcome, op: Op) -> list:
    codim = out.report()["fitted_codim"]
    target = TUBE_CODIMS[op.meta["fixture"]]
    if abs(codim - target) > TUBE_TOL:
        return [f"{op.meta['fixture']} codim {codim:.3f} outside {target} +- {TUBE_TOL}"]
    return []


def _aug_feasible(weights, w0) -> bool:
    # |sum w_i x_i| over unit vectors spans [max(0, 2 max w - sum w), sum w]
    return max(0.0, 2.0 * max(weights) - sum(weights)) <= w0 < sum(weights)


def check_tradeoff(out: Outcome, op: Op) -> list:
    entries = out.report()["entries"]
    n = op.meta["n_points"]
    w0 = {"UNIFORM": 0.5, "CONCENTRATED": 8.0, "MODERATE": 2.0}
    bad = []
    dists = [math.inf if e["dist_S_to_P"] == "inf" else e["dist_S_to_P"] for e in entries]
    keys = list(zip(dists, [e["preset_name"] for e in entries]))
    if keys != sorted(keys):
        bad.append("tradeoff entries are not sorted by distance")
    for e in entries:
        want = _aug_feasible([1.0] * n, w0[e["preset_name"]])
        if e["feasible"] != want:
            bad.append(f"{e['preset_name']} feasible={e['feasible']}, analytic {want}")
    return bad


def check_oscillation(out: Outcome, op: Op) -> list:
    result = out.report()
    profile = result.get("profile", result)
    bad = [f"diameter {d} outside [0, pi/2]"
           for d, empty in zip(profile["diameters"], profile["all_undefined"])
           if not empty and not 0.0 <= d <= LINE_DIAMETER_MAX]
    if "severity" in result and result["severity"] not in ("SEVERE", "NON_SEVERE", "UNDECIDED"):
        bad.append(f"unknown severity {result['severity']!r}")
    return bad


def check_derivprofile(out: Outcome, op: Op) -> list:
    result = out.report()
    bad = []
    if len(out.csv_rows()) != op.meta["eta_count"] + 1:
        bad.append("derivprofile CSV row count differs from eta_count")
    for eta, r, flagged in zip(result["etas"], result["avg_distance"], result["flagged"]):
        # every arc lies in the eta-ball around the singular point
        if not flagged and not (0.0 < r <= eta):
            bad.append(f"average distance {r} outside (0, eta={eta}]")
    return bad


def check_dimension(out: Outcome, op: Op) -> list:
    counts = out.report()["occupied_counts"]
    # Mesh sizes run coarse to fine.  A closed fine cell meets at most 3 x 3
    # closed coarse cells, so refining can divide the count by at most 9.
    if min(counts) <= 0 or any(fine * 9 < coarse for coarse, fine in zip(counts, counts[1:])):
        return [f"occupied counts {counts} are not consistent with refinement"]
    return []


def check_pc_refined(out: Outcome, op: Op) -> list:
    dist, tag = out.value
    points = op.meta["points"]
    coincident = float(np.linalg.norm(points - points.mean(axis=0)))
    if tag != "REFINED" or not (0.0 < dist <= coincident):
        return [f"refined PC distance {dist} ({tag}) outside (0, {coincident}]"]
    return []


def check_aug_refined(out: Outcome, op: Op) -> list:
    dist, tag = out.value
    if tag != "REFINED" or not (math.isfinite(dist) and dist >= 0.0):
        return [f"refined AUG_MEAN distance {dist} ({tag}) is not a finite distance"]
    return []


# ---------------------------------------------------------------------------
# Op lists
# ---------------------------------------------------------------------------

def _root_boxes(rng, lad_rng, count: int = 6):
    """Localizer root boxes: centres uniform in the disk of radius 0.4,
    half-widths uniform in [0.15, 0.6], maps alternating pc and lad.  PC
    boxes are drawn from ``rng``, LAD boxes from ``lad_rng``."""
    ops = []
    for i in range(count):
        m = "pc" if i % 2 == 0 else "lad"
        draw = rng if m == "pc" else lad_rng
        radius = 0.4 * math.sqrt(draw.random())
        angle = 2.0 * math.pi * draw.random()
        hw = float(draw.uniform(0.15, 0.6))
        cx, cy = radius * math.cos(angle), radius * math.sin(angle)
        argv = ["localize", "--map", m, f"--center-x={cx!r}", f"--center-y={cy!r}",
                f"--half-width={hw!r}"]
        ops.append(_cli(argv, check_localize, seeded=True, template=f"localize --map {m} <seeded root box>",
                        cx=cx, cy=cy, hw=hw, eps=1e-3))
    return ops


def _certify(rng, pass_index):
    crit2 = dict(cx=0.0, cy=0.0, hw=0.9, eps=1e-3)
    ops = [
        _cli(["localize", "--map", "pc"], check_pc_origin, **crit2),
        _cli(["localize", "--map", "ls"], check_localize, **crit2),
        _cli(["localize", "--map", "lad"], check_localize, **crit2),
        _cli(["localize", "--map", "pc", "--eps", "1e-4"], check_localize, **dict(crit2, eps=1e-4)),
        _cli(["localize", "--map", "lad", "--half-width", "0.5"], check_localize, **dict(crit2, hw=0.5)),
    ]
    ops += _root_boxes(rng, np.random.default_rng((LAD_BOX_SEED, pass_index)))
    for target in ("ls", "pc", "lad"):
        for shrink in ("0.999", "0.99"):
            argv = ["winding", "--target", target, "--shrink", shrink, "--samples", "2048"]
            ops.append(_cli(argv, check_degree_two if target == "pc" else check_winding))
    # the standard target is defined only on perfect fits, so its loop stays unshrunk
    ops.append(_cli(["winding", "--target", "standard", "--samples", "2048"], check_degree_two))
    for m in ("pc", "lad"):
        ops.append(_cli(["lfplot", "--map", m, "--grid-resolution", "48"], check_lfplot, resolution=48))
    return ops


def _montecarlo(rng, pass_index):
    ops = [_cli(["cdf", "--map", m, "--n-points", "4"], check_cdf, map=m) for m in ("ls", "pc", "lad")]
    seed_aug, seed_lad = (int(s) for s in rng.integers(0, 2**31, size=2))
    ops.append(_cli(["cdf", "--map", "augmean", "--n-points", "3", "--seed", str(seed_aug)], check_cdf,
                    seeded=True, template="cdf --map augmean --n-points 3 <seed>", map="augmean"))
    ops.append(_cli(["cdf", "--map", "lad", "--n-points", "12", "--threads", "2", "--seed", str(seed_lad)],
                    check_cdf, seeded=True, template="cdf --map lad --n-points 12 --threads 2 <seed>",
                    map="lad12"))
    for fixture in ("point", "segment", "circle"):
        argv = ["tube", "--fixture", fixture, "--samples", "1000000"]
        if fixture == "circle":
            argv += ["--threads", "2"]
        ops.append(_cli(argv, check_tube, fixture=fixture))
    return ops


def _refine(rng, pass_index):
    from singlab.datamaps import DataMapSpec, MapKind, uniform_preset
    from singlab.geometry import CircleDataset, PlaneDataset
    import singlab.metrics as metrics

    ops = [
        _cli(["tradeoff", "--n-points", "3", "--presets", "uniform,concentrated,moderate"],
             check_tradeoff, n_points=3),
        _cli(["oscillate", "--map", "pc", "--k-samples", "1024"], check_oscillation),
        _cli(["severity", "--map", "lad", "--k-samples", "512"], check_oscillation),
    ]
    # severity reports the same oscillation profile plus a label
    ops[-1].family = "oscillate"
    for m in ("pc", "lad", "synthetic"):
        ops.append(_cli(["derivprofile", "--map", m, "--eta-count", "13"], check_derivprofile, eta_count=13))
    ops.append(_cli(["dimension", "--fixture", "circle", "--mesh-min", "0.0005"], check_dimension))

    pc = DataMapSpec(kind=MapKind.PC_LINE)
    for _ in range(4):
        points = rng.standard_normal((4, 2))
        ds = PlaneDataset(points)
        ops.append(Op(key=f"distance_to_singular pc refine {points.tolist()!r}",
                      template="distance_to_singular pc refine", family="distance", seeded=True,
                      call=lambda ds=ds: metrics.distance_to_singular(pc, ds, refine=True),
                      check=check_pc_refined, meta={"points": points}))
    aug = uniform_preset(3)
    for _ in range(8):
        angles = 2.0 * math.pi * rng.random(3)
        ds = CircleDataset(np.stack([np.cos(angles), np.sin(angles)], axis=1))
        ops.append(Op(key=f"distance_to_singular augmean refine {angles.tolist()!r}",
                      template="distance_to_singular augmean refine", family="distance", seeded=True,
                      call=lambda ds=ds: metrics.distance_to_singular(aug, ds, refine=True),
                      check=check_aug_refined))
    return ops


_OP_LISTS = {"certify": _certify, "montecarlo": _montecarlo, "refine": _refine}


def build(workload: str, seed: int, pass_index: int) -> list:
    """The op list of one pass; seeded inputs come from (seed, pass_index)."""
    rng = np.random.default_rng((seed % 2**63, pass_index))
    return _OP_LISTS[workload](rng, pass_index)


def output_files(stdout_text: str) -> list:
    """Files a CLI run reports as written, one path per stdout line."""
    return [line for line in stdout_text.splitlines() if line and os.path.isfile(line)]
