"""Config-driven experiment runner.

One subcommand per experiment; parameters come from an optional JSON config
file plus command-line flags (flags win).  Unknown config keys and NaN or
infinite floats are rejected, every report echoes the fully resolved
config, and identical config + seed produce byte-identical output files.
The ``threads`` key of tube and cdf is still accepted and validated but
has no effect: ``cdf`` runs its Monte-Carlo chunks on up to two of the
CPUs the process may use, and no output bit depends on their number.

Each runner returns its exit code, its report's result (None for lfplot,
which writes no report) and the other files it wrote; ``main`` alone writes
the result as the JSON report at ``config["out"]`` and prints its path
before the other files.

Exit codes: 0 success, 1 internal error, 2 config/schema error ("config
error:") or a contract the run itself broke ("run error:"), 3
inconclusive-only results.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from singlab.datamaps import (
    BatchOutcome,
    DataMapSpec,
    MapKind,
    UndefinedReason,
    concentrated_preset,
    evaluate_with_standard_batch,
    standard_batch,
    uniform_preset,
)
from singlab.geometry import ContractViolation, LineDirection, reduce_mod_pi
from singlab.measure import (
    box_count_dimension,
    circle_cell_membership,
    circle_distance_fn,
    distance_cdf,
    filled_box_membership,
    point_distance_fn,
    segment_distance_fn,
    tradeoff_experiment,
    tube_volume,
)
from singlab.metrics import (
    classify_severity,
    derivative_blowup_profile,
    oscillation,
)
from singlab.slices import SliceSpec, boundary_loop, render_lf_field, slice_map
from singlab.topology import (
    InconclusiveDegreeError,
    Loop,
    LoopHitsSingularityError,
    localize_singularities,
    winding_number,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_SCHEMA = 2
EXIT_INCONCLUSIVE = 3

_FITTER_KINDS = {"ls": MapKind.LS_LINE, "pc": MapKind.PC_LINE, "lad": MapKind.LAD_LINE}


class SchemaError(ValueError):
    """Bad config: the message names the offending key."""


# Schema checks: each takes the key and its resolved value, and raises a
# SchemaError that names the key
def _positive(key, v):
    if any(x <= 0 for x in (v if isinstance(v, list) else [v])):
        raise SchemaError(f"key '{key}' must be positive, got {v}")


def _at_least(bound):
    def check(key, v):
        if v < bound:
            raise SchemaError(f"key '{key}' must be >= {bound}, got {v}")
    return check


def _choice(options):
    """A check that a value, or every element of a list value, is one of the
    options, the names in the table its runner reads."""
    def check(key, v):
        if any(x not in options for x in (v if isinstance(v, list) else [v])):
            raise SchemaError(f"key '{key}' must be one of {sorted(options)}, got {v!r}")
    return check


# The tables behind the fixture and preset choices: each maps a name to what
# the runner builds from it
_TUBE_FIXTURES = {
    "point": lambda: point_distance_fn((0.5, 0.5)),
    "segment": lambda: segment_distance_fn((0.25, 0.5), (0.75, 0.5)),
    "circle": lambda: circle_distance_fn((0.5, 0.5), 0.2),
}
_DIMENSION_FIXTURES = {
    "circle": lambda config: circle_cell_membership((0.5, 0.5), config["radius"]),
    "square": lambda config: filled_box_membership((0.0, 0.0), (1.0, 1.0)),
    "point": lambda config: np.array([[0.5, 0.5]]),
}
_PRESETS = {
    "uniform": uniform_preset,
    "concentrated": concentrated_preset,
    "moderate": lambda n: DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * n, w0=2.0),
}


# The keys of an oscillation profile, which oscillate and severity extend
_PROFILE = {
    "map": (str, "pc", _choice(_FITTER_KINDS)),
    "at_x": (float, 0.0, None),
    "at_y": (float, 0.0, None),
    "radii": (list, [0.1, 0.01, 0.001], _positive),
    "k_samples": (int, 64, _at_least(16)),
}

# Per-command schema: key -> (type, default, check(key, value) or None)
SCHEMAS = {
    "lfplot": {
        "map": (str, "pc", _choice(_FITTER_KINDS)),
        "grid_resolution": (int, 16, _at_least(4)),
        "out_csv": (str, "lfplot.csv", None),
        "out_svg": (str, "lfplot.svg", None),
    },
    "winding": {
        "target": (str, "standard", _choice({*_FITTER_KINDS, "standard"})),
        "samples": (int, 512, _at_least(3)),
        "shrink": (float, 1.0, _positive),
        "out": (str, "winding.json", None),
    },
    "localize": {
        "map": (str, "pc", _choice(_FITTER_KINDS)),
        "center_x": (float, 0.0, None),
        "center_y": (float, 0.0, None),
        "half_width": (float, 0.9, _positive),
        "eps": (float, 1e-3, _positive),
        "samples_per_edge": (int, 32, _at_least(2)),
        "out": (str, "localize.json", None),
    },
    "oscillate": {
        **_PROFILE,
        "seed": (int, 0, None),
        "out": (str, "oscillation.json", None),
    },
    "severity": {
        **_PROFILE,
        "mesh": (float, 0.3, _positive),
        "seed": (int, 0, None),
        "out": (str, "severity.json", None),
    },
    "derivprofile": {
        "map": (str, "pc", _choice({*_FITTER_KINDS, "synthetic"})),
        "at_x": (float, 0.0, None),
        "at_y": (float, 0.0, None),
        "eta_max": (float, 0.1, _positive),
        "eta_min": (float, 0.001, _positive),
        "eta_count": (int, 7, _at_least(2)),
        "seed": (int, 0, None),
        "out": (str, "derivprofile.json", None),
        "out_csv": (str, "derivprofile.csv", None),
    },
    "tube": {
        "fixture": (str, "point", _choice(_TUBE_FIXTURES)),
        "delta_min": (float, 1e-3, _positive),
        "delta_max": (float, 1e-1, _positive),
        "delta_count": (int, 9, _at_least(2)),
        "samples": (int, 10**5, _at_least(10**4)),
        "seed": (int, 7, None),
        "threads": (int, 1, _positive),
        "out": (str, "tube.json", None),
    },
    "cdf": {
        "map": (str, "ls", _choice({*_FITTER_KINDS, "augmean"})),
        "n_points": (int, 4, _at_least(1)),
        "samples": (int, 10**5, _at_least(10**4)),
        "seed": (int, 20260810, None),
        "q_lo": (float, 0.002, _positive),
        "q_hi": (float, 0.05, _positive),
        "threads": (int, 1, _positive),
        "out": (str, "cdf.json", None),
        "out_csv": (str, "cdf.csv", None),
    },
    "dimension": {
        "fixture": (str, "circle", _choice(_DIMENSION_FIXTURES)),
        "radius": (float, 0.5, _positive),
        "mesh_max": (float, 0.1, _positive),
        "mesh_min": (float, 0.002, _positive),
        "mesh_count": (int, 6, _at_least(4)),
        "out": (str, "dimension.json", None),
    },
    "tradeoff": {
        "n_points": (int, 3, _at_least(1)),
        "presets": (list, ["uniform", "concentrated"], _choice(_PRESETS)),
        "seed": (int, 11, None),
        "cloud_size": (int, 20000, _at_least(100)),
        "out": (str, "tradeoff.json", None),
    },
}


def resolve_config(command: str, file_config: dict, overrides: dict) -> dict:
    """Merge defaults, config file and flag overrides; validate everything.

    Every float, and every float element of a list, must be finite: no run
    is defined on NaN or infinite sizes, radii or shrinks.  A number key
    refuses a boolean, and an int key a float that is not integral, such as
    2.9 or 1.5; an integral float such as 1e5 is taken as that int.  A
    number key, and each element of a list of numbers, refuses a string from
    the config file, where "0.5" is a JSON string and not a number; flags
    arrive as strings and are parsed.  A str key, and each element of a list
    of strings, refuses any other JSON value, and a list key refuses
    anything but a list."""
    schema = SCHEMAS[command]
    for key in file_config:
        if key not in schema:
            raise SchemaError(f"unknown key '{key}' for command '{command}'")
    config = {}
    for key, (typ, default, check) in schema.items():
        value, from_file = default, key in file_config
        if from_file:
            value = file_config[key]
        if key in overrides and overrides[key] is not None:
            value, from_file = overrides[key], False
        elem = typ
        if typ is list:
            elem = str if (default and isinstance(default[0], str)) else float
            if not isinstance(value, list):
                raise SchemaError(f"key '{key}' must be a list, got {value!r}")
        # a JSON true is not a 1 nor a "True", a JSON "0.5" is not a number,
        # and an int key does not round 2.9 to 2
        items = value if typ is list else [value]
        if elem is str and not all(isinstance(v, str) for v in items):
            raise SchemaError(f"key '{key}' must hold strings, got {value!r}")
        if elem is not str and any(isinstance(v, bool) or (from_file and isinstance(v, str)) for v in items):
            raise SchemaError(f"key '{key}' must be a number, got {value!r}")
        if elem is int and isinstance(value, float) and not value.is_integer():
            raise SchemaError(f"key '{key}' must be an integer, got {value!r}")
        try:
            value = [elem(v) for v in value] if typ is list else elem(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"key '{key}' has invalid value {value!r}: {exc}") from exc
        if not all(math.isfinite(v) for v in (value if typ is list else [value]) if isinstance(v, float)):
            raise SchemaError(f"key '{key}' must be finite, got {value!r}")
        if check is not None:
            check(key, value)
        config[key] = value
    return config


def _out_path(config_value: str, outdir: str | None) -> str:
    """Where an output file goes: a relative path lands under outdir, which
    is created here, when a runner resolves a path it is about to write, so
    no config error leaves an empty output directory."""
    if os.path.isabs(config_value) or not outdir:
        return config_value
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, config_value)


def write_json_report(path, command: str, config: dict, result) -> None:
    # threads is accepted for existing configs but has no effect, so it is
    # not part of the experiment and not echoed
    echoed = {k: v for k, v in config.items() if k != "threads"}
    payload = {"command": command, "config": echoed, "result": result}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _synthetic_batch(us: np.ndarray) -> BatchOutcome:
    """Half the polar angle of slice parameters (m, 2) as a line direction,
    gap |u|, Undefined at the origin: degree 1 in half turns, with a
    derivative that blows up like 1 / (2 |u|)."""
    r = np.linalg.norm(us, axis=1)
    return BatchOutcome(
        value=reduce_mod_pi(0.5 * np.arctan2(us[:, 1], us[:, 0])),
        gap=r,
        reason=np.where(r == 0.0, UndefinedReason.ORIGIN.value, 0),
        feature=LineDirection,
    )


# ---------------------------------------------------------------------------
# Command implementations: each returns (exit_code, result, other_files), and
# main writes a result that is not None as the report at config["out"]
# ---------------------------------------------------------------------------

def _run_lfplot(config, outdir):
    slice_spec = SliceSpec(grid_resolution=config["grid_resolution"])
    csv_path = _out_path(config["out_csv"], outdir)
    svg_path = _out_path(config["out_svg"], outdir)
    render_lf_field(
        slice_spec,
        DataMapSpec(kind=_FITTER_KINDS[config["map"]]),
        csv_path=csv_path,
        svg_path=svg_path,
    )
    return EXIT_OK, None, [csv_path, svg_path]


def _run_winding(config, outdir):
    if config["target"] == "standard" and config["shrink"] != 1.0:
        # the standard is defined only on perfect fits, and a shrunk loop
        # leaves them
        raise SchemaError(f"key 'shrink' must be 1.0 for target 'standard', got {config['shrink']}")
    slice_spec = SliceSpec()
    shrink = config["shrink"]
    loop = Loop((1.0 - shrink) * slice_spec.center_config.points
                + shrink * boundary_loop(slice_spec, config["samples"]).points)
    if config["target"] == "standard":
        fn = standard_batch
    else:
        fn = functools.partial(evaluate_with_standard_batch, DataMapSpec(kind=_FITTER_KINDS[config["target"]]))
    try:
        return EXIT_OK, {**asdict(winding_number(loop, fn)), "status": "ok"}, []
    except LoopHitsSingularityError as exc:
        return EXIT_INCONCLUSIVE, {"status": "LOOP_HITS_SINGULARITY", "detail": str(exc)}, []
    except InconclusiveDegreeError as exc:
        return EXIT_INCONCLUSIVE, {"status": "INCONCLUSIVE", "detail": str(exc)}, []


def _run_localize(config, outdir):
    fn = slice_map(SliceSpec(), DataMapSpec(kind=_FITTER_KINDS[config["map"]]))
    boxes = localize_singularities(
        fn,
        (config["center_x"], config["center_y"]),
        config["half_width"],
        config["eps"],
        samples_per_edge=config["samples_per_edge"],
    )
    result = {"boxes": [asdict(b) for b in boxes]}
    if boxes and not any(b.status == "certified" for b in boxes):
        return EXIT_INCONCLUSIVE, result, []
    return EXIT_OK, result, []


def _oscillation_profile(config):
    slice_spec = SliceSpec()
    spec = DataMapSpec(kind=_FITTER_KINDS[config["map"]])
    at = slice_spec.dataset_at((config["at_x"], config["at_y"]), allow_outside_disk=True)
    return oscillation(spec, at, config["radii"], config["k_samples"], config["seed"])


def _run_oscillate(config, outdir):
    return EXIT_OK, _oscillation_profile(config).to_dict(), []


def _run_severity(config, outdir):
    profile = _oscillation_profile(config)
    label = classify_severity(profile, config["mesh"])
    return EXIT_OK, {"profile": profile.to_dict(), "severity": label}, []


def _run_derivprofile(config, outdir):
    if config["map"] == "synthetic":
        fn = _synthetic_batch
    else:
        fn = slice_map(SliceSpec(), DataMapSpec(kind=_FITTER_KINDS[config["map"]]))
    etas = np.geomspace(config["eta_max"], config["eta_min"], config["eta_count"])
    profile = derivative_blowup_profile(fn, (config["at_x"], config["at_y"]), etas, seed=config["seed"])
    csv_path = _out_path(config["out_csv"], outdir)
    lines = ["eta,avg_derivative,avg_distance"]
    for e, d, r in zip(profile.etas, profile.avg_derivative, profile.avg_distance):
        lines.append(f"{e:.12g},{d:.12g},{r:.12g}")
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return EXIT_OK, asdict(profile), [csv_path]


def _run_tube(config, outdir):
    deltas = np.geomspace(config["delta_min"], config["delta_max"], config["delta_count"])
    report = tube_volume(
        _TUBE_FIXTURES[config["fixture"]](),
        (0.0, 0.0),
        (1.0, 1.0),
        deltas,
        config["samples"],
        config["seed"],
    )
    return EXIT_OK, asdict(report), []


# The record of one value in _format_g12, in 4-byte words: the value's 12
# significant digits (words 0-2), the text "0.000" and three zero bytes
# (3-4), the 12 digits again (5-7) and a newline with three zero bytes (8).
# In bytes: the first copy at 0-11, "0.000" at 12-16 (the point at 13), the
# second copy at 20-31 and the newline at 32.
_G12_WORDS = 9
_G12_NO_ROW = 15 * 12  # the keep row of a value left to Python's %


@functools.cache
def _g12_tables():
    """Read-only tables of _format_g12, built on first use: the 10^4
    four-digit groups as ASCII words, the trailing zeros of each group, the
    keep masks and kept lengths of each record by exponent and trailing
    zeros, and the exact doubles 10^0..10^17."""
    d = np.arange(10_000)
    ascii_digits = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1) + ord("0")
    groups = ascii_digits.astype(np.uint8).view(np.uint32).ravel()
    zeros = (d % 10 == 0).astype(np.intp) + (d % 100 == 0) + (d % 1000 == 0) + (d == 0)
    # A row with exponent e >= 0 keeps digits 0..e of the first copy, the
    # point and the rest of the second copy; one with e < 0 keeps "0." and
    # -e-1 zeros, then the second copy.  Either stops at its last nonzero
    # digit and drops the point when no fraction digit is left.
    e = np.arange(-4, 11)[:, None, None]
    last = np.arange(11, -1, -1)[:, None]  # the last nonzero digit, by trailing zeros
    col = np.arange(4 * _G12_WORDS)
    first_copy = (col <= e) | ((last > e) & ((col == 13) | ((col >= 21 + e) & (col <= 20 + last))))
    no_whole = ((col >= 12) & (col <= 12 - e)) | ((col >= 20) & (col <= 20 + last))
    keep = np.zeros((_G12_NO_ROW + 1, len(col)), dtype=bool)
    keep[:-1] = (np.where(e >= 0, first_copy, no_whole) | (col == 32)).reshape(_G12_NO_ROW, len(col))
    lengths = keep.sum(axis=1)
    keep = (keep * np.uint8(255)).view(np.uint32)
    template = np.frombuffer(b"0.000\0\0\0" + bytes(12) + b"\n\0\0\0", dtype=np.uint32)
    pow10 = np.array([float(10**k) for k in range(18)])  # exact, whatever numpy's power does
    tables = groups, zeros, keep, lengths, template, pow10
    for table in tables:
        table.flags.writeable = False
    return tables


def _g12_by_percent(x) -> bytes:
    """One value's line by Python's %, for a row _format_g12 leaves to it."""
    return b"%.12g\n" % x


def _format_g12(values) -> bytes:
    """``b"%.12g\\n"`` of every value, concatenated: the bytes Python's %
    gives, from whole-array numpy.

    %.12g writes a value whose exponent e, after rounding to 12 significant
    digits, lies in [-4, 10] in fixed notation.  For a finite v in [1e-4,
    1e11), log10 estimates e and one step corrects it, so that p = v *
    10^(11-e) lies in [1e11, 1e12).  10^(11-e) is an exact double, so p is
    v's exact decimal scaled to 12 integer digits, rounded once; log10's last
    bit, which depends on numpy's SIMD dispatch, only picks e.  As p < 2^40,
    that rounding moves p by at most 2^-14, so rint(p) is the correctly
    rounded digit string M of every row whose fraction lies more than 2^-10
    from one half.  Each row's record holds M twice around "0.000", is
    masked to the bytes the row keeps and the zero bytes are deleted.
    Python's % formats the other rows one by one: near-half rows, a carry to
    10^11, zero, negatives, NaN, infinities and values out of the range.
    """
    groups, zeros, keep, lengths, template, pow10 = _g12_tables()
    v = np.asarray(values, dtype=float).ravel()
    fast = (v >= 1e-4) & (v < 1e11)  # NaN fails both
    vs = np.where(fast, v, 1.0)
    e = np.floor(np.log10(vs)).astype(np.intp)
    p = vs * pow10.take(11 - e, mode="clip")
    off = np.flatnonzero((p < 1e11) | (p >= 1e12))  # log10 missed e by one
    if len(off):
        e[off] += p[off] >= 1e12
        e[off] -= p[off] < 1e11
        p[off] = vs[off] * pow10.take(11 - e[off], mode="clip")
        fast[off] &= (p[off] >= 1e11) & (p[off] < 1e12)
    m = np.rint(p)
    fast &= np.abs(p - m) < 0.5 - 2.0**-10
    carry = np.flatnonzero(m == 1e12)
    if len(carry):
        m[carry] = 1e11
        e[carry] += 1
        fast[carry] &= e[carry] <= 10
    # M's digit groups: hi = M // 10^8, mid, lo = M % 10^4
    lo = m.astype(np.int64)
    mid = lo // 10**4
    lo -= mid * 10**4
    hi = mid // 10**4
    mid -= hi * 10**4
    trailing = zeros.take(lo, mode="clip")
    more = np.flatnonzero(trailing == 4)
    if len(more):
        trailing[more] += zeros.take(mid[more], mode="clip")
        most = more[trailing[more] == 8]
        trailing[most] += zeros.take(hi[most], mode="clip")
    key = e + 4
    key *= 12
    key += trailing
    key[~fast] = _G12_NO_ROW
    # the first copy's words that some row keeps: none when every e < 0
    lead = (int(e.max(where=fast, initial=-1)) + 4) // 4
    rec = np.empty((len(v), lead + 6), dtype=np.uint32)
    rec[:, lead:] = template
    for k, part in enumerate((hi, mid, lo)):
        rec[:, lead + 2 + k] = word = groups.take(part, mode="clip")
        if k < lead:
            rec[:, k] = word
    rec &= keep[:, np.r_[:lead, 3:_G12_WORDS]].take(key, axis=0, mode="clip")
    text = rec.tobytes().translate(None, b"\0")
    slow = np.flatnonzero(~fast)
    if not len(slow):
        return text
    ends = np.cumsum(lengths.take(key))[slow].tolist()
    pieces, start = [], 0
    for i, end in zip(slow.tolist(), ends):
        pieces += (text[start:end], _g12_by_percent(v[i]))
        start = end
    pieces.append(text[start:])
    return b"".join(pieces)


def _run_cdf(config, outdir):
    if config["map"] == "augmean":
        spec = uniform_preset(config["n_points"])
    else:
        spec = DataMapSpec(kind=_FITTER_KINDS[config["map"]])
    report = distance_cdf(
        spec,
        config["n_points"],
        config["samples"],
        config["seed"],
        quantile_window=(config["q_lo"], config["q_hi"]),
    )
    csv_path = _out_path(config["out_csv"], outdir)
    dists = report.sorted_distances
    with open(csv_path, "wb") as fh:
        fh.write(b"distance\n")
        # one 2^14-row slice's text at a time, never the whole column's
        for start in range(0, len(dists), 1 << 14):
            fh.write(_format_g12(dists[start:start + (1 << 14)]))
    return EXIT_OK, report.to_dict(), [csv_path]


def _run_dimension(config, outdir):
    meshes = np.geomspace(config["mesh_max"], config["mesh_min"], config["mesh_count"])
    membership = _DIMENSION_FIXTURES[config["fixture"]](config)
    return EXIT_OK, asdict(box_count_dimension(membership, (0.0, 0.0), (1.0, 1.0), meshes)), []


def _run_tradeoff(config, outdir):
    n = config["n_points"]
    presets = {name.upper(): _PRESETS[name](n) for name in config["presets"]}
    return EXIT_OK, tradeoff_experiment(presets, n, config["seed"], cloud_size=config["cloud_size"]).to_dict(), []


_RUNNERS = {
    "lfplot": _run_lfplot,
    "winding": _run_winding,
    "localize": _run_localize,
    "oscillate": _run_oscillate,
    "severity": _run_severity,
    "derivprofile": _run_derivprofile,
    "tube": _run_tube,
    "cdf": _run_cdf,
    "dimension": _run_dimension,
    "tradeoff": _run_tradeoff,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use.

    Building the ten subparsers takes 2.4-3.2 ms on a 2-vCPU VM, some fifty
    times a parse.  Reusing one parser gives what a fresh one per call
    gives: ``parse_args`` fills a new namespace each time and leaves the
    parser's actions, defaults and help text as they were, so a bad flag
    still exits 2 with the same usage text.  It is not built at import, so
    an import that never parses does not pay for it.
    """
    parser = argparse.ArgumentParser(
        prog="singlab",
        description="Evaluate data maps, certify singularities, measure singular sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--outdir", help="output directory (default $SINGLAB_OUTDIR or cwd)")
        for key, (typ, default, _) in schema.items():
            flag = "--" + key.replace("_", "-")
            if typ is list:
                p.add_argument(flag, default=None,
                               help=f"comma-separated values (default {default})")
            else:
                p.add_argument(flag, type=str, default=None, help=f"default {default}")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    try:
        file_config = {}
        if args.config:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_config = json.load(fh)
            if not isinstance(file_config, dict):
                raise SchemaError("config file must contain a JSON object")
        overrides = {}
        for key, (typ, _, _) in SCHEMAS[command].items():
            raw = getattr(args, key, None)
            if raw is None:
                continue
            overrides[key] = [p for p in str(raw).split(",")] if typ is list else raw
        config = resolve_config(command, file_config, overrides)
    except (SchemaError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    outdir = args.outdir or os.environ.get("SINGLAB_OUTDIR")
    try:
        code, result, files = _RUNNERS[command](config, outdir)
        if result is not None:
            path = _out_path(config["out"], outdir)
            write_json_report(path, command, config, result)
            files = [path, *files]
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ContractViolation as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    for f in files:
        print(f)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
