"""Config-driven experiment runner.

One subcommand per experiment; parameters come from an optional JSON config
file plus command-line flags (flags win).  Unknown config keys and NaN or
infinite floats are rejected, every report echoes the fully resolved
config, and identical config + seed produce byte-identical output files.
The ``threads`` key of lfplot, tube and cdf is still accepted and validated
but has no effect: ``evaluate_batch`` runs the row blocks of a large LAD
batch on up to two of the CPUs the process may use, and no output bit
depends on their number.

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


# Per-command schema: key -> (type, default, validator or None)
def _positive(name):
    def check(v):
        if any(x <= 0 for x in (v if isinstance(v, list) else [v])):
            raise SchemaError(f"key '{name}' must be positive, got {v}")
    return check


def _at_least(name, bound):
    def check(v):
        if v < bound:
            raise SchemaError(f"key '{name}' must be >= {bound}, got {v}")
    return check


def _choice(name, options):
    def check(v):
        if v not in options:
            raise SchemaError(f"key '{name}' must be one of {sorted(options)}, got {v!r}")
    return check


SCHEMAS = {
    "lfplot": {
        "map": (str, "pc", _choice("map", set(_FITTER_KINDS))),
        "grid_resolution": (int, 16, _at_least("grid_resolution", 4)),
        "threads": (int, 1, _positive("threads")),
        "out_csv": (str, "lfplot.csv", None),
        "out_svg": (str, "lfplot.svg", None),
    },
    "winding": {
        "target": (str, "standard", _choice("target", {"standard", "ls", "pc", "lad"})),
        "samples": (int, 512, _at_least("samples", 3)),
        "shrink": (float, 1.0, _positive("shrink")),
        "out": (str, "winding.json", None),
    },
    "localize": {
        "map": (str, "pc", _choice("map", set(_FITTER_KINDS))),
        "center_x": (float, 0.0, None),
        "center_y": (float, 0.0, None),
        "half_width": (float, 0.9, _positive("half_width")),
        "eps": (float, 1e-3, _positive("eps")),
        "samples_per_edge": (int, 32, _at_least("samples_per_edge", 2)),
        "out": (str, "localize.json", None),
    },
    "oscillate": {
        "map": (str, "pc", _choice("map", set(_FITTER_KINDS))),
        "at_x": (float, 0.0, None),
        "at_y": (float, 0.0, None),
        "radii": (list, [0.1, 0.01, 0.001], _positive("radii")),
        "k_samples": (int, 64, _at_least("k_samples", 16)),
        "seed": (int, 0, None),
        "out": (str, "oscillation.json", None),
    },
    "severity": {
        "map": (str, "pc", _choice("map", set(_FITTER_KINDS))),
        "at_x": (float, 0.0, None),
        "at_y": (float, 0.0, None),
        "radii": (list, [0.1, 0.01, 0.001], _positive("radii")),
        "k_samples": (int, 64, _at_least("k_samples", 16)),
        "mesh": (float, 0.3, _positive("mesh")),
        "seed": (int, 0, None),
        "out": (str, "severity.json", None),
    },
    "derivprofile": {
        "map": (str, "pc", _choice("map", {"ls", "pc", "lad", "synthetic"})),
        "at_x": (float, 0.0, None),
        "at_y": (float, 0.0, None),
        "eta_max": (float, 0.1, _positive("eta_max")),
        "eta_min": (float, 0.001, _positive("eta_min")),
        "eta_count": (int, 7, _at_least("eta_count", 2)),
        "seed": (int, 0, None),
        "out": (str, "derivprofile.json", None),
        "out_csv": (str, "derivprofile.csv", None),
    },
    "tube": {
        "fixture": (str, "point", _choice("fixture", {"point", "segment", "circle"})),
        "delta_min": (float, 1e-3, _positive("delta_min")),
        "delta_max": (float, 1e-1, _positive("delta_max")),
        "delta_count": (int, 9, _at_least("delta_count", 2)),
        "samples": (int, 10**5, _at_least("samples", 10**4)),
        "seed": (int, 7, None),
        "threads": (int, 1, _positive("threads")),
        "out": (str, "tube.json", None),
    },
    "cdf": {
        "map": (str, "ls", _choice("map", {"ls", "pc", "lad", "augmean"})),
        "n_points": (int, 4, _at_least("n_points", 1)),
        "samples": (int, 10**5, _at_least("samples", 10**4)),
        "seed": (int, 20260810, None),
        "q_lo": (float, 0.002, _positive("q_lo")),
        "q_hi": (float, 0.05, _positive("q_hi")),
        "threads": (int, 1, _positive("threads")),
        "out": (str, "cdf.json", None),
        "out_csv": (str, "cdf.csv", None),
    },
    "dimension": {
        "fixture": (str, "circle", _choice("fixture", {"circle", "square", "point"})),
        "radius": (float, 0.5, _positive("radius")),
        "mesh_max": (float, 0.1, _positive("mesh_max")),
        "mesh_min": (float, 0.002, _positive("mesh_min")),
        "mesh_count": (int, 6, _at_least("mesh_count", 4)),
        "out": (str, "dimension.json", None),
    },
    "tradeoff": {
        "n_points": (int, 3, _at_least("n_points", 1)),
        "presets": (list, ["uniform", "concentrated"], None),
        "seed": (int, 11, None),
        "cloud_size": (int, 20000, _at_least("cloud_size", 100)),
        "out": (str, "tradeoff.json", None),
    },
}


def resolve_config(command: str, file_config: dict, overrides: dict) -> dict:
    """Merge defaults, config file and flag overrides; validate everything.

    Every float, and every float element of a list, must be finite: no run
    is defined on NaN or infinite sizes, radii or shrinks."""
    schema = SCHEMAS[command]
    for key in file_config:
        if key not in schema:
            raise SchemaError(f"unknown key '{key}' for command '{command}'")
    config = {}
    for key, (typ, default, check) in schema.items():
        value = default
        if key in file_config:
            value = file_config[key]
        if key in overrides and overrides[key] is not None:
            value = overrides[key]
        try:
            if typ is list:
                elem = str if (default and isinstance(default[0], str)) else float
                value = [elem(v) for v in value]
            else:
                value = typ(value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"key '{key}' has invalid value {value!r}: {exc}") from exc
        if not all(math.isfinite(v) for v in (value if typ is list else [value]) if isinstance(v, float)):
            raise SchemaError(f"key '{key}' must be finite, got {value!r}")
        if check is not None:
            check(value)
        config[key] = value
    return config


def _out_path(config_value: str, outdir: str | None) -> str:
    if os.path.isabs(config_value) or outdir is None:
        return config_value
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
    loop = boundary_loop(slice_spec, config["samples"])
    if config["target"] == "standard":
        fn = standard_batch
    else:
        fn = functools.partial(evaluate_with_standard_batch, DataMapSpec(kind=_FITTER_KINDS[config["target"]]))
    if config["shrink"] != 1.0:
        shrink = config["shrink"]
        center = slice_spec.center_config.points
        loop = Loop((1.0 - shrink) * center + shrink * loop.points)
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


_TUBE_FIXTURES = {
    "point": lambda: point_distance_fn((0.5, 0.5)),
    "segment": lambda: segment_distance_fn((0.25, 0.5), (0.75, 0.5)),
    "circle": lambda: circle_distance_fn((0.5, 0.5), 0.2),
}


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
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("distance\n")
        for start in range(0, len(dists), 1 << 14):  # a slice at a time, never the whole column's text
            values = dists[start:start + (1 << 14)].tolist()
            fh.write("%.12g\n" * len(values) % tuple(values))
    return EXIT_OK, report.to_dict(), [csv_path]


def _run_dimension(config, outdir):
    meshes = np.geomspace(config["mesh_max"], config["mesh_min"], config["mesh_count"])
    fixture = config["fixture"]
    if fixture == "circle":
        membership = circle_cell_membership((0.5, 0.5), config["radius"])
    elif fixture == "square":
        membership = filled_box_membership((0.0, 0.0), (1.0, 1.0))
    else:
        membership = np.array([[0.5, 0.5]])
    return EXIT_OK, asdict(box_count_dimension(membership, (0.0, 0.0), (1.0, 1.0), meshes)), []


def _run_tradeoff(config, outdir):
    n = config["n_points"]
    named = {
        "uniform": uniform_preset(n),
        "concentrated": concentrated_preset(n),
        "moderate": DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * n, w0=2.0),
    }
    presets = {}
    for name in config["presets"]:
        key = str(name)
        if key not in named:
            raise SchemaError(f"key 'presets' contains unknown preset {key!r}")
        presets[key.upper()] = named[key]
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
    if outdir:
        os.makedirs(outdir, exist_ok=True)
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
