"""CLI: schema validation, exit codes, byte-level determinism."""

import contextlib
import decimal
import hashlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singlab
import singlab.cli
import singlab.datamaps
import singlab.measure
import singlab.metrics
import singlab.slices
import singlab.topology

from singlab.cli import EXIT_INCONCLUSIVE, EXIT_INTERNAL, EXIT_OK, EXIT_SCHEMA, _format_g12, main, resolve_config
from singlab.slices import slice_map

from fresh_python import run_python


def run(args, outdir):
    return main(args + ["--outdir", str(outdir)])


@pytest.fixture
def no_runner(monkeypatch):
    """Fails the test if a command's runner starts."""
    def started(*args, **kwargs):
        raise AssertionError("a runner started on a rejected config")

    for command in singlab.cli._RUNNERS:
        monkeypatch.setitem(singlab.cli._RUNNERS, command, started)


def test_cdf_byte_reproducible(tmp_path):
    args = ["cdf", "--map", "ls", "--n-points", "4", "--samples", "20000", "--seed", "42"]
    assert run(args, tmp_path / "a") == EXIT_OK
    assert run(args, tmp_path / "b") == EXIT_OK
    for name in ("cdf.json", "cdf.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_cdf_byte_reproducible_across_threads(tmp_path):
    base = ["cdf", "--map", "pc", "--n-points", "4", "--samples", "20000", "--seed", "42"]
    assert run(base + ["--threads", "1"], tmp_path / "t1") == EXIT_OK
    assert run(base + ["--threads", "4"], tmp_path / "t4") == EXIT_OK
    for name in ("cdf.json", "cdf.csv"):
        assert (tmp_path / "t1" / name).read_bytes() == (tmp_path / "t4" / name).read_bytes()


def test_tube_byte_reproducible_across_threads(tmp_path):
    base = ["tube", "--fixture", "segment", "--samples", "30000", "--seed", "7"]
    assert run(base + ["--threads", "1"], tmp_path / "t1") == EXIT_OK
    assert run(base + ["--threads", "4"], tmp_path / "t4") == EXIT_OK
    assert (tmp_path / "t1" / "tube.json").read_bytes() == (tmp_path / "t4" / "tube.json").read_bytes()


def test_lfplot_outputs(tmp_path):
    assert run(["lfplot", "--map", "pc", "--grid-resolution", "8"], tmp_path) == EXIT_OK
    csv = (tmp_path / "lfplot.csv").read_text()
    assert csv.splitlines()[0] == "u_x,u_y,theta_or_nan,gap,status"
    svg = (tmp_path / "lfplot.svg").read_text()
    assert svg.rstrip().endswith("</svg>")
    # byte determinism incl. the SVG
    assert run(["lfplot", "--map", "pc", "--grid-resolution", "8"], tmp_path / "again") == EXIT_OK
    assert (tmp_path / "lfplot.svg").read_bytes() == (tmp_path / "again" / "lfplot.svg").read_bytes()


def test_winding_report(tmp_path):
    assert run(["winding", "--target", "standard", "--samples", "64"], tmp_path) == EXIT_OK
    payload = json.loads((tmp_path / "winding.json").read_text())
    assert payload["result"]["degree"] == 2
    assert payload["result"]["max_depth"] == 0
    assert payload["config"]["samples"] == 64
    # 5 boundary samples step 2 pi / 5 in the lift: every edge is bisected once
    assert run(["winding", "--target", "standard", "--samples", "5"], tmp_path) == EXIT_OK
    result = json.loads((tmp_path / "winding.json").read_text())["result"]
    assert (result["degree"], result["samples_used"], result["max_depth"]) == (2, 10, 1)


@pytest.mark.parametrize("target, shrink, status, detail", [
    # shrunk to within 1e-13 of the slice center, PC's eigenvalue tie, every
    # sample is Undefined; at half the radius a LAD edge stays a long arc
    ("pc", "1e-13", "LOOP_HITS_SINGULARITY", "loop sample evaluated Undefined (EIGENVALUE_TIE)"),
    ("lad", "0.5", "INCONCLUSIVE", "edge not short-arc after 24 bisections"),
])
def test_winding_reports_inconclusive_loops(tmp_path, target, shrink, status, detail):
    args = ["winding", "--target", target, "--shrink", shrink, "--samples", "64"]
    assert run(args, tmp_path) == EXIT_INCONCLUSIVE
    result = json.loads((tmp_path / "winding.json").read_text())["result"]
    assert result == {"status": status, "detail": detail}


def test_winding_standard_rejects_shrink(tmp_path, capsys, monkeypatch):
    # the standard is defined only on perfect fits, which a shrunk loop
    # leaves: the key is named before anything is evaluated
    def evaluated(*args, **kwargs):
        raise AssertionError("winding evaluated a rejected config")

    monkeypatch.setattr(singlab.cli, "winding_number", evaluated)
    assert run(["winding", "--target", "standard", "--shrink", "0.99"], tmp_path) == EXIT_SCHEMA
    assert "key 'shrink'" in capsys.readouterr().err
    assert not (tmp_path / "winding.json").exists()


def test_os_errors_exit_by_stage(tmp_path, capsys):
    # an unreadable config file is a config error; a report the run cannot
    # write is an internal one
    assert run(["dimension", "--config", str(tmp_path / "missing.json")], tmp_path) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("config error: ")
    out = str(tmp_path / "missing" / "dimension.json")
    assert run(["dimension", "--fixture", "point", "--out", out], tmp_path) == EXIT_INTERNAL
    assert capsys.readouterr().err.startswith("internal error: FileNotFoundError")


def refuse_one_row_batches(monkeypatch):
    """evaluate_batch, wherever the package calls it, made to fail on a
    one-row batch: per-sample evaluation would make such calls."""
    evaluate_batch = singlab.datamaps.evaluate_batch

    def whole_batches_only(spec, inputs):
        if len(inputs) == 1:
            raise AssertionError("one-row evaluation on a batched path")
        return evaluate_batch(spec, inputs)

    for module in (singlab.datamaps, singlab.metrics, singlab.slices):
        monkeypatch.setattr(module, "evaluate_batch", whole_batches_only)


def test_certify_commands_stay_batched(tmp_path, monkeypatch):
    # localize, winding and lfplot evaluate whole batches and read their
    # results off the arrays: a fall back to per-sample evaluation or slice
    # embedding would hit these
    def scalar_path(*args, **kwargs):
        raise AssertionError("scalar evaluation on a batched path")

    refuse_one_row_batches(monkeypatch)
    monkeypatch.setattr(singlab.slices.SliceSpec, "dataset_at", scalar_path)
    runs = [
        (["localize", "--map", "pc", "--eps", "0.01"], EXIT_OK),
        (["localize", "--map", "lad", "--eps", "0.01"], EXIT_INCONCLUSIVE),
        (["winding", "--target", "ls", "--shrink", "0.999", "--samples", "256"], EXIT_OK),
        (["winding", "--target", "standard", "--samples", "64"], EXIT_OK),
        (["lfplot", "--map", "lad", "--grid-resolution", "8"], EXIT_OK),
    ]
    for args, code in runs:
        assert run(args, tmp_path) == code, args


def test_oscillate_and_severity_stay_batched(tmp_path, monkeypatch):
    # oscillation evaluates each radius's samples as one batch and takes the
    # diameter on arrays: per-sample evaluation would hit this
    refuse_one_row_batches(monkeypatch)
    assert run(["oscillate", "--map", "pc"], tmp_path) == EXIT_OK
    assert run(["severity", "--map", "lad"], tmp_path) == EXIT_OK
    profile = json.loads((tmp_path / "severity.json").read_text())["result"]["profile"]
    assert len(profile["diameters"]) == 3


def test_refine_commands_stay_batched(tmp_path, monkeypatch):
    # derivprofile evaluates each jitter attempt and each arc's stencils as
    # one batch, and dimension tests only cells near the previous mesh's
    # occupied ones
    def scalar_path(*args, **kwargs):
        raise AssertionError("scalar evaluation on a batched path")

    refuse_one_row_batches(monkeypatch)
    monkeypatch.setattr(singlab.slices.SliceSpec, "dataset_at", scalar_path)
    for m in ("pc", "lad", "synthetic"):
        assert run(["derivprofile", "--map", m, "--eta-count", "13"], tmp_path) == EXIT_OK, m
        assert not any(json.loads((tmp_path / "derivprofile.json").read_text())["result"]["flagged"])

    cells = []
    circle = singlab.cli.circle_cell_membership

    def counted(center, radius):
        pred = circle(center, radius)

        def count(lo, hi):
            cells.append(len(lo))
            return pred(lo, hi)

        return count

    monkeypatch.setattr(singlab.cli, "circle_cell_membership", counted)
    assert run(["dimension", "--fixture", "circle", "--mesh-min", "0.0005"], tmp_path) == EXIT_OK
    counts = json.loads((tmp_path / "dimension.json").read_text())["result"]["occupied_counts"]
    assert counts == [44, 112, 332, 960, 2772, 8008]
    assert sum(cells) < 10**5
    assert max(cells) <= singlab.measure._PREDICATE_CELLS


def test_localize_pc_report(tmp_path):
    assert run(["localize", "--map", "pc", "--eps", "0.01"], tmp_path) == EXIT_OK
    payload = json.loads((tmp_path / "localize.json").read_text())
    boxes = payload["result"]["boxes"]
    assert len(boxes) == 2
    assert all(b["status"] == "certified" for b in boxes)
    assert any(abs(b["center"][0]) < 0.01 and abs(b["center"][1]) < 0.01 for b in boxes)


def test_localize_ls_inconclusive_exit_code(tmp_path):
    # LS has no certifiable interior singularity on the slice: the localizer
    # emits only inconclusive boxes and the run signals it
    code = run(["localize", "--map", "ls", "--eps", "0.001"], tmp_path)
    assert code == EXIT_INCONCLUSIVE
    payload = json.loads((tmp_path / "localize.json").read_text())
    assert payload["result"]["boxes"]
    assert all(b["status"] == "inconclusive" for b in payload["result"]["boxes"])


def test_schema_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"bogus_key": 3}')
    assert main(["tube", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_SCHEMA
    assert not (tmp_path / "tube.json").exists()


def test_schema_rejects_negative_radius(tmp_path, capsys):
    assert run(["dimension", "--fixture", "circle", "--radius", "-0.5"], tmp_path) == EXIT_SCHEMA
    assert "radius" in capsys.readouterr().err
    assert not (tmp_path / "dimension.json").exists()


def test_schema_rejects_bad_values(tmp_path, capsys):
    cases = [
        (["cdf", "--samples", "10"], "samples"),
        (["cdf", "--map", "quantile"], "map"),
        (["tube", "--samples", "notanumber"], "samples"),
        (["localize", "--eps", "-1"], "eps"),
        (["tradeoff", "--presets", "uniform,bogus"], "presets"),
    ]
    for args, key in cases:
        assert run(args, tmp_path) == EXIT_SCHEMA
        assert key in capsys.readouterr().err


@pytest.mark.parametrize("args, key", [
    (["winding", "--target", "pc", "--shrink", "inf"], "shrink"),
    (["dimension", "--mesh-min", "nan"], "mesh_min"),
    (["severity", "--mesh", "nan"], "mesh"),
    (["oscillate", "--radii", "inf,1,0.1"], "radii"),
    (["localize", "--map", "pc", "--eps", "nan"], "eps"),
    (["tube", "--delta-min", "inf"], "delta_min"),
    (["localize", "--map", "pc", "--half-width", "inf"], "half_width"),
])
def test_schema_rejects_non_finite_values(tmp_path, capsys, no_runner, args, key):
    # each of these ran out of memory, raised, warned or exited 0 or 3 when
    # it reached its runner: the schema names the key before any runner starts
    assert run(args, tmp_path) == EXIT_SCHEMA
    assert f"key '{key}' must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, config, key", [
    ("cdf", {"samples": 10000.9, "seed": 1.5, "n_points": 4.7}, "n_points"),
    ("cdf", {"seed": 1.5}, "seed"),
    ("cdf", {"samples": math.inf}, "samples"),
    ("localize", {"samples_per_edge": 2.9}, "samples_per_edge"),
    ("localize", {"half_width": True}, "half_width"),
    ("tube", {"seed": True}, "seed"),
    ("oscillate", {"radii": [0.1, True, 0.001]}, "radii"),
    ("dimension", {"out": True, "fixture": "point"}, "out"),
    ("tradeoff", {"presets": "uniform"}, "presets"),
    ("tradeoff", {"presets": ["uniform", 3]}, "presets"),
    ("localize", {"map": ["pc"]}, "map"),
    ("localize", {"half_width": "0.5", "samples_per_edge": "8"}, "half_width"),
    ("localize", {"samples_per_edge": "8"}, "samples_per_edge"),
    ("oscillate", {"radii": ["0.1", 0.01, 0.001]}, "radii"),
    ("tradeoff", {"presets": ["bogus"]}, "presets"),
])
def test_config_file_refuses_booleans_and_fractional_ints(tmp_path, capsys, no_runner, command, config, key):
    # each ran truncated or with true as 1, or raised OverflowError (inf);
    # a str key took the str of any JSON value (out true wrote a file named
    # True), a list key given a string split it into characters, and a
    # number key parsed a JSON string ("0.5" ran as 0.5)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main([command, "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(f"config error: key '{key}'")
    assert list(tmp_path.iterdir()) == [cfg]


def test_cdf_of_an_augmented_mean_without_singular_set_is_a_run_error(tmp_path, capsys):
    # one point and w0 = 0.5 leave the singular set empty: the run exited 0
    # with a tail exponent of 86.15 over "distances" all >= 0.5
    assert run(["cdf", "--map", "augmean", "--n-points", "1"], tmp_path / "out") == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("run error: the augmented mean's singular set is empty")
    assert not (tmp_path / "out").exists()


def test_cdf_lad_two_points_is_a_contract_error(tmp_path, capsys):
    # two points have one candidate line, so every LAD tie-gap surrogate is
    # 0 and no distance in the quantile window can be fitted
    assert run(["cdf", "--map", "lad", "--n-points", "2", "--samples", "10000"], tmp_path) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("run error: fewer than two positive distances")
    assert not (tmp_path / "cdf.json").exists()


@pytest.mark.parametrize("args, prefix", [
    # one delta has one hit log, so no slope can be fitted: the run fails
    (["tube", "--delta-min", "0.01", "--delta-max", "0.01"], "run error: fewer than two distinct deltas"),
    # the schema refuses the config before any run starts
    (["tube", "--delta-min", "-0.01"], "config error: key 'delta_min'"),
    (["winding", "--target", "standard", "--shrink", "0.5"], "config error: key 'shrink'"),
    (["tradeoff", "--presets", "uniform,bogus"], "config error: key 'presets'"),
])
def test_run_errors_and_config_errors_are_told_apart(tmp_path, capsys, args, prefix):
    # the output directory is made only when a file is about to be written
    # there, so none of these leaves an empty one behind
    assert run(args, tmp_path / "out") == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(prefix)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["oscillate", "--radii=-0.1,-0.2,-0.3"],
    ["severity", "--radii=0.1,0.01,-0.001"],
    ["severity", "--radii=0.1,0.01,0"],
])
def test_schema_refuses_radii_that_are_not_positive(tmp_path, capsys, args):
    # each of these ran and exited 0: diameters of balls of negative radius,
    # a SEVERE label, a NaN diameter labelled UNDECIDED
    assert run(args, tmp_path) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("config error: key 'radii' must be positive")
    assert not list(tmp_path.iterdir())


# One out-of-range value for every schema row that has a check, and the
# message its check gives
_FITTERS = "['lad', 'ls', 'pc']"
_CHECKED_ROWS = [
    ("lfplot", "map", "nope", f"must be one of {_FITTERS}, got 'nope'"),
    ("lfplot", "grid_resolution", "3", "must be >= 4, got 3"),
    ("winding", "target", "nope", "must be one of ['lad', 'ls', 'pc', 'standard'], got 'nope'"),
    ("winding", "samples", "2", "must be >= 3, got 2"),
    ("winding", "shrink", "0", "must be positive, got 0.0"),
    ("localize", "map", "nope", f"must be one of {_FITTERS}, got 'nope'"),
    ("localize", "half_width", "0", "must be positive, got 0.0"),
    ("localize", "eps", "-1", "must be positive, got -1.0"),
    ("localize", "samples_per_edge", "1", "must be >= 2, got 1"),
    ("oscillate", "map", "nope", f"must be one of {_FITTERS}, got 'nope'"),
    ("oscillate", "radii", "0.1,0", "must be positive, got [0.1, 0.0]"),
    ("oscillate", "k_samples", "15", "must be >= 16, got 15"),
    ("severity", "map", "nope", f"must be one of {_FITTERS}, got 'nope'"),
    ("severity", "radii", "-0.1", "must be positive, got [-0.1]"),
    ("severity", "k_samples", "15", "must be >= 16, got 15"),
    ("severity", "mesh", "0", "must be positive, got 0.0"),
    ("derivprofile", "map", "nope", "must be one of ['lad', 'ls', 'pc', 'synthetic'], got 'nope'"),
    ("derivprofile", "eta_max", "0", "must be positive, got 0.0"),
    ("derivprofile", "eta_min", "-1e-3", "must be positive, got -0.001"),
    ("derivprofile", "eta_count", "1", "must be >= 2, got 1"),
    ("tube", "fixture", "nope", "must be one of ['circle', 'point', 'segment'], got 'nope'"),
    ("tube", "delta_min", "0", "must be positive, got 0.0"),
    ("tube", "delta_max", "0", "must be positive, got 0.0"),
    ("tube", "delta_count", "1", "must be >= 2, got 1"),
    ("tube", "samples", "9999", "must be >= 10000, got 9999"),
    ("tube", "threads", "0", "must be positive, got 0"),
    ("cdf", "map", "nope", "must be one of ['augmean', 'lad', 'ls', 'pc'], got 'nope'"),
    ("cdf", "n_points", "0", "must be >= 1, got 0"),
    ("cdf", "samples", "9999", "must be >= 10000, got 9999"),
    ("cdf", "q_lo", "0", "must be positive, got 0.0"),
    ("cdf", "q_hi", "0", "must be positive, got 0.0"),
    ("cdf", "threads", "0", "must be positive, got 0"),
    ("dimension", "fixture", "nope", "must be one of ['circle', 'point', 'square'], got 'nope'"),
    ("dimension", "radius", "0", "must be positive, got 0.0"),
    ("dimension", "mesh_max", "0", "must be positive, got 0.0"),
    ("dimension", "mesh_min", "0", "must be positive, got 0.0"),
    ("dimension", "mesh_count", "3", "must be >= 4, got 3"),
    ("tradeoff", "n_points", "0", "must be >= 1, got 0"),
    ("tradeoff", "presets", "uniform,bogus",
     "must be one of ['concentrated', 'moderate', 'uniform'], got ['uniform', 'bogus']"),
    ("tradeoff", "cloud_size", "99", "must be >= 100, got 99"),
]


def test_every_checked_schema_row_has_an_out_of_range_case():
    checked = {(command, key) for command, schema in singlab.cli.SCHEMAS.items()
               for key, (_, _, check) in schema.items() if check is not None}
    assert sorted(row[:2] for row in _CHECKED_ROWS) == sorted(checked)


@pytest.mark.parametrize("command, key, value, message", _CHECKED_ROWS,
                         ids=[f"{row[0]}-{row[1]}" for row in _CHECKED_ROWS])
def test_each_schema_check_names_its_key(tmp_path, capsys, no_runner, command, key, value, message):
    # each check reads its key from the row it guards, so the message names
    # the key it refused, and no runner starts
    flag = "--" + key.replace("_", "-")
    assert run([command, f"{flag}={value}"], tmp_path) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"config error: key '{key}' {message}\n"
    assert not list(tmp_path.iterdir())


_MAPS = st.sampled_from(["ls", "pc", "lad"])


def _decreasing(lo, hi, count):
    return st.lists(st.floats(lo, hi), min_size=count, max_size=count, unique=True).map(
        lambda xs: sorted(xs, reverse=True))


def _cheap_configs():
    """(command, config) pairs whose runs each take milliseconds."""
    at = {"at_x": st.floats(-1.5, 1.5), "at_y": st.floats(-1.5, 1.5)}
    profile = {"map": _MAPS, **at, "radii": _decreasing(1e-4, 0.5, 3), "k_samples": st.integers(16, 64),
               "seed": st.integers(0, 2**32 - 1)}
    families = {
        "localize": {"map": _MAPS, "center_x": st.floats(-1.0, 1.0), "center_y": st.floats(-1.0, 1.0),
                     "half_width": st.floats(1e-3, 2.0), "eps": st.floats(1e-4, 0.5),
                     "samples_per_edge": st.integers(2, 8)},
        "winding": {"target": st.sampled_from(["standard", "ls", "pc", "lad"]), "samples": st.integers(3, 64),
                    "shrink": st.just(1.0) | st.floats(1e-3, 1.0)},
        "oscillate": profile,
        "severity": {**profile, "mesh": st.floats(1e-3, 1.0)},
        "derivprofile": {"map": _MAPS | st.just("synthetic"), **at,
                         "eta_max_min": _decreasing(1e-4, 0.5, 2), "eta_count": st.integers(2, 5),
                         "seed": st.integers(0, 2**32 - 1)},
        "dimension": {"fixture": st.sampled_from(["circle", "square", "point"]), "radius": st.floats(1e-3, 1.0),
                      "mesh_max_min": _decreasing(2e-3, 0.5, 2), "mesh_count": st.integers(4, 6)},
        "tube": {"fixture": st.sampled_from(["point", "segment", "circle"]), "delta_min": st.floats(1e-4, 0.5),
                 "delta_max": st.floats(1e-4, 0.5), "delta_count": st.integers(2, 9),
                 "samples": st.integers(10**4, 2 * 10**4), "seed": st.integers(0, 2**32 - 1)},
        "cdf": {"map": _MAPS | st.just("augmean"), "n_points": st.integers(1, 6),
                "samples": st.integers(10**4, 2 * 10**4), "seed": st.integers(0, 2**32 - 1),
                "q_lo": st.floats(1e-4, 0.2), "q_hi": st.floats(1e-4, 0.2)},
        "tradeoff": {"n_points": st.integers(1, 8), "cloud_size": st.integers(100, 600),
                     "presets": st.lists(st.sampled_from(["uniform", "concentrated", "moderate"]),
                                         min_size=1, max_size=3, unique=True),
                     "seed": st.integers(0, 2**32 - 1)},
        "lfplot": {"map": _MAPS, "grid_resolution": st.integers(4, 12)},
    }
    return st.sampled_from(sorted(families)).flatmap(
        lambda command: st.tuples(st.just(command), st.fixed_dictionaries(families[command])))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(drawn=_cheap_configs(), data=st.data())
def test_cli_never_exits_internal_on_accepted_configs(tmp_path_factory, drawn, data):
    # a config the schema accepts ends in a report (0), a config or contract
    # error (2) or an inconclusive result (3), never in an internal error;
    # a non-finite float anywhere is the schema's to refuse
    command, config = drawn
    for pair in ("eta", "mesh"):
        if f"{pair}_max_min" in config:
            config[f"{pair}_max"], config[f"{pair}_min"] = config.pop(f"{pair}_max_min")
    floats = sorted(key for key, value in config.items()
                    if all(isinstance(v, float) for v in (value if isinstance(value, list) else [value])))
    bad = None if not floats else data.draw(
        st.none() | st.tuples(st.sampled_from(floats), st.sampled_from([math.nan, math.inf, -math.inf])))
    if bad is not None:
        key, value = bad
        config[key] = [*config[key][:-1], value] if isinstance(config[key], list) else value
    argv = [command, "--outdir", str(tmp_path_factory.getbasetemp() / "fuzz")]
    for key, value in config.items():
        argv.append(f"--{key.replace('_', '-')}={','.join(map(str, value)) if isinstance(value, list) else value}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if bad is not None:
        assert code == EXIT_SCHEMA and f"key '{bad[0]}' must be finite" in err.getvalue(), err.getvalue()
    assert code in (EXIT_OK, EXIT_SCHEMA, EXIT_INCONCLUSIVE), err.getvalue()


def test_schema_rejects_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["cdf", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_SCHEMA
    cfg.write_text("[1, 2]")
    assert main(["cdf", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_SCHEMA
    assert "config error: config file must contain a JSON object" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    # an integral float is taken as that int
    cfg.write_text('{"fixture": "circle", "samples": 2e4, "seed": 3}')
    assert main(
        ["tube", "--config", str(cfg), "--seed", "4", "--outdir", str(tmp_path)]
    ) == EXIT_OK
    payload = json.loads((tmp_path / "tube.json").read_text())
    assert payload["config"]["fixture"] == "circle"
    assert payload["config"]["samples"] == 20000
    assert payload["config"]["seed"] == 4  # flag wins over file


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SINGLAB_OUTDIR", str(tmp_path / "envout"))
    assert main(["dimension", "--fixture", "point", "--mesh-min", "0.003"]) == EXIT_OK
    assert (tmp_path / "envout" / "dimension.json").exists()


def test_severity_and_oscillate_commands(tmp_path):
    assert run(
        ["oscillate", "--map", "pc", "--at-x", "0", "--at-y", "0", "--k-samples", "32"],
        tmp_path,
    ) == EXIT_OK
    assert run(
        ["severity", "--map", "pc", "--k-samples", "32", "--mesh", "0.3"], tmp_path
    ) == EXIT_OK
    payload = json.loads((tmp_path / "severity.json").read_text())
    assert payload["result"]["severity"] == "SEVERE"


def test_derivprofile_command(tmp_path):
    assert run(
        ["derivprofile", "--map", "synthetic", "--eta-count", "4", "--eta-min", "0.01"],
        tmp_path,
    ) == EXIT_OK
    payload = json.loads((tmp_path / "derivprofile.json").read_text())
    assert abs(payload["result"]["fitted_exponent"] + 1.0) < 0.1
    csv = (tmp_path / "derivprofile.csv").read_text()
    assert csv.splitlines()[0] == "eta,avg_derivative,avg_distance"


def test_derivprofile_evaluates_each_attempt_round_in_two_calls(tmp_path, monkeypatch):
    # the 13 etas made 26 calls one at a time, a batch of rows and one of
    # stencils per eta; every arc holds at the first attempt, so the rows of
    # all of them go in one call and their stencils in another, 26 and 64
    # rows per eta as before
    calls = []

    def counting_slice_map(*args):
        fn = slice_map(*args)

        def counted(us):
            calls.append(len(us))
            return fn(us)

        return counted

    monkeypatch.setattr(singlab.cli, "slice_map", counting_slice_map)
    assert run(["derivprofile", "--map", "pc", "--eta-count", "13"], tmp_path) == EXIT_OK
    assert calls == [13 * 26, 13 * 64]


def test_config_numbers_from_flags_are_strings():
    # flags arrive as strings and are parsed; a config file's numbers are
    # numbers, and a flag overrides a file's value before it is checked
    resolved = resolve_config("localize", {"samples_per_edge": 8}, {"half_width": "0.5", "eps": "1e-4"})
    assert (resolved["half_width"], resolved["eps"], resolved["samples_per_edge"]) == (0.5, 1e-4, 8)
    assert resolve_config("localize", {"half_width": "0.5"}, {"half_width": "0.25"})["half_width"] == 0.25
    assert resolve_config("oscillate", {}, {"radii": ["0.2", "0.02", "0.002"]})["radii"] == [0.2, 0.02, 0.002]


def test_tradeoff_command(tmp_path):
    assert run(
        ["tradeoff", "--n-points", "3", "--presets", "uniform,moderate", "--cloud-size", "4000"],
        tmp_path,
    ) == EXIT_OK
    payload = json.loads((tmp_path / "tradeoff.json").read_text())
    entries = payload["result"]["entries"]
    assert [e["preset_name"] for e in entries] == ["MODERATE", "UNIFORM"]
    for e in entries:
        assert e["measure_lower"] <= e["measure_upper"]
        assert e["measure_stderr"] >= 0.0


# The CLI runs of one fresh interpreter, in order, after the given prelude:
# each prints the files it wrote, and the last line is the list of exit codes.
_SEQUENCE = """\
import json, sys
from singlab.cli import main
runs = json.loads(sys.argv[1])
print(json.dumps([main(args + ["--outdir", outdir]) for args, outdir in runs]))
"""


def run_sequence_in_process(runs, prelude="", **env):
    """Exit codes of CLI runs (args, outdir) made one after another by one
    fresh interpreter, after the prelude and with extra env vars, which pays
    the import once for all of them."""
    runs = [(list(args), str(outdir)) for args, outdir in runs]
    done = run_python(prelude + _SEQUENCE, json.dumps(runs), **env)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _digests(outdir, names):
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in names}


# The byte pins: each row maps a key to a CLI argv, its exit code and the
# sha256 of each file the run writes.  A rewrite must keep these bytes.
_PINS = {
    # digests recorded at commit d76ff85, whose LAD kernel ran the whole batch
    # in one pass; 20000 rows span several blocks of today's kernel.  The
    # cdf.json of this row, cdf-ls, cdf-lad and cdf-augmean, the three
    # derivprofile.json and the dimension.json of dimension-circle and
    # dimension-square were recorded again when each fitted slope became
    # geometry.loglog_fit's closed form in place of np.polyfit's LAPACK call
    # and derivprofile's segment lengths and dot products left BLAS: each
    # fitted value moved by a few ulps
    "cdf-lad-12": (["cdf", "--map", "lad", "--n-points", "12", "--samples", "20000", "--seed", "42"], EXIT_OK,
                   {"cdf.csv": "9d14984ebe09f955054b35fbab709e20f62e10f6649ac6fdbc56fab33eb15cc3",
                    "cdf.json": "4e91b670c31792a054308518d35af3f3335b10068807312001e5e08a1ab67f11"}),
    # digests recorded at commit 9daa629, whose LAD kernel added each row's
    # residuals with np.sum; the n = 3 slice datasets run the small-n path
    "lfplot-lad": (["lfplot", "--map", "lad", "--grid-resolution", "48"], EXIT_OK,
                   {"lfplot.csv": "8295f33fb2dd754ceef62b05fc9868e75a17ec167d9f6d943cb79730dfd4108f",
                    # recorded at commit 01d8e60, with the grid rows below
                    "lfplot.svg": "784ad306cf28786521cf4e9f896f8120089810979e9f88709bfe0527de4064c5"}),
    "localize-lad": (["localize", "--map", "lad"], EXIT_INCONCLUSIVE,
                     {"localize.json": "cf8cf9a8ab053a58c4f0273fb0ceddf2b8f17c907579957bac24f90eb6effea5"}),
    # digests recorded at commit 01d8e60, before the line-field grid read its
    # rows straight off the batch and the scalar plane standard became a
    # one-row view of the batched one
    "lfplot-pc": (["lfplot", "--map", "pc", "--grid-resolution", "48"], EXIT_OK,
                  {"lfplot.csv": "41c97bbee65585ccbb088e3dc51ad3217e7808dcdc6a59e793f3bb57c630e573",
                   "lfplot.svg": "a1c50f682cbf899619770e47c1cc7ab730a578182ef8a60cad18a28fa1a0d0c6"}),
    "winding-standard": (["winding", "--target", "standard", "--samples", "2048"], EXIT_OK,
                         {"winding.json": "1731f4cd2a4bd85820aaa8688f9a8ba494af435503d4b4f29409d1a284ce17eb"}),
    "winding-lad": (["winding", "--target", "lad", "--shrink", "0.99", "--samples", "2048"], EXIT_OK,
                    {"winding.json": "d58bbaba317c46fd8bd69328ac759d60363ae467a7e1b373020de52c8701225a"}),
    # digests recorded at commit 4b3557a, whose localizer lifted one child box
    # at a time and walked the jitter ladder one cross-hair at a time; the two
    # root boxes were drawn once from numpy's default_rng(1307)
    "localize-pc": (["localize", "--map", "pc"], EXIT_OK,
                    {"localize.json": "ef42fbd44d2c39aa7c2de506bfe4b7133326216e3b9b172bbe966109d3ef36cc"}),
    "localize-pc-eps": (["localize", "--map", "pc", "--eps", "1e-4"], EXIT_OK,
                        {"localize.json": "1d8c5bc963cd180ac507fac485d7d8f32d37657166329d5d76ea47e55b374572"}),
    "localize-ls": (["localize", "--map", "ls"], EXIT_INCONCLUSIVE,
                    {"localize.json": "5aaa6dee165734f10542d41710b72b2cbe3a0bf89536de286450cd8bb1a7fca0"}),
    "localize-lad-root": (["localize", "--map", "lad", "--half-width", "0.5"], EXIT_INCONCLUSIVE,
                          {"localize.json": "6d6c608ce37b1a5976b0b68e5c34c0c2a75d78eca18a5bbd5f45675eea3635ae"}),
    "localize-pc-box": (["localize", "--map", "pc", "--center-x=-0.07523628010317189",
                         "--center-y=-0.33399085703281434", "--half-width=0.34497395554501975"], EXIT_OK,
                        {"localize.json": "36849ab58081826d9aa1327f63eb99249db9224b5739e570c7b45d41e65217ab"}),
    "localize-lad-box": (["localize", "--map", "lad", "--center-x=-0.0040473673926858435",
                          "--center-y=0.04556852545510367", "--half-width=0.8771029422583467"], EXIT_INCONCLUSIVE,
                         {"localize.json": "beb82e2e0d4bee22fe3695933d6d3837054d50b85d365a23fbfd9587f14944d0"}),
    "winding-ls": (["winding", "--target", "ls", "--shrink", "0.999"], EXIT_OK,
                   {"winding.json": "d49b02b392953914d489a39370a5830dc53e51d54d66d2f6825e5f4181d8daad"}),
    "winding-pc": (["winding", "--target", "pc", "--shrink", "0.999"], EXIT_OK,
                   {"winding.json": "10e823d40b0eecc1b162fd5d6d6983edada866aece14c6d7e19dfcaed448b7f2"}),
    # digests recorded at commit 9c5a0d8, whose lift evaluated one bisection
    # depth per call: these loops bisect, so they pin samples_used, min_gap,
    # max_depth and the INCONCLUSIVE detail after bisection
    "winding-lad-bisect": (["winding", "--target", "lad", "--samples", "16", "--shrink", "0.5"], EXIT_INCONCLUSIVE,
                           {"winding.json": "58f10e44524887a369b31278b6ecba25299d0fa4adaea467ee732b8f1ee46f5a"}),
    "winding-pc-bisect": (["winding", "--target", "pc", "--samples", "3"], EXIT_OK,
                          {"winding.json": "a784099c6b8e8421508290d6fbd32ae033a144e035774f22fd4fbf8d4f65d72b"}),
    "winding-ls-bisect": (["winding", "--target", "ls", "--samples", "5", "--shrink", "0.9"], EXIT_OK,
                          {"winding.json": "cdd22438aef55549c13c712bc76c26d858b226ab7dd150c7e6f28cfa2d4c0567"}),
    # digests recorded at commit 594692c, whose draws were concatenated chunk
    # by chunk, whose tube fixtures took np.linalg.norm and whose PC and LS
    # kernels reduced over the points axis with numpy; these are the
    # montecarlo workload's configs, plus LS on the line-field grid
    "tube-point": (["tube", "--fixture", "point", "--samples", "1000000"], EXIT_OK,
                   {"tube.json": "f4138d3a81d7bacce89b2d061c9bd1cadc3dc8b45058102195ddb6d8ec612445"}),
    "tube-segment": (["tube", "--fixture", "segment", "--samples", "1000000"], EXIT_OK,
                     {"tube.json": "4bca9aeb28aa2ba591bd67329deee0d2ef530554195d519ef458c0e92e7d109c"}),
    "tube-circle": (["tube", "--fixture", "circle", "--samples", "1000000"], EXIT_OK,
                    {"tube.json": "d0cb6a88fcb03e7237991acfd328eb7db11a0dd6c59eb2f4d758437f95455902"}),
    "cdf-ls": (["cdf", "--map", "ls", "--n-points", "4"], EXIT_OK,
               {"cdf.csv": "3283b22f22007d1b083ea72b4c62e06e3573dddebe0b53901ce640f68ce5f173",
                "cdf.json": "60f692a76b67badb6dbfdb3e14d646606df2bcebde769e466e52bdade2817e17"}),
    "cdf-pc": (["cdf", "--map", "pc", "--n-points", "4"], EXIT_OK,
               {"cdf.csv": "bc85a0617e397ba0edebf9da7e91ec294b31850f8995e28fadc2804939918f27",
                "cdf.json": "56a752ea3d48ebd74ed75fd547b931f1415dbb6506d8bcbc2e62f752005a5c70"}),
    "cdf-lad": (["cdf", "--map", "lad", "--n-points", "4"], EXIT_OK,
                {"cdf.csv": "b77561ce698785658ca75a6a337e820720d65a43d89eb1c4c5917ddcc9e3d131",
                 "cdf.json": "e86add4b78b39a49c193557e26d0c5cb26a775844b5b96e2057d46810f4ff884"}),
    "cdf-augmean": (["cdf", "--map", "augmean", "--n-points", "3", "--seed", "7"], EXIT_OK,
                    {"cdf.csv": "4c70105b2fcc71ace9749693c57b1eaff0b89f3005f7854b55d4a1c54c73faf2",
                     "cdf.json": "ebd0c72f856194c2af1fc5aec3d166b23d38ba8b343db6b15e60da84e13928fa"}),
    "lfplot-ls": (["lfplot", "--map", "ls", "--grid-resolution", "48"], EXIT_OK,
                  {"lfplot.csv": "581f5b865257a70666f01ef4fdf9e7166b001c9ada7cc1e209730b52503c09fc",
                   "lfplot.svg": "1f8e0f10c1c9ae3aed3b1b5a0fb4bf9c36f9a48b01f7d38efedc8eb0cd91e1e8"}),
    # digests recorded at commit 5b62a16, whose AUG_MEAN resultant summed
    # through a BLAS product and whose LAD kernel cut its own row blocks; these
    # are the refine workload's oscillation, derivative-profile and
    # box-counting configs, which run evaluate_batch on oscillation batches
    # and derivative stencils
    "oscillate-pc": (["oscillate", "--map", "pc", "--k-samples", "1024"], EXIT_OK,
                     {"oscillation.json": "bb8777a9e40ed091d9cab19d56094a720621687f39e8af9739e613c8f7d2add0"}),
    "severity-lad": (["severity", "--map", "lad", "--k-samples", "512"], EXIT_OK,
                     {"severity.json": "e27fa508ca20c37e497e9c34e14ee858bb31dfb7dcfeb025361e3436d8ed901a"}),
    "derivprofile-pc": (["derivprofile", "--map", "pc", "--eta-count", "13"], EXIT_OK,
                        {"derivprofile.csv": "2680ebcb39f36c71356eab44e50c0785e269eb44ef91ae02d947a5279693df6e",
                         "derivprofile.json": "84757dc0014edb0c42f8353f1ce16aa44cb9774283b246c5267a11fc09f0b6fd"}),
    "derivprofile-lad": (["derivprofile", "--map", "lad", "--eta-count", "13"], EXIT_OK,
                         {"derivprofile.csv": "b577d0046e70b3775d6b1f89b64d66a160c66561cef787bb14937555337eecfc",
                          "derivprofile.json": "956ddcde417427cb8463f05da7638a1a148baefc535ce6118b5835d27a4c759a"}),
    "derivprofile-synthetic": (["derivprofile", "--map", "synthetic", "--eta-count", "13"], EXIT_OK,
                               {"derivprofile.csv": "29afd60209549d7069d7a3433221a25711314dca813428df3fe2fab974e229d9",
                                "derivprofile.json": "2f162cdbad7f2e308d656a7e76df08fec7cf3dcec81f4b8ebeba266e8305cd93"}),
    "dimension-circle": (["dimension", "--fixture", "circle", "--mesh-min", "0.0005"], EXIT_OK,
                         {"dimension.json": "50bd6cc3687f8152aafe3ea2f758af1961b1b91313bd56e6f722ebdbd20dc8e8"}),
    # recorded once the measure became the slice-count bracket (measure_lower,
    # measure_upper, measure_stderr); dist_S_to_P kept its bits
    "tradeoff": (["tradeoff", "--n-points", "3", "--presets", "uniform,concentrated,moderate"], EXIT_OK,
                 {"tradeoff.json": "341e13b62c7f8495deed37ec03c7eb537d7b401c47586fb9b297caa2f0c9680b"}),
    # recorded again once each polished row stopped by its own step size:
    # CONCENTRATED's dist_S_to_P moved in its last digit
    "tradeoff-17": (["tradeoff", "--n-points", "17", "--presets", "uniform,concentrated,moderate"], EXIT_OK,
                    {"tradeoff.json": "8add5e793afa6a83adf211bd0e780df7e22ea44f490987541e31bc7556b5958c"}),
    # digests recorded at commit a69ad36: the filled-box predicate (square)
    # and the point-cloud count (point) at the default meshes; their counts
    # are exact, so a rewrite of box counting must keep these bytes (square's
    # fitted dimension moved with loglog_fit, see cdf-lad-12)
    "dimension-square": (["dimension", "--fixture", "square"], EXIT_OK,
                         {"dimension.json": "5d7225b1d29c7b8c2efe120eb71303523c37a7548c1ac6e25e25c3d9d6da16f9"}),
    "dimension-point": (["dimension", "--fixture", "point"], EXIT_OK,
                        {"dimension.json": "c1b178baa8ee8f3a4996b72f13aa432d32b665e126ddcfdaf6b59c398af93b65"}),
}


# Binds the interpreter to one CPU, which runs every Monte-Carlo chunk of a
# CDF on the calling thread alone.
_ONE_CPU = """\
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from singlab import measure
assert measure._worker_count() == 1
"""

# Each environment runs the whole table in one fresh interpreter: (env vars,
# prelude, backwards).  Two str hash seeds, the second running the table
# backwards so that each config runs both early and late in a process; one CPU;
# two other OpenBLAS kernel sets, which no output may depend on.  An OpenBLAS
# built without DYNAMIC_ARCH ignores OPENBLAS_CORETYPE, and then those two only
# repeat the native run.
_PIN_ENVIRONMENTS = [
    pytest.param(({"PYTHONHASHSEED": "1"}, "", False), id="hashseed-1"),
    pytest.param(({"PYTHONHASHSEED": "2"}, "", True), id="hashseed-2"),
    pytest.param(({}, _ONE_CPU, False), id="one-cpu",
                 marks=pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                          reason="no CPU affinity on this platform")),
    pytest.param(({"OPENBLAS_CORETYPE": "Haswell"}, "", False), id="openblas-haswell"),
    pytest.param(({"OPENBLAS_CORETYPE": "Sandybridge"}, "", True), id="openblas-sandybridge"),
]


@pytest.fixture(scope="module")
def pinned_outputs(request, tmp_path_factory):
    """Output directory and exit code of each row of _PINS, all run by one
    fresh interpreter in the environment request.param."""
    env, prelude, backwards = request.param
    base = tmp_path_factory.mktemp("pinned")
    keys = list(reversed(_PINS)) if backwards else list(_PINS)
    codes = run_sequence_in_process([(_PINS[key][0], base / key) for key in keys], prelude, **env)
    return {key: (base / key, code) for key, code in zip(keys, codes)}


@pytest.mark.parametrize("pinned_outputs", _PIN_ENVIRONMENTS, indirect=True)
@pytest.mark.parametrize("key", list(_PINS))
def test_cli_bytes_pinned(pinned_outputs, key):
    _, code, digests = _PINS[key]
    outdir, exit_code = pinned_outputs[key]
    assert exit_code == code
    assert _digests(outdir, digests) == digests


# A fresh interpreter runs the given CLI runs and prints, as JSON, their exit
# codes and whether numpy.ma was loaded after the import and after the runs.
_MA_CHECK = """\
import json, sys
from singlab.cli import main
at_import = "numpy.ma" in sys.modules
runs = json.loads(sys.argv[1])
codes = [main(args + ["--outdir", outdir]) for args, outdir in runs]
print(json.dumps([codes, at_import, "numpy.ma" in sys.modules]))
"""


def test_no_command_loads_numpy_ma(tmp_path):
    # a first load of numpy.ma costs ~1.6 MB of peak RSS.  A plain np.unique
    # of floats loads it, and so does np.unique(axis=0); the integer np.unique
    # call of the PC localizer (a jitter ladder's loops hit S) and the np.lexsort
    # of the dimension cloud's cell rows do not
    runs = [
        (["lfplot", "--map", "pc", "--grid-resolution", "8"], EXIT_OK),
        (["winding", "--target", "standard", "--samples", "64"], EXIT_OK),
        (["localize", "--map", "pc"], EXIT_OK),
        (["oscillate", "--map", "pc", "--k-samples", "16"], EXIT_OK),
        (["severity", "--map", "pc", "--k-samples", "16"], EXIT_OK),
        (["derivprofile", "--map", "synthetic", "--eta-count", "3"], EXIT_OK),
        (["tube", "--fixture", "point", "--samples", "10000"], EXIT_OK),
        (["cdf", "--map", "ls", "--samples", "10000"], EXIT_OK),
        (["dimension", "--fixture", "point", "--mesh-min", "0.003"], EXIT_OK),
        (["tradeoff", "--n-points", "8", "--presets", "uniform", "--cloud-size", "500"], EXIT_OK),
    ]
    assert sorted(args[0] for args, _ in runs) == sorted(singlab.cli.SCHEMAS)
    argv = [(args, str(tmp_path / args[0])) for args, _ in runs]
    done = run_python(_MA_CHECK, json.dumps(argv), check=True)
    codes, at_import, after = json.loads(done.stdout.splitlines()[-1])
    assert codes == [code for _, code in runs]
    assert at_import or not after


# A fresh interpreter makes one CLI run and prints, as JSON, its exit code
# and its peak resident set size in KiB.  It reads VmHWM, the high-water mark
# of its own address space: ru_maxrss would keep the parent's peak, which
# Linux carries across fork and exec.
_PEAK_RSS = """\
import json, sys
from singlab.cli import main
code = main(json.loads(sys.argv[1]))
with open("/proc/self/status", encoding="ascii") as fh:
    peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps([code, peak]))
"""


@pytest.mark.parametrize("args", [
    ["tube", "--fixture", "segment", "--samples", "10000000"],
    ["cdf", "--map", "pc", "--n-points", "3", "--samples", "2000000"],
])
def test_monte_carlo_peak_rss_does_not_grow_with_the_draw(args, tmp_path):
    # the tube counts its hits one 2^14-row chunk at a time and the cdf keeps
    # only its 16 MB of distances: with the whole draw in memory these read
    # 427 and 260 MB, streamed 38 and 64 MB (2-vCPU VM, numpy 2.4)
    done = run_python(_PEAK_RSS, json.dumps([*args, "--outdir", str(tmp_path)]), check=True)
    code, peak_kib = json.loads(done.stdout.splitlines()[-1])
    assert code == EXIT_OK
    assert peak_kib * 1024 < 150e6


def test_localize_root_box_failure_exit_code(tmp_path):
    # the LAD root boundary at half-width 0.5 cannot be certified
    assert run(["localize", "--map", "lad", "--half-width", "0.5"], tmp_path) == EXIT_INCONCLUSIVE
    boxes = json.loads((tmp_path / "localize.json").read_text())["result"]["boxes"]
    assert boxes == [{"center": [0.0, 0.0], "half_width": 0.5, "degree": None, "depth": 0,
                      "status": "inconclusive"}]


def _usage_and_help(parse, argv, capsys):
    """Exit code, stdout and stderr of a parse that exits."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    # main builds its parser once per process: a rejected flag, then two
    # runs, must give what fresh parsers give, byte for byte
    fresh = singlab.cli._build_parser.__wrapped__
    assert singlab.cli._build_parser() is singlab.cli._build_parser()
    bogus = ["lfplot", "--bogus"]
    assert _usage_and_help(main, bogus, capsys)[0] == EXIT_SCHEMA
    for key in ("localize-pc", "winding-standard"):
        args, code, digests = _PINS[key]
        assert run(args, tmp_path / key) == code
        assert _digests(tmp_path / key, digests) == digests
    capsys.readouterr()
    # usage errors exit 2 and --help exits 0 with the text of a fresh parser
    for argv in (bogus, ["--help"], ["lfplot", "--help"], []):
        assert _usage_and_help(main, argv, capsys) == _usage_and_help(fresh().parse_args, argv, capsys)


def _percent_g12(values):
    """What _format_g12 must give: Python's % on each value."""
    return b"".join(b"%.12g\n" % x for x in np.asarray(values, dtype=float).ravel().tolist())


def _assert_formats_like_percent(values, chunk=1 << 16):
    values = np.asarray(values, dtype=float)
    for start in range(0, len(values), chunk):
        part = values[start:start + chunk]
        assert _format_g12(part) == _percent_g12(part)


_G12_FLOATS = st.floats() | st.floats(1e-5, 1e12)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(x=_G12_FLOATS)
def test_format_g12_matches_percent_on_one_value(x):
    # NaN, infinities, signed zeros and subnormals included
    assert _format_g12([x]) == b"%.12g\n" % x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(xs=st.lists(_G12_FLOATS, max_size=64))
def test_format_g12_matches_percent_on_arrays(xs):
    assert _format_g12(np.array(xs, dtype=float)) == _percent_g12(xs)


def _neighbours(x, count=40):
    """x and its count nearest doubles on each side."""
    below, above = [x], [x]
    for _ in range(count):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[::-1] + above[1:]


def test_format_g12_around_powers_of_ten():
    # where log10 picks the exponent and where 12 digits carry into the
    # next power, 10^11 included
    values = []
    for k in range(-5, 13):
        values += _neighbours(10.0**k) + _neighbours((1e12 - 0.5) * 10.0 ** (k - 12))
    _assert_formats_like_percent(values)


def test_format_g12_on_half_way_values():
    # 12 significant digits and a half: the rows the fast path leaves to %
    q = np.random.default_rng(3401).integers(10**11, 10**12, 4096).astype(float) + 0.5
    _assert_formats_like_percent(np.concatenate([q * 10.0**-j for j in range(17)]))


def test_format_g12_on_integers():
    rng = np.random.default_rng(3402)
    ints = np.concatenate([np.arange(10**4), rng.integers(0, 10**12, 10**5), 10 ** np.arange(12),
                           10 ** np.arange(1, 13) - 1])
    _assert_formats_like_percent(ints.astype(float))


def test_format_g12_on_random_bit_patterns():
    rng = np.random.default_rng(3403)
    _assert_formats_like_percent(rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(float))
    _assert_formats_like_percent(10.0 ** rng.uniform(-5, 12, 10**6))


@pytest.mark.parametrize("name, n_points, seed", [
    ("ls", 4, 20260810), ("pc", 4, 20260810), ("lad", 4, 20260810), ("augmean", 3, 7), ("lad", 12, 42),
], ids=["ls", "pc", "lad", "augmean", "lad-12"])
def test_format_g12_on_cdf_columns(name, n_points, seed):
    # the sorted distances of the montecarlo workload's cdf configs
    if name == "augmean":
        spec = singlab.datamaps.uniform_preset(n_points)
    else:
        spec = singlab.datamaps.DataMapSpec(kind=singlab.cli._FITTER_KINDS[name])
    report = singlab.measure.distance_cdf(spec, n_points, 10**5, seed, quantile_window=(0.002, 0.05))
    _assert_formats_like_percent(report.sorted_distances)


def _needs_percent(x):
    """Whether x is one of the values _format_g12 may leave to Python's %:
    outside [1e-4, 1e11), within 2^-9 of a half in its 12th significant
    digit, or rounded up to 10^11 (from 99999999999.95), all judged on x's
    exact decimal value."""
    if not 1e-4 <= x < 1e11:
        return True
    scaled = decimal.Decimal(x).scaleb(11 - decimal.Decimal(x).adjusted())
    return abs(scaled % 1 - decimal.Decimal(0.5)) <= decimal.Decimal(2.0**-9) or x >= 99999999999.95


def test_format_g12_leaves_to_percent_only_near_half_rows_and_the_carry(monkeypatch):
    rng = np.random.default_rng(3405)
    values = [y for k in range(-4, 12) for y in _neighbours(10.0**k)]
    values += (10.0 ** rng.uniform(-4, 11, 10**4)).tolist()
    values += ((rng.integers(10**11, 10**12, 100) + 0.5) * 10.0 ** rng.integers(-15, 0, 100)).tolist()
    left = []

    def by_percent(x):
        left.append(float(x))
        return b"%.12g\n" % x

    monkeypatch.setattr(singlab.cli, "_g12_by_percent", by_percent)
    assert _format_g12(values) == _percent_g12(values)
    with decimal.localcontext(decimal.Context(prec=60)):
        assert [x for x in left if not _needs_percent(x)] == []
    assert len(left) >= 100


# Formats the draw saved at argv[1] and prints the sha256 of the text.
_G12_DIGEST = """\
import hashlib, sys
import numpy as np
from singlab.cli import _format_g12
print(hashlib.sha256(_format_g12(np.load(sys.argv[1]))).hexdigest())
"""


def test_format_g12_does_not_depend_on_simd_dispatch(tmp_path):
    # log10's last bit changes with numpy's SIMD dispatch; it only picks the
    # exponent, so a process without AVX-512 writes the same bytes
    draw = 10.0 ** np.random.default_rng(3404).uniform(-5, 12, 10**5)
    np.save(tmp_path / "draw.npy", draw)
    native = hashlib.sha256(_format_g12(draw)).hexdigest()
    assert native == hashlib.sha256(_percent_g12(draw)).hexdigest()
    done = run_python(_G12_DIGEST, str(tmp_path / "draw.npy"),
                      NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL AVX512_SKX X86_V4")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [native]


# Installs perfbench's tracer on the package in a fresh interpreter, runs the
# three measure functions whose arguments its hooks bind and the localizer,
# whose boxes its hook reads, and uninstalls it.
_TRACER_CHECK = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import scipy.optimize
import singlab.measure as measure
import singlab.metrics as metrics
import singlab.topology as topology
from singlab.datamaps import DataMapSpec, MapKind
from singlab.slices import SliceSpec, slice_map
from tracer import Tracer
tracer = Tracer()
tracer.install()
measure.box_count_dimension(measure.filled_box_membership((0.2, 0.2), (0.4, 0.4)), (0.0, 0.0), (1.0, 1.0),
                            np.geomspace(0.5, 0.01, 4))
measure.distance_cdf(DataMapSpec(kind=MapKind.LS_LINE), 4, 10**4, 0)
measure.tube_volume(measure.point_distance_fn((0.5, 0.5)), (0.0, 0.0), (1.0, 1.0), (0.1, 0.2), 10**4, 0)
topology.localize_singularities(slice_map(SliceSpec(), DataMapSpec(kind=MapKind.PC_LINE)), (0.0, 0.0), 0.9, 0.1)
tracer.uninstall()
assert metrics.minimize is scipy.optimize.minimize
print(json.dumps(dict(tracer.counters)))
"""


def test_benchmark_tracer_installs_on_the_package():
    # the tracer patches metrics.minimize, SliceSpec.dataset_at and
    # boundary_family, binds measure's signatures and reads each localizer
    # box's status: install() raises, or a hook does, when one of them is gone
    perfbench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
    done = run_python(_TRACER_CHECK, perfbench)
    assert done.returncode == 0, done.stderr
    counters = json.loads(done.stdout.splitlines()[-1])
    assert counters["measure.samples"] == 2 * 10**4
    assert counters["measure.box_count_dimension.cells_computed"] > 0
    assert counters["topology.boxes_certified"] >= 1
