"""CLI: schema validation, exit codes, byte-level determinism."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import singlab
import singlab.cli
import singlab.datamaps
import singlab.metrics
import singlab.slices
import singlab.topology

from singlab.cli import EXIT_INCONCLUSIVE, EXIT_INTERNAL, EXIT_OK, EXIT_SCHEMA, main


def run(args, outdir):
    return main(args + ["--outdir", str(outdir)])


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


def test_certify_commands_stay_batched(tmp_path, monkeypatch):
    # localize, winding and lfplot evaluate whole batches and read their
    # results off the arrays: a fall back to per-sample evaluation, slice
    # embedding or outcome objects would hit these
    def scalar_path(*args, **kwargs):
        raise AssertionError("scalar evaluation on a batched path")

    scalar_evaluate = singlab.datamaps.evaluate
    for module in (singlab.datamaps, singlab.cli, singlab.metrics, singlab.slices, singlab.topology):
        if getattr(module, "evaluate", None) is scalar_evaluate:
            monkeypatch.setattr(module, "evaluate", scalar_path)
    monkeypatch.setattr(singlab.slices.SliceSpec, "dataset_at", scalar_path)
    monkeypatch.setattr(singlab.datamaps.BatchOutcome, "outcome", scalar_path)
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
    # diameter on arrays: per-sample evaluation or pairwise feature
    # distances would hit these
    def scalar_path(*args, **kwargs):
        raise AssertionError("per-sample work on a batched path")

    scalar_evaluate = singlab.datamaps.evaluate
    for module in (singlab.datamaps, singlab.cli, singlab.metrics):
        if getattr(module, "evaluate", None) is scalar_evaluate:
            monkeypatch.setattr(module, "evaluate", scalar_path)
    monkeypatch.setattr(singlab.metrics, "feature_distance", scalar_path, raising=False)
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

    scalar_evaluate = singlab.datamaps.evaluate
    for module in (singlab.datamaps, singlab.cli, singlab.metrics, singlab.slices, singlab.topology):
        if getattr(module, "evaluate", None) is scalar_evaluate:
            monkeypatch.setattr(module, "evaluate", scalar_path)
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
def test_schema_rejects_non_finite_values(tmp_path, capsys, monkeypatch, args, key):
    # each of these ran out of memory, raised, warned or exited 0 or 3 when
    # it reached its runner: the schema names the key before any runner starts
    def started(*args, **kwargs):
        raise AssertionError("a runner started on a rejected config")

    for command in singlab.cli._RUNNERS:
        monkeypatch.setitem(singlab.cli._RUNNERS, command, started)
    assert run(args, tmp_path) == EXIT_SCHEMA
    assert f"key '{key}' must be finite" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


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
])
def test_run_errors_and_config_errors_are_told_apart(tmp_path, capsys, args, prefix):
    assert run(args, tmp_path) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(prefix)
    assert not list(tmp_path.iterdir())


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


def test_schema_rejects_malformed_json(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert main(["cdf", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_SCHEMA


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"fixture": "circle", "samples": 20000, "seed": 3}')
    assert main(
        ["tube", "--config", str(cfg), "--seed", "4", "--outdir", str(tmp_path)]
    ) == EXIT_OK
    payload = json.loads((tmp_path / "tube.json").read_text())
    assert payload["config"]["fixture"] == "circle"
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


def _fresh_env(**env):
    src = os.path.dirname(os.path.dirname(os.path.abspath(singlab.__file__)))
    return dict(os.environ, **env, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_in_process(args, outdir, **env):
    """Exit code of the CLI run in a fresh interpreter, with extra env vars."""
    cmd = [sys.executable, "-m", "singlab.cli", *args, "--outdir", str(outdir)]
    return subprocess.run(cmd, env=_fresh_env(**env), capture_output=True).returncode


# The CLI runs of one fresh interpreter, in order: each prints the files it
# wrote, and the last line is the list of exit codes.
_SEQUENCE = """\
import json, sys
from singlab.cli import main
runs = json.loads(sys.argv[1])
print(json.dumps([main(args + ["--outdir", outdir]) for args, outdir in runs]))
"""


def run_sequence_in_process(runs, **env):
    """Exit codes of CLI runs (args, outdir) made one after another by one
    fresh interpreter, with extra env vars, which pays the import once for
    all of them."""
    runs = [(list(args), str(outdir)) for args, outdir in runs]
    done = subprocess.run([sys.executable, "-c", _SEQUENCE, json.dumps(runs)], env=_fresh_env(**env),
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


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
    # of floats loads it, the integer np.unique calls of the PC localizer (a
    # jitter ladder's loops hit S) and the 8-point tradeoff's key re-rank do not
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
    done = subprocess.run([sys.executable, "-c", _MA_CHECK, json.dumps(argv)], env=_fresh_env(),
                          capture_output=True, text=True, check=True)
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
    done = subprocess.run([sys.executable, "-c", _PEAK_RSS, json.dumps([*args, "--outdir", str(tmp_path)])],
                          env=_fresh_env(), capture_output=True, text=True, check=True)
    code, peak_kib = json.loads(done.stdout.splitlines()[-1])
    assert code == EXIT_OK
    assert peak_kib * 1024 < 150e6


def test_tradeoff_byte_reproducible_across_processes(tmp_path):
    # str hashes are salted per process; the preset seeds must not depend on them
    args = ["tradeoff", "--presets", "uniform,moderate", "--cloud-size", "2000"]
    for salt in ("1", "2"):
        assert run_in_process(args, tmp_path / salt, PYTHONHASHSEED=salt) == EXIT_OK
    assert (tmp_path / "1" / "tradeoff.json").read_bytes() == (tmp_path / "2" / "tradeoff.json").read_bytes()


# digests recorded at commit d76ff85, whose LAD kernel ran the whole batch
# in one pass; 20000 rows span several blocks of today's kernel
_LAD_CDF_ARGS = ["cdf", "--map", "lad", "--n-points", "12", "--samples", "20000", "--seed", "42"]
_LAD_CDF_DIGESTS = {
    "cdf.csv": "9d14984ebe09f955054b35fbab709e20f62e10f6649ac6fdbc56fab33eb15cc3",
    "cdf.json": "547c0c8f6db2abe967975afe6f10381658b5a88dcbb1e903053b2ac3ae499f6d",
}


def _digests(outdir, names):
    return {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in names}


def test_lad_cdf_bytes_pinned_across_processes(tmp_path):
    assert run_in_process(_LAD_CDF_ARGS, tmp_path) == EXIT_OK
    assert _digests(tmp_path, _LAD_CDF_DIGESTS) == _LAD_CDF_DIGESTS


# One CLI run in a fresh interpreter bound to one CPU, which runs every row
# block of a batch on the calling thread alone.
_ONE_CPU = """\
import os, sys
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from singlab import datamaps
from singlab.cli import main
assert datamaps._worker_count() == 1
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity on this platform")
def test_lad_cdf_bytes_pinned_on_one_cpu(tmp_path):
    # the pinned LAD run above, from a child bound to one CPU: the bytes do
    # not depend on how many CPUs run the LAD blocks
    done = subprocess.run([sys.executable, "-c", _ONE_CPU, *_LAD_CDF_ARGS, "--outdir", str(tmp_path)],
                          env=_fresh_env(), capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    assert _digests(tmp_path, _LAD_CDF_DIGESTS) == _LAD_CDF_DIGESTS


@pytest.mark.parametrize("args, code, name, digest", [
    (["lfplot", "--map", "lad", "--grid-resolution", "48"], EXIT_OK, "lfplot.csv",
     "8295f33fb2dd754ceef62b05fc9868e75a17ec167d9f6d943cb79730dfd4108f"),
    (["localize", "--map", "lad"], EXIT_INCONCLUSIVE, "localize.json",
     "cf8cf9a8ab053a58c4f0273fb0ceddf2b8f17c907579957bac24f90eb6effea5"),
], ids=["lfplot", "localize"])
def test_small_n_lad_bytes_pinned_across_processes(tmp_path, args, code, name, digest):
    # digests recorded at commit 9daa629, whose LAD kernel added each row's
    # residuals with np.sum; the n = 3 slice datasets run the small-n path
    assert run_in_process(args, tmp_path) == code
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("args, digests", [
    (["lfplot", "--map", "pc", "--grid-resolution", "48"],
     {"lfplot.csv": "41c97bbee65585ccbb088e3dc51ad3217e7808dcdc6a59e793f3bb57c630e573",
      "lfplot.svg": "a1c50f682cbf899619770e47c1cc7ab730a578182ef8a60cad18a28fa1a0d0c6"}),
    (["lfplot", "--map", "lad", "--grid-resolution", "48"],
     {"lfplot.svg": "784ad306cf28786521cf4e9f896f8120089810979e9f88709bfe0527de4064c5"}),
    (["winding", "--target", "standard", "--samples", "2048"],
     {"winding.json": "1731f4cd2a4bd85820aaa8688f9a8ba494af435503d4b4f29409d1a284ce17eb"}),
    (["winding", "--target", "lad", "--shrink", "0.99", "--samples", "2048"],
     {"winding.json": "d58bbaba317c46fd8bd69328ac759d60363ae467a7e1b373020de52c8701225a"}),
], ids=["lfplot-pc", "lfplot-lad-svg", "winding-standard", "winding-lad"])
def test_grid_and_standard_bytes_pinned_across_processes(tmp_path, args, digests):
    # digests recorded at commit 01d8e60, before the line-field grid read its
    # rows straight off the batch and the scalar plane standard became a
    # one-row view of the batched one
    assert run_in_process(args, tmp_path) == EXIT_OK
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests


@pytest.mark.parametrize("args, code, name, digest", [
    (["localize", "--map", "pc"], EXIT_OK, "localize.json",
     "ef42fbd44d2c39aa7c2de506bfe4b7133326216e3b9b172bbe966109d3ef36cc"),
    (["localize", "--map", "pc", "--eps", "1e-4"], EXIT_OK, "localize.json",
     "1d8c5bc963cd180ac507fac485d7d8f32d37657166329d5d76ea47e55b374572"),
    (["localize", "--map", "ls"], EXIT_INCONCLUSIVE, "localize.json",
     "5aaa6dee165734f10542d41710b72b2cbe3a0bf89536de286450cd8bb1a7fca0"),
    (["localize", "--map", "lad", "--half-width", "0.5"], EXIT_INCONCLUSIVE, "localize.json",
     "6d6c608ce37b1a5976b0b68e5c34c0c2a75d78eca18a5bbd5f45675eea3635ae"),
    (["localize", "--map", "pc", "--center-x=-0.07523628010317189", "--center-y=-0.33399085703281434",
      "--half-width=0.34497395554501975"], EXIT_OK, "localize.json",
     "36849ab58081826d9aa1327f63eb99249db9224b5739e570c7b45d41e65217ab"),
    (["localize", "--map", "lad", "--center-x=-0.0040473673926858435", "--center-y=0.04556852545510367",
      "--half-width=0.8771029422583467"], EXIT_INCONCLUSIVE, "localize.json",
     "beb82e2e0d4bee22fe3695933d6d3837054d50b85d365a23fbfd9587f14944d0"),
    (["winding", "--target", "ls", "--shrink", "0.999"], EXIT_OK, "winding.json",
     "d49b02b392953914d489a39370a5830dc53e51d54d66d2f6825e5f4181d8daad"),
    (["winding", "--target", "pc", "--shrink", "0.999"], EXIT_OK, "winding.json",
     "10e823d40b0eecc1b162fd5d6d6983edada866aece14c6d7e19dfcaed448b7f2"),
], ids=["localize-pc", "localize-pc-eps", "localize-ls", "localize-lad-root", "localize-pc-box",
        "localize-lad-box", "winding-ls", "winding-pc"])
def test_certify_bytes_pinned_across_processes(tmp_path, args, code, name, digest):
    # digests recorded at commit 4b3557a, whose localizer lifted one child
    # box at a time and walked the jitter ladder one cross-hair at a time;
    # the two root boxes were drawn once from numpy's default_rng(1307)
    assert run_in_process(args, tmp_path) == code
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


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
    # the pins of localize-pc and winding-standard above
    assert run(["localize", "--map", "pc"], tmp_path / "a") == EXIT_OK
    assert hashlib.sha256((tmp_path / "a" / "localize.json").read_bytes()).hexdigest() == (
        "ef42fbd44d2c39aa7c2de506bfe4b7133326216e3b9b172bbe966109d3ef36cc")
    assert run(["winding", "--target", "standard", "--samples", "2048"], tmp_path / "b") == EXIT_OK
    assert hashlib.sha256((tmp_path / "b" / "winding.json").read_bytes()).hexdigest() == (
        "1731f4cd2a4bd85820aaa8688f9a8ba494af435503d4b4f29409d1a284ce17eb")
    capsys.readouterr()
    # usage errors exit 2 and --help exits 0 with the text of a fresh parser
    for argv in (bogus, ["--help"], ["lfplot", "--help"], []):
        assert _usage_and_help(main, argv, capsys) == _usage_and_help(fresh().parse_args, argv, capsys)


# digests recorded at commit 594692c, whose draws were concatenated chunk by
# chunk, whose tube fixtures took np.linalg.norm and whose PC and LS kernels
# reduced over the points axis with numpy; these are the montecarlo
# workload's configs, plus LS on the line-field grid
_MONTECARLO_PINS = {
    "tube-point": (["tube", "--fixture", "point", "--samples", "1000000"],
                   {"tube.json": "f4138d3a81d7bacce89b2d061c9bd1cadc3dc8b45058102195ddb6d8ec612445"}),
    "tube-segment": (["tube", "--fixture", "segment", "--samples", "1000000"],
                     {"tube.json": "4bca9aeb28aa2ba591bd67329deee0d2ef530554195d519ef458c0e92e7d109c"}),
    "tube-circle": (["tube", "--fixture", "circle", "--samples", "1000000"],
                    {"tube.json": "d0cb6a88fcb03e7237991acfd328eb7db11a0dd6c59eb2f4d758437f95455902"}),
    "cdf-ls": (["cdf", "--map", "ls", "--n-points", "4"],
               {"cdf.csv": "3283b22f22007d1b083ea72b4c62e06e3573dddebe0b53901ce640f68ce5f173",
                "cdf.json": "df831d6904849f8856a6e8abbb30615e35321416f7cbd5265290e9ecfb746794"}),
    "cdf-pc": (["cdf", "--map", "pc", "--n-points", "4"],
               {"cdf.csv": "bc85a0617e397ba0edebf9da7e91ec294b31850f8995e28fadc2804939918f27",
                "cdf.json": "56a752ea3d48ebd74ed75fd547b931f1415dbb6506d8bcbc2e62f752005a5c70"}),
    "cdf-lad": (["cdf", "--map", "lad", "--n-points", "4"],
                {"cdf.csv": "b77561ce698785658ca75a6a337e820720d65a43d89eb1c4c5917ddcc9e3d131",
                 "cdf.json": "eccbba3dbdb1a63d46a7d36fec5299c10bcd20357cab75307a92a585fd7b35ad"}),
    "cdf-augmean": (["cdf", "--map", "augmean", "--n-points", "3", "--seed", "7"],
                    {"cdf.csv": "4c70105b2fcc71ace9749693c57b1eaff0b89f3005f7854b55d4a1c54c73faf2",
                     "cdf.json": "848631ec38e558c240703e297671594199ef5e08660bcc1515b8c587715865e9"}),
    "lfplot-ls": (["lfplot", "--map", "ls", "--grid-resolution", "48"],
                  {"lfplot.csv": "581f5b865257a70666f01ef4fdf9e7166b001c9ada7cc1e209730b52503c09fc",
                   "lfplot.svg": "1f8e0f10c1c9ae3aed3b1b5a0fb4bf9c36f9a48b01f7d38efedc8eb0cd91e1e8"}),
}


@pytest.fixture(scope="module")
def montecarlo_outputs(tmp_path_factory):
    """Output directory and exit code of each pinned run, all made in one
    fresh interpreter."""
    base = tmp_path_factory.mktemp("pinned")
    runs = [(args, base / key) for key, (args, _) in _MONTECARLO_PINS.items()]
    codes = run_sequence_in_process(runs)
    return {key: (base / key, code) for key, code in zip(_MONTECARLO_PINS, codes)}


@pytest.mark.parametrize("key", list(_MONTECARLO_PINS))
def test_montecarlo_bytes_pinned_across_processes(montecarlo_outputs, key):
    outdir, code = montecarlo_outputs[key]
    assert code == EXIT_OK
    digests = _MONTECARLO_PINS[key][1]
    assert {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in digests} == digests


# digests recorded at commit 5b62a16, whose AUG_MEAN resultant summed through
# a BLAS product and whose LAD kernel cut its own row blocks; these are the
# refine workload's oscillation, derivative-profile and box-counting configs,
# which run evaluate_batch on oscillation batches and derivative stencils
_REFINE_PINS = {
    "oscillate-pc": (["oscillate", "--map", "pc", "--k-samples", "1024"],
                     {"oscillation.json": "bb8777a9e40ed091d9cab19d56094a720621687f39e8af9739e613c8f7d2add0"}),
    "severity-lad": (["severity", "--map", "lad", "--k-samples", "512"],
                     {"severity.json": "e27fa508ca20c37e497e9c34e14ee858bb31dfb7dcfeb025361e3436d8ed901a"}),
    "derivprofile-pc": (["derivprofile", "--map", "pc", "--eta-count", "13"],
                        {"derivprofile.csv": "2680ebcb39f36c71356eab44e50c0785e269eb44ef91ae02d947a5279693df6e",
                         "derivprofile.json": "9561fcd1c3965f96581792b497bb029f7f5230f319dcc21a45b2ac0f26f81381"}),
    "derivprofile-lad": (["derivprofile", "--map", "lad", "--eta-count", "13"],
                         {"derivprofile.csv": "b577d0046e70b3775d6b1f89b64d66a160c66561cef787bb14937555337eecfc",
                          "derivprofile.json": "d09b4433c23b18acbc405a3bad06f7866bdceffad253b358c7d0854c435c9fc7"}),
    "derivprofile-synthetic": (["derivprofile", "--map", "synthetic", "--eta-count", "13"],
                               {"derivprofile.csv": "29afd60209549d7069d7a3433221a25711314dca813428df3fe2fab974e229d9",
                                "derivprofile.json": "3f75eaa0a41f37eedc2588db7500c44e05f03472c3454e9617aa838c4b9de95e"}),
    "dimension-circle": (["dimension", "--fixture", "circle", "--mesh-min", "0.0005"],
                         {"dimension.json": "33038b6842a24b8602041c9f932a8948953698988fe4a5f3b59e5df8b60d564b"}),
    # recorded once the measure became the slice-count bracket (measure_lower,
    # measure_upper, measure_stderr); dist_S_to_P kept its bits
    "tradeoff": (["tradeoff", "--n-points", "3", "--presets", "uniform,concentrated,moderate"],
                 {"tradeoff.json": "341e13b62c7f8495deed37ec03c7eb537d7b401c47586fb9b297caa2f0c9680b"}),
    # recorded again once each polished row stopped by its own step size:
    # CONCENTRATED's dist_S_to_P moved in its last digit
    "tradeoff-17": (["tradeoff", "--n-points", "17", "--presets", "uniform,concentrated,moderate"],
                    {"tradeoff.json": "8add5e793afa6a83adf211bd0e780df7e22ea44f490987541e31bc7556b5958c"}),
}


@pytest.fixture(scope="module")
def refine_outputs(tmp_path_factory):
    """Output directory and exit code of each pinned run, per hash seed: the
    runs of one seed are made in one fresh interpreter."""
    base = tmp_path_factory.mktemp("refine")
    outputs = {}
    for salt in ("1", "2"):
        runs = [(args, base / salt / key) for key, (args, _) in _REFINE_PINS.items()]
        codes = run_sequence_in_process(runs, PYTHONHASHSEED=salt)
        outputs.update({(key, salt): (base / salt / key, code) for key, code in zip(_REFINE_PINS, codes)})
    return outputs


@pytest.mark.parametrize("key", list(_REFINE_PINS))
def test_refine_bytes_pinned_across_processes(refine_outputs, key):
    digests = _REFINE_PINS[key][1]
    for salt in ("1", "2"):
        outdir, code = refine_outputs[key, salt]
        assert code == EXIT_OK
        assert {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest() for name in digests} == digests


@pytest.mark.parametrize("fixture, digest", [
    ("square", "7e8a4ca111db4394baf2fe34d7dc7ed934e85962947bbc8ed91cec1af9b2abc1"),
    ("point", "c1b178baa8ee8f3a4996b72f13aa432d32b665e126ddcfdaf6b59c398af93b65"),
])
def test_dimension_bytes_pinned_across_processes(tmp_path, fixture, digest):
    # digests recorded at commit a69ad36: the filled-box predicate (square)
    # and the point-cloud count (point) at the default meshes; their counts
    # are exact, so a rewrite of box counting must keep these bytes
    for salt in ("1", "2"):
        assert run_in_process(["dimension", "--fixture", fixture], tmp_path / salt, PYTHONHASHSEED=salt) == EXIT_OK
        assert hashlib.sha256((tmp_path / salt / "dimension.json").read_bytes()).hexdigest() == digest


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
    done = subprocess.run([sys.executable, "-c", _TRACER_CHECK, perfbench], env=_fresh_env(),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    counters = json.loads(done.stdout.splitlines()[-1])
    assert counters["measure.samples"] == 2 * 10**4
    assert counters["measure.box_count_dimension.cells_computed"] > 0
    assert counters["topology.boxes_certified"] >= 1
