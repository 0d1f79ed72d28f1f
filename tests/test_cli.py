"""CLI: schema validation, exit codes, byte-level determinism."""

import json
import os
import subprocess
import sys

import pytest

import singlab

from singlab.cli import EXIT_INCONCLUSIVE, EXIT_OK, EXIT_SCHEMA, main


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
    assert payload["config"]["samples"] == 64


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
    names = [e["preset_name"] for e in payload["result"]["entries"]]
    assert names == ["MODERATE", "UNIFORM"]


def test_tradeoff_byte_reproducible_across_processes(tmp_path):
    # str hashes are salted per process; the preset seeds must not depend on them
    src = os.path.dirname(os.path.dirname(os.path.abspath(singlab.__file__)))
    args = ["tradeoff", "--presets", "uniform,moderate", "--cloud-size", "2000"]
    for salt in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=salt,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cmd = [sys.executable, "-m", "singlab.cli", *args, "--outdir", str(tmp_path / salt)]
        assert subprocess.run(cmd, env=env, capture_output=True).returncode == EXIT_OK
    assert (tmp_path / "1" / "tradeoff.json").read_bytes() == (tmp_path / "2" / "tradeoff.json").read_bytes()


def test_localize_root_box_failure_exit_code(tmp_path):
    # the LAD root boundary at half-width 0.5 cannot be certified
    assert run(["localize", "--map", "lad", "--half-width", "0.5"], tmp_path) == EXIT_INCONCLUSIVE
    boxes = json.loads((tmp_path / "localize.json").read_text())["result"]["boxes"]
    assert boxes == [{"center": [0.0, 0.0], "half_width": 0.5, "degree": None, "depth": 0,
                      "status": "inconclusive"}]
