"""Disk-slice embedding, boundary loops of perfect fits, line-field plots."""

import math

import numpy as np
import pytest

from singlab.datamaps import (
    DataMapSpec,
    MapKind,
    collinearity_residual,
    eval_perfect_fit_standard,
    ls_stats,
)
from singlab.geometry import ContractViolation, DomainError, PlaneDataset
from singlab.slices import (
    GridField,
    SliceSpec,
    boundary_loop,
    polar_grid,
    render_lf_field,
    write_field_csv,
)

SPEC = SliceSpec()


def test_embed_center():
    ds = SPEC.dataset_at((0, 0))
    np.testing.assert_allclose(ds.points, SPEC.center_config.points)


def test_embed_boundary_horizontal():
    ds = SPEC.dataset_at((1, 0))
    np.testing.assert_allclose(ds.points, [(-1, 0), (0, 0), (1, 0)], atol=1e-15)


def test_embed_boundary_vertical():
    ds = SPEC.dataset_at((0, 1))
    np.testing.assert_allclose(ds.points, [(0, -1), (0, 0), (0, 1)], atol=1e-15)


def test_embed_domain_error():
    with pytest.raises(DomainError):
        SPEC.dataset_at((1.2, 0))
    # the extended affine formula is available explicitly
    SPEC.dataset_at((1.2, 0), allow_outside_disk=True)


def test_embed_lipschitz_bound():
    # affine interpolation bound: constant <= max(|center|, 2 sqrt(n))
    bound = max(np.linalg.norm(SPEC.center_config.points), 2 * math.sqrt(SPEC.n_points))
    rng = np.random.default_rng(21)
    for _ in range(1_000):
        u = rng.uniform(-1, 1, 2)
        v = rng.uniform(-1, 1, 2)
        if np.linalg.norm(u) > 1 or np.linalg.norm(v) > 1 or np.allclose(u, v):
            continue
        d = np.linalg.norm(SPEC.dataset_at(u).points - SPEC.dataset_at(v).points)
        assert d <= bound * np.linalg.norm(u - v) + 1e-9


def test_boundary_loop_angles():
    loop = boundary_loop(SPEC, 4)
    expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    for sample, psi in zip(loop.samples, expected):
        np.testing.assert_allclose(
            sample.points,
            np.outer([-1, 0, 1], [math.cos(psi), math.sin(psi)]),
            atol=1e-15,
        )


def test_boundary_loop_exactly_collinear():
    loop = boundary_loop(SPEC, 64)
    for sample in loop.samples:
        residual, _ = collinearity_residual(sample)
        assert residual == 0.0  # exactly zero, not just small
        eval_perfect_fit_standard(sample)


def test_boundary_standard_sweeps_two_half_turns():
    # direct angle-lift oracle: Sigma on the boundary is psi mod pi, which
    # sweeps two half turns over a full boundary revolution
    m = 256
    loop = boundary_loop(SPEC, m)
    thetas = [eval_perfect_fit_standard(s).theta for s in loop.samples]
    total = 0.0
    for i in range(m):
        d = math.fmod(thetas[(i + 1) % m] - thetas[i], math.pi)
        if d > math.pi / 2:
            d -= math.pi
        elif d <= -math.pi / 2:
            d += math.pi
        total += d
    assert abs(total - 2 * math.pi) < 1e-9


def test_polar_grid_in_disk():
    us = polar_grid(12)
    assert us.shape == (144, 2)
    assert np.all(np.linalg.norm(us, axis=1) <= 1.0 + 1e-12)


def test_lf_field_pc_center_tie():
    spec = SliceSpec(grid_resolution=16)
    grid = render_lf_field(spec, DataMapSpec(kind=MapKind.PC_LINE))
    # the r = 0 cells are the equilateral center: eigenvalue tie
    rows = list(grid.rows())
    center_rows = [r for r, u in zip(rows, grid.us) if np.linalg.norm(u) == 0.0]
    assert center_rows
    assert all(r[4] == "EIGENVALUE_TIE" for r in center_rows)


def test_lf_field_ls_undefined_cells_match_sxx():
    spec = SliceSpec(grid_resolution=16)
    grid = render_lf_field(spec, DataMapSpec(kind=MapKind.LS_LINE))
    # undefined exactly where the embedded abscissae coincide (S_xx = 0)
    for u, out in zip(grid.us, grid.outcomes):
        ds = spec.dataset_at(u)
        s_xx, _ = ls_stats(ds.x, ds.y)
        assert out.defined == (s_xx > 0.0)
    # componentwise solve puts the surface at u = (0, +-1) exactly; the grid
    # lands within rounding of it (gap below 1e-15 at the vertical cells),
    # and the exact vertical dataset is Undefined
    for u, out in zip(grid.us, grid.outcomes):
        if abs(abs(u[1]) - 1.0) < 1e-12 and abs(u[0]) < 1e-12:
            assert out.gap < 1e-15
    from singlab.datamaps import eval_ls_line

    exact_vertical = PlaneDataset([(0, -1), (0, 0), (0, 1)])
    assert not eval_ls_line(exact_vertical).defined


def test_lf_field_boundary_ring_calibrated():
    spec = SliceSpec(grid_resolution=16)
    for kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE):
        grid = render_lf_field(spec, DataMapSpec(kind=kind))
        for u, out in zip(grid.us, grid.outcomes):
            if abs(np.linalg.norm(u) - 1.0) > 1e-12 or not out.defined:
                continue
            sigma = eval_perfect_fit_standard(spec.dataset_at(u))
            from singlab.geometry import feature_distance

            assert feature_distance(out.feature, sigma) <= 1e-6


def test_lf_field_files(tmp_path):
    spec = SliceSpec(grid_resolution=8)
    csv_path = tmp_path / "field.csv"
    svg_path = tmp_path / "field.svg"
    grid = render_lf_field(
        spec, DataMapSpec(kind=MapKind.PC_LINE), csv_path=csv_path, svg_path=svg_path
    )
    text = csv_path.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "u_x,u_y,theta_or_nan,gap,status"
    assert len(lines) == 1 + 8 * 8
    svg = svg_path.read_text()
    assert svg.startswith("<svg ") or svg.startswith("<svg\n") or "<svg" in svg.split("\n")[0]
    assert "</svg>" in svg
    assert "<line" in svg and "<circle" in svg  # defined segments and tie dots
    # deterministic re-render
    csv2 = tmp_path / "field2.csv"
    write_field_csv(grid, csv2)
    assert csv2.read_text() == text


def test_slice_spec_validation():
    with pytest.raises(ContractViolation):
        SliceSpec(grid_resolution=3)
    with pytest.raises(ContractViolation):
        SliceSpec(n_points=3, center_config=PlaneDataset([(0, 0), (1, 1)]))
