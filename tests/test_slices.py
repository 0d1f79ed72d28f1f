"""Disk-slice embedding, boundary loops of perfect fits, line-field plots."""

import math

import numpy as np
import pytest

from singlab.datamaps import (
    BatchOutcome,
    DataMapSpec,
    MapKind,
    UndefinedReason,
    eval_perfect_fit_standard,
    evaluate,
    spanning_lines,
)
from singlab.geometry import ContractViolation, DomainError, LineDirection, PlaneDataset
from singlab.slices import (
    GridField,
    SliceSpec,
    boundary_loop,
    polar_grid,
    render_lf_field,
    write_field_csv,
    write_field_svg,
)

from oracles import LS, PC, SLICE


def test_embed_center():
    ds = SLICE.dataset_at((0, 0))
    np.testing.assert_allclose(ds.points, SLICE.center_config.points)


def test_embed_boundary_horizontal():
    ds = SLICE.dataset_at((1, 0))
    np.testing.assert_allclose(ds.points, [(-1, 0), (0, 0), (1, 0)], atol=1e-15)


def test_embed_boundary_vertical():
    ds = SLICE.dataset_at((0, 1))
    np.testing.assert_allclose(ds.points, [(0, -1), (0, 0), (0, 1)], atol=1e-15)


def test_embed_domain_error():
    with pytest.raises(DomainError):
        SLICE.dataset_at((1.2, 0))
    # the extended affine formula is available explicitly
    SLICE.dataset_at((1.2, 0), allow_outside_disk=True)


def test_embed_lipschitz_bound():
    # affine interpolation bound: constant <= max(|center|, 2 sqrt(n))
    bound = max(np.linalg.norm(SLICE.center_config.points), 2 * math.sqrt(SLICE.n_points))
    rng = np.random.default_rng(21)
    for _ in range(1_000):
        u = rng.uniform(-1, 1, 2)
        v = rng.uniform(-1, 1, 2)
        if np.linalg.norm(u) > 1 or np.linalg.norm(v) > 1 or np.allclose(u, v):
            continue
        d = np.linalg.norm(SLICE.dataset_at(u).points - SLICE.dataset_at(v).points)
        assert d <= bound * np.linalg.norm(u - v) + 1e-9


def test_boundary_loop_angles():
    loop = boundary_loop(SLICE, 4)
    expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    for points, psi in zip(loop.points, expected):
        np.testing.assert_allclose(
            points,
            np.outer([-1, 0, 1], [math.cos(psi), math.sin(psi)]),
            atol=1e-15,
        )


@pytest.mark.parametrize("m", [-3, 0, 1, 2])
def test_boundary_loop_refuses_fewer_than_three_samples(m):
    with pytest.raises(ContractViolation, match="a loop needs at least 3 samples"):
        boundary_loop(SLICE, m)


def test_boundary_loop_exactly_collinear():
    loop = boundary_loop(SLICE, 64)
    residual, _, _ = spanning_lines(loop.points)
    assert np.all(residual == 0.0)  # exactly zero, not just small
    for points in loop.points:
        eval_perfect_fit_standard(PlaneDataset(points))


def test_boundary_standard_sweeps_two_half_turns():
    # direct angle-lift oracle: Sigma on the boundary is psi mod pi, which
    # sweeps two half turns over a full boundary revolution
    m = 256
    loop = boundary_loop(SLICE, m)
    thetas = [eval_perfect_fit_standard(PlaneDataset(p)).theta for p in loop.points]
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
    grid = render_lf_field(spec, PC)
    # the r = 0 cells are the equilateral center: eigenvalue tie
    center_status = [s for s, u in zip(grid.status(), grid.us) if np.linalg.norm(u) == 0.0]
    assert center_status
    assert all(s == "EIGENVALUE_TIE" for s in center_status)


def test_lf_field_ls_undefined_cells_match_sxx():
    spec = SliceSpec(grid_resolution=16)
    grid = render_lf_field(spec, LS)
    # undefined exactly where the embedded abscissae coincide (S_xx = 0)
    for i, u in enumerate(grid.us):
        out = grid.batch.outcome(i)
        ds = spec.dataset_at(u)
        x = ds.points[:, 0]
        xc = x - x.mean()
        s_xx = float(np.dot(xc, xc))
        assert out.defined == (s_xx > 0.0)
    # componentwise solve puts the surface at u = (0, +-1) exactly; the grid
    # lands within rounding of it (gap below 1e-15 at the vertical cells),
    # and the exact vertical dataset is Undefined
    for i, u in enumerate(grid.us):
        out = grid.batch.outcome(i)
        if abs(abs(u[1]) - 1.0) < 1e-12 and abs(u[0]) < 1e-12:
            assert out.gap < 1e-15
    exact_vertical = PlaneDataset([(0, -1), (0, 0), (0, 1)])
    assert not evaluate(LS, exact_vertical).defined


def test_lf_field_boundary_ring_calibrated():
    spec = SliceSpec(grid_resolution=16)
    for kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE):
        grid = render_lf_field(spec, DataMapSpec(kind=kind))
        for i, u in enumerate(grid.us):
            out = grid.batch.outcome(i)
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
        spec, PC, csv_path=csv_path, svg_path=svg_path
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


def test_field_csv_prints_angles_next_to_pi_as_zero(tmp_path):
    # pi - 4.4e-16 and 4.4e-16 are the same direction up to the last bit
    # (the LAD slice center sits at pi - 4.4e-16); neither may print as pi
    thetas = (math.pi - 4.4e-16, 4.4e-16, 3.14159265358)
    value = np.array([LineDirection(t).theta for t in thetas])
    reason = np.zeros(3, dtype=np.int8)
    grid = GridField(us=np.zeros((3, 2)),
                     batch=BatchOutcome(value=value, gap=np.ones(3), reason=reason, feature=LineDirection))
    path = tmp_path / "field.csv"
    write_field_csv(grid, path)
    column = [row.split(",")[2] for row in path.read_text().splitlines()[1:]]
    assert column == ["0", "4.4e-16", "3.14159265358"]


def _reference_csv(grid, path):
    # the row-by-row writer the one-call formatting replaced
    lines = ["u_x,u_y,theta_or_nan,gap,status"]
    for (ux, uy), theta, gap, status in zip(grid.us.tolist(), grid.batch.value.tolist(), grid.batch.gap.tolist(),
                                            grid.status()):
        theta_text = f"{theta:.12g}"
        if theta_text == f"{math.pi:.12g}":
            theta_text = "0"
        lines.append(f"{ux:.12g},{uy:.12g},{theta_text},{gap:.12g},{status}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_svg(grid, path, cell_size):
    # the row-by-row writer the one-call formatting replaced
    SVG_SIZE_PX = 640
    half = 1.15
    scale = SVG_SIZE_PX / (2.0 * half)

    def to_px(x, y):
        return (x + half) * scale, (half - y) * scale

    seg_len = 0.8 * cell_size
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE_PX}" height="{SVG_SIZE_PX}" viewBox="0 0 {SVG_SIZE_PX} {SVG_SIZE_PX}">',
        f'<rect width="{SVG_SIZE_PX}" height="{SVG_SIZE_PX}" fill="white"/>',
    ]
    for (ux, uy), theta, gap, status in zip(grid.us.tolist(), grid.batch.value.tolist(), grid.batch.gap.tolist(),
                                            grid.status()):
        px, py = to_px(ux, uy)
        if status == "defined" and not math.isnan(theta):
            dx = 0.5 * seg_len * math.cos(theta) * scale
            dy = 0.5 * seg_len * math.sin(theta) * scale
            parts.append(
                f'<line x1="{px - dx:.2f}" y1="{py + dy:.2f}" '
                f'x2="{px + dx:.2f}" y2="{py - dy:.2f}" '
                f'stroke="black" stroke-width="1"/>'
            )
        else:
            parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2.5" fill="red"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _hard_grid(rng):
    """Grid rows whose values sit where formatting is delicate: NaN, signed
    zeros, one ulp either side of pi and of 0, subnormal and huge
    magnitudes, beside uniform directions; reasons mixed."""
    tiny = 5e-324
    special = [math.nan, 0.0, -0.0, math.pi, math.nextafter(math.pi, 0.0), math.nextafter(math.pi, 4.0),
               tiny, -tiny, 2.2e-310, 1e-300, 1e300, -1e300, 0.5 - 1e-13, 2.0000000000005, 1e16 + 2.0]
    value = np.concatenate([special, rng.uniform(0.0, math.pi, 300)])
    m = len(value)
    gaps = np.array([0.0, -0.0, tiny, 2.2e-310, 1e-300, 1e300, math.inf, math.nan, 1.0 / 3.0])
    gap = np.concatenate([gaps, np.abs(rng.standard_normal(m - len(gaps))) * 10.0 ** rng.integers(-20, 20, m - len(gaps))])
    reason = rng.integers(0, len(UndefinedReason) + 1, m).astype(np.int8)
    reason[: len(special)] = 0
    reason[len(special): 2 * len(special)] = np.arange(len(special)) % (len(UndefinedReason) + 1)
    us = rng.uniform(-1.0, 1.0, (m, 2))
    us[:8] = [(0.0, 0.0), (-0.0, -0.0), (tiny, -tiny), (1.0, -1.0), (-1.0, 1e-300),
              (0.0050000000000000001, -0.004999999999999999), (1e-17, 0.125), (2.0 / 3.0, -1.0 / 3.0)]
    rows = rng.permutation(m)
    batch = BatchOutcome(value=value[rows], gap=gap[rows], reason=reason[rows], feature=LineDirection)
    return GridField(us=us[rows], batch=batch)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_field_writers_match_row_by_row_reference(tmp_path, seed):
    grid = _hard_grid(np.random.default_rng(seed))
    for cell_size in (2.0 / 48, 0.3):
        write_field_csv(grid, tmp_path / "a.csv")
        _reference_csv(grid, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        write_field_svg(grid, tmp_path / "a.svg", cell_size)
        _reference_svg(grid, tmp_path / "b.svg", cell_size)
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


@pytest.mark.parametrize("resolution", [4, 8, 47, 48])
def test_polar_grid_matches_double_loop_bit_for_bit(resolution):
    radii = np.linspace(0.0, 1.0, resolution)
    angles = 2.0 * math.pi * np.arange(resolution) / resolution
    us = []
    for r in radii:
        for a in angles:
            us.append((r * math.cos(a), r * math.sin(a)))
    # bytes, so that 0.0 and -0.0 count as different
    assert polar_grid(resolution).tobytes() == np.asarray(us).tobytes()


@pytest.mark.parametrize("n_points", [2, 3, 5])
def test_datasets_at_matches_broadcast_formula_bit_for_bit(n_points):
    spec = SliceSpec(n_points=n_points)
    us = np.random.default_rng(n_points).uniform(-1.2, 1.2, (3072, 2))
    us[:4] = [(0.0, 0.0), (-0.0, 1.0), (1e-300, -5e-324), (0.6, 0.8)]
    r = np.linalg.norm(us, axis=1)
    expected = (1.0 - r)[:, None, None] * spec.center_config.points + np.asarray(spec.spread)[:, None] * us[:, None, :]
    assert spec.datasets_at(us, allow_outside_disk=True).tobytes() == expected.tobytes()
    inside = us[r <= 1.0]
    assert spec.datasets_at(inside).shape == (len(inside), n_points, 2)


def test_slice_spec_validation():
    with pytest.raises(ContractViolation):
        SliceSpec(grid_resolution=3)
    with pytest.raises(ContractViolation):
        SliceSpec(n_points=3, center_config=PlaneDataset([(0, 0), (1, 1)]))


@pytest.mark.parametrize("spread", [(math.nan, 0.0, 1.0), (1.0, 1.0, 1.0), (0.0, -0.0, 0.0)])
def test_slice_spec_refuses_a_spread_whose_boundary_fits_no_line(spread):
    # each was accepted and failed at the first boundary loop: samples not
    # finite, no perfect fit through one point, samples not distinct
    with pytest.raises(ContractViolation, match="spread must be finite and not all equal"):
        SliceSpec(spread=spread)


def test_slice_spec_stores_its_spread_as_floats():
    spec = SliceSpec(spread=np.array([-1, 0, 2]))
    assert [(s, type(s)) for s in spec.spread] == [(-1.0, float), (0.0, float), (2.0, float)]
    assert type(spec.spread) is tuple


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: SliceSpec(n_points=1), "slice needs n_points >= 2", id="n-points"),
    pytest.param(lambda: SliceSpec(spread=(1.0, 2.0)), "spread size does not match n_points", id="spread-size"),
    pytest.param(lambda: SLICE.datasets_at(np.zeros((2, 3))), "slice parameters must be finite 2-vectors",
                 id="datasets-at-shape"),
    pytest.param(lambda: SLICE.datasets_at([[math.nan, 0.0]]), "slice parameters must be finite 2-vectors",
                 id="datasets-at-nan"),
    pytest.param(lambda: SLICE.dataset_at((0.0, 0.0, 0.0)), "slice parameters must be finite 2-vectors",
                 id="dataset-at-shape"),
    pytest.param(lambda: SLICE.dataset_at((math.nan, 0.0)), "slice parameters must be finite 2-vectors",
                 id="dataset-at-nan"),
])
def test_slices_refuse_bad_input_by_name(make, message):
    with pytest.raises(ContractViolation) as raised:
        make()
    assert type(raised.value) is ContractViolation and str(raised.value) == message


def test_boundary_family_is_the_boundary_loops_dataset():
    # boundary_loop's sample k is the family at psi = 2 pi k / m, bit for bit
    loop = boundary_loop(SLICE, 8)
    for k in range(8):
        dataset = SLICE.boundary_family(2.0 * math.pi * np.arange(8)[k] / 8)
        assert dataset.points.tobytes() == loop.points[k].tobytes()
