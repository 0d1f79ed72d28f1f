"""Two-dimensional disk slices of the 2n-dimensional data space.

A slice interpolates affinely between a fixed center configuration and a
full-period family of exactly collinear boundary datasets, so the boundary
circle is a loop of perfect fits whose canonical directions sweep two half
turns.  The module also renders line-field plots: a grid of short oriented
segments showing the fitted direction at each grid dataset, with undefined
cells drawn as dots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from singlab.datamaps import DataMapSpec, EvalOutcome, evaluate
from singlab.geometry import (
    CirclePoint,
    ContractViolation,
    DomainError,
    LineDirection,
    PlaneDataset,
)


def equilateral_center(n_points: int = 3) -> PlaneDataset:
    """n points evenly spread on the unit circle, first one at the top."""
    angles = math.pi / 2 + 2.0 * math.pi * np.arange(n_points) / n_points
    return PlaneDataset(np.stack([np.cos(angles), np.sin(angles)], axis=1))


def default_spread(n_points: int = 3) -> np.ndarray:
    """Collinear spread factors: (-1, 0, 1) for n = 3, evenly spaced in general."""
    return np.linspace(-1.0, 1.0, n_points)


@dataclass(frozen=True)
class SliceSpec:
    """Disk-slice embedding: E(u) = (1 - r) * center + r * w(psi) in polar u.

    The boundary family w(psi) places point i at spread[i] * (cos psi, sin psi),
    which is exactly collinear for every psi, and the full 2*pi sweep of psi
    makes the boundary standard-feature loop wind twice in half-turn units.
    """

    n_points: int = 3
    center_config: PlaneDataset = None
    spread: tuple[float, ...] = None
    grid_resolution: int = 16

    def __post_init__(self):
        if self.n_points < 2:
            raise ContractViolation("slice needs n_points >= 2")
        if self.center_config is None:
            object.__setattr__(self, "center_config", equilateral_center(self.n_points))
        if self.center_config.n != self.n_points:
            raise ContractViolation("center_config size does not match n_points")
        if self.spread is None:
            object.__setattr__(self, "spread", tuple(default_spread(self.n_points)))
        if len(self.spread) != self.n_points:
            raise ContractViolation("spread size does not match n_points")
        if self.grid_resolution < 4:
            raise ContractViolation("grid_resolution must be >= 4")

    def boundary_family(self, psi: float) -> PlaneDataset:
        """The exactly collinear boundary dataset at boundary angle psi."""
        v = np.array([math.cos(psi), math.sin(psi)])
        return PlaneDataset(np.outer(np.asarray(self.spread), v))

    def dataset_at(self, u, allow_outside_disk: bool = False) -> PlaneDataset:
        """Embed a slice parameter into data space.

        The affine formula extends to all of R^2; by default inputs outside
        the closed unit disk are rejected.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (2,) or not np.all(np.isfinite(u)):
            raise ContractViolation("slice parameter must be a finite 2-vector")
        r = float(np.linalg.norm(u))
        if r > 1.0 + 1e-12 and not allow_outside_disk:
            raise DomainError(f"slice parameter outside the unit disk, |u| = {r}")
        psi = math.atan2(u[1], u[0])
        w = np.outer(np.asarray(self.spread), np.array([math.cos(psi), math.sin(psi)]))
        return PlaneDataset((1.0 - r) * self.center_config.points + r * w)


def boundary_loop(spec: SliceSpec, m: int):
    """m equally spaced boundary datasets; every sample is a perfect fit."""
    from singlab.topology import Loop

    if m < 3:
        raise ContractViolation("a loop needs at least 3 samples")
    return Loop([spec.boundary_family(2.0 * math.pi * k / m) for k in range(m)])


@dataclass
class GridField:
    """Evaluated polar grid over the slice disk."""

    us: np.ndarray  # (N, 2) slice parameters
    outcomes: list[EvalOutcome]

    def rows(self):
        """Yield (u_x, u_y, theta_or_nan, gap, status) per grid cell."""
        for u, out in zip(self.us, self.outcomes):
            if out.defined:
                f = out.feature
                if isinstance(f, LineDirection):
                    theta = f.theta
                elif isinstance(f, CirclePoint):
                    theta = f.angle
                else:
                    theta = math.nan
                yield float(u[0]), float(u[1]), theta, out.gap, "defined"
            else:
                yield float(u[0]), float(u[1]), math.nan, 0.0, out.reason.value


def polar_grid(resolution: int) -> np.ndarray:
    """Row-major polar grid: radii 0..1 (inclusive) by angles 0..2*pi."""
    radii = np.linspace(0.0, 1.0, resolution)
    angles = 2.0 * math.pi * np.arange(resolution) / resolution
    us = []
    for r in radii:
        for a in angles:
            us.append((r * math.cos(a), r * math.sin(a)))
    return np.asarray(us)


def render_lf_field(
    spec: SliceSpec,
    map_spec: DataMapSpec,
    csv_path=None,
    svg_path=None,
) -> GridField:
    """Evaluate a map over the slice's polar grid and emit CSV/SVG.

    Evaluation failures at individual cells never abort the grid: undefined
    outcomes are recorded and rendered as dots.  Output ordering is row-major.
    """
    us = polar_grid(spec.grid_resolution)
    outcomes = [evaluate(map_spec, spec.dataset_at(u)) for u in us]
    grid = GridField(us=us, outcomes=outcomes)
    if csv_path is not None:
        write_field_csv(grid, csv_path)
    if svg_path is not None:
        write_field_svg(grid, svg_path, cell_size=2.0 / spec.grid_resolution)
    return grid


def write_field_csv(grid: GridField, path) -> None:
    lines = ["u_x,u_y,theta_or_nan,gap,status"]
    for ux, uy, theta, gap, status in grid.rows():
        lines.append(f"{ux:.12g},{uy:.12g},{theta:.12g},{gap:.12g},{status}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_svg(grid: GridField, path, cell_size: float, size_px: int = 640) -> None:
    """Static SVG 1.1: oriented segments at defined cells, dots at undefined."""
    half = 1.15
    scale = size_px / (2.0 * half)

    def to_px(x, y):
        return (x + half) * scale, (half - y) * scale

    seg_len = 0.8 * cell_size
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{size_px}" height="{size_px}" viewBox="0 0 {size_px} {size_px}">',
        f'<rect width="{size_px}" height="{size_px}" fill="white"/>',
    ]
    for ux, uy, theta, gap, status in grid.rows():
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
