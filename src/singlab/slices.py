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
from dataclasses import dataclass
from itertools import chain

import numpy as np

from singlab.datamaps import BatchOutcome, DataMapSpec, UndefinedReason, evaluate_batch
from singlab.geometry import ContractViolation, DomainError, PlaneDataset, _finite_vector
from singlab.topology import Loop

SVG_SIZE_PX = 640  # width and height of line-field plots


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
        spread = default_spread(self.n_points) if self.spread is None else self.spread
        object.__setattr__(self, "spread", tuple(map(float, spread)))
        if len(self.spread) != self.n_points:
            raise ContractViolation("spread size does not match n_points")
        # equal factors put every boundary point at one place, where no line fits
        if not (all(map(math.isfinite, self.spread)) and len(set(self.spread)) > 1):
            raise ContractViolation("spread must be finite and not all equal")
        if self.grid_resolution < 4:
            raise ContractViolation("grid_resolution must be >= 4")
        # column index and factors of datasets_at's flat (m, 2n) layout
        object.__setattr__(self, "_u_columns", np.tile((0, 1), self.n_points))
        object.__setattr__(self, "_flat_spread", np.repeat(self.spread, 2))

    def _boundary_points(self, psi: np.ndarray) -> np.ndarray:
        """Points (m, n, 2) of the boundary datasets at boundary angles psi (m,)."""
        directions = np.stack([np.cos(psi), np.sin(psi)], axis=-1)
        return np.asarray(self.spread)[:, None] * directions[:, None, :]

    def boundary_family(self, psi: float) -> PlaneDataset:
        """The exactly collinear boundary dataset at boundary angle psi."""
        return PlaneDataset(self._boundary_points(np.array([psi]))[0])

    def datasets_at(self, us, allow_outside_disk: bool = False) -> np.ndarray:
        """Embed slice parameters (m, 2) into data space, points (m, n, 2).

        E(u) = (1 - |u|) * center + spread (x) u: the polar form (1 - r) *
        center + r * w(psi) without trigonometry, smooth at u = 0.  The
        affine formula extends to all of R^2; by default inputs outside the
        closed unit disk are rejected.
        """
        us = np.asarray(us, dtype=float)
        if us.ndim != 2 or us.shape[1] != 2 or not np.isfinite(us).all():
            raise ContractViolation("slice parameters must be finite 2-vectors")
        # what np.linalg.norm(us, axis=1) computes for real input
        r = np.sqrt(np.add.reduce(us * us, axis=1))
        if not allow_outside_disk and (r > 1.0 + 1e-12).any():
            raise DomainError(f"slice parameter outside the unit disk, |u| = {float(r.max())}")
        # flat coordinate 2i + j of point i is (1 - r) c_ij + u_j spread_i:
        # the same two products and one sum per entry as the (m, n, 2) broadcast
        points = np.multiply.outer(1.0 - r, self.center_config.points.ravel())
        points += us[:, self._u_columns] * self._flat_spread
        return points.reshape(len(us), self.n_points, 2)

    def dataset_at(self, u, allow_outside_disk: bool = False) -> PlaneDataset:
        """Embed one slice parameter into data space (see ``datasets_at``)."""
        u = _finite_vector(u, "slice parameter", 2)
        return PlaneDataset(self.datasets_at(u[None], allow_outside_disk)[0])


def slice_map(spec: SliceSpec, map_spec: DataMapSpec):
    """The batched slice evaluator: slice parameters (m, 2) -> the map's
    BatchOutcome on their datasets, one kernel call per batch.  Parameters
    outside the unit disk use the extended affine formula."""
    return lambda us: evaluate_batch(map_spec, spec.datasets_at(us, allow_outside_disk=True))


def boundary_loop(spec: SliceSpec, m: int) -> Loop:
    """m equally spaced boundary datasets; every sample is a perfect fit.
    ``Loop`` refuses m < 3."""
    return Loop(spec._boundary_points(2.0 * math.pi * np.arange(m) / m))


@dataclass
class GridField:
    """Evaluated polar grid over the slice disk."""

    us: np.ndarray  # (N, 2) slice parameters
    batch: BatchOutcome  # the map's outcomes at us, row for row

    def status(self) -> list[str]:
        """Per grid cell, "defined" or the name of its undefined reason."""
        return ["defined" if code == 0 else UndefinedReason(code).name for code in self.batch.reason.tolist()]

    def rows(self):
        """Yield (u_x, u_y, theta_or_nan, gap, status) per grid cell."""
        batch = self.batch
        return zip(*self.us.T.tolist(), batch.value.tolist(), batch.gap.tolist(), self.status())


def polar_grid(resolution: int) -> np.ndarray:
    """Row-major polar grid: radii 0..1 (inclusive) by angles 0..2*pi.

    Cell (i, k) is (r_i cos a_k, r_i sin a_k), with the cosine and sine
    from libm's ``math.cos``/``math.sin`` (numpy's SIMD versions may differ
    in the last bit), taken once per angle; the products are rounded the
    same in an outer product as one by one.
    """
    radii = np.linspace(0.0, 1.0, resolution)
    angles = (2.0 * math.pi * np.arange(resolution) / resolution).tolist()
    cos = np.array([math.cos(a) for a in angles])
    sin = np.array([math.sin(a) for a in angles])
    return np.stack([np.multiply.outer(radii, cos).ravel(), np.multiply.outer(radii, sin).ravel()], axis=1)


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
    grid = GridField(us=us, batch=evaluate_batch(map_spec, spec.datasets_at(us)))
    if csv_path is not None:
        write_field_csv(grid, csv_path)
    if svg_path is not None:
        write_field_svg(grid, svg_path, cell_size=2.0 / spec.grid_resolution)
    return grid


# A line angle just below pi prints as pi at 12 digits, though it is the
# direction 0; the CSV prints it as 0, so a last-bit rounding change cannot
# move a cell between the two ends of the theta column.
_PI_12G = f"{math.pi:.12g}"


def write_field_csv(grid: GridField, path) -> None:
    """CSV of the grid's rows, ``u_x,u_y,theta_or_nan,gap,status``.

    Every number goes through ``%.12g`` once, in one formatting call for the
    theta column and one for the file; ``%`` and an f-string ``:.12g`` print
    a float alike, so the bytes are those of a row-by-row f-string writer.
    """
    batch = grid.batch
    thetas = ("%.12g\n" * len(grid.us) % tuple(batch.value.tolist())).split("\n")[:-1]
    thetas = ["0" if text == _PI_12G else text for text in thetas]
    fields = chain.from_iterable(zip(*grid.us.T.tolist(), thetas, batch.gap.tolist(), grid.status()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("u_x,u_y,theta_or_nan,gap,status\n" + "%.12g,%.12g,%s,%.12g,%s\n" * len(grid.us) % tuple(fields))


_SVG_LINE = '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" stroke="black" stroke-width="1"/>\n'
_SVG_DOT = '<circle cx="%.2f" cy="%.2f" r="2.5" fill="red"/>\n'


def write_field_svg(grid: GridField, path, cell_size: float) -> None:
    """Static SVG 1.1: oriented segments at defined cells, dots at undefined.

    Coordinates are computed as arrays in the order of the per-cell formula,
    px = (u_x + half) * scale and dx = ((0.5 * seg_len) * cos theta) * scale
    with libm's cosine and sine, so each is the same double; the markup is
    one template of line and dot elements in row order, filled by one ``%``.
    """
    half = 1.15
    scale = SVG_SIZE_PX / (2.0 * half)
    seg_len = 0.8 * cell_size
    px = (grid.us[:, 0] + half) * scale
    py = (half - grid.us[:, 1]) * scale
    theta = grid.batch.value
    drawn = (grid.batch.reason == 0) & ~np.isnan(theta)
    shown = theta[drawn].tolist()
    dx, dy = np.zeros(len(theta)), np.zeros(len(theta))
    dx[drawn] = 0.5 * seg_len * np.array([math.cos(t) for t in shown]) * scale
    dy[drawn] = 0.5 * seg_len * np.array([math.sin(t) for t in shown]) * scale
    # a segment takes four numbers (x1, y1, x2, y2) and a dot, a segment of
    # length 0, the first two: px - 0.0 is px, and py + 0.0 is py, which is
    # never -0.0
    ends = np.column_stack([px - dx, py + dy, px + dx, py - dy])
    numbers = ends[drawn[:, None] | [True, True, False, False]]
    body = "".join([_SVG_DOT, _SVG_LINE][d] for d in drawn.tolist()) % tuple(numbers.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{SVG_SIZE_PX}" height="{SVG_SIZE_PX}" viewBox="0 0 {SVG_SIZE_PX} {SVG_SIZE_PX}">\n'
            f'<rect width="{SVG_SIZE_PX}" height="{SVG_SIZE_PX}" fill="white"/>\n'
            + body
            + "</svg>\n"
        )
