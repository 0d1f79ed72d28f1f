"""Data-space and feature-space primitives.

Datasets are ordered lists of points: relabeling is never quotiented out, so
plane datasets embed isometrically into R^{2n} and circle datasets carry the
L2 product of arc-length metrics; both compare and hash by value.  A
feature is a number, and the feature space is known by its period: pi for
line directions, 2 pi for the angles of circle points, none for decisions
and scalars.  ``angle_distance`` is the metric of the periodic ones, the
absolute difference that of the others.  The module also houses two
analytic utilities: the average norm along a segment, which ``metrics``
leans on, and ``loglog_fit``, the one slope behind every fitted exponent.
Both call no BLAS or LAPACK, so their bits do not depend on the OpenBLAS
kernels loaded.
Five private helpers are the one check of each kind of input a caller
passes: ``_numbers`` of every number, ``_positive_sizes`` of every size (a
number, finite and positive), ``_decreasing_sizes`` of every shrinking
sequence of sizes (radii, etas), ``_finite_array`` of every point, center,
corner, vector and point array (finite, nonempty, of a given shape), and
``_unit_vector`` of every unit 2-vector.  Each refuses with a ``ContractViolation`` that names the
parameter, never with numpy's ``TypeError`` or ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


class DomainError(ContractViolation):
    """An argument fell outside the mathematical domain of the operation."""


class DegenerateSegmentError(ContractViolation):
    """Segment endpoints coincide."""


UNIT_NORM_TOL = 1e-12


class _ArrayValue:
    """Compares and hashes a one-array dataclass by value: instances of one
    class are equal when their arrays are (``np.array_equal``), and equal
    ones hash alike, -0.0 and 0.0 included, since adding 0.0 turns -0.0
    into 0.0 before the bytes are hashed."""

    def _array(self) -> np.ndarray:
        (field,) = fields(self)
        return getattr(self, field.name)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return np.array_equal(self._array(), other._array())

    def __hash__(self):
        return hash((self._array() + 0.0).tobytes())


@dataclass(frozen=True, eq=False)
class PlaneDataset(_ArrayValue):
    """Ordered list of n points in the plane, metrized as one point of R^{2n}."""

    points: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.points, "points", ("n", 2))
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class CircleDataset(_ArrayValue):
    """Ordered list of n unit vectors; metric is the L2 product of arc lengths."""

    points: np.ndarray

    def __post_init__(self):
        arr = _finite_array(self.points, "points", ("n", 2))
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ContractViolation(f"circle points must be unit vectors (off by {worst:.3e})")
        arr.flags.writeable = False
        object.__setattr__(self, "points", arr)

    @property
    def angles(self) -> np.ndarray:
        return np.arctan2(self.points[:, 1], self.points[:, 0])


def reduce_mod_pi(theta):
    """Angles, scalar or array, reduced mod pi into [0, pi).

    ``theta % pi`` rounds up to pi itself for tiny negative theta (pi - 1e-17
    is pi in floating point); that result is the direction 0 and becomes 0.
    """
    r = theta % math.pi
    # multiplying by the comparison keeps r exactly, or zeroes it where r is pi
    return r * (r != math.pi)


def angle_distance(a, b, period: float):
    """Mod-period metric between angles, elementwise: the length of the
    short way from a to b on a circle of circumference ``period``."""
    d = np.abs(a - b) % period
    return np.minimum(d, period - d)


def wrap_increments(delta, period: float):
    """Reduce angle increments into (-period/2, period/2], elementwise."""
    delta = np.fmod(delta, period)
    delta = np.where(delta > 0.5 * period, delta - period, delta)
    return np.where(delta <= -0.5 * period, delta + period, delta)


def omega_s(s: float) -> float:
    """Volume of the unit ball in R^s, Gamma(1/2)^s / Gamma(s/2 + 1).

    Federer's convention kept for non-integer s as well, so that Hausdorff
    measure estimates are deterministic across implementations.
    """
    if not math.isfinite(s) or s < 0:
        raise DomainError(f"omega_s requires s >= 0, got {s}")
    return math.pi ** (s / 2.0) / math.gamma(s / 2.0 + 1.0)


def _norm_antiderivative(t: float, q: float) -> float:
    """F(t) = (t sqrt(t^2 + q) + q asinh(t / sqrt(q))) / 2, so F' = sqrt(t^2 + q)."""
    log_term = q * math.asinh(t / math.sqrt(q)) if q > 0.0 else 0.0
    return 0.5 * (t * math.sqrt(t * t + q) + log_term)


def segment_average_norm(x, y) -> float:
    """Average of |point| along the straight segment from x to y.

    Closed form: with u the unit direction, b = <x, u> and q the squared
    distance from the origin to the segment's line, |x + s u|^2 = (s + b)^2
    + q, so the average over s in [0, L] is (F(b + L) - F(b)) / L for the
    antiderivative F above.  The result is never smaller than
    max(|x|, |y|) / 8.  x and y must be finite vectors of one length.
    """
    x = _finite_array(x, "x")
    y = _finite_array(y, "y", x.shape)
    diff = y - x
    # math.fsum of elementwise products, not BLAS's norm and dot, which may
    # fuse a multiply and an add depending on the kernels loaded
    length = math.sqrt(math.fsum(diff * diff))
    if length == 0.0:
        raise DegenerateSegmentError("segment endpoints coincide")
    u = diff / length
    b = math.fsum(x * u)
    perp = x - b * u
    q = math.fsum(perp * perp)
    return (_norm_antiderivative(b + length, q) - _norm_antiderivative(b, q)) / length


def _numbers(values, name: str) -> list[float]:
    """values as floats: the one number check.  A value that is not a
    number, or values that are not a sequence, read "<name> must be
    numeric"."""
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError):
        raise ContractViolation(f"{name} must be numeric") from None


def _positive_sizes(sizes, name: str) -> list[float]:
    """Sizes (mesh sizes, deltas, radii, etas, steps, weights) as floats
    (``_numbers``), each finite and positive: the one size check."""
    sizes = _numbers(sizes, name)
    if not all(0.0 < s < math.inf for s in sizes):
        raise ContractViolation(f"{name} must be finite and positive")
    return sizes


def _decreasing_sizes(sizes, name: str) -> tuple[float, ...]:
    """``_positive_sizes``, strictly decreasing: the one check of every
    shrinking sequence of sizes."""
    sizes = _positive_sizes(sizes, name)
    if not all(a > b for a, b in zip(sizes, sizes[1:])):
        raise ContractViolation(f"{name} must be strictly decreasing")
    return tuple(sizes)


def _finite_array(value, name: str, shape: tuple = ("d",)) -> np.ndarray:
    """value as a fresh float array, finite and nonempty, of the given
    shape: an int in shape fixes that axis, a str frees it and names it in
    the refusal.  The one check of every point, center, corner, vector and
    point array.  The refusal reads "<name> must be a finite vector" (or
    "a finite 2-vector" where the length is fixed), or for an array
    "<name> must be a finite (m, 2) array", or "<name> must be nonempty"
    for an array without entries; a vector without entries, a value that
    is not a number and rows of unequal lengths get the shape message."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):  # not numbers, or rows of unequal lengths
        arr = None
    if (arr is None or arr.ndim != len(shape) or not np.isfinite(arr).all()
            or any(n != m for n, m in zip(shape, arr.shape) if type(n) is not str) or (arr.ndim == 1 and not arr.size)):
        if len(shape) > 1:
            raise ContractViolation(f"{name} must be a finite ({', '.join(map(str, shape))}) array")
        raise ContractViolation(f"{name} must be a finite {'' if type(shape[0]) is str else f'{shape[0]}-'}vector")
    if not arr.size:
        raise ContractViolation(f"{name} must be nonempty")
    return arr


def _unit_vector(value, name: str) -> np.ndarray:
    """value as a finite 2-vector (``_finite_array``) whose norm, by
    math.fsum and not BLAS, is 1 within UNIT_NORM_TOL: the one unit-vector
    check."""
    arr = _finite_array(value, name, (2,))
    if abs(math.sqrt(math.fsum(arr * arr)) - 1.0) > UNIT_NORM_TOL:
        raise ContractViolation(f"{name} must be a unit vector")
    return arr


def loglog_fit(x, y, weights=None) -> float:
    """Least-squares slope of y against x, each point weighted (unit weights
    when none are given); the callers pass logs, so this is a log-log slope.

    Closed form with np.sum: xm = sum(w x) / sum(w), ym likewise, and the
    slope sum(w (x - xm)(y - ym)) / sum(w (x - xm)^2).  NaN when x holds
    fewer than two distinct values.
    """
    x = np.asarray(x, dtype=float)
    if x.size < 2 or x.min() == x.max():
        return math.nan
    y = np.asarray(y, dtype=float)
    w = np.ones_like(x) if weights is None else np.asarray(weights, dtype=float)
    xm = np.sum(w * x) / np.sum(w)
    ym = np.sum(w * y) / np.sum(w)
    return float(np.sum(w * (x - xm) * (y - ym)) / np.sum(w * (x - xm) ** 2))
