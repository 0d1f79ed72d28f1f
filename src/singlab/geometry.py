"""Data-space and feature-space primitives.

Datasets are ordered lists of points: relabeling is never quotiented out, so
plane datasets embed isometrically into R^{2n} and circle datasets carry the
L2 product of arc-length metrics.  Features are a small tagged union (line
direction mod pi, circle point, binary decision, scalar value), each with its
own metric.  The array-valued ones (``PlaneDataset``, ``CircleDataset``,
``CirclePoint``) compare and hash by value.  The module also houses two
analytic utilities: the average norm along a segment, which ``metrics``
leans on, and ``loglog_fit``, the one slope behind every fitted exponent.
Both call no BLAS or LAPACK, so their bits do not depend on the OpenBLAS
kernels loaded.
The private ``_positive_sizes`` is the one check of every size ``measure``
and ``metrics`` take: finite and positive; beside it, ``_finite_vector`` is
the one check of every point, center and corner a caller passes as a vector.
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


def _as_point_array(points, name: str = "points") -> np.ndarray:
    arr = np.array(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ContractViolation(f"{name} must have shape (n, 2), got {arr.shape}")
    if arr.shape[0] < 1:
        raise ContractViolation(f"{name} must contain at least one point")
    if not np.all(np.isfinite(arr)):
        raise ContractViolation(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


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
        object.__setattr__(self, "points", _as_point_array(self.points))

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
class CircleDataset(_ArrayValue):
    """Ordered list of n unit vectors; metric is the L2 product of arc lengths."""

    points: np.ndarray

    def __post_init__(self):
        arr = _as_point_array(self.points)
        norms = np.linalg.norm(arr, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ContractViolation(f"circle points must be unit vectors (off by {worst:.3e})")
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


@dataclass(frozen=True)
class LineDirection:
    """Undirected line direction: an angle reduced mod pi into [0, pi)."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ContractViolation("direction angle must be finite")
        object.__setattr__(self, "theta", reduce_mod_pi(float(self.theta)))


@dataclass(frozen=True, eq=False)
class CirclePoint(_ArrayValue):
    """A point of the unit circle."""

    u: np.ndarray

    def __post_init__(self):
        arr = _finite_vector(self.u, "circle point", 2)
        if abs(math.sqrt(math.fsum(arr * arr)) - 1.0) > UNIT_NORM_TOL:
            raise ContractViolation("circle point must be a unit vector")
        arr.flags.writeable = False
        object.__setattr__(self, "u", arr)

    @property
    def angle(self) -> float:
        return math.atan2(self.u[1], self.u[0])


@dataclass(frozen=True)
class Decision:
    """A binary decision (F is the two-point space {0, 1})."""

    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ContractViolation("decision bit must be 0 or 1")
        object.__setattr__(self, "bit", int(self.bit))


@dataclass(frozen=True)
class ScalarValue:
    """A real feature value with the absolute-value metric.

    Used only by the radial-oscillator map, whose feature space is an
    interval rather than a circle.
    """

    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ContractViolation("scalar feature must be finite")
        object.__setattr__(self, "value", float(self.value))


Feature = LineDirection | CirclePoint | Decision | ScalarValue


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


def feature_distance(f: Feature, g: Feature) -> float:
    """Metric on the feature space, defined per variant.

    Line directions use the mod-pi metric, circle points arc length,
    decisions the discrete 0/1 metric, scalars absolute difference.
    """
    if type(f) is not type(g):
        raise ContractViolation(f"feature variants differ: {type(f).__name__} vs {type(g).__name__}")
    if isinstance(f, LineDirection):
        return float(angle_distance(f.theta, g.theta, math.pi))
    if isinstance(f, CirclePoint):
        return float(angle_distance(f.angle, g.angle, 2.0 * math.pi))
    if isinstance(f, Decision):
        return 0.0 if f.bit == g.bit else 1.0
    return abs(f.value - g.value)


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
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.size < 1:
        raise ContractViolation("x and y must be equal-length vectors")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ContractViolation("x and y must be finite")
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


def _positive_sizes(sizes, name: str) -> list[float]:
    """Sizes (mesh sizes, deltas, etas, steps) as floats, each finite and
    positive: the one size check of ``measure`` and ``metrics``."""
    sizes = [float(s) for s in sizes]
    if not all(0.0 < s < math.inf for s in sizes):
        raise ContractViolation(f"{name} must be finite and positive")
    return sizes


def _finite_vector(value, name: str, size: int | None = None) -> np.ndarray:
    """value as a fresh float vector, nonempty and finite, of size entries
    when a size is given: the one point check beside ``_positive_sizes``.
    The refusal reads "<name> must be a finite vector", or "a finite
    <size>-vector"."""
    arr = np.array(value, dtype=float)
    if arr.ndim != 1 or not arr.size or (size is not None and arr.size != size) or not np.isfinite(arr).all():
        raise ContractViolation(f"{name} must be a finite {'' if size is None else f'{size}-'}vector")
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
