"""The concrete data maps: line fitters, circle location, toy decision rules.

``evaluate_batch`` runs every map, on inputs stacked along a first axis, and
returns a :class:`BatchOutcome` of value, gap and reason arrays, each map's
from one kernel; each circle-valued kernel reads its F from ``section``, and
the Monte-Carlo estimators' distances read the gap.  What a map kind is, its
kernel, period, block width, distance rule and Monte-Carlo draw, is one row
of ``_KINDS``.  A reason is stored as its
:class:`UndefinedReason` code, and a BatchOutcome masks its own Undefined
rows, so a kernel or any other map returns its formula's arrays and
``reason=np.where(undefined, UndefinedReason.X.value, 0)`` (the member works
too, but numpy takes a slow path for an int subclass).  Kernels are row-wise,
each row summed in a fixed order, and only evaluate_batch cuts row blocks, so
a row's outcome does not depend on its batch, nor on the thread that runs
it.  The certifiers and profilers of ``topology`` and ``metrics`` take a map
in this one form: any callable from stacked inputs to their BatchOutcome,
such as ``slices.slice_map``.
A BatchOutcome's ``period`` is the one fact about the feature space that
they read: pi for line directions (RP^1), 2 pi for the angles of circle
points (S^1), None for decisions and scalars.
``evaluate_with_standard_batch`` wraps a line fitter with the calibration
standard: exact perfect fits are answered by the canonical feature
(``standard_batch``), which extends the fitters continuously through inputs
(vertical lines) the raw formulas cannot represent.  Every other map is
evaluated raw: the augmented mean is already continuous at circle perfect
fits, where its pseudo-observation pulls it off the data's common point, so
answering them by the standard would make it jump.
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from singlab.geometry import (
    CircleDataset,
    ContractViolation,
    DomainError,
    PlaneDataset,
    _finite_array,
    _numbers,
    _positive_sizes,
    _unit_vector,
    angle_distance,
    reduce_mod_pi,
)

PERFECT_FIT_TOL = 1e-10
# Gap at or below which a PC eigenvalue tie, a LAD objective tie or a zero
# AUG_MEAN resultant counts as Undefined.
TIE_TOL = 1e-12

# Method tags of a distance to the singular set.
DIST_EXACT, DIST_SURROGATE, DIST_REFINED = "EXACT", "SURROGATE", "REFINED"


class NotPerfectFitError(ContractViolation):
    """Input to the calibration standard is not an exact perfect fit."""


class MapKind(str, enum.Enum):
    LS_LINE = "LS_LINE"
    PC_LINE = "PC_LINE"
    LAD_LINE = "LAD_LINE"
    AUG_MEAN = "AUG_MEAN"
    DISK_DECISION = "DISK_DECISION"
    RADIAL_OSCILLATOR = "RADIAL_OSCILLATOR"


class UndefinedReason(enum.IntEnum):
    """Why a map is Undefined; each value is the reason's code in a
    BatchOutcome, where 0 means Defined."""

    COLLINEAR_PREDICTOR = 1
    EIGENVALUE_TIE = 2
    OBJECTIVE_TIE = 3
    ZERO_RESULTANT = 4
    ORIGIN = 5


@dataclass(frozen=True)
class BatchOutcome:
    """Outcomes of one map on a batch of inputs, as arrays.

    ``value`` (m,) holds each Defined row's feature as a number: a line's
    direction angle mod pi, a circle point's angle, a decision's bit or a
    scalar; it is NaN where undefined.  ``period`` is the feature space's:
    pi for line directions, 2 pi for circle points, None for decisions and
    scalars, whose distance is the absolute difference.  ``gap`` (m,) is
    the map's gap, 0 where undefined; ``reason`` (m,) holds int8
    UndefinedReason codes, 0 where defined.  A map states each row's reason
    once: construction casts ``reason`` to int8 and masks ``value`` to NaN
    and ``gap`` to 0 on its Undefined rows.
    """

    value: np.ndarray
    gap: np.ndarray
    reason: np.ndarray
    period: float | None

    def __post_init__(self):
        reason = np.asarray(self.reason).astype(np.int8)
        defined = reason == 0
        object.__setattr__(self, "value", np.where(defined, self.value, np.nan))
        object.__setattr__(self, "gap", np.where(defined, self.gap, 0.0))
        object.__setattr__(self, "reason", reason)

    @property
    def defined(self) -> np.ndarray:
        return self.reason == 0


def _batch_outcome(result) -> BatchOutcome:
    """A map's result, checked to be the BatchOutcome of its stacked inputs."""
    if not isinstance(result, BatchOutcome):
        raise ContractViolation(f"a map must return a BatchOutcome of its inputs, got {type(result).__name__}")
    return result


@dataclass(frozen=True)
class DataMapSpec:
    """Which map to run and its parameters.

    AUG_MEAN uses ``weights`` (nonempty, finite and positive), a finite
    ``w0 >= 0`` and the finite unit 2-vector ``aug_point``.
    DISK_DECISION uses a finite 2-vector ``center`` and a finite ``radius > 0``.
    Vector parameters are stored as float tuples, so equal specs hash alike.
    """

    kind: MapKind
    weights: tuple[float, ...] | None = None
    w0: float | None = None
    aug_point: tuple[float, float] = (0.0, -1.0)
    center: tuple[float, float] = (0.0, 0.0)
    radius: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", MapKind(self.kind))
        if self.kind is MapKind.AUG_MEAN:
            if self.weights is None or self.w0 is None:
                raise ContractViolation("AUG_MEAN needs weights and w0")
            w = tuple(_positive_sizes(self.weights, "weights"))
            if not w:
                raise ContractViolation("weights must be nonempty")
            [w0] = _numbers([self.w0], "w0")
            if not 0.0 <= w0 < math.inf:
                raise ContractViolation("AUG_MEAN w0 must be finite and nonnegative")
            a = _unit_vector(self.aug_point, "aug_point")
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "w0", w0)
            object.__setattr__(self, "aug_point", (float(a[0]), float(a[1])))
        if self.kind is MapKind.DISK_DECISION:
            c = _finite_array(self.center, "center", (2,))
            [radius] = _positive_sizes([self.radius], "radius")
            object.__setattr__(self, "center", (float(c[0]), float(c[1])))
            object.__setattr__(self, "radius", radius)


def uniform_preset(n: int) -> DataMapSpec:
    """Augmented mean with unit weights and a weak augmentation (w0 = 0.5)."""
    return DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * n, w0=0.5)


def concentrated_preset(n: int) -> DataMapSpec:
    """Augmented mean with unit weights and a strong augmentation (w0 = 8)."""
    return DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * n, w0=8.0)


# ---------------------------------------------------------------------------
# Disk decision rule
# ---------------------------------------------------------------------------

def eval_disk_decision(x: np.ndarray, spec: DataMapSpec):
    """Kernel of DISK_DECISION on points (m, 2): bit 1 strictly inside the
    disk, gap = |dist - R|.

    Boundary points get bit 0 with gap 0: the singular set is the
    measure-zero circle itself.
    """
    if x.ndim != 2 or x.shape[1] != 2:
        raise ContractViolation("disk decision input must be a 2-vector")
    d = np.linalg.norm(x - np.asarray(spec.center), axis=1)
    return (d < spec.radius).astype(float), np.abs(d - spec.radius), np.zeros(len(d), dtype=np.int8)


# ---------------------------------------------------------------------------
# Radial oscillator
# ---------------------------------------------------------------------------

def oscillator_f(t):
    """f(t) = log(-log(t / e)) on (0, 1], elementwise; f(1) = 0, increasing as t drops."""
    t = np.asarray(t, dtype=float)
    inside = (0.0 < t) & (t <= 1.0)
    if not np.all(inside):
        raise DomainError(f"f is defined on (0, 1], got {t[~inside].flat[0]}")
    return np.log(1.0 - np.log(t))


def oscillator_t(n: int) -> float:
    """Branch point t_n = f^{-1}(n) = exp(1 - e^n)."""
    if n < 0:
        raise DomainError("branch index must be nonnegative")
    return math.exp(1.0 - math.exp(float(n)))


def oscillator_g(t):
    """Piecewise value oscillating between 0 and 1 as t drops to 0, elementwise.

    On [t_{n+1}, t_n) the value is f(t) - n for even n and (n+1) - f(t) for
    odd n; the two formulas agree at every branch point so g is continuous.
    """
    fval = oscillator_f(t)
    n = np.floor(fval)
    return np.where(n % 2 == 0, fval - n, (n + 1) - fval)[()]


def oscillator_g_prime_abs(t: float) -> float:
    """|g'(t)| = 1 / (t |log(t/e)|), valid off the branch points."""
    if not 0.0 < t <= 1.0:
        raise DomainError(f"g' is defined on (0, 1], got {t}")
    return 1.0 / (t * (1.0 - math.log(t)))


def eval_radial_oscillator(x: np.ndarray, spec: DataMapSpec):
    """Kernel of RADIAL_OSCILLATOR on vectors (m, d), d >= 2: the scalar
    g(|x|) on the punctured unit ball, gap = |x|."""
    if x.ndim != 2 or x.shape[1] < 2:
        raise ContractViolation("oscillator input must be a d-vector, d >= 2")
    r = np.linalg.norm(x, axis=1)
    if np.any(r > 1.0 + 1e-12):
        raise DomainError(f"oscillator input must lie in the unit ball, |x| = {float(r.max())}")
    origin = r == 0.0
    return oscillator_g(np.where(origin, 1.0, np.minimum(r, 1.0))), r, np.where(origin, UndefinedReason.ORIGIN.value, 0)


# ---------------------------------------------------------------------------
# Calibration standard on perfect fits
# ---------------------------------------------------------------------------

def _pairwise_sq_distances(pts: np.ndarray) -> np.ndarray:
    """Squared distances between the points of each dataset, (..., n, 2) ->
    (..., n, n), as dx^2 + dy^2: bit-equal to a sum over a last axis of two."""
    dx, dy = (c[..., :, None] - c[..., None, :] for c in (pts[..., 0], pts[..., 1]))
    return dx * dx + dy * dy


def spanning_lines(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(residual, direction, span) of each dataset in a batch (m, n, 2).

    span is the point-set diameter; the spanning line is anchored on the
    first most distant pair for numerical robustness.  residual is the
    largest orthogonal distance from that line, exactly 0 for exactly
    collinear points, and direction its angle mod pi.  A dataset of equal
    points has residual inf, direction 0 and span 0.
    """
    m, n, _ = points.shape
    d2 = _pairwise_sq_distances(points).reshape(m, n * n)
    k = np.argmax(d2, axis=1)
    rows = np.arange(m)
    span2 = d2[rows, k]
    anchor = points[rows, k // n]
    d = points[rows, k % n] - anchor
    rel = points - anchor[:, None, :]
    # cross-product form: exactly zero for exact scalar multiples, no
    # normalization rounding before the comparison
    cross = rel[..., 0] * d[:, None, 1] - rel[..., 1] * d[:, None, 0]
    span = np.sqrt(span2)
    equal = span2 == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        residual = np.where(equal, np.inf, np.max(np.abs(cross), axis=1) / span)
    theta = np.where(equal, 0.0, reduce_mod_pi(np.arctan2(d[:, 1], d[:, 0])))
    return residual, theta, span


# ---------------------------------------------------------------------------
# Batch kernels: the line fitters over (m, n, 2) point batches
# ---------------------------------------------------------------------------

def section(spec: DataMapSpec, inputs) -> tuple[np.ndarray, np.ndarray]:
    """(re, im) (m,) of each row's F, the complex number whose argument is
    the feature, for inputs stacked as ``evaluate_batch`` takes them: PC's
    a + i b, a half the variance difference and b the covariance (1/n
    normalization); LS's S_xx + i S_xy; AUG_MEAN's resultant r (``_resultant``).
    Other maps have none.

    Every sum, the point means and the second moments of PC and LS alike,
    runs over the points axis one column at a time, on strided views of the
    batch, in one order, numpy's pairwise summation (``_axis_sum``), so each
    is bit-equal to numpy's reduction over the last axis of each coordinate's
    (m, n) array: x.mean(axis=1), and np.sum(axis=1) of the centered
    products.  Pairwise summation is also the more accurate order (Higham,
    SIAM J. Sci. Comput. 14, 1993).
    """
    if spec.kind is MapKind.AUG_MEAN:
        r, _ = _resultant(_as_angle_batch(inputs).T, spec)
        return r[0], r[1]
    if spec.kind not in (MapKind.PC_LINE, MapKind.LS_LINE):
        raise ContractViolation(f"{spec.kind.value} has no section")
    points = _as_plane_batch(inputs)
    n = points.shape[1]
    x, y = points[..., 0], points[..., 1]
    mx = _axis_sum(_columns(x), n) / n
    my = _axis_sum(_columns(y), n) / n
    if spec.kind is MapKind.LS_LINE:
        return _centered_product_sum(x, mx, x, mx), _centered_product_sum(x, mx, y, my)
    cxx = _centered_product_sum(x, mx, x, mx) / n
    cyy = _centered_product_sum(y, my, y, my) / n
    return 0.5 * (cxx - cyy), _centered_product_sum(x, mx, y, my) / n


def _ls_batch(points, spec):
    """Slope direction of the y-on-x least-squares line, arg F mod pi.

    gap = sqrt(S_xx): the exact R^{2n} distance to the collinear-predictor
    surface {all abscissae equal}, on which the map is undefined.
    """
    s_xx, s_xy = section(spec, points)
    angle = reduce_mod_pi(np.arctan(s_xy / s_xx))
    return angle, np.sqrt(s_xx), np.where(s_xx == 0.0, UndefinedReason.COLLINEAR_PREDICTOR.value, 0)


def _pc_batch(points, spec):
    """Leading eigenvector direction of the covariance, arg F / 2; gap =
    2 |F| = lambda_1 - lambda_2, the eigenvalue gap."""
    a, b = section(spec, points)
    gap = 2.0 * np.hypot(a, b)
    angle = reduce_mod_pi(0.5 * np.arctan2(2.0 * b, 2.0 * a))
    return angle, gap, np.where(gap <= TIE_TOL, UndefinedReason.EIGENVALUE_TIE.value, 0)


@functools.cache
def _lad_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of the pairs i < j of n points, in the order of
    itertools.combinations; read-only, since every call shares them."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _sum_in_order(term, ks, total=None):
    """total + term(k) for k in ks, added one after another; the first term
    alone when total is None.  ``term(k, out)`` returns term k: in a fresh
    array when out is None, otherwise in out or in any array it leaves
    unchanged."""
    scratch = None
    for k in ks:
        if total is None:
            total = term(k, None)
        else:
            scratch = term(k, scratch)
            total += scratch
    return total


def _sum_tree(term, chains):
    """The sums of the chains of terms, combined as a balanced binary tree."""
    if len(chains) == 1:
        return _sum_in_order(term, chains[0])
    total = _sum_tree(term, chains[:len(chains) // 2])
    total += _sum_tree(term, chains[len(chains) // 2:])
    return total


def _pairwise_sum(term, lo: int, hi: int) -> np.ndarray:
    """term(lo) + ... + term(hi - 1), added in the order in which np.sum adds
    a contiguous row of hi - lo values (numpy's pairwise summation): one
    after another below 8 terms; up to 128, eight accumulators r0..r7, each
    over every eighth term, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5)
    + (r6 + r7)) before the tail of fewer than 8 is added; above 128, two
    halves split at a multiple of 8.  For nonnegative terms the result is
    bit-equal to np.sum(axis=-1) of the terms stacked on a last axis (np.sum
    starts from +0.0; ``_axis_sum`` covers signed terms).  ``term(k, out)``
    is as in ``_sum_in_order``."""
    n = hi - lo
    if n < 8:
        return _sum_in_order(term, range(lo, hi))
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _pairwise_sum(term, lo, lo + half)
        total += _pairwise_sum(term, lo + half, hi)
        return total
    stop = hi - n % 8
    total = _sum_tree(term, [range(lo + r, stop, 8) for r in range(8)])
    return _sum_in_order(term, range(stop, hi), total)


def _axis_sum(term, n: int) -> np.ndarray:
    """term(0) + ... + term(n - 1) bit-equal to np.sum over the last axis of
    an array of n values, strided or not: pairwise (``_pairwise_sum``).
    np.sum starts from +0.0, so terms that are all -0.0 sum to +0.0, which
    adding +0.0 last reproduces: it changes no other sum."""
    total = _pairwise_sum(term, 0, n)
    total += 0.0
    return total


def _columns(values: np.ndarray):
    """The term of ``_sum_in_order`` that is column k of values (m, n): a
    copy for the first term, the column itself after that."""
    return lambda k, out: values[:, k].copy() if out is None else values[:, k]


def _centered_product_sum(u, mu, v, mv) -> np.ndarray:
    """The sums over k of (u[:, k] - mu) (v[:, k] - mv) for columns of u, v
    (m, n) and means mu, mv (m,), bit-equal to np.sum(axis=1) of the
    centered products; u is v gives the sums of squares."""
    scratch = np.empty_like(mu)

    def term(k, out):
        out = np.subtract(u[:, k], mu, out=out)
        if v is u:
            return np.square(out, out=out)
        out *= np.subtract(v[:, k], mv, out=scratch)
        return out

    return _axis_sum(term, u.shape[1])


def _lad_batch(points, spec):
    """L1 regression by exact pair enumeration.

    An optimal L1 line passes through two data points, so enumerating every
    pair with distinct abscissae is exact at desk scale.  gap is the margin
    between the two best objectives (0 with a single candidate); a tie only
    counts as a singularity when the tied candidates disagree in direction.
    A row block of ``evaluate_batch`` runs in point-major order: its
    coordinates are transposed to (n, b), every pair line i < j is built at
    once as (P, b) slope and intercept arrays, and the objectives sum
    |y_k - intercept - slope x_k| one data point k at a time, in numpy's
    pairwise order, so they are bit-equal to np.sum over each row's
    residuals.
    """
    points = _as_plane_batch(points)
    n = points.shape[1]
    i, j = _lad_pairs(n)
    x, y = np.ascontiguousarray(points.transpose(2, 1, 0))
    xi, yi = x[i], y[i]
    dx = x[j] - xi
    slope = y[j] - yi
    slope /= dx
    vertical = dx == 0.0
    intercept = np.subtract(yi, np.multiply(slope, xi, out=dx), out=dx)
    del xi, yi
    product = np.empty_like(slope)

    def residual(k, out):
        out = np.subtract(y[k], intercept, out=out)
        out -= np.multiply(slope, x[k], out=product)
        return np.abs(out, out=out)

    objs = _pairwise_sum(residual, 0, n)
    objs[vertical] = np.inf
    return _lad_select(objs, slope)


def _lad_select(objs, slopes):
    """(angle, gap, reason) of each row of a block from its pairs'
    objectives and slopes, (P, b) with one column per row; overwrites the
    best objective of every row."""
    rows = np.arange(objs.shape[1])
    # the first minimum is the best candidate, the first minimum of the rest
    # the second best; either is inf where the row has no such candidate
    best = np.argmin(objs, axis=0)
    best_obj = objs[best, rows]
    objs[best, rows] = np.inf
    second = np.argmin(objs, axis=0)
    second_obj = objs[second, rows]
    has_second = np.isfinite(second_obj)
    angle = reduce_mod_pi(np.arctan(slopes[best, rows]))
    gap = np.where(has_second, second_obj - best_obj, 0.0)
    # only a near tie needs the second-best direction
    tie = has_second & (gap <= TIE_TOL)
    near = np.flatnonzero(tie)
    second_angle = reduce_mod_pi(np.arctan(slopes[second[near], near]))
    tie[near] = angle_distance(angle[near], second_angle, np.pi) > TIE_TOL
    reason = np.where(np.isinf(best_obj), UndefinedReason.COLLINEAR_PREDICTOR.value,
                      np.where(tie, UndefinedReason.OBJECTIVE_TIE.value, 0))
    return angle, gap, reason


def _as_plane_batch(points) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    if points.ndim != 3 or points.shape[2] != 2:
        raise ContractViolation(f"a plane dataset batch has shape (m, n, 2), got {points.shape}")
    if points.shape[1] < 2:
        raise ContractViolation("line fitting needs n >= 2")
    return points


def standard_batch(points) -> BatchOutcome:
    """The calibration standard on a batch of plane datasets (m, n, 2).

    Every row must span a unique line exactly; otherwise NotPerfectFitError.
    """
    residual, theta, span = spanning_lines(_as_plane_batch(points))
    if not np.all(residual <= PERFECT_FIT_TOL):
        raise NotPerfectFitError("a dataset of the batch is not an exact perfect fit")
    return BatchOutcome(value=theta, gap=span, reason=np.zeros(len(theta)), period=math.pi)


def evaluate_with_standard_batch(spec: DataMapSpec, points) -> BatchOutcome:
    """A line fitter on a batch (m, n, 2), its exact perfect fits answered
    by the standard: the unique continuous extension of the fitter through
    perfect fits.  In particular it gives the vertical direction on vertical
    collinear data, where the raw LS and LAD formulas are undefined or
    unrepresentable.  The other rows get the raw fitter."""
    points = _as_plane_batch(points)
    residual, theta, span = spanning_lines(points)
    perfect = residual <= PERFECT_FIT_TOL
    raw = evaluate_batch(spec, points)
    return BatchOutcome(
        value=np.where(perfect, theta, raw.value),
        gap=np.where(perfect, span, raw.gap),
        reason=np.where(perfect, 0, raw.reason),
        period=math.pi,
    )


# ---------------------------------------------------------------------------
# Augmented mean over angle batches
# ---------------------------------------------------------------------------

def _resultant(angles: np.ndarray, spec: DataMapSpec) -> tuple[np.ndarray, np.ndarray]:
    """Resultant sum_i w_i (cos phi_i, sin phi_i) + w0 * a of m angle
    configurations stored one row per point, angles (n, m): r (2, m), and
    the weighted points (w cos phi, w sin phi) stacked on a first axis, (2,
    n, m); ``_weighted_resultant`` of the unit points."""
    terms = np.empty((2, *angles.shape))  # cos phi, sin phi
    np.cos(angles, out=terms[0])
    np.sin(angles, out=terms[1])
    return _weighted_resultant(terms, spec)


def _weighted_resultant(terms: np.ndarray, spec: DataMapSpec) -> tuple[np.ndarray, np.ndarray]:
    """``_resultant`` of unit points (cos phi, sin phi) stacked on a first
    axis, terms (2, n, m), which it scales in place to the weighted points.
    Each configuration adds its terms in point order from +0.0, then w0 a,
    one contiguous m-long row at a time: unlike a BLAS product's, r's
    rounding ignores the other configurations."""
    w = np.asarray(spec.weights, dtype=float)
    if w.shape[0] != terms.shape[1]:
        raise ContractViolation(f"{w.shape[0]} weights for {terms.shape[1]} points")
    terms *= w[:, None]
    r = np.zeros((2, terms.shape[2]))
    for i in range(w.shape[0]):
        r += terms[:, i]
    r += spec.w0 * np.asarray(spec.aug_point, dtype=float)[:, None]
    return r, terms


def section_jacobian(spec: DataMapSpec, angles) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """AUG_MEAN's section (re, im) of angle configurations (m, n), as
    ``section`` gives it, with its Jacobian in the angles (d_re, d_im) (m,
    n), whose column i is w_i (-sin phi_i, cos phi_i).  The Jacobian arrays
    are transposes of (n, m) buffers, so a caller that stores the angles one
    row per point passes their transpose and transposes the Jacobian back,
    copying nothing."""
    if spec.kind is not MapKind.AUG_MEAN:
        raise ContractViolation(f"{spec.kind.value} has no section Jacobian")
    r, (w_cos, w_sin) = _resultant(_as_angle_batch(angles).T, spec)
    return (r[0], r[1]), (np.negative(w_sin, out=w_sin).T, w_cos.T)


def _as_angle_batch(angles) -> np.ndarray:
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] < 1:
        raise ContractViolation("augmented mean needs n >= 1 angles per dataset")
    return angles


def _aug_mean_batch(angles, spec):
    """Direction of the weighted resultant, augmented by a fixed
    pseudo-observation: arg F; gap = |F|, undefined where it vanishes."""
    re, im = section(spec, angles)
    gap = np.hypot(re, im)
    return np.arctan2(im, re), gap, np.where(gap <= TIE_TOL, UndefinedReason.ZERO_RESULTANT.value, 0)


# ---------------------------------------------------------------------------
# Evaluation: every map through its one kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Kind:
    """What one map kind is, its parameters aside (``DataMapSpec``).

    ``kernel`` checks one row block and returns (value, gap, reason) arrays,
    which BatchOutcome masks; ``period`` is the feature period; ``width(n)``
    counts the doubles per row of the kernel's widest array, n = shape[1].
    The distance to the singular set is the gap over ``divisor(spec)``
    (``_singular_distance``), reported with ``tag``; a kind without a tag has
    no distance rule.  The Monte-Carlo CDF draws rows of ``shape(n)`` for n
    points, each chunk filled in place by ``draw(rng, out)``; a kind without
    a draw has no CDF sampler.
    """

    kernel: Callable
    period: float | None
    width: Callable[[int], int]
    tag: str | None = None
    divisor: Callable[[DataMapSpec], float] = lambda spec: 1.0
    shape: Callable[[int], tuple] | None = None
    draw: Callable | None = None


# The plane fitters' CDF rows: n points of iid standard-normal coordinates.
_PLANE_ROW = {"shape": lambda n: (n, 2), "draw": lambda rng, out: rng.standard_normal(out=out)}

# LS and DISK_DECISION's distances are exact; PC's (lambda1 - lambda2) / 2,
# AUG_MEAN's |rho| / sum(w) and LAD's objective tie gap are surrogates, each
# within constants of the true distance.
_KINDS = {
    MapKind.LS_LINE: _Kind(_ls_batch, math.pi, lambda n: 2 * n, DIST_EXACT, **_PLANE_ROW),
    MapKind.PC_LINE: _Kind(_pc_batch, math.pi, lambda n: 2 * n, DIST_SURROGATE, lambda spec: 2.0, **_PLANE_ROW),
    MapKind.LAD_LINE: _Kind(_lad_batch, math.pi, lambda n: n * (n - 1) // 2, DIST_SURROGATE, **_PLANE_ROW),
    # iid uniform circle points
    MapKind.AUG_MEAN: _Kind(_aug_mean_batch, 2.0 * math.pi, lambda n: n, DIST_SURROGATE,
                            lambda spec: float(np.sum(spec.weights)), lambda n: (n,),
                            lambda rng, out: np.multiply(rng.random(out=out), 2.0 * math.pi, out=out)),
    MapKind.DISK_DECISION: _Kind(eval_disk_decision, None, lambda n: n, DIST_EXACT),
    MapKind.RADIAL_OSCILLATOR: _Kind(eval_radial_oscillator, None, lambda n: n),
}

# Bytes of the widest array of a row block, for LAD the (P, b) arrays of P =
# n(n-1)/2 pair lines by b rows; small-n batches of a few thousand rows run
# in one pass.  The budget is sized for the Monte-Carlo CDF's two workers
# (``measure._run_chunks``), not for one core's L2: a LAD block makes about a
# hundred short numpy calls, and the two threads trade the interpreter lock
# at each, so fewer, larger blocks trade it less often.  Over ten runs of the
# montecarlo op list (on a 2-vCPU Xeon VM), budgets of 192, 256, 320, 384 and
# 512 KB read wall_s 0.517, 0.499, 0.477, 0.484 and 0.478 s and peak RSS
# 50.1, 50.6, 52.1, 52.4 and 54.1 MB; 320 KB is the smallest budget on that
# plateau, and it halves a LAD n = 12 CDF's voluntary context switches (4.9k
# to 2.5k) and costs one thread nothing.  Larger blocks fault more: the
# first such CDF in a fresh process took 47k, 69k and 105k minor faults at
# 192, 320 and 768 KB, and at 768 KB the op list read 0.603 s and 58.6 MB.
_BLOCK_BYTES = 320 << 10


def _block_rows(kind: MapKind, shape) -> int:
    """Rows per block: the kernel's widest array fits _BLOCK_BYTES, or 1 row."""
    return max(1, _BLOCK_BYTES // (8 * max(1, _KINDS[kind].width(shape[1]))))


def evaluate_batch(spec: DataMapSpec, inputs) -> BatchOutcome:
    """The map on inputs stacked along the first axis.

    LS, PC and LAD take plane datasets (m, n, 2), AUG_MEAN circle datasets
    as angles (m, n), DISK_DECISION points (m, 2) and RADIAL_OSCILLATOR
    vectors (m, d), all finite.  The kernel and period are those of the
    kind's row of ``_KINDS``.  The kernel, row-wise, runs once on a batch
    that fits one block of ``_block_rows`` rows or has fewer than two axes
    (which it refuses); a larger batch is cut into blocks, which run one
    after another on the calling thread, each writing its own rows.  It
    starts no thread: the Monte-Carlo CDF runs its chunks, each one batch,
    on two CPUs (``measure._run_chunks``).  The kernel's arrays become the
    BatchOutcome, which masks the Undefined rows.
    """
    row = _KINDS[spec.kind]
    inputs = np.asarray(inputs, dtype=float)
    # min and max carry any NaN or inf, and build no input-sized mask
    if inputs.size and not np.isfinite([inputs.min(), inputs.max()]).all():
        raise ContractViolation("map inputs must be finite")
    with np.errstate(divide="ignore", invalid="ignore"):
        # a batch of one block takes the kernel's arrays whole: through the
        # block loop a 256-row PC or LAD call read 1-3 us slower, and certify
        # makes hundreds of such calls a pass (ROADMAP, measured keeps)
        if inputs.ndim < 2 or len(inputs) <= (rows := _block_rows(spec.kind, inputs.shape)):
            value, gap, reason = row.kernel(inputs, spec)
        else:
            m = len(inputs)
            value, gap, reason = np.empty(m), np.empty(m), np.empty(m, dtype=np.int8)
            for start in range(0, m, rows):
                block = slice(start, start + rows)
                value[block], gap[block], reason[block] = row.kernel(inputs[block], spec)
    return BatchOutcome(value=value, gap=gap, reason=reason, period=row.period)


def _singular_distance(spec: DataMapSpec, inputs) -> np.ndarray:
    """Distances (m,) to the map's singular set of inputs stacked as
    ``evaluate_batch`` takes them: each row's gap divided by the divisor in
    its kind's row of ``_KINDS``.  It divides: multiplying by the reciprocal
    would move AUG_MEAN's bits."""
    return evaluate_batch(spec, inputs).gap / _KINDS[spec.kind].divisor(spec)


def as_map_input(x) -> np.ndarray:
    """One input as evaluate_batch takes it per row: a plane dataset's
    points, a circle dataset's angles, a vector as it is."""
    if isinstance(x, PlaneDataset):
        return x.points
    if isinstance(x, CircleDataset):
        return x.angles
    return np.asarray(x, dtype=float)
