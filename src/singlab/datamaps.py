"""The concrete data maps: line fitters, circle location, toy decision rules.

``evaluate_batch`` runs every map, on inputs stacked along a first axis, and
returns a :class:`BatchOutcome` of value, gap and reason arrays; each map's
formula, its gap included, lives in one kernel there, and the distances of
the Monte-Carlo estimators read that gap.  ``evaluate`` is its one-row
case: an :class:`EvalOutcome` carrying either a feature or a reason it is
undefined, plus a nonnegative ``gap`` that vanishes exactly on the map's
(surrogate) singular surface.  ``evaluate_with_standard`` wraps a map with the
calibration standard: exact perfect fits are answered by the canonical
feature, which extends the fitters continuously through inputs (vertical
lines) the raw formulas cannot represent; the batched standard does the same
for the line fitters over (m, n, 2) point batches.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from singlab.geometry import (
    CircleDataset,
    CirclePoint,
    ContractViolation,
    Decision,
    DomainError,
    Feature,
    LineDirection,
    PlaneDataset,
    ScalarValue,
    angle_distance,
    reduce_mod_pi,
)

PERFECT_FIT_TOL = 1e-10
# Gap at or below which a PC eigenvalue tie, a LAD objective tie or a zero
# AUG_MEAN resultant counts as Undefined.
TIE_TOL = 1e-12


class NotPerfectFitError(ContractViolation):
    """Input to the calibration standard is not an exact perfect fit."""


class MapKind(str, enum.Enum):
    LS_LINE = "LS_LINE"
    PC_LINE = "PC_LINE"
    LAD_LINE = "LAD_LINE"
    AUG_MEAN = "AUG_MEAN"
    DISK_DECISION = "DISK_DECISION"
    RADIAL_OSCILLATOR = "RADIAL_OSCILLATOR"


class UndefinedReason(str, enum.Enum):
    COLLINEAR_PREDICTOR = "COLLINEAR_PREDICTOR"
    EIGENVALUE_TIE = "EIGENVALUE_TIE"
    OBJECTIVE_TIE = "OBJECTIVE_TIE"
    ZERO_RESULTANT = "ZERO_RESULTANT"
    ORIGIN = "ORIGIN"


@dataclass(frozen=True)
class EvalOutcome:
    """Result of applying a data map: Defined(feature) or Undefined(reason).

    ``gap`` is a map-specific nonnegative proximity-to-singularity scalar;
    it is zero whenever the outcome is Undefined.
    """

    feature: Feature | None
    gap: float
    reason: UndefinedReason | None = None

    def __post_init__(self):
        if self.feature is None and self.reason is None:
            raise ContractViolation("undefined outcome needs a reason")
        if self.feature is not None and self.reason is not None:
            raise ContractViolation("defined outcome cannot carry a reason")
        if self.gap < 0 or not math.isfinite(self.gap):
            raise ContractViolation("gap must be finite and nonnegative")
        if self.feature is None and self.gap != 0.0:
            raise ContractViolation("undefined outcome must have gap 0")

    @property
    def defined(self) -> bool:
        return self.feature is not None

    @staticmethod
    def of(feature: Feature, gap: float) -> "EvalOutcome":
        return EvalOutcome(feature=feature, gap=float(gap))

    @staticmethod
    def undefined(reason: UndefinedReason) -> "EvalOutcome":
        return EvalOutcome(feature=None, gap=0.0, reason=reason)


# Reasons of batch outcomes as small integer codes: code 0 is Defined, code
# k > 0 is REASON_CODES[k].
REASON_CODES = (None, *UndefinedReason)

# The period of each angle-valued feature variant.
_PERIODS = {LineDirection: math.pi, CirclePoint: 2.0 * math.pi}


@dataclass(frozen=True)
class BatchOutcome:
    """Outcomes of one map on a batch of inputs, as arrays.

    ``value`` (m,) holds each Defined row's feature of variant ``feature`` as
    a number: the angle mod pi of a LineDirection, the angle of a
    CirclePoint, the bit of a Decision or the value of a ScalarValue; it is
    NaN where undefined.  ``gap`` (m,) is the map's gap, 0 where undefined;
    ``reason`` (m,) holds REASON_CODES indices, 0 where defined.
    """

    value: np.ndarray
    gap: np.ndarray
    reason: np.ndarray
    feature: type

    @property
    def period(self) -> float | None:
        """The angle period (pi or 2 pi), None for decisions and scalars."""
        return _PERIODS.get(self.feature)

    @property
    def defined(self) -> np.ndarray:
        return self.reason == 0

    def outcome(self, i: int) -> EvalOutcome:
        """Row i as an EvalOutcome."""
        code = int(self.reason[i])
        if code:
            return EvalOutcome.undefined(REASON_CODES[code])
        value = float(self.value[i])
        if self.feature is CirclePoint:
            return EvalOutcome.of(CirclePoint((math.cos(value), math.sin(value))), self.gap[i])
        return EvalOutcome.of(self.feature(value), self.gap[i])


@dataclass(frozen=True)
class BatchMap:
    """A map evaluated on a whole stack of inputs in one call.

    ``fn`` takes inputs stacked along the first axis, such as slice
    parameters (m, 2) or plane datasets (m, n, 2), and returns their
    BatchOutcome.  The winding certifier tells a batch map from a pointwise
    EvalOutcome callable by this type.
    """

    fn: Callable[[np.ndarray], BatchOutcome]

    def __call__(self, inputs: np.ndarray) -> BatchOutcome:
        return self.fn(inputs)


# Each feature variant's number in a BatchOutcome's value array.
_FEATURE_VALUE = {
    LineDirection: lambda f: f.theta,
    CirclePoint: lambda f: f.angle,
    Decision: lambda f: f.bit,
    ScalarValue: lambda f: f.value,
}


def _pointwise(fn, sample_type: type | None = None) -> BatchMap:
    """``fn`` as a batch map: a BatchMap as it is, and a callable mapping one
    input to an EvalOutcome called row by row, each row wrapped in
    ``sample_type`` when one is given.  All-Undefined batches report the
    LineDirection variant."""
    if isinstance(fn, BatchMap):
        return fn

    def batch(inputs: np.ndarray) -> BatchOutcome:
        m = len(inputs)
        value, gap = np.full(m, np.nan), np.zeros(m)
        reason = np.zeros(m, dtype=np.int8)
        feature = LineDirection
        for k, x in enumerate(inputs):
            outcome = fn(x if sample_type is None else sample_type(x))
            if outcome.defined:
                feature = type(outcome.feature)
                value[k] = _FEATURE_VALUE[feature](outcome.feature)
                gap[k] = outcome.gap
            else:
                reason[k] = REASON_CODES.index(outcome.reason)
        return BatchOutcome(value=value, gap=gap, reason=reason, feature=feature)

    return BatchMap(batch)


@dataclass(frozen=True)
class DataMapSpec:
    """Which map to run and its parameters.

    AUG_MEAN uses ``weights`` (all positive), ``w0 >= 0`` and the unit
    augmentation point ``aug_point``.  DISK_DECISION uses ``center`` and
    ``radius > 0``.
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
            w = tuple(float(v) for v in self.weights)
            if any(v <= 0 for v in w):
                raise ContractViolation("AUG_MEAN weights must be positive")
            if self.w0 < 0:
                raise ContractViolation("AUG_MEAN w0 must be nonnegative")
            a = np.asarray(self.aug_point, dtype=float)
            if abs(np.linalg.norm(a) - 1.0) > 1e-12:
                raise ContractViolation("augmentation point must be a unit vector")
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "aug_point", (float(a[0]), float(a[1])))
        if self.kind is MapKind.DISK_DECISION:
            if self.radius is None or self.radius <= 0:
                raise ContractViolation("DISK_DECISION needs radius > 0")


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
    if x.ndim != 2 or x.shape[1] != 2 or not np.all(np.isfinite(x)):
        raise ContractViolation("disk decision input must be a finite 2-vector")
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
    if x.ndim != 2 or x.shape[1] < 2 or not np.all(np.isfinite(x)):
        raise ContractViolation("oscillator input must be a finite d-vector, d >= 2")
    r = np.linalg.norm(x, axis=1)
    if np.any(r > 1.0 + 1e-12):
        raise DomainError(f"oscillator input must lie in the unit ball, |x| = {float(r.max())}")
    origin = r == 0.0
    return oscillator_g(np.where(origin, 1.0, np.minimum(r, 1.0))), r, np.where(origin, _ORIGIN, 0)


# ---------------------------------------------------------------------------
# Calibration standard on perfect fits
# ---------------------------------------------------------------------------

def _pairwise_sq_distances(pts: np.ndarray) -> np.ndarray:
    """Squared distances between the points of each dataset, (..., n, 2) -> (..., n, n)."""
    return np.sum((pts[..., :, None, :] - pts[..., None, :, :]) ** 2, axis=-1)


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


def perfect_fit_outcome(dataset) -> EvalOutcome | None:
    """The standard's outcome on an exact perfect fit, None off them.

    A plane dataset is a perfect fit when it spans a unique line exactly;
    its feature is that line's direction and its gap the point-set span.  A
    circle dataset is one when all its points are equal; its feature is
    that point and its gap the span plus one.
    """
    if isinstance(dataset, PlaneDataset):
        residual, theta, span = spanning_lines(dataset.points[None])
        if residual[0] <= PERFECT_FIT_TOL:
            return EvalOutcome.of(LineDirection(float(theta[0])), span[0])
        return None
    if isinstance(dataset, CircleDataset):
        spread = float(np.max(np.linalg.norm(dataset.points - dataset.points[0], axis=1)))
        if spread <= PERFECT_FIT_TOL:
            u = dataset.points[0]
            return EvalOutcome.of(CirclePoint(u / np.linalg.norm(u)), dataset_span(dataset) + 1.0)
        return None
    raise ContractViolation(f"no perfect-fit standard for {type(dataset).__name__}")


def eval_perfect_fit_standard(dataset) -> Feature:
    """The canonical feature of a perfect fit (the standard Sigma).

    Plane datasets must span a unique line exactly; circle datasets must have
    all points equal.  Anything else raises NotPerfectFitError.
    """
    outcome = perfect_fit_outcome(dataset)
    if outcome is None:
        raise NotPerfectFitError(f"{type(dataset).__name__} is not an exact perfect fit")
    return outcome.feature


def dataset_span(dataset) -> float:
    """Diameter of the dataset's point set (distance from degenerate configs)."""
    return float(math.sqrt(np.max(_pairwise_sq_distances(dataset.points))))


# The dataset variant on which each map has a calibration standard.
_STANDARD_DATASET = {
    MapKind.LS_LINE: PlaneDataset,
    MapKind.PC_LINE: PlaneDataset,
    MapKind.LAD_LINE: PlaneDataset,
    MapKind.AUG_MEAN: CircleDataset,
}


def evaluate_with_standard(spec: DataMapSpec, x) -> EvalOutcome:
    """Evaluate a map, answering exact perfect fits by the standard.

    This is the unique continuous extension of each fitter through perfect
    fits: in particular it gives the vertical direction on vertical collinear
    data, where the raw LS and LAD formulas are undefined or unrepresentable.
    Off perfect fits it is the raw map.
    """
    if isinstance(x, _STANDARD_DATASET.get(spec.kind, ())):
        outcome = perfect_fit_outcome(x)
        if outcome is not None:
            return outcome
    return evaluate(spec, x)


# ---------------------------------------------------------------------------
# Batch kernels: the line fitters over (m, n, 2) point batches
# ---------------------------------------------------------------------------

def _pc_moments(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(a, b, gap, mean) of a batch: a half the variance difference, b the
    covariance (1/n normalization), gap = 2 hypot(a, b) = lambda_1 - lambda_2
    and mean = (lambda_1 + lambda_2) / 2."""
    centered = points - points.mean(axis=1, keepdims=True)
    n = points.shape[1]
    cxx = np.sum(centered[..., 0] ** 2, axis=1) / n
    cyy = np.sum(centered[..., 1] ** 2, axis=1) / n
    cxy = np.sum(centered[..., 0] * centered[..., 1], axis=1) / n
    a = 0.5 * (cxx - cyy)
    return a, cxy, 2.0 * np.hypot(a, cxy), 0.5 * (cxx + cyy)


_COLLINEAR = REASON_CODES.index(UndefinedReason.COLLINEAR_PREDICTOR)
_EIGEN_TIE = REASON_CODES.index(UndefinedReason.EIGENVALUE_TIE)
_OBJECTIVE_TIE = REASON_CODES.index(UndefinedReason.OBJECTIVE_TIE)
_ZERO_RESULTANT = REASON_CODES.index(UndefinedReason.ZERO_RESULTANT)
_ORIGIN = REASON_CODES.index(UndefinedReason.ORIGIN)


def _ls_batch(points, spec):
    """Slope direction of the y-on-x least-squares line.

    gap = sqrt(S_xx): the exact R^{2n} distance to the collinear-predictor
    surface {all abscissae equal}, on which the map is undefined.
    """
    points = _as_plane_batch(points)
    x, y = points[..., 0], points[..., 1]
    xc = x - x.mean(axis=1, keepdims=True)
    s_xx = np.sum(xc * xc, axis=1)
    s_xy = np.sum(xc * (y - y.mean(axis=1, keepdims=True)), axis=1)
    undefined = s_xx == 0.0
    angle = reduce_mod_pi(np.arctan(s_xy / s_xx))
    return angle, np.sqrt(s_xx), np.where(undefined, _COLLINEAR, 0)


def _pc_batch(points, spec):
    """Leading eigenvector direction of the covariance; gap = eigenvalue gap."""
    a, b, gap, _ = _pc_moments(_as_plane_batch(points))
    angle = reduce_mod_pi(0.5 * np.arctan2(2.0 * b, 2.0 * a))
    return angle, gap, np.where(gap <= TIE_TOL, _EIGEN_TIE, 0)


def _lad_batch(points, spec):
    """L1 regression by exact pair enumeration.

    An optimal L1 line passes through two data points, so enumerating every
    pair with distinct abscissae is exact at desk scale.  gap is the margin
    between the two best objectives (0 with a single candidate); a tie only
    counts as a singularity when the tied candidates disagree in direction.
    The objective and slope of each pair i < j fill one column of two (m, P)
    buffers, in pair-index order.
    """
    points = _as_plane_batch(points)
    m, n, _ = points.shape
    x, y = points[..., 0], points[..., 1]
    pairs = list(itertools.combinations(range(n), 2))
    objs, slopes = np.empty((2, m, len(pairs)))
    for k, (i, j) in enumerate(pairs):
        dx = x[:, j] - x[:, i]
        slope = (y[:, j] - y[:, i]) / dx
        intercept = y[:, i] - slope * x[:, i]
        obj = np.sum(np.abs(y - intercept[:, None] - slope[:, None] * x), axis=1)
        objs[:, k] = np.where(dx == 0.0, np.inf, obj)
        slopes[:, k] = slope
    rows = np.arange(m)
    # the first minimum is the best candidate, the first minimum of the rest
    # the second best; either is inf where the row has no such candidate
    best = np.argmin(objs, axis=1)
    best_obj = objs[rows, best]
    objs[rows, best] = np.inf
    second = np.argmin(objs, axis=1)
    second_obj = objs[rows, second]
    has_second = np.isfinite(second_obj)
    angle = reduce_mod_pi(np.arctan(slopes[rows, best]))
    gap = np.where(has_second, second_obj - best_obj, 0.0)
    second_angle = reduce_mod_pi(np.arctan(slopes[rows, second]))
    tie = has_second & (gap <= TIE_TOL) & (angle_distance(angle, second_angle, np.pi) > TIE_TOL)
    reason = np.where(np.isinf(best_obj), _COLLINEAR, np.where(tie, _OBJECTIVE_TIE, 0))
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
    return BatchOutcome(value=theta, gap=span, reason=np.zeros(len(theta), dtype=np.int8),
                        feature=LineDirection)


def evaluate_with_standard_batch(spec: DataMapSpec, points) -> BatchOutcome:
    """``evaluate_with_standard`` for a line fitter on a batch (m, n, 2):
    exact perfect fits get the standard, the other rows the raw fitter."""
    points = _as_plane_batch(points)
    residual, theta, span = spanning_lines(points)
    perfect = residual <= PERFECT_FIT_TOL
    raw = evaluate_batch(spec, points)
    return BatchOutcome(
        value=np.where(perfect, theta, raw.value),
        gap=np.where(perfect, span, raw.gap),
        reason=np.where(perfect, 0, raw.reason).astype(np.int8),
        feature=LineDirection,
    )


# ---------------------------------------------------------------------------
# Augmented mean over angle batches
# ---------------------------------------------------------------------------

def aug_mean_resultant(angles: np.ndarray, spec: DataMapSpec) -> tuple[np.ndarray, np.ndarray]:
    """Resultant sum_i w_i (cos phi_i, sin phi_i) + w0 * a of angle
    configurations, with its Jacobian in the angles.

    angles (..., n) -> r (..., 2) and J (..., 2, n), where column i of J is
    w_i (-sin phi_i, cos phi_i).
    """
    w = np.asarray(spec.weights, dtype=float)
    if w.shape[0] != angles.shape[-1]:
        raise ContractViolation(f"{w.shape[0]} weights for {angles.shape[-1]} points")
    a = np.asarray(spec.aug_point, dtype=float)
    c = np.cos(angles)
    s = np.sin(angles)
    r = np.stack([c @ w + spec.w0 * a[0], s @ w + spec.w0 * a[1]], axis=-1)
    return r, np.stack([-w * s, w * c], axis=-2)


def _aug_mean_batch(angles, spec):
    """Direction of the weighted resultant, augmented by a fixed
    pseudo-observation; gap = |resultant|, undefined where it vanishes."""
    if angles.ndim != 2 or angles.shape[1] < 1:
        raise ContractViolation("augmented mean needs n >= 1 angles per dataset")
    r, _ = aug_mean_resultant(angles, spec)
    gap = np.hypot(r[:, 0], r[:, 1])
    return np.arctan2(r[:, 1], r[:, 0]), gap, np.where(gap <= TIE_TOL, _ZERO_RESULTANT, 0)


# ---------------------------------------------------------------------------
# Evaluation: every map through its one kernel
# ---------------------------------------------------------------------------

# Map kind -> (kernel, feature variant).  A kernel checks its stacked inputs
# and returns (value, gap, reason) arrays; evaluate_batch masks them.
_KERNELS = {
    MapKind.LS_LINE: (_ls_batch, LineDirection),
    MapKind.PC_LINE: (_pc_batch, LineDirection),
    MapKind.LAD_LINE: (_lad_batch, LineDirection),
    MapKind.AUG_MEAN: (_aug_mean_batch, CirclePoint),
    MapKind.DISK_DECISION: (eval_disk_decision, Decision),
    MapKind.RADIAL_OSCILLATOR: (eval_radial_oscillator, ScalarValue),
}


def evaluate_batch(spec: DataMapSpec, inputs) -> BatchOutcome:
    """The map on inputs stacked along the first axis.

    LS, PC and LAD take plane datasets (m, n, 2), AUG_MEAN circle datasets
    as angles (m, n), DISK_DECISION points (m, 2) and RADIAL_OSCILLATOR
    vectors (m, d).
    """
    kernel, feature = _KERNELS[spec.kind]
    with np.errstate(divide="ignore", invalid="ignore"):
        value, gap, reason = kernel(np.asarray(inputs, dtype=float), spec)
    defined = reason == 0
    return BatchOutcome(
        value=np.where(defined, value, np.nan),
        gap=np.where(defined, gap, 0.0),
        reason=reason.astype(np.int8),
        feature=feature,
    )


def as_map_input(x) -> np.ndarray:
    """One input as evaluate_batch takes it per row: a plane dataset's
    points, a circle dataset's angles, a vector as it is."""
    if isinstance(x, PlaneDataset):
        return x.points
    if isinstance(x, CircleDataset):
        return x.angles
    return np.asarray(x, dtype=float)


def evaluate(spec: DataMapSpec, x) -> EvalOutcome:
    """The map on one input: the one-row case of ``evaluate_batch``."""
    return evaluate_batch(spec, as_map_input(x)[None]).outcome(0)
