"""The concrete data maps: line fitters, circle location, toy decision rules.

Every map returns an :class:`EvalOutcome` carrying either a feature or a
reason it is undefined, plus a nonnegative ``gap`` that vanishes exactly on
the map's (surrogate) singular surface.  ``evaluate_with_standard`` wraps a
map with the calibration standard: exact perfect fits are answered by the
canonical feature, which extends the fitters continuously through inputs
(vertical lines) the raw formulas cannot represent.
"""

from __future__ import annotations

import enum
import io
import math
from dataclasses import dataclass, field

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
)

PERFECT_FIT_TOL = 1e-10


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


@dataclass(frozen=True)
class DataMapSpec:
    """Which map to run and its parameters.

    AUG_MEAN uses ``weights`` (all positive), ``w0 >= 0`` and the unit
    augmentation point ``aug_point``.  DISK_DECISION uses ``center`` and
    ``radius > 0``.  ``tie_tol`` controls when near-ties count as Undefined.
    """

    kind: MapKind
    tie_tol: float = 1e-12
    weights: tuple[float, ...] | None = None
    w0: float | None = None
    aug_point: tuple[float, float] = (0.0, -1.0)
    center: tuple[float, float] = (0.0, 0.0)
    radius: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", MapKind(self.kind))
        if self.tie_tol < 0:
            raise ContractViolation("tie_tol must be nonnegative")
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
# Least-squares line
# ---------------------------------------------------------------------------

def ls_stats(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Centered second moments (S_xx, S_xy) of a point batch."""
    xc = x - x.mean()
    return float(np.dot(xc, xc)), float(np.dot(xc, y - y.mean()))


def eval_ls_line(dataset: PlaneDataset, spec: DataMapSpec | None = None) -> EvalOutcome:
    """Slope direction of the y-on-x least-squares line.

    gap = sqrt(S_xx): the exact R^{2n} distance to the collinear-predictor
    surface {all abscissae equal}, on which the map is undefined.
    """
    if dataset.n < 2:
        raise ContractViolation("line fitting needs n >= 2")
    s_xx, s_xy = ls_stats(dataset.x, dataset.y)
    if s_xx == 0.0:
        return EvalOutcome.undefined(UndefinedReason.COLLINEAR_PREDICTOR)
    slope = s_xy / s_xx
    return EvalOutcome.of(LineDirection(math.atan(slope)), math.sqrt(s_xx))


# ---------------------------------------------------------------------------
# Principal-component line
# ---------------------------------------------------------------------------

def covariance_2x2(points: np.ndarray) -> np.ndarray:
    """Covariance with 1/n normalization."""
    centered = points - points.mean(axis=0)
    return centered.T @ centered / points.shape[0]


def eval_pc_line(dataset: PlaneDataset, spec: DataMapSpec | None = None) -> EvalOutcome:
    """Leading eigenvector direction of the covariance; gap = eigenvalue gap."""
    if dataset.n < 2:
        raise ContractViolation("line fitting needs n >= 2")
    tie_tol = spec.tie_tol if spec is not None else 1e-12
    c = covariance_2x2(dataset.points)
    a = 0.5 * (c[0, 0] - c[1, 1])
    b = c[0, 1]
    gap = 2.0 * math.hypot(a, b)  # lambda_1 - lambda_2
    if gap <= tie_tol:
        return EvalOutcome.undefined(UndefinedReason.EIGENVALUE_TIE)
    theta = 0.5 * math.atan2(2.0 * b, 2.0 * a)
    return EvalOutcome.of(LineDirection(theta), gap)


# ---------------------------------------------------------------------------
# Least-absolute-deviation line
# ---------------------------------------------------------------------------

def lad_candidates(dataset: PlaneDataset) -> list[tuple[float, float, float]]:
    """All (objective, intercept, slope) for lines through point pairs with
    distinct abscissae, in pair-index order."""
    pts = dataset.points
    out = []
    for i in range(dataset.n):
        for j in range(i + 1, dataset.n):
            dx = pts[j, 0] - pts[i, 0]
            if dx == 0.0:
                continue
            slope = (pts[j, 1] - pts[i, 1]) / dx
            intercept = pts[i, 1] - slope * pts[i, 0]
            obj = float(np.sum(np.abs(pts[:, 1] - intercept - slope * pts[:, 0])))
            out.append((obj, intercept, slope))
    return out


def eval_lad_line(dataset: PlaneDataset, spec: DataMapSpec | None = None) -> EvalOutcome:
    """L1 regression by exact pair enumeration.

    An optimal L1 line passes through two data points, so enumerating every
    pair with distinct abscissae is exact at desk scale.  gap is the margin
    between the two best objectives; a tie only counts as a singularity when
    the tied candidates disagree in direction.
    """
    if dataset.n < 2:
        raise ContractViolation("line fitting needs n >= 2")
    tie_tol = spec.tie_tol if spec is not None else 1e-12
    cands = lad_candidates(dataset)
    if not cands:
        return EvalOutcome.undefined(UndefinedReason.COLLINEAR_PREDICTOR)
    order = sorted(range(len(cands)), key=lambda k: cands[k][0])
    best = cands[order[0]]
    feature = LineDirection(math.atan(best[2]))
    if len(cands) == 1:
        return EvalOutcome.of(feature, 0.0)
    gap = cands[order[1]][0] - best[0]
    if gap <= tie_tol:
        tied_dir = LineDirection(math.atan(cands[order[1]][2]))
        from singlab.geometry import feature_distance

        if feature_distance(feature, tied_dir) > tie_tol:
            return EvalOutcome.undefined(UndefinedReason.OBJECTIVE_TIE)
    return EvalOutcome.of(feature, gap)


# ---------------------------------------------------------------------------
# Augmented directional mean
# ---------------------------------------------------------------------------

def resultant(dataset: CircleDataset, spec: DataMapSpec) -> np.ndarray:
    w = np.asarray(spec.weights, dtype=float)
    if w.shape[0] != dataset.n:
        raise ContractViolation(f"{w.shape[0]} weights for {dataset.n} points")
    return w @ dataset.points + spec.w0 * np.asarray(spec.aug_point)


def eval_augmented_mean(dataset: CircleDataset, spec: DataMapSpec) -> EvalOutcome:
    """Normalized weighted resultant, augmented by a fixed pseudo-observation.

    gap = |resultant|; the map is undefined when the resultant vanishes.
    """
    if dataset.n < 1:
        raise ContractViolation("augmented mean needs n >= 1")
    rho = resultant(dataset, spec)
    norm = float(np.linalg.norm(rho))
    if norm <= spec.tie_tol:
        return EvalOutcome.undefined(UndefinedReason.ZERO_RESULTANT)
    return EvalOutcome.of(CirclePoint(rho / norm), norm)


# ---------------------------------------------------------------------------
# Disk decision rule
# ---------------------------------------------------------------------------

def eval_disk_decision(x, spec: DataMapSpec) -> EvalOutcome:
    """Decide whether x lies strictly inside the disk; gap = |dist - R|.

    Boundary points return Decision(0) with gap 0: the singular set is the
    measure-zero circle itself.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (2,) or not np.all(np.isfinite(x)):
        raise ContractViolation("disk decision input must be a finite 2-vector")
    d = float(np.linalg.norm(x - np.asarray(spec.center)))
    bit = 1 if d < spec.radius else 0
    return EvalOutcome.of(Decision(bit), abs(d - spec.radius))


# ---------------------------------------------------------------------------
# Radial oscillator
# ---------------------------------------------------------------------------

def oscillator_f(t: float) -> float:
    """f(t) = log(-log(t / e)) on (0, 1]; f(1) = 0, increasing as t drops."""
    if not 0.0 < t <= 1.0:
        raise DomainError(f"f is defined on (0, 1], got {t}")
    return math.log(1.0 - math.log(t))


def oscillator_t(n: int) -> float:
    """Branch point t_n = f^{-1}(n) = exp(1 - e^n)."""
    if n < 0:
        raise DomainError("branch index must be nonnegative")
    return math.exp(1.0 - math.exp(float(n)))


def oscillator_g(t: float) -> float:
    """Piecewise value oscillating between 0 and 1 as t drops to 0.

    On [t_{n+1}, t_n) the value is f(t) - n for even n and (n+1) - f(t) for
    odd n; the two formulas agree at every branch point so g is continuous.
    """
    fval = oscillator_f(t)
    n = int(math.floor(fval))
    if n % 2 == 0:
        return fval - n
    return (n + 1) - fval


def oscillator_g_prime_abs(t: float) -> float:
    """|g'(t)| = 1 / (t |log(t/e)|), valid off the branch points."""
    if not 0.0 < t <= 1.0:
        raise DomainError(f"g' is defined on (0, 1], got {t}")
    return 1.0 / (t * (1.0 - math.log(t)))


def eval_radial_oscillator(x, spec: DataMapSpec | None = None) -> EvalOutcome:
    """Scalar feature g(|x|) on the punctured unit ball; gap = |x|."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2 or not np.all(np.isfinite(x)):
        raise ContractViolation("oscillator input must be a finite d-vector, d >= 2")
    r = float(np.linalg.norm(x))
    if r > 1.0 + 1e-12:
        raise DomainError(f"oscillator input must lie in the unit ball, |x| = {r}")
    if r == 0.0:
        return EvalOutcome.undefined(UndefinedReason.ORIGIN)
    return EvalOutcome.of(ScalarValue(oscillator_g(min(r, 1.0))), r)


# ---------------------------------------------------------------------------
# Calibration standard on perfect fits
# ---------------------------------------------------------------------------

def _pairwise_sq_distances(pts: np.ndarray) -> np.ndarray:
    return np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)


def _spanning_line(pts: np.ndarray) -> tuple[float, float, float]:
    """(residual, direction, span) from one pairwise-distance matrix.

    span is the point-set diameter; the spanning line is anchored on the
    most distant pair for numerical robustness.
    """
    d2 = _pairwise_sq_distances(pts)
    i, j = np.unravel_index(np.argmax(d2), d2.shape)
    if d2[i, j] == 0.0:
        return math.inf, 0.0, 0.0
    span = math.sqrt(d2[i, j])
    d = pts[j] - pts[i]
    rel = pts - pts[i]
    # cross-product form: exactly zero for exact scalar multiples, no
    # normalization rounding before the comparison
    cross = rel[:, 0] * d[1] - rel[:, 1] * d[0]
    residual = float(np.max(np.abs(cross)) / span)
    theta = math.atan2(d[1], d[0])
    return residual, theta % math.pi, span


def collinearity_residual(dataset: PlaneDataset) -> tuple[float, float]:
    """(residual, direction) of the best line through the dataset.

    residual is the maximum orthogonal distance from the spanning line; it is
    exactly 0 for exactly collinear points.  direction is the angle (mod pi)
    of the segment between the two most distant points.
    """
    residual, theta, _ = _spanning_line(dataset.points)
    return residual, theta


def is_perfect_line_fit(dataset: PlaneDataset, tol: float = PERFECT_FIT_TOL) -> bool:
    residual, _ = collinearity_residual(dataset)
    return residual <= tol


def eval_perfect_fit_standard(dataset) -> Feature:
    """The canonical feature of a perfect fit (the standard Sigma).

    Plane datasets must span a unique line exactly; circle datasets must have
    all points equal.  Anything else raises NotPerfectFitError.
    """
    if isinstance(dataset, PlaneDataset):
        residual, theta = collinearity_residual(dataset)
        if not residual <= PERFECT_FIT_TOL:
            raise NotPerfectFitError(f"plane dataset is not collinear (residual {residual:.3e})")
        return LineDirection(theta)
    if isinstance(dataset, CircleDataset):
        spread = float(np.max(np.linalg.norm(dataset.points - dataset.points[0], axis=1)))
        if spread > PERFECT_FIT_TOL:
            raise NotPerfectFitError(f"circle dataset points are not coincident (spread {spread:.3e})")
        u = dataset.points[0]
        return CirclePoint(u / np.linalg.norm(u))
    raise ContractViolation(f"no perfect-fit standard for {type(dataset).__name__}")


def dataset_span(dataset) -> float:
    """Diameter of the dataset's point set (distance from degenerate configs)."""
    return float(math.sqrt(np.max(_pairwise_sq_distances(dataset.points))))


def evaluate(spec: DataMapSpec, x) -> EvalOutcome:
    """Dispatch a raw map evaluation."""
    kind = spec.kind
    if kind is MapKind.LS_LINE:
        return eval_ls_line(x, spec)
    if kind is MapKind.PC_LINE:
        return eval_pc_line(x, spec)
    if kind is MapKind.LAD_LINE:
        return eval_lad_line(x, spec)
    if kind is MapKind.AUG_MEAN:
        return eval_augmented_mean(x, spec)
    if kind is MapKind.DISK_DECISION:
        return eval_disk_decision(x, spec)
    if kind is MapKind.RADIAL_OSCILLATOR:
        return eval_radial_oscillator(x, spec)
    raise ContractViolation(f"unknown map kind {kind}")


def evaluate_with_standard(spec: DataMapSpec, x) -> EvalOutcome:
    """Evaluate a map, answering exact perfect fits by the standard.

    This is the unique continuous extension of each fitter through perfect
    fits: in particular it gives the vertical direction on vertical collinear
    data, where the raw LS and LAD formulas are undefined or unrepresentable.
    Off perfect fits it is the raw map.
    """
    if spec.kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE) and isinstance(x, PlaneDataset):
        residual, theta, span = _spanning_line(x.points)
        if residual <= PERFECT_FIT_TOL:
            return EvalOutcome.of(LineDirection(theta), span)
    if spec.kind is MapKind.AUG_MEAN and isinstance(x, CircleDataset):
        spread = float(np.max(np.linalg.norm(x.points - x.points[0], axis=1)))
        if spread <= PERFECT_FIT_TOL:
            return EvalOutcome.of(eval_perfect_fit_standard(x), dataset_span(x) + 1.0)
    return evaluate(spec, x)


# ---------------------------------------------------------------------------
# Batch kernels (used by the Monte-Carlo estimators)
# ---------------------------------------------------------------------------

def ls_gap_batch(points: np.ndarray) -> np.ndarray:
    """sqrt(S_xx) for a batch of datasets, shape (m, n, 2) -> (m,)."""
    x = points[..., 0]
    xc = x - x.mean(axis=1, keepdims=True)
    return np.sqrt(np.sum(xc * xc, axis=1))


def pc_gap_batch(points: np.ndarray) -> np.ndarray:
    """Eigenvalue gap lambda_1 - lambda_2 for a batch, shape (m, n, 2) -> (m,)."""
    centered = points - points.mean(axis=1, keepdims=True)
    n = points.shape[1]
    cxx = np.sum(centered[..., 0] ** 2, axis=1) / n
    cyy = np.sum(centered[..., 1] ** 2, axis=1) / n
    cxy = np.sum(centered[..., 0] * centered[..., 1], axis=1) / n
    return 2.0 * np.hypot(0.5 * (cxx - cyy), cxy)


def lad_gap_batch(points: np.ndarray) -> np.ndarray:
    """Tie-gap (second-best minus best candidate objective) for a batch.

    Rows whose abscissae admit fewer than two candidate pairs get gap 0.
    """
    m, n, _ = points.shape
    objs = []
    x = points[..., 0]
    y = points[..., 1]
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[:, j] - x[:, i]
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = (y[:, j] - y[:, i]) / dx
                intercept = y[:, i] - slope * x[:, i]
                obj = np.sum(np.abs(y - intercept[:, None] - slope[:, None] * x), axis=1)
            obj = np.where(dx == 0.0, np.inf, obj)
            objs.append(obj)
    if len(objs) < 2:
        return np.zeros(m)
    objs = np.stack(objs, axis=1)
    part = np.sort(objs, axis=1)
    gap = part[:, 1] - part[:, 0]
    gap = np.where(np.isfinite(gap), gap, 0.0)
    return gap


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


def aug_mean_gap_batch(angles: np.ndarray, spec: DataMapSpec) -> np.ndarray:
    """|resultant| for a batch of circle datasets given as angles (m, n)."""
    r, _ = aug_mean_resultant(angles, spec)
    return np.hypot(r[..., 0], r[..., 1])


# ---------------------------------------------------------------------------
# Dataset CSV parsing
# ---------------------------------------------------------------------------

def parse_dataset_csv(source, kind: str = "plane"):
    """Parse a dataset from CSV text or a file path: one point per row, x,y.

    A leading ``x,y`` header row is permitted.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = str(source)
        if "\n" not in text and "," not in text:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
    rows = []
    for line_no, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        if line_no == 1 and parts[:2] == ["x", "y"]:
            continue
        if len(parts) != 2:
            raise ContractViolation(f"line {line_no}: expected two columns, got {len(parts)}")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ContractViolation(f"line {line_no}: {exc}") from exc
    if kind == "plane":
        return PlaneDataset(rows)
    if kind == "circle":
        return CircleDataset(rows)
    raise ContractViolation(f"unknown dataset kind {kind!r}")
