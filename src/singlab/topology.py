"""Winding numbers of feature-valued maps along loops, and degree-certified
recursive localization of singularities.

A nonzero degree of the feature map along a loop obstructs any continuous
extension to the region the loop bounds, so it certifies a singularity
inside.  Degrees are computed by a continuous angle lift over loop samples;
an edge whose endpoint features are further apart than a quarter period is
bisected until the short-arc condition holds, and the tool reports
INCONCLUSIVE rather than an uncertifiable integer.  Loops are evaluated in
batches: all samples at once, then the midpoints of one bisection depth at
a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from singlab.datamaps import REASON_CODES, BatchOutcome, _pointwise
from singlab.geometry import CircleDataset, ContractViolation

# An edge certifies short when its endpoint features are less than this
# share of a period apart, so the short way between them is the lift step.
STEP_FRACTION = 0.25
# Bisections per loop edge before the degree is declared inconclusive.
MAX_REFINE = 24


class LoopHitsSingularityError(RuntimeError):
    """A loop sample evaluated Undefined: the loop is not disjoint from S."""


class InconclusiveDegreeError(RuntimeError):
    """The refinement budget ran out before every step certified short."""


class UnsupportedFeatureError(TypeError):
    """The feature variant carries no winding (decisions, scalars)."""


@dataclass(frozen=True, eq=False)
class Loop:
    """Closed polygonal loop of >= 3 samples; closure is implied, the first
    sample is never duplicated at the end.

    The samples are stacked in one array: vectors (m, d), or the points
    (m, n, 2) of datasets of class ``sample_type``.  A sequence of vectors
    or of datasets of one class is stacked on construction.
    """

    points: np.ndarray
    sample_type: type | None = None

    def __post_init__(self):
        points, sample_type = self.points, self.sample_type
        if not isinstance(points, np.ndarray):
            points = list(points)
            if points and hasattr(points[0], "points"):
                sample_type = type(points[0])
                points = [s.points for s in points]
        points = np.array(points, dtype=float)
        if points.ndim < 2 or len(points) < 3:
            raise ContractViolation("a loop needs at least 3 samples")
        steps = (points != np.roll(points, -1, axis=0)).reshape(len(points), -1)
        if not steps.any(axis=1).all():
            raise ContractViolation("consecutive loop samples must be distinct")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "sample_type", sample_type)

    @property
    def samples(self) -> tuple:
        """The samples, as vectors or as ``sample_type`` datasets."""
        if self.sample_type is None:
            return tuple(self.points)
        return tuple(self.sample_type(p) for p in self.points)

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class WindingReport:
    """Certified degree of a feature-valued map along a loop.

    degree counts half turns for line directions and full turns for circle
    points.  min_gap is the smallest singularity gap seen at any sample, and
    max_depth the deepest bisection level used (0 when no edge was bisected).
    """

    degree: int
    samples_used: int
    min_gap: float
    refined: bool
    max_depth: int = 0


def _wrap_increments(delta: np.ndarray, period: float) -> np.ndarray:
    """Reduce angle increments into (-period/2, period/2]."""
    delta = np.fmod(delta, period)
    delta = np.where(delta > 0.5 * period, delta - period, delta)
    return np.where(delta <= -0.5 * period, delta + period, delta)


def midpoint_interpolate(p: np.ndarray, q: np.ndarray, sample_type: type | None = None) -> np.ndarray:
    """Edge bisection of stacked samples: pointwise affine midpoints.

    Works for vectors and plane datasets; circle datasets are bisected
    along per-point geodesics.
    """
    mid = 0.5 * (p + q)
    if sample_type is CircleDataset:
        norms = np.linalg.norm(mid, axis=-1, keepdims=True)
        if np.any(norms < 1e-9):
            raise ContractViolation("cannot bisect between antipodal circle points")
        return mid / norms
    return mid


def winding_number(loop: Loop, evaluate_fn) -> WindingReport:
    """Degree of a feature-valued map along a closed loop.

    evaluate_fn is a BatchMap over the loop's stacked samples, or a callable
    mapping one sample to an EvalOutcome, which is then called sample by
    sample.  Every evaluated point must be Defined.  An edge whose endpoint
    features are at least STEP_FRACTION of a period apart is bisected by
    ``midpoint_interpolate`` up to MAX_REFINE times before the computation
    is declared inconclusive.

    The bisection runs level by level: one evaluation for all loop samples,
    then one per depth for the midpoints of every edge not yet short.  It
    evaluates exactly the points a depth-first bisection would, so a
    certified degree, samples_used, refined and max_depth do not depend on
    the order.  On a loop that fails, the order decides the error: an
    Undefined midpoint at any depth raises LoopHitsSingularityError before an
    edge that reaches depth MAX_REFINE raises InconclusiveDegreeError.
    """
    evaluate_fn = _pointwise(evaluate_fn, loop.sample_type)
    samples_used = 0
    min_gap = math.inf

    def evaluate(points: np.ndarray) -> BatchOutcome:
        nonlocal samples_used, min_gap
        outcome = evaluate_fn(points)
        undefined = np.flatnonzero(outcome.reason)
        if undefined.size:
            reason = REASON_CODES[outcome.reason[undefined[0]]]
            raise LoopHitsSingularityError(f"loop sample evaluated Undefined ({reason.value})")
        samples_used += len(points)
        min_gap = min(min_gap, float(np.min(outcome.gap)))
        return outcome

    outcome = evaluate(loop.points)
    period = outcome.period
    if period is None:
        raise UnsupportedFeatureError(f"{outcome.feature.__name__} features carry no winding number")
    threshold = STEP_FRACTION * period
    # the open edges: endpoints p_a -> p_b with their feature angles
    p_a, a = loop.points, outcome.value
    p_b, b = np.roll(p_a, -1, axis=0), np.roll(a, -1)
    total = 0.0
    depth = 0
    while True:
        d = np.abs(b - a) % period
        short = np.minimum(d, period - d) < threshold
        total += float(np.sum(_wrap_increments(b[short] - a[short], period)))
        if short.all():
            break
        if depth >= MAX_REFINE:
            raise InconclusiveDegreeError(
                f"edge not short-arc after {MAX_REFINE} bisections"
            )
        split = ~short
        p_a, a, p_b, b = p_a[split], a[split], p_b[split], b[split]
        p_m = midpoint_interpolate(p_a, p_b, loop.sample_type)
        m = evaluate(p_m).value
        depth += 1
        p_a, a, p_b, b = (np.concatenate(pair) for pair in ((p_a, p_m), (a, m), (p_m, p_b), (m, b)))

    degree = round(total / period)
    if abs(total - degree * period) > 1e-6 * period:
        raise InconclusiveDegreeError(
            f"lift residual {abs(total - degree * period):.3e} exceeds tolerance"
        )
    return WindingReport(
        degree=int(degree),
        samples_used=samples_used,
        min_gap=min_gap,
        refined=depth > 0,
        max_depth=depth,
    )


@dataclass(frozen=True)
class LocalizerBox:
    """A region certified (or flagged) by the subdivision localizer.

    status "certified" means the boundary winding is the stated nonzero
    degree with every lift step certified short; "inconclusive" marks boxes
    whose subdivision could not be completed soundly.  A root box whose own
    boundary degree cannot be certified is inconclusive with degree None.
    """

    center: tuple[float, float]
    half_width: float
    boundary_degree: int | None
    depth: int
    status: str = "certified"

    def to_dict(self) -> dict:
        return {
            "center": [self.center[0], self.center[1]],
            "half_width": self.half_width,
            "degree": self.boundary_degree,
            "depth": self.depth,
            "status": self.status,
        }


def rectangle_loop(center, half_widths, samples_per_edge: int) -> Loop:
    """Counterclockwise samples along the boundary of an axis-aligned box."""
    cx, cy = center
    hx, hy = half_widths
    corners = np.array(
        [(cx - hx, cy - hy), (cx + hx, cy - hy), (cx + hx, cy + hy), (cx - hx, cy + hy)],
        dtype=float,
    )
    edges = np.roll(corners, -1, axis=0) - corners
    t = (np.arange(samples_per_edge) / samples_per_edge)[None, :, None]
    return Loop((corners[:, None, :] + t * edges[:, None, :]).reshape(-1, 2))


# Deterministic jitter ladder for subdivision cross-hairs, as fractions of
# the cell half-width (kept within 10% of the cell size).
_JITTERS = (
    (0.0, 0.0),
    (0.061, 0.043),
    (-0.067, 0.029),
    (0.031, -0.071),
    (-0.047, -0.053),
    (0.083, -0.017),
    (-0.019, 0.089),
)


def localize_singularities(
    outcome_fn,
    center,
    half_width: float,
    eps: float,
    *,
    samples_per_edge: int = 32,
) -> list[LocalizerBox]:
    """Recursive quadtree localization of degree-carrying singularities.

    outcome_fn is a BatchMap over slice parameters (k, 2), such as
    ``slices.slice_map``, or a callable u -> EvalOutcome (evaluated point by
    point, so slower).

    The region square is subdivided while its boundary winding is nonzero;
    children with zero degree are dropped, and boxes reaching half_width <=
    eps are emitted as certified.  Degree additivity (children summing to the
    parent) is checked at every completed split; a violation, like jitter
    exhaustion when a cut line keeps hitting the singular set, demotes the
    box to INCONCLUSIVE instead of ever reporting an uncertified degree.
    """
    if eps <= 0:
        raise ContractViolation("eps must be positive")

    def boundary_degree(c, h):
        loop = rectangle_loop(c, h, samples_per_edge)
        return winding_number(loop, outcome_fn).degree

    boxes: list[LocalizerBox] = []

    def recurse(c, h, degree, depth):
        hw = max(h)
        if hw <= eps:
            boxes.append(
                LocalizerBox(
                    center=(float(c[0]), float(c[1])),
                    half_width=float(hw),
                    boundary_degree=degree,
                    depth=depth,
                    status="certified",
                )
            )
            return
        for jx, jy in _JITTERS:
            split = (c[0] + jx * h[0], c[1] + jy * h[1])
            lo = (c[0] - h[0], c[1] - h[1])
            hi = (c[0] + h[0], c[1] + h[1])
            children = []
            for x0, x1 in ((lo[0], split[0]), (split[0], hi[0])):
                for y0, y1 in ((lo[1], split[1]), (split[1], hi[1])):
                    cc = (0.5 * (x0 + x1), 0.5 * (y0 + y1))
                    ch = (0.5 * (x1 - x0), 0.5 * (y1 - y0))
                    children.append((cc, ch))
            try:
                child_degrees = [boundary_degree(cc, ch) for cc, ch in children]
            except (LoopHitsSingularityError, InconclusiveDegreeError):
                continue  # cut line hit S or an edge refused to certify: jitter
            if sum(child_degrees) != degree:
                break  # additivity violated: the parent certificate is unsound
            for (cc, ch), d in zip(children, child_degrees):
                if d != 0:
                    recurse(cc, ch, d, depth + 1)
            return
        boxes.append(
            LocalizerBox(
                center=(float(c[0]), float(c[1])),
                half_width=float(max(h)),
                boundary_degree=degree,
                depth=depth,
                status="inconclusive",
            )
        )

    c0 = (float(center[0]), float(center[1]))
    h0 = (float(half_width), float(half_width))
    try:
        root_degree = boundary_degree(c0, h0)
    except (LoopHitsSingularityError, InconclusiveDegreeError):
        return [LocalizerBox(center=c0, half_width=h0[0], boundary_degree=None, depth=0,
                             status="inconclusive")]
    if root_degree == 0:
        return []
    recurse(c0, h0, root_degree, 0)
    return boxes
