"""Winding numbers of feature-valued maps along loops, and degree-certified
recursive localization of singularities.

A nonzero degree of the feature map along a loop obstructs any continuous
extension to the region the loop bounds, so it certifies a singularity
inside.  Degrees are computed by a continuous angle lift over loop samples;
an edge whose endpoint features are further apart than a quarter period is
bisected until the short-arc condition holds, and the tool reports
INCONCLUSIVE rather than an uncertifiable integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from singlab.datamaps import EvalOutcome
from singlab.geometry import (
    CircleDataset,
    CirclePoint,
    ContractViolation,
    Decision,
    Feature,
    LineDirection,
    PlaneDataset,
    ScalarValue,
    feature_distance,
)


class LoopHitsSingularityError(RuntimeError):
    """A loop sample evaluated Undefined: the loop is not disjoint from S."""


class InconclusiveDegreeError(RuntimeError):
    """The refinement budget ran out before every step certified short."""


class UnsupportedFeatureError(TypeError):
    """The feature variant carries no winding (decisions, scalars)."""


@dataclass(frozen=True)
class Loop:
    """Closed polygonal loop of >= 3 samples; closure is implied, the first
    sample is never duplicated at the end."""

    samples: tuple

    def __post_init__(self):
        samples = tuple(self.samples)
        if len(samples) < 3:
            raise ContractViolation("a loop needs at least 3 samples")
        for a, b in zip(samples, samples[1:] + samples[:1]):
            pa = a.points if hasattr(a, "points") else np.asarray(a)
            pb = b.points if hasattr(b, "points") else np.asarray(b)
            if np.array_equal(pa, pb):
                raise ContractViolation("consecutive loop samples must be distinct")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return len(self.samples)


@dataclass(frozen=True)
class WindingReport:
    """Certified degree of a feature-valued map along a loop.

    degree counts half turns for line directions and full turns for circle
    points.  min_gap is the smallest singularity gap seen at any sample.
    """

    degree: int
    samples_used: int
    min_gap: float
    refined: bool


def _angle_of(feature: Feature) -> tuple[float, float]:
    """(angle, period) of a feature; rejects variants without winding."""
    if isinstance(feature, LineDirection):
        return feature.theta, math.pi
    if isinstance(feature, CirclePoint):
        return feature.angle, 2.0 * math.pi
    raise UnsupportedFeatureError(
        f"{type(feature).__name__} features carry no winding number"
    )


def _wrap_increment(delta: float, period: float) -> float:
    """Reduce an angle increment into (-period/2, period/2]."""
    delta = math.fmod(delta, period)
    if delta > 0.5 * period:
        delta -= period
    elif delta <= -0.5 * period:
        delta += period
    return delta


def midpoint_interpolate(p, q):
    """Default edge bisection: pointwise affine midpoint.

    Works for slice parameters (2-vectors) and plane datasets; circle
    datasets are bisected along per-point geodesics.
    """
    if isinstance(p, PlaneDataset):
        return PlaneDataset(0.5 * (p.points + q.points))
    if isinstance(p, CircleDataset):
        mid = 0.5 * (p.points + q.points)
        norms = np.linalg.norm(mid, axis=1, keepdims=True)
        if np.any(norms < 1e-9):
            raise ContractViolation("cannot bisect between antipodal circle points")
        return CircleDataset(mid / norms)
    return 0.5 * (np.asarray(p, dtype=float) + np.asarray(q, dtype=float))


def _feature_and_gap(value) -> tuple[Feature, float]:
    """Accept either an EvalOutcome or a bare Feature (synthetic maps)."""
    if isinstance(value, EvalOutcome):
        if not value.defined:
            raise LoopHitsSingularityError(
                f"loop sample evaluated Undefined ({value.reason.value})"
            )
        return value.feature, value.gap
    return value, math.inf


def winding_number(
    loop: Loop,
    evaluate_fn,
    *,
    interpolate=None,
    max_refine: int = 24,
    step_fraction: float = 0.25,
) -> WindingReport:
    """Degree of a feature-valued map along a closed loop.

    evaluate_fn maps a loop sample to an EvalOutcome (or a bare Feature).
    Every sample must be Defined; an edge whose endpoint features are at
    least step_fraction * period apart is bisected via ``interpolate`` up to
    ``max_refine`` times before the computation is declared inconclusive.
    """
    if interpolate is None:
        interpolate = midpoint_interpolate

    state = {"samples": 0, "min_gap": math.inf, "refined": False}

    def eval_at(point) -> Feature:
        feature, gap = _feature_and_gap(evaluate_fn(point))
        state["samples"] += 1
        state["min_gap"] = min(state["min_gap"], gap)
        return feature

    points = list(loop.samples)
    features = [eval_at(p) for p in points]
    _, period = _angle_of(features[0])
    threshold = step_fraction * period

    def lift_edge(p_a, f_a, p_b, f_b, depth) -> float:
        if feature_distance(f_a, f_b) < threshold:
            a, _ = _angle_of(f_a)
            b, _ = _angle_of(f_b)
            return _wrap_increment(b - a, period)
        if depth >= max_refine:
            raise InconclusiveDegreeError(
                f"edge not short-arc after {max_refine} bisections"
            )
        state["refined"] = True
        p_m = interpolate(p_a, p_b)
        f_m = eval_at(p_m)
        return lift_edge(p_a, f_a, p_m, f_m, depth + 1) + lift_edge(
            p_m, f_m, p_b, f_b, depth + 1
        )

    total = 0.0
    m = len(points)
    for i in range(m):
        j = (i + 1) % m
        total += lift_edge(points[i], features[i], points[j], features[j], 0)

    degree = round(total / period)
    if abs(total - degree * period) > 1e-6 * period:
        raise InconclusiveDegreeError(
            f"lift residual {abs(total - degree * period):.3e} exceeds tolerance"
        )
    min_gap = state["min_gap"] if math.isfinite(state["min_gap"]) else math.inf
    return WindingReport(
        degree=int(degree),
        samples_used=state["samples"],
        min_gap=min_gap,
        refined=state["refined"],
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
    corners = [
        (cx - hx, cy - hy),
        (cx + hx, cy - hy),
        (cx + hx, cy + hy),
        (cx - hx, cy + hy),
    ]
    pts = []
    for k in range(4):
        a = np.asarray(corners[k], dtype=float)
        b = np.asarray(corners[(k + 1) % 4], dtype=float)
        for t in np.arange(samples_per_edge) / samples_per_edge:
            pts.append(a + t * (b - a))
    return Loop(tuple(pts))


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
    max_refine: int = 24,
    collect_inconclusive: bool = True,
) -> list[LocalizerBox]:
    """Recursive quadtree localization of degree-carrying singularities.

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
        report = winding_number(loop, outcome_fn, max_refine=max_refine)
        return report.degree

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
        if collect_inconclusive:
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
        if not collect_inconclusive:
            return []
        return [LocalizerBox(center=c0, half_width=h0[0], boundary_degree=None, depth=0,
                             status="inconclusive")]
    if root_degree == 0:
        return []
    recurse(c0, h0, root_degree, 0)
    return boxes
