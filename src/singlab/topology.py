"""Winding numbers of feature-valued maps along loops, and degree-certified
quadtree localization of singularities.

A nonzero degree of the feature map along a loop obstructs any continuous
extension to the region the loop bounds, so it certifies a singularity
inside.  Degrees are computed by a continuous angle lift over loop samples;
an edge whose endpoint features are further apart than a quarter period is
bisected until the short-arc condition holds, and the tool reports
INCONCLUSIVE rather than an uncertifiable integer.

A map here is any callable from samples stacked on a first axis to their
``BatchOutcome``; a result of another type is refused.  A row's outcome must
not depend on the batch it is evaluated in, and the map may be called on
points of an edge that bisection never visits.  The lift runs level by
level, and one lift serves any number of loops: the samples of every loop
are evaluated in one call, then the affine midpoints of every edge not yet
short, over the loops still alive, one bisection depth at a time.  One call
evaluates the open edges' midpoints several depths ahead, as many as
LOOKAHEAD_ROWS allows, and a point counts only at the depth where bisection
reaches it.  So the lift reports exactly what a depth-first bisection
reports, though it may evaluate points ahead of it: a certified degree,
samples_used, min_gap, refined and max_depth do not depend on the order.
On a loop that fails, the order decides the error: an Undefined midpoint at
any depth raises LoopHitsSingularityError before an edge that reaches depth
MAX_REFINE raises InconclusiveDegreeError.  Each loop keeps its own outcome,
a report or the error it would raise alone: ``winding_number`` is the
one-loop case, and the localizer lifts the boxes of one quadtree depth
together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from singlab.datamaps import UndefinedReason, _batch_outcome
from singlab.geometry import ContractViolation, wrap_increments

# An edge certifies short when its endpoint features are less than this
# share of a period apart, so the short way between them is the lift step.
STEP_FRACTION = 0.25
# Bisections per loop edge before the degree is declared inconclusive.
MAX_REFINE = 24
# Rows of one look-ahead call of the lift: the open edges' subtrees take the
# most depths whose rows fit, and at least one.  A slice evaluation costs
# about 100-150 us per call at 2-64 rows, against about 0.3 us per extra row.
# On `localize --map lad`, budgets of 64, 256, 1 024 and 4 096 rows made 58,
# 37, 28 and 25 kernel calls and took 19.0, 16.6, 17.2 and 26.0 ms, against
# 151 calls and 28.8 ms at one depth per call (min of 40 interleaved runs on
# a 2-vCPU Xeon VM).
LOOKAHEAD_ROWS = 256


class LoopHitsSingularityError(RuntimeError):
    """A loop sample evaluated Undefined: the loop is not disjoint from S."""


class InconclusiveDegreeError(RuntimeError):
    """The refinement budget ran out before every step certified short."""


class UnsupportedFeatureError(TypeError):
    """The feature variant carries no winding (decisions, scalars)."""


def _check_loops(points: np.ndarray) -> None:
    """points (k, m, ...) stacks k closed loops of m samples: each loop needs
    at least 3 finite samples, and consecutive samples must differ."""
    if points.ndim < 3 or points.shape[1] < 3:
        raise ContractViolation("a loop needs at least 3 samples")
    if not np.isfinite(points).all():
        raise ContractViolation("loop samples must be finite")
    steps = (points != np.roll(points, -1, axis=1)).reshape(*points.shape[:2], -1)
    if not steps.any(axis=2).all():
        raise ContractViolation("consecutive loop samples must be distinct")


@dataclass(frozen=True, eq=False)
class Loop:
    """Closed polygonal loop of >= 3 samples; closure is implied, the first
    sample is never duplicated at the end.

    The samples, vectors (m, d) or the points (m, n, 2) of plane datasets,
    are stacked in one array on construction.
    """

    points: np.ndarray

    def __post_init__(self):
        points = np.array(self.points, dtype=float)
        _check_loops(points[None])
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

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


def _lift(points: np.ndarray, lengths, evaluate_fn) -> list:
    """Degrees of several closed loops, stacked one after another in points.

    lengths gives each loop's sample count and evaluate_fn maps stacked
    samples to their BatchOutcome.  The result holds, loop by loop, the
    WindingReport of ``winding_number`` or the error it would raise.  Edges
    keep their per-loop order, so each loop counts the same points at the
    same depths as it would on its own, and raises the same error first;
    the lift residual is checked after the MAX_REFINE budget.  Each loop's
    lift steps are added in edge order; their rounding is far below the
    residual tolerance.

    When the open edges must be split and no evaluated midpoints are left,
    one call evaluates the dyadic subtrees of their next depths, as many as
    ``_lookahead_depths`` allows.  The evaluated points are nodes of flat
    arrays, an edge is a pair of node indices (ia, ib), and its midpoint is
    node ``(ia + ib) >> 1``.  A node counts in samples_used, min_gap and
    the Undefined check only at the depth where bisection reaches it, in
    bisection's edge order, so a node that bisection never reaches moves no
    output.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    n_loops = len(lengths)
    results: list = [None] * n_loops
    alive = np.ones(n_loops, dtype=bool)
    samples_used = lengths.copy()
    min_gap = np.full(n_loops, math.inf)

    def reach(gap: np.ndarray, reason: np.ndarray, owner: np.ndarray) -> None:
        """Takes in the gaps of samples that bisection reached, of the loops
        in owner; a loop with an Undefined sample dies here."""
        np.minimum.at(min_gap, owner, gap)
        undefined = np.flatnonzero(reason)
        if not undefined.size:
            return
        # each loop's first Undefined sample, in its own order
        loops, first = np.unique(owner[undefined], return_index=True)
        for i, k in zip(loops, undefined[first]):
            name = UndefinedReason(reason[k]).name
            results[i] = LoopHitsSingularityError(f"loop sample evaluated Undefined ({name})")
        alive[loops] = False

    owner = np.repeat(np.arange(n_loops), lengths)
    outcome = _batch_outcome(evaluate_fn(points))
    reach(outcome.gap, outcome.reason, owner)
    period = outcome.period
    if period is None:
        error = UnsupportedFeatureError(f"{outcome.feature.__name__} features carry no winding number")
        return [error if ok else r for ok, r in zip(alive, results)]
    threshold = STEP_FRACTION * period
    # the nodes are the loop samples, and the open edges ia -> ib join
    # them, the last sample of each loop closing back to its first
    nodes, value = points, outcome.value
    ia = np.arange(len(points))
    ib = ia + 1
    ends = np.cumsum(lengths)
    ib[ends - 1] = ends - lengths
    total = np.zeros(n_loops)
    depth = ahead = 0  # ahead: depths of the nodes' subtrees not yet bisected
    while True:
        # reach only marks the loops that hit S; their edges go here
        live = alive[owner]
        if not live.all():
            ia, ib, owner = ia[live], ib[live], owner[live]
        # |wrapped step| is the angle distance, bit for bit
        step = wrap_increments(value[ib] - value[ia], period)
        short = np.abs(step) < threshold
        total += np.bincount(owner, np.where(short, step, 0.0), n_loops)
        split = ~short
        open_edges = np.bincount(owner[split], minlength=n_loops)
        for i in np.flatnonzero(alive & (open_edges == 0)):
            results[i] = _report(float(total[i]), period, int(samples_used[i]), float(min_gap[i]), depth)
        alive &= open_edges > 0
        if not alive.any():
            return results
        if depth >= MAX_REFINE:
            for i in np.flatnonzero(alive):
                results[i] = InconclusiveDegreeError(f"edge not short-arc after {MAX_REFINE} bisections")
            return results
        ia, ib, owner = ia[split], ib[split], owner[split]
        if not ahead:
            ahead = _lookahead_depths(len(ia), depth)
            nodes, value, gap, reason = _subtrees(nodes[ia], nodes[ib], value[ia], value[ib], ahead, evaluate_fn)
            ia = np.arange(len(ia)) * ((1 << ahead) + 1)
            ib = ia + (1 << ahead)
        im = (ia + ib) >> 1
        samples_used += open_edges
        reach(gap[im], reason[im], owner)
        depth += 1
        ahead -= 1
        ia, ib = np.concatenate((ia, im)), np.concatenate((im, ib))
        owner = np.concatenate((owner, owner))


def _lookahead_depths(edges: int, depth: int) -> int:
    """The most depths, at least one, whose subtrees of edges open edges
    fit LOOKAHEAD_ROWS rows without passing MAX_REFINE from depth."""
    depths = 1
    while depths < MAX_REFINE - depth and edges * ((2 << depths) - 1) <= LOOKAHEAD_ROWS:
        depths += 1
    return depths


def _subtrees(p_a, p_b, a, b, depths: int, evaluate_fn):
    """The nodes of each edge p_a -> p_b's dyadic subtree of the given depths,
    flat, edge by edge, with their feature values, gaps and reasons: the
    2^depths - 1 interior points, each the affine midpoint of its two
    neighbours a depth up as bisection computes it, evaluated in one call.
    The end nodes carry the values a and b, gap 0 and reason 0."""
    span = 1 << depths
    nodes = np.empty((len(p_a), span + 1, *p_a.shape[1:]))
    nodes[:, 0], nodes[:, span] = p_a, p_b
    h = span >> 1
    while h:
        nodes[:, h::2 * h] = 0.5 * (nodes[:, :-1:2 * h] + nodes[:, 2 * h::2 * h])
        h >>= 1
    outcome = _batch_outcome(evaluate_fn(nodes[:, 1:-1].reshape(-1, *p_a.shape[1:])))
    value = np.empty((len(p_a), span + 1), dtype=np.result_type(a, b, outcome.value))
    gap = np.zeros((len(p_a), span + 1), dtype=outcome.gap.dtype)
    reason = np.zeros((len(p_a), span + 1), dtype=outcome.reason.dtype)
    value[:, 0], value[:, span] = a, b
    value[:, 1:-1] = outcome.value.reshape(len(p_a), -1)
    gap[:, 1:-1] = outcome.gap.reshape(len(p_a), -1)
    reason[:, 1:-1] = outcome.reason.reshape(len(p_a), -1)
    return nodes.reshape(-1, *p_a.shape[1:]), value.ravel(), gap.ravel(), reason.ravel()


def _report(total: float, period: float, samples_used: int, min_gap: float, depth: int):
    """A finished loop's report, or the error of a lift that does not close
    to a whole number of periods."""
    degree = round(total / period)
    if abs(total - degree * period) > 1e-6 * period:
        return InconclusiveDegreeError(f"lift residual {abs(total - degree * period):.3e} exceeds tolerance")
    return WindingReport(
        degree=int(degree),
        samples_used=samples_used,
        min_gap=min_gap,
        refined=depth > 0,
        max_depth=depth,
    )


def winding_number(loop: Loop, evaluate_fn) -> WindingReport:
    """Degree of a feature-valued map along a closed loop.

    evaluate_fn maps the loop's stacked samples, vectors (m, d) or the
    points (m, n, 2) of its datasets, to their BatchOutcome.  Every sample
    and every midpoint that bisection reaches must be Defined.  An edge whose endpoint features are at
    least STEP_FRACTION of a period apart is bisected at its affine midpoint,
    level by level as the module docstring tells, up to MAX_REFINE times
    before the computation is declared inconclusive.
    """
    (result,) = _lift(loop.points, (len(loop),), evaluate_fn)
    if isinstance(result, Exception):
        raise result
    return result


@dataclass(frozen=True)
class LocalizerBox:
    """A region certified (or flagged) by the subdivision localizer.

    status "certified" means the boundary winding is the stated nonzero
    degree with every lift step certified short; "inconclusive" marks boxes
    whose subdivision could not be completed soundly.  A root box whose own
    boundary degree cannot be certified is inconclusive with degree None.
    The fields, as ``dataclasses.asdict`` gives them, are the box's record
    in the localize report.
    """

    center: tuple[float, float]
    half_width: float
    degree: int | None
    depth: int
    status: str = "certified"


_CORNER_SIGNS = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


def _rectangle_points(centers: np.ndarray, half_widths: np.ndarray, samples_per_edge: int) -> np.ndarray:
    """Counterclockwise boundary samples of axis-aligned boxes: centers and
    half_widths (k, 2) -> points (k, 4 * samples_per_edge, 2)."""
    corners = centers[:, None, :] + _CORNER_SIGNS * half_widths[:, None, :]
    edges = corners[:, (1, 2, 3, 0)] - corners
    t = (np.arange(samples_per_edge) / samples_per_edge)[:, None]
    return (corners[:, :, None, :] + t * edges[:, :, None, :]).reshape(len(centers), -1, 2)


def rectangle_loop(center, half_widths, samples_per_edge: int) -> Loop:
    """Counterclockwise samples along the boundary of an axis-aligned box.
    The half-widths must be two finite positive numbers, since a negative
    one would reverse the loop, and the center a finite 2-vector."""
    centers, half_widths = np.array([center], dtype=float), np.array([half_widths], dtype=float)
    if not (centers.shape == half_widths.shape == (1, 2) and np.isfinite(centers).all()
            and ((0 < half_widths) & (half_widths < math.inf)).all()):
        raise ContractViolation("half_widths must be two finite positive numbers, and center a finite 2-vector")
    return Loop(_rectangle_points(centers, half_widths, samples_per_edge)[0])


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


def _quarters(c, h, jitter) -> list:
    """The four children (center, half_widths) of box (c, h) cut at the
    cross-hair shifted by jitter, in the order x-low then x-high, y-low
    then y-high within each."""
    split = (c[0] + jitter[0] * h[0], c[1] + jitter[1] * h[1])
    lo = (c[0] - h[0], c[1] - h[1])
    hi = (c[0] + h[0], c[1] + h[1])
    return [
        ((0.5 * (x0 + x1), 0.5 * (y0 + y1)), (0.5 * (x1 - x0), 0.5 * (y1 - y0)))
        for x0, x1 in ((lo[0], split[0]), (split[0], hi[0]))
        for y0, y1 in ((lo[1], split[1]), (split[1], hi[1]))
    ]


def localize_singularities(
    outcome_fn,
    center,
    half_width: float,
    eps: float,
    *,
    samples_per_edge: int = 32,
) -> list[LocalizerBox]:
    """Quadtree localization of degree-carrying singularities, built one
    depth at a time.

    outcome_fn maps slice parameters (k, 2) to their BatchOutcome, such as
    ``slices.slice_map``.

    The region square is subdivided while its boundary winding is nonzero;
    children with zero degree are dropped, and boxes reaching half_width <=
    eps are emitted as certified.  Degree additivity (children summing to the
    parent) is checked at every completed split; a violation, like jitter
    exhaustion when a cut line keeps hitting the singular set, demotes the
    box to INCONCLUSIVE instead of ever reporting an uncertified degree.

    Each depth takes at most two lifts: the plain cross-hair children of
    every box still splitting, then the six jittered cross-hairs of every
    split whose four children did not all certify, which takes the first
    jitter of ``_JITTERS`` whose four children all certify.  A loop's
    outcome does not depend on the loops lifted with it, so the boxes are
    those of a depth-first walk that lifts one child at a time.  Each box
    carries the path of child indices that led to it, and none is an
    ancestor of another, so sorting by path returns that walk's order.
    """
    if not eps > 0:
        raise ContractViolation("eps must be positive")
    if not (0 < half_width < math.inf and np.shape(center) == (2,) and np.isfinite(center).all()):
        raise ContractViolation("half_width must be finite and positive, and center a finite 2-vector")

    def degrees(boxes) -> list:
        """Each box's (center, half_widths) certified boundary degree, or
        None where its loop hit S or did not certify; other errors raise."""
        if not boxes:
            return []
        centers, half_widths = (np.array(column, dtype=float) for column in zip(*boxes))
        points = _rectangle_points(centers, half_widths, samples_per_edge)
        _check_loops(points)
        results = _lift(points.reshape(-1, 2), [points.shape[1]] * len(boxes), outcome_fn)
        for result in results:
            if not isinstance(result, (WindingReport, LoopHitsSingularityError, InconclusiveDegreeError)):
                raise result
        return [result.degree if isinstance(result, WindingReport) else None for result in results]

    c0 = (float(center[0]), float(center[1]))
    h0 = (float(half_width), float(half_width))
    (root,) = degrees([(c0, h0)])
    if root is None:
        return [LocalizerBox(c0, h0[0], None, 0, "inconclusive")]
    found = []  # (path, box)
    level = [((), c0, h0, root)] if root else []
    while level:
        splits = []
        for path, c, h, degree in level:
            if max(h) <= eps:
                found.append((path, LocalizerBox(c, max(h), degree, len(path))))
            else:
                splits.append((path, c, h, degree))
        # each split's cut: its first cross-hair whose children all certify
        cuts = [None] * len(splits)
        pending = range(len(splits))
        for jitters in (_JITTERS[:1], _JITTERS[1:]):
            tries = [(k, _quarters(*splits[k][1:3], jitter)) for k in pending for jitter in jitters]
            child_degrees = degrees([child for _, children in tries for child in children])
            for i, (k, children) in enumerate(tries):
                if cuts[k] is None and None not in child_degrees[4 * i:4 * i + 4]:
                    cuts[k] = (children, child_degrees[4 * i:4 * i + 4])
            pending = [k for k in pending if cuts[k] is None]
        level = []
        for (path, c, h, degree), cut in zip(splits, cuts):
            if cut is None or sum(cut[1]) != degree:
                # jitters exhausted, or additivity violated: the parent
                # certificate is unsound
                found.append((path, LocalizerBox(c, max(h), degree, len(path), "inconclusive")))
            else:
                level += [(path + (i,), cc, ch, d) for i, ((cc, ch), d) in enumerate(zip(*cut)) if d]
    return [box for _, box in sorted(found, key=lambda item: item[0])]
