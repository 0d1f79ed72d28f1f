"""Batch kernels and level-by-level winding against their scalar references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab.datamaps import (
    REASON_CODES,
    BatchMap,
    DataMapSpec,
    EvalOutcome,
    MapKind,
    NotPerfectFitError,
    UndefinedReason,
    dataset_span,
    eval_perfect_fit_standard,
    evaluate,
    evaluate_batch,
    evaluate_with_standard,
    evaluate_with_standard_batch,
    standard_batch,
)
from singlab.geometry import CirclePoint, LineDirection, PlaneDataset, feature_distance
from singlab.slices import SliceSpec, slice_map
from singlab.topology import (
    MAX_REFINE,
    STEP_FRACTION,
    InconclusiveDegreeError,
    Loop,
    LoopHitsSingularityError,
    _angle_of,
    _wrap_increment,
    winding_number,
)

FITTERS = [DataMapSpec(kind=k) for k in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE)]
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

# moderate coordinates: values near the underflow threshold would make
# squared distances vanish, which no kernel is meant to survive
coords = st.floats(-8.0, 8.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)
scales = st.floats(0.1, 4.0)
angles = st.floats(0.0, 2.0 * math.pi)


def _rows(n, draw_points):
    return st.builds(lambda pts: np.asarray(pts, dtype=float).reshape(n, 2),
                     st.lists(draw_points, min_size=2 * n, max_size=2 * n))


@st.composite
def equal_abscissae(draw, n):
    """All points on one vertical line: LS and LAD are undefined."""
    x = draw(coords)
    ys = draw(st.lists(coords, min_size=n, max_size=n))
    return np.array([(x, y) for y in ys])


@st.composite
def regular_polygon(draw, n):
    """A rotated, scaled, shifted regular n-gon: an exact PC eigenvalue tie."""
    phi, s, cx, cy = draw(angles), draw(scales), draw(coords), draw(coords)
    a = phi + 2.0 * math.pi * np.arange(n) / n
    return np.stack([cx + s * np.cos(a), cy + s * np.sin(a)], axis=1)


@st.composite
def lad_tie(draw, n):
    """(0, 0), (1, a), (1, -a) shifted and padded with copies of the first point:
    the lines of slope a and -a tie for the best LAD objective."""
    a, cx, cy = draw(scales), draw(coords), draw(coords)
    pts = [(cx, cy), (cx + 1.0, cy + a), (cx + 1.0, cy - a)]
    return np.array(pts + [(cx, cy)] * (n - 3))


@st.composite
def collinear(draw, n):
    """Points on one line (a perfect fit, up to rounding), vertical lines included."""
    phi = draw(st.sampled_from([math.pi / 2, 0.0]) | angles)
    cx, cy = draw(coords), draw(coords)
    ts = draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n, unique=True))
    return np.array([(cx + 0.01 * t * math.cos(phi), cy + 0.01 * t * math.sin(phi)) for t in ts])


@st.composite
def batches(draw):
    n = draw(st.integers(2, 6))
    kinds = [_rows(n, coords), equal_abscissae(n), collinear(n)]
    if n >= 3:
        kinds += [regular_polygon(n), lad_tie(n)]
    return np.stack(draw(st.lists(st.one_of(kinds), min_size=1, max_size=6)))


def assert_rows_match(batch, outcomes):
    for i, scalar in enumerate(outcomes):
        assert bool(batch.defined[i]) == scalar.defined
        assert REASON_CODES[batch.reason[i]] == scalar.reason
        if scalar.defined:
            angle, period = _angle_of(scalar.feature)
            d = abs(batch.angle[i] - angle) % period
            assert min(d, period - d) <= 1e-12
            assert abs(batch.gap[i] - scalar.gap) <= 1e-12 * max(1.0, scalar.gap)
        else:
            assert batch.gap[i] == 0.0


@PROPERTY
@given(batches())
def test_evaluate_batch_matches_scalar(points):
    for spec in FITTERS:
        outcomes = [evaluate(spec, PlaneDataset(p)) for p in points]
        assert_rows_match(evaluate_batch(spec, points), outcomes)


@PROPERTY
@given(batches())
def test_evaluate_with_standard_batch_matches_scalar(points):
    for spec in FITTERS:
        outcomes = [evaluate_with_standard(spec, PlaneDataset(p)) for p in points]
        assert_rows_match(evaluate_with_standard_batch(spec, points), outcomes)


@PROPERTY
@given(st.integers(2, 6).flatmap(lambda n: st.lists(collinear(n), min_size=1, max_size=6)))
def test_standard_batch_matches_scalar(rows):
    points = np.stack(rows)
    outcomes = [EvalOutcome.of(eval_perfect_fit_standard(PlaneDataset(p)), dataset_span(PlaneDataset(p)))
                for p in points]
    assert_rows_match(standard_batch(points), outcomes)


def test_standard_batch_rejects_non_perfect_fits():
    points = np.array([[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]])
    with pytest.raises(NotPerfectFitError):
        standard_batch(points)


def test_degenerate_examples():
    # the fixed cases the strategies are built around, with their reasons
    cases = [
        ([(1, 0), (1, 1), (1, 2)], MapKind.LS_LINE, UndefinedReason.COLLINEAR_PREDICTOR),
        ([(1, 0), (1, 1), (1, 2)], MapKind.LAD_LINE, UndefinedReason.COLLINEAR_PREDICTOR),
        ([(0, 1), (-math.sqrt(3) / 2, -0.5), (math.sqrt(3) / 2, -0.5)], MapKind.PC_LINE,
         UndefinedReason.EIGENVALUE_TIE),
        ([(0, 0), (1, 1), (1, -1)], MapKind.LAD_LINE, UndefinedReason.OBJECTIVE_TIE),
        ([(0, 0), (1, 1)], MapKind.LAD_LINE, None),
    ]
    for pts, kind, reason in cases:
        batch = evaluate_batch(DataMapSpec(kind=kind), np.array([pts], dtype=float))
        assert REASON_CODES[batch.reason[0]] is reason
        assert batch.outcome(0) == evaluate(DataMapSpec(kind=kind), PlaneDataset(pts))


# ---------------------------------------------------------------------------
# Level-by-level winding against the depth-first recursion it replaces
# ---------------------------------------------------------------------------

def recursive_winding(points, fn):
    """The depth-first bisection: (degree, samples_used, refined, max_depth, min_gap)."""
    state = {"samples": 0, "min_gap": math.inf, "depth": 0}

    def eval_at(p):
        outcome = fn(p)
        if not outcome.defined:
            raise LoopHitsSingularityError(outcome.reason.value)
        state["samples"] += 1
        state["min_gap"] = min(state["min_gap"], outcome.gap)
        return outcome.feature

    features = [eval_at(p) for p in points]
    _, period = _angle_of(features[0])

    def lift_edge(p_a, f_a, p_b, f_b, depth):
        if feature_distance(f_a, f_b) < STEP_FRACTION * period:
            return _wrap_increment(_angle_of(f_b)[0] - _angle_of(f_a)[0], period)
        if depth >= MAX_REFINE:
            raise InconclusiveDegreeError("edge not short-arc")
        state["depth"] = max(state["depth"], depth + 1)
        p_m = 0.5 * (p_a + p_b)
        f_m = eval_at(p_m)
        return lift_edge(p_a, f_a, p_m, f_m, depth + 1) + lift_edge(p_m, f_m, p_b, f_b, depth + 1)

    m = len(points)
    total = sum(lift_edge(points[i], features[i], points[(i + 1) % m], features[(i + 1) % m], 0)
                for i in range(m))
    degree = round(total / period)
    assert abs(total - degree * period) <= 1e-6 * period
    return degree, state["samples"], state["depth"] > 0, state["depth"], state["min_gap"]


def wobbly_map(k, singularity, wobble, circle_valued):
    """Degree-k map around a singular point, with an angular wobble that
    makes edges need different bisection depths."""
    x0 = np.asarray(singularity, dtype=float)

    def fn(u):
        v = np.asarray(u, dtype=float) - x0
        r = float(np.hypot(v[0], v[1]))
        if r == 0.0:
            return EvalOutcome.undefined(UndefinedReason.ORIGIN)
        t = math.atan2(v[1], v[0])
        phase = k * t + wobble * math.sin(3.0 * t)
        if circle_valued:
            return EvalOutcome.of(CirclePoint((math.cos(phase), math.sin(phase))), r)
        return EvalOutcome.of(LineDirection(0.5 * phase), r)

    return fn


@PROPERTY
@given(
    k=st.integers(-3, 3),
    singularity=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    wobble=st.floats(0.0, 1.5),
    circle_valued=st.booleans(),
    m=st.integers(5, 40),
    radius=st.floats(0.2, 1.5),
)
def test_level_by_level_matches_recursive(k, singularity, wobble, circle_valued, m, radius):
    t = 2.0 * math.pi * np.arange(m) / m
    points = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    fn = wobbly_map(k, singularity, wobble, circle_valued)
    try:
        expected = recursive_winding(list(points), fn)
    except (LoopHitsSingularityError, InconclusiveDegreeError):
        with pytest.raises((LoopHitsSingularityError, InconclusiveDegreeError)):
            winding_number(Loop(points), fn)
        return
    report = winding_number(Loop(points), fn)
    got = (report.degree, report.samples_used, report.refined, report.max_depth, report.min_gap)
    assert got == expected


def test_batch_map_and_pointwise_callable_agree():
    # the batched slice evaluator and a scalar lambda give the same report on
    # a coarse loop near the slice boundary, where every edge is bisected
    slc = SliceSpec()
    t = 2.0 * math.pi * np.arange(7) / 7
    loop = Loop(0.999 * np.stack([np.cos(t), np.sin(t)], axis=1))
    for spec in FITTERS[:2]:
        scalar = winding_number(loop, lambda u: evaluate(spec, slc.dataset_at(u, allow_outside_disk=True)))
        batched = winding_number(loop, slice_map(slc, spec))
        assert isinstance(slice_map(slc, spec), BatchMap)
        assert (batched.degree, batched.samples_used, batched.refined, batched.max_depth) == (
            scalar.degree, scalar.samples_used, scalar.refined, scalar.max_depth)
        assert abs(batched.min_gap - scalar.min_gap) <= 1e-12
