"""Winding numbers and the subdivision localizer."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from singlab.datamaps import (
    BatchOutcome,
    DataMapSpec,
    MapKind,
    UndefinedReason,
    evaluate_batch,
    standard_batch,
)
from singlab.geometry import (
    ContractViolation,
    PlaneDataset,
    angle_distance,
    reduce_mod_pi,
    wrap_increments,
)
from singlab.slices import SliceSpec, boundary_loop, slice_map
from singlab.topology import (
    MAX_REFINE,
    STEP_FRACTION,
    _JITTERS,
    InconclusiveDegreeError,
    LocalizerBox,
    Loop,
    LoopHitsSingularityError,
    UnsupportedFeatureError,
    WindingReport,
    localize_singularities,
    rectangle_loop,
    winding_number,
    _lift,
)

from oracles import PC, SLICE, fitter_on_slice, half_angle_map, origin_batch


def circle_loop(center, radius, m):
    return Loop(
        tuple(
            np.asarray(center) + radius * np.array([math.cos(t), math.sin(t)])
            for t in np.linspace(0, 2 * math.pi, m, endpoint=False)
        )
    )


def constant_map(theta):
    """Every point mapped to the line direction theta, gap 1."""
    return lambda us: origin_batch(np.full(len(us), theta), np.ones(len(us)), np.zeros(len(us), dtype=bool))


def identity_circle_map(us):
    """u -> the circle point u / |u|, gap |u|: degree 1."""
    r = np.linalg.norm(us, axis=1)
    return origin_batch(np.arctan2(us[:, 1], us[:, 0]), r, r == 0.0, 2.0 * math.pi)


# ---------------------------------------------------------------------------
# Winding numbers
# ---------------------------------------------------------------------------

def test_boundary_sigma_winding_is_two():
    report = winding_number(boundary_loop(SLICE, 64), standard_batch)
    assert report.degree == 2
    assert report.min_gap > 0
    assert not report.refined
    assert report.max_depth == 0


def test_constant_loop_degree_zero():
    loop = circle_loop((0, 0), 1.0, 16)
    assert winding_number(loop, constant_map(0.7)).degree == 0


def test_circle_identity_degree_one():
    loop = circle_loop((0, 0), 1.0, 16)
    assert winding_number(loop, identity_circle_map).degree == 1


def test_half_angle_degrees():
    loop = circle_loop((0.02, -0.01), 1.0, 128)
    for k in (-2, -1, 1, 2, 3):
        assert winding_number(loop, half_angle_map(k)).degree == k


def test_refinement_kicks_in_on_coarse_loops():
    # 5 samples of a degree-2 map step 2*pi/5 in the lift, beyond the
    # quarter-period condition, so edges must be bisected
    loop = circle_loop((0, 0), 1.0, 5)
    report = winding_number(loop, half_angle_map(2))
    assert report.degree == 2
    assert report.refined
    assert report.samples_used > 5
    assert report.max_depth >= 1


def test_loop_not_enclosing_singularity_is_zero():
    loop = circle_loop((2.0, 0.5), 0.5, 64)
    assert winding_number(loop, half_angle_map(1)).degree == 0


def test_loop_hits_singularity():
    loop = Loop((np.array([0.0, 0.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])))
    with pytest.raises(LoopHitsSingularityError):
        winding_number(loop, half_angle_map(1))


def test_inconclusive_on_genuine_jump():
    # a map with a large jump discontinuity across the x axis can never
    # certify the step condition, no matter how deep the bisection
    def jumpy(us):
        return origin_batch(np.where(us[:, 1] >= 0, 1.2, 0.0), np.ones(len(us)), np.zeros(len(us), dtype=bool))

    with pytest.raises(InconclusiveDegreeError):
        winding_number(circle_loop((0, 0), 1.0, 16), jumpy)


def test_decision_features_unsupported():
    spec = DataMapSpec(kind=MapKind.DISK_DECISION, radius=0.5)
    loop = circle_loop((0, 0), 0.9, 16)
    disk = lambda us: evaluate_batch(spec, us)
    with pytest.raises(UnsupportedFeatureError, match="^the map's features have no period, so no winding number$"):
        winding_number(loop, disk)
    # r = 0 features are outside the degree machinery in the localizer too
    with pytest.raises(UnsupportedFeatureError):
        localize_singularities(disk, (0, 0), 0.9, 0.1)


def test_pointwise_callable_is_refused():
    # a callable mapping one point to its (value, gap, reason) is not a
    # map: the certifiers say which return type they expect
    pointwise = lambda u: (0.7, 1.0, 0)
    with pytest.raises(ContractViolation, match="must return a BatchOutcome .* got tuple"):
        winding_number(circle_loop((0, 0), 1.0, 16), pointwise)
    with pytest.raises(ContractViolation, match="must return a BatchOutcome .* got tuple"):
        localize_singularities(pointwise, (0, 0), 0.9, 0.1)


def test_degree_additivity_random_subdivisions():
    # parent degree equals the sum of the four child degrees for smooth
    # synthetic maps, across 100 random subdivisions
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 100:
        k = int(rng.integers(-2, 4))
        if k == 0:
            continue
        sing = rng.uniform(-0.3, 0.3, 2)
        fn = half_angle_map(k, singularity=sing)
        cx, cy = rng.uniform(-0.2, 0.2, 2)
        h = rng.uniform(0.6, 1.0)
        split = (cx + rng.uniform(-0.1, 0.1) * h, cy + rng.uniform(-0.1, 0.1) * h)

        def box_degree(c0, c1, hx, hy):
            loop = rectangle_loop((c0, c1), (hx, hy), 24)
            return winding_number(loop, fn).degree

        try:
            parent = box_degree(cx, cy, h, h)
            children = []
            for x0, x1 in ((cx - h, split[0]), (split[0], cx + h)):
                for y0, y1 in ((cy - h, split[1]), (split[1], cy + h)):
                    children.append(
                        box_degree(0.5 * (x0 + x1), 0.5 * (y0 + y1), 0.5 * (x1 - x0), 0.5 * (y1 - y0))
                    )
        except LoopHitsSingularityError:
            continue  # a cut line grazed the singular point: resample
        assert parent == sum(children)
        checked += 1


def test_homotopy_invariance_under_jitter():
    rng = np.random.default_rng(32)
    fn = half_angle_map(2)
    base = circle_loop((0, 0), 0.8, 96)
    d0 = winding_number(base, fn).degree
    for _ in range(10):
        jittered = Loop(tuple(p + rng.standard_normal(2) * 1e-4 for p in base.points))
        assert winding_number(jittered, fn).degree == d0


# ---------------------------------------------------------------------------
# Localizer
# ---------------------------------------------------------------------------

def test_localizer_soundness_synthetic():
    # every emitted box for the half-angle map contains its singular point
    for sing in ((0.0, 0.0), (0.21, -0.13)):
        fn = half_angle_map(1, singularity=sing)
        boxes = localize_singularities(fn, (0.05, 0.05), 1.0, 1e-3)
        assert boxes
        for box in boxes:
            assert box.status == "certified"
            assert abs(box.center[0] - sing[0]) <= box.half_width + 1e-12
            assert abs(box.center[1] - sing[1]) <= box.half_width + 1e-12


def test_localizer_circle_valued():
    boxes = localize_singularities(identity_circle_map, (0.0, 0.0), 0.7, 1e-2)
    assert len(boxes) == 1
    assert boxes[0].status == "certified"
    assert np.linalg.norm(boxes[0].center) <= boxes[0].half_width * math.sqrt(2)


def test_localizer_root_box_failure_is_inconclusive():
    # the root boundary passes through the singular point at the origin, so
    # its degree is uncertifiable: one inconclusive root box, no degree
    boxes = localize_singularities(half_angle_map(1), (0.5, 0.0), 0.5, 1e-2)
    assert boxes == [LocalizerBox(center=(0.5, 0.0), half_width=0.5, degree=None,
                                  depth=0, status="inconclusive")]
    assert asdict(boxes[0])["degree"] is None


@pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan])
def test_localizer_refuses_eps_that_is_not_positive(eps):
    with pytest.raises(ContractViolation, match="eps must be finite and positive"):
        localize_singularities(identity_circle_map, (0.0, 0.0), 0.7, eps)


@pytest.mark.parametrize("center, half_width", [
    ((0.0, 0.0), math.inf), ((0.0, 0.0), math.nan), ((0.0, 0.0), -0.5), ((0.0, 0.0), 0.0),
    ((math.nan, 0.0), 0.9), ((0.0, math.inf), 0.9), ((0.0, 0.0, 5.0), 0.9), ((0.0,), 0.9),
])
def test_localizer_refuses_bad_root_box(center, half_width):
    # refused before any loop is built: unchecked, an infinite half-width
    # warns in _rectangle_points, a zero one fails the loop check, a
    # negative one comes back certified with its negative half-width, a
    # third coordinate is dropped and a one-coordinate centre raises IndexError;
    # each refusal names the one parameter at fault
    fn = fitter_on_slice(MapKind.PC_LINE)
    bad_center = len(center) != 2 or not all(map(math.isfinite, center))
    with pytest.raises(ContractViolation) as raised:
        localize_singularities(fn, center, half_width, 1e-2)
    assert type(raised.value) is ContractViolation and str(raised.value) == (
        "center must be a finite 2-vector" if bad_center else "half_width must be finite and positive")


_NOT_POSITIVE = "half_widths must be finite and positive"
_NOT_TWO = "half_widths must be a finite 2-vector"
_BAD_CENTER = "center must be a finite 2-vector"


@pytest.mark.parametrize("center, half_widths, message", [
    pytest.param((0.0, 0.0), (-0.5, 0.5), _NOT_POSITIVE, id="negative"),
    pytest.param((0.0, 0.0), (0.5, 0.0), _NOT_POSITIVE, id="zero"),
    pytest.param((0.0, 0.0), (math.inf, 0.5), _NOT_TWO, id="inf"),
    pytest.param((0.0, 0.0), (0.5, math.nan), _NOT_TWO, id="nan"),
    pytest.param((0.0, 0.0), (0.5,), _NOT_TWO, id="one-width"),
    pytest.param((0.0, 0.0), (0.5, 0.5, 0.5), _NOT_TWO, id="three-widths"),
    pytest.param((math.nan, 0.0), (0.5, 0.5), _BAD_CENTER, id="center-nan"),
    pytest.param((0.0, -math.inf), (0.5, 0.5), _BAD_CENTER, id="center-inf"),
    pytest.param((0.0, 0.0, 0.0), (0.5, 0.5), _BAD_CENTER, id="center-3d"),
])
def test_rectangle_loop_refuses_bad_box(center, half_widths, message):
    # unchecked, a negative half-width ran the loop clockwise, so a map of
    # degree 1 read -1 around it, and an infinite one warned in the corners
    with pytest.raises(ContractViolation) as raised:
        rectangle_loop(center, half_widths, 8)
    assert type(raised.value) is ContractViolation and str(raised.value) == message


def test_localizer_pc_finds_both_ties():
    # the standard slice has exactly two PC eigenvalue ties: the center and
    # u* = ((3 - sqrt(3)) / 2) * (-1/2, sqrt(3)/2)
    boxes = localize_singularities(fitter_on_slice(MapKind.PC_LINE), (0.0, 0.0), 0.9, 1e-3)
    certified = [b for b in boxes if b.status == "certified"]
    assert len(certified) == 2
    t = (3 - math.sqrt(3)) / 2
    u_star = np.array([-0.5 * t, math.sqrt(3) / 2 * t])
    centers = sorted(certified, key=lambda b: np.linalg.norm(b.center))
    assert np.linalg.norm(centers[0].center) < 1e-2
    assert np.linalg.norm(np.asarray(centers[1].center) - u_star) < 1e-2


def test_localizer_singularity_free_zone_is_empty():
    # LS over a sub-square with S_xx bounded below: dense sampling oracle
    # confirms the gap floor, localizer returns no boxes
    fn = fitter_on_slice(MapKind.LS_LINE)
    center, hw = (0.45, 0.0), 0.2
    xs, ys = np.meshgrid(np.linspace(center[0] - hw, center[0] + hw, 40),
                         np.linspace(center[1] - hw, center[1] + hw, 40))
    assert fn(np.stack([xs.ravel(), ys.ravel()], axis=1)).gap.min() > 0.05
    assert localize_singularities(fn, center, hw, 1e-2) == []


def test_theorem_level_check_every_fitter():
    # nonzero boundary winding forces the localizer to emit at least one box
    # (certified or inconclusive) for every fitter on the standard slice
    shrink = 1 - 1e-3
    for kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE):
        fn = fitter_on_slice(kind)
        loop = Loop(
            tuple(
                shrink * np.array([math.cos(t), math.sin(t)])
                for t in np.linspace(0, 2 * math.pi, 512, endpoint=False)
            )
        )
        assert winding_number(loop, fn).degree == 2
        boxes = localize_singularities(fn, (0.0, 0.0), 0.9, 1e-3)
        assert len(boxes) >= 1


def test_localizer_never_reports_uncertified_degree():
    # LS has no interior singularities on the slice: any nonzero sampled
    # degree must be demoted to inconclusive rather than refined into a
    # certified chain
    boxes = localize_singularities(fitter_on_slice(MapKind.LS_LINE), (0.0, 0.0), 0.9, 1e-3)
    assert all(b.status == "inconclusive" for b in boxes)


def test_loop_and_report_types():
    with pytest.raises(ContractViolation):
        Loop((np.zeros(2), np.ones(2)))
    # a non-finite sample would never step short, so every edge would be
    # bisected MAX_REFINE times: the loop is refused before any lift
    for bad in (math.inf, math.nan):
        with pytest.raises(ContractViolation, match="finite"):
            Loop((np.zeros(2), np.ones(2), np.array([bad, 0.0])))
    box = LocalizerBox(center=(0.0, 0.0), half_width=0.1, degree=1, depth=3)
    d = asdict(box)
    assert d["degree"] == 1 and d["status"] == "certified"
    r = WindingReport(degree=2, samples_used=10, min_gap=0.5, refined=False)
    assert r.degree == 2


# ---------------------------------------------------------------------------
# Multi-loop lift and the batched localizer
# ---------------------------------------------------------------------------

T_STAR = (3 - math.sqrt(3)) / 2
U_STAR = (-0.5 * T_STAR, math.sqrt(3) / 2 * T_STAR)
# a point of S for each slice map: the PC tie at the center, and the
# vertical-predictor boundary dataset where LS and LAD are Undefined
SLICE_S = {MapKind.PC_LINE: (0.0, 0.0), MapKind.LS_LINE: (0.0, 1.0), MapKind.LAD_LINE: (0.0, 1.0)}


def reference_winding(loop, fn):
    """One loop lifted on its own, level by level, as the certifier did
    before loops were batched: the report, or the error it raises."""
    samples_used, min_gap = 0, math.inf

    def evaluate(points):
        nonlocal samples_used, min_gap
        outcome = fn(points)
        undefined = np.flatnonzero(outcome.reason)
        if undefined.size:
            reason = UndefinedReason(outcome.reason[undefined[0]])
            raise LoopHitsSingularityError(f"loop sample evaluated Undefined ({reason.name})")
        samples_used += len(points)
        min_gap = min(min_gap, float(np.min(outcome.gap)))
        return outcome

    try:
        outcome = evaluate(loop.points)
        period = outcome.period
        if period is None:
            raise UnsupportedFeatureError("the map's features have no period, so no winding number")
        p_a, a = loop.points, outcome.value
        p_b, b = np.roll(p_a, -1, axis=0), np.roll(a, -1)
        total, depth = 0.0, 0
        while True:
            short = angle_distance(b, a, period) < STEP_FRACTION * period
            total += float(np.sum(wrap_increments(b[short] - a[short], period)))
            if short.all():
                break
            if depth >= MAX_REFINE:
                raise InconclusiveDegreeError(f"edge not short-arc after {MAX_REFINE} bisections")
            split = ~short
            p_a, a, p_b, b = p_a[split], a[split], p_b[split], b[split]
            p_m = 0.5 * (p_a + p_b)
            m = evaluate(p_m).value
            depth += 1
            p_a, a, p_b, b = (np.concatenate(pair) for pair in ((p_a, p_m), (a, m), (p_m, p_b), (m, b)))
    except (LoopHitsSingularityError, InconclusiveDegreeError, UnsupportedFeatureError) as exc:
        return exc
    degree = round(total / period)
    assert abs(total - degree * period) <= 1e-6 * period
    return WindingReport(degree, samples_used, min_gap, depth > 0, depth)


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want


def assert_lift_matches_alone(loops, fn):
    # each loop of the batch against winding_number, and both against the
    # one-loop reference
    points = np.concatenate([loop.points for loop in loops])
    results = _lift(points, [len(loop) for loop in loops], fn)
    assert len(results) == len(loops)
    for loop, got in zip(loops, results):
        want = reference_winding(loop, fn)
        try:
            alone = winding_number(loop, fn)
        except (LoopHitsSingularityError, InconclusiveDegreeError, UnsupportedFeatureError) as exc:
            alone = exc
        assert_same_outcome(alone, want)
        assert_same_outcome(got, want)
    return results


def polygon(points):
    return Loop(np.asarray(points, dtype=float))


@st.composite
def loops_about(draw, s):
    """A loop near the point s of S: a circle, a circle with one sample on
    s (it hits S), a triangle whose first edge crosses s at a third of its
    length (its bisection never lands on s, so where the map jumps at s the
    budget runs out), or the boundary of a box about the slice center."""
    shape = draw(st.sampled_from(("circle", "through", "across", "box")))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    sx, sy = s
    if shape == "box":
        c = draw(st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)))
        hw = draw(st.floats(0.05, 0.6))
        return rectangle_loop(c, (hw, hw), draw(st.integers(1, 8)))
    if shape == "across":
        r = draw(st.floats(0.02, 0.4))
        v = np.array([math.cos(phase), math.sin(phase)])
        w = np.array([-v[1], v[0]])
        return polygon([(sx, sy) - r * v, (sx, sy) + 2 * r * v, (sx, sy) + r * w])
    m = draw(st.integers(3, 24))
    center = np.array([sx, sy]) + draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    radius = draw(st.floats(0.05, 0.9))
    t = phase + 2.0 * math.pi * np.arange(m) / m
    points = center + radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    if shape == "through":
        points[draw(st.integers(0, m - 1))] = (sx, sy)
    return polygon(points)


def one_row_at_a_time(fn):
    """fn called on one row per call, as a pointwise evaluation would, with
    the rows' outcomes stacked back into one BatchOutcome."""

    def rows(inputs):
        outs = [fn(inputs[i:i + 1]) for i in range(len(inputs))]
        return BatchOutcome(*(np.concatenate([getattr(out, name) for out in outs])
                              for name in ("value", "gap", "reason")), period=outs[0].period)

    return rows


def slice_maps(kind):
    fn = fitter_on_slice(kind)
    return {"batch": fn, "pointwise": one_row_at_a_time(fn)}


LIFT_CASES = [
    *((f"half-angle-{k}", half_angle_map(k, singularity=(0.1, -0.2)), (0.1, -0.2)) for k in (-1, 2, 3)),
    *((f"{kind.name}-{form}", fn, SLICE_S[kind])
      for kind in SLICE_S for form, fn in slice_maps(kind).items()),
]


@pytest.mark.parametrize("name, fn, s", LIFT_CASES, ids=[case[0] for case in LIFT_CASES])
def test_multi_loop_lift_matches_winding_number(name, fn, s):
    # lifting loops of mixed lengths together gives each one the report, or
    # the error, it gets alone
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.lists(loops_about(s), min_size=1, max_size=5))
    def check(loops):
        assert_lift_matches_alone(loops, fn)

    check()


def test_multi_loop_lift_outcome_kinds():
    # one batch mixing every outcome: a degree, a refined degree, a sample
    # on S, a jump edge that exhausts MAX_REFINE, and a depth-24 LAD box
    s = (0.1, -0.2)
    loops = [
        circle_loop(s, 0.5, 40),
        circle_loop((0.0, 0.0), 1.0, 3),
        polygon([s, (0.6, 0.1), (-0.3, 0.4), (-0.2, -0.6)]),
        polygon([(-0.2, -0.2), (0.7, -0.2), (0.1, 0.3)]),
    ]
    results = assert_lift_matches_alone(loops, half_angle_map(-1, singularity=s))
    assert [type(r) for r in results] == [WindingReport, WindingReport, LoopHitsSingularityError,
                                          InconclusiveDegreeError]
    assert results[0].degree == -1 and not results[0].refined
    assert results[1].degree == -1 and results[1].refined and results[1].samples_used > 3

    lad = fitter_on_slice(MapKind.LAD_LINE)
    boxes = [rectangle_loop((0.0, 0.0), (hw, hw), 32) for hw in (0.9, 0.5, 0.1)]
    results = assert_lift_matches_alone(boxes, lad)
    assert [type(r) for r in results] == [WindingReport, InconclusiveDegreeError, WindingReport]

    disk = DataMapSpec(kind=MapKind.DISK_DECISION, radius=0.5)
    results = assert_lift_matches_alone(boxes, lambda us: evaluate_batch(disk, us))
    assert all(isinstance(r, UnsupportedFeatureError) for r in results)


def sequential_localize(outcome_fn, center, half_width, eps, samples_per_edge=32):
    """Reference localizer: one child box lifted at a time, and the jitter
    ladder walked one cross-hair at a time."""

    def boundary_degree(c, h):
        return winding_number(rectangle_loop(c, h, samples_per_edge), outcome_fn).degree

    boxes = []

    def recurse(c, h, degree, depth):
        if max(h) <= eps:
            boxes.append(LocalizerBox((float(c[0]), float(c[1])), float(max(h)), degree, depth))
            return
        for jx, jy in _JITTERS:
            split = (c[0] + jx * h[0], c[1] + jy * h[1])
            children = [
                ((0.5 * (x0 + x1), 0.5 * (y0 + y1)), (0.5 * (x1 - x0), 0.5 * (y1 - y0)))
                for x0, x1 in ((c[0] - h[0], split[0]), (split[0], c[0] + h[0]))
                for y0, y1 in ((c[1] - h[1], split[1]), (split[1], c[1] + h[1]))
            ]
            try:
                degrees = [boundary_degree(cc, ch) for cc, ch in children]
            except (LoopHitsSingularityError, InconclusiveDegreeError):
                continue
            if sum(degrees) != degree:
                break
            for (cc, ch), d in zip(children, degrees):
                if d != 0:
                    recurse(cc, ch, d, depth + 1)
            return
        boxes.append(LocalizerBox((float(c[0]), float(c[1])), float(max(h)), degree, depth, "inconclusive"))

    c0, h0 = (float(center[0]), float(center[1])), (float(half_width), float(half_width))
    try:
        root = boundary_degree(c0, h0)
    except (LoopHitsSingularityError, InconclusiveDegreeError):
        return [LocalizerBox(c0, h0[0], None, 0, "inconclusive")]
    if root != 0:
        recurse(c0, h0, root, 0)
    return boxes


def counting_slice_map(kind):
    fn = fitter_on_slice(kind)
    calls = []

    def counted(us):
        calls.append(len(us))
        return fn(us)

    return counted, calls


@pytest.mark.parametrize("kind, eps, bound, rows", [
    # 537 calls with one child lifted at a time, 151 with one bisection
    # depth per call, over 12 352 rows
    (MapKind.LAD_LINE, 1e-3, 37, 2 * 12352),
    # 110 calls with one child lifted at a time, over 17 026 rows
    (MapKind.PC_LINE, 1e-4, 17, 2 * 17026),
], ids=["lad", "pc"])
def test_localizer_lifts_each_split_in_one_batch(kind, eps, bound, rows):
    # the look-ahead saves calls without multiplying the rows evaluated
    fn, calls = counting_slice_map(kind)
    boxes = localize_singularities(fn, (0.0, 0.0), 0.9, eps)
    assert len(calls) <= bound
    assert sum(calls) <= rows
    assert boxes == sequential_localize(fn, (0.0, 0.0), 0.9, eps)


def test_localizer_matches_sequential_reference_on_random_boxes():
    rng = np.random.default_rng(1307)
    for kind in SLICE_S:
        fn = fitter_on_slice(kind)
        for _ in range(4):
            radius, angle = 0.4 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
            center = (radius * math.cos(angle), radius * math.sin(angle))
            hw = float(rng.uniform(0.15, 0.9))
            assert localize_singularities(fn, center, hw, 1e-3) == sequential_localize(fn, center, hw, 1e-3)


def disks_map(disks):
    """Synthetic map u -> the line direction sum_k d_k arg(u - x_k) / 2 for
    disks (x_k, d_k, r_k): Undefined (ORIGIN) on each closed disk of radius
    r_k about x_k, gap the distance to the nearest disk.  The degree of a
    loop off the disks is the sum of the d_k it encloses."""

    def fn(us):
        us = np.asarray(us, dtype=float)
        angle, gap = np.zeros(len(us)), np.full(len(us), np.inf)
        for x, d, r in disks:
            v = us - x
            angle += 0.5 * d * np.arctan2(v[:, 1], v[:, 0])
            gap = np.minimum(gap, np.hypot(v[:, 0], v[:, 1]) - r)
        return origin_batch(reduce_mod_pi(angle), gap, gap <= 0.0)

    return fn


def test_lookahead_rows_bisection_never_reaches_move_no_output():
    # a triangle about a degree-1 point: each edge is split once, and its
    # halves are short.  A degree-0 disk, Undefined but winding nothing,
    # covers the quarter point of the first edge, away from its midpoint and
    # ends: the lift evaluates that point ahead, but bisection never reaches it
    corners = np.array([(math.cos(t), math.sin(t)) for t in np.radians((90.0, 210.0, 330.0))])
    quarter = 0.5 * (corners[0] + 0.5 * (corners[0] + corners[1]))
    fn = disks_map([((0.0, 0.0), 1, 0.0), (tuple(quarter), 0, 0.1)])
    evaluated = []

    def recorded(us):
        evaluated.append(np.array(us))
        return fn(us)

    (report,) = assert_lift_matches_alone([polygon(corners)], recorded)
    assert any((rows == quarter).all(axis=1).any() for rows in evaluated)
    assert fn(quarter[None]).reason[0] == UndefinedReason.ORIGIN
    assert (report.degree, report.samples_used, report.max_depth) == (1, 6, 1)
    assert report.min_gap > 0.0


def test_localizer_returns_depth_first_order_on_an_uneven_tree():
    # every cross-hair of a box hugging the disk meets it, so that branch
    # ends inconclusive at depth 4 while the point singularities go on to
    # depth 7: returned depth-first, the depths do not rise monotonically
    fn = disks_map([((-0.5, 0.4), 1, 0.0), ((0.3, -0.2), -1, 0.03), ((0.43, 0.52), 2, 0.0)])
    boxes = localize_singularities(fn, (0.0, 0.0), 0.9, 1e-2)
    assert boxes == sequential_localize(fn, (0.0, 0.0), 0.9, 1e-2)
    assert [(b.degree, b.depth, b.status) for b in boxes] == [
        (1, 7, "certified"),
        (-1, 4, "inconclusive"),
        (2, 7, "certified"),
    ]


def assume_off(s_points, box, split, margin):
    """Skip boxes whose boundary or cross-hair passes within margin of S."""
    (cx, cy), h = box
    for sx, sy in s_points:
        inside = abs(sx - cx) <= h + margin and abs(sy - cy) <= h + margin
        for coord, lines in ((sx, (cx - h, split[0], cx + h)), (sy, (cy - h, split[1], cy + h))):
            assume(not inside or min(abs(coord - line) for line in lines) > margin)


@st.composite
def cut_boxes(draw):
    center = draw(st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)))
    h = draw(st.floats(0.05, 0.6))
    cut = draw(st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8)))
    return (center, h), (center[0] + cut[0] * h, center[1] + cut[1] * h)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cut_boxes(), st.sampled_from([-2, -1, 1, 2, 3]), st.sampled_from(["pc", "half-angle"]))
@example((((0.0, 0.0), 0.3), (0.1, -0.05)), 1, "pc")
@example((((-0.3, 0.5), 0.1), (-0.32, 0.53)), 1, "pc")
def test_degree_additivity_under_random_cuts(box_and_cut, k, target):
    # a box whose boundary and cut stay off S: the degrees of its four
    # children, lifted in one batch, sum to its own
    box, split = box_and_cut
    if target == "pc":
        fn, s_points = fitter_on_slice(MapKind.PC_LINE), [(0.0, 0.0), U_STAR]
    else:
        fn, s_points = half_angle_map(k, singularity=(0.05, -0.1)), [(0.05, -0.1)]
    assume_off(s_points, box, split, 0.02 * box[1])
    (cx, cy), h = box
    children = [
        ((0.5 * (x0 + x1), 0.5 * (y0 + y1)), (0.5 * (x1 - x0), 0.5 * (y1 - y0)))
        for x0, x1 in ((cx - h, split[0]), (split[0], cx + h))
        for y0, y1 in ((cy - h, split[1]), (split[1], cy + h))
    ]
    loops = [rectangle_loop(c, hw, 32) for c, hw in children]
    results = _lift(np.concatenate([loop.points for loop in loops]), [len(loop) for loop in loops], fn)
    parent = winding_number(rectangle_loop((cx, cy), (h, h), 32), fn)
    assert all(isinstance(r, WindingReport) for r in results)
    assert sum(r.degree for r in results) == parent.degree


# ---------------------------------------------------------------------------
# Closed-form PC oracle on random slices
# ---------------------------------------------------------------------------
#
# With c_k the centred centre points as complex numbers and s_k the centred
# spreads, the centred points of E(u) are (1 - |u|) c_k + s_k zeta, zeta =
# u_1 + i u_2, so the complex moment (S_xx - S_yy) + 2i S_xy is, up to 1/n,
# (1 - |zeta|)^2 q(gamma) with q(gamma) = s2 gamma^2 + 2 beta gamma + alpha
# and gamma = zeta / (1 - |zeta|), an orientation-preserving homeomorphism
# of the open unit disk onto the plane.  PC's direction is arg(q) / 2, so
# its zeros in the disk are zeta = gamma / (1 + |gamma|) over the roots of
# q, each of index +1 in half turns, and the degree of a loop in the open
# disk is the number of zeros it encloses.  Outside the disk the extended
# embedding has other zeros, so every loop here stays inside it.

ORACLE_DISK = 0.98
_SIGNS = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)])


def random_slice(rng):
    n = int(rng.integers(3, 7))
    return SliceSpec(n_points=n, center_config=PlaneDataset(rng.standard_normal((n, 2))),
                     spread=tuple(rng.standard_normal(n)))


def pc_slice_zeros(spec):
    """The zeros (2, 2) of PC on the slice, inside the open unit disk."""
    c = spec.center_config.points @ np.array([1.0, 1.0j])
    c -= c.mean()
    s = np.asarray(spec.spread) - np.mean(spec.spread)
    gammas = np.roots([np.sum(s * s), 2.0 * np.sum(s * c), np.sum(c * c)])
    zetas = gammas / (1.0 + np.abs(gammas))
    return np.stack([zetas.real, zetas.imag], axis=1)


def in_disk(center, half_widths):
    return np.max(np.linalg.norm(center + _SIGNS * half_widths, axis=1)) < ORACLE_DISK


def test_pc_slice_zeros_on_the_standard_slice():
    zeros = pc_slice_zeros(SLICE)
    assert np.allclose(sorted(map(tuple, zeros)), sorted([(0.0, 0.0), U_STAR]), atol=1e-12)


def test_certified_pc_degrees_count_the_enclosed_zeros():
    # seeded slices with n = 3-6 and rectangles inside the disk: uniform
    # centres and log-uniform half widths, plus a 1e-4 square on each zero
    rng = np.random.default_rng(20260901)
    checked, wrong = {}, []
    for _ in range(60):
        spec = random_slice(rng)
        fn, zeros = slice_map(spec, PC), pc_slice_zeros(spec)
        rectangles = [(rng.uniform(-0.9, 0.9, 2), np.exp(rng.uniform(math.log(1e-3), math.log(0.5), 2)))
                      for _ in range(25)]
        rectangles += [(z, np.full(2, 1e-4)) for z in zeros]
        for center, half_widths in rectangles:
            if not in_disk(center, half_widths):
                continue
            try:
                report = winding_number(rectangle_loop(center, half_widths, 16), fn)
            except (LoopHitsSingularityError, InconclusiveDegreeError):
                continue
            enclosed = int(np.sum(np.all(np.abs(zeros - center) < half_widths, axis=1)))
            checked[enclosed] = checked.get(enclosed, 0) + 1
            if report.degree != enclosed:
                wrong.append((spec, center, half_widths, report.degree, enclosed))
    assert not wrong, wrong
    assert checked.get(0, 0) > 500 and checked.get(1, 0) > 60, checked


def test_pc_localizer_boxes_hold_the_closed_form_zeros():
    # every certified box contains a zero, and every zero in the root box
    # lies in a certified or an inconclusive box
    rng = np.random.default_rng(20260902)
    certified = found = 0
    for _ in range(80):
        spec = random_slice(rng)
        zeros = pc_slice_zeros(spec)
        center, half_width = rng.uniform(-0.2, 0.2, 2), rng.uniform(0.3, 0.45)
        assert in_disk(center, half_width)
        boxes = localize_singularities(slice_map(spec, PC), center, half_width, 1e-2)
        for box in boxes:
            if box.status == "certified":
                certified += 1
                assert np.any(np.all(np.abs(zeros - box.center) <= box.half_width, axis=1)), (spec, box)
        for zero in zeros[np.all(np.abs(zeros - center) < half_width, axis=1)]:
            found += 1
            assert any(np.all(np.abs(zero - box.center) <= box.half_width) for box in boxes), (spec, zero)
    assert certified > 25 and found > 25, (certified, found)


@pytest.mark.parametrize("points", [
    pytest.param([(0.0, 0.0), (1.0, 0.0), (1.0, 0.0)], id="equal-neighbours"),
    pytest.param([(0.0, 0.0), (1.0, 0.0), (0.0, 0.0)], id="equal-across-the-closure"),
])
def test_loop_refuses_equal_consecutive_samples_by_name(points):
    with pytest.raises(ContractViolation) as raised:
        Loop(points)
    assert type(raised.value) is ContractViolation and str(raised.value) == "consecutive loop samples must be distinct"
