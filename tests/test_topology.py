"""Winding numbers and the subdivision localizer."""

import math

import numpy as np
import pytest

from singlab.datamaps import (
    DataMapSpec,
    EvalOutcome,
    MapKind,
    UndefinedReason,
    dataset_span,
    eval_disk_decision,
    eval_perfect_fit_standard,
    evaluate,
)
from singlab.geometry import CirclePoint, ContractViolation, LineDirection
from singlab.slices import SliceSpec, boundary_loop
from singlab.topology import (
    InconclusiveDegreeError,
    LocalizerBox,
    Loop,
    LoopHitsSingularityError,
    UnsupportedFeatureError,
    WindingReport,
    localize_singularities,
    rectangle_loop,
    winding_number,
)

SPEC = SliceSpec()


def circle_loop(center, radius, m):
    return Loop(
        tuple(
            np.asarray(center) + radius * np.array([math.cos(t), math.sin(t)])
            for t in np.linspace(0, 2 * math.pi, m, endpoint=False)
        )
    )


def half_angle_map(k=1, singularity=(0.0, 0.0)):
    """Synthetic map u -> LineDirection(k * arg(u - x0) / 2), degree k."""
    x0 = np.asarray(singularity, dtype=float)

    def fn(u):
        v = np.asarray(u, dtype=float) - x0
        r = float(np.linalg.norm(v))
        if r == 0.0:
            return EvalOutcome.undefined(UndefinedReason.ORIGIN)
        return EvalOutcome.of(LineDirection(0.5 * k * math.atan2(v[1], v[0])), r)

    return fn


def fitter_on_slice(kind):
    spec = DataMapSpec(kind=kind)
    return lambda u: evaluate(spec, SPEC.dataset_at(u, allow_outside_disk=True))


def sigma_outcome(ds):
    return EvalOutcome.of(eval_perfect_fit_standard(ds), dataset_span(ds))


# ---------------------------------------------------------------------------
# Winding numbers
# ---------------------------------------------------------------------------

def test_boundary_sigma_winding_is_two():
    report = winding_number(boundary_loop(SPEC, 64), sigma_outcome)
    assert report.degree == 2
    assert report.min_gap > 0
    assert not report.refined


def test_constant_loop_degree_zero():
    loop = circle_loop((0, 0), 1.0, 16)
    assert winding_number(loop, lambda u: LineDirection(0.7)).degree == 0


def test_circle_identity_degree_one():
    loop = circle_loop((0, 0), 1.0, 16)
    fn = lambda u: CirclePoint(np.asarray(u) / np.linalg.norm(u))
    assert winding_number(loop, fn).degree == 1


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
    def jumpy(u):
        theta = 1.2 if u[1] >= 0 else 0.0
        return EvalOutcome.of(LineDirection(theta), 1.0)

    with pytest.raises(InconclusiveDegreeError):
        winding_number(circle_loop((0, 0), 1.0, 16), jumpy, max_refine=12)


def test_decision_features_unsupported():
    spec = DataMapSpec(kind=MapKind.DISK_DECISION, radius=0.5)
    loop = circle_loop((0, 0), 0.9, 16)
    with pytest.raises(UnsupportedFeatureError):
        winding_number(loop, lambda u: eval_disk_decision(u, spec))
    # r = 0 features are outside the degree machinery in the localizer too
    with pytest.raises(UnsupportedFeatureError):
        localize_singularities(lambda u: eval_disk_decision(u, spec), (0, 0), 0.9, 0.1)


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
        jittered = Loop(tuple(p + rng.standard_normal(2) * 1e-4 for p in base.samples))
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
    fn = lambda u: EvalOutcome.of(
        CirclePoint(np.asarray(u) / np.linalg.norm(u)), float(np.linalg.norm(u))
    ) if np.linalg.norm(u) > 0 else EvalOutcome.undefined(UndefinedReason.ORIGIN)
    boxes = localize_singularities(fn, (0.0, 0.0), 0.7, 1e-2)
    assert len(boxes) == 1
    assert boxes[0].status == "certified"
    assert np.linalg.norm(boxes[0].center) <= boxes[0].half_width * math.sqrt(2)


def test_localizer_root_box_failure_is_inconclusive():
    # the root boundary passes through the singular point at the origin, so
    # its degree is uncertifiable: one inconclusive root box, no degree
    fn = lambda u: EvalOutcome.of(
        LineDirection(0.5 * math.atan2(u[1], u[0])), float(np.linalg.norm(u))
    ) if np.linalg.norm(u) > 0 else EvalOutcome.undefined(UndefinedReason.ORIGIN)
    boxes = localize_singularities(fn, (0.5, 0.0), 0.5, 1e-2)
    assert boxes == [LocalizerBox(center=(0.5, 0.0), half_width=0.5, boundary_degree=None,
                                  depth=0, status="inconclusive")]
    assert boxes[0].to_dict()["degree"] is None
    assert localize_singularities(fn, (0.5, 0.0), 0.5, 1e-2, collect_inconclusive=False) == []


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
    gaps = []
    for x in np.linspace(center[0] - hw, center[0] + hw, 40):
        for y in np.linspace(center[1] - hw, center[1] + hw, 40):
            gaps.append(fn((x, y)).gap)
    assert min(gaps) > 0.05
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
    box = LocalizerBox(center=(0.0, 0.0), half_width=0.1, boundary_degree=1, depth=3)
    d = box.to_dict()
    assert d["degree"] == 1 and d["status"] == "certified"
    r = WindingReport(degree=2, samples_used=10, min_gap=0.5, refined=False)
    assert r.degree == 2
