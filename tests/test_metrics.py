"""Distance to the singular set, oscillation, severity, derivative blow-up."""

import math
import warnings

import numpy as np
import pytest

from singlab.datamaps import (
    DataMapSpec,
    EvalOutcome,
    MapKind,
    UndefinedReason,
    evaluate,
    evaluate_batch,
    oscillator_g_prime_abs,
    oscillator_t,
    uniform_preset,
)
from singlab.geometry import CircleDataset, LineDirection, PlaneDataset
from singlab.metrics import (
    NON_SEVERE,
    SEVERE,
    UNDECIDED,
    CurveHitsSingularityError,
    OscillationProfile,
    UnsupportedMapError,
    average_derivative_along_curve,
    average_distance_to_point,
    classify_severity,
    derivative_blowup_profile,
    distance_to_singular,
    oscillation,
    oscillator_arc,
)
from singlab.slices import SliceSpec, slice_map

LS = DataMapSpec(kind=MapKind.LS_LINE)
PC = DataMapSpec(kind=MapKind.PC_LINE)
LAD = DataMapSpec(kind=MapKind.LAD_LINE)
SPEC = SliceSpec()

EQUILATERAL = SPEC.center_config


def half_angle_outcome(u):
    r = float(np.linalg.norm(u))
    if r == 0.0:
        return EvalOutcome.undefined(UndefinedReason.ORIGIN)
    return EvalOutcome.of(LineDirection(0.5 * math.atan2(u[1], u[0])), r)


def pc_on_slice(u):
    return evaluate(PC, SPEC.dataset_at(u, allow_outside_disk=True))


# ---------------------------------------------------------------------------
# Distance to the singular set
# ---------------------------------------------------------------------------

def test_ls_distance_exact():
    ds = PlaneDataset([(0, 3), (1, -1), (2, 0), (3, 2)])
    d, tag = distance_to_singular(LS, ds)
    assert tag == "EXACT"
    assert abs(d - math.sqrt(5)) < 1e-12


def test_disk_distance_exact():
    spec = DataMapSpec(kind=MapKind.DISK_DECISION, center=(0.0, 0.0), radius=0.5)
    d, tag = distance_to_singular(spec, (1, 1))
    assert tag == "EXACT"
    assert abs(d - (math.sqrt(2) - 0.5)) < 1e-12


def test_pc_distance_surrogate_and_refined():
    ds = PlaneDataset([(1, 0), (-1, 0), (0, 0)])
    surr, tag = distance_to_singular(PC, ds)
    assert tag == "SURROGATE"
    assert abs(surr - 1 / 3) < 1e-12  # norm of ((Cxx-Cyy)/2, Cxy) = (1/3, 0)
    refined, tag = distance_to_singular(PC, ds, refine=True)
    assert tag == "REFINED"
    # pinned by a random-restart penalty oracle: the nearest tie moves the
    # outer abscissae in by 1/2 and spreads ordinates by (1/2)/sqrt(3)
    assert abs(refined - 1.0) < 1e-3


def test_pc_refined_distance_is_the_svd_closed_form():
    # the nearest eigenvalue tie is s U V^T for the centered points Q = U S V^T,
    # s = (sigma1 + sigma2) / 2, so the distance is (sigma1 - sigma2) / sqrt(2)
    rng = np.random.default_rng(44)
    for n in range(3, 9):
        for _ in range(5):
            pts = rng.standard_normal((n, 2)) * rng.uniform(0.1, 10.0, 2)
            sigma = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            refined, tag = distance_to_singular(PC, PlaneDataset(pts), refine=True)
            assert tag == "REFINED"
            want = (sigma[0] - sigma[1]) / math.sqrt(2.0)
            assert abs(refined - want) <= 1e-12 * want
    assert distance_to_singular(PC, PlaneDataset([(1, 1)] * 3), refine=True) == (0.0, "REFINED")


def test_pc_refined_distance_nearly_collinear():
    # off-line noise of 1e-6: the smaller covariance eigenvalue cancels, so
    # the distance must take sigma2 from the points, not from the moments
    rng = np.random.default_rng(45)
    for _ in range(200):
        x = rng.standard_normal(5)
        pts = np.stack([x, 0.7 * x + 1e-6 * rng.standard_normal(5)], axis=1)
        sigma = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
        want = (sigma[0] - sigma[1]) / math.sqrt(2.0)
        refined, _ = distance_to_singular(PC, PlaneDataset(pts), refine=True)
        assert abs(refined - want) <= 1e-12 * want


def test_lad_distance_surrogate():
    d, tag = distance_to_singular(LAD, PlaneDataset([(0, 0), (1, 0), (2, 1)]))
    assert tag == "SURROGATE"
    assert abs(d - 0.5) < 1e-12
    # a single candidate pair has no second-best objective: gap 0
    assert distance_to_singular(LAD, PlaneDataset([(0, 0), (1, 1)])) == (0.0, "SURROGATE")


def test_lad_distance_without_candidates_is_quiet():
    # equal abscissae leave no candidate line: gap 0, and no inf - inf warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert distance_to_singular(LAD, PlaneDataset([(0, 0), (0, 1), (0, 2)])) == (0.0, "SURROGATE")


def test_aug_mean_distance():
    spec = uniform_preset(2)
    ds = CircleDataset([(1.0, 0.0), (-1.0, 0.0)])
    d, tag = distance_to_singular(spec, ds)
    assert tag == "SURROGATE"
    assert abs(d - 0.25) < 1e-12  # |rho| / sum(w) = 0.5 / 2
    refined, tag = distance_to_singular(spec, ds, refine=True)
    assert tag == "REFINED"
    assert refined > 0


def test_aug_mean_refined_distance_off_the_symmetry_saddle():
    # every point at (0, 1) is the diagonal saddle of the penalty flow; the
    # nearest zero-resultant configuration is sqrt(2) acos(-1/4) away at n=3
    ds = CircleDataset([(0.0, 1.0)] * 3)
    refined, tag = distance_to_singular(uniform_preset(3), ds, refine=True)
    assert tag == "REFINED"
    assert abs(refined - math.sqrt(2) * math.acos(-0.25)) < 1e-6


def test_unsupported_map_kind():
    with pytest.raises(UnsupportedMapError):
        distance_to_singular(DataMapSpec(kind=MapKind.RADIAL_OSCILLATOR), np.array([0.5, 0.0]))


def test_ls_distance_exactness_certificate():
    # projecting every abscissa to the mean lands exactly on the singular
    # surface, and no sampled perturbation of smaller norm does
    rng = np.random.default_rng(41)
    pts = rng.standard_normal((100, 4, 2))
    gaps = evaluate_batch(LS, pts).gap
    for i in range(100):
        proj = pts[i].copy()
        proj[:, 0] = proj[:, 0].mean()
        assert evaluate_batch(LS, proj[None]).gap[0] < 1e-12
        # random perturbations of norm 0.99 * distance never reach the surface
        d = gaps[i]
        pert = rng.standard_normal((1000, 8))
        pert = pert / np.linalg.norm(pert, axis=1, keepdims=True) * (0.99 * d)
        moved = pts[i].reshape(1, 8) + pert
        assert np.all(evaluate_batch(LS, moved.reshape(-1, 4, 2)).gap > 0)


def test_pc_sandwich_on_scale_controlled_ensemble():
    # refined distance within a single constant K <= 5 of the surrogate for
    # near-tie datasets whose scale is bounded below.  (Unconditioned
    # Gaussians violate any fixed K: the ratio grows like 1/scale as the
    # cluster collapses; see the decisions ledger.)
    rng = np.random.default_rng(42)
    ratios = []
    while len(ratios) < 200:
        pts = rng.standard_normal((400, 4, 2))
        gaps = evaluate_batch(PC, pts).gap
        traces = np.sum((pts - pts.mean(axis=1, keepdims=True)) ** 2, axis=(1, 2)) / 4
        for i in np.nonzero((gaps < 0.2) & (traces >= 0.5))[0]:
            if len(ratios) >= 200:
                break
            ds = PlaneDataset(pts[i])
            surr, _ = distance_to_singular(PC, ds)
            refined, _ = distance_to_singular(PC, ds, refine=True)
            ratios.append(refined / surr)
    ratios = np.asarray(ratios)
    k = max(ratios.max(), 1.0 / ratios.min())
    assert k <= 5.0, f"sandwich constant {k:.2f}"


# ---------------------------------------------------------------------------
# Oscillation and severity
# ---------------------------------------------------------------------------

RADII = (0.1, 0.01, 0.001)


def test_oscillation_pc_at_equilateral_does_not_shrink():
    profile = oscillation(PC, EQUILATERAL, RADII, 64, seed=7)
    assert all(d >= 1.0 for d in profile.diameters)


def test_oscillation_ls_smooth_point_shrinks_linearly():
    ds = PlaneDataset([(0, 0), (1, 1), (2, 0)])
    profile = oscillation(LS, ds, RADII, 64, seed=7)
    for r, d in zip(profile.radii, profile.diameters):
        assert d <= 5.0 * r
    assert profile.diameters[-1] < 0.01


def test_oscillation_disk_boundary_sees_both_decisions():
    spec = DataMapSpec(kind=MapKind.DISK_DECISION, center=(0.0, 0.0), radius=0.5)
    profile = oscillation(spec, np.array([0.5, 0.0]), RADII, 64, seed=7)
    assert profile.diameters == (1.0, 1.0, 1.0)


def test_oscillation_monotone_at_smooth_points():
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 20:
        ds = PlaneDataset(rng.standard_normal((4, 2)))
        if evaluate(PC, ds).gap < 0.5:
            continue
        profile = oscillation(PC, ds, RADII, 64, seed=9)
        d = profile.diameters
        assert d[1] <= d[0] * 1.2 and d[2] <= d[1] * 1.2  # nonincreasing within noise
        checked += 1


def test_oscillation_determinism():
    p1 = oscillation(PC, EQUILATERAL, RADII, 32, seed=123)
    p2 = oscillation(PC, EQUILATERAL, RADII, 32, seed=123)
    assert p1 == p2


def test_severity_classification():
    severe = oscillation(PC, EQUILATERAL, RADII, 64, seed=7)
    assert classify_severity(severe, 0.3) == SEVERE
    smooth = oscillation(LS, PlaneDataset([(0, 0), (1, 1), (2, 0)]), RADII, 64, seed=7)
    assert classify_severity(smooth, 0.3) == NON_SEVERE
    between = OscillationProfile(
        radii=RADII, diameters=(0.4, 0.2, 0.18), samples_per_radius=16, seed=0
    )
    assert classify_severity(between, 0.3) == UNDECIDED


def test_oscillation_profile_all_undefined_is_derived():
    profile = OscillationProfile(radii=RADII, diameters=(0.4, math.nan, 0.0), samples_per_radius=16, seed=0)
    assert profile.all_undefined == (False, True, False)
    assert profile.to_dict()["all_undefined"] == [False, True, False]


# ---------------------------------------------------------------------------
# Average derivative along curves
# ---------------------------------------------------------------------------

def circle_polyline(radius, m=96):
    return [
        radius * np.array([math.cos(t), math.sin(t)])
        for t in np.linspace(0, 2 * math.pi, m + 1)
    ]


def test_average_derivative_constant_map():
    fn = lambda u: EvalOutcome.of(LineDirection(0.4), 1.0)
    assert average_derivative_along_curve(fn, circle_polyline(0.5), 1e-6) == 0.0


def test_average_derivative_half_angle_closed_form():
    # |D(arg/2)| = 1 / (2 |u|) exactly
    for eta in (0.5, 0.1):
        v = average_derivative_along_curve(half_angle_outcome, circle_polyline(eta), 1e-7)
        assert abs(v - 1.0 / (2.0 * eta)) < 0.01 / eta


def test_average_derivative_curve_hits_singularity():
    def left_half_undefined(u):
        if u[0] < 0:
            return EvalOutcome.undefined(UndefinedReason.ORIGIN)
        return EvalOutcome.of(LineDirection(u[0]), 1.0)

    segment = [np.array([-0.1, 0.0]), np.array([0.1, 0.0])]
    with pytest.raises(CurveHitsSingularityError):
        average_derivative_along_curve(left_half_undefined, segment, 1e-7, nodes_per_segment=5)


def test_average_distance_to_point():
    seg = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    assert abs(average_distance_to_point(seg, (0, 0)) - 1.5) < 1e-9


# ---------------------------------------------------------------------------
# Derivative blow-up profiles
# ---------------------------------------------------------------------------

ETAS = tuple(np.geomspace(1e-1, 1e-3, 7))


def test_blowup_synthetic_exponent_minus_one():
    profile = derivative_blowup_profile(half_angle_outcome, (0, 0), ETAS, seed=3)
    assert not any(profile.flagged)
    assert abs(profile.fitted_exponent + 1.0) <= 0.05


def test_blowup_pc_at_slice_center():
    profile = derivative_blowup_profile(pc_on_slice, (0, 0), ETAS, seed=3)
    assert -1.2 <= profile.fitted_exponent <= -0.8


def test_blowup_batch_map_and_pointwise_callable_agree():
    # the batched slice evaluator and a scalar lambda build the same arcs
    batched = derivative_blowup_profile(slice_map(SPEC, PC), (0, 0), ETAS, seed=3)
    pointwise = derivative_blowup_profile(pc_on_slice, (0, 0), ETAS, seed=3)
    assert batched.flagged == pointwise.flagged
    np.testing.assert_allclose(batched.avg_distance, pointwise.avg_distance, rtol=1e-12)
    np.testing.assert_allclose(batched.avg_derivative, pointwise.avg_derivative, rtol=1e-9)


def test_blowup_distance_bracket():
    # c * eta <= avg distance <= eta for every entry, with the reported c
    for fn in (half_angle_outcome, pc_on_slice):
        profile = derivative_blowup_profile(fn, (0, 0), ETAS, seed=3)
        assert 0 < profile.constant_c <= 1
        for eta, r, flag in zip(profile.etas, profile.avg_distance, profile.flagged):
            if flag:
                continue
            assert profile.constant_c * eta <= r + 1e-12
            assert r <= eta + 1e-12


def test_oscillator_arc_average_derivative():
    # avg derivative at scale t_n is Theta(1 / t_n) while the pointwise
    # t |g'(t)| stays below 1 / |log(t_n / e)|
    fn = lambda u: evaluate(DataMapSpec(kind=MapKind.RADIAL_OSCILLATOR), u)
    for n in (0, 1):
        t_n = oscillator_t(n)
        arc = oscillator_arc(n)
        v = average_derivative_along_curve(fn, arc, h_fd=1e-7 * t_n, nodes_per_segment=12)
        assert 1.0 / (4.0 * t_n) <= v <= 4.0 / t_n
        bound = 1.0 / abs(math.log(t_n / math.e))
        worst = 0.0
        for a, b in zip(arc, arc[1:]):
            for t in (np.arange(8) + 0.5) / 8:
                r = float(np.linalg.norm(a + t * (b - a)))
                worst = max(worst, r * oscillator_g_prime_abs(r))
        assert worst <= bound + 1e-9
