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
    section_jacobian,
    uniform_preset,
)
from singlab.geometry import (
    CircleDataset,
    ContractViolation,
    LineDirection,
    PlaneDataset,
    ScalarValue,
    loglog_fit,
    reduce_mod_pi,
    wrap_increments,
)
from singlab import metrics
from singlab.cli import _synthetic_batch
from singlab.measure import aug_mean_singular_set_nonempty
from singlab.metrics import (
    NON_SEVERE,
    SEVERE,
    UNDECIDED,
    H_FD_FACTOR,
    MAX_JITTERS,
    SEPARATION_TIE,
    CurveHitsSingularityError,
    DerivativeProfile,
    OscillationProfile,
    UnsupportedMapError,
    _kkt_polish,
    _project_to_zero_resultant,
    _value_distances,
    average_derivative_along_curve,
    average_distance_to_point,
    classify_severity,
    derivative_blowup_profile,
    distance_to_singular,
    nearest_zero_resultant,
    oscillation,
    oscillator_arc,
)
from singlab.slices import slice_map

from fresh_python import run_python
from oracles import LAD, LS, PC, SLICE, half_angle_map, origin_batch

EQUILATERAL = SLICE.center_config


def libm_atan2(y, x):
    """libm's atan2 elementwise, which can differ from np.arctan2 in the last bit."""
    return np.array([math.atan2(b, a) for b, a in zip(y, x)])


half_angle_batch = half_angle_map()
pc_on_slice = slice_map(SLICE, PC)


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


def test_pc_refined_distance_is_zero_where_pc_is_undefined():
    # a square with one abscissa moved by 1e-13 has an eigenvalue gap within
    # TIE_TOL: PC reads it as a tie, and the refined distance, which reads
    # the map's own gap, is 0 like the surrogate, not 5e-14
    ds = PlaneDataset([(1.0 + 1e-13, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
    assert evaluate(PC, ds).reason is UndefinedReason.EIGENVALUE_TIE
    assert distance_to_singular(PC, ds) == (0.0, "SURROGATE")
    assert distance_to_singular(PC, ds, refine=True) == (0.0, "REFINED")


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


def test_aug_mean_refined_distance_to_an_empty_singular_set():
    # w0 = 5 outweighs the two unit weights, so no resultant vanishes and no
    # projector start lands
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0, 1.0), w0=5.0)
    assert distance_to_singular(spec, CircleDataset([(1.0, 0.0), (0.0, 1.0)]), refine=True) == (math.inf, "REFINED")


def test_aug_mean_refined_distance_off_the_symmetry_saddle():
    # every point at (0, 1) is the diagonal saddle of the penalty flow; the
    # nearest zero-resultant configuration is sqrt(2) acos(-1/4) away at n=3
    ds = CircleDataset([(0.0, 1.0)] * 3)
    refined, tag = distance_to_singular(uniform_preset(3), ds, refine=True)
    assert tag == "REFINED"
    assert abs(refined - math.sqrt(2) * math.acos(-0.25)) < 1e-6


def _two_angle_slice_zeros(phi0, spec):
    """The zero-resultant configurations that differ from phi0 in two angles
    only.  With the other terms of the resultant summing to c, angles i and
    j must close the two-link chain w_i u_i + w_j u_j = -c: by the law of
    cosines, u_i makes the angle acos((w_i^2 + |c|^2 - w_j^2) / (2 w_i |c|))
    with -c, on either side, whenever |w_i - w_j| <= |c| <= w_i + w_j."""
    w = np.asarray(spec.weights)
    terms = w[:, None] * np.stack([np.cos(phi0), np.sin(phi0)], axis=1)
    total = terms.sum(axis=0) + spec.w0 * np.asarray(spec.aug_point)
    zeros = []
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            c = total - terms[i] - terms[j]
            length = math.hypot(*c)
            if length == 0.0 or not abs(w[i] - w[j]) <= length <= w[i] + w[j]:
                continue
            cos_a = (w[i] ** 2 + length ** 2 - w[j] ** 2) / (2.0 * w[i] * length)
            for side in (1.0, -1.0):
                phi_i = math.atan2(-c[1], -c[0]) + side * math.acos(min(1.0, max(-1.0, cos_a)))
                u_j = -c - w[i] * np.array([math.cos(phi_i), math.sin(phi_i)])
                phi = phi0.copy()
                phi[i], phi[j] = phi_i, math.atan2(u_j[1], u_j[0])
                zeros.append(phi)
    return zeros


def test_aug_mean_refined_distance_is_a_torus_distance():
    # the refined distance is the wrapped arc distance to a KKT point of the
    # zero-resultant set: never above the torus diameter pi sqrt(n), nor above
    # any zero reached by moving two angles
    rng = np.random.default_rng(7)
    for n in range(2, 7):
        w = rng.uniform(0.5, 2.0, n)
        w0 = rng.uniform(max(0.0, 2.0 * w.max() - w.sum()), w.sum())
        specs = [uniform_preset(n), DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * n, w0=2.0),
                 DataMapSpec(kind=MapKind.AUG_MEAN, weights=tuple(w), w0=float(w0))]
        for spec in filter(aug_mean_singular_set_nonempty, specs):
            for k in range(40):
                phi0 = 2.0 * math.pi * rng.random(n)
                ds = CircleDataset(np.stack([np.cos(phi0), np.sin(phi0)], axis=1))
                d, tag = distance_to_singular(spec, ds, refine=True)
                assert tag == "REFINED"
                assert d <= math.pi * math.sqrt(n)
                for zero in _two_angle_slice_zeros(ds.angles, spec):
                    assert d <= np.linalg.norm(wrap_increments(zero - ds.angles, 2.0 * math.pi)) + 1e-12
                if k % 2:
                    continue
                # the minimizing configuration, on every other input
                dist, phi = nearest_zero_resultant(ds.angles, spec)
                assert dist == d
                (re, im), (d_re, d_im) = section_jacobian(spec, phi[None])
                assert math.hypot(re[0], im[0]) <= 1e-12
                jac = np.stack([d_re[0], d_im[0]])
                step = phi - ds.angles
                assert abs(np.linalg.norm(step) - d) <= 1e-12
                # stationarity: phi - phi0 lies in the row space of J
                mu = np.linalg.lstsq(jac.T, step, rcond=None)[0]
                assert np.linalg.norm(step - jac.T @ mu) <= 1e-9


@pytest.mark.parametrize("n", [3, 17])
def test_projector_rows_do_not_depend_on_their_batch(n):
    # each row of both loops stops by its own rule, so a start run alone
    # gives the bits of its row in the full batch; the first start has equal
    # angles, a saddle whose Gram matrix is singular, so its row goes NaN
    zero = UndefinedReason.ZERO_RESULTANT
    spread = DataMapSpec(kind=MapKind.AUG_MEAN, weights=tuple(np.linspace(0.6, 1.7, n)), w0=0.8)
    for k, spec in enumerate([uniform_preset(n), spread]):
        assert aug_mean_singular_set_nonempty(spec)
        rng = np.random.default_rng((28, n, k))
        phi0 = 2.0 * math.pi * rng.random(n)
        starts = np.vstack([np.full((1, n), 0.5 * math.pi), 2.0 * math.pi * rng.random((40, n))])
        with np.errstate(divide="ignore", invalid="ignore"):
            batch = _project_to_zero_resultant(starts, spec)
            alone = np.vstack([_project_to_zero_resultant(row[None], spec) for row in starts])
            assert np.all(np.isnan(batch[0]))
            assert alone.tobytes() == batch.tobytes()
            finite = batch[np.isfinite(batch).all(axis=1)]
            landed = phi0 + wrap_increments(finite[evaluate_batch(spec, finite).reason == zero] - phi0,
                                            2.0 * math.pi)
            assert len(landed) >= 20
            polished = _kkt_polish(landed, phi0, spec)
            alone = np.vstack([_kkt_polish(row[None], phi0, spec) for row in landed])
        assert alone.tobytes() == polished.tobytes()


# Distances and configurations that nearest_zero_resultant finds for seeded
# inputs at n = 3, 5 and 17, unit and spread weights, hashed as float hex.
_PROJECTOR_PIN = """\
import hashlib, math
import numpy as np
from singlab.datamaps import DataMapSpec, MapKind, uniform_preset
from singlab.metrics import nearest_zero_resultant
digest = hashlib.sha256()
for n in (3, 5, 17):
    rng = np.random.default_rng((28, n))
    for spec in (uniform_preset(n),
                 DataMapSpec(kind=MapKind.AUG_MEAN, weights=tuple(np.linspace(0.6, 1.7, n)), w0=0.8)):
        for phi0 in 2.0 * math.pi * rng.random((8, n)):
            dist, phi = nearest_zero_resultant(phi0, spec)
            digest.update(" ".join(map(float.hex, [dist, *([] if phi is None else phi)])).encode() + b"\\n")
print(digest.hexdigest())
"""


def test_nearest_zero_resultant_pinned_across_processes():
    for salt in ("1", "2"):
        done = run_python(_PROJECTOR_PIN, PYTHONHASHSEED=salt)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "34fb4ef957c902cf35145c92e93e3f858dcdf0e9d4a7896bb0644e986b54b13c"


@pytest.mark.parametrize("spec, x", [
    pytest.param(PC, CircleDataset([(1, 0), (0, 1), (1, 0)]), id="pc-circle-dataset"),
    pytest.param(uniform_preset(3), PlaneDataset([(0, 0), (1, 0), (0, 1)]), id="augmean-plane-dataset"),
])
def test_refined_distance_refuses_what_the_surrogate_refuses(spec, x):
    # the refined path read x.points or x.angles unchecked: PC measured the
    # circle points as a plane dataset, and AUG_MEAN died on a PlaneDataset
    with pytest.raises(ContractViolation) as unrefined:
        distance_to_singular(spec, x)
    with pytest.raises(ContractViolation) as refined:
        distance_to_singular(spec, x, refine=True)
    assert type(refined.value) is type(unrefined.value) is ContractViolation
    assert str(refined.value) == str(unrefined.value)


def test_refined_distance_takes_plain_arrays():
    # as the surrogate does: a plane dataset's points, a circle dataset's angles
    ds = PlaneDataset([(0.0, 0.0), (1.0, 0.2), (2.0, -0.1)])
    assert distance_to_singular(PC, ds.points.tolist(), refine=True) == distance_to_singular(PC, ds, refine=True)
    circle = CircleDataset([(1.0, 0.0), (0.0, 1.0), (-0.6, -0.8)])
    aug = uniform_preset(3)
    assert distance_to_singular(aug, circle.angles, refine=True) == distance_to_singular(aug, circle, refine=True)


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
    # cluster collapses; see CHANGES.md.)
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


@pytest.mark.parametrize("radii", [(-0.1, -0.2, -0.3), (0.1, 0.01, -0.001), (0.1, 0.01, 0.0)])
def test_oscillation_refuses_radii_that_are_not_positive(radii):
    with pytest.raises(ContractViolation, match="radii must be positive"):
        OscillationProfile(radii=radii, diameters=(0.4, 0.2, 0.1), samples_per_radius=16, seed=0)
    with pytest.raises(ContractViolation, match="radii must be finite and positive"):
        oscillation(PC, EQUILATERAL, radii, 16, seed=0)


@pytest.mark.parametrize("radii", [(0.1, math.nan, 0.001), (math.inf, 0.1, 0.01), (0.1, 0.01, -math.inf)])
def test_oscillation_checks_radii_before_it_samples(monkeypatch, radii):
    # a NaN or infinite radius was refused only by the map, as "map inputs
    # must be finite", after the draw
    monkeypatch.setattr(metrics, "evaluate_batch", lambda *args: pytest.fail("the map was called"))
    with pytest.raises(ContractViolation, match="radii must be finite and positive"):
        oscillation(PC, EQUILATERAL, radii, 16, seed=0)


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
    fn = lambda us: origin_batch(np.full(len(us), 0.4), np.ones(len(us)), np.zeros(len(us), dtype=bool))
    assert average_derivative_along_curve(fn, circle_polyline(0.5), 1e-6) == 0.0


def test_average_derivative_half_angle_closed_form():
    # |D(arg/2)| = 1 / (2 |u|) exactly
    for eta in (0.5, 0.1):
        v = average_derivative_along_curve(half_angle_batch, circle_polyline(eta), 1e-7)
        assert abs(v - 1.0 / (2.0 * eta)) < 0.01 / eta


def test_average_derivative_curve_hits_singularity():
    def left_half_undefined(us):
        return origin_batch(reduce_mod_pi(us[:, 0]), np.ones(len(us)), us[:, 0] < 0)

    segment = [np.array([-0.1, 0.0]), np.array([0.1, 0.0])]
    with pytest.raises(CurveHitsSingularityError):
        average_derivative_along_curve(left_half_undefined, segment, 1e-7, nodes_per_segment=5)


def test_average_distance_to_point():
    seg = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    assert abs(average_distance_to_point(seg, (0, 0)) - 1.5) < 1e-9


def test_polyline_averages_refuse_degenerate_curves():
    # one vertex, or two equal ones, has no length to average over
    p = np.array([0.3, 0.0])
    fn = lambda us: origin_batch(np.full(len(us), 0.4), np.ones(len(us)), np.zeros(len(us), dtype=bool))
    for curve in ([p], [p, p.copy()]):
        with pytest.raises(ContractViolation):
            average_distance_to_point(curve, (0, 0))
        with pytest.raises(ContractViolation):
            average_derivative_along_curve(fn, curve, 1e-6)


# ---------------------------------------------------------------------------
# Derivative blow-up profiles
# ---------------------------------------------------------------------------

ETAS = tuple(np.geomspace(1e-1, 1e-3, 7))


def test_blowup_synthetic_exponent_minus_one():
    profile = derivative_blowup_profile(half_angle_batch, (0, 0), ETAS, seed=3)
    assert not any(profile.flagged)
    assert abs(profile.fitted_exponent + 1.0) <= 0.05


def test_blowup_of_a_scalar_map_reads_its_gradient_norm():
    # |u| has gradient norm 1 off the origin: scalar values are compared by
    # their absolute difference, and nothing blows up
    def radius(us):
        r = np.linalg.norm(us, axis=1)
        return origin_batch(r, r, r == 0.0, ScalarValue)

    profile = derivative_blowup_profile(radius, (0, 0), ETAS, seed=3)
    assert not any(profile.flagged)
    assert np.allclose(profile.avg_derivative, 1.0, rtol=0.0, atol=1e-9)
    assert abs(profile.fitted_exponent) <= 1e-9


def test_blowup_etas_of_one_log_fit_nothing():
    # the two etas differ in their last bit and their logs do not: the slope
    # fit was rank-deficient (a RankWarning), now it is NaN like a fit of one entry
    profile = derivative_blowup_profile(half_angle_batch, (0, 0), (0.00010000000000000002, 1e-4), seed=3)
    assert not any(profile.flagged)
    assert math.isnan(profile.fitted_exponent) and math.isnan(profile.constant_c)


def test_blowup_pc_at_slice_center():
    profile = derivative_blowup_profile(pc_on_slice, (0, 0), ETAS, seed=3)
    assert -1.2 <= profile.fitted_exponent <= -0.8


def test_blowup_arcs_do_not_depend_on_the_last_bit():
    # the candidate arcs of the half-angle map come in mirror-image pairs
    # that tie exactly; libm's and numpy's arctangent differ in the last
    # bit, and both must pick the same arcs
    etas = np.geomspace(1e-1, 1e-3, 13)
    libm = derivative_blowup_profile(half_angle_map(atan2=libm_atan2), (0, 0), etas, seed=0)
    numpy = derivative_blowup_profile(half_angle_map(atan2=np.arctan2), (0, 0), etas, seed=0)
    assert libm.flagged == numpy.flagged and not any(libm.flagged)
    assert libm.avg_distance == numpy.avg_distance
    assert abs(libm.fitted_exponent + 1.0) <= 1e-9
    assert abs(numpy.fitted_exponent + 1.0) <= 1e-9


@pytest.mark.parametrize("etas, message", [
    ((0.1, 0.1), "strictly decreasing"),
    ((0.1, 0.0), "finite and positive"),
    ((0.1, -0.1), "finite and positive"),
    ((math.inf, 0.1), "finite and positive"),
])
def test_blowup_refuses_etas_out_of_order_or_not_positive(etas, message):
    # eta 0 put every row on the singular point and flagged the entry; a
    # negative eta reached the stencil and failed there, on h_fd
    with pytest.raises(ContractViolation, match=message):
        derivative_blowup_profile(half_angle_batch, (0, 0), etas, seed=3)


def test_profilers_refuse_pointwise_callable():
    # a callable mapping one point to an EvalOutcome is not a map: the
    # profilers say which return type they expect
    pointwise = lambda u: EvalOutcome.of(LineDirection(0.4), 1.0)
    with pytest.raises(ContractViolation, match="must return a BatchOutcome .* got EvalOutcome"):
        derivative_blowup_profile(pointwise, (0, 0), ETAS, seed=3)
    with pytest.raises(ContractViolation, match="must return a BatchOutcome .* got EvalOutcome"):
        average_derivative_along_curve(pointwise, circle_polyline(0.5), 1e-6)


def test_blowup_distance_bracket():
    # c * eta <= avg distance <= eta for every entry, with the reported c
    for fn in (half_angle_batch, pc_on_slice):
        profile = derivative_blowup_profile(fn, (0, 0), ETAS, seed=3)
        assert 0 < profile.constant_c <= 1
        for eta, r, flag in zip(profile.etas, profile.avg_distance, profile.flagged):
            if flag:
                continue
            assert profile.constant_c * eta <= r + 1e-12
            assert r <= eta + 1e-12


def test_blowup_builds_each_arc_once(monkeypatch):
    # an arc's segments feed both its quadrature and its average distance,
    # so each arc is built, and its vertices checked, once
    built, quadrature_arcs = [], []
    segments, arc_averages = metrics._segments, metrics._arc_averages
    monkeypatch.setattr(metrics, "_segments", lambda curve: built.append(1) or segments(curve))
    monkeypatch.setattr(metrics, "_arc_averages",
                        lambda fn, arcs, steps: quadrature_arcs.extend(arcs) or arc_averages(fn, arcs, steps))
    monkeypatch.setattr(metrics, "average_distance_to_point", lambda *args: pytest.fail("the arc was built again"))
    profile = derivative_blowup_profile(pc_on_slice, (0, 0), ETAS, seed=3)
    assert not any(profile.flagged)
    assert len(built) == len(quadrature_arcs) >= len(ETAS)


def _reference_profile(outcome_fn, singular_point, etas, seed):
    """The eta-major loop: every attempt of one eta before the next eta,
    each attempt's rows in one call and its arc's stencils in another.
    Returns the profile and the attempts each eta took (MAX_JITTERS when it
    was flagged)."""
    x0 = np.asarray(singular_point, dtype=float)
    etas = tuple(float(e) for e in etas)
    rng = np.random.default_rng(seed)
    phi1 = rng.uniform(0.0, 2 * math.pi)
    phi3 = phi1 + rng.uniform(0.5, 1.2)
    candidate_phis = phi1 + np.linspace(0.3, 2 * math.pi - 0.3, 24)
    scales = np.concatenate([[0.45], np.full(candidate_phis.size, 0.45), [0.9]])
    avg_d, avg_r, flagged, attempts = [], [], [], []
    for eta in etas:
        for attempt in range(MAX_JITTERS):
            phis = np.concatenate([[phi1], candidate_phis, [phi3]]) + 0.02 * attempt
            ys = x0 + (scales * eta)[:, None] * np.stack([np.cos(phis), np.sin(phis)], axis=1)
            out = outcome_fn(ys)
            candidates = out.defined[1:-1]
            if not (out.defined[0] and candidates.any() and out.defined[-1]):
                continue
            sep = np.where(candidates, _value_distances(out.value[1:-1], out.value[0], out.period), -np.inf)
            farthest = int(np.argmax(sep >= sep.max() - SEPARATION_TIE))
            curve = [ys[0], ys[1 + farthest], ys[-1]]
            try:
                d = average_derivative_along_curve(outcome_fn, curve, h_fd=H_FD_FACTOR * eta)
            except CurveHitsSingularityError:
                continue
            avg_d.append(d)
            avg_r.append(average_distance_to_point(curve, x0))
            flagged.append(False)
            attempts.append(attempt + 1)
            break
        else:
            avg_d.append(math.nan)
            avg_r.append(math.nan)
            flagged.append(True)
            attempts.append(MAX_JITTERS)
    good = [i for i, f in enumerate(flagged) if not f]
    logs = np.log([etas[i] for i in good])
    if len(set(logs.tolist())) >= 2:
        exponent = loglog_fit(logs, np.log([avg_d[i] for i in good]))
        c = float(min(avg_r[i] / etas[i] for i in good))
    else:
        exponent = c = math.nan
    profile = DerivativeProfile(etas=etas, avg_derivative=tuple(avg_d), avg_distance=tuple(avg_r),
                                fitted_exponent=exponent, constant_c=c, flagged=tuple(flagged))
    return profile, attempts


_PROFILE_MAPS = {
    "pc": pc_on_slice,
    "lad": slice_map(SLICE, LAD),
    "ls": slice_map(SLICE, LS),
    "synthetic": _synthetic_batch,
}


@pytest.mark.parametrize("name", list(_PROFILE_MAPS))
def test_blowup_profile_matches_eta_major_reference(name):
    # the rounds batch the rows of many etas; each eta keeps its attempts
    # and its bits, NaNs included
    fn = _PROFILE_MAPS[name]
    for center in ((0.0, 0.0), (0.3, -0.2), (-0.55, 0.4), (1.2, 0.1)):
        for seed in (0, 3, 11):
            for etas in (np.geomspace(0.1, 0.001, 13), np.geomspace(0.6, 1e-4, 5), (0.02, 0.019)):
                want, _ = _reference_profile(fn, center, etas, seed)
                assert repr(derivative_blowup_profile(fn, center, etas, seed=seed)) == repr(want)


def _stencil_point_of_first_attempt(fn, eta, seed):
    """A stencil point of the first attempt's arc of one eta, near y3."""
    batches = []

    def recording(us):
        batches.append(us.copy())
        return fn(us)

    _reference_profile(recording, (0.0, 0.0), (eta,), seed)
    k = len(batches[1]) // 4  # nodes; the last node's first + stencil point
    return batches[1][2 * k - 2]


def test_blowup_profile_retries_and_flags_like_the_reference():
    # Undefined rows force later attempts: on etas[2] y1's first position is
    # Undefined, on etas[5] one point of the first arc's stencil, and etas[8]
    # has y3 Undefined at every attempt, so it is flagged
    etas = np.geomspace(0.1, 0.001, 11)
    seed = 3
    phi1 = np.random.default_rng(seed).uniform(0.0, 2 * math.pi)
    y1 = 0.45 * etas[2] * np.array([math.cos(phi1), math.sin(phi1)])
    p = _stencil_point_of_first_attempt(half_angle_batch, etas[5], seed)

    def holes(us):
        out = half_angle_batch(us)
        r = np.linalg.norm(us, axis=1)
        undefined = ((np.linalg.norm(us - y1, axis=1) < 1e-3 * etas[2])
                     | (np.linalg.norm(us - p, axis=1) < 0.5 * H_FD_FACTOR * etas[5])
                     | (np.abs(r - 0.9 * etas[8]) < 1e-9 * etas[8]))
        return origin_batch(out.value, out.gap, ~out.defined | undefined)

    want, attempts = _reference_profile(holes, (0.0, 0.0), etas, seed)
    assert attempts == [1, 1, 2, 1, 1, 2, 1, 1, MAX_JITTERS, 1, 1]
    assert want.flagged == tuple(i == 8 for i in range(11))
    calls = []

    def counted(us):
        calls.append(len(us))
        return holes(us)

    assert repr(derivative_blowup_profile(counted, (0.0, 0.0), etas, seed=seed)) == repr(want)
    # a round evaluates the rows of the etas still open, then the stencils
    # of the arcs it built, if any: 26 rows per eta and 64 per arc
    assert calls == [11 * 26, 9 * 64, 3 * 26, 2 * 64] + [26] * (MAX_JITTERS - 2)


def test_oscillator_arc_average_derivative():
    # avg derivative at scale t_n is Theta(1 / t_n) while the pointwise
    # t |g'(t)| stays below 1 / |log(t_n / e)|
    fn = lambda us: evaluate_batch(DataMapSpec(kind=MapKind.RADIAL_OSCILLATOR), us)
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


# In a fresh interpreter: importing metrics loads no scipy, and its
# ``minimize`` is scipy's own function, still so after a stand-in replaces
# ``scipy.optimize.minimize`` (the order perfbench's tracer patches in).
_MINIMIZE_SHIM_CHECK = """\
import sys
import singlab.metrics as metrics
assert not [m for m in sys.modules if m.startswith("scipy")], "importing singlab.metrics loaded scipy"
import scipy.optimize
real = scipy.optimize.minimize
assert metrics.minimize is real
scipy.optimize.minimize = lambda *args, **kwargs: None
assert metrics.minimize is real, "metrics.minimize follows a patched scipy.optimize"
try:
    metrics.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'singlab.metrics' has no attribute 'no_such_name'", str(exc)
else:
    raise AssertionError("metrics.no_such_name did not raise")
"""


def test_minimize_shim_is_lazy_and_ignores_patches():
    done = run_python(_MINIMIZE_SHIM_CHECK)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: OscillationProfile(radii=(0.2, 0.1), diameters=(0.1,), samples_per_radius=16, seed=0),
                 "radii and diameters must have equal length", id="profile-lengths"),
    pytest.param(lambda: OscillationProfile(radii=(0.1, 0.2), diameters=(0.1, 0.1), samples_per_radius=16, seed=0),
                 "radii must be strictly decreasing", id="profile-order"),
    pytest.param(lambda: oscillation(PC, SLICE.dataset_at((0.0, 0.0)), (0.1, 0.01), k_samples=15, seed=0),
                 "k_samples must be >= 16", id="oscillation-k-samples"),
    pytest.param(lambda: classify_severity(OscillationProfile((0.2, 0.1), (0.1, 0.1), 16, 0), 0.1),
                 "severity needs a profile with >= 3 radii", id="severity-radii"),
    pytest.param(lambda: derivative_blowup_profile(_synthetic_batch, (math.nan, 0.0), ETAS),
                 "singular_point must be a finite 2-vector", id="blowup-point-nan"),
    pytest.param(lambda: derivative_blowup_profile(_synthetic_batch, (0.0, 0.0, 0.0), ETAS),
                 "singular_point must be a finite 2-vector", id="blowup-point-3d"),
    pytest.param(lambda: average_derivative_along_curve(_synthetic_batch, [(0.1, 0.1), (math.nan, 0.3)], 1e-6),
                 "curve vertices must be finite vectors of one dimension", id="derivative-curve-nan"),
    pytest.param(lambda: average_distance_to_point([(0.1, 0.1), (math.inf, 0.3)], (0.0, 0.0)),
                 "curve vertices must be finite vectors of one dimension", id="distance-curve-inf"),
    pytest.param(lambda: average_distance_to_point([(0.1, 0.1), (0.2, 0.3)], (0.0, 0.0, 0.0)),
                 "x0 must be a finite point of the curve's dimension", id="distance-x0-3d"),
    pytest.param(lambda: average_distance_to_point([(0.1, 0.1), (0.2, 0.3)], (math.nan, 0.0)),
                 "x0 must be a finite point of the curve's dimension", id="distance-x0-nan"),
])
def test_metrics_refuse_bad_input_by_name(make, message):
    with pytest.raises(ContractViolation) as raised:
        make()
    assert type(raised.value) is ContractViolation and str(raised.value) == message
