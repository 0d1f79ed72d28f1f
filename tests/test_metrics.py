"""Distance to the singular set, oscillation, severity, derivative blow-up."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import singlab
from singlab.datamaps import (
    BatchOutcome,
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
    reduce_mod_pi,
    wrap_increments,
)
from singlab.measure import aug_mean_singular_set_nonempty
from singlab.metrics import (
    NON_SEVERE,
    SEVERE,
    UNDECIDED,
    CurveHitsSingularityError,
    OscillationProfile,
    UnsupportedMapError,
    _kkt_polish,
    _project_to_zero_resultant,
    average_derivative_along_curve,
    average_distance_to_point,
    classify_severity,
    derivative_blowup_profile,
    distance_to_singular,
    nearest_zero_resultant,
    oscillation,
    oscillator_arc,
)
from singlab.slices import SliceSpec, slice_map

LS = DataMapSpec(kind=MapKind.LS_LINE)
PC = DataMapSpec(kind=MapKind.PC_LINE)
LAD = DataMapSpec(kind=MapKind.LAD_LINE)
SPEC = SliceSpec()

EQUILATERAL = SPEC.center_config


def line_batch(value, gap, undefined):
    """A LineDirection BatchOutcome, Undefined (ORIGIN) where undefined is set."""
    return BatchOutcome(value=value, gap=gap, reason=np.where(undefined, UndefinedReason.ORIGIN, 0),
                        feature=LineDirection)


def half_angle_map(atan2=np.arctan2):
    """u -> LineDirection(arg(u) / 2) on stacked points (m, 2), gap |u|,
    with the given two-argument arctangent."""

    def fn(us):
        r = np.linalg.norm(us, axis=1)
        return line_batch(reduce_mod_pi(0.5 * atan2(us[:, 1], us[:, 0])), r, r == 0.0)

    return fn


def libm_atan2(y, x):
    """libm's atan2 elementwise, which can differ from np.arctan2 in the last bit."""
    return np.array([math.atan2(b, a) for b, a in zip(y, x)])


half_angle_batch = half_angle_map()
pc_on_slice = slice_map(SPEC, PC)


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(singlab.__file__)))
    for salt in ("1", "2"):
        done = subprocess.run([sys.executable, "-c", _PROJECTOR_PIN], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": salt})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "34fb4ef957c902cf35145c92e93e3f858dcdf0e9d4a7896bb0644e986b54b13c"


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
    with pytest.raises(ContractViolation, match="radii must be positive"):
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
    fn = lambda us: line_batch(np.full(len(us), 0.4), np.ones(len(us)), np.zeros(len(us), dtype=bool))
    assert average_derivative_along_curve(fn, circle_polyline(0.5), 1e-6) == 0.0


def test_average_derivative_half_angle_closed_form():
    # |D(arg/2)| = 1 / (2 |u|) exactly
    for eta in (0.5, 0.1):
        v = average_derivative_along_curve(half_angle_batch, circle_polyline(eta), 1e-7)
        assert abs(v - 1.0 / (2.0 * eta)) < 0.01 / eta


def test_average_derivative_curve_hits_singularity():
    def left_half_undefined(us):
        return line_batch(reduce_mod_pi(us[:, 0]), np.ones(len(us)), us[:, 0] < 0)

    segment = [np.array([-0.1, 0.0]), np.array([0.1, 0.0])]
    with pytest.raises(CurveHitsSingularityError):
        average_derivative_along_curve(left_half_undefined, segment, 1e-7, nodes_per_segment=5)


def test_average_distance_to_point():
    seg = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
    assert abs(average_distance_to_point(seg, (0, 0)) - 1.5) < 1e-9


def test_polyline_averages_refuse_degenerate_curves():
    # one vertex, or two equal ones, has no length to average over
    p = np.array([0.3, 0.0])
    fn = lambda us: line_batch(np.full(len(us), 0.4), np.ones(len(us)), np.zeros(len(us), dtype=bool))
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
    libm = derivative_blowup_profile(half_angle_map(libm_atan2), (0, 0), etas, seed=0)
    numpy = derivative_blowup_profile(half_angle_map(np.arctan2), (0, 0), etas, seed=0)
    assert libm.flagged == numpy.flagged and not any(libm.flagged)
    assert libm.avg_distance == numpy.avg_distance
    assert abs(libm.fitted_exponent + 1.0) <= 1e-9
    assert abs(numpy.fitted_exponent + 1.0) <= 1e-9


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
    src = os.path.dirname(os.path.dirname(os.path.abspath(singlab.__file__)))
    done = subprocess.run([sys.executable, "-c", _MINIMIZE_SHIM_CHECK], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
