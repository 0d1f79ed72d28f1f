"""The concrete data maps and the calibration standard."""

import math

import numpy as np
import pytest

from singlab.datamaps import (
    DataMapSpec,
    MapKind,
    NotPerfectFitError,
    UndefinedReason,
    concentrated_preset,
    evaluate_batch,
    evaluate_with_standard_batch,
    oscillator_f,
    oscillator_g,
    oscillator_g_prime_abs,
    oscillator_t,
    standard_batch,
    uniform_preset,
)
from singlab.geometry import ContractViolation, DomainError, PlaneDataset, angle_distance

from oracles import LAD, LS, PC

OSCILLATOR = DataMapSpec(kind=MapKind.RADIAL_OSCILLATOR)

EQUILATERAL = PlaneDataset(
    [(math.cos(a), math.sin(a)) for a in (math.pi / 2, math.pi / 2 + 2 * math.pi / 3, math.pi / 2 + 4 * math.pi / 3)]
)


def rotate(dataset: PlaneDataset, phi: float) -> PlaneDataset:
    c, s = math.cos(phi), math.sin(phi)
    r = np.array([[c, -s], [s, c]])
    return PlaneDataset(dataset.points @ r.T)


# ---------------------------------------------------------------------------
# Least squares
# ---------------------------------------------------------------------------

def test_ls_perfect_diagonal():
    out = evaluate_batch(LS, [[(0, 0), (1, 1), (2, 2), (3, 3)]])
    assert out.defined[0]
    assert abs(out.value[0] - math.pi / 4) < 1e-12
    assert abs(out.gap[0] - math.sqrt(5)) < 1e-12


def test_ls_vertical_undefined():
    out = evaluate_batch(LS, [[(1, 0), (1, 1), (1, 2)]])
    assert not out.defined[0]
    assert out.reason[0] == UndefinedReason.COLLINEAR_PREDICTOR
    assert out.gap[0] == 0.0


def test_ls_normal_equations():
    out = evaluate_batch(LS, [[(0, 0), (1, 0), (2, 1)]])
    assert abs(out.value[0] - math.atan(0.5)) < 1e-12
    assert abs(out.gap[0] - math.sqrt(2)) < 1e-12


def test_ls_needs_two_points():
    with pytest.raises(ContractViolation):
        evaluate_batch(LS, [[(0, 0)]])


# ---------------------------------------------------------------------------
# Principal components
# ---------------------------------------------------------------------------

def test_pc_horizontal():
    out = evaluate_batch(PC, [[(1, 0), (-1, 0), (0, 0)]])
    assert out.defined[0]
    assert out.value[0] == 0.0
    assert abs(out.gap[0] - 2 / 3) < 1e-12


def test_pc_equilateral_tie():
    out = evaluate_batch(PC, EQUILATERAL.points[None])
    assert not out.defined[0]
    assert out.reason[0] == UndefinedReason.EIGENVALUE_TIE


def test_pc_against_lapack_oracle():
    pts = np.array([(0, 0), (2, 0), (0, 1)], dtype=float)
    out = evaluate_batch(PC, pts[None])
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / 3
    evals, evecs = np.linalg.eigh(cov)
    lead = evecs[:, -1]
    assert abs(out.gap[0] - (evals[1] - evals[0])) < 1e-12
    assert angle_distance(out.value[0], math.atan2(lead[1], lead[0]), math.pi) < 1e-12
    # closed form: gap = 2 sqrt(13) / 9 for this configuration
    assert abs(out.gap[0] - 2 * math.sqrt(13) / 9) < 1e-12


# ---------------------------------------------------------------------------
# Least absolute deviation
# ---------------------------------------------------------------------------

def lad_grid_oracle(points, lim=3.0, steps=401):
    """Dense grid search over (intercept, slope)."""
    pts = np.asarray(points, dtype=float)
    slopes = np.linspace(-lim, lim, steps)
    best = math.inf
    for a in np.linspace(-lim, lim, steps):
        objs = np.sum(np.abs(pts[None, :, 1] - a - np.outer(slopes, pts[:, 0])), axis=1)
        best = min(best, float(objs.min()))
    return best


def test_lad_enumeration_example():
    out = evaluate_batch(LAD, [[(0, 0), (1, 0), (2, 1)]])
    assert out.defined[0]
    assert abs(out.value[0] - math.atan(0.5)) < 1e-12
    assert abs(out.gap[0] - 0.5) < 1e-12
    # grid oracle confirms the enumerated optimum
    assert abs(lad_grid_oracle([(0, 0), (1, 0), (2, 1)]) - 0.5) < 2e-2


def test_lad_collinear_perfect_fit():
    out = evaluate_batch(LAD, [[(0, 1), (1, 4), (2, 7)]])
    assert out.defined[0]
    assert abs(out.value[0] - math.atan(3)) < 1e-12
    assert out.gap[0] == 0.0  # all candidates are the same line


def test_lad_v_configuration_is_defined():
    # The symmetric V has a unique optimum: the horizontal line through the
    # two top points wins (objective 1 versus 2 for the mirror candidates),
    # confirmed by the dense grid oracle.
    out = evaluate_batch(LAD, [[(-1, 1), (0, 0), (1, 1)]])
    assert out.defined[0]
    assert out.value[0] == 0.0
    assert abs(out.gap[0] - 1.0) < 1e-12
    assert abs(lad_grid_oracle([(-1, 1), (0, 0), (1, 1)]) - 1.0) < 2e-2


def test_lad_objective_tie():
    # two candidates with equal objective and different directions
    out = evaluate_batch(LAD, [[(0, 0), (1, 1), (1, -1)]])
    assert not out.defined[0]
    assert out.reason[0] == UndefinedReason.OBJECTIVE_TIE


def test_lad_all_vertical():
    out = evaluate_batch(LAD, [[(1, 0), (1, 1), (1, 2)]])
    assert not out.defined[0]
    assert out.reason[0] == UndefinedReason.COLLINEAR_PREDICTOR


# ---------------------------------------------------------------------------
# Augmented mean, on the angles of circle points
# ---------------------------------------------------------------------------

def unit(angle):
    """The circle point of an angle, (cos, sin)."""
    return [math.cos(angle), math.sin(angle)]


def test_augmented_mean_seventeen_points():
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * 17, w0=0.5)
    out = evaluate_batch(spec, [[math.pi / 2] * 17])
    assert out.defined[0]
    # cos(pi / 2) is 6.1e-17 in floating point
    np.testing.assert_allclose(unit(out.value[0]), [0.0, 1.0], atol=1e-15)
    assert abs(out.gap[0] - 16.5) < 1e-12


def test_augmented_mean_cancellation():
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,), w0=1.0)
    out = evaluate_batch(spec, [[math.pi / 2]])
    assert not out.defined[0]
    assert out.reason[0] == UndefinedReason.ZERO_RESULTANT


def test_augmented_mean_horizontal_pair():
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0, 1.0), w0=0.5)
    out = evaluate_batch(spec, [[0.0, math.pi]])
    assert out.defined[0]
    np.testing.assert_allclose(unit(out.value[0]), [0.0, -1.0], atol=1e-15)
    assert abs(out.gap[0] - 0.5) < 1e-12


def test_aug_mean_spec_validation():
    with pytest.raises(ContractViolation):
        DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0, -1.0), w0=0.5)
    with pytest.raises(ContractViolation):
        DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,), w0=0.5, aug_point=(0.5, 0.5))
    assert uniform_preset(4).w0 == 0.5
    assert concentrated_preset(4).w0 == 8.0


@pytest.mark.parametrize("params", [
    {"kind": MapKind.AUG_MEAN, "weights": (math.nan, 1.0), "w0": 0.5},
    {"kind": MapKind.AUG_MEAN, "weights": (1.0, math.inf), "w0": 0.5},
    {"kind": MapKind.AUG_MEAN, "weights": (), "w0": 0.5},
    {"kind": MapKind.AUG_MEAN, "weights": (1.0, 1.0), "w0": math.nan},
    {"kind": MapKind.DISK_DECISION, "radius": math.nan},
    {"kind": MapKind.DISK_DECISION, "radius": math.inf},
    {"kind": MapKind.DISK_DECISION, "radius": 1.0, "center": (math.nan, 0.0)},
    {"kind": MapKind.AUG_MEAN, "weights": (1.0,), "w0": 0.5, "aug_point": (math.nan, 0.0)},
    {"kind": MapKind.AUG_MEAN, "weights": (1.0,), "w0": 0.5, "aug_point": (0.6, 0.8, 0.0)},
    {"kind": MapKind.DISK_DECISION, "radius": 1.0, "center": (0.0, 0.0, 0.0)},
])
def test_spec_refuses_non_finite_or_empty_parameters(params):
    # each was accepted, and evaluate_batch then returned Defined rows with a
    # NaN value and a NaN or infinite gap, or (no weights) failed in the
    # kernel; a 3-vector augmentation point was cut to its first two
    # coordinates, and a 3-vector center failed in numpy broadcasting with a
    # plain ValueError
    with pytest.raises(ContractViolation):
        DataMapSpec(**params)


@pytest.mark.parametrize("center", [[0.0, 0.0], np.array([0.0, 0.0]), (0, 0)], ids=["list", "array", "ints"])
def test_disk_spec_stores_center_and_radius_as_floats(center):
    # a list center was kept as given: the spec was unhashable and unequal
    # to the same spec built with a tuple
    spec = DataMapSpec(kind=MapKind.DISK_DECISION, center=center, radius=1)
    built = DataMapSpec(kind=MapKind.DISK_DECISION, center=(0.0, 0.0), radius=1.0)
    assert spec == built and hash(spec) == hash(built)
    assert type(spec.center) is tuple and all(type(c) is float for c in spec.center)
    assert type(spec.radius) is float


@pytest.mark.parametrize("spec, row", [
    (LS, [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]]),
    (PC, [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]]),
    (LAD, [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]]),
    (uniform_preset(3), [0.0, 1.0, 2.0]),
    (DataMapSpec(kind=MapKind.DISK_DECISION, radius=0.5), [0.1, 0.2]),
    (OSCILLATOR, [0.1, 0.2]),
], ids=["ls", "pc", "lad", "aug_mean", "disk", "oscillator"])
@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_evaluate_batch_refuses_non_finite_inputs(spec, row, bad):
    # LS, PC, LAD and AUG_MEAN returned such a row as Defined, with a NaN
    # value; the last block of a many-block batch is checked too
    good = np.array(row, dtype=float)
    broken = good.copy()
    broken.flat[-1] = bad
    assert np.all(evaluate_batch(spec, np.stack([good, good])).reason == 0)
    for batch in (np.stack([good, broken]), np.concatenate([np.repeat(good[None], 20_000, axis=0), broken[None]])):
        with pytest.raises(ContractViolation, match="map inputs must be finite"):
            evaluate_batch(spec, batch)


# ---------------------------------------------------------------------------
# Disk decision
# ---------------------------------------------------------------------------

def test_disk_decision_examples():
    spec = DataMapSpec(kind=MapKind.DISK_DECISION, center=(0.0, 0.0), radius=0.5)
    out = evaluate_batch(spec, [(0, 0), (0.5, 0), (1, 1)])
    assert out.defined.all() and out.period is None
    assert out.value[0] == 1 and out.gap[0] == 0.5  # the center
    assert out.value[1] == 0 and out.gap[1] == 0.0  # the boundary
    assert out.value[2] == 0  # outside
    assert abs(out.gap[2] - (math.sqrt(2) - 0.5)) < 1e-12


# ---------------------------------------------------------------------------
# Radial oscillator
# ---------------------------------------------------------------------------

def test_oscillator_branch_points():
    assert oscillator_t(0) == 1.0
    assert abs(oscillator_t(1) - math.exp(1 - math.e)) < 1e-15
    assert oscillator_g(1.0) == 0.0
    assert abs(oscillator_g(oscillator_t(1)) - 1.0) < 1e-12
    assert abs(oscillator_g(oscillator_t(2)) - 0.0) < 1e-12


def test_oscillator_continuity_across_branches():
    for n in (1, 2):
        t = oscillator_t(n)
        for eps in (1e-9, 1e-7):
            assert abs(oscillator_g(t * (1 + eps)) - oscillator_g(t)) < 1e-5
            assert abs(oscillator_g(t * (1 - eps)) - oscillator_g(t)) < 1e-5


def test_oscillator_range_and_derivative():
    rng = np.random.default_rng(3)
    for t in rng.uniform(1e-6, 1.0, size=500):
        assert 0.0 <= oscillator_g(float(t)) <= 1.0
    # |g'| = 1 / (t |log(t/e)|) grows more slowly than 1/t
    assert abs(oscillator_g_prime_abs(1.0) - 1.0) < 1e-12
    t1 = oscillator_t(1)
    assert abs(oscillator_g_prime_abs(t1) - 1.0 / (t1 * math.e)) < 1e-12


def test_oscillator_eval():
    out = evaluate_batch(OSCILLATOR, [[1.0, 0.0], [0.0, 0.0]])
    assert out.defined[0] and out.value[0] == 0.0 and out.gap[0] == 1.0 and out.period is None
    assert not out.defined[1] and out.reason[1] == UndefinedReason.ORIGIN
    with pytest.raises(DomainError):
        evaluate_batch(OSCILLATOR, [[1.5, 0.0]])


# ---------------------------------------------------------------------------
# Perfect-fit standard and calibration
# ---------------------------------------------------------------------------

def test_perfect_fit_standard_examples():
    out = standard_batch([[(-1, 0), (0, 0), (1, 0)], [(0, -1), (0, 0), (0, 1)]])
    assert out.value[0] == 0.0
    assert abs(out.value[1] - math.pi / 2) < 1e-15
    assert out.period == math.pi
    with pytest.raises(NotPerfectFitError):
        standard_batch([[(0, 0), (1, 1), (2, 1)]])
    with pytest.raises(NotPerfectFitError):
        standard_batch([[(1, 1), (1, 1), (1, 1)]])  # no unique line


def test_augmented_mean_is_not_patched_at_circle_perfect_fits():
    # the raw augmented mean is continuous through a circle perfect fit; the
    # standard there (the common point, with its own gap) would make it jump
    out = evaluate_batch(uniform_preset(3), [(0.0, 0.0, 0.0), (0.0, 0.0, 1e-9)])
    assert np.all(np.abs(out.value + 0.165149) < 1e-6) and np.all(np.abs(out.gap - 3.0414) < 1e-4)


def random_collinear(rng, n=3, force_theta=None):
    theta = force_theta if force_theta is not None else rng.uniform(0, math.pi)
    direction = np.array([math.cos(theta), math.sin(theta)])
    base = rng.standard_normal(2)
    ts = np.sort(rng.standard_normal(n) * 2)
    while np.min(np.diff(ts)) < 1e-3:
        ts = np.sort(rng.standard_normal(n) * 2)
    return PlaneDataset(base[None, :] + ts[:, None] * direction[None, :]), theta


def test_calibration_all_fitters():
    # every fitter through the standard evaluator reproduces Sigma on
    # collinear data, including exactly vertical lines; the raw formulas
    # agree wherever the abscissae are distinct
    rng = np.random.default_rng(11)
    forced = [math.pi / 2 if trial % 10 == 0 else 0.0 if trial % 10 == 5 else None for trial in range(300)]
    points = np.stack([random_collinear(rng, force_theta=force)[0].points for force in forced])
    vertical = np.array([force == math.pi / 2 for force in forced])  # exact vertical
    sigma = standard_batch(points).value
    for spec in (LS, PC, LAD):
        out = evaluate_with_standard_batch(spec, points)
        assert out.defined.all(), (spec.kind, points[~out.defined])
        assert np.all(angle_distance(out.value, sigma, math.pi) <= 1e-9)
        raw = evaluate_batch(spec, points[~vertical])
        assert raw.defined.all()
        assert np.all(angle_distance(raw.value, sigma[~vertical], math.pi) <= 1e-9)


def test_continuity_off_singular_set():
    # small perturbations of comfortably-defined datasets move features a
    # proportionally small amount
    rng = np.random.default_rng(12)
    for spec in (LS, PC, LAD):
        checked = 0
        while checked < 250:
            pts = rng.standard_normal((4, 2))
            out = evaluate_batch(spec, pts[None])
            if not out.defined[0] or out.gap[0] <= 0.1:
                continue
            pert = rng.standard_normal((4, 2))
            pert *= 1e-6 / np.linalg.norm(pert)
            out2 = evaluate_batch(spec, (pts + pert)[None])
            assert out2.defined[0]
            assert angle_distance(out.value[0], out2.value[0], math.pi) <= 1e-3
            checked += 1
    aug = uniform_preset(4)
    checked = 0
    while checked < 250:
        ang = rng.uniform(0, 2 * math.pi, 4)
        out = evaluate_batch(aug, ang[None])
        if not out.defined[0] or out.gap[0] <= 0.1:
            continue
        ang2 = ang + rng.standard_normal(4) * 1e-7
        out2 = evaluate_batch(aug, ang2[None])
        assert angle_distance(out.value[0], out2.value[0], 2 * math.pi) <= 1e-3
        checked += 1


def test_rotation_equivariance():
    rng = np.random.default_rng(13)
    # on collinear inputs, all three fitters follow Sigma, which rotates
    for _ in range(100):
        ds, theta = random_collinear(rng)
        phi = rng.uniform(0, math.pi)
        rotated = rotate(ds, phi)
        for spec in (LS, PC, LAD):
            f0, f1 = evaluate_with_standard_batch(spec, [ds.points, rotated.points]).value
            assert angle_distance(f0 + phi, f1, math.pi) <= 1e-9
    # PC is rotation-equivariant on all defined inputs
    for _ in range(200):
        ds = PlaneDataset(rng.standard_normal((4, 2)))
        out = evaluate_batch(PC, ds.points[None])
        if not out.defined[0]:
            continue
        phi = rng.uniform(0, math.pi)
        out_r = evaluate_batch(PC, rotate(ds, phi).points[None])
        assert out_r.defined[0]
        assert angle_distance(out.value[0] + phi, out_r.value[0], math.pi) <= 1e-9


def test_gap_zero_iff_on_singular_surface():
    # on-surface datasets are Undefined with gap 0
    on_surface = [
        (LS, PlaneDataset([(1, 0), (1, 1), (1, 2)])),
        (PC, EQUILATERAL),
        (LAD, PlaneDataset([(0, 0), (1, 1), (1, -1)])),
    ]
    for spec, ds in on_surface:
        out = evaluate_batch(spec, ds.points[None])
        assert not out.defined[0] and out.gap[0] == 0.0
    zero = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,), w0=1.0)
    out = evaluate_batch(zero, [[math.pi / 2]])
    assert not out.defined[0] and out.gap[0] == 0.0
    # generic datasets are Defined with strictly positive gap
    rng = np.random.default_rng(14)
    points = rng.standard_normal((200, 4, 2))
    for spec in (LS, PC, LAD):
        out = evaluate_batch(spec, points)
        assert out.defined.all() and np.all(out.gap > 0.0)


@pytest.mark.parametrize("make, error, message", [
    pytest.param(lambda: DataMapSpec(kind=MapKind.AUG_MEAN, w0=0.5),
                 ContractViolation, "AUG_MEAN needs weights and w0", id="aug-mean-without-weights"),
    pytest.param(lambda: DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0, 1.0)),
                 ContractViolation, "AUG_MEAN needs weights and w0", id="aug-mean-without-w0"),
    pytest.param(lambda: oscillator_f([0.5, 1.5]), DomainError, "f is defined on (0, 1], got 1.5", id="f-above-1"),
    pytest.param(lambda: oscillator_f(0.0), DomainError, "f is defined on (0, 1], got 0.0", id="f-at-0"),
    pytest.param(lambda: oscillator_t(-1), DomainError, "branch index must be nonnegative", id="t-negative-branch"),
    pytest.param(lambda: oscillator_g_prime_abs(0.0), DomainError, "g' is defined on (0, 1], got 0.0",
                 id="g-prime-at-0"),
    pytest.param(lambda: oscillator_g_prime_abs(1.5), DomainError, "g' is defined on (0, 1], got 1.5",
                 id="g-prime-above-1"),
    pytest.param(lambda: standard_batch(np.zeros((3, 2))), ContractViolation,
                 "a plane dataset batch has shape (m, n, 2), got (3, 2)", id="standard-of-a-non-dataset"),
])
def test_datamaps_refuse_bad_input_by_name(make, error, message):
    with pytest.raises(error) as raised:
        make()
    assert type(raised.value) is error and str(raised.value) == message
