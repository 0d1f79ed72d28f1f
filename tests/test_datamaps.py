"""The concrete data maps and the calibration standard."""

import math

import numpy as np
import pytest

from singlab.datamaps import (
    DataMapSpec,
    EvalOutcome,
    MapKind,
    NotPerfectFitError,
    UndefinedReason,
    concentrated_preset,
    eval_perfect_fit_standard,
    evaluate,
    evaluate_batch,
    evaluate_with_standard,
    oscillator_g,
    oscillator_g_prime_abs,
    oscillator_t,
    uniform_preset,
)
from singlab.geometry import (
    CircleDataset,
    CirclePoint,
    ContractViolation,
    DomainError,
    LineDirection,
    PlaneDataset,
    feature_distance,
)

LS = DataMapSpec(kind=MapKind.LS_LINE)
PC = DataMapSpec(kind=MapKind.PC_LINE)
LAD = DataMapSpec(kind=MapKind.LAD_LINE)
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
    out = evaluate(LS, PlaneDataset([(0, 0), (1, 1), (2, 2), (3, 3)]))
    assert out.defined
    assert abs(out.feature.theta - math.pi / 4) < 1e-12
    assert abs(out.gap - math.sqrt(5)) < 1e-12


def test_ls_vertical_undefined():
    out = evaluate(LS, PlaneDataset([(1, 0), (1, 1), (1, 2)]))
    assert not out.defined
    assert out.reason is UndefinedReason.COLLINEAR_PREDICTOR
    assert out.gap == 0.0


def test_ls_normal_equations():
    out = evaluate(LS, PlaneDataset([(0, 0), (1, 0), (2, 1)]))
    assert abs(out.feature.theta - math.atan(0.5)) < 1e-12
    assert abs(out.gap - math.sqrt(2)) < 1e-12


def test_ls_needs_two_points():
    with pytest.raises(ContractViolation):
        evaluate(LS, PlaneDataset([(0, 0)]))


# ---------------------------------------------------------------------------
# Principal components
# ---------------------------------------------------------------------------

def test_pc_horizontal():
    out = evaluate(PC, PlaneDataset([(1, 0), (-1, 0), (0, 0)]))
    assert out.defined
    assert out.feature.theta == 0.0
    assert abs(out.gap - 2 / 3) < 1e-12


def test_pc_equilateral_tie():
    out = evaluate(PC, EQUILATERAL)
    assert not out.defined
    assert out.reason is UndefinedReason.EIGENVALUE_TIE


def test_pc_against_lapack_oracle():
    pts = np.array([(0, 0), (2, 0), (0, 1)], dtype=float)
    out = evaluate(PC, PlaneDataset(pts))
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / 3
    evals, evecs = np.linalg.eigh(cov)
    lead = evecs[:, -1]
    assert abs(out.gap - (evals[1] - evals[0])) < 1e-12
    assert feature_distance(out.feature, LineDirection(math.atan2(lead[1], lead[0]))) < 1e-12
    # closed form: gap = 2 sqrt(13) / 9 for this configuration
    assert abs(out.gap - 2 * math.sqrt(13) / 9) < 1e-12


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
    out = evaluate(LAD, PlaneDataset([(0, 0), (1, 0), (2, 1)]))
    assert out.defined
    assert abs(out.feature.theta - math.atan(0.5)) < 1e-12
    assert abs(out.gap - 0.5) < 1e-12
    # grid oracle confirms the enumerated optimum
    assert abs(lad_grid_oracle([(0, 0), (1, 0), (2, 1)]) - 0.5) < 2e-2


def test_lad_collinear_perfect_fit():
    out = evaluate(LAD, PlaneDataset([(0, 1), (1, 4), (2, 7)]))
    assert out.defined
    assert abs(out.feature.theta - math.atan(3)) < 1e-12
    assert out.gap == 0.0  # all candidates are the same line


def test_lad_v_configuration_is_defined():
    # The symmetric V has a unique optimum: the horizontal line through the
    # two top points wins (objective 1 versus 2 for the mirror candidates),
    # confirmed by the dense grid oracle.
    out = evaluate(LAD, PlaneDataset([(-1, 1), (0, 0), (1, 1)]))
    assert out.defined
    assert out.feature.theta == 0.0
    assert abs(out.gap - 1.0) < 1e-12
    assert abs(lad_grid_oracle([(-1, 1), (0, 0), (1, 1)]) - 1.0) < 2e-2


def test_lad_objective_tie():
    # two candidates with equal objective and different directions
    out = evaluate(LAD, PlaneDataset([(0, 0), (1, 1), (1, -1)]))
    assert not out.defined
    assert out.reason is UndefinedReason.OBJECTIVE_TIE


def test_lad_all_vertical():
    out = evaluate(LAD, PlaneDataset([(1, 0), (1, 1), (1, 2)]))
    assert not out.defined
    assert out.reason is UndefinedReason.COLLINEAR_PREDICTOR


# ---------------------------------------------------------------------------
# Augmented mean
# ---------------------------------------------------------------------------

def test_augmented_mean_seventeen_points():
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * 17, w0=0.5)
    out = evaluate(spec, CircleDataset([(0.0, 1.0)] * 17))
    assert out.defined
    # the map reads angles, and cos(pi / 2) is 6.1e-17 in floating point
    np.testing.assert_allclose(out.feature.u, [0.0, 1.0], atol=1e-15)
    assert abs(out.gap - 16.5) < 1e-12


def test_augmented_mean_cancellation():
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,), w0=1.0)
    out = evaluate(spec, CircleDataset([(0.0, 1.0)]))
    assert not out.defined
    assert out.reason is UndefinedReason.ZERO_RESULTANT


def test_augmented_mean_horizontal_pair():
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0, 1.0), w0=0.5)
    out = evaluate(spec, CircleDataset([(1.0, 0.0), (-1.0, 0.0)]))
    assert out.defined
    np.testing.assert_allclose(out.feature.u, [0.0, -1.0], atol=1e-15)
    assert abs(out.gap - 0.5) < 1e-12


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
    center = evaluate(spec, (0, 0))
    assert center.feature.bit == 1 and center.gap == 0.5
    boundary = evaluate(spec, (0.5, 0))
    assert boundary.feature.bit == 0 and boundary.gap == 0.0
    outside = evaluate(spec, (1, 1))
    assert outside.feature.bit == 0
    assert abs(outside.gap - (math.sqrt(2) - 0.5)) < 1e-12


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
    out = evaluate(OSCILLATOR, np.array([1.0, 0.0]))
    assert out.defined and out.feature.value == 0.0 and out.gap == 1.0
    origin = evaluate(OSCILLATOR, np.array([0.0, 0.0]))
    assert not origin.defined and origin.reason is UndefinedReason.ORIGIN
    with pytest.raises(DomainError):
        evaluate(OSCILLATOR, np.array([1.5, 0.0]))


# ---------------------------------------------------------------------------
# Perfect-fit standard and calibration
# ---------------------------------------------------------------------------

def test_perfect_fit_standard_examples():
    assert eval_perfect_fit_standard(PlaneDataset([(-1, 0), (0, 0), (1, 0)])).theta == 0.0
    vert = eval_perfect_fit_standard(PlaneDataset([(0, -1), (0, 0), (0, 1)]))
    assert abs(vert.theta - math.pi / 2) < 1e-15
    common = eval_perfect_fit_standard(CircleDataset([(0.0, 1.0)] * 5))
    np.testing.assert_allclose(common.u, [0.0, 1.0])
    with pytest.raises(NotPerfectFitError):
        eval_perfect_fit_standard(PlaneDataset([(0, 0), (1, 1), (2, 1)]))
    with pytest.raises(NotPerfectFitError):
        eval_perfect_fit_standard(PlaneDataset([(1, 1), (1, 1), (1, 1)]))  # no unique line


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
    specs = (LS, PC, LAD)
    for trial in range(300):
        force = None
        if trial % 10 == 0:
            force = math.pi / 2  # exact vertical
        elif trial % 10 == 5:
            force = 0.0
        ds, theta = random_collinear(rng, force_theta=force)
        sigma = eval_perfect_fit_standard(ds)
        for spec in specs:
            out = evaluate_with_standard(spec, ds)
            assert out.defined, (spec.kind, ds.points)
            assert feature_distance(out.feature, sigma) <= 1e-9
            if force != math.pi / 2:
                raw = evaluate(spec, ds)
                assert raw.defined
                assert feature_distance(raw.feature, sigma) <= 1e-9


def test_continuity_off_singular_set():
    # small perturbations of comfortably-defined datasets move features a
    # proportionally small amount
    rng = np.random.default_rng(12)
    for spec in (LS, PC, LAD):
        checked = 0
        while checked < 250:
            ds = PlaneDataset(rng.standard_normal((4, 2)))
            out = evaluate(spec, ds)
            if not out.defined or out.gap <= 0.1:
                continue
            pert = rng.standard_normal((4, 2))
            pert *= 1e-6 / np.linalg.norm(pert)
            out2 = evaluate(spec, PlaneDataset(ds.points + pert))
            assert out2.defined
            assert feature_distance(out.feature, out2.feature) <= 1e-3
            checked += 1
    aug = uniform_preset(4)
    checked = 0
    while checked < 250:
        ang = rng.uniform(0, 2 * math.pi, 4)
        ds = CircleDataset(np.stack([np.cos(ang), np.sin(ang)], axis=1))
        out = evaluate(aug, ds)
        if not out.defined or out.gap <= 0.1:
            continue
        ang2 = ang + rng.standard_normal(4) * 1e-7
        out2 = evaluate(aug, CircleDataset(np.stack([np.cos(ang2), np.sin(ang2)], axis=1)))
        assert feature_distance(out.feature, out2.feature) <= 1e-3
        checked += 1


def test_rotation_equivariance():
    rng = np.random.default_rng(13)
    # on collinear inputs, all three fitters follow Sigma, which rotates
    for _ in range(100):
        ds, theta = random_collinear(rng)
        phi = rng.uniform(0, math.pi)
        rotated = rotate(ds, phi)
        for spec in (LS, PC, LAD):
            f0 = evaluate_with_standard(spec, ds).feature
            f1 = evaluate_with_standard(spec, rotated).feature
            assert feature_distance(LineDirection(f0.theta + phi), f1) <= 1e-9
    # PC is rotation-equivariant on all defined inputs
    for _ in range(200):
        ds = PlaneDataset(rng.standard_normal((4, 2)))
        out = evaluate(PC, ds)
        if not out.defined:
            continue
        phi = rng.uniform(0, math.pi)
        out_r = evaluate(PC, rotate(ds, phi))
        assert out_r.defined
        assert feature_distance(LineDirection(out.feature.theta + phi), out_r.feature) <= 1e-9


def test_gap_zero_iff_on_singular_surface():
    # on-surface datasets are Undefined with gap 0
    on_surface = [
        (LS, PlaneDataset([(1, 0), (1, 1), (1, 2)])),
        (PC, EQUILATERAL),
        (LAD, PlaneDataset([(0, 0), (1, 1), (1, -1)])),
    ]
    for spec, ds in on_surface:
        out = evaluate(spec, ds)
        assert not out.defined and out.gap == 0.0
    zero = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,), w0=1.0)
    out = evaluate(zero, CircleDataset([(0.0, 1.0)]))
    assert not out.defined and out.gap == 0.0
    # generic datasets are Defined with strictly positive gap
    rng = np.random.default_rng(14)
    for _ in range(200):
        ds = PlaneDataset(rng.standard_normal((4, 2)))
        for spec in (LS, PC, LAD):
            out = evaluate(spec, ds)
            assert out.defined and out.gap > 0.0


def test_outcome_contract():
    with pytest.raises(ContractViolation):
        EvalOutcome(feature=None, gap=0.0, reason=None)
    with pytest.raises(ContractViolation):
        EvalOutcome(feature=LineDirection(0), gap=-1.0)
    with pytest.raises(ContractViolation):
        EvalOutcome(feature=None, gap=0.5, reason=UndefinedReason.ORIGIN)

