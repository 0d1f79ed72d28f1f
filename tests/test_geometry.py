"""Geometry primitives: metrics, unit-ball volumes, appendix utilities."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import singlab
from singlab.datamaps import DataMapSpec, MapKind, eval_perfect_fit_standard
from singlab.geometry import (
    CircleDataset,
    CirclePoint,
    ContractViolation,
    Decision,
    DegenerateSegmentError,
    DomainError,
    LineDirection,
    PlaneDataset,
    ScalarValue,
    angle_distance,
    dataset_distance,
    feature_distance,
    loglog_fit,
    omega_s,
    segment_average_norm,
    sorted_eigenvalues,
    wrap_increments,
)
from singlab.cli import _synthetic_batch
from singlab.measure import box_count_dimension, greedy_net, point_distance_fn, segment_distance_fn, tube_volume
from singlab.metrics import (
    OscillationProfile,
    _segments,
    average_derivative_along_curve,
    classify_severity,
    derivative_blowup_profile,
    oscillator_arc,
)

# Frozen from a 10^6-step Riemann-sum oracle (test_riemann_oracle cross-checks).
SEG_AVG_UNIT_DIAGONAL = 0.8116126200701153


def test_dataset_distance_examples():
    a = PlaneDataset([(0, 0), (1, 2), (3, -1)])
    assert dataset_distance(a, a) == 0.0
    assert dataset_distance(PlaneDataset([(0, 0)]), PlaneDataset([(3, 4)])) == 5.0
    c1 = CircleDataset([(1, 0)])
    c2 = CircleDataset([(0, 1)])
    assert abs(dataset_distance(c1, c2) - math.pi / 2) < 1e-15


def test_dataset_distance_contract_errors():
    with pytest.raises(ContractViolation):
        dataset_distance(PlaneDataset([(0, 0)]), PlaneDataset([(0, 0), (1, 1)]))
    with pytest.raises(ContractViolation):
        dataset_distance(PlaneDataset([(1, 0)]), CircleDataset([(1, 0)]))


def test_dataset_validation():
    with pytest.raises(ContractViolation):
        PlaneDataset([(0, float("nan"))])
    with pytest.raises(ContractViolation):
        CircleDataset([(0.5, 0.5)])
    CircleDataset([(math.cos(0.3), math.sin(0.3))])


def test_feature_distance_examples():
    assert feature_distance(LineDirection(0.1), LineDirection(0.1)) == 0.0
    assert abs(feature_distance(LineDirection(0), LineDirection(3 * math.pi / 4)) - math.pi / 4) < 1e-15
    assert feature_distance(Decision(0), Decision(1)) == 1.0
    assert feature_distance(Decision(1), Decision(1)) == 0.0
    assert abs(feature_distance(CirclePoint((1, 0)), CirclePoint((0, 1))) - math.pi / 2) < 1e-12
    assert feature_distance(ScalarValue(0.25), ScalarValue(1.0)) == 0.75
    with pytest.raises(ContractViolation):
        feature_distance(LineDirection(0), Decision(0))


@pytest.mark.parametrize("t", [1e-9, 1e-7, 1e-5])
@pytest.mark.parametrize("base", [0.0, 0.7, -2.0])
def test_circle_distances_keep_their_digits_near_zero(base, t):
    # arccos of a dot product reads 1.49e-8 for points 1e-9 apart; the
    # difference of their angles is exact to the last bits
    def unit(a):
        return (math.cos(a), math.sin(a))

    assert abs(feature_distance(CirclePoint(unit(base)), CirclePoint(unit(base + t))) - t) <= 1e-15
    a = CircleDataset([unit(0.3), unit(base), unit(-1.1)])
    b = CircleDataset([unit(0.3), unit(base + t), unit(-1.1)])
    assert abs(dataset_distance(a, b) - t) <= 1e-15


def test_line_direction_reduced_mod_pi():
    assert abs(LineDirection(math.pi + 0.3).theta - 0.3) < 1e-12
    assert abs(LineDirection(-0.3).theta - (math.pi - 0.3)) < 1e-12


def test_wrapped_step_length_is_angle_distance():
    # the winding lift tests an edge short by the length of its wrapped
    # step; that must be the angle distance bit for bit, ties at half a
    # period and steps beyond one period included
    rng = np.random.default_rng(5)
    for period in (math.pi, 2.0 * math.pi):
        a = rng.uniform(0.0, period, 4000)
        b = np.concatenate([rng.uniform(0.0, period, 2000), rng.uniform(-3 * period, 3 * period, 1000),
                            a[3000:] + rng.choice([0.25, 0.5, 0.75, 1.0, -0.5], 1000) * period])
        step = wrap_increments(b - a, period)
        assert np.array_equal(np.abs(step), angle_distance(b, a, period))
        assert np.all((-0.5 * period < step) & (step <= 0.5 * period))


def test_metric_axioms_line_directions():
    rng = np.random.default_rng(5)
    thetas = rng.uniform(-10, 10, size=(10_000, 3))
    for t1, t2, t3 in thetas:
        f1, f2, f3 = LineDirection(t1), LineDirection(t2), LineDirection(t3)
        d12 = feature_distance(f1, f2)
        d21 = feature_distance(f2, f1)
        assert d12 == d21
        assert d12 <= feature_distance(f1, f3) + feature_distance(f3, f2) + 1e-12


def test_metric_axioms_datasets():
    rng = np.random.default_rng(6)
    n = 3
    for _ in range(2_000):
        a, b, c = (PlaneDataset(rng.standard_normal((n, 2))) for _ in range(3))
        dab = dataset_distance(a, b)
        assert dab == dataset_distance(b, a)
        assert dab <= dataset_distance(a, c) + dataset_distance(c, b) + 1e-12
    for _ in range(2_000):
        angs = rng.uniform(0, 2 * math.pi, size=(3, n))
        a, b, c = (
            CircleDataset(np.stack([np.cos(t), np.sin(t)], axis=1)) for t in angs
        )
        dab = dataset_distance(a, b)
        assert dab == dataset_distance(b, a)
        assert dab <= dataset_distance(a, c) + dataset_distance(c, b) + 1e-12


def test_omega_closed_forms():
    assert abs(omega_s(0) - 1.0) <= 1e-12
    assert abs(omega_s(1) - 2.0) <= 1e-12
    assert abs(omega_s(2) - math.pi) <= 1e-12
    assert abs(omega_s(3) - 4 * math.pi / 3) <= 1e-12
    # continuous in s: small increments move the value slightly
    assert abs(omega_s(1.5) - omega_s(1.5 + 1e-9)) < 1e-7
    with pytest.raises(DomainError):
        omega_s(-0.1)


def test_segment_average_norm_examples():
    assert abs(segment_average_norm((1, 0), (2, 0)) - 1.5) < 1e-9
    assert abs(segment_average_norm((-1, 0), (1, 0)) - 0.5) < 1e-9
    assert abs(segment_average_norm((1, 0), (0, 1)) - SEG_AVG_UNIT_DIAGONAL) < 1e-8
    with pytest.raises(DegenerateSegmentError):
        segment_average_norm((1, 2), (1, 2))


def test_riemann_oracle():
    # independent midpoint Riemann sum for the pinned diagonal value
    n = 200_000
    u = (np.arange(n) + 0.5) / n
    pts = np.stack([1 - u, u], axis=1)
    riemann = float(np.linalg.norm(pts, axis=1).mean())
    assert abs(riemann - SEG_AVG_UNIT_DIAGONAL) < 1e-9


def _quad_average_norm(x, y):
    """Reference: adaptive quadrature of |x + s u| over the arclength."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    length = float(np.linalg.norm(y - x))
    u = (y - x) / length
    t_star = float(-np.dot(x, u))
    val, _ = quad(lambda s: float(np.linalg.norm(x + s * u)), 0.0, length, epsabs=0.0,
                  epsrel=1e-12, points=[t_star] if 0.0 < t_star < length else None, limit=200)
    return val / length


def test_segment_average_norm_matches_quadrature():
    rng = np.random.default_rng(17)
    for _ in range(300):
        x = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3)
        y = rng.standard_normal(2) * 10.0 ** rng.uniform(-3, 3)
        ref = _quad_average_norm(x, y)
        assert abs(segment_average_norm(x, y) - ref) <= 1e-9 * ref
    for n in (1, 2):
        arc = oscillator_arc(n)
        for a, b in zip(arc, arc[1:]):
            ref = _quad_average_norm(a, b)
            assert abs(segment_average_norm(a, b) - ref) <= 1e-12 * ref


def test_cli_import_leaves_out_quadrature():
    # start-up loads no scipy: the CLI and every layer module import without
    # putting any scipy* module in sys.modules
    src = os.path.dirname(os.path.dirname(singlab.__file__))
    layers = ("cli", "slices", "datamaps", "topology", "geometry", "metrics", "measure")
    code = (f"import sys, {', '.join(f'singlab.{layer}' for layer in layers)}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_segment_average_norm_lower_bound():
    rng = np.random.default_rng(7)
    for dim in (2, 6):
        for _ in range(5_000):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            if np.allclose(x, y):
                continue
            avg = segment_average_norm(x, y)
            bound = max(np.linalg.norm(x), np.linalg.norm(y)) / 8.0
            assert avg >= bound


def test_segment_primitives_call_no_blas(monkeypatch):
    # a 1-D np.linalg.norm or np.dot is a BLAS call, whose bits depend on the
    # OpenBLAS kernels loaded; these primitives add their sums in order
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call")

    monkeypatch.setattr(np, "dot", refuse)
    monkeypatch.setattr(np.linalg, "norm", refuse)
    assert segment_average_norm((3.0, 0.0), (3.0, 4.0)) > 0.0
    assert [seg for _, _, seg in _segments([(0.0, 0.0), (3.0, 4.0), (3.0, 4.0), (3.0, 0.0)])] == [5.0, 4.0]
    assert segment_distance_fn((0.0, 0.0), (2.0, 0.0))(np.array([[1.0, 1.0], [3.0, 0.0]])).tolist() == [1.0, 1.0]


def test_unit_norms_and_dataset_distance_call_no_blas(monkeypatch):
    # the unit-norm checks, the all-equal circle dataset's standard and the
    # plane dataset distance add their squares by math.fsum: np.dot, and an
    # np.linalg.norm over the whole array (a BLAS dot), refuse to run here
    def refuse(*args, **kwargs):
        raise AssertionError("BLAS call")

    norm = np.linalg.norm

    def norm_along_axis(x, ord=None, axis=None, keepdims=False):
        if axis is None:
            refuse()
        return norm(x, ord, axis, keepdims)

    monkeypatch.setattr(np, "dot", refuse)
    monkeypatch.setattr(np.linalg, "norm", norm_along_axis)
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0, 1.0), w0=0.5, aug_point=(0.6, 0.8))
    assert spec.aug_point == (0.6, 0.8)
    assert CirclePoint((0.6, 0.8)).angle == math.atan2(0.8, 0.6)
    u = eval_perfect_fit_standard(CircleDataset([(0.6, 0.8)] * 3)).u
    assert u.tolist() == [0.6 / math.sqrt(math.fsum([0.36, 0.64])), 0.8 / math.sqrt(math.fsum([0.36, 0.64]))]
    assert dataset_distance(PlaneDataset([(0, 0), (1, 2)]), PlaneDataset([(3, 4), (1, 2)])) == 5.0


def _average_slope(x, y, w):
    """The weighted slope by np.average, as tube_volume computed it before
    every fit became loglog_fit."""
    xm = np.average(x, weights=w)
    ym = np.average(y, weights=w)
    return float(np.sum(w * (x - xm) * (y - ym)) / np.sum(w * (x - xm) ** 2))


def test_loglog_fit_recovers_a_line_on_dyadic_points():
    # every sum and quotient is exact on dyadic points, so the slope is too
    x = np.arange(8) / 4.0
    y = -1.5 * x + 0.25
    assert loglog_fit(x, y) == -1.5
    assert loglog_fit(x, y, weights=[1, 2, 3, 4, 4, 3, 2, 1]) == -1.5
    assert loglog_fit(x.tolist(), (3.0 * x).tolist()) == 3.0


def test_loglog_fit_is_the_average_formula_bit_for_bit():
    rng = np.random.default_rng(25)
    for m in (2, 3, 13, 700, 4_800):
        x = np.log(rng.uniform(1e-4, 1.0, m))
        y = 2.0 * x + rng.standard_normal(m)
        hits = rng.integers(1, 10**6, m).astype(float)
        spread = rng.uniform(0.1, 10.0, m)
        for w in (hits, spread):
            assert loglog_fit(x, y, weights=w) == _average_slope(x, y, w)
        assert loglog_fit(x, y) == loglog_fit(x, y, weights=np.ones(m)) == _average_slope(x, y, np.ones(m))


def test_loglog_fit_reads_nan_without_two_distinct_abscissae():
    assert math.isnan(loglog_fit([], []))
    assert math.isnan(loglog_fit([0.5], [1.0]))
    assert math.isnan(loglog_fit([0.1] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]))
    assert math.isnan(loglog_fit([0.1] * 3, [1.0, 2.0, 3.0], weights=[1.0, 2.0, 3.0]))


def test_loglog_fit_loads_no_numpy_ma():
    # np.unique on floats would load numpy.ma (~1.6 MB of RSS); a first load
    # at the numpy import itself is not the fit's
    src = os.path.dirname(os.path.dirname(singlab.__file__))
    code = ("import sys; from singlab.geometry import loglog_fit; at_import = 'numpy.ma' in sys.modules; "
            "loglog_fit([1.0, 2.0, 2.0], [0.0, 1.0, 3.0]); loglog_fit([1.0, 2.0], [0.0, 1.0], weights=[2, 3]); "
            "loglog_fit([1.0, 1.0], [0.0, 1.0]); print(at_import or 'numpy.ma' not in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "True"


def test_sorted_eigenvalues_examples():
    np.testing.assert_allclose(sorted_eigenvalues(np.diag([2 / 3, 0])), [2 / 3, 0])
    np.testing.assert_allclose(sorted_eigenvalues(np.eye(2)), [1, 1])
    np.testing.assert_allclose(sorted_eigenvalues([[0, 1], [1, 0]]), [1, -1])
    with pytest.raises(ContractViolation):
        sorted_eigenvalues([[0, 1], [1.001, 0]])


def test_sorted_eigenvalues_matches_lapack():
    rng = np.random.default_rng(8)
    for q in (2, 3, 5):
        for _ in range(200):
            a = rng.standard_normal((q, q))
            m = (a + a.T) / 2
            np.testing.assert_allclose(
                sorted_eigenvalues(m), np.linalg.eigvalsh(m)[::-1], atol=1e-10
            )


def test_eigenvalue_weyl_lipschitz():
    # |lambda_i(M+E) - lambda_i(M)| <= ||E||_F, the quantitative form of
    # eigenvalue continuity
    rng = np.random.default_rng(9)
    for q, trials in ((2, 8_000), (5, 2_000)):
        for _ in range(trials):
            a = rng.standard_normal((q, q))
            m = (a + a.T) / 2
            e = rng.standard_normal((q, q)) * rng.choice([1e-3, 0.1, 1.0])
            e = (e + e.T) / 2
            lam = sorted_eigenvalues(m)
            lam_p = sorted_eigenvalues(m + e)
            assert np.max(np.abs(lam_p - lam)) <= np.linalg.norm(e, "fro") + 1e-10


_PROFILE = OscillationProfile(radii=(0.1, 0.01, 0.001), diameters=(1.0, 1.0, 1.0), samples_per_radius=16, seed=0)
_SIZED = {
    "greedy_net(delta)": lambda size: greedy_net(np.zeros((3, 2)), size),
    "box_count_dimension(mesh_sizes)": lambda size: box_count_dimension(
        np.array([[0.5, 0.5]]), (0.0, 0.0), (1.0, 1.0), [0.1, size]),
    "tube_volume(deltas)": lambda size: tube_volume(
        point_distance_fn((0.5, 0.5)), (0.0, 0.0), (1.0, 1.0), [0.1, size], 10**4, 0),
    "derivative_blowup_profile(etas)": lambda size: derivative_blowup_profile(_synthetic_batch, (0.0, 0.0), [size]),
    "classify_severity(mesh)": lambda size: classify_severity(_PROFILE, size),
    "average_derivative_along_curve(h_fd)": lambda size: average_derivative_along_curve(
        _synthetic_batch, [(0.1, 0.1), (0.2, 0.3)], h_fd=size),
}


@pytest.mark.parametrize("size", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", sorted(_SIZED))
def test_every_size_must_be_finite_and_positive(call, size):
    # one check for every size: a NaN mesh read UNDECIDED and an infinite
    # one NON_SEVERE, and a NaN h_fd averaged to NaN
    with pytest.raises(ContractViolation, match="must be finite and positive"):
        _SIZED[call](size)
