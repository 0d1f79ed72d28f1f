"""Geometry primitives: metrics, unit-ball volumes, appendix utilities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from singlab.datamaps import DataMapSpec, MapKind, eval_perfect_fit_standard, evaluate, uniform_preset
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
    feature_distance,
    loglog_fit,
    omega_s,
    segment_average_norm,
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

from fresh_python import run_python

# Frozen from a 10^6-step Riemann-sum oracle (test_riemann_oracle cross-checks).
SEG_AVG_UNIT_DIAGONAL = 0.8116126200701153


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
    layers = ("cli", "slices", "datamaps", "topology", "geometry", "metrics", "measure")
    code = (f"import sys, {', '.join(f'singlab.{layer}' for layer in layers)}; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = run_python(code, check=True)
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


def test_unit_norms_call_no_blas(monkeypatch):
    # the unit-norm checks and the all-equal circle dataset's standard add
    # their squares by math.fsum: np.dot, and an np.linalg.norm over the
    # whole array (a BLAS dot), refuse to run here
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
    code = ("import sys; from singlab.geometry import loglog_fit; at_import = 'numpy.ma' in sys.modules; "
            "loglog_fit([1.0, 2.0, 2.0], [0.0, 1.0, 3.0]); loglog_fit([1.0, 2.0], [0.0, 1.0], weights=[2, 3]); "
            "loglog_fit([1.0, 1.0], [0.0, 1.0]); print(at_import or 'numpy.ma' not in sys.modules)")
    out = run_python(code, check=True)
    assert out.stdout.strip() == "True"


@pytest.mark.parametrize("make, same, other, negative_zero", [
    (CirclePoint, (0.6, 0.8), (0.8, 0.6), (1.0, -0.0)),
    (PlaneDataset, [(0, 1), (1, 0)], [(0, 1), (2, 4)], [(-0.0, 1), (1, 0)]),
    (CircleDataset, [(0, 1), (1, 0)], [(0, 1), (0, -1)], [(1, -0.0), (0, 1)]),
], ids=["CirclePoint", "PlaneDataset", "CircleDataset"])
def test_array_values_compare_and_hash_by_value(make, same, other, negative_zero):
    # equal arrays make equal values that hash alike, -0.0 and 0.0 included;
    # unequal arrays, or another class on the same array, compare unequal
    a, b = make(same), make(same)
    assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != make(other) and not a == make(other)
    zero = np.abs(np.asarray(negative_zero, dtype=float))
    assert make(negative_zero) == make(zero) and hash(make(negative_zero)) == hash(make(zero))
    stranger = PlaneDataset if make is not PlaneDataset else CircleDataset
    assert a != stranger(np.atleast_2d(same)) and a != same


def test_circle_outcomes_compare_by_value():
    # two evaluations on the same angles carry equal CirclePoints, so the
    # outcomes compare and hash alike; a moved angle compares unequal
    angles = np.array([0.3, 1.1, -2.0])
    first, second = evaluate(uniform_preset(3), angles), evaluate(uniform_preset(3), angles.copy())
    assert isinstance(first.feature, CirclePoint)
    assert first == second and hash(first) == hash(second)
    assert first != evaluate(uniform_preset(3), angles + [0, 0, 1e-9])


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


@pytest.mark.parametrize("make, message", [
    pytest.param(lambda: PlaneDataset([1.0, 2.0]), "points must have shape (n, 2), got (2,)",
                 id="points-not-n-by-2"),
    pytest.param(lambda: PlaneDataset(np.zeros((0, 2))), "points must contain at least one point",
                 id="points-empty"),
    pytest.param(lambda: LineDirection(math.nan), "direction angle must be finite",
                 id="direction-nan"),
    pytest.param(lambda: CirclePoint((1.0, 0.0, 0.0)), "circle point must be a finite 2-vector",
                 id="circle-point-shape"),
    pytest.param(lambda: CirclePoint((2.0, 0.0)), "circle point must be a unit vector",
                 id="circle-point-norm"),
    pytest.param(lambda: Decision(2), "decision bit must be 0 or 1", id="decision-bit"),
    pytest.param(lambda: ScalarValue(math.inf), "scalar feature must be finite", id="scalar-inf"),
    pytest.param(lambda: segment_average_norm(np.zeros(2), np.zeros(3)),
                 "x and y must be equal-length vectors", id="segment-shapes"),
    pytest.param(lambda: segment_average_norm((math.nan, 0.0), (1.0, 0.0)),
                 "x and y must be finite", id="segment-nan"),
    pytest.param(lambda: segment_average_norm((1.0, 0.0), (math.inf, 0.0)),
                 "x and y must be finite", id="segment-inf"),
])
def test_geometry_refuses_bad_input_by_name(make, message):
    with pytest.raises(ContractViolation) as raised:
        make()
    assert type(raised.value) is ContractViolation and str(raised.value) == message
