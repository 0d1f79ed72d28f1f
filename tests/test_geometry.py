"""Geometry primitives: metrics, unit-ball volumes, appendix utilities."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from singlab.datamaps import DataMapSpec, MapKind
from singlab.geometry import (
    CircleDataset,
    ContractViolation,
    DegenerateSegmentError,
    DomainError,
    PlaneDataset,
    angle_distance,
    loglog_fit,
    omega_s,
    reduce_mod_pi,
    segment_average_norm,
    wrap_increments,
)
from singlab.cli import _synthetic_batch
from singlab.measure import (
    box_count_dimension,
    circle_cell_membership,
    circle_distance_fn,
    filled_box_membership,
    greedy_net,
    point_distance_fn,
    segment_distance_fn,
    tube_volume,
)
from singlab.metrics import (
    OscillationProfile,
    _segments,
    average_derivative_along_curve,
    average_distance_to_point,
    classify_severity,
    derivative_blowup_profile,
    oscillation,
    oscillator_arc,
)
from singlab.topology import localize_singularities, rectangle_loop

from fresh_python import run_python
from oracles import PC, SLICE

# Frozen from a 10^6-step Riemann-sum oracle (test_riemann_oracle cross-checks).
SEG_AVG_UNIT_DIAGONAL = 0.8116126200701153


def test_dataset_validation():
    with pytest.raises(ContractViolation):
        PlaneDataset([(0, float("nan"))])
    with pytest.raises(ContractViolation):
        CircleDataset([(0.5, 0.5)])
    CircleDataset([(math.cos(0.3), math.sin(0.3))])


def test_feature_distance_examples():
    # line directions are angles mod pi, circle points angles mod 2 pi
    assert angle_distance(0.1, 0.1, math.pi) == 0.0
    assert abs(angle_distance(0.0, 3 * math.pi / 4, math.pi) - math.pi / 4) < 1e-15
    assert abs(angle_distance(0.0, math.pi / 2, 2 * math.pi) - math.pi / 2) < 1e-12


@pytest.mark.parametrize("t", [1e-9, 1e-7, 1e-5])
@pytest.mark.parametrize("base", [0.0, 0.7, -2.0])
def test_circle_distances_keep_their_digits_near_zero(base, t):
    # arccos of a dot product reads 1.49e-8 for points 1e-9 apart; the
    # difference of their angles, as atan2 reads them back from the
    # points, is exact to the last bits
    def angle(a):
        return math.atan2(math.sin(a), math.cos(a))

    assert abs(angle_distance(angle(base), angle(base + t), 2 * math.pi) - t) <= 1e-15


def test_line_direction_reduced_mod_pi():
    assert abs(reduce_mod_pi(math.pi + 0.3) - 0.3) < 1e-12
    assert abs(reduce_mod_pi(-0.3) - (math.pi - 0.3)) < 1e-12


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
    t1, t2, t3 = reduce_mod_pi(rng.uniform(-10, 10, size=(10_000, 3))).T
    d12 = angle_distance(t1, t2, math.pi)
    d21 = angle_distance(t2, t1, math.pi)
    assert np.array_equal(d12, d21)
    assert np.all(d12 <= angle_distance(t1, t3, math.pi) + angle_distance(t3, t2, math.pi) + 1e-12)


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
    # the unit-norm check adds its squares by math.fsum: np.dot, and an
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
    (PlaneDataset, [(0, 1), (1, 0)], [(0, 1), (2, 4)], [(-0.0, 1), (1, 0)]),
    (CircleDataset, [(0, 1), (1, 0)], [(0, 1), (0, -1)], [(1, -0.0), (0, 1)]),
], ids=["PlaneDataset", "CircleDataset"])
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
    pytest.param(lambda: PlaneDataset([1.0, 2.0]), "points must be a finite (n, 2) array",
                 id="points-not-n-by-2"),
    pytest.param(lambda: PlaneDataset(np.zeros((0, 2))), "points must be nonempty",
                 id="points-empty"),
    pytest.param(lambda: segment_average_norm(np.zeros(2), np.zeros(3)),
                 "y must be a finite 2-vector", id="segment-shapes"),
    pytest.param(lambda: segment_average_norm((math.nan, 0.0), (1.0, 0.0)),
                 "x must be a finite vector", id="segment-nan"),
    pytest.param(lambda: segment_average_norm((1.0, 0.0), (math.inf, 0.0)),
                 "y must be a finite 2-vector", id="segment-inf"),
])
def test_geometry_refuses_bad_input_by_name(make, message):
    with pytest.raises(ContractViolation) as raised:
        make()
    assert type(raised.value) is ContractViolation and str(raised.value) == message


def _never_called(*args):
    pytest.fail("the map was called")


_FINITE_POSITIVE = "{name} must be finite and positive"
_NUMERIC = "{name} must be numeric"
_SHAPE = "{name} must be a finite {shape}"
# the bad inputs of each kind of check: (label, value, message)
_BAD = {
    "size": [("nan", math.nan, _FINITE_POSITIVE), ("inf", math.inf, _FINITE_POSITIVE),
             ("shape", [0.5], _NUMERIC), ("empty", [], _NUMERIC), ("text", "abc", _NUMERIC)],
    "sizes": [("nan", (0.1, math.nan), _FINITE_POSITIVE), ("inf", (math.inf, 0.1), _FINITE_POSITIVE),
              ("shape", [[0.1, 0.01]], _NUMERIC), ("text", ("abc",), _NUMERIC)],
    "vector": [("nan", (math.nan, 0.5), _SHAPE), ("inf", (0.5, math.inf), _SHAPE),
               ("shape", [[0.5, 0.5]], _SHAPE), ("empty", (), _SHAPE), ("text", "ab", _SHAPE)],
    "array": [("nan", [[0.5, math.nan]], _SHAPE), ("inf", [[math.inf, 0.5]], _SHAPE),
              ("shape", [0.5, 0.5], _SHAPE), ("empty", np.zeros((0, 2)), "{name} must be nonempty"),
              ("text", "ab", _SHAPE)],
}
_BAD["unit"] = [*_BAD["vector"], ("norm", (0.6, 0.6), "{name} must be a unit vector")]
_NONNEGATIVE = "AUG_MEAN {name} must be finite and nonnegative"
_BAD["nonnegative"] = [("nan", math.nan, _NONNEGATIVE), ("inf", math.inf, _NONNEGATIVE),
                       ("negative", -1.0, _NONNEGATIVE), ("text", "abc", _NUMERIC)]
_MESHES = [0.1, 0.05, 0.01, 0.002]
_AUG = {"kind": MapKind.AUG_MEAN, "weights": (1.0,), "w0": 0.5}
_DISK = {"kind": MapKind.DISK_DECISION, "radius": 1.0}
# each checked input: (site, call on the bad value, the name its refusal
# reads, kind of check, the shape its refusal reads)
_CHECKED = [
    ("spec-weights", lambda v: DataMapSpec(**{**_AUG, "weights": v}), "weights", "sizes", None),
    ("spec-radius", lambda v: DataMapSpec(**{**_DISK, "radius": v}), "radius", "size", None),
    ("spec-center", lambda v: DataMapSpec(**_DISK, center=v), "center", "vector", "2-vector"),
    ("spec-aug-point", lambda v: DataMapSpec(**_AUG, aug_point=v), "aug_point", "unit", "2-vector"),
    ("spec-w0", lambda v: DataMapSpec(**{**_AUG, "w0": v}), "w0", "nonnegative", None),
    ("plane-dataset", PlaneDataset, "points", "array", "(n, 2) array"),
    ("circle-dataset", CircleDataset, "points", "array", "(n, 2) array"),
    ("segment-x", lambda v: segment_average_norm(v, (1.0, 0.0)), "x", "vector", "vector"),
    ("segment-y", lambda v: segment_average_norm((0.0, 0.0), v), "y", "vector", "2-vector"),
    ("localize-eps", lambda v: localize_singularities(_never_called, (0.0, 0.0), 0.7, v), "eps", "size", None),
    ("localize-half-width", lambda v: localize_singularities(_never_called, (0.0, 0.0), v, 1e-2),
     "half_width", "size", None),
    ("localize-center", lambda v: localize_singularities(_never_called, v, 0.7, 1e-2), "center", "vector",
     "2-vector"),
    ("rectangle-center", lambda v: rectangle_loop(v, (0.5, 0.5), 8), "center", "vector", "2-vector"),
    ("rectangle-half-widths", lambda v: rectangle_loop((0.0, 0.0), v, 8), "half_widths", "vector", "2-vector"),
    ("greedy-cloud", lambda v: greedy_net(v, 0.1), "point cloud", "array", "(m, d) array"),
    ("greedy-delta", lambda v: greedy_net(np.zeros((3, 2)), v), "delta", "size", None),
    ("box-count-cloud", lambda v: box_count_dimension(np.asarray(v), (0.0, 0.0), (1.0, 1.0), _MESHES),
     "point cloud", "array", "(m, d) array"),
    ("box-count-lo", lambda v: box_count_dimension(np.array([[0.5, 0.5]]), v, (1.0, 1.0), _MESHES),
     "domain box corner lo", "vector", "vector"),
    ("box-count-meshes", lambda v: box_count_dimension(np.array([[0.5, 0.5]]), (0.0, 0.0), (1.0, 1.0), v),
     "mesh sizes", "sizes", None),
    ("tube-hi", lambda v: tube_volume(point_distance_fn((0.5, 0.5)), (0.0, 0.0), v, [0.1, 0.01], 10**4, 0),
     "domain box corner hi", "vector", "2-vector"),
    ("tube-deltas", lambda v: tube_volume(point_distance_fn((0.5, 0.5)), (0.0, 0.0), (1.0, 1.0), v, 10**4, 0),
     "deltas", "sizes", None),
    ("point-fixture", point_distance_fn, "point", "vector", "vector"),
    ("segment-fixture-b", lambda v: segment_distance_fn((0.0, 0.0), v), "segment endpoint b", "vector", "2-vector"),
    ("circle-fixture-radius", lambda v: circle_distance_fn((0.5, 0.5), v), "circle radius", "size", None),
    ("cells-center", lambda v: circle_cell_membership(v, 0.2), "circle center", "vector", "vector"),
    ("cells-radius", lambda v: circle_cell_membership((0.5, 0.5), v), "circle radius", "size", None),
    ("box-fixture-hi", lambda v: filled_box_membership((0.2, 0.2), v), "box corner hi", "vector", "2-vector"),
    ("curve", lambda v: average_derivative_along_curve(_never_called, v, 1e-6), "curve", "array", "(m, d) array"),
    ("curve-h-fd", lambda v: average_derivative_along_curve(_never_called, [(0.1, 0.1), (0.2, 0.3)], v),
     "h_fd", "size", None),
    ("distance-x0", lambda v: average_distance_to_point([(0.1, 0.1), (0.2, 0.3)], v), "x0", "vector", "2-vector"),
    ("blowup-etas", lambda v: derivative_blowup_profile(_never_called, (0.0, 0.0), v), "etas", "sizes", None),
    ("blowup-point", lambda v: derivative_blowup_profile(_never_called, v, [0.1, 0.01]), "singular_point",
     "vector", "2-vector"),
    ("oscillation-radii", lambda v: oscillation(PC, SLICE.center_config, v, 16, 0), "radii", "sizes", None),
    ("profile-radii", lambda v: OscillationProfile(radii=v, diameters=(1.0,) * len(v), samples_per_radius=16,
                                                   seed=0), "radii", "sizes", None),
    ("severity-mesh", lambda v: classify_severity(_PROFILE, v), "mesh", "size", None),
]
_REFUSALS = [pytest.param(call, value, message.format(name=name, shape=shape), id=f"{site}-{label}")
             for site, call, name, kind, shape in _CHECKED for label, value, message in _BAD[kind]]
_REFUSALS.append(pytest.param(lambda v: DataMapSpec(**{**_AUG, "weights": v}), (), "weights must be nonempty",
                              id="spec-weights-empty"))


@pytest.mark.parametrize("call, value, message", _REFUSALS)
def test_every_checked_input_is_refused_by_name(call, value, message):
    # each input passes one of geometry's checks (numbers, sizes, decreasing
    # sizes, finite arrays, unit vectors), which refuses NaN, infinite,
    # misshapen, empty and non-numeric values with a ContractViolation that
    # names the parameter, before any map is called; a radius or w0 "abc"
    # raised a bare TypeError, weights ("abc",) a bare ValueError, and eps =
    # inf certified the root box at depth 0
    with pytest.raises(ContractViolation) as raised:
        call(value)
    assert type(raised.value) is ContractViolation and str(raised.value) == message
