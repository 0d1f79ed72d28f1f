"""Packing/covering, box counting, tube volumes, CDF tails, tradeoff."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from singlab import datamaps, measure
from singlab.datamaps import (
    DataMapSpec,
    MapKind,
    concentrated_preset,
    evaluate_batch,
    section_jacobian,
    uniform_preset,
)
from singlab.geometry import ContractViolation, DegenerateSegmentError
from singlab.measure import (
    _cell_counts,
    _drawn_chunks,
    _cloud_count,
    _overlapping_cells,
    aug_mean_singular_set_nonempty,
    box_count_dimension,
    circle_cell_membership,
    circle_distance_fn,
    distance_cdf,
    filled_box_membership,
    greedy_net,
    point_distance_fn,
    segment_distance_fn,
    tradeoff_experiment,
    tube_volume,
)
from singlab.metrics import GAUSS_NEWTON_ITERS, _project_to_zero_resultant

from oracles import LAD, LS, PC, exact_cover_and_packing

CIRCLE_100 = np.array(
    [[math.cos(2 * math.pi * k / 100), math.sin(2 * math.pi * k / 100)] for k in range(100)]
)


# ---------------------------------------------------------------------------
# Greedy nets, covering and packing
# ---------------------------------------------------------------------------

def test_two_point_cloud():
    cloud = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert greedy_net(cloud, 0.4) == 2
    assert greedy_net(cloud, 3.0) == 1


def test_circle_cloud_greedy_pinned():
    # greedy-by-index on the 100-point circle keeps every second point at
    # delta = 0.1 (chord of two steps is 2 sin(2 pi / 100) > 0.1)
    assert greedy_net(CIRCLE_100, 0.1) == 50


def test_packing_covering_chain():
    # G(delta) <= D(delta) <= G(delta / 2), so the greedy count at least
    # holds its ground when delta halves, on clouds too big for brute force
    rng = np.random.default_rng(51)
    clouds = [CIRCLE_100, np.array([[0.0, 0.0], [1.0, 0.0]]), rng.standard_normal((200, 2)),
              rng.standard_normal((100, 3))]
    for cloud in clouds:
        for delta in (0.05, 0.1, 0.3, 0.9):
            assert greedy_net(cloud, delta / 2) >= greedy_net(cloud, delta)


def test_greedy_validation():
    with pytest.raises(ContractViolation):
        greedy_net(np.empty((0, 2)), 0.1)
    for delta in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ContractViolation):
            greedy_net(CIRCLE_100, delta)
    cloud = np.random.default_rng(5).standard_normal((50, 2))
    cloud[17, 1] = math.nan
    with pytest.raises(ContractViolation):
        greedy_net(cloud, 0.1)


def test_greedy_net_brackets_exact_counts():
    # N(delta) <= D(delta) <= N(delta / 2), and the greedy bracket
    # G(2 delta) <= N(delta) <= G(delta) <= D(delta) <= G(delta / 2)
    rng = np.random.default_rng(31)
    grid = np.array([[x, y] for x in range(3) for y in range(4)], dtype=float)  # 1.0 apart, exactly
    clouds = [grid, grid[:4], *(rng.standard_normal((m, 2)) for m in range(2, 13))]
    for cloud in clouds:
        for delta in (0.3, 0.5, 1.0, 1.5, 2.0):
            n, d = exact_cover_and_packing(cloud, delta)
            n_half, _ = exact_cover_and_packing(cloud, delta / 2)
            assert n <= d <= n_half
            g = [greedy_net(cloud, t) for t in (2 * delta, delta, delta / 2)]
            assert g[0] <= n <= g[1] <= d <= g[2]
    # three points 1.0 apart on a line: the greedy count is D by one order
    # and N by another, so it names neither count in general
    line = grid[:3]
    assert exact_cover_and_packing(line, 1.0) == (1, 2)
    assert greedy_net(line, 1.0) == 2
    assert greedy_net(line[[1, 0, 2]], 1.0) == 1


# ---------------------------------------------------------------------------
# Box-count dimension
# ---------------------------------------------------------------------------

def test_box_count_circle_dimension():
    est = box_count_dimension(
        circle_cell_membership((0.5, 0.5), 0.25), (0, 0), (1, 1), np.geomspace(0.1, 0.002, 6)
    )
    assert abs(est.dimension - 1.0) <= 0.05
    # upper-bound surrogate of the length, within a factor 2
    true_len = 2 * math.pi * 0.25
    assert true_len / 2 <= est.measure_at_dim <= 2 * true_len


def test_box_count_filled_square():
    est = box_count_dimension(
        filled_box_membership((0, 0), (1, 1)), (0, 0), (1, 1),
        [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 256],
    )
    assert abs(est.dimension - 2.0) <= 0.05


def test_box_count_single_point():
    est = box_count_dimension(
        np.array([[0.5, 0.5]]), (0, 0), (1, 1), np.geomspace(0.1, 0.002, 5)
    )
    assert est.dimension == 0.0
    assert est.degenerate
    assert est.occupied_counts == (1, 1, 1, 1, 1)


def dense_occupied_counts(pred, lo, hi, mesh_sizes):
    """Reference box counts: the predicate on every cell of every mesh."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    result = []
    for delta in sorted(mesh_sizes, reverse=True):
        counts = np.maximum(np.ceil((hi - lo) / delta - 1e-12).astype(int), 1)
        mesh = np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")
        cells = np.stack([m.ravel() for m in mesh], axis=1).astype(float)
        c_lo = lo[None, :] + cells * delta
        c_hi = np.minimum(c_lo + delta, hi[None, :])
        result.append(int(np.count_nonzero(pred(c_lo, c_hi))))
    return tuple(result)


@st.composite
def domains_and_meshes(draw):
    """A domain box and 4 to 6 mesh sizes over at least 1.5 decades, with
    ratios that are neither integers nor equal, so the grids do not nest."""
    lo = np.array([draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0))])
    hi = lo + np.array([draw(st.floats(0.3, 1.5)), draw(st.floats(0.3, 1.5))])
    coarse = draw(st.floats(0.06, 0.3))
    fine = coarse / 10 ** draw(st.floats(1.5, 1.9))
    # the quotient can round one ulp below 10^1.5, which box_count_dimension refuses
    assume(coarse / fine >= 10 ** 1.5)
    inner = draw(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=4))
    meshes = [coarse, fine, *(fine * (coarse / fine) ** t for t in inner)]
    return lo, hi, meshes


@settings(max_examples=60, deadline=None, derandomize=True)
@given(domain=domains_and_meshes(), fx=st.floats(0.0, 1.0), fy=st.floats(0.0, 1.0),
       fr=st.floats(0.05, 0.9))
@example(domain=(np.zeros(2), np.ones(2), list(np.geomspace(0.1, 0.003, 6))), fx=0.5, fy=0.5, fr=0.5)
def test_sparse_box_counts_equal_dense_circle(domain, fx, fy, fr):
    # centers anywhere in the domain, radii up to past its edges: many
    # circles cross or touch the boundary, as the unit circle of the example does
    lo, hi, meshes = domain
    center = lo + np.array([fx, fy]) * (hi - lo)
    radius = fr * float(np.max(hi - lo))
    pred = circle_cell_membership(center, radius)
    est = box_count_dimension(pred, lo, hi, meshes)
    assert est.occupied_counts == dense_occupied_counts(pred, lo, hi, meshes)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(domain=domains_and_meshes(), corners=st.lists(st.floats(-0.2, 1.2), min_size=4, max_size=4))
@example(domain=(np.zeros(2), np.ones(2), [1 / 8, 1 / 16, 1 / 32, 1 / 64, 1 / 256]),
         corners=[0.0, 0.0, 1.0, 1.0])
def test_sparse_box_counts_equal_dense_filled_box(domain, corners):
    # filled boxes inside the domain, partly outside it, or the domain itself
    lo, hi, meshes = domain
    a = lo + np.array(corners[:2]) * (hi - lo)
    b = lo + np.array(corners[2:]) * (hi - lo)
    pred = filled_box_membership(np.minimum(a, b), np.maximum(a, b))
    est = box_count_dimension(pred, lo, hi, meshes)
    assert est.occupied_counts == dense_occupied_counts(pred, lo, hi, meshes)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(spans=st.lists(st.floats(0.05, 5.0), min_size=1, max_size=3), coarse=st.floats(0.01, 1.0),
       ratio=st.floats(1.2, 4.0), bits=st.lists(st.booleans(), min_size=125, max_size=125))
@example(spans=[2.5, 3.0], coarse=0.1, ratio=2.0, bits=[False] * 125)
@example(spans=[5.0, 5.0, 5.0], coarse=0.3, ratio=4.0, bits=[True] * 125)
@example(spans=[4.5], coarse=0.2, ratio=3.0, bits=[True, False, False, True] + [False] * 121)
@example(spans=[0.5], coarse=0.2, ratio=1.5, bits=[False] * 125)
@example(spans=[3.0, 2.5, 4.0], coarse=0.2, ratio=2.5, bits=[True, False, False] * 41 + [True, True])
def test_overlapping_cells_match_brute_force(spans, coarse, ratio, bits):
    # fine cell j is kept when some occupied coarse cell k has
    # floor(k coarse / delta) - 1 <= j <= floor((k + 1) coarse / delta) + 1
    # on every axis; the coarse grid has at most 5 cells per axis.  The
    # cells come as np.argwhere gives them: intp, laid out column by column,
    # (0, d) when no coarse cell is occupied
    lo = np.zeros(len(spans))
    hi = coarse * np.array(spans)
    delta = coarse / ratio
    coarse_cells = np.argwhere(np.ones(_cell_counts(lo, hi, coarse), dtype=bool))
    occupied = coarse_cells[np.array(bits[:len(coarse_cells)], dtype=bool)]
    counts = _cell_counts(lo, hi, delta)
    got = _overlapping_cells(occupied, coarse, delta, counts)
    fine = np.argwhere(np.ones(counts, dtype=bool))
    first = np.floor(occupied * coarse / delta) - 1
    last = np.floor((occupied + 1) * coarse / delta) + 1
    inside = (first[None] <= fine[:, None]) & (fine[:, None] <= last[None])
    want = fine[np.any(np.all(inside, axis=2), axis=1)]
    assert got.dtype == np.intp
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.flags.f_contiguous
    if not occupied.size:
        assert got.shape == (0, len(spans))


@pytest.mark.parametrize("test", [test_overlapping_cells_match_brute_force, test_sparse_box_counts_equal_dense_circle,
                                  test_sparse_box_counts_equal_dense_filled_box],
                         ids=["overlapping_cells", "circle", "filled_box"])
def test_box_counts_hold_in_one_row_bands(test, monkeypatch):
    # the least band budget marks one fine row at a time, so every grid of
    # more than one row along axis 0 crosses bands
    monkeypatch.setattr(measure, "_BAND_BYTES", 1)
    test()


def test_box_count_memory_grows_with_the_occupied_cells():
    # 40 014 occupied cells on a 10 000 x 10 000 grid, whose whole mask would
    # take 95 MiB alone; marked in bands, the traced peak is about 7 MiB
    circle = circle_cell_membership((0.5, 0.5), 0.5)
    estimates = []
    peak = peak_bytes(lambda: estimates.append(
        box_count_dimension(circle, (0, 0), (1, 1), np.geomspace(0.1, 1e-4, 6))))
    assert estimates[0].occupied_counts == (44, 156, 632, 2520, 10044, 40014)
    assert peak <= 16 * 2**20


@settings(max_examples=80, deadline=None, derandomize=True)
@given(d=st.sampled_from([1, 2, 3, 5, 8, 17]),
       delta=st.one_of(st.floats(0.005, 0.8), st.integers(3, 10).map(lambda k: 2 * math.pi / 2 ** k)),
       rows=st.integers(0, 300), pool=st.integers(1, 40), varying=st.integers(1, 17),
       seed=st.integers(0, 2 ** 32 - 1))
@example(d=17, delta=2 * math.pi / 1024, rows=200, pool=40, varying=1, seed=0)
@example(d=17, delta=0.005, rows=300, pool=40, varying=17, seed=1)
@example(d=3, delta=0.02, rows=0, pool=1, varying=3, seed=2)
@example(d=17, delta=2 * math.pi / 1024, rows=20000, pool=5000, varying=2, seed=3)
def test_cloud_count_matches_distinct_cells(d, delta, rows, pool, varying, seed):
    # the rows repeat: each is drawn from a pool of points that differ only in
    # their first `varying` coordinates, so equal rows must count once and
    # rows that differ in their first coordinate alone must count apart, on
    # grids of up to 1024^17 cells.  The 20 000-row example is a cloud of the
    # size and grid the tradeoff once box-counted
    rng = np.random.default_rng(seed)
    points = np.tile(2 * math.pi * rng.random(d), (pool, 1))
    points[:, :varying] = 2 * math.pi * rng.random((pool, min(varying, d)))
    cloud = points[rng.integers(pool, size=rows)]
    lo, hi = np.zeros(d), np.full(d, 2 * math.pi)
    idx = np.clip(np.floor(cloud / delta).astype(int), 0, _cell_counts(lo, hi, delta) - 1)
    assert _cloud_count(cloud, lo, hi, delta) == len(set(map(tuple, idx)))


def test_box_count_preconditions():
    with pytest.raises(ContractViolation):
        box_count_dimension(np.array([[0.5, 0.5]]), (0, 0), (1, 1), [0.1, 0.05, 0.02])
    with pytest.raises(ContractViolation):
        box_count_dimension(np.array([[0.5, 0.5]]), (0, 0), (1, 1), [0.1, 0.08, 0.06, 0.04])


def test_box_count_refuses_bad_mesh_sizes():
    for bad in (math.nan, math.inf, 0.0, -0.002):
        with pytest.raises(ContractViolation):
            box_count_dimension(np.array([[0.5, 0.5]]), (0, 0), (1, 1), [0.1, 0.05, 0.01, 0.002, bad])


def test_box_count_refuses_a_non_finite_cloud_point():
    cloud = np.random.default_rng(7).random((200, 2))
    cloud[123, 0] = math.nan
    with pytest.raises(ContractViolation):
        box_count_dimension(cloud, (0, 0), (1, 1), [0.1, 0.05, 0.01, 0.002])


# Domain boxes that are not finite with lo < hi on every axis: an inverted
# axis gave negative tube volumes, an empty one counted cells anyway
BAD_BOXES = [
    ((0.0, 1.0), (1.0, 0.0)),
    ((0.0, 0.0), (1.0, 0.0)),
    ((0.0, math.nan), (1.0, 1.0)),
    ((0.0, 0.0), (1.0, math.inf)),
    ((-math.inf, 0.0), (1.0, 1.0)),
    ((0.0, 0.0), (1.0, 1.0, 1.0)),
    ((), ()),
    ([[0.0, 0.0]], [[1.0, 1.0]]),
]


@pytest.mark.parametrize("lo, hi", BAD_BOXES)
def test_box_count_refuses_a_bad_domain_box(lo, hi):
    with pytest.raises(ContractViolation, match="domain box"):
        box_count_dimension(np.array([[0.5, 0.5]]), lo, hi, [0.1, 0.05, 0.01, 0.002])
    with pytest.raises(ContractViolation, match="domain box"):
        box_count_dimension(filled_box_membership((0.2, 0.2), (0.4, 0.4)), lo, hi, [0.1, 0.05, 0.01, 0.002])


def test_box_count_refuses_a_cloud_of_another_dimension():
    # a (50, 3) cloud in a 2-D box died in numpy broadcasting
    cloud = np.random.default_rng(3).random((50, 3))
    with pytest.raises(ContractViolation, match="3-dimensional cloud in a 2-dimensional box"):
        box_count_dimension(cloud, (0, 0), (1, 1), [0.1, 0.05, 0.01, 0.002])


def test_box_count_refuses_a_cloud_point_outside_the_box():
    # such a point was clipped into an edge cell: (5, 5) in the unit box read
    # one occupied cell at every mesh and a measure of 1.0; a point on hi is
    # in the closed box
    meshes = np.geomspace(0.1, 0.002, 5)
    for point in ((5.0, 5.0), (0.5, -1e-9)):
        with pytest.raises(ContractViolation, match="a cloud point lies outside the domain box"):
            box_count_dimension(np.array([point]), (0, 0), (1, 1), meshes)
    assert box_count_dimension(np.array([[1.0, 1.0]]), (0, 0), (1, 1), meshes).occupied_counts == (1,) * 5


# ---------------------------------------------------------------------------
# Tube volumes
# ---------------------------------------------------------------------------

DELTAS = np.geomspace(1e-3, 1e-1, 9)
TUBE_SEED = 7


def test_tube_point_fixture():
    rep = tube_volume(point_distance_fn((0.5, 0.5)), (0, 0), (1, 1), DELTAS, 10**5, TUBE_SEED)
    assert abs(rep.fitted_codim - 2.0) <= 0.1
    # zero-hit deltas at the small end are dropped with a warning entry
    assert rep.dropped_deltas
    for d, v in zip(rep.deltas, rep.volumes):
        assert v >= 0.5 * math.pi * d**2  # analytic constant pi, H^0 = 1


def test_tube_segment_fixture():
    rep = tube_volume(
        segment_distance_fn((0.25, 0.5), (0.75, 0.5)), (0, 0), (1, 1), DELTAS, 10**5, TUBE_SEED
    )
    assert abs(rep.fitted_codim - 1.0) <= 0.1
    for d, v in zip(rep.deltas, rep.volumes):
        assert v >= 0.5 * 2.0 * d * 0.5  # analytic constant 2, H^1 = 1/2


def test_tube_circle_fixture():
    rep = tube_volume(
        circle_distance_fn((0.5, 0.5), 0.2), (0, 0), (1, 1), DELTAS, 10**5, TUBE_SEED
    )
    assert abs(rep.fitted_codim - 1.0) <= 0.1
    for d, v in zip(rep.deltas, rep.volumes):
        assert v >= 0.5 * 2.0 * d * (2 * math.pi * 0.2)


# Exact areas of the fixtures' delta-tubes, all inside the unit square for
# every delta of DELTAS: a disk, a stadium around the segment of length 1/2
# and an annulus around the circle of radius 0.2 (ROADMAP item 20)
TUBE_AREAS = [
    (point_distance_fn((0.5, 0.5)), lambda d: math.pi * d**2),
    (segment_distance_fn((0.25, 0.5), (0.75, 0.5)), lambda d: 2 * 0.5 * d + math.pi * d**2),
    (circle_distance_fn((0.5, 0.5), 0.2), lambda d: 4 * math.pi * 0.2 * d),
]


@pytest.mark.parametrize("samples, seed", [(10**5, TUBE_SEED), (10**6, TUBE_SEED), (10**6, 3)])
@pytest.mark.parametrize("fixture", range(len(TUBE_AREAS)))
def test_tube_volumes_match_exact_areas(fixture, samples, seed):
    # every kept delta's volume lies within 4 standard errors of the exact area
    fn, area = TUBE_AREAS[fixture]
    rep = tube_volume(fn, (0, 0), (1, 1), DELTAS, samples, seed)
    assert len(rep.deltas) >= 4
    for d, v, se in zip(rep.deltas, rep.volumes, rep.std_errors):
        assert abs(v - area(d)) <= 4 * se, (d, v, area(d), se)


def test_tube_monotone_volumes():
    rep = tube_volume(point_distance_fn((0.5, 0.5)), (0, 0), (1, 1), DELTAS, 10**4 * 2, TUBE_SEED)
    assert all(b >= a for a, b in zip(rep.volumes, rep.volumes[1:]))


def test_tube_preconditions():
    with pytest.raises(ContractViolation):
        tube_volume(point_distance_fn((0.5, 0.5)), (0, 0), (1, 1), DELTAS, 5000, 0)
    # deltas one ulp apart share a log, which leaves the slope fit 0 / 0
    with pytest.raises(ContractViolation):
        tube_volume(point_distance_fn((0.5, 0.5)), (0, 0), (1, 1), [0.23792354683877923, 0.23792354683877925],
                    10_000, 0)


def test_tube_refuses_bad_deltas():
    # a NaN or negative delta was reported as dropped, an infinite one made the fit NaN
    for bad in (math.nan, -0.1, 0.0, math.inf):
        with pytest.raises(ContractViolation):
            tube_volume(point_distance_fn((0.5, 0.5)), (0, 0), (1, 1), [*DELTAS, bad], 10_000, 0)


@pytest.mark.parametrize("make, error, message", [
    # equal ends gave NaN distances with "invalid value encountered in
    # divide", and a NaN point gave NaN distances, which tube_volume blamed on
    # its deltas
    pytest.param(lambda: segment_distance_fn((0.5, 0.5), (0.5, 0.5)), DegenerateSegmentError,
                 "segment endpoints coincide", id="segment-equal-ends"),
    pytest.param(lambda: segment_distance_fn((0.25, 0.5), (math.inf, 0.5)), ContractViolation,
                 "segment endpoint b must be a finite vector", id="segment-infinite-end"),
    pytest.param(lambda: point_distance_fn((math.nan, 0.5)), ContractViolation,
                 "point must be a finite vector", id="point-nan"),
    pytest.param(lambda: point_distance_fn(()), ContractViolation, "point must be a finite vector", id="point-empty"),
    # a negative radius measured |d| + 0.2, and gave the cell predicate an
    # all-zero "degenerate" estimate
    pytest.param(lambda: circle_distance_fn((0.5, 0.5), -0.2), ContractViolation,
                 "circle radius must be finite and positive", id="circle-negative-radius"),
    pytest.param(lambda: circle_distance_fn((0.5, math.nan), 0.2), ContractViolation,
                 "circle center must be a finite vector", id="circle-nan-center"),
    pytest.param(lambda: circle_cell_membership((0.5, 0.5), -0.2), ContractViolation,
                 "circle radius must be finite and positive", id="cells-negative-radius"),
    pytest.param(lambda: circle_cell_membership((0.5, 0.5), math.inf), ContractViolation,
                 "circle radius must be finite and positive", id="cells-infinite-radius"),
    pytest.param(lambda: circle_cell_membership((math.inf, 0.5), 0.2), ContractViolation,
                 "circle center must be a finite vector", id="cells-infinite-center"),
    # an inverted box gave an all-zero "degenerate" estimate
    pytest.param(lambda: filled_box_membership((0.4, 0.2), (0.2, 0.4)), ContractViolation,
                 "box corners must have lo <= hi on every axis of one dimension", id="box-inverted"),
    pytest.param(lambda: filled_box_membership((0.2, 0.2), (0.4, 0.4, 0.4)), ContractViolation,
                 "box corners must have lo <= hi on every axis of one dimension", id="box-dimensions"),
    pytest.param(lambda: filled_box_membership((0.2, math.nan), (0.4, 0.4)), ContractViolation,
                 "box corner lo must be a finite vector", id="box-nan-corner"),
    # numpy raised a broadcasting ValueError
    pytest.param(lambda: segment_distance_fn((0, 0), (1, 1, 1)), ContractViolation,
                 "segment endpoints a and b must have one dimension, not 2 and 3", id="segment-dimensions"),
    # a fixture measures points of its own dimension: in the unit square the
    # 1-D point and segment read fitted_codim 1.039 and 0.111, distances to
    # the line x = 0.5 and the strip 0.2 <= x <= 0.8, and the 3-D point died
    # with an IndexError
    pytest.param(lambda: tube_volume(point_distance_fn((0.5,)), (0, 0), (1, 1), [0.01, 0.1], 10**4, 0),
                 ContractViolation, "a 1-dimensional fixture cannot measure 2-dimensional points", id="point-1d"),
    pytest.param(lambda: tube_volume(segment_distance_fn((0.2,), (0.8,)), (0, 0), (1, 1), [0.01, 0.1], 10**4, 0),
                 ContractViolation, "a 1-dimensional fixture cannot measure 2-dimensional points", id="segment-1d"),
    pytest.param(lambda: tube_volume(point_distance_fn((0.5, 0.5, 0.5)), (0, 0), (1, 1), [0.01, 0.1], 10**4, 0),
                 ContractViolation, "a 3-dimensional fixture cannot measure 2-dimensional points", id="point-3d"),
    pytest.param(lambda: segment_distance_fn((0, 0, 0), (1, 1, 1))(np.zeros((4, 2))), ContractViolation,
                 "a 3-dimensional fixture cannot measure 2-dimensional points", id="segment-3d"),
    pytest.param(lambda: circle_distance_fn((0.5, 0.5), 0.2)(np.zeros((4, 3))), ContractViolation,
                 "a 2-dimensional fixture cannot measure 3-dimensional points", id="circle-3d"),
])
def test_fixtures_refuse_what_they_cannot_measure(make, error, message):
    with pytest.raises(ContractViolation) as raised:
        make()
    assert type(raised.value) is error and str(raised.value) == message


@pytest.mark.parametrize("lo, hi", BAD_BOXES)
def test_tube_refuses_a_bad_domain_box(lo, hi):
    with pytest.raises(ContractViolation, match="domain box"):
        tube_volume(point_distance_fn((0.5, 0.5)), lo, hi, DELTAS, 10_000, 0)


def peak_bytes(fn):
    """Peak of the memory Python and numpy allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def concatenated_draw(total, seed, draw):
    # the draw as chunks that are concatenated, each chunk a fresh array
    return np.concatenate([draw(np.random.default_rng((seed, start)), min(1 << 14, total - start))
                           for start in range(0, total, 1 << 14)], axis=0)


def copied_chunks(total, shape, seed, draw, workers):
    # each chunk copied into its rows before its buffer takes the next chunk
    out = np.empty((total, *shape))

    def copy(start, chunk):
        out[start:start + len(chunk)] = chunk

    _drawn_chunks(total, shape, seed, draw, copy, workers)
    return out


@pytest.mark.parametrize("total", [1, 16_383, 16_384, 16_385, 100_007])
def test_chunked_draw_matches_concatenated_chunks(total):
    # the chunks are written in place through the generators' out= argument:
    # the same streams, so the same bits as drawing each chunk and joining
    # them, on one worker or two
    for workers in (1, 2):
        got = copied_chunks(total, (2,), 11, lambda rng, out: rng.random(out=out), workers)
        want = concatenated_draw(total, 11, lambda rng, k: rng.random((k, 2)))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        got = copied_chunks(total, (3, 2), 11, lambda rng, out: rng.standard_normal(out=out), workers)
        want = concatenated_draw(total, 11, lambda rng, k: rng.standard_normal((k, 3, 2)))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_chunked_draw_holds_one_chunk():
    # each worker draws every chunk it takes into its own reused buffer: a
    # draw that allocated a buffer per chunk, or the whole (10^5, 12, 2)
    # array, would peak higher
    for workers in (1, 2):
        sizes = []
        peak = peak_bytes(lambda: _drawn_chunks(10**5, (12, 2), 3, lambda rng, out: rng.standard_normal(out=out),
                                                lambda start, chunk: sizes.append(chunk.nbytes), workers))
        assert max(sizes) == (1 << 14) * 12 * 2 * 8
        assert peak <= 1.1 * workers * max(sizes)


def norm_fixtures(d, rng):
    """(name, new fixture, formula of np.linalg.norm) of each tube fixture in
    dimension d.  The segment's squared length is math.fsum's, not the BLAS
    np.dot(ab, ab), whose bits depend on the OpenBLAS kernels loaded."""
    p, a, b = rng.random((3, d))
    ab = b - a

    def segment(xs):
        t = np.clip(np.sum((xs - a[None, :]) * ab[None, :], axis=1) / math.fsum(ab * ab), 0.0, 1.0)
        return np.linalg.norm(xs - (a[None, :] + t[:, None] * ab[None, :]), axis=1)

    return [
        ("point", point_distance_fn(p), lambda xs: np.linalg.norm(xs - p[None, :], axis=1)),
        ("segment", segment_distance_fn(a, b), segment),
        ("circle", circle_distance_fn(p, 0.2), lambda xs: np.abs(np.linalg.norm(xs - p[None, :], axis=1) - 0.2)),
    ]


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 17])
def test_tube_fixtures_match_linalg_norm(d):
    # the fixtures add squared column differences in np.linalg.norm's order:
    # one after another below 8 columns, pairwise from 8 on
    rng = np.random.default_rng(d)
    for name, fn, want in norm_fixtures(d, rng):
        xs = rng.random((4096, d))
        xs[:64] = -0.0
        xs[64:128] = np.round(4.0 * xs[64:128]) / 4.0
        got, ref = fn(xs), want(xs)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64)), name


def test_tube_volume_memory_bound():
    # the draw is filled in place and the distances built one column at a
    # time: 10^6 samples of the segment fixture peaked at 88 MB with a
    # concatenated draw and np.linalg.norm's (m, d) arrays
    fn = segment_distance_fn((0.25, 0.5), (0.75, 0.5))
    assert peak_bytes(lambda: tube_volume(fn, (0, 0), (1, 1), DELTAS, 10**6, TUBE_SEED)) <= 64 * 2**20


def test_tube_volume_holds_one_chunk():
    # the hits are counted one 2^14-row chunk at a time: the whole 10^6-row
    # draw with its distances peaked at 38 MiB
    fn = segment_distance_fn((0.25, 0.5), (0.75, 0.5))
    assert peak_bytes(lambda: tube_volume(fn, (0, 0), (1, 1), DELTAS, 10**6, TUBE_SEED)) <= 4 * 2**20


# ---------------------------------------------------------------------------
# Distance CDFs
# ---------------------------------------------------------------------------

CDF_SEED = 20260810


def test_cdf_codim_tail_law():
    ls = distance_cdf(LS, 4, 10**5, CDF_SEED)
    pc = distance_cdf(PC, 4, 10**5, CDF_SEED)
    lad = distance_cdf(LAD, 4, 10**5, CDF_SEED)
    assert abs(ls.exponent - 3.0) <= 0.5
    assert abs(pc.exponent - 2.0) <= 0.3
    assert abs(lad.exponent - 1.0) <= 0.3
    assert not ls.surrogate and pc.surrogate and lad.surrogate


@pytest.mark.parametrize("n", range(3, 9))
def test_ls_cdf_matches_chi_square(n):
    # the LS distance is sqrt(S_xx), and S_xx of n standard-normal abscissae
    # is chi-square with n - 1 degrees of freedom (ROADMAP item 20)
    rep = distance_cdf(LS, n, 10**5, CDF_SEED)
    assert stats.kstest(rep.sorted_distances ** 2, "chi2", args=(n - 1,)).pvalue >= 1e-3


def test_cdf_consistency_under_doubling():
    for spec in (LS, PC, LAD):
        r1 = distance_cdf(spec, 4, 10**5, CDF_SEED)
        r2 = distance_cdf(spec, 4, 2 * 10**5, CDF_SEED)
        assert abs(r1.exponent - r2.exponent) < r1.stderr


def test_cdf_aug_mean_quadratic():
    rep = distance_cdf(uniform_preset(5), 5, 10**5, CDF_SEED)
    assert abs(rep.exponent - 2.0) <= 0.4
    assert rep.surrogate


def test_pc_cdf_memory_bound():
    # the PC kernel sums centered columns of the draw without a centered or
    # transposed copy of it; centering the whole batch with numpy's
    # reductions peaked at 18.4e6 bytes here
    assert peak_bytes(lambda: distance_cdf(PC, 4, 10**5, CDF_SEED)) <= 17.6 * 2**20


def test_cdf_holds_its_distances_and_one_chunk():
    # 3.2 MB of sorted distances plus one drawn chunk and its kernel's
    # arrays per worker; the whole 4 * 10^5-row draw and its outcome peaked
    # at 49.6 MiB
    assert peak_bytes(lambda: distance_cdf(PC, 4, 4 * 10**5, CDF_SEED)) <= 8 * 2**20


@pytest.mark.parametrize("workers", [1, 2])
def test_lad_cdf_holds_its_distances_and_one_chunk_per_worker(workers, monkeypatch):
    # at n = 12 a chunk buffer takes 3 MiB: the peak is the 0.8 MB of
    # distances plus, per worker, one chunk buffer and the LAD kernel's
    # blocks (at most 16 block budgets, as for one batch alone); a second
    # buffer per worker, or the whole 19.2 MB draw, would exceed it
    monkeypatch.setattr(measure, "_worker_count", lambda: workers)
    total, chunk = 10**5, (1 << 14) * 12 * 2 * 8
    bound = 8 * total + workers * (chunk + 16 * datamaps._BLOCK_BYTES)
    assert peak_bytes(lambda: distance_cdf(LAD, 12, total, CDF_SEED)) <= bound


@pytest.mark.parametrize("spec, n", [(LS, 4), (PC, 4), (LAD, 4), (LAD, 12), (uniform_preset(3), 3)],
                         ids=["ls", "pc", "lad", "lad-12", "augmean"])
def test_cdf_bits_do_not_depend_on_the_worker_count(spec, n, monkeypatch):
    # a sample count off the chunk grid, so the last chunk is ragged: 1, 2
    # and 4 workers give the same distances and fit, bit for bit
    reports = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(measure, "_worker_count", lambda: workers)
        reports.append(distance_cdf(spec, n, 3 * (1 << 14) + 5, CDF_SEED))
    for got in reports[1:]:
        assert np.array_equal(got.sorted_distances.view(np.int64), reports[0].sorted_distances.view(np.int64))
        assert got.exponent.hex() == reports[0].exponent.hex()


@pytest.mark.parametrize("spec, n", [(LS, 4), (LS, 12), (PC, 4), (PC, 12), (LAD, 4), (LAD, 12),
                                     (uniform_preset(3), 3)],
                         ids=["ls", "ls-12", "pc", "pc-12", "lad", "lad-12", "augmean"])
def test_cdf_bits_do_not_depend_on_the_block_budget(spec, n, monkeypatch):
    # evaluate_batch cuts each chunk into row blocks of _BLOCK_BYTES: the
    # old 192 KB budget, the current one, and 20 000 bytes, whose blocks
    # leave every chunk a ragged last block, give the same distances and
    # fit, bit for bit
    reports = []
    for budget in (192 << 10, datamaps._BLOCK_BYTES, 20_000):
        monkeypatch.setattr(datamaps, "_BLOCK_BYTES", budget)
        reports.append(distance_cdf(spec, n, 3 * (1 << 14) + 5, CDF_SEED))
    for got in reports[1:]:
        assert np.array_equal(got.sorted_distances.view(np.int64), reports[0].sorted_distances.view(np.int64))
        assert got.exponent.hex() == reports[0].exponent.hex()


def whole_draw(total, shape, seed, draw, reduce, workers):
    """The draw as one (total, *shape) array, filled chunk by chunk in place,
    reduced as a single chunk: the estimators then reduce the whole cloud at
    once."""
    out = np.empty((total, *shape))
    for start in range(0, total, 1 << 14):
        draw(np.random.default_rng((seed, start)), out[start:start + (1 << 14)])
    reduce(0, out)


@pytest.mark.parametrize("total", [16_385, 49_153])
def test_streamed_estimators_equal_the_whole_draw(total, monkeypatch):
    # sample counts off the chunk grid: the last chunk is one row long, and
    # the reduced chunks must give the bits of reducing the whole cloud;
    # tubes and CDFs both draw through _drawn_chunks, replaced here by the
    # whole array
    fixtures = [point_distance_fn((0.5, 0.5)), segment_distance_fn((0.25, 0.5), (0.75, 0.5)),
                circle_distance_fn((0.5, 0.5), 0.2)]
    cdfs = [(LS, 4), (PC, 4), (LAD, 4), (uniform_preset(3), 3)]
    streamed = ([tube_volume(fn, (0, 0), (1, 1), DELTAS, total, TUBE_SEED) for fn in fixtures],
                [distance_cdf(spec, n, total, CDF_SEED) for spec, n in cdfs])
    monkeypatch.setattr(measure, "_drawn_chunks", whole_draw)
    whole = ([tube_volume(fn, (0, 0), (1, 1), DELTAS, total, TUBE_SEED) for fn in fixtures],
             [distance_cdf(spec, n, total, CDF_SEED) for spec, n in cdfs])
    for got, want in zip(streamed[0], whole[0]):
        assert repr(got) == repr(want)
    for got, want in zip(streamed[1], whole[1]):
        assert np.array_equal(got.sorted_distances.view(np.int64), want.sorted_distances.view(np.int64))
        assert got.to_dict() == want.to_dict()
        assert got.exponent.hex() == want.exponent.hex() and got.stderr.hex() == want.stderr.hex()


@pytest.mark.parametrize("fixture", [point_distance_fn((0.5, 0.5)), segment_distance_fn((0.25, 0.5), (0.75, 0.5)),
                                     circle_distance_fn((0.5, 0.5), 0.2)], ids=["point", "segment", "circle"])
def test_tube_bits_do_not_depend_on_the_worker_count(fixture, monkeypatch):
    # tubes run on one worker for speed alone: on 1, 2 and 4 workers, with a
    # ragged last chunk, every count, volume and the fit keep their bits
    drawn_chunks, reports = measure._drawn_chunks, []
    for count in (1, 2, 4):
        def on_count(total, shape, seed, draw, reduce, workers, count=count):
            drawn_chunks(total, shape, seed, draw, reduce, count)

        monkeypatch.setattr(measure, "_drawn_chunks", on_count)
        reports.append(repr(tube_volume(fixture, (0, 0), (1, 1), DELTAS, 3 * (1 << 14) + 5, TUBE_SEED)))
    assert reports[1:] == reports[:1] * 2


def test_cdf_preconditions():
    with pytest.raises(ContractViolation):
        distance_cdf(LS, 4, 5000, 0)
    with pytest.raises(ContractViolation):
        distance_cdf(LS, 4, 10**4, 0, quantile_window=(0.05, 0.2))
    with pytest.raises(ContractViolation, match="no CDF sampler"):
        distance_cdf(DataMapSpec(kind=MapKind.DISK_DECISION, radius=0.5), 4, 10**4, 0)


@pytest.mark.parametrize("spec", [uniform_preset(1), concentrated_preset(3)], ids=["one-point", "concentrated"])
def test_cdf_refuses_an_augmented_mean_without_singular_set(spec):
    # with one point and w0 = 0.5, |r| >= 0.5 for every draw: the "distances"
    # were all >= 0.5 and read a tail exponent of 86.15
    assert not aug_mean_singular_set_nonempty(spec)
    with pytest.raises(ContractViolation, match="the augmented mean's singular set is empty for these weights and w0"):
        distance_cdf(spec, len(spec.weights), 10**4, 0)


# ---------------------------------------------------------------------------
# Tradeoff experiment
# ---------------------------------------------------------------------------

def test_tradeoff_uniform_distance_matches_symmetric_solution():
    # nearest zero-resultant configuration from the all-up perfect fit
    # spreads two points by +-acos((w0 - 1) / 2): distance sqrt(2) * v
    rep = tradeoff_experiment({"UNIFORM": uniform_preset(3)}, 3, seed=11)
    entry = rep.entries[0]
    assert entry.feasible
    expected = math.sqrt(2) * math.acos((0.5 - 1) / 2)
    assert abs(entry.dist_s_to_p - expected) < 1e-3


def test_tradeoff_inverse_ordering():
    presets = {
        "UNIFORM": uniform_preset(3),
        "MODERATE": DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0, 1.0, 1.0), w0=2.0),
    }
    rep = tradeoff_experiment(presets, 3, seed=11)
    by_name = {e.preset_name: e for e in rep.entries}
    far, near = by_name["UNIFORM"], by_name["MODERATE"]
    assert far.dist_s_to_p > near.dist_s_to_p
    assert far.measure_upper >= near.measure_upper
    assert far.measure_lower >= near.measure_lower
    # entries sorted by distance
    assert [e.preset_name for e in rep.entries] == ["MODERATE", "UNIFORM"]


def test_tradeoff_concentrated_infeasible_at_n3():
    # w0 = 8 exceeds the total observation weight at n = 3: the resultant
    # never vanishes and the preset is flagged
    rep = tradeoff_experiment(
        {"UNIFORM": uniform_preset(3), "CONCENTRATED": concentrated_preset(3)}, 3, seed=11
    )
    by_name = {e.preset_name: e for e in rep.entries}
    assert not by_name["CONCENTRATED"].feasible
    assert math.isinf(by_name["CONCENTRATED"].dist_s_to_p)
    assert by_name["UNIFORM"].feasible


def closure_length(w0, samples=100_001):
    """Quadrature oracle for H^1(S) at n = 3 with unit weights and a = (1, 0).

    Over the third angle, c = e^{i phi_3} + w0 is closed by the two branches
    phi_{1,2} = arg(-c) +- acos(|c| / 2), which exist where |c| <= 2.  Each
    branch is summed as a polyline of wrapped steps; where |c| reaches 2 the
    phi_3 grid is cosine-spaced, so it runs into both ends of the arc, where
    the branches meet.
    """
    edge = (3.0 - w0 * w0) / (2.0 * w0)  # |c| < 2 where cos(phi_3) < edge
    if edge >= 1.0:
        phi3 = np.linspace(0.0, 2.0 * math.pi, samples)
    else:
        phi3 = math.pi - (math.pi - math.acos(edge)) * np.cos(np.linspace(0.0, math.pi, samples))
    c = np.exp(1j * phi3) + w0
    mid, spread = np.angle(-c), np.arccos(np.minimum(np.abs(c) / 2.0, 1.0))
    length = 0.0
    for sign in (1.0, -1.0):
        path = np.stack([mid + sign * spread, mid - sign * spread, phi3], axis=1)
        length += float(np.sum(np.linalg.norm(np.angle(np.exp(1j * np.diff(path, axis=0))), axis=1)))
    return length


MODERATE = {"MODERATE": DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * 3, w0=2.0)}


def test_tradeoff_n3_counts_match_the_two_link_closure():
    # UNIFORM (w0 = 1/2): every slice has |c| in [1/2, 3/2], so two zeros on
    # each of the three, and X = 2 pi * 6 on every draw.  MODERATE (w0 = 2):
    # a slice has its two zeros where |e^{i phi_k} + 2| < 2, on an arc of
    # 2 pi - 2 acos(-1/4) of phi_k
    rep = tradeoff_experiment({"UNIFORM": uniform_preset(3), **MODERATE}, 3, seed=11)
    by_name = {e.preset_name: e for e in rep.entries}
    assert by_name["UNIFORM"].measure_upper == 12 * math.pi
    assert by_name["UNIFORM"].measure_stderr == 0.0
    moderate = by_name["MODERATE"]
    assert abs(moderate.measure_upper - 6 * (2 * math.pi - 2 * math.acos(-0.25))) <= 4 * moderate.measure_stderr


def test_closure_length_oracle_converged():
    # 22.4175 and 9.6215 to four places; a tenth of the grid agrees to 1e-6
    for w0, want in ((0.5, 22.4175), (2.0, 9.6215)):
        assert abs(closure_length(w0) - want) < 5e-5
        assert abs(closure_length(w0, samples=10_001) - closure_length(w0)) < 1e-6


def test_tradeoff_n3_bracket_holds_the_closure_length():
    rep = tradeoff_experiment({"UNIFORM": uniform_preset(3), **MODERATE}, 3, seed=11)
    for entry in rep.entries:
        assert entry.measure_lower <= closure_length(entry.w0) <= entry.measure_upper


def test_tradeoff_n2_bracket_is_the_two_points():
    # at n = 2, S is the two mirror closures of e^{i phi_1} + e^{i phi_2} = -w0 a
    (entry,) = tradeoff_experiment({"UNIFORM": uniform_preset(2)}, 2, seed=11).entries
    assert (entry.measure_lower, entry.measure_upper, entry.measure_stderr) == (2.0, 2.0, 0.0)


@pytest.mark.parametrize("n", [5, 8, 17])
def test_tradeoff_measure_separates_presets(n):
    # the two presets' singular sets differ, so their measures must differ by
    # more than the sampling noise, at any n (a measure read off a finite
    # cloud can saturate at a value set by the cloud size alone)
    presets = {"UNIFORM": uniform_preset(n),
               "MODERATE": DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * n, w0=2.0)}
    by_name = {e.preset_name: e for e in tradeoff_experiment(presets, n, seed=11).entries}
    uniform, moderate = by_name["UNIFORM"], by_name["MODERATE"]
    spread = math.hypot(uniform.measure_stderr, moderate.measure_stderr)
    assert abs(uniform.measure_upper - moderate.measure_upper) > 4 * spread


def fixed_step_projection(angles, spec):
    """Reference Gauss-Newton projection: GAUSS_NEWTON_ITERS steps on every row."""
    # section_jacobian's arrays are F-ordered, so these np.sum calls add each
    # row's n terms one after another, where metrics._gram_sum adds them
    # pairwise; the two orders agree below n = 8, and the callers use n = 3, 5
    phi = angles.copy()
    for _ in range(GAUSS_NEWTON_ITERS):
        (rx, ry), (jx, jy) = section_jacobian(spec, phi)
        g11 = np.sum(jx * jx, axis=1)
        g12 = np.sum(jx * jy, axis=1)
        g22 = np.sum(jy * jy, axis=1)
        det = g11 * g22 - g12 * g12
        det = np.where(np.abs(det) < 1e-12, np.nan, det)
        lam1 = (g22 * rx - g12 * ry) / det
        lam2 = (g11 * ry - g12 * rx) / det
        phi = phi - (jx * lam1[:, None] + jy * lam2[:, None])
    return phi


def test_converged_gauss_newton_matches_fixed_steps():
    # freezing converged rows lands the same rows at the same points; the
    # first start is the all-equal perfect fit nearest -a, a saddle whose
    # Gram matrix goes singular, so its row comes back NaN from both
    specs = [uniform_preset(3), DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * 3, w0=2.0),
             uniform_preset(5)]
    for k, spec in enumerate(specs):
        rng = np.random.default_rng((19, k))
        a_x, a_y = spec.aug_point
        saddle = np.full((1, len(spec.weights)), math.atan2(-a_y, -a_x))
        starts = np.vstack([saddle, 2.0 * math.pi * rng.random((3000, len(spec.weights)))])
        got = _project_to_zero_resultant(starts, spec)
        want = fixed_step_projection(starts, spec)
        assert np.all(np.isnan(got[0])) and np.all(np.isnan(want[0]))
        landed = []
        for phi in (got, want):
            # the map refuses non-finite rows, and a NaN row never lands
            finite = np.isfinite(phi).all(axis=1)
            landed.append(finite.copy())
            landed[-1][finite] = evaluate_batch(spec, phi[finite]).gap < 1e-9
        assert np.array_equal(landed[0], landed[1])
        assert landed[0].sum() > 2000
        assert np.max(np.abs(got[landed[0]] - want[landed[0]])) <= 1e-10


def test_tradeoff_refuses_an_empty_draw():
    # a mean over no draws is NaN, with a RuntimeWarning
    with pytest.raises(ContractViolation, match="cloud_size"):
        tradeoff_experiment({"UNIFORM": uniform_preset(3)}, 3, seed=11, cloud_size=0)


@pytest.mark.parametrize("spec, message", [
    (PC, "must be AUG_MEAN specs"),
    (uniform_preset(4), "has 4 weights for n=3"),
])
def test_tradeoff_refuses_a_preset_it_cannot_run(spec, message):
    with pytest.raises(ContractViolation, match=message):
        tradeoff_experiment({"BAD": spec}, 3, seed=11, cloud_size=100)


def test_tradeoff_single_point_sanity():
    # n = 1, w0 = 0.5: |rho| >= 0.5 so S is empty, distance flagged infinite
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,), w0=0.5)
    assert not aug_mean_singular_set_nonempty(spec)
    rep = tradeoff_experiment({"single": spec}, 1, seed=11)
    assert not rep.entries[0].feasible
    assert math.isinf(rep.entries[0].dist_s_to_p)


def test_tradeoff_spec_presets_at_seventeen_points():
    # the paper's figure uses 17 points; there CONCENTRATED is feasible and
    # sits closer to the perfect fits than UNIFORM
    rep = tradeoff_experiment(
        {"UNIFORM": uniform_preset(17), "CONCENTRATED": concentrated_preset(17)},
        17,
        seed=11,
        cloud_size=500,
    )
    by_name = {e.preset_name: e for e in rep.entries}
    assert by_name["UNIFORM"].feasible and by_name["CONCENTRATED"].feasible
    assert by_name["UNIFORM"].dist_s_to_p > by_name["CONCENTRATED"].dist_s_to_p


# ---------------------------------------------------------------------------
# Zero-dimensional-P law: H^1 of the decision circle is 2 pi R
# ---------------------------------------------------------------------------

def test_disk_decision_circle_measure_linear_in_radius():
    meshes = np.geomspace(0.08, 0.0025, 6)
    estimates = {}
    for radius in (0.1, 0.2, 0.4):
        est = box_count_dimension(
            circle_cell_membership((0.0, 0.0), radius),
            (-0.6, -0.6),
            (0.6, 0.6),
            meshes,
            measure_s=1,
        )
        estimates[radius] = est.measure_at_dim
        assert 0.5 * 2 * math.pi * radius <= est.measure_at_dim <= 2 * 2 * math.pi * radius
    s1 = (estimates[0.2] - estimates[0.1]) / 0.1
    s2 = (estimates[0.4] - estimates[0.2]) / 0.2
    assert abs(s2 / s1 - 1.0) <= 0.10
