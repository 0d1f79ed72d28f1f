"""Packing/covering, box counting, tube volumes, CDF tails, tradeoff."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singlab.datamaps import (
    DataMapSpec,
    MapKind,
    aug_mean_resultant,
    concentrated_preset,
    evaluate_batch,
    uniform_preset,
)
from singlab.geometry import ContractViolation
from singlab.measure import (
    GAUSS_NEWTON_ITERS,
    _project_to_zero_resultant,
    aug_mean_singular_set_nonempty,
    box_count_dimension,
    circle_cell_membership,
    circle_distance_fn,
    covering_number,
    distance_cdf,
    filled_box_membership,
    packing_number,
    point_distance_fn,
    segment_distance_fn,
    tradeoff_experiment,
    tube_volume,
)

CIRCLE_100 = np.array(
    [[math.cos(2 * math.pi * k / 100), math.sin(2 * math.pi * k / 100)] for k in range(100)]
)


# ---------------------------------------------------------------------------
# Packing and covering
# ---------------------------------------------------------------------------

def test_two_point_cloud():
    cloud = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert covering_number(cloud, 0.4) == 2
    assert packing_number(cloud, 0.4) == 2
    assert covering_number(cloud, 3.0) == 1
    assert packing_number(cloud, 3.0) == 1


def test_circle_cloud_greedy_pinned():
    # greedy-by-index on the 100-point circle keeps every second point at
    # delta = 0.1 (chord of two steps is 2 sin(2 pi / 100) > 0.1)
    assert covering_number(CIRCLE_100, 0.1) == 50
    assert packing_number(CIRCLE_100, 0.1) == 50


def test_packing_covering_chain():
    # N(delta/2) >= D(delta) >= N(delta), exactly, on all fixtures
    rng = np.random.default_rng(51)
    clouds = [CIRCLE_100, np.array([[0.0, 0.0], [1.0, 0.0]]), rng.standard_normal((200, 2)),
              rng.standard_normal((100, 3))]
    for cloud in clouds:
        for delta in (0.05, 0.1, 0.3, 0.9):
            assert covering_number(cloud, delta / 2) >= packing_number(cloud, delta)
            assert packing_number(cloud, delta) >= covering_number(cloud, delta)


def test_greedy_validation():
    with pytest.raises(ContractViolation):
        covering_number(np.empty((0, 2)), 0.1)
    with pytest.raises(ContractViolation):
        packing_number(CIRCLE_100, 0.0)


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


def test_box_count_preconditions():
    with pytest.raises(ContractViolation):
        box_count_dimension(np.array([[0.5, 0.5]]), (0, 0), (1, 1), [0.1, 0.05, 0.02])
    with pytest.raises(ContractViolation):
        box_count_dimension(np.array([[0.5, 0.5]]), (0, 0), (1, 1), [0.1, 0.08, 0.06, 0.04])


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


def test_tube_monotone_volumes():
    rep = tube_volume(point_distance_fn((0.5, 0.5)), (0, 0), (1, 1), DELTAS, 10**4 * 2, TUBE_SEED)
    assert all(b >= a for a, b in zip(rep.volumes, rep.volumes[1:]))


def test_tube_preconditions():
    with pytest.raises(ContractViolation):
        tube_volume(point_distance_fn((0.5, 0.5)), (0, 0), (1, 1), DELTAS, 5000, 0)


# ---------------------------------------------------------------------------
# Distance CDFs
# ---------------------------------------------------------------------------

CDF_SEED = 20260810
LS = DataMapSpec(kind=MapKind.LS_LINE)
PC = DataMapSpec(kind=MapKind.PC_LINE)
LAD = DataMapSpec(kind=MapKind.LAD_LINE)


def test_cdf_codim_tail_law():
    ls = distance_cdf(LS, 4, 10**5, CDF_SEED)
    pc = distance_cdf(PC, 4, 10**5, CDF_SEED)
    lad = distance_cdf(LAD, 4, 10**5, CDF_SEED)
    assert abs(ls.exponent - 3.0) <= 0.5
    assert abs(pc.exponent - 2.0) <= 0.3
    assert abs(lad.exponent - 1.0) <= 0.3
    assert not ls.surrogate and pc.surrogate and lad.surrogate


def test_cdf_consistency_under_doubling():
    for spec in (LS, PC, LAD):
        r1 = distance_cdf(spec, 4, 10**5, CDF_SEED)
        r2 = distance_cdf(spec, 4, 2 * 10**5, CDF_SEED)
        assert abs(r1.exponent - r2.exponent) < r1.stderr


def test_cdf_aug_mean_quadratic():
    rep = distance_cdf(uniform_preset(5), 5, 10**5, CDF_SEED)
    assert abs(rep.exponent - 2.0) <= 0.4
    assert rep.surrogate


def test_cdf_preconditions():
    with pytest.raises(ContractViolation):
        distance_cdf(LS, 4, 5000, 0)
    with pytest.raises(ContractViolation):
        distance_cdf(LS, 4, 10**4, 0, quantile_window=(0.05, 0.2))


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
    assert far.measure_estimate >= near.measure_estimate
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


def fixed_step_projection(angles, spec):
    """Reference Gauss-Newton projection: GAUSS_NEWTON_ITERS steps on every row."""
    phi = angles.copy()
    for _ in range(GAUSS_NEWTON_ITERS):
        r, jac = aug_mean_resultant(phi, spec)
        rx, ry = r[:, 0], r[:, 1]
        jx, jy = jac[:, 0], jac[:, 1]
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
    # freezing converged rows lands the same rows at the same points
    specs = [uniform_preset(3), DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * 3, w0=2.0),
             uniform_preset(5)]
    for k, spec in enumerate(specs):
        rng = np.random.default_rng((19, k))
        starts = 2.0 * math.pi * rng.random((3000, len(spec.weights)))
        got = _project_to_zero_resultant(starts, spec)
        want = fixed_step_projection(starts, spec)
        landed = []
        for phi in (got, want):
            res = evaluate_batch(spec, phi).gap
            landed.append(np.isfinite(res) & (res < 1e-9))
        assert np.array_equal(landed[0], landed[1])
        assert landed[0].sum() > 2000
        assert np.max(np.abs(got[landed[0]] - want[landed[0]])) <= 1e-10


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
