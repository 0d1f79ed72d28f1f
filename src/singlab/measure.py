"""Measure-theoretic estimators for singular sets.

Greedy packing/covering numbers, box-count dimension with an upper-bound
Hausdorff-measure surrogate, Monte-Carlo tube volumes with a codimension
fit, distance-to-singular-set CDFs with tail exponents, and the
measure-versus-distance tradeoff experiment for augmented means.

All Monte-Carlo draws come in chunks, each from its own generator seeded
by (seed, first row of the chunk), merged in chunk order.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from singlab.datamaps import (
    DataMapSpec,
    MapKind,
    aug_mean_resultant,
    evaluate_batch,
)
from singlab.geometry import ContractViolation, omega_s
from singlab.metrics import (
    DIST_SURROGATE,
    SINGULAR_DISTANCE,
    penalty_projection,
    symmetric_start_pair,
)

DEFAULT_QUANTILE_WINDOW = (0.002, 0.05)

# Tradeoff experiment: Gauss-Newton steps of the cloud projection (a cap:
# a row stops once its resultant is below GAUSS_NEWTON_TOL), grid of the
# perfect-fit scan, and box-count meshes of the measure surrogate.
GAUSS_NEWTON_ITERS = 60
GAUSS_NEWTON_TOL = 1e-12
PERFECT_FIT_SCAN = 720
TRADEOFF_MESH_SIZES = tuple(np.geomspace(0.8, 0.02, 6))


# ---------------------------------------------------------------------------
# Packing and covering numbers
# ---------------------------------------------------------------------------

def _greedy_net(cloud: np.ndarray, delta: float) -> int:
    """Greedy delta-net by index order.

    The selected centers are pairwise more than delta apart (a packing) and
    every cloud point is within delta of one (a cover), so the count upper
    bounds the covering number and lower bounds the packing number.
    """
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2 or cloud.shape[0] < 1:
        raise ContractViolation("point cloud must be a nonempty (m, d) array")
    if delta <= 0:
        raise ContractViolation("delta must be positive")
    centers = np.empty_like(cloud)
    count = 0
    for p in cloud:
        if count == 0 or np.min(np.linalg.norm(centers[:count] - p, axis=1)) > delta:
            centers[count] = p
            count += 1
    return count


def covering_number(cloud, delta: float) -> int:
    """Size of the greedy delta-cover of the cloud (insertion order by index)."""
    return _greedy_net(cloud, delta)


def packing_number(cloud, delta: float) -> int:
    """Size of the greedy maximal delta-packing of the cloud.

    Same greedy net as covering_number: a maximal packing is automatically a
    cover, and the chain N(delta/2) >= D(delta) >= N(delta) holds on the
    greedy estimates because the net size is nonincreasing in delta.
    """
    return _greedy_net(cloud, delta)


# ---------------------------------------------------------------------------
# Box-count dimension and measure surrogate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimensionEstimate:
    """Box-count dimension with an H^s surrogate at the rounded dimension."""

    mesh_sizes: tuple[float, ...]
    occupied_counts: tuple[int, ...]
    dimension: float
    measure_at_dim: float
    measure_exponent: float
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "mesh_sizes": list(self.mesh_sizes),
            "occupied_counts": list(self.occupied_counts),
            "dimension": self.dimension,
            "measure_at_dim": self.measure_at_dim,
            "measure_exponent": self.measure_exponent,
            "degenerate": self.degenerate,
        }


def _cell_counts(lo: np.ndarray, hi: np.ndarray, delta: float) -> np.ndarray:
    """Cells per axis of the delta-grid over the domain box; the last cell of
    an axis is clipped at hi."""
    return np.maximum(np.ceil((hi - lo) / delta - 1e-12).astype(int), 1)


def _distinct_rows(idx: np.ndarray) -> np.ndarray:
    """The distinct rows of an integer array (k, d), by one lexsort.

    Unlike a raveled flat index it never overflows, however many cells the
    grid has (a 17-point tradeoff cloud lives on a 315^17-cell grid).
    """
    idx = idx[np.lexsort(idx.T)]
    first = np.ones(len(idx), dtype=bool)
    first[1:] = np.any(idx[1:] != idx[:-1], axis=1)
    return idx[first]


def _cloud_count(cloud: np.ndarray, lo: np.ndarray, hi: np.ndarray, delta: float) -> int:
    """Number of delta-cells of the domain box holding a point of the cloud."""
    counts = _cell_counts(lo, hi, delta)
    idx = np.floor((cloud - lo[None, :]) / delta).astype(int)
    return len(_distinct_rows(np.clip(idx, 0, counts[None, :] - 1)))


def _overlapping_cells(occupied: np.ndarray, coarse: float, delta: float, counts: np.ndarray) -> np.ndarray:
    """Indices (k, d) of the delta-cells that overlap an occupied coarse cell.

    ``occupied`` is the coarse grid's boolean mask.  Along each axis, coarse
    cell k overlaps the fine cells floor(k coarse / delta) to floor((k + 1)
    coarse / delta), padded here by one on each side so rounding never drops
    one.  Both ends grow with k, so the coarse cells over fine cell j form a
    short run [k_lo, k_hi), and fine cell j is kept when any cell of its run
    is occupied.  One axis at a time, that maps the mask onto the fine grid.
    """
    mask = occupied
    for axis, n in enumerate(counts):
        size = mask.shape[axis]
        k = np.arange(size + 1)
        first = np.floor(k[:-1] * coarse / delta).astype(int) - 1
        last = np.floor(k[1:] * coarse / delta).astype(int) + 1
        j = np.arange(n)
        k_lo = np.searchsorted(last, j, side="left")
        k_hi = np.searchsorted(first, j, side="right")
        along = [n if a == axis else 1 for a in range(mask.ndim)]
        fine = np.zeros(mask.shape[:axis] + (n,) + mask.shape[axis + 1:], dtype=bool)
        for t in range(int(np.max(k_hi - k_lo, initial=0))):
            k = k_lo + t
            fine |= np.take(mask, np.minimum(k, size - 1), axis=axis) & (k < k_hi).reshape(along)
        mask = fine
    return np.argwhere(mask)


def _predicate_counts(pred, lo: np.ndarray, hi: np.ndarray, mesh_sizes) -> list[int]:
    """Occupied-cell counts of a cell predicate on decreasing meshes.

    Coarse to fine, as a quadtree (Liebovitch & Toth 1989, Phys. Lett. A
    141): the coarsest grid is tested in full, and each finer grid only on
    the cells overlapping an occupied cell of the previous one.  A point of
    the set in a fine cell lies in some coarse cell, which is then occupied,
    so no occupied fine cell is skipped.
    """
    counts = []
    occupied = coarse = None
    for delta in mesh_sizes:
        n_cells = _cell_counts(lo, hi, delta)
        if occupied is None:
            cells = np.argwhere(np.ones(n_cells, dtype=bool))
        else:
            cells = _overlapping_cells(occupied, coarse, delta, n_cells)
        c_lo = lo[None, :] + cells * delta
        c_hi = np.minimum(c_lo + delta, hi[None, :])
        hit = cells[pred(c_lo, c_hi)]
        occupied = np.zeros(n_cells, dtype=bool)
        occupied[tuple(hit.T)] = True
        coarse = delta
        counts.append(len(hit))
    return counts


def box_count_dimension(
    membership,
    domain_lo,
    domain_hi,
    mesh_sizes,
    measure_s: float | None = None,
) -> DimensionEstimate:
    """Box-count dimension of a set given as a point cloud or cell predicate.

    dimension is the least-squares slope of log N(delta) against
    log(1/delta).  The measure surrogate is omega_s * N(d_min) *
    (d_min * sqrt(dim) / 2)^s at s = round(dimension) unless ``measure_s``
    pins s explicitly; each occupied cell is treated as one covering set of
    diameter d_min * sqrt(dim), so this is an upper-bound-flavored H^s
    estimate, not the true Hausdorff measure.

    A point cloud counts the cells holding one of its points.  A cell
    predicate maps stacked closed-cell bounds (M, d), (M, d) to a bool mask
    and is tested coarse to fine, only near the cells the previous mesh found
    occupied.  The counts then equal those of testing every cell whenever the
    predicate is an exact closed-cell intersection test, as
    ``circle_cell_membership`` and ``filled_box_membership`` are.
    """
    lo = np.asarray(domain_lo, dtype=float)
    hi = np.asarray(domain_hi, dtype=float)
    mesh_sizes = sorted((float(m) for m in mesh_sizes), reverse=True)
    if len(mesh_sizes) < 4:
        raise ContractViolation("need at least 4 mesh sizes")
    if mesh_sizes[0] / mesh_sizes[-1] < 10 ** 1.5:
        raise ContractViolation("mesh sizes must span at least 1.5 decades")
    if isinstance(membership, np.ndarray):
        counts = [_cloud_count(membership, lo, hi, d) for d in mesh_sizes]
    else:
        counts = _predicate_counts(membership, lo, hi, mesh_sizes)
    degenerate = len(set(counts)) == 1
    if degenerate:
        dimension = 0.0
    else:
        slope = np.polyfit(np.log(1.0 / np.asarray(mesh_sizes)), np.log(counts), 1)[0]
        dimension = float(slope)
    s = float(round(dimension)) if measure_s is None else float(measure_s)
    d_min = mesh_sizes[-1]
    n_min = counts[-1]
    diam = d_min * math.sqrt(lo.size)
    measure = omega_s(s) * n_min * (diam / 2.0) ** s
    return DimensionEstimate(
        mesh_sizes=tuple(mesh_sizes),
        occupied_counts=tuple(int(c) for c in counts),
        dimension=dimension,
        measure_at_dim=measure,
        measure_exponent=s,
        degenerate=degenerate,
    )


def circle_cell_membership(center, radius: float):
    """Vectorized cell predicate: does the circle intersect the cell?"""
    c = np.asarray(center, dtype=float)

    def pred(lo, hi):
        nearest = np.clip(c[None, :], lo, hi)
        d_min = np.linalg.norm(nearest - c[None, :], axis=1)
        # farthest corner per axis, so d_max is the max distance to the cell
        far = np.where(np.abs(lo - c[None, :]) > np.abs(hi - c[None, :]), lo, hi)
        d_max = np.linalg.norm(far - c[None, :], axis=1)
        return (d_min <= radius) & (radius <= d_max)

    return pred


def filled_box_membership(lo_set, hi_set):
    """Vectorized cell predicate for a filled axis-aligned box."""
    lo_set = np.asarray(lo_set, dtype=float)
    hi_set = np.asarray(hi_set, dtype=float)

    def pred(lo, hi):
        return np.all(hi >= lo_set[None, :], axis=1) & np.all(lo <= hi_set[None, :], axis=1)

    return pred


# ---------------------------------------------------------------------------
# Tube volumes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TubeReport:
    """Monte-Carlo volumes of delta-neighborhoods with a codimension fit."""

    deltas: tuple[float, ...]
    volumes: tuple[float, ...]
    std_errors: tuple[float, ...]
    dropped_deltas: tuple[float, ...]
    fitted_codim: float
    mc_samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "deltas": list(self.deltas),
            "volumes": list(self.volumes),
            "std_errors": list(self.std_errors),
            "dropped_deltas": list(self.dropped_deltas),
            "fitted_codim": self.fitted_codim,
            "mc_samples": self.mc_samples,
            "seed": self.seed,
        }


def _chunked_draw(total: int, seed: int, draw) -> np.ndarray:
    """``total`` rows drawn in chunks, each from its own derived seed.

    ``draw(rng, rows)`` returns one chunk; the chunk starting at row k uses
    ``default_rng((seed, k))``, and chunks are concatenated in order.
    """
    chunk = 1 << 14
    return np.concatenate(
        [draw(np.random.default_rng((seed, start)), min(chunk, total - start))
         for start in range(0, total, chunk)],
        axis=0,
    )


def tube_volume(
    dist_fn,
    domain_lo,
    domain_hi,
    deltas,
    mc_samples: int,
    seed: int,
) -> TubeReport:
    """Volumes of {dist <= delta} by Monte Carlo, and their log-log slope.

    The same sample cloud serves every delta, which makes the volume table
    exactly monotone in delta.  The codimension fit weights each point by
    its hit count (the variance of log f is roughly 1/hits), and a delta
    with zero hits is dropped with a warning entry.
    """
    lo = np.asarray(domain_lo, dtype=float)
    hi = np.asarray(domain_hi, dtype=float)
    deltas = sorted(float(d) for d in deltas)
    if mc_samples < 10_000:
        raise ContractViolation("mc_samples must be at least 10^4")
    box_vol = float(np.prod(hi - lo))
    pts = _chunked_draw(mc_samples, seed, lambda rng, k: lo + (hi - lo) * rng.random((k, lo.size)))
    d = np.asarray(dist_fn(pts), dtype=float)
    kept, vols, errs, dropped = [], [], [], []
    hits_kept = []
    for delta in deltas:
        hits = int(np.sum(d <= delta))
        if hits == 0:
            dropped.append(delta)
            continue
        frac = hits / mc_samples
        kept.append(delta)
        hits_kept.append(hits)
        vols.append(box_vol * frac)
        errs.append(box_vol * math.sqrt(frac * (1.0 - frac) / mc_samples))
    if len(kept) < 2:
        raise ContractViolation("fewer than two deltas produced hits")
    w = np.asarray(hits_kept, dtype=float)
    x = np.log(kept)
    y = np.log(vols)
    xm = np.average(x, weights=w)
    ym = np.average(y, weights=w)
    slope = float(np.sum(w * (x - xm) * (y - ym)) / np.sum(w * (x - xm) ** 2))
    return TubeReport(
        deltas=tuple(kept),
        volumes=tuple(vols),
        std_errors=tuple(errs),
        dropped_deltas=tuple(dropped),
        fitted_codim=slope,
        mc_samples=mc_samples,
        seed=seed,
    )


def point_distance_fn(point):
    p = np.asarray(point, dtype=float)
    return lambda xs: np.linalg.norm(xs - p[None, :], axis=1)

def segment_distance_fn(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    len2 = float(np.dot(ab, ab))

    def fn(xs):
        t = np.clip((xs - a[None, :]) @ ab / len2, 0.0, 1.0)
        proj = a[None, :] + t[:, None] * ab[None, :]
        return np.linalg.norm(xs - proj, axis=1)

    return fn

def circle_distance_fn(center, radius: float):
    c = np.asarray(center, dtype=float)
    return lambda xs: np.abs(np.linalg.norm(xs - c[None, :], axis=1) - radius)


# ---------------------------------------------------------------------------
# Distance CDFs and tail exponents
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CdfReport:
    """Empirical CDF of distance-to-singular-set with a tail-exponent fit."""

    sorted_distances: np.ndarray
    n_samples: int
    map_kind: str
    exponent: float
    stderr: float
    quantile_window: tuple[float, float]
    seed: int
    surrogate: bool

    def to_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "map_kind": self.map_kind,
            "tail_fit": {
                "exponent": self.exponent,
                "stderr": self.stderr,
                "quantile_window": list(self.quantile_window),
            },
            "seed": self.seed,
            "surrogate": self.surrogate,
        }


def distance_cdf(
    spec: DataMapSpec,
    n_points: int,
    n_samples: int,
    seed: int,
    quantile_window: tuple[float, float] = DEFAULT_QUANTILE_WINDOW,
) -> CdfReport:
    """Distance-to-S CDF from random datasets; tail slope identifies codim S.

    Plane fitters draw iid standard-normal coordinates, the augmented mean
    draws iid uniform circle points.  The exponent is the least-squares
    slope of log F-hat against log t between the window quantiles.
    """
    if n_samples < 10_000:
        raise ContractViolation("n_samples must be at least 10^4")
    q_lo, q_hi = quantile_window
    if not (0.0 < q_lo < q_hi <= 0.1):
        raise ContractViolation("quantile window must satisfy 0 < q_lo < q_hi <= 0.1")
    kind = spec.kind
    if kind is MapKind.AUG_MEAN:
        batch = 2.0 * math.pi * _chunked_draw(n_samples, seed, lambda rng, k: rng.random((k, n_points)))
    elif kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE):
        batch = _chunked_draw(n_samples, seed, lambda rng, k: rng.standard_normal((k, n_points, 2)))
    else:
        raise ContractViolation(f"no CDF sampler for map kind {kind}")
    distance, tag = SINGULAR_DISTANCE[kind]
    dists = np.sort(distance(batch, spec))
    i_lo = max(int(n_samples * q_lo), 1)
    i_hi = max(int(n_samples * q_hi), i_lo + 2)
    idx = np.arange(i_lo, i_hi)
    t = dists[idx]
    f_hat = (idx + 1) / n_samples
    mask = t > 0
    x = np.log(t[mask])
    y = np.log(f_hat[mask])
    slope = float(np.polyfit(x, y, 1)[0])
    # Hill-style tail uncertainty: order statistics are strongly dependent,
    # so an OLS residual stderr would be wildly optimistic here.
    stderr = abs(slope) / math.sqrt(n_samples * q_hi)
    return CdfReport(
        sorted_distances=dists,
        n_samples=n_samples,
        map_kind=kind.value,
        exponent=float(slope),
        stderr=stderr,
        quantile_window=(q_lo, q_hi),
        seed=seed,
        surrogate=tag == DIST_SURROGATE,
    )


# ---------------------------------------------------------------------------
# Tradeoff experiment: measure of S versus its distance to the perfect fits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradeoffEntry:
    preset_name: str
    w0: float
    dist_s_to_p: float
    measure_estimate: float
    feasible: bool

    def to_dict(self) -> dict:
        return {
            "preset_name": self.preset_name,
            "w0": self.w0,
            "dist_S_to_P": self.dist_s_to_p if math.isfinite(self.dist_s_to_p) else "inf",
            "measure_estimate": self.measure_estimate,
            "feasible": self.feasible,
        }


@dataclass(frozen=True)
class TradeoffReport:
    entries: tuple[TradeoffEntry, ...]
    n_points: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "n_points": self.n_points,
            "seed": self.seed,
        }


def _project_to_zero_resultant(angles: np.ndarray, spec: DataMapSpec) -> np.ndarray:
    """Gauss-Newton projection of angle configurations onto {resultant = 0}.

    Underdetermined least-norm steps, on the active rows only: a row is
    frozen once its resultant norm drops below GAUSS_NEWTON_TOL, and the
    iteration stops when none is left or after GAUSS_NEWTON_ITERS steps.
    Rows that go NaN never freeze; rows that fail to converge are left with
    a nonzero residual and filtered by the caller.
    """
    phi = angles.copy()
    active = np.arange(len(phi))
    for _ in range(GAUSS_NEWTON_ITERS):
        r, jac = aug_mean_resultant(phi[active], spec)
        moving = ~(np.hypot(r[:, 0], r[:, 1]) < GAUSS_NEWTON_TOL)
        active = active[moving]
        if active.size == 0:
            break
        rx, ry = r[moving, 0], r[moving, 1]
        jx, jy = jac[moving, 0], jac[moving, 1]
        g11 = np.sum(jx * jx, axis=1)
        g12 = np.sum(jx * jy, axis=1)
        g22 = np.sum(jy * jy, axis=1)
        det = g11 * g22 - g12 * g12
        det = np.where(np.abs(det) < 1e-12, np.nan, det)
        lam1 = (g22 * rx - g12 * ry) / det
        lam2 = (g11 * ry - g12 * rx) / det
        phi[active] -= jx * lam1[:, None] + jy * lam2[:, None]
    return phi


def aug_mean_singular_set_nonempty(spec: DataMapSpec) -> bool:
    """Whether {resultant = 0} is nonempty.

    |sum w_i x_i| over unit vectors x_i ranges over [max(0, 2 max w - sum w),
    sum w], so the augmentation can be cancelled exactly when w0 lies in that
    interval (the top end excluded to keep S off the perfect fits).
    """
    w = np.asarray(spec.weights, dtype=float)
    lo = max(0.0, 2.0 * float(np.max(w)) - float(np.sum(w)))
    return lo <= spec.w0 < float(np.sum(w))


def _aug_mean_dist_to_perfect(spec: DataMapSpec) -> float:
    """Distance from {resultant = 0} to the all-equal configurations.

    A 1-D scan over the common point of the perfect fit finds the resultant
    minimizer; the configuration is then projected off the diagonal onto the
    singular set by penalty continuation (the start is nudged asymmetrically,
    both ways, since the diagonal is a symmetry saddle of the penalty) and the
    smaller landed arc-metric displacement reported.
    """
    if not aug_mean_singular_set_nonempty(spec):
        return math.inf
    n = len(spec.weights)
    phis = 2.0 * math.pi * np.arange(PERFECT_FIT_SCAN) / PERFECT_FIT_SCAN
    norms = evaluate_batch(spec, np.repeat(phis[:, None], n, axis=1)).gap
    base = np.full(n, float(phis[int(np.argmin(norms))]))
    return penalty_projection(base, symmetric_start_pair(base),
                              lambda phi: aug_mean_resultant(phi, spec))


def tradeoff_experiment(
    presets: dict[str, DataMapSpec],
    n_points: int,
    seed: int,
    cloud_size: int = 20_000,
) -> TradeoffReport:
    """Per preset: distance from S to the perfect fits, and a box-count
    H^{n-2} surrogate of S from a root-continuation point cloud.

    Presets whose augmentation weight reaches the total observation weight
    have an empty singular set; they are flagged infeasible with infinite
    distance and zero measure.  Entries are sorted by distance.
    """
    entries = []
    for name, spec in presets.items():
        if spec.kind is not MapKind.AUG_MEAN:
            raise ContractViolation("tradeoff presets must be AUG_MEAN specs")
        if len(spec.weights) != n_points:
            raise ContractViolation(f"preset {name} has {len(spec.weights)} weights for n={n_points}")
        if not aug_mean_singular_set_nonempty(spec):
            entries.append(TradeoffEntry(name, spec.w0, math.inf, 0.0, feasible=False))
            continue
        dist = _aug_mean_dist_to_perfect(spec)
        # a stable digest of the name: str hashes are salted per process
        rng = np.random.default_rng((seed, zlib.crc32(name.encode())))
        starts = 2.0 * math.pi * rng.random((cloud_size, n_points))
        proj = _project_to_zero_resultant(starts, spec)
        res = evaluate_batch(spec, proj).gap
        cloud = np.mod(proj[np.isfinite(res) & (res < 1e-9)], 2.0 * math.pi)
        est = box_count_dimension(
            cloud,
            np.zeros(n_points),
            np.full(n_points, 2.0 * math.pi),
            TRADEOFF_MESH_SIZES,
            measure_s=n_points - 2,
        )
        entries.append(TradeoffEntry(name, spec.w0, dist, est.measure_at_dim, feasible=True))
    entries.sort(key=lambda e: (e.dist_s_to_p, e.preset_name))
    return TradeoffReport(entries=tuple(entries), n_points=n_points, seed=seed)
