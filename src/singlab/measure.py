"""Measure-theoretic estimators for singular sets.

Greedy delta-nets bracketing covering and packing numbers, box-count
dimension with an upper-bound Hausdorff-measure surrogate, Monte-Carlo tube
volumes with a codimension fit, distance-to-singular-set CDFs with tail
exponents, and the measure-versus-distance tradeoff experiment for
augmented means, whose distance comes from the zero-resultant projector of
``singlab.metrics`` and whose measure is bracketed by zero counts on
coordinate torus slices.

Tube and CDF draws come in chunks of 2^14 rows, each from its own generator
seeded by (seed, first row of the chunk) and reduced before the next is
drawn into the same buffer, so no estimator holds the whole draw; the
tradeoff's one (n, m) draw comes from ``default_rng(seed)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from singlab.datamaps import DataMapSpec, MapKind, _axis_sum, _pairwise_sum, _weighted_resultant
from singlab.geometry import ContractViolation, omega_s
from singlab.metrics import DIST_SURROGATE, SINGULAR_DISTANCE, nearest_zero_resultant

DEFAULT_QUANTILE_WINDOW = (0.002, 0.05)


def _finite_cloud(cloud) -> np.ndarray:
    """The cloud as a finite (m, d) float array."""
    cloud = np.asarray(cloud, dtype=float)
    if cloud.ndim != 2 or not np.isfinite(cloud).all():
        raise ContractViolation("point cloud must be a finite (m, d) array")
    return cloud


def _domain_box(domain_lo, domain_hi) -> tuple[np.ndarray, np.ndarray]:
    """The domain box's corners as float arrays (d,), finite with lo < hi on
    every axis: an inverted or empty axis would give negative or zero
    volumes and cell counts."""
    lo = np.asarray(domain_lo, dtype=float)
    hi = np.asarray(domain_hi, dtype=float)
    if lo.ndim != 1 or not lo.size or lo.shape != hi.shape or not np.all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi)):
        raise ContractViolation("domain box must have finite corners lo < hi of one dimension d >= 1")
    return lo, hi


def _positive_sizes(sizes, name: str) -> list[float]:
    """Mesh sizes or deltas as floats, each finite and positive."""
    sizes = [float(s) for s in sizes]
    if not all(0.0 < s < math.inf for s in sizes):
        raise ContractViolation(f"{name} must be finite and positive")
    return sizes


# ---------------------------------------------------------------------------
# Greedy nets
# ---------------------------------------------------------------------------

def greedy_net(cloud, delta: float) -> int:
    """Size G(delta) of the greedy delta-net of the cloud, by index order.

    Let N(delta) be the least number of closed delta-balls centred on cloud
    points that cover the cloud, and D(delta) the largest number of cloud
    points pairwise more than delta apart.  The greedy centres are pairwise
    more than delta apart, and every point lies within delta of one of them,
    so G(2 delta) <= N(delta) <= G(delta) <= D(delta) <= G(delta / 2).
    """
    cloud = _finite_cloud(cloud)
    if len(cloud) == 0:
        raise ContractViolation("point cloud must be nonempty")
    _positive_sizes([delta], "delta")
    centers = np.empty_like(cloud)
    count = 0
    for p in cloud:
        if count == 0 or np.min(np.linalg.norm(centers[:count] - p, axis=1)) > delta:
            centers[count] = p
            count += 1
    return count


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


def _cell_counts(lo: np.ndarray, hi: np.ndarray, delta: float) -> np.ndarray:
    """Cells per axis of the delta-grid over the domain box; the last cell of
    an axis is clipped at hi."""
    return np.maximum(np.ceil((hi - lo) / delta - 1e-12).astype(int), 1)


def _cloud_count(cloud: np.ndarray, lo: np.ndarray, hi: np.ndarray, delta: float) -> int:
    """Number of delta-cells of the domain box holding a point of the cloud,
    counted over sorted row-major int64 cell keys (Liebovitch & Toth 1989).
    Partial keys are ranked before a column would push their bound past 2^62,
    so even a 315^17-cell grid of a 17-dimensional cloud cannot overflow."""
    counts = _cell_counts(lo, hi, delta)
    idx = np.clip(np.floor((cloud - lo[None, :]) / delta).astype(int), 0, counts - 1)
    key, bound = np.zeros(len(idx), dtype=np.int64), 1
    for column, n in zip(idx.T, counts.tolist()):
        if bound * n > 2**62:
            key, bound = np.unique(key, return_inverse=True)[1], len(key)
        key, bound = key * n + column, bound * n
    return int(np.count_nonzero(np.diff(np.sort(key), prepend=-1)))  # 1 + key changes, 0 if empty


def _overlapping_cells(occupied: np.ndarray, coarse: float, delta: float, counts: np.ndarray) -> np.ndarray:
    """Indices (k, d) of the delta-cells that overlap an occupied coarse cell,
    in the row-major order of np.argwhere.

    ``occupied`` holds the occupied coarse cells' indices (k, d).  Along each
    axis, coarse cell k overlaps the fine cells floor(k coarse / delta) to
    floor((k + 1) coarse / delta), padded here by one on each side so
    rounding never drops one, and clipped to the grid.  One axis at a time,
    each cell marked in a mask of the fine grid (whose shape holds every
    coarse index too) is replaced by its padded fine range along that axis.
    The index arithmetic grows with the occupied cells and their children,
    and only the mask's byte-wide scans touch the whole grid; the mask drops
    the repeats after each axis, so a filled set never pays for the product
    of its ranges.
    """
    strides = np.cumprod((1, *counts[:0:-1]))[::-1]
    mask = np.zeros(int(np.prod(counts)), dtype=bool)
    mask[occupied @ strides] = True
    for stride, n in zip(strides, counts):
        flat = np.flatnonzero(mask)
        mask[:] = False
        k = flat // stride % n
        first = np.maximum(np.floor(k * coarse / delta).astype(int) - 1, 0)
        span = np.minimum(np.floor((k + 1) * coarse / delta).astype(int) + 1, n - 1) - first
        flat += (first - k) * stride
        for t in range(np.max(span, initial=-1) + 1):
            flat, span = flat[span >= t], span[span >= t]
            mask[flat + t * stride] = True
    return np.argwhere(mask.reshape(counts))


def _predicate_counts(pred, lo: np.ndarray, hi: np.ndarray, mesh_sizes) -> list[int]:
    """Occupied-cell counts of a cell predicate on decreasing meshes.

    Coarse to fine, as a quadtree (Liebovitch & Toth 1989, Phys. Lett. A
    141): each grid is tested only on the cells overlapping an occupied cell
    of the previous one, the first grid on those of one cell of side
    max(hi - lo), which are all of its cells.  A point of the set in a fine
    cell lies in some coarse cell, which is then occupied, so no occupied
    fine cell is skipped.  The occupied cells of a mesh are carried as their
    indices (k, d), never as a mask of the whole grid.
    """
    counts = []
    occupied, coarse = np.zeros((1, lo.size), dtype=np.intp), float(np.max(hi - lo))
    for delta in mesh_sizes:
        n_cells = _cell_counts(lo, hi, delta)
        cells = _overlapping_cells(occupied, coarse, delta, n_cells)
        c_lo = lo[None, :] + cells * delta
        c_hi = np.minimum(c_lo + delta, hi[None, :])
        occupied = cells[pred(c_lo, c_hi)]
        coarse = delta
        counts.append(len(occupied))
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
    occupied, the first mesh near one domain-sized cell, so in full.  The
    counts then equal those of testing every cell whenever the predicate is
    an exact closed-cell intersection test, as ``circle_cell_membership``
    and ``filled_box_membership`` are.  The domain box must be finite with
    lo < hi on every axis, and a cloud must have one column per axis.
    """
    lo, hi = _domain_box(domain_lo, domain_hi)
    mesh_sizes = sorted(_positive_sizes(mesh_sizes, "mesh sizes"), reverse=True)
    if len(mesh_sizes) < 4:
        raise ContractViolation("need at least 4 mesh sizes")
    if mesh_sizes[0] / mesh_sizes[-1] < 10 ** 1.5:
        raise ContractViolation("mesh sizes must span at least 1.5 decades")
    if isinstance(membership, np.ndarray):
        cloud = _finite_cloud(membership)
        if cloud.shape[1] != lo.size:
            raise ContractViolation(f"a {cloud.shape[1]}-dimensional cloud in a {lo.size}-dimensional box")
        counts = [_cloud_count(cloud, lo, hi, d) for d in mesh_sizes]
    else:
        counts = _predicate_counts(membership, lo, hi, mesh_sizes)
    degenerate = len(set(counts)) == 1
    if degenerate:
        dimension = 0.0
    else:
        slope = np.polyfit(np.log(1.0 / np.asarray(mesh_sizes)), np.log(counts), 1)[0]
        dimension = float(slope)
    s = float(round(dimension)) if measure_s is None else float(measure_s)
    return DimensionEstimate(
        mesh_sizes=tuple(mesh_sizes),
        occupied_counts=tuple(int(c) for c in counts),
        dimension=dimension,
        measure_at_dim=omega_s(s) * counts[-1] * (mesh_sizes[-1] * math.sqrt(lo.size) / 2.0) ** s,
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


def _chunked_draw(total: int, shape: tuple, seed: int, draw):
    """``total`` rows of the given shape, yielded in chunks of 2^14 rows,
    each from its own derived seed.

    ``draw(rng, out)`` fills one chunk of rows in place, through the
    generator's ``out=`` argument; the chunk starting at row k uses
    ``default_rng((seed, k))``.  Every chunk is a view of one reused
    (min(total, 2^14), *shape) buffer, so a chunk is valid only until the
    next one is drawn: copy or reduce it before then.
    """
    chunk = 1 << 14
    buf = np.empty((min(total, chunk), *shape))
    for start in range(0, total, chunk):
        out = buf[:total - start]
        draw(np.random.default_rng((seed, start)), out)
        yield out


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
    with zero hits is dropped with a warning entry.  The cloud is counted
    one drawn chunk at a time, so memory is O(chunk), whatever mc_samples.
    The domain box must be finite with lo < hi on every axis.
    """
    lo, hi = _domain_box(domain_lo, domain_hi)
    deltas = sorted(_positive_sizes(deltas, "deltas"))
    if mc_samples < 10_000:
        raise ContractViolation("mc_samples must be at least 10^4")
    box_vol = float(np.prod(hi - lo))
    hit_counts = np.zeros(len(deltas), dtype=np.int64)
    for pts in _chunked_draw(mc_samples, lo.shape, seed, lambda rng, out: rng.random(out=out)):
        for a in range(lo.size):
            pts[:, a] *= hi[a] - lo[a]
            pts[:, a] += lo[a]
        d = np.asarray(dist_fn(pts), dtype=float)
        hit_counts += [np.count_nonzero(d <= delta) for delta in deltas]
    kept, vols, errs, dropped = [], [], [], []
    hits_kept = []
    for delta, hits in zip(deltas, hit_counts.tolist()):
        if hits == 0:
            dropped.append(delta)
            continue
        frac = hits / mc_samples
        kept.append(delta)
        hits_kept.append(hits)
        vols.append(box_vol * frac)
        errs.append(box_vol * math.sqrt(frac * (1.0 - frac) / mc_samples))
    x = np.log(kept)
    if len(set(x.tolist())) < 2:  # not np.unique, which imports numpy.ma (~1.6 MB of RSS)
        raise ContractViolation("fewer than two distinct deltas produced hits")
    w = np.asarray(hits_kept, dtype=float)
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


def _row_norms(diff, d: int) -> np.ndarray:
    """Euclidean norms of the rows of an (m, d) array given column by
    column: ``diff(k, out)`` writes column k to out (fresh when None) and
    returns it.  The squares are added in np.linalg.norm(axis=1)'s order,
    numpy's pairwise summation along the row, so the norms are bit-equal to
    it without the (m, d) array."""
    def term(k, out):
        out = diff(k, out)
        return np.square(out, out=out)

    return np.sqrt(_pairwise_sum(term, 0, d))


def point_distance_fn(point):
    """Distances xs (m, d) -> (m,) to one point, the codimension-d fixture."""
    p = np.asarray(point, dtype=float)
    return lambda xs: _row_norms(lambda k, out: np.subtract(xs[:, k], p[k], out=out), p.size)


def segment_distance_fn(a, b):
    """Distances xs (m, d) -> (m,) to the closed segment from a to b.

    The projection parameter t adds its d products column by column,
    bit-equal to np.sum((xs - a) * (b - a), axis=1) / |b - a|^2.  A BLAS
    product (xs - a) @ (b - a) may fuse a multiply and an add, so it can
    differ in the last bit; on the CLI's segment, b - a = (0.5, 0), it does not.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    len2 = float(np.dot(ab, ab))

    def fn(xs):
        def product(k, out):
            out = np.subtract(xs[:, k], a[k], out=out)
            return np.multiply(out, ab[k], out=out)

        t = _axis_sum(product, a.size, pairwise=True)
        t /= len2
        np.clip(t, 0.0, 1.0, out=t)

        def diff(k, out):
            # xs minus the projection a + t ab, one coordinate at a time
            out = np.multiply(t, ab[k], out=out)
            out += a[k]
            return np.subtract(xs[:, k], out, out=out)

        return _row_norms(diff, a.size)

    return fn

def circle_distance_fn(center, radius: float):
    """Distances xs (m, 2) -> (m,) to the circle of this center and radius."""
    to_center = point_distance_fn(center)

    def fn(xs):
        d = to_center(xs)
        d -= radius
        return np.abs(d, out=d)

    return fn


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
    slope of log F-hat against log t between the window quantiles; fewer
    than two positive distances there cannot be fitted.  The distances are
    taken one drawn chunk at a time into one sorted array, so memory is
    8 bytes times n_samples plus O(chunk).
    """
    if n_samples < 10_000:
        raise ContractViolation("n_samples must be at least 10^4")
    q_lo, q_hi = quantile_window
    if not (0.0 < q_lo < q_hi <= 0.1):
        raise ContractViolation("quantile window must satisfy 0 < q_lo < q_hi <= 0.1")
    kind = spec.kind
    if kind is MapKind.AUG_MEAN:
        chunks = _chunked_draw(n_samples, (n_points,), seed,
                               lambda rng, out: np.multiply(rng.random(out=out), 2.0 * math.pi, out=out))
    elif kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE):
        chunks = _chunked_draw(n_samples, (n_points, 2), seed, lambda rng, out: rng.standard_normal(out=out))
    else:
        raise ContractViolation(f"no CDF sampler for map kind {kind}")
    distance, tag = SINGULAR_DISTANCE[kind]
    dists, start = np.empty(n_samples), 0
    for batch in chunks:
        dists[start:start + len(batch)] = distance(batch, spec)
        start += len(batch)
    dists.sort()
    i_lo = max(int(n_samples * q_lo), 1)
    i_hi = max(int(n_samples * q_hi), i_lo + 2)
    idx = np.arange(i_lo, i_hi)
    t = dists[idx]
    f_hat = (idx + 1) / n_samples
    mask = t > 0
    if np.count_nonzero(mask) < 2:
        raise ContractViolation("fewer than two positive distances in the quantile window")
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
    measure_lower: float
    measure_upper: float
    measure_stderr: float
    feasible: bool

    def to_dict(self) -> dict:
        return {
            "preset_name": self.preset_name,
            "w0": self.w0,
            "dist_S_to_P": self.dist_s_to_p if math.isfinite(self.dist_s_to_p) else "inf",
            "measure_lower": self.measure_lower,
            "measure_upper": self.measure_upper,
            "measure_stderr": self.measure_stderr,
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

    On the perfect fit phi (1, ..., 1) the resultant is sum(w) e^{i phi} +
    w0 a, whose norm is least where e^{i phi} = -a; ``nearest_zero_resultant``
    reports the wrapped arc distance from that configuration to the singular
    set.
    """
    a_x, a_y = spec.aug_point
    return nearest_zero_resultant(np.full(len(spec.weights), math.atan2(-a_y, -a_x)), spec)[0]


def _slice_zero_counts(units: np.ndarray, spec: DataMapSpec) -> np.ndarray:
    """Per configuration, given by its unit points (cos phi, sin phi) (2, n, m),
    the resultant's zeros on its C(n, 2) coordinate slices: two with phi_i,
    phi_j free if |w_i - w_j| < |c| < w_i + w_j, c the other terms plus w0 a,
    else none (up to a null set)."""
    w = np.asarray(spec.weights, dtype=float)[:, None]
    r, terms = _weighted_resultant(units.copy(), spec)
    counts = np.zeros(r.shape[1], dtype=np.int64)
    for i in range(len(w) - 1):
        c2 = np.sum(np.square((r - terms[:, i])[:, None] - terms[:, i + 1:]), axis=0)  # |c|^2, (n - 1 - i, m)
        counts += 2 * np.count_nonzero(((w[i] - w[i + 1:]) ** 2 < c2) & (c2 < (w[i] + w[i + 1:]) ** 2), axis=0)
    return counts


def tradeoff_experiment(
    presets: dict[str, DataMapSpec],
    n_points: int,
    seed: int,
    cloud_size: int = 20_000,
) -> TradeoffReport:
    """Per preset: distance from S to the perfect fits, and a bracket on
    H^{n-2}(S) from ``cloud_size`` uniform draws on the n-torus, one set for all.

    The mean m of (2 pi)^{n-2} times a draw's slice zero count estimates
    sum_ij int_S J_ij dH^{n-2} (coarea formula, Federer 1969, §3.2); with sum_ij
    J_ij^2 = 1 (Cauchy-Binet), H^{n-2}(S) lies in [m / sqrt(C(n, 2)), m].

    Presets whose augmentation weight reaches the total observation weight
    have an empty singular set; they are flagged infeasible with infinite
    distance and zero measure.  Entries are sorted by distance.
    """
    if cloud_size < 1:
        raise ContractViolation("cloud_size must be at least 1")
    angles = 2.0 * math.pi * np.random.default_rng(seed).random((n_points, cloud_size))
    units = np.stack([np.cos(angles), np.sin(angles)])  # one trig pass for every preset
    scale = (2.0 * math.pi) ** (n_points - 2)
    entries = []
    for name, spec in presets.items():
        if spec.kind is not MapKind.AUG_MEAN:
            raise ContractViolation("tradeoff presets must be AUG_MEAN specs")
        if len(spec.weights) != n_points:
            raise ContractViolation(f"preset {name} has {len(spec.weights)} weights for n={n_points}")
        if not aug_mean_singular_set_nonempty(spec):
            entries.append(TradeoffEntry(name, spec.w0, math.inf, 0.0, 0.0, 0.0, feasible=False))
            continue
        dist = _aug_mean_dist_to_perfect(spec)
        counts = _slice_zero_counts(units, spec)
        upper = scale * float(np.mean(counts))
        stderr = scale * float(np.std(counts)) / math.sqrt(cloud_size)  # 0.0 when every count agrees
        lower = upper / math.sqrt(math.comb(n_points, 2))
        entries.append(TradeoffEntry(name, spec.w0, dist, lower, upper, stderr, feasible=True))
    entries.sort(key=lambda e: (e.dist_s_to_p, e.preset_name))
    return TradeoffReport(entries=tuple(entries), n_points=n_points, seed=seed)
