"""Measure-theoretic estimators for singular sets.

Greedy delta-nets bracketing covering and packing numbers, box-count
dimension with an upper-bound Hausdorff-measure surrogate, Monte-Carlo tube
volumes with a codimension fit, distance-to-singular-set CDFs with tail
exponents, and the measure-versus-distance tradeoff experiment for
augmented means, whose distance comes from the zero-resultant projector of
``singlab.metrics`` and whose measure is bracketed by zero counts on
coordinate torus slices.

Tube and CDF draws come through one drawer, ``_drawn_chunks``, in chunks
of 2^14 rows, each from its own generator seeded by (seed, first row of the
chunk) and reduced before the next is drawn into the same buffer, so no
estimator holds the whole draw.  Its chunks run on the calling thread and up
to one helper thread (``_run_chunks``), each worker with its own buffer; tube
chunks run on the calling thread alone, where a helper bought no speed.  The
tradeoff's one (n, m) draw comes from ``default_rng(seed)``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from singlab.datamaps import DataMapSpec, MapKind, _axis_sum, _pairwise_sum, _weighted_resultant
from singlab.geometry import ContractViolation, _positive_sizes, loglog_fit, omega_s
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
    """Number of delta-cells of the domain box holding a point of the cloud
    (Liebovitch & Toth 1989): the distinct rows of the points' cell indices,
    1 plus the rows that differ from the row before after one np.lexsort, so
    no dimension or cell count can overflow."""
    idx = np.clip(np.floor((cloud - lo[None, :]) / delta).astype(int), 0, _cell_counts(lo, hi, delta) - 1)
    idx = idx[np.lexsort(idx.T)]
    return int(len(idx) and 1 + np.count_nonzero(np.any(idx[1:] != idx[:-1], axis=1)))


# Bytes of fine-grid mask that _overlapping_cells marks at a time: a band of
# whole rows along axis 0, at least one row.
_BAND_BYTES = 1 << 18

# Cells per predicate call in _predicate_counts.
_PREDICATE_CELLS = 1 << 13


def _fine_range(k: np.ndarray, coarse: float, delta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last fine cells, along one axis of n fine cells, that coarse
    cells k overlap: floor(k coarse / delta) to floor((k + 1) coarse /
    delta), padded by one on each side so rounding never drops one, and
    clipped to the grid."""
    first = np.maximum(np.floor(k * coarse / delta).astype(int) - 1, 0)
    return first, np.minimum(np.floor((k + 1) * coarse / delta).astype(int) + 1, n - 1)


def _overlapping_cells(occupied: np.ndarray, coarse: float, delta: float, counts: np.ndarray) -> np.ndarray:
    """Indices (k, d) of the delta-cells that overlap an occupied coarse cell,
    in row-major order, as an intp array laid out column by column, the
    order and layout of np.argwhere; (0, d) when none does.

    ``occupied`` holds the occupied coarse cells' distinct indices (k, d),
    sorted by their first index, as row-major order is.  Along each axis a
    coarse cell overlaps the fine cells of ``_fine_range``.  The fine grid
    is marked one band of rows along axis 0 at a time, in a mask of at most
    _BAND_BYTES or one row; the bands run in increasing order, so their
    cells come out row-major.  A band takes the occupied cells whose fine
    range along axis 0 meets it, a contiguous run found by two binary
    searches, and marks each one's rows in the band, from the cell's flat
    key.  Then, one axis at a time, each cell marked in the band (whose
    shape holds every coarse index too) is replaced by its padded fine range
    along that axis.  The index arithmetic grows with the occupied cells and
    their children, and the byte-wide scans with the bands that meet them;
    the mask drops the repeats after each axis, so a filled set never pays
    for the product of its ranges.  So memory grows with the occupied cells
    plus one band, not with the grid.  A band's marked cells come out of one
    scan of it as flat keys, which are split into indices once every band
    is done.
    """
    strides = np.cumprod((1, *counts[:0:-1]))[::-1]
    row, n0 = int(strides[0]), int(counts[0])
    rows = max(1, _BAND_BYTES // row)
    mask = np.zeros(min(rows, n0) * row, dtype=bool)
    first0, last0 = _fine_range(occupied[:, 0], coarse, delta, n0)
    rest = occupied[:, 1:] @ strides[1:]
    keys = [np.empty(0, dtype=np.intp)]
    for top in range(0, n0, rows):
        bottom = min(top + rows, n0)
        # first0 and last0 do not decrease, so the cells that meet the band are a run
        i, j = np.searchsorted(last0, top), np.searchsorted(first0, bottom)
        if i >= j:
            continue
        band = mask[:(bottom - top) * row]
        for axis, (stride, n) in enumerate(zip(strides, counts)):
            if axis:
                flat = np.flatnonzero(band)
                band[:] = False
                k = flat // stride % n
                first, last = _fine_range(k, coarse, delta, n)
                flat += (first - k) * stride
            else:
                first, last = np.maximum(first0[i:j], top), np.minimum(last0[i:j], bottom - 1)
                flat = (first - top) * row + rest[i:j]
            span = last - first
            for t in range(np.max(span, initial=-1) + 1):
                flat, span = flat[span >= t], span[span >= t]
                band[flat + t * stride] = True
        keys.append(np.flatnonzero(band) + top * row)
        band[:] = False
    flat = np.concatenate(keys)
    del keys
    cells = np.empty((counts.size, flat.size), dtype=np.intp)
    for axis in range(counts.size - 1, 0, -1):
        np.divmod(flat, int(counts[axis]), out=(flat, cells[axis]))
    cells[0] = flat
    return cells.T


def _predicate_counts(pred, lo: np.ndarray, hi: np.ndarray, mesh_sizes) -> list[int]:
    """Occupied-cell counts of a cell predicate on decreasing meshes.

    Coarse to fine, as a quadtree (Liebovitch & Toth 1989, Phys. Lett. A
    141): each grid is tested only on the cells overlapping an occupied cell
    of the previous one, the first grid on those of one cell of side
    max(hi - lo), which are all of its cells.  A point of the set in a fine
    cell lies in some coarse cell, which is then occupied, so no occupied
    fine cell is skipped.  The occupied cells of a mesh are carried as their
    indices (k, d), never as a mask of the whole grid.  The predicate sees
    the candidate cells in consecutive slices of at most _PREDICATE_CELLS,
    so it must answer each row on its own, and the cells' bounds and the
    predicate's temporaries are bounded by one slice: memory grows with the
    occupied cells plus one band of ``_overlapping_cells``, not with the
    grid.
    """
    counts = []
    occupied, coarse = np.zeros((1, lo.size), dtype=np.intp), float(np.max(hi - lo))
    for delta in mesh_sizes:
        n_cells = _cell_counts(lo, hi, delta)
        cells = _overlapping_cells(occupied, coarse, delta, n_cells)
        hit = np.empty(len(cells), dtype=bool)
        for start in range(0, len(cells), _PREDICATE_CELLS):
            part = slice(start, start + _PREDICATE_CELLS)
            c_lo = lo[None, :] + cells[part] * delta
            c_hi = np.minimum(c_lo + delta, hi[None, :])
            hit[part] = pred(c_lo, c_hi)
        occupied = cells[hit]
        del cells, hit  # before the next mesh builds its cells
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
    and ``filled_box_membership`` are.  The predicate is called on
    consecutive slices of the cells to test, so it must answer each row
    on its own.  Memory grows with the occupied cells plus one band of the
    fine grid's mask (``_overlapping_cells``), not with the grid.  The
    domain box must be finite with lo < hi on every axis, and a cloud must
    have one column per axis.
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
    dimension = 0.0 if degenerate else loglog_fit(np.log(1.0 / np.asarray(mesh_sizes)), np.log(counts))
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


# Rows per Monte-Carlo chunk, each drawn from its own generator.
_CHUNK = 1 << 14


# At most this many threads run the chunks of one CDF (tubes run on one):
# the one count whose speed and memory were measured (on a 2-vCPU VM).
# More workers would each hold a chunk buffer and contend for the
# interpreter lock; lift the cap only with measurements on more CPUs.
_MAX_WORKERS = 2


def _worker_count() -> int:
    """Threads that run the chunks of a CDF: one per CPU the process may
    use, at most _MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(_MAX_WORKERS, cpus)


@functools.cache
def _sched_getcpu():
    """libc's sched_getcpu, the CPU the calling thread runs on, or a
    stand-in returning -1 where the C library has none."""
    try:
        return ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError, TypeError):
        return lambda: -1


def _bind_off(cpu: int) -> None:
    """Bind the calling thread to the CPUs the process may use other than
    ``cpu``, if there are any.  It is a placement hint, so a platform
    without affinity, or a CPU gone offline, leaves the thread where it is."""
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(0, others)
    except (AttributeError, OSError):
        pass


def _run_chunks(starts, buffers, run) -> None:
    """``run(start, buffer)`` for every chunk start, run by the calling
    thread with ``buffers[0]`` and by one helper thread per further buffer,
    each worker taking the next start in turn and passing its own buffer.
    A chunk's exception is raised once every worker has stopped, the calling
    thread's first; when the calling thread stops early, as on an interrupt,
    the helpers stop after their current chunk.  The caller allocates the
    buffers, so they come from its heap, not from a helper's arena.  The
    helpers start with the call: a thread starts in about 70 us, while a
    pool would import concurrent.futures, about 9 ms, on first use.

    On a 2-vCPU VM, Linux often started a helper on the calling thread's
    CPU and left both there, taking turns, for the first second of a
    process, so each helper binds itself off the calling thread's CPU; the
    calling thread stays free to move."""
    starts = iter(starts)
    lock = threading.Lock()
    errors = []
    here = _sched_getcpu()()

    def take():
        with lock:
            return next(starts, None)

    def work(buffer):
        for start in iter(take, None):
            run(start, buffer)

    def helper(buffer):
        try:
            _bind_off(here)
            work(buffer)
        except BaseException as error:
            errors.append(error)

    helpers = [threading.Thread(target=helper, args=(buffer,)) for buffer in buffers[1:]]
    for thread in helpers:
        thread.start()
    try:
        work(buffers[0])
    finally:
        with lock:
            for _ in starts:
                pass
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def _drawn_chunks(total: int, shape: tuple, seed: int, draw, reduce, workers: int) -> None:
    """``reduce(start, chunk)`` on each of the 2^14-row chunks of ``total``
    rows of the given shape, run on up to ``workers`` threads
    (``_run_chunks``).

    ``draw(rng, out)`` fills a chunk in place, through the generator's
    ``out=`` argument; the chunk starting at row k uses
    ``default_rng((seed, k))``, so a chunk's stream and rows do not depend
    on the worker that takes it.  Each worker draws into its own
    (min(total, 2^14), *shape) buffer, so a chunk is valid only until
    ``reduce`` returns.  The buffers are one array: glibc trims a freed heap
    top larger than twice its largest freed mmap, so two separate buffers
    were trimmed after every CDF and faulted back in by the next one (the
    montecarlo op list took 23.5k minor faults that way, 9.8k with one
    array and 20.1k with the one buffer of a serial draw).
    """
    starts = range(0, total, _CHUNK)
    buffers = np.empty((min(workers, len(starts)), min(total, _CHUNK), *shape))

    def run(start, buffer):
        out = buffer[:total - start]
        draw(np.random.default_rng((seed, start)), out)
        reduce(start, out)

    _run_chunks(starts, buffers, run)


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
    one drawn chunk at a time on the calling thread (``_drawn_chunks``),
    each chunk's hits in its own row, so memory is one chunk plus 8 bytes
    per delta and chunk.  The domain box must be finite with lo < hi on
    every axis.
    """
    lo, hi = _domain_box(domain_lo, domain_hi)
    deltas = sorted(_positive_sizes(deltas, "deltas"))
    if mc_samples < 10_000:
        raise ContractViolation("mc_samples must be at least 10^4")
    box_vol = float(np.prod(hi - lo))
    hits_per_chunk = np.zeros((-(-mc_samples // _CHUNK), len(deltas)), dtype=np.int64)

    def count(start, pts):
        for a in range(lo.size):
            pts[:, a] *= hi[a] - lo[a]
            pts[:, a] += lo[a]
        d = np.asarray(dist_fn(pts), dtype=float)
        hits_per_chunk[start // _CHUNK] = [np.count_nonzero(d <= delta) for delta in deltas]

    # One worker: a tube chunk's calls are short (about 0.3 ms a chunk), and
    # a helper only contends for the interpreter lock.  Best of 15 at 10^6
    # samples, in three fresh processes per count on a 2-vCPU Xeon VM, one
    # worker read point 16.7, segment 22.7 and circle 15.7 ms, two workers
    # 16.3, 23.1 and 19.5 ms.  The bits do not depend on the count.
    _drawn_chunks(mc_samples, lo.shape, seed, lambda rng, out: rng.random(out=out), count, workers=1)
    kept, vols, errs, dropped = [], [], [], []
    hits_kept = []
    for delta, hits in zip(deltas, hits_per_chunk.sum(axis=0).tolist()):
        if hits == 0:
            dropped.append(delta)
            continue
        frac = hits / mc_samples
        kept.append(delta)
        hits_kept.append(hits)
        vols.append(box_vol * frac)
        errs.append(box_vol * math.sqrt(frac * (1.0 - frac) / mc_samples))
    slope = loglog_fit(np.log(kept), np.log(vols), weights=hits_kept)
    if math.isnan(slope):
        raise ContractViolation("fewer than two distinct deltas produced hits")
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
    bit-equal to np.sum((xs - a) * (b - a), axis=1) / |b - a|^2, with
    |b - a|^2 by math.fsum.  A BLAS product, (xs - a) @ (b - a) or
    np.dot(b - a, b - a), may fuse a multiply and an add, so it can differ in
    the last bit; on the CLI's segment, b - a = (0.5, 0), it does not.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ab = b - a
    len2 = math.fsum(ab * ab)

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
    taken one drawn chunk at a time, on up to two CPUs (``_drawn_chunks``),
    each chunk's into its own rows of one array, which is then sorted, so
    memory is 8 bytes times n_samples plus one chunk and its kernel blocks
    per worker.  The bits do not depend on the number of CPUs.
    """
    if n_samples < 10_000:
        raise ContractViolation("n_samples must be at least 10^4")
    q_lo, q_hi = quantile_window
    if not (0.0 < q_lo < q_hi <= 0.1):
        raise ContractViolation("quantile window must satisfy 0 < q_lo < q_hi <= 0.1")
    kind = spec.kind
    if kind is MapKind.AUG_MEAN:
        shape, draw = (n_points,), lambda rng, out: np.multiply(rng.random(out=out), 2.0 * math.pi, out=out)
    elif kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE):
        shape, draw = (n_points, 2), lambda rng, out: rng.standard_normal(out=out)
    else:
        raise ContractViolation(f"no CDF sampler for map kind {kind}")
    distance, tag = SINGULAR_DISTANCE[kind]
    dists = np.empty(n_samples)

    def take(start, chunk):
        dists[start:start + len(chunk)] = distance(chunk, spec)

    _drawn_chunks(n_samples, shape, seed, draw, take, _worker_count())
    dists.sort()
    i_lo = max(int(n_samples * q_lo), 1)
    i_hi = max(int(n_samples * q_hi), i_lo + 2)
    idx = np.arange(i_lo, i_hi)
    t = dists[idx]
    f_hat = (idx + 1) / n_samples
    mask = t > 0
    if np.count_nonzero(mask) < 2:
        raise ContractViolation("fewer than two positive distances in the quantile window")
    slope = loglog_fit(np.log(t[mask]), np.log(f_hat[mask]))
    # Hill-style tail uncertainty: order statistics are strongly dependent,
    # so an OLS residual stderr would be wildly optimistic here.
    stderr = abs(slope) / math.sqrt(n_samples * q_hi)
    return CdfReport(
        sorted_distances=dists,
        n_samples=n_samples,
        map_kind=kind.value,
        exponent=slope,
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


# Configurations per block of _slice_zero_counts.
_TRADEOFF_CONFIGS = 1 << 12


def _slice_zero_counts(units: np.ndarray, spec: DataMapSpec) -> np.ndarray:
    """Per configuration, given by its unit points (cos phi, sin phi) (2, n, m),
    the resultant's zeros on its C(n, 2) coordinate slices: two with phi_i,
    phi_j free if |w_i - w_j| < |c| < w_i + w_j, c the other terms plus w0 a,
    else none (up to a null set).  The configurations are counted
    _TRADEOFF_CONFIGS at a time, so the temporaries do not grow with m; a
    configuration's count does not depend on the others."""
    w = np.asarray(spec.weights, dtype=float)[:, None]
    counts = np.zeros(units.shape[2], dtype=np.int64)
    for start in range(0, units.shape[2], _TRADEOFF_CONFIGS):
        block = slice(start, start + _TRADEOFF_CONFIGS)
        r, terms = _weighted_resultant(units[:, :, block].copy(), spec)
        for i in range(len(w) - 1):
            c2 = np.sum(np.square((r - terms[:, i])[:, None] - terms[:, i + 1:]), axis=0)  # |c|^2, (n - 1 - i, block)
            counts[block] += 2 * np.count_nonzero(((w[i] - w[i + 1:]) ** 2 < c2) & (c2 < (w[i] + w[i + 1:]) ** 2), axis=0)
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
    # One trig pass for every preset, into one (2, n, m) array: the angles are
    # drawn into its second half, scaled there, and replaced by their sines
    # once their cosines are in the first, so the draw holds no other array.
    units = np.empty((2, n_points, cloud_size))
    angles = np.random.default_rng(seed).random(out=units[1])
    angles *= 2.0 * math.pi
    np.cos(angles, out=units[0])
    np.sin(angles, out=angles)
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
