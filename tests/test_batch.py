"""Batch kernels, array diameters and level-by-level winding against their
scalar references, and the chunk runner that spreads the kernel calls of a
Monte-Carlo CDF over two CPUs."""

import itertools
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singlab import datamaps, measure
from singlab.datamaps import (
    PERFECT_FIT_TOL,
    TIE_TOL,
    BatchOutcome,
    DataMapSpec,
    MapKind,
    NotPerfectFitError,
    UndefinedReason,
    evaluate_batch,
    evaluate_with_standard_batch,
    oscillator_g,
    standard_batch,
    uniform_preset,
)
from singlab.geometry import ContractViolation, DomainError, angle_distance, reduce_mod_pi
from singlab.measure import distance_cdf
from singlab.metrics import SINGULAR_DISTANCE, batch_diameter
from singlab.slices import slice_map
from singlab.topology import (
    MAX_REFINE,
    STEP_FRACTION,
    InconclusiveDegreeError,
    Loop,
    LoopHitsSingularityError,
    winding_number,
)

from oracles import LAD, LS, PC, SLICE

FITTERS = [LS, PC, LAD]
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)

# moderate coordinates: values near the underflow threshold would make
# squared distances vanish, which no kernel is meant to survive
coords = st.floats(-8.0, 8.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)
scales = st.floats(0.1, 4.0)
angles = st.floats(0.0, 2.0 * math.pi)


# ---------------------------------------------------------------------------
# Scalar reference maps, one input at a time, each returning the row's
# (value, gap, reason): NaN, 0 and the UndefinedReason where Undefined
# ---------------------------------------------------------------------------

def _wrap_increment(delta, period):
    """Reduce one angle increment into (-period/2, period/2]."""
    delta = math.fmod(delta, period)
    if delta > 0.5 * period:
        delta -= period
    elif delta <= -0.5 * period:
        delta += period
    return delta


def reference_ls(pts):
    """Slope direction of the y-on-x least-squares line; gap sqrt(S_xx)."""
    xc = pts[:, 0] - pts[:, 0].mean()
    s_xx = float(np.dot(xc, xc))
    s_xy = float(np.dot(xc, pts[:, 1] - pts[:, 1].mean()))
    if s_xx == 0.0:
        return math.nan, 0.0, UndefinedReason.COLLINEAR_PREDICTOR
    return reduce_mod_pi(math.atan(s_xy / s_xx)), math.sqrt(s_xx), 0


def reference_pc(pts):
    """Leading eigenvector direction of the covariance; gap the eigenvalue gap."""
    centered = pts - pts.mean(axis=0)
    c = centered.T @ centered / pts.shape[0]
    a = 0.5 * (c[0, 0] - c[1, 1])
    b = c[0, 1]
    gap = 2.0 * math.hypot(a, b)
    if gap <= TIE_TOL:
        return math.nan, 0.0, UndefinedReason.EIGENVALUE_TIE
    return reduce_mod_pi(0.5 * math.atan2(2.0 * b, 2.0 * a)), gap, 0


def reference_lad(pts):
    """L1 line by enumerating the lines through point pairs, best first;
    gap the margin to the second best."""
    cands = []
    for i, j in itertools.combinations(range(pts.shape[0]), 2):
        dx = pts[j, 0] - pts[i, 0]
        if dx == 0.0:
            continue
        slope = (pts[j, 1] - pts[i, 1]) / dx
        intercept = pts[i, 1] - slope * pts[i, 0]
        cands.append((float(np.sum(np.abs(pts[:, 1] - intercept - slope * pts[:, 0]))), slope))
    if not cands:
        return math.nan, 0.0, UndefinedReason.COLLINEAR_PREDICTOR
    cands.sort(key=lambda c: c[0])
    theta = reduce_mod_pi(math.atan(cands[0][1]))
    if len(cands) == 1:
        return theta, 0.0, 0
    gap = cands[1][0] - cands[0][0]
    if gap <= TIE_TOL and angle_distance(theta, reduce_mod_pi(math.atan(cands[1][1])), math.pi) > TIE_TOL:
        return math.nan, 0.0, UndefinedReason.OBJECTIVE_TIE
    return theta, gap, 0


def reference_lad_gap(points):
    """LAD tie gap of a batch (m, n, 2) from every pair's objective, sorted:
    second best minus best, 0 where fewer than two pairs have distinct
    abscissae."""
    objs = []
    x, y = points[..., 0], points[..., 1]
    for i, j in itertools.combinations(range(points.shape[1]), 2):
        dx = x[:, j] - x[:, i]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (y[:, j] - y[:, i]) / dx
            intercept = y[:, i] - slope * x[:, i]
            obj = np.sum(np.abs(y - intercept[:, None] - slope[:, None] * x), axis=1)
        objs.append(np.where(dx == 0.0, np.inf, obj))
    if len(objs) < 2:
        return np.zeros(points.shape[0])
    part = np.sort(np.stack(objs, axis=1), axis=1)
    with np.errstate(invalid="ignore"):
        gap = part[:, 1] - part[:, 0]
    return np.where(np.isfinite(gap), gap, 0.0)


def reference_aug_mean(points, spec):
    """Direction of the weighted resultant of unit vectors plus w0 a."""
    rho = np.asarray(spec.weights) @ points + spec.w0 * np.asarray(spec.aug_point)
    norm = float(np.linalg.norm(rho))
    if norm <= TIE_TOL:
        return math.nan, 0.0, UndefinedReason.ZERO_RESULTANT
    u = rho / norm
    return math.atan2(u[1], u[0]), norm, 0


def reference_oscillator(x):
    """g(|x|) on the punctured unit ball, one branch at a time."""
    r = math.hypot(*x)
    if r == 0.0:
        return math.nan, 0.0, UndefinedReason.ORIGIN
    f = math.log(1.0 - math.log(min(r, 1.0)))
    n = math.floor(f)
    return f - n if n % 2 == 0 else (n + 1) - f, r, 0


def reference_standard(pts):
    """The calibration standard on one plane dataset, None off perfect fits:
    the line through the first most distant pair of points, when each
    point's cross product with it, over the span, is within PERFECT_FIT_TOL;
    its atan2 direction mod pi, gap the span."""
    pts = pts.tolist()
    pair, span2 = None, 0.0
    for i, j in itertools.product(range(len(pts)), repeat=2):
        dx, dy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
        d2 = dx * dx + dy * dy
        if d2 > span2:
            pair, span2 = (i, j), d2
    if pair is None:
        return None
    (ax, ay), (bx, by) = pts[pair[0]], pts[pair[1]]
    dx, dy, span = bx - ax, by - ay, math.sqrt(span2)
    if max(abs((x - ax) * dy - (y - ay) * dx) for x, y in pts) / span > PERFECT_FIT_TOL:
        return None
    return reduce_mod_pi(math.atan2(dy, dx)), span, 0


REFERENCE = {MapKind.LS_LINE: reference_ls, MapKind.PC_LINE: reference_pc, MapKind.LAD_LINE: reference_lad}


def _rows(n, draw_points):
    return st.builds(lambda pts: np.asarray(pts, dtype=float).reshape(n, 2),
                     st.lists(draw_points, min_size=2 * n, max_size=2 * n))


@st.composite
def equal_abscissae(draw, n):
    """All points on one vertical line: LS and LAD are undefined."""
    x = draw(coords)
    ys = draw(st.lists(coords, min_size=n, max_size=n))
    return np.array([(x, y) for y in ys])


@st.composite
def regular_polygon(draw, n):
    """A rotated, scaled, shifted regular n-gon: an exact PC eigenvalue tie."""
    phi, s, cx, cy = draw(angles), draw(scales), draw(coords), draw(coords)
    a = phi + 2.0 * math.pi * np.arange(n) / n
    return np.stack([cx + s * np.cos(a), cy + s * np.sin(a)], axis=1)


@st.composite
def lad_tie(draw, n):
    """(0, 0), (1, a), (1, -a) shifted and padded with copies of the first point:
    the lines of slope a and -a tie for the best LAD objective."""
    a, cx, cy = draw(scales), draw(coords), draw(coords)
    pts = [(cx, cy), (cx + 1.0, cy + a), (cx + 1.0, cy - a)]
    return np.array(pts + [(cx, cy)] * (n - 3))


@st.composite
def collinear(draw, n):
    """Points on one line (a perfect fit, up to rounding), vertical lines included."""
    phi = draw(st.sampled_from([math.pi / 2, 0.0]) | angles)
    cx, cy = draw(coords), draw(coords)
    ts = draw(st.lists(st.integers(-300, 300), min_size=n, max_size=n, unique=True))
    return np.array([(cx + 0.01 * t * math.cos(phi), cy + 0.01 * t * math.sin(phi)) for t in ts])


@st.composite
def batches(draw, sizes=st.integers(2, 6), extra=()):
    n = draw(sizes)
    kinds = [_rows(n, coords), equal_abscissae(n), collinear(n), *(kind(n) for kind in extra)]
    if n >= 3:
        kinds += [regular_polygon(n), lad_tie(n)]
    return np.stack(draw(st.lists(st.one_of(kinds), min_size=1, max_size=6)))


def half_integer_grid(n):
    """Points on the half-integer grid: exact LAD objective ties abound."""
    return _rows(n, st.integers(-8, 8).map(lambda v: v / 2.0))


def assert_close(batch, i, want):
    """Row i of a batch against a reference (value, gap, reason): the same
    reason; where Defined, values within 1e-12 in the feature metric (mod
    the period for angles) and gaps within 1e-12 relative."""
    value, gap, reason = want
    assert batch.reason[i] == reason
    if reason:
        return
    if batch.period is None:
        assert abs(batch.value[i] - value) <= 1e-12
    else:
        d = abs(batch.value[i] - value) % batch.period
        assert min(d, batch.period - d) <= 1e-12
    assert abs(batch.gap[i] - gap) <= 1e-12 * max(1.0, gap)


def assert_rows_match(batch, outcomes):
    assert batch.defined.tolist() == [not reason for _, _, reason in outcomes]
    assert np.all(batch.gap[~batch.defined] == 0.0)
    for i, want in enumerate(outcomes):
        assert_close(batch, i, want)


@PROPERTY
@given(batches())
def test_evaluate_batch_matches_scalar(points):
    # the batch against the scalar reference fitters
    for spec in FITTERS:
        outcomes = [REFERENCE[spec.kind](p) for p in points]
        assert_rows_match(evaluate_batch(spec, points), outcomes)


@PROPERTY
@given(st.integers(1, 5).flatmap(lambda n: st.lists(st.lists(angles, min_size=n, max_size=n),
                                                    min_size=1, max_size=6)),
       st.sampled_from([0.0, 0.5, 1.0, 8.0]))
def test_aug_mean_batch_matches_reference(rows, w0):
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,) * len(rows[0]), w0=w0)
    phi = np.array(rows)
    outcomes = [reference_aug_mean(np.stack([np.cos(p), np.sin(p)], axis=1), spec) for p in phi]
    assert_rows_match(evaluate_batch(spec, phi), outcomes)


@PROPERTY
@given(st.lists(st.tuples(coords.map(lambda v: v / 12.0), coords.map(lambda v: v / 12.0)),
                min_size=1, max_size=8))
def test_disk_and_oscillator_batches_match_reference(rows):
    x = np.array(rows)
    disk = DataMapSpec(kind=MapKind.DISK_DECISION, center=(0.1, -0.2), radius=0.5)
    outcomes = []
    for p in x:
        d = math.hypot(p[0] - 0.1, p[1] + 0.2)
        outcomes.append((1 if d < 0.5 else 0, abs(d - 0.5), 0))
    assert_rows_match(evaluate_batch(disk, x), outcomes)
    oscillator = DataMapSpec(kind=MapKind.RADIAL_OSCILLATOR)
    assert_rows_match(evaluate_batch(oscillator, x), [reference_oscillator(p) for p in x])
    # one formula serves scalars and arrays
    r = np.linalg.norm(x, axis=1)
    r = r[r > 0]
    assert np.array_equal(oscillator_g(r), [oscillator_g(float(t)) for t in r])


@PROPERTY
@given(batches(st.sampled_from([2, 3, 5, 12]), extra=(half_integer_grid,)),
       st.sampled_from([1, 2, 3, 5, 12]).flatmap(
           lambda n: st.lists(st.lists(angles, min_size=n, max_size=n), min_size=1, max_size=6)),
       st.sampled_from([0.0, 0.5, 1.0, 8.0]))
def test_singular_distance_matches_reference_formulas(points, rows, w0):
    # each distance is the map's gap over its constant: LS sqrt(S_xx), PC
    # (lambda1 - lambda2) / 2, LAD the sorted tie gap (0 on ties) and
    # AUG_MEAN |rho| / sum(w)
    def distance(kind, batch, spec=None):
        fn, _ = SINGULAR_DISTANCE[kind]
        return fn(batch, spec or DataMapSpec(kind=kind))

    xc = points[..., 0] - points[..., 0].mean(axis=1, keepdims=True)
    ls = [math.sqrt(float(np.dot(r, r))) for r in xc]
    assert np.allclose(distance(MapKind.LS_LINE, points), ls, rtol=1e-12, atol=0.0)
    centered = points - points.mean(axis=1, keepdims=True)
    lam = np.linalg.eigvalsh(np.einsum("mni,mnj->mij", centered, centered) / points.shape[1])
    pc = distance(MapKind.PC_LINE, points)
    assert np.allclose(pc, (lam[:, 1] - lam[:, 0]) / 2.0, rtol=0.0, atol=1e-12 * max(1.0, lam.max()))
    defined = np.array([not reference_lad(p)[2] for p in points])
    lad = np.where(defined, reference_lad_gap(points), 0.0)
    assert np.array_equal(distance(MapKind.LAD_LINE, points).view(np.int64), lad.view(np.int64))
    phi = np.array(rows)
    w = np.arange(1.0, phi.shape[1] + 1.0)
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=tuple(w), w0=w0)
    rho = np.linalg.norm(np.stack([np.cos(phi) @ w, np.sin(phi) @ w], axis=1) + w0 * np.asarray(spec.aug_point), axis=1)
    aug = np.where(rho <= TIE_TOL, 0.0, rho) / w.sum()
    assert np.allclose(distance(MapKind.AUG_MEAN, phi, spec), aug, rtol=1e-12, atol=1e-15)


def lad_block_batch(n, m, seed):
    """m rows of n points cycling through four kinds: standard normal
    points, half-integer grid points (exact objective ties), points on one
    vertical line (no candidate pair) and one point beside n - 1 copies of
    another (a single candidate line, so gap 0)."""
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((m, n, 2))
    points[1::4] = rng.integers(-8, 9, (len(points[1::4]), n, 2)) / 2.0
    points[2::4, :, 0] = points[2::4, :1, 0]
    points[3::4, 1:] = points[3::4, 1:2]
    return points


@pytest.mark.parametrize("n", [2, 3, 4, 5, 12, 17])
def test_lad_rows_match_reference_across_blocks(n):
    # full blocks plus a ragged tail, and one- and two-row batches: every
    # row, those at a block edge included, agrees with the one-dataset
    # reference and its sorted tie gap; n = 17 takes two rounds of the eight
    # accumulators of the pairwise objective sums
    points = lad_block_batch(n, 2 * datamaps._block_rows(MapKind.LAD_LINE, (1, n, 2)) + 37, seed=n)
    spec = LAD
    outcomes = [reference_lad(p) for p in points]
    reasons = {0, UndefinedReason.COLLINEAR_PREDICTOR}
    if n > 2:
        reasons.add(UndefinedReason.OBJECTIVE_TIE)
    assert {reason for _, _, reason in outcomes} >= reasons
    assert_rows_match(evaluate_batch(spec, points), outcomes)
    for start in range(4):
        for rows in (1, 2):
            assert_rows_match(evaluate_batch(spec, points[start:start + rows]), outcomes[start:start + rows])
    defined = np.array([not reason for _, _, reason in outcomes])
    want = np.where(defined, reference_lad_gap(points), 0.0)
    got = SINGULAR_DISTANCE[MapKind.LAD_LINE][0](points, spec)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_lad_kernel_keeps_no_whole_batch_buffer():
    # the kernel holds about ten block arrays of at most the byte budget
    # each, plus the (m,) outputs (17 bytes a row, twice); one (m, P)
    # objective array alone would take m P 8 = 10.6 MB here
    m, n = 20000, 12
    points = lad_block_batch(n, m, seed=0)
    tracemalloc.start()
    try:
        evaluate_batch(LAD, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * datamaps._BLOCK_BYTES


def blocked_batches():
    """(spec, inputs) of every map kind, each spanning three row blocks of
    evaluate_batch and a ragged tail, with Undefined rows (boundary points,
    for the disk decision) every few rows."""
    rng = np.random.default_rng(11)
    cases = []
    for kind, n in ((MapKind.LS_LINE, 4), (MapKind.PC_LINE, 4), (MapKind.LAD_LINE, 12)):
        points = lad_block_batch(n, 3 * datamaps._block_rows(kind, (1, n, 2)) + 37, seed=n)
        points[4::7] = points[4::7, :1]  # equal points: every fitter is Undefined
        cases.append((DataMapSpec(kind=kind), points))
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0, 1.0), w0=0.0)
    phi = rng.uniform(0.0, 2.0 * math.pi, (3 * datamaps._block_rows(spec.kind, (1, 2)) + 37, 2))
    phi[::5] = (0.0, math.pi)  # opposite unit points: a zero resultant
    cases.append((spec, phi))
    spec = DataMapSpec(kind=MapKind.DISK_DECISION, radius=0.5)
    x = rng.uniform(-1.0, 1.0, (3 * datamaps._block_rows(spec.kind, (1, 2)) + 37, 2))
    x[::5] = (0.5, 0.0)  # on the circle: bit 0, gap 0
    cases.append((spec, x))
    spec = DataMapSpec(kind=MapKind.RADIAL_OSCILLATOR)
    x = rng.uniform(-0.5, 0.5, (3 * datamaps._block_rows(spec.kind, (1, 3)) + 37, 3))
    x[::5] = 0.0  # the origin
    cases.append((spec, x))
    return cases


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("spec, inputs", [pytest.param(*case, id=case[0].kind.value) for case in blocked_batches()])
def test_batch_bits_do_not_depend_on_the_worker_count(spec, inputs):
    # the chunk runner evaluates chunks of the batch, each two blocks and a
    # few rows, on 1, 2 and 4 workers, and evaluate_batch cuts each chunk
    # into blocks on its worker's thread; the outcome equals, bit for bit,
    # the kernel's one pass over the whole batch, and each worker's 0 / 0
    # stays silent under the RuntimeWarning-as-error filter
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datamaps, "_BLOCK_BYTES", 1 << 40)
        whole = evaluate_batch(spec, inputs)
    rows = datamaps._block_rows(spec.kind, inputs.shape)
    if spec.kind is not MapKind.DISK_DECISION:
        assert all(np.any(whole.reason[start:start + rows]) for start in range(0, len(inputs), rows))
    chunk = 2 * rows + 5
    for workers in (1, 2, 4):
        parts = {}

        def run(start, buffer):
            parts[start] = evaluate_batch(spec, inputs[start:start + chunk])

        measure._run_chunks(range(0, len(inputs), chunk), [None] * workers, run)
        assert_outcomes_bit_equal(concat_outcomes([parts[start] for start in sorted(parts)]), whole)


CHUNK_SEED = 23


def _failing_on(distance, start, shape, error):
    """The distance, raising error on the standard-normal CDF chunk starting
    at row start, which it knows by its first row."""
    first = np.random.default_rng((CHUNK_SEED, start)).standard_normal((1, *shape))[0]

    def fail(batch, spec):
        if np.array_equal(batch[0], first):
            raise error
        return distance(batch, spec)

    return fail


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_chunk_error_propagates_with_its_type(workers, monkeypatch):
    # whichever chunk raises, the first, one in the middle or the ragged
    # last, and on whichever worker, distance_cdf raises that error with its
    # type, and the next CDF runs as usual
    monkeypatch.setattr(measure, "_worker_count", lambda: workers)
    spec, total = LS, 5 * (1 << 14) + 37
    distance, tag = SINGULAR_DISTANCE[spec.kind]
    want = distance_cdf(spec, 4, total, CHUNK_SEED)
    for start in (0, 2 << 14, 5 << 14):
        for error in (DomainError("outside the domain"), ContractViolation("a chunk holds the marker")):
            with monkeypatch.context() as patch:
                patch.setitem(SINGULAR_DISTANCE, spec.kind, (_failing_on(distance, start, (4, 2), error), tag))
                with pytest.raises(ContractViolation) as raised:
                    distance_cdf(spec, 4, total, CHUNK_SEED)
            assert raised.value is error
        assert_bits_equal(distance_cdf(spec, 4, total, CHUNK_SEED).sorted_distances, want.sorted_distances, "distances")


def test_a_helper_error_reaches_the_caller(monkeypatch):
    # the calling thread holds its first chunk until a helper has raised on
    # another, so the error can only come back from the helper
    monkeypatch.setattr(measure, "_worker_count", lambda: 2)
    spec = LS
    distance, tag = SINGULAR_DISTANCE[spec.kind]
    caller, raised_on_helper = threading.get_ident(), threading.Event()

    def fail_on_helpers(batch, spec):
        if threading.get_ident() == caller:
            assert raised_on_helper.wait(30)
            return distance(batch, spec)
        raised_on_helper.set()
        raise ContractViolation("raised on a helper")

    monkeypatch.setitem(SINGULAR_DISTANCE, spec.kind, (fail_on_helpers, tag))
    with pytest.raises(ContractViolation, match="raised on a helper"):
        distance_cdf(spec, 4, 3 * (1 << 14) + 5, CHUNK_SEED)


def test_helpers_stop_when_the_caller_fails(monkeypatch):
    # the calling thread raises on its first chunk; a helper finishes the
    # chunk it holds and takes no other, so the error is not held back
    # while the rest of the draw runs
    monkeypatch.setattr(measure, "_worker_count", lambda: 2)
    spec = LS
    distance, tag = SINGULAR_DISTANCE[spec.kind]
    caller, helper_chunks = threading.get_ident(), []

    def fail_on_caller(batch, spec):
        if threading.get_ident() == caller:
            raise ContractViolation("raised on the calling thread")
        helper_chunks.append(len(batch))
        time.sleep(0.05)
        return distance(batch, spec)

    monkeypatch.setitem(SINGULAR_DISTANCE, spec.kind, (fail_on_caller, tag))
    with pytest.raises(ContractViolation, match="calling thread"):
        distance_cdf(spec, 2, 40 * (1 << 14) + 37, CHUNK_SEED)
    assert len(helper_chunks) <= 1


def test_worker_count_is_capped_at_the_measured_count(monkeypatch):
    # a host with many CPUs still runs a CDF on two threads, the one count
    # whose speed and memory were measured
    monkeypatch.setattr(measure.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    assert measure._worker_count() == 2
    monkeypatch.setattr(measure.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert measure._worker_count() == 1


def test_every_chunk_runs_once_under_fast_thread_switches(monkeypatch):
    # more workers than cores, a thread switch every microsecond and
    # hundreds of chunks of 37 rows: each chunk runs exactly once, the
    # distances are those of the same chunks on one worker, and the CDF
    # leaves the process's CPU affinity as it found it
    spec, total = LAD, 10_007
    monkeypatch.setattr(measure, "_CHUNK", 37)
    monkeypatch.setattr(measure, "_worker_count", lambda: 1)
    want = distance_cdf(spec, 4, total, CHUNK_SEED)
    run_chunks, starts = measure._run_chunks, []

    def recording(chunk_starts, buffers, run):
        def record(start, buffer):
            starts.append(start)
            run(start, buffer)

        run_chunks(chunk_starts, buffers, record)

    monkeypatch.setattr(measure, "_run_chunks", recording)
    monkeypatch.setattr(measure, "_worker_count", lambda: 8)
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    cpus = affinity(0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = distance_cdf(spec, 4, total, CHUNK_SEED)
    finally:
        sys.setswitchinterval(interval)
    assert len(starts) > 200
    assert sorted(starts) == list(range(0, total, 37))
    assert_bits_equal(got.sorted_distances, want.sorted_distances, "distances")
    assert affinity(0) == cpus


def test_pairwise_sum_matches_numpy_sum():
    # the LAD objectives sum one data point at a time in this order; if a
    # numpy release changes how np.sum reduces a contiguous row, this fails
    # before any output digest does
    rng = np.random.default_rng(0)
    for n in range(1, 301):
        values = 10.0 ** rng.uniform(-8.0, 8.0, (16, n))
        columns = np.ascontiguousarray(values.T)

        def term(k, out):
            if out is None:
                return columns[k].copy()
            out[...] = columns[k]
            return out

        got = datamaps._pairwise_sum(term, 0, n)
        want = np.sum(values, axis=-1)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (
            f"np.sum no longer adds {n} values in pairwise order")


def numpy_pc_moments(points):
    # (a, cxy) of the PC section by numpy's reductions over each row, each
    # coordinate's mean over the last axis, as numpy_ls_sums takes it
    x, y = points[..., 0], points[..., 1]
    xc, yc = x - x.mean(axis=1, keepdims=True), y - y.mean(axis=1, keepdims=True)
    n = points.shape[1]
    cxx = np.sum(xc ** 2, axis=1) / n
    cyy = np.sum(yc ** 2, axis=1) / n
    cxy = np.sum(xc * yc, axis=1) / n
    return 0.5 * (cxx - cyy), cxy


def numpy_ls_sums(points):
    # (s_xx, s_xy) of the LS kernel by numpy's reductions over each row
    x, y = points[..., 0], points[..., 1]
    xc = x - x.mean(axis=1, keepdims=True)
    return np.sum(xc * xc, axis=1), np.sum(xc * (y - y.mean(axis=1, keepdims=True)), axis=1)


def moment_batch(m, n, rng):
    """m datasets of n points: normal rows, then as many of the rows as fit
    made integer-valued, all equal, constant in x, of random signed zeros,
    and of x all -0.0 with y all +0.0 (centered products all -0.0, which
    np.sum adds to +0.0).  The kinds are taken in a turn that shifts with n,
    so one or two rows see them all over a sweep of n."""
    points = rng.standard_normal((m, n, 2))
    special = [
        lambda p: np.round(4.0 * p),
        lambda p: np.broadcast_to(p[:, :1], p.shape),
        lambda p: np.concatenate([np.broadcast_to(p[:, :1, :1], p[..., :1].shape), p[..., 1:]], axis=-1),
        lambda p: rng.choice([0.0, -0.0], size=p.shape),
        lambda p: np.stack([np.full(p.shape[:2], -0.0), np.zeros(p.shape[:2])], axis=-1),
    ]
    block = max(1, m // 8)
    for k, make in enumerate(special[n % 5:] + special[:n % 5]):
        rows = slice(k * block, (k + 1) * block)
        if len(points[rows]):
            points[rows] = make(points[rows])
    return points


def assert_bits_equal(got, want, label):
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64)), label


# Point counts that reach every branch of numpy's pairwise order: one after
# another below 8, eight accumulators and a tail up to 128, and above 128
# halves split at a multiple of 8, each with and without a tail.
PAIRWISE_BRANCH_NS = (*range(2, 18), 31, 32, 33, 127, 128, 129, 130, 136, 137, 255, 256, 257, 300)


@pytest.mark.parametrize("m, ns", [(1, range(2, 301)), (2, range(2, 301)), (3072, PAIRWISE_BRANCH_NS),
                                   (10**5, (2, 3, 4, 9))], ids=["1", "2", "3072", "100000"])
def test_moment_kernels_match_numpy_reductions(m, ns):
    # the PC and LS sections add over the points axis column by column in
    # numpy's own order, every sum, means included, pairwise over a row's
    # last axis, each from +0.0; signed zeros included
    rng = np.random.default_rng(m)
    for n in ns:
        points = moment_batch(m, n, rng)
        a, cxy = numpy_pc_moments(points)
        for label, got, want in zip("ab", datamaps.section(PC, points), (a, cxy)):
            assert_bits_equal(got, want, f"PC section {label}, n = {n}")
        assert_bits_equal(datamaps._pc_batch(points, PC)[1], 2.0 * np.hypot(a, cxy), f"PC gap, n = {n}")
        s_xx, s_xy = numpy_ls_sums(points)
        with np.errstate(divide="ignore", invalid="ignore"):
            angle, gap, _ = datamaps._ls_batch(points, LS)
            assert_bits_equal(angle, reduce_mod_pi(np.arctan(s_xy / s_xx)), f"LS angle, n = {n}")
        assert_bits_equal(gap, np.sqrt(s_xx), f"LS gap, n = {n}")


def aug_mean_section_batches(rng):
    """(spec, angles) of AUG_MEAN batches of random rows, the first row of
    the first two a zero resultant: exactly, 1 + w0 a = 0 at phi = 0, and
    within TIE_TOL, two opposite points whose cosines round to 6e-17."""
    exact = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0,), w0=1.0, aug_point=(-1.0, 0.0))
    opposite = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(1.0, 1.0), w0=0.0)
    spread = DataMapSpec(kind=MapKind.AUG_MEAN, weights=(0.5, 1.0, 1.5), w0=0.8, aug_point=(0.6, 0.8))
    return [
        (exact, np.concatenate([[[0.0]], 2.0 * math.pi * rng.random((64, 1))])),
        (opposite, np.concatenate([[[0.5 * math.pi, -0.5 * math.pi]], 2.0 * math.pi * rng.random((64, 2))])),
        (spread, 2.0 * math.pi * rng.random((256, 3))),
    ]


def test_circle_valued_kernels_follow_from_the_section():
    # PC's angle is arg(F) / 2 and its gap 2|F|, LS's angle arg(F) mod pi
    # and its gap sqrt(Re F), AUG_MEAN's angle arg F and its gap |F|, bit
    # for bit, on the special rows of the moment batches and on zero resultants
    rng = np.random.default_rng(33)
    for n in (2, 3, 9, 130):
        points = moment_batch(256, n, rng)
        re, im = datamaps.section(PC, points)
        angle, gap, _ = datamaps._pc_batch(points, PC)
        assert_bits_equal(gap, 2.0 * np.hypot(re, im), f"PC gap, n = {n}")
        assert_bits_equal(angle, reduce_mod_pi(0.5 * np.arctan2(2.0 * im, 2.0 * re)), f"PC angle, n = {n}")
        re, im = datamaps.section(LS, points)
        with np.errstate(divide="ignore", invalid="ignore"):
            angle, gap, _ = datamaps._ls_batch(points, LS)
            assert_bits_equal(angle, reduce_mod_pi(np.arctan(im / re)), f"LS angle, n = {n}")
        assert_bits_equal(gap, np.sqrt(re), f"LS gap, n = {n}")
    zeros = []
    for spec, phi in aug_mean_section_batches(rng):
        re, im = datamaps.section(spec, phi)
        angle, gap, reason = datamaps._aug_mean_batch(phi, spec)
        assert_bits_equal(gap, np.hypot(re, im), f"AUG_MEAN gap, n = {phi.shape[1]}")
        assert_bits_equal(angle, np.arctan2(im, re), f"AUG_MEAN angle, n = {phi.shape[1]}")
        zeros.append((re[0], im[0], reason[0] == UndefinedReason.ZERO_RESULTANT))
    assert zeros[0] == (0.0, 0.0, True) and zeros[1][2]


@pytest.mark.parametrize("spec, inputs", [
    (LAD, np.zeros((1, 3, 2))),
    (DataMapSpec(kind=MapKind.DISK_DECISION, radius=0.5), np.zeros((1, 2))),
    (DataMapSpec(kind=MapKind.RADIAL_OSCILLATOR), np.full((1, 2), 0.5)),
    (uniform_preset(3), np.zeros((1, 4))),
], ids=["lad", "disk", "oscillator", "weights-for-other-n"])
def test_section_refuses_maps_without_one(spec, inputs):
    # LAD, the disk and the oscillator take no complex argument, and an
    # AUG_MEAN section needs one weight per angle
    with pytest.raises(ContractViolation):
        datamaps.section(spec, inputs)


@pytest.mark.parametrize("n", [1, 3, 17])
def test_section_jacobian_matches_central_differences(n):
    # column i of the Jacobian is w_i (-sin phi_i, cos phi_i); the section it
    # returns is section's, bit for bit, and both Jacobian arrays are views
    # of one buffer, laid out one row per angle
    rng = np.random.default_rng((33, n))
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=tuple(rng.uniform(0.3, 2.0, n)), w0=0.7)
    phi = 2.0 * math.pi * rng.random((50, n))
    (re, im), (d_re, d_im) = datamaps.section_jacobian(spec, phi)
    for got, want in zip((re, im), datamaps.section(spec, phi)):
        assert_bits_equal(got, want, "section_jacobian's section")
    assert d_re.shape == d_im.shape == phi.shape
    assert d_re.T.flags.c_contiguous and d_re.base is d_im.base
    h = 1e-6
    for i in range(n):
        step = np.zeros(n)
        step[i] = h
        (re_up, im_up), (re_down, im_down) = datamaps.section(spec, phi + step), datamaps.section(spec, phi - step)
        assert np.max(np.abs((re_up - re_down) / (2.0 * h) - d_re[:, i])) <= 1e-8
        assert np.max(np.abs((im_up - im_down) / (2.0 * h) - d_im[:, i])) <= 1e-8
    with pytest.raises(ContractViolation):
        datamaps.section_jacobian(PC, phi)


@st.composite
def map_batches(draw):
    """(spec, inputs) of any of the six maps; LAD batches span more than one
    row block of evaluate_batch, repeating drawn rows."""
    kind = draw(st.sampled_from(list(MapKind)))
    if kind in REFERENCE:
        points = draw(batches(extra=(half_integer_grid,)))
        if kind is MapKind.LAD_LINE:
            rows = datamaps._block_rows(kind, points.shape)
            m = draw(st.integers(rows + 1, 3 * rows))
            points = np.resize(points, (m, *points.shape[1:]))
        return DataMapSpec(kind=kind), points
    if kind is MapKind.AUG_MEAN:
        n = draw(st.integers(1, 5))
        phi = draw(st.lists(st.lists(angles | st.sampled_from([0.0, 0.5 * math.pi, math.pi]),
                                     min_size=n, max_size=n), min_size=1, max_size=6))
        w0 = draw(st.sampled_from([0.0, 0.5, 1.0]))
        return DataMapSpec(kind=kind, weights=(1.0,) * n, w0=w0), np.array(phi)
    small = coords.map(lambda v: v / 16.0)  # inside the unit ball for d <= 3
    d = 2 if kind is MapKind.DISK_DECISION else draw(st.integers(2, 3))
    rows = draw(st.lists(st.lists(small, min_size=d, max_size=d), min_size=1, max_size=8))
    if kind is MapKind.DISK_DECISION:
        return DataMapSpec(kind=kind, center=(0.1, -0.2), radius=0.5), np.array(rows)
    return DataMapSpec(kind=kind), np.array(rows)


@PROPERTY
@given(map_batches())
def test_batch_outcome_invariants(case):
    # finite nonnegative gaps; gap 0 and value NaN exactly on the undefined
    # rows; the map's period, and Defined values in its feature space: line
    # directions in [0, pi), circle angles in [-pi, pi], decision bits 0 or
    # 1 and finite scalars
    spec, inputs = case
    batch = evaluate_batch(spec, inputs)
    undefined = batch.reason != 0
    assert np.all(np.isfinite(batch.gap)) and np.all(batch.gap >= 0.0)
    assert np.array_equal(np.isnan(batch.value), undefined)
    assert np.all(batch.gap[undefined] == 0.0)
    value = batch.value[~undefined]
    if spec.kind in REFERENCE:
        assert batch.period == math.pi and np.all((0.0 <= value) & (value < math.pi))
    elif spec.kind is MapKind.AUG_MEAN:
        assert batch.period == 2.0 * math.pi and np.all(np.abs(value) <= math.pi)
    else:
        assert batch.period is None and np.all(np.isfinite(value))
        if spec.kind is MapKind.DISK_DECISION:
            assert set(value.tolist()) <= {0.0, 1.0}


@st.composite
def rowwise_batches(draw):
    """(spec, inputs, rows, cuts) of any of the six maps: up to eight drawn
    rows, repeated to inputs of just under one row block of evaluate_batch
    to three blocks, and the cut points of a random split of the inputs.
    AUG_MEAN takes random positive weights."""
    kind = draw(st.sampled_from(list(MapKind)))
    if kind in REFERENCE:
        spec, rows = DataMapSpec(kind=kind), draw(batches(sizes=st.integers(2, 12), extra=(half_integer_grid,)))
    elif kind is MapKind.AUG_MEAN:
        n = draw(st.integers(1, 9))
        weights = draw(st.lists(st.floats(0.05, 4.0), min_size=n, max_size=n))
        spec = DataMapSpec(kind=kind, weights=tuple(weights), w0=draw(st.sampled_from([0.0, 0.5, 8.0])))
        rows = np.array(draw(st.lists(st.lists(angles | st.sampled_from([0.0, 0.5 * math.pi, math.pi]),
                                               min_size=n, max_size=n), min_size=1, max_size=8)))
    else:
        small = coords.map(lambda v: v / 16.0)  # inside the unit ball for d <= 3
        disk = kind is MapKind.DISK_DECISION
        d = 2 if disk else draw(st.integers(2, 3))
        rows = np.array(draw(st.lists(st.lists(small, min_size=d, max_size=d), min_size=1, max_size=8)))
        spec = DataMapSpec(kind=kind, center=(0.1, -0.2), radius=0.5) if disk else DataMapSpec(kind=kind)
    block = datamaps._block_rows(kind, rows.shape)
    m = draw(st.integers(max(1, block - 2), 3 * block))
    cuts = sorted(set(draw(st.lists(st.integers(1, max(1, m - 1)), max_size=5))) - {m})
    return spec, np.resize(rows, (m, *rows.shape[1:])), rows, cuts


def concat_outcomes(parts, length=None):
    """The outcomes of parts one after another, repeated up to length rows."""
    arrays = (np.concatenate([(b.value, b.gap, b.reason)[k] for b in parts]) for k in range(3))
    if length is not None:
        arrays = (np.resize(a, length) for a in arrays)
    return BatchOutcome(*arrays, period=parts[0].period)


def assert_outcomes_bit_equal(got, want):
    assert got.period == want.period
    assert_bits_equal(got.value, want.value, "value")
    assert_bits_equal(got.gap, want.gap, "gap")
    assert np.array_equal(got.reason, want.reason)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rowwise_batches())
def test_every_kernel_is_row_wise(case):
    # a row's outcome does not depend on the batch it comes in: the whole
    # batch, spanning up to three row blocks, equals bit for bit the pieces
    # of a random split and the one-row batches, concatenated; the batch
    # repeats its drawn rows, so their one-row outcomes, repeated, are those
    # of every row
    spec, inputs, rows, cuts = case
    whole = evaluate_batch(spec, inputs)
    edges = [0, *cuts, len(inputs)]
    pieces = [evaluate_batch(spec, inputs[a:b]) for a, b in zip(edges, edges[1:])]
    assert_outcomes_bit_equal(whole, concat_outcomes(pieces))
    singles = [evaluate_batch(spec, row[None]) for row in rows]
    assert_outcomes_bit_equal(whole, concat_outcomes(singles, len(inputs)))


def test_inputs_of_fewer_than_two_axes_are_refused_whole():
    # no row block is cut from them: the kernel sees them and refuses them
    specs = (*FITTERS, uniform_preset(3), DataMapSpec(kind=MapKind.DISK_DECISION, radius=0.5),
             DataMapSpec(kind=MapKind.RADIAL_OSCILLATOR))
    for spec in specs:
        for x in (0.5, [0.1, 0.2, 0.3]):
            with pytest.raises(ContractViolation):
                evaluate_batch(spec, x)


@PROPERTY
@given(batches())
def test_evaluate_with_standard_batch_matches_scalar(points):
    for spec in FITTERS:
        outcomes = [reference_standard(p) or REFERENCE[spec.kind](p) for p in points]
        assert_rows_match(evaluate_with_standard_batch(spec, points), outcomes)


@PROPERTY
@given(st.integers(2, 6).flatmap(lambda n: st.lists(collinear(n), min_size=1, max_size=6)))
def test_standard_batch_matches_scalar(rows):
    points = np.stack(rows)
    outcomes = [reference_standard(p) for p in points]
    assert_rows_match(standard_batch(points), outcomes)


def test_standard_batch_rejects_non_perfect_fits():
    points = np.array([[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)], [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)]])
    with pytest.raises(NotPerfectFitError):
        standard_batch(points)


def test_degenerate_examples():
    # the fixed cases the strategies are built around, with their reasons
    cases = [
        ([(1, 0), (1, 1), (1, 2)], MapKind.LS_LINE, UndefinedReason.COLLINEAR_PREDICTOR),
        ([(1, 0), (1, 1), (1, 2)], MapKind.LAD_LINE, UndefinedReason.COLLINEAR_PREDICTOR),
        ([(0, 1), (-math.sqrt(3) / 2, -0.5), (math.sqrt(3) / 2, -0.5)], MapKind.PC_LINE,
         UndefinedReason.EIGENVALUE_TIE),
        ([(0, 0), (1, 1), (1, -1)], MapKind.LAD_LINE, UndefinedReason.OBJECTIVE_TIE),
        ([(0, 0), (1, 1)], MapKind.LAD_LINE, None),
    ]
    for pts, kind, reason in cases:
        batch = evaluate_batch(DataMapSpec(kind=kind), np.array([pts], dtype=float))
        assert batch.reason[0] == (reason or 0)
        assert_close(batch, 0, REFERENCE[kind](np.array(pts, dtype=float)))


def test_line_angles_stay_below_pi():
    # a tiny negative angle mod pi rounds up to pi itself; it is direction 0
    assert reduce_mod_pi(-1e-17) == 0.0
    assert reduce_mod_pi(math.pi) == 0.0
    assert reduce_mod_pi(-1e-15) == -1e-15 % math.pi < math.pi
    got = reduce_mod_pi(np.array([-1e-17, -0.0, 0.0, math.pi, 4.0]))
    assert got.tolist() == [0.0, 0.0, 0.0, 0.0, 4.0 - math.pi]
    # a fitted direction of slope -1e-17 is 0
    points = np.array([[(0.0, 0.0), (1.0, -1e-17)]])
    for spec in FITTERS:
        assert evaluate_batch(spec, points).value[0] == 0.0


unit_coords = st.floats(-1.0, 1.0)


@PROPERTY
@given(
    n=st.integers(2, 6),
    data=st.data(),
    alpha=st.floats(-math.pi, math.pi),
    weights=st.lists(st.floats(0.1, 2.0), min_size=6, max_size=6),
    w0=st.floats(0.0, 2.0),
    beta=angles,
)
def test_rotation_equivariance(n, data, alpha, weights, w0, beta):
    # rotating the data by alpha turns the PC direction by alpha mod pi, and
    # the augmented mean, augmentation point included, by alpha; rows near S
    # (gap at most 1e-6) are left out, where the direction is ill-conditioned
    m = data.draw(st.integers(1, 8))
    flat = data.draw(st.lists(unit_coords, min_size=2 * m * n, max_size=2 * m * n))
    points = np.array(flat).reshape(m, n, 2)
    c, s = math.cos(alpha), math.sin(alpha)
    pc = PC
    before = evaluate_batch(pc, points)
    after = evaluate_batch(pc, points @ np.array([[c, s], [-s, c]]))
    keep = before.gap > 1e-6
    assert np.all(angle_distance(after.value[keep], before.value[keep] + alpha, math.pi) <= 1e-9)

    phis = points[..., 0] * math.pi
    spec = DataMapSpec(kind=MapKind.AUG_MEAN, weights=weights[:n], w0=w0,
                       aug_point=(math.cos(beta), math.sin(beta)))
    turned = DataMapSpec(kind=MapKind.AUG_MEAN, weights=weights[:n], w0=w0,
                         aug_point=(math.cos(beta + alpha), math.sin(beta + alpha)))
    before = evaluate_batch(spec, phis)
    after = evaluate_batch(turned, phis + alpha)
    keep = before.gap > 1e-6
    assert np.all(angle_distance(after.value[keep], before.value[keep] + alpha, 2.0 * math.pi) <= 1e-9)


# ---------------------------------------------------------------------------
# Array diameters against brute-force pairwise feature distances
# ---------------------------------------------------------------------------

_NEAR_ENDS = st.floats(0.0, 1e-12)


@st.composite
def feature_batches(draw):
    """A BatchOutcome of one feature space (line directions, circle points,
    decisions or scalars) with duplicated values, angles near 0 and near
    the period, and any number of Undefined rows."""
    space = draw(st.sampled_from(["line", "circle", "decision", "scalar"]))
    if space == "line":
        pool = st.floats(0.0, math.pi) | _NEAR_ENDS | _NEAR_ENDS.map(lambda d: math.pi - d)
    elif space == "circle":
        pool = (st.floats(-math.pi, math.pi) | _NEAR_ENDS | _NEAR_ENDS.map(lambda d: -d)
                | _NEAR_ENDS.map(lambda d: math.pi - d) | _NEAR_ENDS.map(lambda d: d - math.pi))
    elif space == "decision":
        pool = st.sampled_from([0.0, 1.0])
    else:
        pool = st.floats(-5.0, 5.0)
    base = draw(st.lists(pool, min_size=1, max_size=12))
    values = np.array(draw(st.lists(st.sampled_from(base), min_size=1, max_size=40)))
    if space == "line":
        values = reduce_mod_pi(values)
    defined = np.array(draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values))))
    return BatchOutcome(value=np.where(defined, values, np.nan), gap=np.where(defined, 1.0, 0.0),
                        reason=np.where(defined, 0, 1).astype(np.int8),
                        period={"line": math.pi, "circle": 2.0 * math.pi}.get(space))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(feature_batches())
def test_batch_diameter_matches_pairwise(batch):
    values = batch.value[batch.defined].tolist()
    got = batch_diameter(batch)
    if not values:
        assert math.isnan(got)
        return
    period = batch.period
    want = max((abs(f - g) if period is None else float(angle_distance(f, g, period))
                for f, g in itertools.combinations(values, 2)), default=0.0)
    if period == 2.0 * math.pi:
        # each side's mod-2pi arithmetic rounds by up to ulp(2pi) / 2 =
        # ulp(pi), and batch_diameter's on angles it first reduces mod 2pi
        assert abs(got - want) <= 4 * math.ulp(math.pi)
    else:
        assert abs(got - want) <= 4e-16


def test_batch_outcome_masks_its_undefined_rows():
    # a map states each row's reason once; the outcome masks value and gap
    batch = BatchOutcome(value=[0.3, 0.7], gap=[1.0, 2.0], reason=[0, UndefinedReason.ORIGIN],
                         period=math.pi)
    np.testing.assert_array_equal(batch.value, [0.3, np.nan])
    np.testing.assert_array_equal(batch.gap, [1.0, 0.0])
    assert batch.reason.dtype == np.int8
    np.testing.assert_array_equal(batch.reason, [0, 5])
    assert batch.defined.tolist() == [True, False] and batch.period == math.pi


def test_batch_diameter_single_sample_and_all_undefined():
    one = BatchOutcome(value=np.array([np.nan, 0.3]), gap=np.array([0.0, 1.0]),
                       reason=np.array([1, 0], dtype=np.int8), period=math.pi)
    assert batch_diameter(one) == 0.0
    none = BatchOutcome(value=np.array([np.nan]), gap=np.array([0.0]),
                        reason=np.array([1], dtype=np.int8), period=2.0 * math.pi)
    assert math.isnan(batch_diameter(none))


# ---------------------------------------------------------------------------
# Level-by-level winding against the depth-first recursion it replaces
# ---------------------------------------------------------------------------

def recursive_winding(points, fn):
    """The depth-first bisection: (degree, samples_used, refined, max_depth, min_gap)."""
    state = {"samples": 0, "min_gap": math.inf, "depth": 0}

    def eval_at(p):
        outcome = fn(p[None])
        if outcome.reason[0]:
            raise LoopHitsSingularityError(UndefinedReason(outcome.reason[0]).name)
        state["samples"] += 1
        state["min_gap"] = min(state["min_gap"], float(outcome.gap[0]))
        state["period"] = outcome.period
        return float(outcome.value[0])

    features = [eval_at(p) for p in points]
    period = state["period"]

    def lift_edge(p_a, f_a, p_b, f_b, depth):
        if angle_distance(f_a, f_b, period) < STEP_FRACTION * period:
            return _wrap_increment(f_b - f_a, period)
        if depth >= MAX_REFINE:
            raise InconclusiveDegreeError("edge not short-arc")
        state["depth"] = max(state["depth"], depth + 1)
        p_m = 0.5 * (p_a + p_b)
        f_m = eval_at(p_m)
        return lift_edge(p_a, f_a, p_m, f_m, depth + 1) + lift_edge(p_m, f_m, p_b, f_b, depth + 1)

    m = len(points)
    total = sum(lift_edge(points[i], features[i], points[(i + 1) % m], features[(i + 1) % m], 0)
                for i in range(m))
    degree = round(total / period)
    assert abs(total - degree * period) <= 1e-6 * period
    return degree, state["samples"], state["depth"] > 0, state["depth"], state["min_gap"]


def wobbly_map(k, singularity, wobble, circle_valued):
    """Degree-k map around a singular point on stacked points (m, 2), with
    an angular wobble that makes edges need different bisection depths."""
    x0 = np.asarray(singularity, dtype=float)

    def fn(us):
        v = us - x0
        r = np.hypot(v[:, 0], v[:, 1])
        t = np.arctan2(v[:, 1], v[:, 0])
        phase = k * t + wobble * np.sin(3.0 * t)
        if circle_valued:
            value, period = np.arctan2(np.sin(phase), np.cos(phase)), 2.0 * math.pi
        else:
            value, period = reduce_mod_pi(0.5 * phase), math.pi
        return BatchOutcome(value=value, gap=r, reason=np.where(r == 0.0, UndefinedReason.ORIGIN, 0), period=period)

    return fn


@PROPERTY
@given(
    k=st.integers(-3, 3),
    singularity=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
    wobble=st.floats(0.0, 1.5),
    circle_valued=st.booleans(),
    m=st.integers(5, 40),
    radius=st.floats(0.2, 1.5),
)
def test_level_by_level_matches_recursive(k, singularity, wobble, circle_valued, m, radius):
    t = 2.0 * math.pi * np.arange(m) / m
    points = radius * np.stack([np.cos(t), np.sin(t)], axis=1)
    fn = wobbly_map(k, singularity, wobble, circle_valued)
    try:
        expected = recursive_winding(list(points), fn)
    except (LoopHitsSingularityError, InconclusiveDegreeError):
        with pytest.raises((LoopHitsSingularityError, InconclusiveDegreeError)):
            winding_number(Loop(points), fn)
        return
    report = winding_number(Loop(points), fn)
    got = (report.degree, report.samples_used, report.refined, report.max_depth, report.min_gap)
    assert got == expected


def test_slice_map_rows_equal_pointwise_evaluate():
    # the batched slice evaluator gives, row for row and bit for bit, what
    # one dataset embedded and evaluated on its own gives, inside the disk
    # and outside it
    us = np.random.default_rng(15).uniform(-1.2, 1.2, (400, 2))
    us[:4] = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (-0.6, 1.0)]
    assert (np.linalg.norm(us, axis=1) <= 1.0).any() and (np.linalg.norm(us, axis=1) > 1.0).any()
    for spec in FITTERS:
        batch = slice_map(SLICE, spec)(us)
        rows = [evaluate_batch(spec, SLICE.dataset_at(u, allow_outside_disk=True).points[None]) for u in us]
        assert_bits_equal(batch.value, np.concatenate([row.value for row in rows]), spec.kind.value)
        assert_bits_equal(batch.gap, np.concatenate([row.gap for row in rows]), spec.kind.value)
        np.testing.assert_array_equal(batch.reason, np.concatenate([row.reason for row in rows]))
        assert batch.period == math.pi
