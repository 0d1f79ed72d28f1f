"""Quantitative proximity and severity of singularities.

Distance to the singular set (exact where an analytic projection exists,
tagged surrogates elsewhere), the one projector onto the augmented mean's
zero-resultant set (Gauss-Newton landing, then a Newton polish of the KKT
system, over a batch of starts in which each row stops by its own rule, so
no start moves another's result), local oscillation profiles, a
cover-based severity classifier, and derivative blow-up profiles along
arcs shrinking into a singular point.  The profilers take a map as any callable from points
stacked on a first axis to their ``BatchOutcome``, such as
``slices.slice_map``, and refuse a result of another type.

Nothing here uses scipy, and importing the module loads none of it.  A
temporary shim, the module ``__getattr__``, hands scipy's ``minimize`` on
demand to perfbench's tracer, which still patches that name here; the shim
goes in the same change that deletes the tracer's ``metrics.minimize``
patch (ROADMAP 1b).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from singlab.datamaps import (
    DIST_REFINED,
    TIE_TOL,
    BatchOutcome,
    DataMapSpec,
    MapKind,
    UndefinedReason,
    _axis_sum,
    _batch_outcome,
    _KINDS,
    _singular_distance,
    as_map_input,
    evaluate_batch,
    oscillator_t,
    section_jacobian,
)
from singlab.geometry import (
    ContractViolation,
    _count,
    _decreasing_sizes,
    _finite_array,
    _positive_sizes,
    angle_distance,
    loglog_fit,
    segment_average_norm,
    wrap_increments,
)


def __getattr__(name: str):
    # Temporary shim (ROADMAP 1b): perfbench's tracer reads and patches
    # ``metrics.minimize``.  It comes from scipy's defining module, which the
    # tracer never patches, so the tracer saves, and later restores, the
    # real function even after it has replaced ``scipy.optimize.minimize``.
    if name == "minimize":
        from scipy.optimize._minimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class UnsupportedMapError(ContractViolation):
    """The map kind has no distance rule."""


class CurveHitsSingularityError(RuntimeError):
    """A quadrature or finite-difference node evaluated Undefined."""


# Projection onto {resultant = 0}: the Gauss-Newton step cap (a row stops
# once |r| < TIE_TOL), the seeded uniform starts, and the KKT polish's step
# cap and the step size after which a row stops.
GAUSS_NEWTON_ITERS = 60
PROJECTION_STARTS = 128
PROJECTION_SEED = 0
POLISH_ITERS = 10
POLISH_STEP_TOL = 1e-13

# Derivative blow-up profiles: finite-difference step as a share of eta,
# arc-template shifts tried per eta before the entry is flagged, and the
# quadrature nodes per chord of an arc.
H_FD_FACTOR = 1e-5
MAX_JITTERS = 8
NODES_PER_SEGMENT = 8
# Candidate y2 whose feature separation from y1 is within this of the
# largest count as tied, and the first of them is taken.  The candidates
# come in mirror-image pairs that tie exactly on a symmetric map, so without
# it the last bit of the map's arithmetic would pick the arc.
SEPARATION_TIE = 1e-12

# Oscillator arcs: chords of the semicircle, log-spaced radial pieces, and
# the relative nudge that keeps both ends off the branch kinks.
ARC_SEGMENTS = 96
RADIAL_SEGMENTS = 64
ARC_NUDGE = 1e-9


def _gram_sum(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_i u_i v_i (m,) of vectors stored one row per point, u, v (n, m),
    bit-equal to np.sum(np.ascontiguousarray(u.T * v.T), axis=1): numpy adds a
    C-ordered product's n terms pairwise, but those of the F-ordered
    u.T * v.T one after another, which differs from n = 8 on."""
    return _axis_sum(lambda i, out: np.multiply(u[i], v[i], out=out), len(u))


def _solve_gram(ux, uy, jx, jy, b1, b2):
    """Solutions of [<ux, jx> <ux, jy>; <ux, jy> <uy, jy>] x = (b1, b2) for
    vectors stored one row per point, (n, m), by Cramer's rule, NaN where
    the determinant is below 1e-12."""
    a11, a12, a22 = _gram_sum(ux, jx), _gram_sum(ux, jy), _gram_sum(uy, jy)
    det = a11 * a22 - a12 * a12
    det = np.where(np.abs(det) < 1e-12, np.nan, det)
    return (a22 * b1 - a12 * b2) / det, (a11 * b2 - a12 * b1) / det


def _project_to_zero_resultant(angles: np.ndarray, spec: DataMapSpec) -> np.ndarray:
    """Gauss-Newton projection of angle configurations (m, n) onto
    {resultant = 0}.

    Underdetermined least-norm steps.  A row stops once its resultant norm
    drops below TIE_TOL or is NaN (NaN absorbs every later step, so such a
    row never lands), and the iteration stops when no row moves or after
    GAUSS_NEWTON_ITERS steps, so each row's result is that of its start
    alone.  Rows that fail to converge are left with a nonzero or NaN
    residual and filtered by the caller.  The angles are stored one row per
    point, (n, m), so the sums and steps run over contiguous rows.
    """
    phi = angles.T.copy()
    for _ in range(GAUSS_NEWTON_ITERS):
        r, (jx, jy) = section_jacobian(spec, phi.T)
        jx, jy = jx.T, jy.T
        moving = np.hypot(r[0], r[1]) >= TIE_TOL
        if not moving.any():
            break
        lam1, lam2 = _solve_gram(jx, jy, jx, jy, r[0], r[1])
        phi = np.where(moving, phi - (jx * lam1 + jy * lam2), phi)
    return phi.T


def _kkt_polish(phi: np.ndarray, phi0: np.ndarray, spec: DataMapSpec) -> np.ndarray:
    """Newton on the KKT system of min 1/2 |phi - phi0|^2 s.t. r(phi) = 0,
    for all rows of phi (k, n) at once (Nocedal & Wright, Numerical
    Optimization, 2nd ed., 18.1).  With g = phi - phi0 - J^T mu, the
    Lagrangian's Hessian is diagonal, h_i = 1 + w_i (mu_x cos phi_i + mu_y
    sin phi_i), so a step solves the 2x2 Schur system (J H^-1 J^T) dmu =
    J H^-1 g - r and sets dphi = H^-1 (J^T dmu - g); mu starts at the
    least-squares multipliers.  A row stops after the step that brings its
    largest |dphi| to at most POLISH_STEP_TOL, or goes NaN and stops once a
    step exceeds pi (it left its cell) or its system is singular; the
    iteration ends when no row moves, or after POLISH_ITERS steps, so each
    row's result is that of its start alone.  Like the projector, it stores
    the angles one row per point.
    """
    phi, phi0 = phi.T.copy(), phi0[:, None]
    r, (jx, jy) = section_jacobian(spec, phi.T)
    jx, jy = jx.T, jy.T
    d = phi - phi0
    mu_x, mu_y = _solve_gram(jx, jy, jx, jy, _gram_sum(jx, d), _gram_sum(jy, d))
    moving = np.ones(phi.shape[1], dtype=bool)
    for _ in range(POLISH_ITERS):
        # w cos phi = jy and w sin phi = -jx
        h = 1.0 + mu_x * jy - mu_y * jx
        g = phi - phi0 - jx * mu_x - jy * mu_y
        ux, uy = jx / h, jy / h
        dmu_x, dmu_y = _solve_gram(ux, uy, jx, jy, _gram_sum(ux, g) - r[0], _gram_sum(uy, g) - r[1])
        step = ux * dmu_x + uy * dmu_y - g / h
        size = np.max(np.abs(step), axis=0)
        phi = np.where(moving, phi + step, phi)
        phi[:, moving & ~(size <= math.pi)] = np.nan
        mu_x, mu_y = np.where(moving, mu_x + dmu_x, mu_x), np.where(moving, mu_y + dmu_y, mu_y)
        moving &= (size > POLISH_STEP_TOL) & (size <= math.pi)
        if not moving.any():
            break
        r, (jx, jy) = section_jacobian(spec, phi.T)
        jx, jy = jx.T, jy.T
    return phi.T


def nearest_zero_resultant(phi0, spec: DataMapSpec) -> tuple[float, np.ndarray | None]:
    """(wrapped arc distance, configuration) of the nearest zero-resultant
    configuration to the angles phi0 (n,) that the projector finds, or
    (inf, None) when no start lands.  Gauss-Newton lands phi0, phi0 +-
    1e-3 (i - (n - 1) / 2) (equal angles are a saddle that the nudges leave)
    and PROJECTION_STARTS seeded uniform starts.  A finite row has landed
    when the map is Undefined on it (|r| <= TIE_TOL); the landed rows are
    wrapped into phi0 + (-pi, pi]^n and polished by ``_kkt_polish``, whose
    rows that went NaN are dropped.  The nearest landed or polished row on
    which the map is Undefined wins, so the distance is that of a point of
    the set.  Every row runs alone, so no start moves another's result.
    """
    phi0 = np.asarray(phi0, dtype=float)
    offsets = 1e-3 * (np.arange(phi0.size) - 0.5 * (phi0.size - 1))
    uniform = 2.0 * math.pi * np.random.default_rng(PROJECTION_SEED).random((PROJECTION_STARTS, phi0.size))
    zero = UndefinedReason.ZERO_RESULTANT
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = _project_to_zero_resultant(np.vstack([phi0, phi0 + offsets, phi0 - offsets, uniform]), spec)
        phi = phi[np.isfinite(phi).all(axis=1)]
        landed = phi0 + wrap_increments(phi[evaluate_batch(spec, phi).reason == zero] - phi0, 2.0 * math.pi)
        d = wrap_increments(np.vstack([landed, _kkt_polish(landed, phi0, spec)]) - phi0, 2.0 * math.pi)
        d = d[np.isfinite(d).all(axis=1)]
    on_s = evaluate_batch(spec, phi0 + d).reason == zero
    dist = np.where(on_s, np.linalg.norm(d, axis=1), np.inf)
    if not np.any(dist < np.inf):
        return math.inf, None
    best = int(np.argmin(dist))
    return float(dist[best]), phi0 + d[best]


def _pc_tie_distance(points: np.ndarray, gap: float) -> float:
    """Exact distance of one plane dataset (n, 2), whose PC eigenvalue gap
    is gap, to the PC eigenvalue ties.

    Ties are the datasets whose centered points Q (n x 2) have orthogonal
    columns of equal norm.  The nearest such Q is s U V^T with s = (sigma1 +
    sigma2) / 2, from the SVD Q = U S V^T (Eckart & Young 1936, Psychometrika
    1; Higham 1986, SIAM J. Sci. Stat. Comput. 7), and the mean is free, so
    the distance is (sigma1 - sigma2) / sqrt(2).  With sigma1^2 - sigma2^2 =
    n gap that is n gap / (sqrt(2) (sigma1 + sigma2)), free of cancellation:
    the singular values come from the SVD of Q, not from the eigenvalues,
    whose smaller one cancels on nearly collinear data.  The gap is the
    map's own, 0 where ``_pc_batch``'s tie rule makes PC Undefined, and so
    is the distance.
    """
    if gap == 0.0:
        return 0.0
    sigma = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return points.shape[0] * gap / (math.sqrt(2.0) * float(sigma[0] + sigma[1]))


def distance_to_singular(spec: DataMapSpec, x, refine: bool = False) -> tuple[float, str]:
    """(distance to the singular set, method tag).

    The distance is ``_singular_distance``, the gap over the divisor of the
    kind's row of ``datamaps._KINDS``, tagged as that row says; a kind whose
    row has no tag has no distance rule.  LS and DISK_DECISION have exact
    analytic projections.  PC and AUG_MEAN report surrogates with a
    two-sided constant bound, optionally refined:
    PC by its closed-form distance to the tie variety, from the gap its
    surrogate read, so 0 wherever PC is Undefined, AUG_MEAN by the
    wrapped arc distance to the nearest zero-resultant configuration that
    ``nearest_zero_resultant`` finds, the distance to a point of the set
    (inf when no start lands).  LAD reports the tie-gap surrogate.  The
    surrogate is computed on every path, so a refined call takes and
    refuses the inputs an unrefined one does.
    """
    if (tag := _KINDS[spec.kind].tag) is None:
        raise UnsupportedMapError(f"no distance rule for {spec.kind}")
    x = as_map_input(x)
    surrogate = float(_singular_distance(spec, x[None])[0])
    if refine and spec.kind is MapKind.PC_LINE:
        # the PC surrogate is gap / 2, so doubling it gives back the gap exactly
        return _pc_tie_distance(x, 2.0 * surrogate), DIST_REFINED
    if refine and spec.kind is MapKind.AUG_MEAN:
        return nearest_zero_resultant(x, spec)[0], DIST_REFINED
    return surrogate, tag


@dataclass(frozen=True)
class OscillationProfile:
    """Feature-space diameters of a map over shrinking balls around a point;
    the radii must be finite, positive and strictly decreasing."""

    radii: tuple[float, ...]
    diameters: tuple[float, ...]
    samples_per_radius: int
    seed: int

    def __post_init__(self):
        if len(self.radii) != len(self.diameters):
            raise ContractViolation("radii and diameters must have equal length")
        _decreasing_sizes(self.radii, "radii")

    @property
    def all_undefined(self) -> tuple[bool, ...]:
        """Per radius, whether every sample was Undefined (a NaN diameter)."""
        return tuple(math.isnan(d) for d in self.diameters)

    def to_dict(self) -> dict:
        return {**asdict(self), "all_undefined": list(self.all_undefined)}


def _sample_ball(rng, center_flat: np.ndarray, radius: float, k: int) -> np.ndarray:
    """k points uniform in the radius-ball of R^dim around center_flat."""
    dim = center_flat.size
    g = rng.standard_normal((k, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    u = rng.random(k) ** (1.0 / dim)
    return center_flat[None, :] + radius * (g * u[:, None])


# Sorted neighbours of each angle's antipode tried as its farthest partner:
# the two around it and one more on each side, against the antipode's
# rounding.
_ANTIPODE_WINDOW = np.arange(-2, 2)


def _value_distances(a: np.ndarray, b: np.ndarray, period: float | None) -> np.ndarray:
    """Feature-space distances between feature values, elementwise: the
    mod-period ``angle_distance`` for angles (arc length for circle points),
    the absolute difference for decisions and scalars."""
    if period is None:
        return np.abs(a - b)
    return angle_distance(a, b, period)


def batch_diameter(batch: BatchOutcome) -> float:
    """Feature-space diameter of the Defined rows of a batch, NaN if none.

    Angle features use the mod-period ``angle_distance``, which is arc
    length for circle points.  The angles are sorted mod the period, and
    each one's farthest partner is a sorted neighbour of its antipode, found
    by ``searchsorted``: O(k log k) for k rows.  Decisions and scalars take
    max - min.
    """
    values = batch.value[batch.defined]
    if values.size == 0:
        return math.nan
    period = batch.period
    if period is None:
        return float(values.max() - values.min())
    s = np.sort(values % period)
    j = np.searchsorted(s, (s + 0.5 * period) % period)
    return float(np.max(_value_distances(s[:, None], s[(j[:, None] + _ANTIPODE_WINDOW) % s.size], period)))


def oscillation(spec: DataMapSpec, x, radii, k_samples: int, seed: int) -> OscillationProfile:
    """Sampled feature-space diameter of the map over balls around x.

    Plane datasets are perturbed coordinate-wise in R^{2n}; circle datasets
    through per-point tangent angles; bare vectors in their own space.  The
    k samples of each radius go to the map as one batch.  A radius where
    every sample is Undefined records a NaN diameter.  The radii must be
    finite, positive and strictly decreasing, checked before the first draw.
    """
    radii = _decreasing_sizes(radii, "radii")
    k_samples = _count(k_samples, "k_samples", 16, ">= 16")
    rng = np.random.default_rng(seed)
    center = as_map_input(x)
    diameters = []
    for r in radii:
        samples = _sample_ball(rng, center.ravel(), r, k_samples).reshape(k_samples, *center.shape)
        diameters.append(batch_diameter(evaluate_batch(spec, samples)))
    return OscillationProfile(
        radii=radii,
        diameters=tuple(diameters),
        samples_per_radius=k_samples,
        seed=seed,
    )


SEVERE = "SEVERE"
NON_SEVERE = "NON_SEVERE"
UNDECIDED = "UNDECIDED"


def classify_severity(profile: OscillationProfile, mesh: float) -> str:
    """Classify against a uniform cover of F by balls of radius ``mesh``.

    SEVERE when the smallest-radius diameter is at least 2 * mesh (no cover
    ball can contain the local image); NON_SEVERE when the two smallest radii
    have diameters at most mesh / 2; UNDECIDED otherwise.

    The diameters are of sampled images, so each is a lower bound on the
    true oscillation.  SEVERE is therefore sound, but NON_SEVERE is a
    sampled verdict, not a certificate: the true diameter may be larger.
    The mesh must be finite and positive.
    """
    if len(profile.radii) < 3:
        raise ContractViolation("severity needs a profile with >= 3 radii")
    _positive_sizes([mesh], "mesh")
    d_small = profile.diameters[-1]
    if not math.isnan(d_small) and d_small >= 2.0 * mesh:
        return SEVERE
    d1, d2 = profile.diameters[-1], profile.diameters[-2]
    if not (math.isnan(d1) or math.isnan(d2)) and d1 <= mesh / 2 and d2 <= mesh / 2:
        return NON_SEVERE
    return UNDECIDED


def _grad_norms(batch_fn, nodes: np.ndarray, h) -> tuple[np.ndarray, np.ndarray]:
    """Operator norms (k,) of the finite-difference Jacobian of u -> feature
    at each node of a stack (k, dim), and whether each node's stencil was
    Defined, at step h: one for all nodes or one per node (k,).

    Central differences per coordinate, all 2 dim k stencil points in one
    batch; increments measured in the feature metric with the sign of the
    short way.  For a real- or angle-valued feature the operator norm is the
    Euclidean norm of the gradient.  A node whose stencil is not Defined
    gets a meaningless norm, for the caller to discard.
    """
    k, dim = nodes.shape
    e = np.asarray(h)[..., None, None] * np.eye(dim)
    stencil = np.concatenate([(nodes[:, None, :] + e).reshape(-1, dim),
                              (nodes[:, None, :] - e).reshape(-1, dim)])
    out = _batch_outcome(batch_fn(stencil))
    steps = out.value[:k * dim] - out.value[k * dim:]
    if out.period is not None:
        steps = wrap_increments(steps, out.period)
    norms = np.linalg.norm(steps.reshape(k, dim) / (2.0 * np.asarray(h)[..., None]), axis=1)
    return norms, out.defined.reshape(2, k, dim).all(axis=(0, 2))


def _segments(curve) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """The polyline's segments (a, b, |b - a|) of nonzero length, in order;
    its vertices must be the rows of a finite (m, d) array."""
    pts = _finite_array(curve, "curve", ("m", "d"))
    if len(pts) < 2:
        raise ContractViolation("curve needs at least 2 vertices")
    # math.fsum of squares, not np.linalg.norm, whose 1-D case is a BLAS dot
    segments = [(a, b, math.sqrt(math.fsum(np.square(b - a)))) for a, b in zip(pts, pts[1:])]
    segments = [(a, b, seg) for a, b, seg in segments if seg != 0.0]
    if not segments:
        raise ContractViolation("curve has zero length")
    return segments


def _length_weighted_mean(segments, values) -> float:
    """Each segment's length times its value, summed and divided by the
    total length."""
    return sum(seg * value for (_, _, seg), value in zip(segments, values)) / sum(seg for _, _, seg in segments)


def _arc_averages(outcome_fn, arcs, steps, nodes_per_segment: int = NODES_PER_SEGMENT) -> list[float | None]:
    """Composite midpoint quadrature of |D(feature)| along each arc, given
    as its segments, at its own finite-difference step.

    Each segment's nodes are nodes_per_segment equally spaced interior
    midpoints; the stencils of every node of every arc go to ``outcome_fn``
    in one ``_grad_norms`` call.  An arc's average is each segment's length
    times the mean of its nodes' norms, summed and divided by the arc's
    length, or None where a stencil was Undefined.
    """
    ts = (np.arange(nodes_per_segment) + 0.5) / nodes_per_segment
    nodes = np.concatenate([a + ts[:, None] * (b - a) for segments in arcs for a, b, _ in segments])
    sizes = [len(segments) * nodes_per_segment for segments in arcs]
    norms, defined = _grad_norms(outcome_fn, nodes, np.repeat(steps, sizes))
    bounds = np.cumsum(sizes)[:-1]
    averages = []
    for segments, n, ok in zip(arcs, np.split(norms, bounds), np.split(defined, bounds)):
        means = [float(np.mean(v)) for v in n.reshape(len(segments), -1)]
        averages.append(_length_weighted_mean(segments, means) if ok.all() else None)
    return averages


def average_derivative_along_curve(
    outcome_fn,
    curve,
    h_fd: float,
    nodes_per_segment: int = NODES_PER_SEGMENT,
) -> float:
    """Average operator norm of the derivative along a polyline.

    Composite midpoint quadrature: each segment contributes its length times
    the mean |D(feature)| over equally spaced interior midpoints, each from
    ``_grad_norms``.  ``outcome_fn`` maps stacked points (m, dim) to their
    BatchOutcome; the stencils of every node of the curve go to it as one
    batch.  It is the one-arc case of ``_arc_averages``, the quadrature
    ``derivative_blowup_profile`` runs on many arcs at once; h_fd must be
    finite and positive.
    """
    segments = _segments(curve)
    (average,) = _arc_averages(outcome_fn, [segments], _positive_sizes([h_fd], "h_fd"), nodes_per_segment)
    if average is None:
        raise CurveHitsSingularityError("finite-difference stencil hit the singular set")
    return average


def _average_distance(segments, x0: np.ndarray) -> float:
    """Length-weighted average of |y - x0| along an arc, given as its
    segments, each segment's from ``segment_average_norm``."""
    return _length_weighted_mean(segments, [segment_average_norm(a - x0, b - x0) for a, b, _ in segments])


def average_distance_to_point(curve, x0) -> float:
    """Length-weighted average of |y - x0| along a polyline:
    ``_average_distance`` of its segments, as ``derivative_blowup_profile``
    reads each of its arcs; x0 must be a finite point of the curve's
    dimension."""
    segments = _segments(curve)
    return _average_distance(segments, _finite_array(x0, "x0", segments[0][0].shape))


@dataclass(frozen=True)
class DerivativeProfile:
    """Average-derivative and average-distance statistics over shrinking arcs.

    Each eta gets an arc of two chords through the punctured eta-ball around
    the singular point; constant_c is the smallest observed ratio
    avg_distance / eta, so c * eta <= avg_distance <= eta entrywise.
    """

    etas: tuple[float, ...]
    avg_derivative: tuple[float, ...]
    avg_distance: tuple[float, ...]
    fitted_exponent: float
    constant_c: float
    flagged: tuple[bool, ...]


def derivative_blowup_profile(
    outcome_fn,
    singular_point,
    etas,
    seed: int = 0,
) -> DerivativeProfile:
    """Blow-up profile of the derivative near a singular point.

    For each eta the arc is a scaled copy of one seeded two-chord template
    (endpoints y1, y2 in the eta/2-ball chosen for large feature separation,
    then y3 in the outer half of the eta-ball), so the geometry is
    scale-invariant and the fitted log-log slope reflects the map alone.
    Entries whose arc construction keeps hitting the singular set are
    flagged and excluded from the fit, which reads NaN unless two kept etas
    have distinct logs.

    ``outcome_fn`` maps stacked points (m, 2) to their BatchOutcome, such as
    ``slices.slice_map``.  The attempts run round by round over every eta
    still open: a round evaluates the y1, y2 candidates and y3 of all of
    them as one batch, then the finite-difference stencils of every arc it
    built as another, so a profile whose arcs all hold at the first attempt
    makes two calls.  A map's rows must not depend on their batch; then each
    eta sees the attempts, points and arithmetic of a profile of it alone,
    and its arc's average derivative is ``average_derivative_along_curve``'s
    at step H_FD_FACTOR eta: both run the one arc quadrature,
    ``_arc_averages``, here on every arc of a round at once.  Each arc is
    built once, as the segments that quadrature reads, and its average
    distance to the singular point is ``average_distance_to_point``'s, read
    off the same segments by ``_average_distance``.  The etas must be
    finite, positive and strictly decreasing, and the singular point a
    finite 2-vector.
    """
    x0 = _finite_array(singular_point, "singular_point", (2,))
    etas = _decreasing_sizes(etas, "etas")
    rng = np.random.default_rng(seed)
    # seeded template directions, shared across etas
    phi1 = rng.uniform(0.0, 2 * math.pi)
    phi3 = phi1 + rng.uniform(0.5, 1.2)
    candidate_phis = phi1 + np.linspace(0.3, 2 * math.pi - 0.3, 24)
    # rows of one eta's attempt: y1, the candidate y2, then y3
    scales = np.concatenate([[0.45], np.full(candidate_phis.size, 0.45), [0.9]])

    avg_d = [math.nan] * len(etas)
    avg_r = [math.nan] * len(etas)
    flagged = [True] * len(etas)
    pending = list(range(len(etas)))
    for attempt in range(MAX_JITTERS):
        if not pending:
            break
        phis = np.concatenate([[phi1], candidate_phis, [phi3]]) + 0.02 * attempt
        units = np.stack([np.cos(phis), np.sin(phis)], axis=1)
        ys = np.stack([x0 + (scales * etas[i])[:, None] * units for i in pending])
        out = _batch_outcome(outcome_fn(ys.reshape(-1, 2)))
        defined = out.defined.reshape(len(pending), -1)
        values = out.value.reshape(len(pending), -1)
        arcs = []  # (eta index, segments)
        for i, y, ok, value in zip(pending, ys, defined, values):
            candidates = ok[1:-1]
            if not (ok[0] and candidates.any() and ok[-1]):
                continue
            # the first candidate tied for farthest from y1 in the feature metric
            sep = np.where(candidates, _value_distances(value[1:-1], value[0], out.period), -np.inf)
            farthest = int(np.argmax(sep >= sep.max() - SEPARATION_TIE))
            arcs.append((i, _segments([y[0], y[1 + farthest], y[-1]])))
        if arcs:
            steps = [H_FD_FACTOR * etas[i] for i, _ in arcs]
            averages = _arc_averages(outcome_fn, [segments for _, segments in arcs], steps)
            for (i, segments), average in zip(arcs, averages):
                if average is not None:
                    avg_d[i] = average
                    avg_r[i] = _average_distance(segments, x0)
                    flagged[i] = False
        pending = [i for i in pending if flagged[i]]
    good = [i for i, f in enumerate(flagged) if not f]
    exponent = loglog_fit(np.log([etas[i] for i in good]), np.log([avg_d[i] for i in good]))
    c = math.nan if math.isnan(exponent) else float(min(avg_r[i] / etas[i] for i in good))
    return DerivativeProfile(
        etas=etas,
        avg_derivative=tuple(avg_d),
        avg_distance=tuple(avg_r),
        fitted_exponent=exponent,
        constant_c=c,
        flagged=tuple(flagged),
    )


def oscillator_arc(n: int):
    """The two-piece arc probing the radial oscillator at scale t_n.

    An upper semicircle of radius t_n (nudged off the branch kink) from
    (t_n, 0) to (-t_n, 0), then the radial segment inward to (-t_{n+1}, 0).
    The radial piece is split at log-spaced radii: |g'| ~ 1/(t |log(t/e)|)
    concentrates its mass logarithmically toward the inner radius, which
    equally spaced quadrature nodes would miss badly.
    """
    t_n = oscillator_t(n) * (1.0 - ARC_NUDGE)
    t_n1 = oscillator_t(n + 1) * (1.0 + ARC_NUDGE)
    angles = np.linspace(0.0, math.pi, ARC_SEGMENTS + 1)
    pts = [np.array([t_n * math.cos(a), t_n * math.sin(a)]) for a in angles]
    for r in np.geomspace(t_n, t_n1, RADIAL_SEGMENTS + 1)[1:]:
        pts.append(np.array([-r, 0.0]))
    return pts
