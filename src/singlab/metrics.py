"""Quantitative proximity and severity of singularities.

Distance to the singular set (exact where an analytic projection exists,
tagged surrogates elsewhere), local oscillation profiles, a cover-based
severity classifier, and derivative blow-up profiles along arcs shrinking
into a singular point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from singlab.datamaps import (
    BatchMap,
    BatchOutcome,
    DataMapSpec,
    MapKind,
    _pc_moments,
    _pointwise,
    as_map_input,
    aug_mean_resultant,
    evaluate_batch,
)
from singlab.geometry import ContractViolation, angle_distance, segment_average_norm, wrap_increments


class UnsupportedMapError(ContractViolation):
    """The map kind has no distance rule."""


class CurveHitsSingularityError(RuntimeError):
    """A quadrature or finite-difference node evaluated Undefined."""


DIST_EXACT = "EXACT"
DIST_SURROGATE = "SURROGATE"
DIST_REFINED = "REFINED"

# Map kind -> (batched distance to the singular set, method tag), each the
# map's gap over a constant.  Inputs are stacked as evaluate_batch takes
# them.  LS and DISK_DECISION are exact; PC reports (lambda1 - lambda2) / 2,
# AUG_MEAN |rho| / sum(w) and LAD the objective tie gap, each within
# constants of the true distance.
SINGULAR_DISTANCE = {
    MapKind.LS_LINE: (lambda batch, spec: evaluate_batch(spec, batch).gap, DIST_EXACT),
    MapKind.PC_LINE: (lambda batch, spec: evaluate_batch(spec, batch).gap / 2.0, DIST_SURROGATE),
    MapKind.LAD_LINE: (lambda batch, spec: evaluate_batch(spec, batch).gap, DIST_SURROGATE),
    MapKind.AUG_MEAN: (
        lambda batch, spec: evaluate_batch(spec, batch).gap / float(np.sum(spec.weights)),
        DIST_SURROGATE,
    ),
    MapKind.DISK_DECISION: (lambda batch, spec: evaluate_batch(spec, batch).gap, DIST_EXACT),
}

_PENALTY_LADDER = (1e2, 1e4, 1e6, 1e8, 1e10)

# Derivative blow-up profiles: finite-difference step as a share of eta,
# and arc-template shifts tried per eta before the entry is flagged.
H_FD_FACTOR = 1e-5
MAX_JITTERS = 8

# Oscillator arcs: chords of the semicircle, log-spaced radial pieces, and
# the relative nudge that keeps both ends off the branch kinks.
ARC_SEGMENTS = 96
RADIAL_SEGMENTS = 64
ARC_NUDGE = 1e-9


def penalty_projection(x0, starts, residual) -> float:
    """Distance from x0 to the zero set of ``residual`` by penalty continuation.

    ``residual`` maps x to (r, J).  From each start, BFGS minimizes
    |x - x0|^2 + mu |r(x)|^2 with the analytic gradient 2 (x - x0) +
    2 mu J^T r over an increasing penalty ladder, warm-starting each stage
    (the quadratic-penalty method, Nocedal & Wright, Numerical Optimization,
    2nd ed., 17.1).  A run lands when |r| <= 1e-9 (1 + |J|^2); the smallest
    landed |x - x0| is returned, or inf when no start lands.
    """
    x0 = np.asarray(x0, dtype=float)

    def value_and_grad(x, mu):
        r, jac = residual(x)
        d = x - x0
        return float(d @ d + mu * (r @ r)), 2.0 * d + 2.0 * mu * (r @ jac)

    best = math.inf
    for x in starts:
        for mu in _PENALTY_LADDER:
            x = minimize(value_and_grad, x, args=(mu,), method="BFGS", jac=True,
                         options={"gtol": 1e-12, "maxiter": 800}).x
        r, jac = residual(x)
        if np.linalg.norm(r) <= 1e-9 * (1.0 + np.sum(jac * jac)):
            best = min(best, float(np.linalg.norm(x - x0)))
    return best


def symmetric_start_pair(x: np.ndarray) -> list[np.ndarray]:
    """Starts x + o and x - o with o_i = 1e-3 (i - (n - 1) / 2).

    Equal coordinates are a symmetry saddle of the AUG_MEAN penalty flow;
    the opposite asymmetric nudges let a run leave it either way.
    """
    offsets = 1e-3 * (np.arange(x.size) - 0.5 * (x.size - 1))
    return [x + offsets, x - offsets]


def _pc_tie_distance(points: np.ndarray) -> float:
    """Exact distance of one plane dataset (n, 2) to the PC eigenvalue ties.

    Ties are the datasets whose centered points Q (n x 2) have orthogonal
    columns of equal norm.  The nearest such Q is s U V^T with s = (sigma1 +
    sigma2) / 2, from the SVD Q = U S V^T (Eckart & Young 1936, Psychometrika
    1; Higham 1986, SIAM J. Sci. Stat. Comput. 7), and the mean is free, so
    the distance is (sigma1 - sigma2) / sqrt(2).  With sigma1^2 - sigma2^2 =
    n gap that is n gap / (sqrt(2) (sigma1 + sigma2)), free of cancellation:
    the singular values come from the SVD of Q, not from the eigenvalues,
    whose smaller one cancels on nearly collinear data.
    """
    gap = float(_pc_moments(points[None])[2][0])
    if gap == 0.0:
        return 0.0
    sigma = np.linalg.svd(points - points.mean(axis=0), compute_uv=False)
    return points.shape[0] * gap / (math.sqrt(2.0) * float(sigma[0] + sigma[1]))


def distance_to_singular(spec: DataMapSpec, x, refine: bool = False) -> tuple[float, str]:
    """(distance to the singular set, method tag).

    LS and DISK_DECISION have exact analytic projections.  PC and AUG_MEAN
    report surrogates with a two-sided constant bound, optionally refined:
    PC by its closed-form distance to the tie variety, AUG_MEAN by
    projecting onto the zero-resultant variety.  LAD reports the tie-gap
    surrogate.
    """
    kind = spec.kind
    if kind not in SINGULAR_DISTANCE:
        raise UnsupportedMapError(f"no distance rule for {kind}")
    if refine and kind is MapKind.PC_LINE:
        return _pc_tie_distance(x.points), DIST_REFINED
    if refine and kind is MapKind.AUG_MEAN:
        # arc-metric distance: project the angles
        phi0 = x.angles
        residual = lambda phi: aug_mean_resultant(phi, spec)
        dist = penalty_projection(phi0, [phi0], residual)
        if not math.isfinite(dist):
            # the single start sat on the symmetry saddle: retry off it
            dist = penalty_projection(phi0, symmetric_start_pair(phi0), residual)
        return dist, DIST_REFINED
    distance, tag = SINGULAR_DISTANCE[kind]
    return float(distance(as_map_input(x)[None], spec)[0]), tag


@dataclass(frozen=True)
class OscillationProfile:
    """Feature-space diameters of a map over shrinking balls around a point."""

    radii: tuple[float, ...]
    diameters: tuple[float, ...]
    samples_per_radius: int
    seed: int

    def __post_init__(self):
        if len(self.radii) != len(self.diameters):
            raise ContractViolation("radii and diameters must have equal length")
        if not all(r1 > r2 for r1, r2 in zip(self.radii, self.radii[1:])):
            raise ContractViolation("radii must be strictly decreasing")

    @property
    def all_undefined(self) -> tuple[bool, ...]:
        """Per radius, whether every sample was Undefined (a NaN diameter)."""
        return tuple(math.isnan(d) for d in self.diameters)

    def to_dict(self) -> dict:
        return {
            "radii": list(self.radii),
            "diameters": list(self.diameters),
            "samples_per_radius": self.samples_per_radius,
            "seed": self.seed,
            "all_undefined": list(self.all_undefined),
        }


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
    every sample is Undefined records a NaN diameter.
    """
    radii = tuple(float(r) for r in radii)
    if k_samples < 16:
        raise ContractViolation("k_samples must be >= 16")
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
    """
    if len(profile.radii) < 3:
        raise ContractViolation("severity needs a profile with >= 3 radii")
    if mesh <= 0:
        raise ContractViolation("mesh must be positive")
    d_small = profile.diameters[-1]
    if not math.isnan(d_small) and d_small >= 2.0 * mesh:
        return SEVERE
    d1, d2 = profile.diameters[-1], profile.diameters[-2]
    if not (math.isnan(d1) or math.isnan(d2)) and d1 <= mesh / 2 and d2 <= mesh / 2:
        return NON_SEVERE
    return UNDECIDED


def _grad_norms(batch_fn: BatchMap, nodes: np.ndarray, h: float) -> np.ndarray:
    """Operator norms of the finite-difference Jacobian of u -> feature at
    each node of a stack (k, dim).

    Central differences per coordinate, all 2 dim k stencil points in one
    batch; increments measured in the feature metric with the sign of the
    short way.  For a real- or angle-valued feature the operator norm is the
    Euclidean norm of the gradient.
    """
    k, dim = nodes.shape
    e = h * np.eye(dim)
    stencil = np.concatenate([(nodes[:, None, :] + e).reshape(-1, dim),
                              (nodes[:, None, :] - e).reshape(-1, dim)])
    out = batch_fn(stencil)
    if not out.defined.all():
        raise CurveHitsSingularityError("finite-difference stencil hit the singular set")
    steps = out.value[:k * dim] - out.value[k * dim:]
    if out.period is not None:
        steps = wrap_increments(steps, out.period)
    return np.linalg.norm(steps.reshape(k, dim) / (2.0 * h), axis=1)


def average_derivative_along_curve(
    outcome_fn,
    curve,
    h_fd: float,
    nodes_per_segment: int = 8,
) -> float:
    """Average operator norm of the derivative along a polyline.

    Composite midpoint quadrature: each segment contributes its length times
    the mean |D(feature)| over equally spaced interior midpoints.
    ``outcome_fn`` is a BatchMap over stacked points (m, dim), or a callable
    mapping one point to an EvalOutcome; the stencils of every node of the
    curve go to it as one batch.
    """
    pts = [np.asarray(p, dtype=float) for p in curve]
    if len(pts) < 2:
        raise ContractViolation("curve needs at least 2 vertices")
    if h_fd <= 0:
        raise ContractViolation("h_fd must be positive")
    segments = [(a, b, float(np.linalg.norm(b - a))) for a, b in zip(pts, pts[1:])]
    segments = [(a, b, seg) for a, b, seg in segments if seg != 0.0]
    if not segments:
        raise ContractViolation("curve has zero length")
    ts = (np.arange(nodes_per_segment) + 0.5) / nodes_per_segment
    nodes = np.concatenate([a + ts[:, None] * (b - a) for a, b, _ in segments])
    norms = _grad_norms(_pointwise(outcome_fn), nodes, h_fd).reshape(len(segments), nodes_per_segment)
    total_len = 0.0
    total_int = 0.0
    for (_, _, seg), vals in zip(segments, norms):
        total_len += seg
        total_int += seg * float(np.mean(vals))
    return total_int / total_len


def average_distance_to_point(curve, x0) -> float:
    """Length-weighted average of |y - x0| along a polyline, by quadrature."""
    x0 = np.asarray(x0, dtype=float)
    pts = [np.asarray(p, dtype=float) for p in curve]
    total_len = 0.0
    total_int = 0.0
    for a, b in zip(pts, pts[1:]):
        seg = float(np.linalg.norm(b - a))
        if seg == 0.0:
            continue
        total_len += seg
        total_int += seg * segment_average_norm(a - x0, b - x0)
    return total_int / total_len


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

    def to_dict(self) -> dict:
        return {
            "etas": list(self.etas),
            "avg_derivative": list(self.avg_derivative),
            "avg_distance": list(self.avg_distance),
            "fitted_exponent": self.fitted_exponent,
            "constant_c": self.constant_c,
            "flagged": list(self.flagged),
        }


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
    flagged and excluded from the fit.

    ``outcome_fn`` is a BatchMap over stacked points (m, 2), such as
    ``slices.slice_map``, or a callable mapping one point to an EvalOutcome
    (called point by point, so slower).  Each attempt evaluates its y1, y2
    candidates and y3 as one batch, and each arc its stencils as another.
    """
    x0 = np.asarray(singular_point, dtype=float)
    etas = tuple(float(e) for e in etas)
    if not all(a > b for a, b in zip(etas, etas[1:])):
        raise ContractViolation("etas must be strictly decreasing")
    fn = _pointwise(outcome_fn)
    rng = np.random.default_rng(seed)
    # seeded template directions, shared across etas
    phi1 = rng.uniform(0.0, 2 * math.pi)
    phi3 = phi1 + rng.uniform(0.5, 1.2)
    candidate_phis = phi1 + np.linspace(0.3, 2 * math.pi - 0.3, 24)
    # rows of one attempt's batch: y1, the candidate y2, then y3
    scales = np.concatenate([[0.45], np.full(candidate_phis.size, 0.45), [0.9]])

    avg_d = []
    avg_r = []
    flagged = []
    for eta in etas:
        ok = False
        for attempt in range(MAX_JITTERS):
            shift = 0.02 * attempt
            phis = np.concatenate([[phi1], candidate_phis, [phi3]]) + shift
            ys = x0 + (scales * eta)[:, None] * np.stack([np.cos(phis), np.sin(phis)], axis=1)
            out = fn(ys)
            candidates = out.defined[1:-1]
            if not (out.defined[0] and candidates.any() and out.defined[-1]):
                continue
            # the first candidate farthest from y1 in the feature metric
            sep = np.where(candidates, _value_distances(out.value[1:-1], out.value[0], out.period), -np.inf)
            curve = [ys[0], ys[1 + int(np.argmax(sep))], ys[-1]]
            try:
                d = average_derivative_along_curve(fn, curve, h_fd=H_FD_FACTOR * eta)
            except CurveHitsSingularityError:
                continue
            avg_d.append(d)
            avg_r.append(average_distance_to_point(curve, x0))
            flagged.append(False)
            ok = True
            break
        if not ok:
            avg_d.append(math.nan)
            avg_r.append(math.nan)
            flagged.append(True)
    good = [i for i, f in enumerate(flagged) if not f]
    if len(good) >= 2:
        logs = np.log([etas[i] for i in good])
        logd = np.log([avg_d[i] for i in good])
        exponent = float(np.polyfit(logs, logd, 1)[0])
        c = float(min(avg_r[i] / etas[i] for i in good))
    else:
        exponent = math.nan
        c = math.nan
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
    from singlab.datamaps import oscillator_t

    t_n = oscillator_t(n) * (1.0 - ARC_NUDGE)
    t_n1 = oscillator_t(n + 1) * (1.0 + ARC_NUDGE)
    angles = np.linspace(0.0, math.pi, ARC_SEGMENTS + 1)
    pts = [np.array([t_n * math.cos(a), t_n * math.sin(a)]) for a in angles]
    for r in np.geomspace(t_n, t_n1, RADIAL_SEGMENTS + 1)[1:]:
        pts.append(np.array([-r, 0.0]))
    return pts
