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
    DataMapSpec,
    MapKind,
    aug_mean_gap_batch,
    aug_mean_resultant,
    evaluate,
    lad_gap_batch,
    ls_gap_batch,
    pc_gap_batch,
)
from singlab.geometry import (
    CircleDataset,
    ContractViolation,
    Feature,
    PlaneDataset,
    ScalarValue,
    feature_distance,
    segment_average_norm,
)
from singlab.topology import _angle_of, _wrap_increment


class UnsupportedMapError(ContractViolation):
    """The map kind has no distance rule."""


class CurveHitsSingularityError(RuntimeError):
    """A quadrature or finite-difference node evaluated Undefined."""


DIST_EXACT = "EXACT"
DIST_SURROGATE = "SURROGATE"
DIST_REFINED = "REFINED"

# Map kind -> (batched distance to the singular set, method tag).  Plane
# fitters take point batches (m, n, 2), AUG_MEAN takes angle batches (m, n).
# LS is exact; PC reports (lambda1 - lambda2) / 2, AUG_MEAN |rho| / sum(w)
# and LAD the objective tie gap, each within constants of the true distance.
SINGULAR_DISTANCE = {
    MapKind.LS_LINE: (lambda pts, spec: ls_gap_batch(pts), DIST_EXACT),
    MapKind.PC_LINE: (lambda pts, spec: pc_gap_batch(pts) / 2.0, DIST_SURROGATE),
    MapKind.LAD_LINE: (lambda pts, spec: lad_gap_batch(pts), DIST_SURROGATE),
    MapKind.AUG_MEAN: (
        lambda angles, spec: aug_mean_gap_batch(angles, spec) / float(np.sum(spec.weights)),
        DIST_SURROGATE,
    ),
}

_PENALTY_LADDER = (1e2, 1e4, 1e6, 1e8, 1e10)


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


def _pc_tie_residual(n: int):
    """Eigenvalue-tie coordinates (a, b) = ((Cxx - Cyy) / 2, Cxy) of flattened
    points, with their Jacobian; they vanish exactly on the tie variety."""

    def residual(flat):
        q = flat.reshape(n, 2)
        q = q - q.mean(axis=0)
        r = np.array([0.5 * (q[:, 0] @ q[:, 0] - q[:, 1] @ q[:, 1]), q[:, 0] @ q[:, 1]]) / n
        # d a / d p_j = (q_jx, -q_jy) / n, d b / d p_j = (q_jy, q_jx) / n
        jac = np.stack([np.column_stack([q[:, 0], -q[:, 1]]).ravel(),
                        np.column_stack([q[:, 1], q[:, 0]]).ravel()]) / n
        return r, jac

    return residual


def distance_to_singular(spec: DataMapSpec, x, refine: bool = False) -> tuple[float, str]:
    """(distance to the singular set, method tag).

    LS and DISK_DECISION have exact analytic projections.  PC and AUG_MEAN
    report surrogates with a two-sided constant bound, optionally refined by
    projecting onto the singular variety.  LAD reports the tie-gap surrogate.
    """
    kind = spec.kind
    if kind is MapKind.DISK_DECISION:
        d = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(spec.center)))
        return abs(d - spec.radius), DIST_EXACT
    if kind not in SINGULAR_DISTANCE:
        raise UnsupportedMapError(f"no distance rule for {kind}")
    if refine and kind is MapKind.PC_LINE:
        # Symmetric configurations make the unperturbed start a saddle of the
        # penalty flow, so add a few deterministic symmetry-breaking starts.
        x0 = x.points.ravel()
        rng = np.random.default_rng(12345)
        scale = 0.05 * (1.0 + float(np.linalg.norm(x0)))
        starts = [x0] + [x0 + scale * rng.standard_normal(x0.size) for _ in range(3)]
        return penalty_projection(x0, starts, _pc_tie_residual(x.n)), DIST_REFINED
    if refine and kind is MapKind.AUG_MEAN:
        # arc-metric distance: project the angles
        phi0 = x.angles
        return penalty_projection(phi0, [phi0], lambda phi: aug_mean_resultant(phi, spec)), DIST_REFINED
    distance, tag = SINGULAR_DISTANCE[kind]
    batch = x.angles if isinstance(x, CircleDataset) else x.points
    return float(distance(batch[None], spec)[0]), tag


@dataclass(frozen=True)
class OscillationProfile:
    """Feature-space diameters of a map over shrinking balls around a point."""

    radii: tuple[float, ...]
    diameters: tuple[float, ...]
    samples_per_radius: int
    seed: int
    all_undefined: tuple[bool, ...] = None

    def __post_init__(self):
        if len(self.radii) != len(self.diameters):
            raise ContractViolation("radii and diameters must have equal length")
        if not all(r1 > r2 for r1, r2 in zip(self.radii, self.radii[1:])):
            raise ContractViolation("radii must be strictly decreasing")
        if self.all_undefined is None:
            object.__setattr__(self, "all_undefined", tuple(False for _ in self.radii))

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


def _feature_diameter(features: list[Feature]) -> float:
    best = 0.0
    for i in range(len(features)):
        for j in range(i + 1, len(features)):
            best = max(best, feature_distance(features[i], features[j]))
    return best


def oscillation(spec: DataMapSpec, x, radii, k_samples: int, seed: int) -> OscillationProfile:
    """Sampled feature-space diameter of the map over balls around x.

    Plane datasets are perturbed coordinate-wise in R^{2n}; circle datasets
    through per-point tangent angles; bare vectors in their own space.  A
    radius where every sample is Undefined records a NaN diameter.
    """
    radii = tuple(float(r) for r in radii)
    if k_samples < 16:
        raise ContractViolation("k_samples must be >= 16")
    rng = np.random.default_rng(seed)
    diameters = []
    flags = []
    for r in radii:
        if isinstance(x, PlaneDataset):
            flat = x.points.ravel()
            samples = _sample_ball(rng, flat, r, k_samples)
            inputs = [PlaneDataset(s.reshape(-1, 2)) for s in samples]
        elif isinstance(x, CircleDataset):
            t = _sample_ball(rng, np.zeros(x.n), r, k_samples)
            inputs = []
            for row in t:
                ang = x.angles + row
                inputs.append(CircleDataset(np.stack([np.cos(ang), np.sin(ang)], axis=1)))
        else:
            flat = np.asarray(x, dtype=float)
            samples = _sample_ball(rng, flat, r, k_samples)
            inputs = list(samples)
        feats = []
        for inp in inputs:
            out = evaluate(spec, inp)
            if out.defined:
                feats.append(out.feature)
        if not feats:
            diameters.append(math.nan)
            flags.append(True)
        else:
            diameters.append(_feature_diameter(feats))
            flags.append(False)
    return OscillationProfile(
        radii=radii,
        diameters=tuple(diameters),
        samples_per_radius=k_samples,
        seed=seed,
        all_undefined=tuple(flags),
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


def _signed_feature_step(f_plus: Feature, f_minus: Feature) -> float:
    """Signed short-way increment between two features of the same variant."""
    if isinstance(f_plus, ScalarValue):
        return f_plus.value - f_minus.value
    a, period = _angle_of(f_plus)
    b, _ = _angle_of(f_minus)
    return _wrap_increment(a - b, period)


def _grad_norm(outcome_fn, u: np.ndarray, h: float) -> float:
    """Operator norm of the finite-difference Jacobian of u -> feature.

    Central differences per coordinate; increments measured in the feature
    metric with the sign of the short way.  For a real- or angle-valued
    feature the operator norm is the Euclidean norm of the gradient.
    """
    grads = []
    for axis in range(u.size):
        e = np.zeros(u.size)
        e[axis] = h
        out_p = outcome_fn(u + e)
        out_m = outcome_fn(u - e)
        if not (out_p.defined and out_m.defined):
            raise CurveHitsSingularityError("finite-difference stencil hit the singular set")
        grads.append(_signed_feature_step(out_p.feature, out_m.feature) / (2.0 * h))
    return float(np.linalg.norm(grads))


def average_derivative_along_curve(
    outcome_fn,
    curve,
    h_fd: float,
    nodes_per_segment: int = 8,
) -> float:
    """Average operator norm of the derivative along a polyline.

    Composite midpoint quadrature: each segment contributes its length times
    the mean |D(feature)| over equally spaced interior midpoints.
    """
    pts = [np.asarray(p, dtype=float) for p in curve]
    if len(pts) < 2:
        raise ContractViolation("curve needs at least 2 vertices")
    if h_fd <= 0:
        raise ContractViolation("h_fd must be positive")
    total_len = 0.0
    total_int = 0.0
    for a, b in zip(pts, pts[1:]):
        seg = float(np.linalg.norm(b - a))
        if seg == 0.0:
            continue
        ts = (np.arange(nodes_per_segment) + 0.5) / nodes_per_segment
        vals = [_grad_norm(outcome_fn, a + t * (b - a), h_fd) for t in ts]
        total_len += seg
        total_int += seg * float(np.mean(vals))
    if total_len == 0.0:
        raise ContractViolation("curve has zero length")
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
    h_fd_factor: float = 1e-5,
    max_jitters: int = 8,
) -> DerivativeProfile:
    """Blow-up profile of the derivative near a singular point.

    For each eta the arc is a scaled copy of one seeded two-chord template
    (endpoints y1, y2 in the eta/2-ball chosen for large feature separation,
    then y3 in the outer half of the eta-ball), so the geometry is
    scale-invariant and the fitted log-log slope reflects the map alone.
    Entries whose arc construction keeps hitting the singular set are
    flagged and excluded from the fit.
    """
    x0 = np.asarray(singular_point, dtype=float)
    etas = tuple(float(e) for e in etas)
    if not all(a > b for a, b in zip(etas, etas[1:])):
        raise ContractViolation("etas must be strictly decreasing")
    rng = np.random.default_rng(seed)
    # seeded template directions, shared across etas
    phi1 = rng.uniform(0.0, 2 * math.pi)
    phi3 = phi1 + rng.uniform(0.5, 1.2)
    candidate_phis = phi1 + np.linspace(0.3, 2 * math.pi - 0.3, 24)

    avg_d = []
    avg_r = []
    flagged = []
    for eta in etas:
        ok = False
        for attempt in range(max_jitters):
            shift = 0.02 * attempt
            y1 = x0 + 0.45 * eta * np.array([math.cos(phi1 + shift), math.sin(phi1 + shift)])
            out1 = outcome_fn(y1)
            if not out1.defined:
                continue
            best = None
            for phi in candidate_phis + shift:
                y2 = x0 + 0.45 * eta * np.array([math.cos(phi), math.sin(phi)])
                out2 = outcome_fn(y2)
                if not out2.defined:
                    continue
                sep = feature_distance(out1.feature, out2.feature)
                if best is None or sep > best[0]:
                    best = (sep, y2)
            if best is None:
                continue
            y3 = x0 + 0.9 * eta * np.array([math.cos(phi3 + shift), math.sin(phi3 + shift)])
            if not outcome_fn(y3).defined:
                continue
            curve = [y1, best[1], y3]
            try:
                d = average_derivative_along_curve(outcome_fn, curve, h_fd=h_fd_factor * eta)
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


def oscillator_arc(n: int, arc_segments: int = 96, radial_segments: int = 64, nudge: float = 1e-9):
    """The two-piece arc probing the radial oscillator at scale t_n.

    An upper semicircle of radius t_n (nudged off the branch kink) from
    (t_n, 0) to (-t_n, 0), then the radial segment inward to (-t_{n+1}, 0).
    The radial piece is split at log-spaced radii: |g'| ~ 1/(t |log(t/e)|)
    concentrates its mass logarithmically toward the inner radius, which
    equally spaced quadrature nodes would miss badly.
    """
    from singlab.datamaps import oscillator_t

    t_n = oscillator_t(n) * (1.0 - nudge)
    t_n1 = oscillator_t(n + 1) * (1.0 + nudge)
    angles = np.linspace(0.0, math.pi, arc_segments + 1)
    pts = [np.array([t_n * math.cos(a), t_n * math.sin(a)]) for a in angles]
    for r in np.geomspace(t_n, t_n1, radial_segments + 1)[1:]:
        pts.append(np.array([-r, 0.0]))
    return pts
