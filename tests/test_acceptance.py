"""Acceptance criteria, one test per criterion.

Each test prints a PASS/FAIL line (plus clause detail where a criterion has
several parts) and then asserts.  Tolerances are the contract values, fixed
here and nowhere else.
"""

import math
import time

import numpy as np

from singlab.datamaps import (
    DataMapSpec,
    MapKind,
    evaluate_batch,
    evaluate_with_standard_batch,
    oscillator_g_prime_abs,
    oscillator_t,
    standard_batch,
)
from singlab.geometry import angle_distance, omega_s, segment_average_norm
from singlab.measure import (
    box_count_dimension,
    circle_cell_membership,
    circle_distance_fn,
    distance_cdf,
    greedy_net,
    point_distance_fn,
    segment_distance_fn,
    tube_volume,
)
from singlab.metrics import (
    average_derivative_along_curve,
    derivative_blowup_profile,
    oscillator_arc,
)
from singlab.slices import boundary_loop
from singlab.topology import Loop, localize_singularities, winding_number

from oracles import SLICE, exact_cover_and_packing, fitter_on_slice, half_angle_map

CDF_SEED = 20260810
TUBE_SEED = 7


def report(num: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {num} {status}: {label}")
    for line in failures:
        print(f"  - {line}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_1_codim_tail_law():
    t0 = time.time()
    failures = []
    targets = {
        MapKind.LS_LINE: (3.0, 0.5),
        MapKind.PC_LINE: (2.0, 0.3),
        MapKind.LAD_LINE: (1.0, 0.3),
    }
    for kind, (target, tol) in targets.items():
        rep = distance_cdf(DataMapSpec(kind=kind), 4, 10**5, CDF_SEED)
        print(f"  {kind.value}: exponent {rep.exponent:.3f} (target {target} +- {tol})")
        if abs(rep.exponent - target) > tol:
            failures.append(f"{kind.value} exponent {rep.exponent:.3f} outside {target} +- {tol}")
    elapsed = time.time() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2 min")
    report(1, "codim tail law (LS cubic, PC quadratic, LAD linear)", failures)


def test_criterion_2_degree_obstruction():
    t0 = time.time()
    failures = []
    # standard features on the exact boundary
    deg = winding_number(boundary_loop(SLICE, 512), standard_batch).degree
    print(f"  Sigma boundary winding: {deg}")
    if deg != 2:
        failures.append(f"Sigma winding {deg} != 2")
    # fitters on the 1 - 1e-3 shrunk boundary
    shrink = 1.0 - 1e-3
    shrunk = Loop(
        tuple(
            shrink * np.array([math.cos(t), math.sin(t)])
            for t in np.linspace(0, 2 * math.pi, 512, endpoint=False)
        )
    )
    for kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE):
        rep = winding_number(shrunk, fitter_on_slice(kind))
        print(f"  {kind.value} shrunk-boundary winding: {rep.degree} (min_gap {rep.min_gap:.2e})")
        if rep.degree != 2:
            failures.append(f"{kind.value} winding {rep.degree} != 2")
    # localizer: at least one certified box per fitter, PC box at the center
    for kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE):
        boxes = localize_singularities(fitter_on_slice(kind), (0.0, 0.0), 0.9, 1e-3)
        certified = [b for b in boxes if b.status == "certified"]
        print(f"  {kind.value} localizer: {len(certified)} certified / {len(boxes)} boxes")
        if not certified:
            failures.append(
                f"{kind.value}: no certified box (see README's \"Known red\" section and CHANGES.md: "
                "the degree certificate cannot localize this fitter's singular structure)"
            )
        if kind is MapKind.PC_LINE and certified:
            nearest = min(np.linalg.norm(b.center) for b in certified)
            print(f"  PC nearest certified box center at |u| = {nearest:.2e}")
            if nearest > 1e-2:
                failures.append(f"PC box center {nearest:.3e} from origin > 1e-2")
    elapsed = time.time() - t0
    print(f"  runtime {elapsed:.1f}s")
    if elapsed > 30:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30 s")
    report(2, "degree obstruction and localization on the standard slice", failures)


def test_criterion_3_tube_scaling():
    t0 = time.time()
    failures = []
    deltas = np.geomspace(1e-3, 1e-1, 9)
    fixtures = [
        ("point", point_distance_fn((0.5, 0.5)), 2.0, lambda d: 0.5 * math.pi * d**2),
        ("segment", segment_distance_fn((0.25, 0.5), (0.75, 0.5)), 1.0, lambda d: 0.5 * 2.0 * d * 0.5),
        ("circle", circle_distance_fn((0.5, 0.5), 0.2), 1.0, lambda d: 0.5 * 2.0 * d * 2 * math.pi * 0.2),
    ]
    for name, fn, codim, bound in fixtures:
        rep = tube_volume(fn, (0, 0), (1, 1), deltas, 10**5, TUBE_SEED)
        print(f"  {name}: fitted codim {rep.fitted_codim:.3f} (target {codim} +- 0.1)")
        if abs(rep.fitted_codim - codim) > 0.1:
            failures.append(f"{name} codim {rep.fitted_codim:.3f} outside {codim} +- 0.1")
        for d, v in zip(rep.deltas, rep.volumes):
            if v < bound(d):
                failures.append(f"{name} volume {v:.3e} below lower bound at delta {d:.3e}")
    elapsed = time.time() - t0
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1 min")
    report(3, "tube-volume scaling with lower bounds", failures)


def test_criterion_4_zero_dimensional_p_law():
    failures = []
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
        ratio = est.measure_at_dim / (2 * math.pi * radius)
        print(f"  R={radius}: H^1 surrogate {est.measure_at_dim:.3f} = {ratio:.3f} * 2 pi R")
        if not (0.5 <= ratio <= 2.0):
            failures.append(f"R={radius}: estimate {est.measure_at_dim:.3f} not within factor 2 of 2 pi R")
    s1 = (estimates[0.2] - estimates[0.1]) / 0.1
    s2 = (estimates[0.4] - estimates[0.2]) / 0.2
    err = abs(s2 / s1 - 1.0)
    print(f"  slope-ratio error {err:.3f}")
    if err > 0.10:
        failures.append(f"slope-ratio error {err:.3f} > 0.10")
    report(4, "H^1 of the decision circle scales like 2 pi R", failures)


def test_criterion_5_derivative_blowup():
    failures = []
    etas = np.geomspace(1e-1, 1e-3, 7)

    prof = derivative_blowup_profile(half_angle_map(), (0, 0), etas, seed=3)
    print(f"  synthetic exponent {prof.fitted_exponent:.4f} (target -1 +- 0.05)")
    if abs(prof.fitted_exponent + 1.0) > 0.05:
        failures.append(f"synthetic exponent {prof.fitted_exponent:.4f}")
    pc_prof = derivative_blowup_profile(fitter_on_slice(MapKind.PC_LINE), (0, 0), etas, seed=3)
    print(f"  PC-at-center exponent {pc_prof.fitted_exponent:.4f} (target [-1.2, -0.8])")
    if not (-1.2 <= pc_prof.fitted_exponent <= -0.8):
        failures.append(f"PC exponent {pc_prof.fitted_exponent:.4f}")
    for profile, name in ((prof, "synthetic"), (pc_prof, "PC")):
        for eta, dist, flag in zip(profile.etas, profile.avg_distance, profile.flagged):
            if flag:
                failures.append(f"{name}: arc construction flagged at eta {eta:.3e}")
            elif not (profile.constant_c * eta <= dist + 1e-12 and dist <= eta + 1e-12):
                failures.append(f"{name}: distance bracket fails at eta {eta:.3e}")
    # radial oscillator at eta = t_n
    osc = lambda us: evaluate_batch(DataMapSpec(kind=MapKind.RADIAL_OSCILLATOR), us)
    for n in (0, 1, 2):
        t_n = oscillator_t(n)
        arc = oscillator_arc(n)
        v = average_derivative_along_curve(osc, arc, h_fd=1e-7 * t_n, nodes_per_segment=12)
        factor = max(v * t_n, 1.0 / (v * t_n))
        print(f"  oscillator n={n}: avg derivative {v:.4g}, 1/t_n {1/t_n:.4g}, factor {factor:.2f}")
        if factor > 4.0:
            failures.append(f"oscillator n={n}: factor {factor:.2f} > 4")
        bound = 1.0 / abs(math.log(t_n / math.e))
        worst = 0.0
        for a, b in zip(arc, arc[1:]):
            for t in (np.arange(8) + 0.5) / 8:
                r = float(np.linalg.norm(a + t * (b - a)))
                worst = max(worst, r * oscillator_g_prime_abs(r))
        if worst > bound + 1e-9:
            failures.append(f"oscillator n={n}: pointwise t|g'(t)| {worst:.4g} exceeds {bound:.4g}")
    report(5, "derivative blow-up profiles", failures)


def _circle_points(k):
    return np.array([[math.cos(2 * math.pi * j / k), math.sin(2 * math.pi * j / k)] for j in range(k)])


def test_criterion_6_appendix_lemmas():
    failures = []
    rng = np.random.default_rng(61)
    # segment-average lower bound, 10^4 pairs, zero violations
    violations = 0
    for dim in (2, 6):
        for _ in range(5_000):
            x = rng.standard_normal(dim)
            y = rng.standard_normal(dim)
            if np.allclose(x, y):
                continue
            avg = segment_average_norm(x, y)
            if avg < max(np.linalg.norm(x), np.linalg.norm(y)) / 8.0:
                violations += 1
    print(f"  segment-average bound violations: {violations} / 10000")
    if violations:
        failures.append(f"{violations} segment-average bound violations")
    # eigenvalue Weyl-Lipschitz bound on 10^4 perturbations
    bad = 0
    for q, trials in ((2, 8_000), (4, 2_000)):
        for _ in range(trials):
            a = rng.standard_normal((q, q))
            m = (a + a.T) / 2
            e = rng.standard_normal((q, q)) * rng.choice([1e-4, 1e-2, 1.0])
            e = (e + e.T) / 2
            if np.max(np.abs(np.linalg.eigvalsh(m + e) - np.linalg.eigvalsh(m))) > np.linalg.norm(e, "fro") + 1e-10:
                bad += 1
    print(f"  Weyl-Lipschitz violations: {bad} / 10000")
    if bad:
        failures.append(f"{bad} eigenvalue Lipschitz violations")
    # covering/packing chain N(delta) <= D(delta) <= N(delta / 2), exact by
    # brute force, and the greedy bracket G(2 delta) <= N <= G <= D <= G(delta / 2)
    small = np.random.default_rng(62)
    exact_clouds = [np.array([[0.0, 0.0], [1.0, 0.0]]), _circle_points(12),
                    small.standard_normal((12, 2)), small.standard_normal((12, 2))]
    bracket_ok = True
    for cloud in exact_clouds:
        for delta in (0.05, 0.1, 0.4, 1.0):
            n_full, d_full = exact_cover_and_packing(cloud, delta)
            n_half, _ = exact_cover_and_packing(cloud, delta / 2)
            g_double, g_full, g_half = (greedy_net(cloud, t) for t in (2 * delta, delta, delta / 2))
            if not (n_full <= d_full <= n_half and g_double <= n_full <= g_full <= d_full <= g_half):
                bracket_ok = False
                failures.append(
                    f"bracket broken on {len(cloud)} points at delta {delta}: G(2 delta), N, G, D, "
                    f"G(delta / 2), N(delta / 2) = {g_double}, {n_full}, {g_full}, {d_full}, {g_half}, {n_half}"
                )
    print(f"  exact chain and greedy bracket on 2- and 12-point clouds: {bracket_ok}")
    # beyond brute force the bracket still implies G(2 delta) <= G(delta) <= G(delta / 2)
    big = (("100-point circle", _circle_points(100)), ("150-point normal", rng.standard_normal((150, 2))))
    for name, cloud in big:
        nets = {}
        for delta in (0.05, 0.1, 0.4, 1.0):
            g_double, nets[delta], g_half = (greedy_net(cloud, t) for t in (2 * delta, delta, delta / 2))
            if not g_double <= nets[delta] <= g_half:
                failures.append(f"greedy net not monotone on the {name} at delta {delta}: "
                                f"{g_double}, {nets[delta]}, {g_half}")
        print(f"  greedy net on the {name}: " + ", ".join(f"G({t}) = {g}" for t, g in nets.items()))
    # omega_s closed forms
    for s, val in ((0, 1.0), (1, 2.0), (2, math.pi), (3, 4 * math.pi / 3)):
        if abs(omega_s(s) - val) > 1e-12:
            failures.append(f"omega_{s} off by {abs(omega_s(s) - val):.2e}")
    print("  omega_s exact at s = 0, 1, 2, 3")
    report(6, "appendix lemmas (segment average, Weyl, covering/packing bracket, omega)", failures)


def test_criterion_7_calibration_suite():
    failures = []
    rng = np.random.default_rng(71)
    specs = {kind: DataMapSpec(kind=kind) for kind in (MapKind.LS_LINE, MapKind.PC_LINE, MapKind.LAD_LINE)}
    worst_raw = 0.0
    worst_std = 0.0
    datasets, vertical = [], []
    for trial in range(1_000):
        if trial % 20 == 0:
            theta = math.pi / 2  # exact verticals throughout the batch
        elif trial % 20 == 10:
            theta = 0.0
        else:
            theta = rng.uniform(0, math.pi)
        vertical.append(theta == math.pi / 2)
        direction = np.array([math.cos(theta), math.sin(theta)])
        base = rng.standard_normal(2)
        ts = np.sort(rng.standard_normal(3) * 2)
        if np.min(np.diff(ts)) < 1e-3:
            ts = np.array([-1.0, 0.1, 1.2])
        datasets.append(base[None, :] + ts[:, None] * direction[None, :])
    points, sloped = np.stack(datasets), ~np.array(vertical)
    trials = np.arange(len(points))
    sigma = standard_batch(points).value

    def check(label, out, rows):
        """The worst distance to Sigma of a fitter's outcomes on the given
        trials; each Undefined row and each distance above 1e-9 fails."""
        failures.extend(f"{label} undefined on a perfect fit (trial {t})" for t in rows[~out.defined])
        dist = angle_distance(out.value, sigma[rows], math.pi)[out.defined]
        failures.extend(f"{label} off Sigma by {d:.2e} (trial {t})" for d, t in zip(dist, rows[out.defined]) if d > 1e-9)
        return dist.max(initial=0.0)

    for kind, spec in specs.items():
        # the standard evaluator (Theta extension) covers everything,
        # including verticals where the raw LS/LAD formulas cannot go
        worst_std = max(worst_std, check(kind.value, evaluate_with_standard_batch(spec, points), trials))
        # raw formulas agree off the vertical surface
        worst_raw = max(worst_raw, check(f"raw {kind.value}", evaluate_batch(spec, points[sloped]), trials[sloped]))
    print(f"  worst standard-evaluator distance to Sigma: {worst_std:.2e}")
    print(f"  worst raw-fitter distance to Sigma (sloped fits): {worst_raw:.2e}")
    report(7, "calibration on perfect fits (including verticals)", failures)


def test_criterion_8_cli_determinism(tmp_path):
    from singlab.cli import EXIT_INCONCLUSIVE, EXIT_OK, main

    failures = []
    commands = {
        "lfplot": (["lfplot", "--map", "pc", "--grid-resolution", "8"], ["lfplot.csv", "lfplot.svg"], None),
        "winding": (["winding", "--target", "pc", "--shrink", "0.999", "--samples", "128"], ["winding.json"], None),
        "localize": (["localize", "--map", "pc", "--eps", "0.01"], ["localize.json"], None),
        "oscillate": (["oscillate", "--map", "pc", "--k-samples", "32", "--seed", "5"], ["oscillation.json"], None),
        "severity": (["severity", "--map", "pc", "--k-samples", "32", "--seed", "5"], ["severity.json"], None),
        "derivprofile": (
            ["derivprofile", "--map", "synthetic", "--eta-count", "4", "--eta-min", "0.01", "--seed", "5"],
            ["derivprofile.json", "derivprofile.csv"],
            None,
        ),
        "tube": (["tube", "--fixture", "point", "--samples", "20000", "--seed", "7"], ["tube.json"], "--threads"),
        "cdf": (["cdf", "--map", "lad", "--samples", "20000", "--seed", "42"], ["cdf.json", "cdf.csv"], "--threads"),
        "dimension": (["dimension", "--fixture", "circle", "--mesh-min", "0.003"], ["dimension.json"], None),
        "tradeoff": (
            ["tradeoff", "--presets", "uniform,moderate", "--cloud-size", "2000", "--seed", "11"],
            ["tradeoff.json"],
            None,
        ),
    }
    for name, (args, outputs, thread_flag) in commands.items():
        runs = {"a": args, "b": args}
        if thread_flag:
            runs = {"a": args + [thread_flag, "1"], "b": args + [thread_flag, "4"]}
        payloads = {}
        for tag, argv in runs.items():
            outdir = tmp_path / name / tag
            code = main(argv + ["--outdir", str(outdir)])
            if code not in (EXIT_OK, EXIT_INCONCLUSIVE):
                failures.append(f"{name}: exit code {code}")
            payloads[tag] = [(outdir / f).read_bytes() for f in outputs]
        if payloads["a"] != payloads["b"]:
            failures.append(f"{name}: outputs not byte-identical")
    print(f"  {len(commands)} commands checked for byte-identical reruns")
    report(8, "CLI byte-level determinism across runs and thread counts", failures)
