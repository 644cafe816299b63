"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
are produced.  Each test computes its verdict first, prints exactly one
summary line, then asserts.
"""

import json
import math

import numpy as np
from click.testing import CliRunner

import equichord as eq
from equichord import Geometry
from equichord.cli import main as cli_main
from equichord.errors import Infeasible, NotClosed
from oracles import linearized_coefficient_check

ALPHA4 = float(np.arctan(np.sqrt(5.0)))


def _report(num, desc, ok):
    print(f"\n[ACCEPTANCE {num:02d}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_01_angle_solver():
    roots4 = eq.gutkin_roots(4)
    expected = [ALPHA4, np.pi - ALPHA4]
    ok = (len(roots4) == 2
          and all(abs(r - e) < 1e-12 for r, e in zip(roots4, expected))
          and all(abs(4 * np.tan(r) - np.tan(4 * r)) < 1e-12 * (1 + abs(4 * np.tan(r)))
                  for r in roots4)
          and eq.gutkin_roots(2) == []
          and eq.gutkin_roots(3) == []
          and any(abs(r - np.arctan(np.sqrt(5.0 / 3.0))) < 1e-12
                  for r in eq.gutkin_roots(5)))
    _report(1, "gutkin_roots closed forms (k=2,3,4,5)", ok)


def test_02_euclidean_exactness():
    spec = eq.FourierCurveE2(c0=1.0, harmonics=(eq.Harmonic(4, 0.1, 0.0),))
    curve = eq.build_e2_curve(spec)
    ts = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)

    f = eq.TrigPolynomial(np.sin(ALPHA4), (eq.Harmonic(4, 0.1 * np.sin(ALPHA4), 0.0),))
    res_a = float(np.abs(eq.s2_residual_operator(f, ALPHA4, ALPHA4, 1.0, Geometry.EUCLIDEAN)(ts)).max())

    res_b = eq.invariant_circle_residual(curve, ALPHA4, n_steps=100, n_starts=16)

    sample = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    p = np.asarray(curve.point(sample - ALPHA4))
    q = np.asarray(curve.point(sample + ALPHA4))
    measured = np.linalg.norm(q - p, axis=-1)
    closed = 2 * np.sqrt(5.0 / 6.0) * (1 - np.cos(4 * sample) / 90)
    res_c = float(np.abs(measured - closed).max())

    f_bad = eq.TrigPolynomial(np.sin(1.0), (eq.Harmonic(4, 0.1 * np.sin(1.0), 0.0),))
    res_d = float(np.abs(eq.s2_residual_operator(f_bad, 1.0, 1.0, 1.0, Geometry.EUCLIDEAN)(ts)).max())

    ok = res_a < 1e-12 and res_b < 1e-7 and res_c < 1e-8 and res_d > 1e-2
    _report(2, f"E2 exactness (op {res_a:.1e}, orbit {res_b:.1e}, "
               f"chords {res_c:.1e}, control {res_d:.1e})", ok)


def test_03_generating_function_partials():
    wavy = eq.build_e2_curve(eq.FourierCurveE2(
        c0=1.0, harmonics=(eq.Harmonic(3, 0.3, 0.0), eq.Harmonic(5, 0.1, -np.pi / 2))))
    errs = []
    for curve in (wavy,
                  eq.circle_curve(Geometry.SPHERICAL, np.pi / 3),
                  eq.circle_curve(Geometry.HYPERBOLIC, 0.8)):
        errs.append(eq.validate_partials(curve, samples=100)["max_rel_err"])
    ok = max(errs) < 1e-5
    _report(3, f"L(x,y) partials vs finite differences (worst {max(errs):.1e})", ok)


def test_04_lemma_constants():
    R, alpha = np.pi / 3, np.pi / 4
    c, a = eq.lemma_constants(Geometry.SPHERICAL, R, alpha)
    circle = eq.circle_curve(Geometry.SPHERICAL, R)
    t1, _, _ = eq.shoot_to_curve(circle, 0.0, alpha)
    c_measured = (t1 % (2 * np.pi)) / 2
    ok = (abs(c - np.arctan2(1.0, 0.5)) < 1e-12
          and abs(c - c_measured) < 1e-10
          and abs(a - 0.7905694) < 1e-7)
    for geometry, radii in ((Geometry.SPHERICAL, np.linspace(0.05, 1.5, 20)),
                            (Geometry.HYPERBOLIC, np.linspace(0.05, 3.0, 20))):
        for Rg in radii:
            for al in np.linspace(0.1, np.pi - 0.1, 20):
                lhs, rhs = linearized_coefficient_check(geometry, float(Rg), float(al))
                if abs(lhs - rhs) >= 1e-12 * (1 + abs(lhs)):
                    ok = False
    _report(4, "lemma constants (c, a) and a cot(alpha) cos(f*) = cot c grid", ok)


def _deformation_ratio(geometry, R, k):
    roots = eq.gutkin_roots(k)
    c0 = roots[0] if roots else 0.9
    alpha = eq.contact_angle_from_c(geometry, R, c0)
    res = {}
    for eps in (1e-2, 5e-3):
        spec = eq.DeformedCircle(geometry=geometry, R=R, epsilon=eps,
                                 g=eq.TrigPolynomial(0.0, (eq.Harmonic(k, 1.0, 0.0),)),
                                 alpha=alpha)
        curve = eq.build_deformed_circle(spec)
        res[eps] = eq.verify_curve_gutkin(curve, alpha, n_samples=24)["max_angle_residual"]
    return res[1e-2] / res[5e-3]


def test_05_infinitesimal_deformation():
    ratios = {}
    for geometry, R in ((Geometry.SPHERICAL, np.pi / 3), (Geometry.HYPERBOLIC, 0.8)):
        ratios[(geometry.value, 4)] = _deformation_ratio(geometry, R, 4)
        ratios[(geometry.value, 3)] = _deformation_ratio(geometry, R, 3)
    ok = (3.5 < ratios[("S2", 4)] < 4.5 and 1.8 < ratios[("S2", 3)] < 2.2
          and 3.5 < ratios[("H2", 4)] < 4.5 and 1.8 < ratios[("H2", 3)] < 2.2)
    detail = ", ".join(f"{g} k={k}: {r:.2f}" for (g, k), r in ratios.items())
    _report(5, f"deformation residual orders ({detail})", ok)


def test_06_first_harmonics():
    defect = eq.closure_defect(1.0, (eq.Harmonic(1, 0.1, 0.0),))
    try:
        eq.FourierCurveE2(c0=1.0, harmonics=(eq.Harmonic(1, 0.1, 0.0),))
        rejected = False
    except NotClosed:
        rejected = True

    R, k, epsv = np.pi / 3, 4, 1e-4
    alpha = eq.contact_angle_from_c(Geometry.SPHERICAL, R, eq.gutkin_roots(4)[0])
    spec = eq.DeformedCircle(geometry=Geometry.SPHERICAL, R=R, epsilon=epsv,
                             g=eq.TrigPolynomial(0.0, (eq.Harmonic(k, 1.0, 0.0),)),
                             alpha=alpha)
    curve = eq.build_deformed_circle(spec)
    ts = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    kappa = np.array([eq.geodesic_curvature(curve, float(t)) for t in ts])
    predicted = -epsv * (1 - k * k) * np.cos(k * ts) / np.sin(R) ** 2
    shape_err = float(np.abs((kappa - 1 / np.tan(R)) - predicted).max()
                      / np.abs(predicted).max())

    ok = abs(defect - np.pi * 0.1) < 1e-10 and rejected and shape_err < 1e-3
    _report(6, f"first harmonics (defect {defect:.12f}, shape err {shape_err:.1e})", ok)


def test_07_polygon_spectral_theory():
    spec63 = eq.circulant_spectrum(6, 3)
    ok = spec63.zero_set == (0, 3)
    for n in range(5, 61):
        for k in range(2, n // 2 + 1):
            spec = eq.circulant_spectrum(n, k)
            lam = spec.eigenvalues
            scale = float(np.abs(lam).max())
            if abs(lam[0]) > 1e-9 * scale or abs(lam[1]) < 1e-9 * scale:
                ok = False
            rs = [s.r for s in eq.solve_restr2(n, k)]
            if sorted(set(spec.zero_set) - {0}) != rs:
                ok = False
            if k < n / 2:
                below = {r for r in spec.zero_set if 1 < r < n / 2}
                arith = {r for r in range(2, (n - 1) // 2 + 1)
                         if eq.connelly_check(n, k, r)}
                if below != arith:
                    ok = False
    _report(7, "circulant spectrum vs restr2 vs arithmetic sweep (5<=n<=60)", ok)


def test_08_mainpol_end_to_end():
    ok = True
    for n in range(4, 31):
        for k in range(2, n // 2 + 1):
            p = math.gcd(n, k - 1)
            if p > 1:
                q = n // p
                w = np.array([0.4, 0.6] + [1.0] * (p - 2))
                arcs = w / w.sum() * 2 * np.pi / q
                poly = eq.construct_inscribed(n, k, arcs)
                if abs(poly.alpha - np.pi * (k - 1) / n) > 1e-9:
                    ok = False
                sides = np.linalg.norm(
                    np.roll(poly.vertices, -1, axis=0) - poly.vertices, axis=1)
                if sides.std() < 1e-6:  # must be non-regular
                    ok = False
            elif n == 2 * k:
                # special case outside the coprimality criterion: the family
                # of (2k, k)-gons has dimension k - 2
                if eq.circulant_spectrum(n, k).M != k - 2:
                    ok = False
            else:
                if eq.circulant_spectrum(n, k).M != 0:
                    ok = False
    _report(8, "inscribed construction / rigidity sweep (4<=n<=30)", ok)


def test_09_2kk_family():
    p = eq.construct_2kk(3, [0.3])
    sides = np.linalg.norm(np.roll(p.vertices, -1, axis=0) - p.vertices, axis=1)
    diagonals = [np.linalg.norm(p.vertices[i + 3] - p.vertices[i]) for i in range(3)]
    ok = (abs(sides[0] - 0.3) < 1e-10 and abs(sides[1] - 0.7) < 1e-10
          and all(abs(d - 1.0) < 1e-10 for d in diagonals)
          and abs(p.alpha - np.pi / 3) < 1e-10)
    try:
        eq.construct_2kk(3, [1.2])
        ok = False
    except Infeasible:
        pass
    for k in (3, 4, 5):
        if len(eq.equiangular_family_basis(2 * k, k)) != k - 2:
            ok = False
    _report(9, "(2k,k) construction and kernel dimension k-2", ok)


def test_10_cli_determinism(tmp_path):
    runner = CliRunner()
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"geometry": "euclidean", "c0": 1.0,
         "harmonics": [{"k": 4, "amp": 0.1, "phase": 0.0}], "alpha": "auto-k4"}))
    documented = [
        ["solve-angle", "--k", "4"],
        ["solve-angle", "--k", "2"],
        ["solve-angle", "--k", "4", "--geometry", "S2", "--radius", "1.0471975512"],
        ["polygon", "classify", "--n", "24", "--k", "5"],
        ["polygon", "verify", "--regular", "5", "--k", "2"],
        ["curve", "verify", "--spec", str(spec_path)],
        ["curve", "residual", "--spec", str(spec_path), "--operator", "E2"],
        ["billiard", "orbit", "--spec", str(spec_path), "--steps", "0"],
    ]
    ok = True
    for args in documented:
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        if first.exit_code != 0 or first.output != second.output:
            ok = False

    poly_path = tmp_path / "poly.json"
    r = runner.invoke(cli_main, ["polygon", "construct", "--n", "4", "--k", "3",
                                 "--arcs", "1.0471975512,2.0943951024",
                                 "--out", str(poly_path)])
    v = runner.invoke(cli_main, ["polygon", "verify", "--in", str(poly_path)])
    if r.exit_code != 0 or v.exit_code != 0 or '"is_gutkin": true' not in v.output:
        ok = False
    _report(10, "CLI determinism and construct/verify file round-trip", ok)
