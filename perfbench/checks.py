"""Output checks: closed forms, the acceptance-suite tolerances, and gen.py's own arithmetic.

Each check returns a list of failure messages; an empty list is a pass.
Tolerances follow tests/test_acceptance.py where it states one (E2 orbit
drift 1e-7, E2 chord lengths 1e-8, partials 1e-5, roots 1e-12, O(eps^2)
ratio in (3.5, 4.5)) and the CLI's default 1e-9 otherwise.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import gen

ALPHA4 = math.atan(math.sqrt(5.0))
# On a circle deformed by O(eps), orbits launched on the angle-alpha circle stay
# near it: within O(eps), or O(sqrt eps) where a resonance opens an island.
# Orbit angles and chord lengths must stay within NEAR_CIRCLE * sqrt(eps) of
# the circle's; the worst seen over the generator's domain is about 0.6.
NEAR_CIRCLE = 2.0


def _close(a, b, tol) -> bool:
    return abs(float(a) - float(b)) <= tol


def roots_match(k: int, roots) -> list[str]:
    want = gen.own_roots(k)
    if len(roots) != len(want):
        return [f"gutkin_roots({k}) gave {len(roots)} roots, expected {len(want)}"]
    bad = [f"root {r!r} != {w!r}" for r, w in zip(roots, want) if not _close(r, w, 1e-12)]
    if k == 4 and not (_close(roots[0], ALPHA4, 1e-12) and _close(roots[1], math.pi - ALPHA4, 1e-12)):
        bad.append("k=4 roots are not arctan sqrt5 and pi - arctan sqrt5")
    return bad


def e2_chord(curve: dict, alpha: float, t) -> np.ndarray:
    """Closed-form chord length 2 sin a (c0 + A cos(k a) cos(k t + phase)), chord centred at t."""
    (k, amp, phase), = curve["harmonics"]
    return 2 * math.sin(alpha) * (curve["c0"] + amp * math.cos(k * alpha) * np.cos(k * np.asarray(t) + phase))


def orbit_e2(curve: dict, alpha: float, rows) -> list[str]:
    """Exact E2 orbit: angle stays alpha, t advances by 2 alpha, chords match the closed form."""
    t = np.array([r[1] for r in rows])
    theta = np.array([r[2] for r in rows])
    length = np.array([r[3] for r in rows])
    out = []
    if np.abs(theta - alpha).max() >= 1e-7:
        out.append(f"E2 orbit drift {np.abs(theta - alpha).max():.2e} >= 1e-7")
    step = (t[1:] - t[:-1] - 2 * alpha) % gen.TWO_PI
    step = np.minimum(step, gen.TWO_PI - step)
    if len(step) and step.max() >= 1e-8:
        out.append(f"E2 orbit step defect {step.max():.2e}")
    dev = np.abs(length - e2_chord(curve, alpha, t + alpha)).max()
    if dev >= 1e-8:
        out.append(f"E2 chord length off closed form by {dev:.2e}")
    return out


def orbit_deformed(curve: dict, alpha: float, drift: float, rows) -> list[str]:
    eps = curve["epsilon"]
    out = []
    theta = np.array([r[2] for r in rows])
    bound = NEAR_CIRCLE * math.sqrt(eps)
    worst = max(drift, float(np.abs(theta - alpha).max()))
    if not worst <= bound:
        out.append(f"deformed orbit drift {worst:.2e} > {bound:.2e}")
    length0 = gen.circle_chord(curve["geometry"], curve["R"], curve["c"])
    dev = float(np.abs(np.array([r[3] for r in rows]) - length0).max())
    if not dev <= bound:
        out.append(f"deformed chord length off the circle's by {dev:.2e} > {bound:.2e}")
    return out


def second_order(res_eps: float, res_half: float) -> list[str]:
    ratio = res_eps / res_half if res_half > 0 else math.inf
    return [] if 3.5 < ratio < 4.5 else [f"residual ratio eps/(eps/2) = {ratio:.3f} not O(eps^2)"]


def shoot(c: dict, out: dict, orbit_steps: int) -> list[str]:
    """A curve_lab shooting task: roots, verify residuals, drift and orbit."""
    bad = roots_match(c["k"], out["roots"])
    if bad:
        return bad
    alpha = out["alpha"]
    if len(out["orbit"]) != orbit_steps:
        bad.append("orbit length")
    if c["geometry"] == "E2":
        res = out["verify"][0]["max_angle_residual"]
        if not res < 1e-9:
            bad.append(f"E2 verify residual {res:.2e}")
        if not out["drift"] < 1e-7:
            bad.append(f"E2 invariant-circle drift {out['drift']:.2e}")
        return bad + orbit_e2(c, alpha, out["orbit"])
    if abs(alpha - c["alpha"]) > 1e-12:
        bad.append(f"contact angle {alpha} != {c['alpha']}")
    cc, a, fs = gen.lemma(c["geometry"], c["R"], alpha)
    spec = out["spec"]
    if max(abs(spec.c - cc), abs(spec.a - a), abs(spec.f_star - fs)) > 1e-12:
        bad.append("lemma constants (c, a, f*) differ from the closed forms")
    bad += second_order(*(v["max_angle_residual"] for v in out["verify"]))
    return bad + orbit_deformed(c, alpha, out["drift"], out["orbit"])


def partials(c: dict, rep: dict, samples: int) -> list[str]:
    ok = rep["max_rel_err"] < 1e-5 and rep["samples"] == samples and rep["geometry"] == c["geometry"]
    return [] if ok else [f"{c['geometry']} partials max_rel_err {rep['max_rel_err']:.2e}"]


# ---------------------------------------------------------------------------
# polygons


def gutkin_angles(n: int, k: int, alpha: float, max_residual: float) -> list[str]:
    """Every contact angle of a Gutkin (n, k)-gon is pi (k - 1) / n."""
    out = []
    if not _close(alpha, math.pi * (k - 1) / n, 1e-9):
        out.append(f"({n},{k}) alpha {alpha} != pi (k-1)/n")
    if not max_residual < 1e-8:
        out.append(f"({n},{k}) contact-angle spread {max_residual:.2e}")
    return out


def inscribed(n: int, k: int, vertices, alpha: float, max_residual: float) -> list[str]:
    v = np.asarray(vertices, float)
    if v.shape != (n, 2):
        return [f"expected {n} vertices, got {v.shape}"]
    out = gutkin_angles(n, k, alpha, max_residual)
    if np.abs(np.hypot(v[:, 0], v[:, 1]) - 1).max() > 1e-12:
        out.append("inscribed vertices off the unit circle")
    return out


def two_kk(k: int, sides, vertices, alpha: float) -> list[str]:
    v = np.asarray(vertices, float)
    out = []
    x = np.asarray(sides)
    want = np.concatenate([x, 2 * math.cos(math.pi * (k - 1) / (2 * k)) - x])
    got = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
    if got.shape != want.shape or np.abs(got - want).max() > 1e-10:
        out.append("(2k,k) sides differ from the free parameters and their complements")
    diag = np.linalg.norm(v[k:] - v[:k], axis=1)
    if np.abs(diag - 1).max() > 1e-10:
        out.append("(2k,k) main diagonals are not unit length")
    if not _close(alpha, math.pi * (k - 1) / (2 * k), 1e-9):
        out.append(f"(2k,k) alpha {alpha}")
    return out


def family_sides(n: int, k: int, sides) -> list[str]:
    x = np.asarray(sides, float)
    out = []
    if x.shape != (n,):
        return [f"family member has {x.shape} sides, expected {n}"]
    if not (_close(x.mean(), 1.0, 1e-9) and _close(x.min(), 0.1, 1e-9)):
        out.append(f"family member mean {x.mean()} / min {x.min()} not 1 / 0.1")
    if np.abs(gen.real_circulant(n, k) @ x).max() > 1e-9 * n:
        out.append("family member violates the equiangular constraints")
    if abs(np.sum(x * np.exp(2j * np.pi * np.arange(n) / n))) > 1e-9 * n:
        out.append("family member does not close")
    return out


def family_basis(n: int, k: int, basis) -> list[str]:
    dim = gen.family_dimension(n, k)
    if len(basis) != dim:
        return [f"({n},{k}) basis has {len(basis)} vectors, expected {dim}"]
    if not dim:
        return []
    b = np.asarray(basis, float)
    out = []
    if np.abs(b @ b.T - np.eye(dim)).max() > 1e-9:
        out.append("basis not orthonormal")
    if np.abs(b.sum(axis=1)).max() > 1e-9 * math.sqrt(n):
        out.append("basis not orthogonal to the ones vector")
    if np.abs(gen.real_circulant(n, k) @ b.T).max() > 1e-8:
        out.append("basis not in the constraint kernel")
    return out


def classify(n: int, k: int, zero_set, M: int, exists: bool, restr2) -> list[str]:
    zs = gen.circulant_zero_set(n, k)
    out = []
    if list(zero_set) != zs:
        out.append(f"({n},{k}) zero set {list(zero_set)} != {zs}")
    if M != sum(1 for r in zs if 2 <= r <= n - 2):
        out.append(f"({n},{k}) M = {M}")
    if (n, k) == (24, 5) and M != 3:
        out.append("classify (24,5) must give M = 3")
    if exists != gen.exists_nontrivial(n, k):
        out.append(f"({n},{k}) exists_nontrivial = {exists}")
    if restr2 is not None and list(restr2) != [r for r in zs if r != 0]:
        out.append(f"({n},{k}) restr2 roots {list(restr2)} != zero set")
    return out


def restr2(n: int, k: int, sols) -> list[str]:
    zs = gen.circulant_zero_set(n, k)
    bad = [] if [s.r for s in sols] == [r for r in zs if r != 0] else [f"restr2 ({n},{k}) roots"]
    return bad + [f"restr2 residual {s.lhs_minus_rhs}" for s in sols if abs(s.lhs_minus_rhs) >= 1e-9]


def verify_report(n: int, k: int, rep: dict) -> list[str]:
    bad = gutkin_angles(n, k, rep["alpha_measured"], rep["max_residual"])
    if not (rep["is_gutkin"] is True and rep["n"] == n and rep["k"] == k):
        bad.append(f"verify_gutkin ({n},{k}) report")
    if (rep["beta_angles"] is None) != (n == 2 * k):
        bad.append("beta angles present iff n != 2k")
    return bad


def polygon(op: dict, out) -> list[str]:
    """A polygon_tables operation's result."""
    name, n, k = op["op"], op["n"], op["k"]
    if name == "circulant_spectrum":
        return classify(n, k, out.zero_set, out.M, gen.exists_nontrivial(n, k), None)
    if name == "solve_restr2":
        return restr2(n, k, out)
    if name == "exists_nontrivial":
        return [] if out == gen.exists_nontrivial(n, k) else [f"exists ({n},{k}) = {out}"]
    if name == "construct_inscribed":
        bad = inscribed(n, k, out.vertices, out.alpha, out.max_residual)
        want = gen.inscribed_vertices(n, np.asarray(op["arcs"]))
        return bad + ([] if np.abs(out.vertices - want).max() < 1e-12 else ["inscribed vertices"])
    if name == "construct_2kk":
        return two_kk(k, op["sides"], out.vertices, out.alpha)
    if name == "family_member":
        return family_sides(n, k, out)
    if name == "verify_gutkin":
        return verify_report(n, k, out)
    if name == "equiangular_family_basis":
        return family_basis(n, k, out)
    return [f"no check for {name}"]


# ---------------------------------------------------------------------------
# CLI outputs (parsed, never compared byte for byte)


def cli(cmd: dict, code: int, stdout: str, ctx: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    kind = cmd["check"]
    if kind == "orbit_e2":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["step", "t", "theta", "chord_length"] or len(rows) != cmd["steps"] + 1:
            return ["orbit CSV header or row count"]
        body = [tuple(float(x) for x in r) for r in rows[1:]]
        return orbit_e2(cmd["curve"], cmd["curve"]["alpha"], body)
    out = json.loads(stdout)
    if kind == "solve_angle":
        k, geo = cmd["k"], cmd["geometry"]
        bad = roots_match(k, [s["c"] for s in out])
        for s in out:
            want = gen.contact_angle(geo, cmd["radius"], s["c"])
            if not _close(s["alpha"], want, 1e-12):
                bad.append(f"{geo} contact angle {s['alpha']} != {want}")
            if s["geometry"] != geo or s["k"] != k:
                bad.append("solve-angle echoes the wrong k or geometry")
        return bad
    if kind == "classify":
        return classify(cmd["n"], cmd["k"], out["zero_set"], out["M"],
                        out["exists_nontrivial"], out["restr2_roots"])
    if kind == "construct":
        if cmd["inscribed"]:
            return inscribed(cmd["n"], cmd["k"], out["vertices"], out["alpha"], 0.0)
        return two_kk(cmd["k"], cmd["sides"], out["vertices"], out["alpha"])
    if kind == "verify_in":
        bad = [] if out["is_gutkin"] is True else ["verify --in round trip is not Gutkin"]
        return bad + gutkin_angles(cmd["n"], cmd["k"], out["alpha"], out["max_residual"])
    if kind == "family":
        bad = family_basis(cmd["n"], cmd["k"], out["basis"])
        return bad + family_sides(cmd["n"], cmd["k"], out["sides"])
    if kind == "curve_verify_e2":
        bad = []
        if not _close(out["alpha"], cmd["alpha"], 1e-12):
            bad.append(f"auto-k alpha {out['alpha']} != {cmd['alpha']}")
        if not (out["is_gutkin"] is True and out["max_angle_residual"] < 1e-9):
            bad.append(f"E2 curve residual {out['max_angle_residual']:.2e}")
        return bad
    if kind == "residual_e2":
        return [] if out["max_residual"] < 1e-12 else [f"E2 operator residual {out['max_residual']:.2e}"]
    if kind in ("curve_verify_def", "curve_verify_def_half"):
        c = cmd["curve"]
        bad = [] if _close(out["alpha"], c["alpha"], 1e-12) else [f"auto-k contact angle {out['alpha']}"]
        ctx[kind] = out["max_angle_residual"]
        if kind == "curve_verify_def_half":
            bad += second_order(ctx["curve_verify_def"], ctx[kind])
        return bad
    if kind == "residual_def":
        c = cmd["curve"]
        pred, rem = gen.operator_residual_prediction(c["geometry"], c["R"], c["alpha"], c["k"],
                                                     c["epsilon"])
        got = out["max_residual"]
        ok = abs(got - pred) <= rem + 1e-3 * pred + 1e-13
        return [] if ok else [f"{c['geometry']} operator residual {got:.4e}, second order predicts {pred:.4e}"]
    if kind == "partials":
        return partials(cmd["curve"], out, cmd["samples"])
    return [f"no check for {kind}"]
