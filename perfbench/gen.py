"""Seeded inputs for the equichord benchmark, drawn from the paper's admissible domain.

Every draw is admissible by this module's own arithmetic, never by catching a
library exception:

* E2 curves have radius of curvature rho = c0 + sum A cos(k t + phase) with
  every k >= 2 and c0 - sum |A| >= 0.4 c0 (convex with margin, closed);
* contact angles are real roots of k tan c = tan(k c), found here by
  bisection of the pole-free form;
* S2/H2 deformed circles keep their first-order geodesic curvature above half
  the circle's, and epsilon (k^2 - 1) <= 0.03 keeps them in the second-order
  regime the O(eps^2) checks assume;
* (2k, k) side parameters leave every side inside (0.1, 0.9) of its range;
* inscribed-polygon arcs are positive and sum to 2 pi / q.

The same (seed, workload, deck) always gives the same deck; decks are built
lazily so a faster program simply consumes more of them.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
WORKLOAD_IDS = {"cli_session": 1, "curve_lab": 2, "polygon_tables": 3}


class Inadmissible(RuntimeError):
    """A draw left the admissible domain: a defect of this generator."""


def _require(cond: bool, what: str):
    if not cond:
        raise Inadmissible(what)


def deck_rng(seed: int, workload: str, deck: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOAD_IDS[workload], int(deck)])


# ---------------------------------------------------------------------------
# reference arithmetic (independent of the library)


def _polefree(k: int, c):
    return (k - 1) * np.sin((k + 1) * c) - (k + 1) * np.sin((k - 1) * c)


def _bisect(f, lo: float, hi: float) -> float:
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


_ROOTS: dict[int, list[float]] = {}


def own_roots(k: int) -> list[float]:
    """Roots of k tan c = tan(k c) in (0, pi); there are 2 floor((k-2)/2)."""
    if k not in _ROOTS:
        # genuine roots stay >= 4.49/k from 0 and pi, where the pole-free form
        # has triple zeros whose roundoff fakes sign changes
        inset = min(0.01, 1.0 / k)
        grid = np.linspace(inset, math.pi - inset, 64 * k + 65)
        vals = _polefree(k, grid)
        roots = []
        for i in np.nonzero(vals[:-1] * vals[1:] < 0.0)[0]:
            c = _bisect(lambda x: float(_polefree(k, x)), float(grid[i]), float(grid[i + 1]))
            if abs(math.cos(c)) < 1e-6 or abs(math.cos(k * c)) < 1e-6:
                continue  # c = pi/2 for odd k: a zero of the pole-free form only
            roots.append(c)
        _require(len(roots) == 2 * ((k - 2) // 2), f"root count for k={k}")
        _ROOTS[k] = roots
    return _ROOTS[k]


def tan_residual(k: int, c: float) -> float:
    return abs(k * math.tan(c) - math.tan(k * c)) / (1.0 + abs(k * math.tan(c)))


def _sn_cs(geometry: str, r: float) -> tuple[float, float]:
    return (math.sin(r), math.cos(r)) if geometry == "S2" else (math.sinh(r), math.cosh(r))


def contact_angle(geometry: str, radius: float | None, c: float) -> float:
    """alpha with cot c = cos R cot alpha (cosh R on H2); alpha = c on E2."""
    if geometry == "E2":
        return c
    _, cs = _sn_cs(geometry, radius)
    return math.atan2(1.0, math.cos(c) / math.sin(c) / cs)


def lemma(geometry: str, radius: float, alpha: float) -> tuple[float, float, float]:
    """(c, a, f_star) of a circle of radius R with contact angle alpha."""
    sn, cs = _sn_cs(geometry, radius)
    c = math.atan2(1.0, cs * math.cos(alpha) / math.sin(alpha))
    if geometry == "S2":
        a = math.sqrt(cs * cs + math.sin(alpha) ** 2 * sn * sn)
        f_star = math.atan2(1.0, cs / sn / math.sin(alpha))
    else:
        a = math.sqrt(cs * cs - math.sin(alpha) ** 2 * sn * sn)
        f_star = math.atanh(sn * math.sin(alpha) / cs)
    return c, a, f_star


def circle_chord(geometry: str, radius: float, c: float) -> float:
    """Length of the chord spanning 2c of longitude on a circle of radius R."""
    sn, _ = _sn_cs(geometry, radius)
    return 2 * (math.asin(sn * math.sin(c)) if geometry == "S2" else math.asinh(sn * math.sin(c)))


def operator_residual_prediction(geometry: str, radius: float, alpha: float, k: int,
                                 eps: float) -> tuple[float, float]:
    """Max of the S2/H2 chord-operator residual of f* + eps cos(k t + p).

    The linear part vanishes when k tan c = tan(k c); the second-order term is
    a cot(alpha) S''(f*) eps^2 (g1^2 - g2^2) / 2 with max |g1^2 - g2^2| =
    |sin 2kc|.  Returns (prediction, bound on the third-order remainder).
    """
    c, a, fs = lemma(geometry, radius, alpha)
    coef = abs(a * math.cos(alpha) / math.sin(alpha))
    sn, cs = _sn_cs(geometry, fs)
    pred = 0.5 * eps * eps * coef * abs(sn) * abs(math.sin(2 * k * c))
    return pred, eps ** 3 * coef * abs(cs) / 3.0


def circulant_zero_set(n: int, k: int, tol: float = 1e-9) -> list[int]:
    """r in [0, n) with lambda_r = sum_nu 2i sin(2 pi (nu - m)/n) w^(nu r) = 0."""
    m = (k - 1) / 2.0
    nu = np.arange(k)
    row = 2.0 * np.sin(TWO_PI * (nu - m) / n)
    r = np.arange(n)
    lam = np.exp(2j * np.pi * np.outer(r, nu) / n) @ row
    return [int(i) for i in np.nonzero(np.abs(lam) < tol * np.abs(row).max())[0]]


def family_dimension(n: int, k: int) -> int:
    return sum(1 for r in circulant_zero_set(n, k) if r != 0)


def real_circulant(n: int, k: int) -> np.ndarray:
    """S[i, i + nu] = 2 sin(2 pi (nu - m) / n): the equiangular constraint matrix."""
    m = (k - 1) / 2.0
    s = np.zeros(n)
    s[:k] = 2.0 * np.sin(TWO_PI * (np.arange(k) - m) / n)
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return s[idx]


def exists_nontrivial(n: int, k: int) -> bool:
    return k >= 3 if n == 2 * k else math.gcd(n, k - 1) > 1


def inscribed_vertices(n: int, arcs) -> np.ndarray:
    q = n // len(arcs)
    pos = np.concatenate([[0.0], np.cumsum(np.tile(arcs, q))[:-1]])
    return np.stack([np.cos(pos), np.sin(pos)], axis=-1)


# ---------------------------------------------------------------------------
# draws


def draw_e2_exact(rng, k: int | None = None) -> dict:
    """Single-harmonic E2 curve; alpha = root j of k tan c = tan kc is exact."""
    k = int(rng.integers(4, 11)) if k is None else k
    roots = own_roots(k)
    j = int(rng.integers(len(roots)))
    c0 = float(rng.uniform(0.5, 2.0))
    amp = float(rng.uniform(0.05, 0.5)) * c0
    _require(c0 - amp >= 0.4 * c0, "E2 convexity margin")
    return {"geometry": "E2", "c0": c0, "harmonics": [(k, amp, float(rng.uniform(0, TWO_PI)))],
            "k": k, "root_index": j, "alpha": roots[j], "t0": float(rng.uniform(0, TWO_PI))}


def draw_e2_multi(rng, m: int | None = None) -> dict:
    """Convex E2 curve with one to three harmonics of order 2..7."""
    m = int(rng.integers(1, 4)) if m is None else m
    ks = rng.choice(np.arange(2, 8), size=m, replace=False)
    total = float(rng.uniform(0.1, 0.6))
    amps = rng.dirichlet(np.ones(m)) * total
    c0 = float(rng.uniform(0.5, 2.0))
    _require(c0 - c0 * float(amps.sum()) >= 0.4 * c0, "E2 convexity margin")
    hs = [(int(k), float(a) * c0, float(rng.uniform(0, TWO_PI))) for k, a in zip(ks, amps)]
    return {"geometry": "E2", "c0": c0, "harmonics": hs}


def _radius(rng, geometry: str) -> float:
    return float(rng.uniform(0.4, 1.2) if geometry == "S2" else rng.uniform(0.4, 1.5))


def draw_circle(rng, geometry: str) -> dict:
    return {"geometry": geometry, "R": _radius(rng, geometry)}


def draw_deformed(rng, geometry: str, root_index: int | None = None,
                  k: int | None = None) -> dict:
    """Circle of radius R with latitude perturbation eps cos(k t + phase)."""
    R = _radius(rng, geometry)
    k = int(rng.integers(4, 9)) if k is None else k
    roots = own_roots(k)
    j = int(rng.integers(len(roots))) if root_index is None else root_index
    eps = float(rng.uniform(1.0 / 3.0, 1.0)) * 0.03 / (k * k - 1)
    sn, cs = _sn_cs(geometry, R)
    kappa0 = cs / sn
    _require(kappa0 - eps * (k * k - 1) / (sn * sn) >= 0.5 * kappa0, "deformed-circle convexity")
    alpha = contact_angle(geometry, R, roots[j])
    return {"geometry": geometry, "R": R, "k": k, "root_index": j, "c": roots[j],
            "epsilon": eps, "phase": float(rng.uniform(0, TWO_PI)), "alpha": alpha,
            "t0": float(rng.uniform(0, TWO_PI))}


def _small_nk(rng, lo: int = 5, hi: int = 60) -> tuple[int, int]:
    n = int(rng.integers(lo, hi + 1))
    return n, int(rng.integers(2, n // 2 + 1))


def draw_inscribed(rng, n_lo: int, n_hi: int) -> dict:
    """(n, k) with p = gcd(n, k - 1) >= 2 and p positive arcs summing to 2 pi / q."""
    while True:
        n, k = _small_nk(rng, n_lo, n_hi)
        p = math.gcd(n, k - 1)
        if p >= 2:
            break
    q = n // p
    w = rng.uniform(0.2, 1.0, size=p)
    arcs = w / w.sum() * (TWO_PI / q)
    _require(bool(np.all(arcs > 0)) and abs(arcs.sum() - TWO_PI / q) < 1e-12, "arc sum")
    return {"n": n, "k": k, "arcs": [float(a) for a in arcs]}


def draw_2kk(rng, k_lo: int = 3, k_hi: int = 30) -> dict:
    """Free sides of a (2k, k)-gon; the solved tail stays inside (0.1, 0.9) of 2 x*."""
    k = int(rng.integers(k_lo, k_hi + 1))
    theta = math.pi / k
    alpha = math.pi * (k - 1) / (2 * k)
    x_reg = math.sin(math.pi / (2 * k))  # the regular (2k, k)-gon, 2 x_reg = 2 cos alpha
    i = np.arange(k)
    cols = np.stack([np.cos(i * theta), np.sin(i * theta)])
    rhs0 = np.array([math.cos(alpha), math.sin(alpha)])
    spread = 0.4
    while True:
        params = x_reg * (1.0 + rng.uniform(-spread, spread, size=k - 2))
        tail = np.linalg.solve(cols[:, k - 2:], rhs0 - cols[:, : k - 2] @ params)
        x = np.concatenate([params, tail])
        if x.min() > 0.2 * x_reg and x.max() < 1.8 * x_reg:
            break
        spread *= 0.8
    return {"n": 2 * k, "k": k, "params": [float(v) for v in params],
            "sides": [float(v) for v in x]}


def draw_family(rng, n_lo: int = 6, n_hi: int = 60) -> dict:
    while True:
        n, k = _small_nk(rng, n_lo, n_hi)
        dim = family_dimension(n, k)
        if dim >= 1:
            break
    return {"n": n, "k": k, "dim": dim, "coeffs": [float(v) for v in rng.normal(size=dim)]}


# ---------------------------------------------------------------------------
# decks: fixed composition per deck, seeded parameters and order


def _stratum(lo: int, hi: int, s: int, strata: int = 3) -> tuple[int, int]:
    """Part s (mod strata) of [lo, hi] cut into equal parts."""
    w = (hi - lo + 1) / strata
    s %= strata
    return lo + int(s * w), lo + int((s + 1) * w) - 1


def curve_deck(seed: int, deck: int) -> list[dict]:
    """Four shooting and four partials tasks.

    The parameters that set a task's cost (k, the number of harmonics) are
    drawn from the halves of their ranges, one task per half in every deck, so
    each deck has the same mix of costs however many decks a run reaches;
    everything else is drawn.
    """
    rng = deck_rng(seed, "curve_lab", deck)
    geos = [str(g) for g in rng.permutation(["S2", "H2"])]

    def in_half(lo, hi, half):
        a, b = _stratum(lo, hi, half, strata=2)
        return int(rng.integers(a, b + 1))

    tasks = [{"kind": "shoot", "curve": draw_e2_exact(rng, k=in_half(4, 10, 0))},
             {"kind": "shoot", "curve": draw_e2_exact(rng, k=in_half(4, 10, 1))},
             {"kind": "shoot", "curve": draw_deformed(rng, geos[0], k=in_half(4, 8, 0))},
             {"kind": "shoot", "curve": draw_deformed(rng, geos[1], k=in_half(4, 8, 1))},
             {"kind": "partials", "curve": draw_e2_multi(rng, m=in_half(1, 3, 0))},
             {"kind": "partials", "curve": draw_e2_multi(rng, m=in_half(1, 3, 1))},
             {"kind": "partials", "curve": draw_circle(rng, geos[1])},
             {"kind": "partials", "curve": draw_deformed(rng, geos[0])}]
    for t in tasks:
        if t["kind"] == "partials":
            t["seed"] = int(rng.integers(2**31))
    return [tasks[i] for i in rng.permutation(len(tasks))]


def polygon_deck(seed: int, deck: int) -> list[dict]:
    """Sixteen small operations and four large ones.

    The sizes of a kind's small operations are drawn one from each third (for
    family_member each half) of its range, so every deck has the same mix of
    sizes; the thirds rotate over the operations from deck to deck.
    """
    rng = deck_rng(seed, "polygon_tables", deck)
    ops = []
    for op in ("circulant_spectrum", "solve_restr2"):
        ops += [{"op": op, **dict(zip(("n", "k"), _small_nk(rng, *_stratum(5, 60, deck + j))))}
                for j in range(3)]
    ops += [{"op": "exists_nontrivial", **dict(zip(("n", "k"), _small_nk(rng)))} for _ in range(2)]
    ops += [{"op": "construct_inscribed", **draw_inscribed(rng, *_stratum(6, 60, deck + j))}
            for j in range(3)]
    ops += [{"op": "construct_2kk", **draw_2kk(rng, *_stratum(3, 30, deck + j))} for j in range(3)]
    ops += [{"op": "family_member", **draw_family(rng, *_stratum(6, 60, j, strata=2))}
            for j in range(2)]
    for _ in range(3):
        d = draw_inscribed(rng, 1800, 2400)
        d["vertices"] = inscribed_vertices(d["n"], np.asarray(d["arcs"]))
        ops.append({"op": "verify_gutkin", "large": True, **d})
    n = int(rng.integers(220, 261))
    ops.append({"op": "equiangular_family_basis", "large": True, "n": n,
                "k": int(rng.integers(2, n // 2 + 1))})
    return [ops[i] for i in rng.permutation(len(ops))]


def _spec_json(curve: dict, alpha_ref: str | None) -> dict:
    if curve["geometry"] == "E2":
        out = {"geometry": "euclidean", "c0": curve["c0"],
               "harmonics": [{"k": k, "amp": a, "phase": p} for k, a, p in curve["harmonics"]]}
    else:
        out = {"geometry": "spherical" if curve["geometry"] == "S2" else "hyperbolic",
               "R": curve["R"], "epsilon": curve["epsilon"],
               "g": [{"k": curve["k"], "amp": 1.0, "phase": curve["phase"]}]}
    if alpha_ref is not None:
        out["alpha"] = alpha_ref
    return out


def cli_deck(seed: int, deck: int, workdir: str | None) -> list[list[dict]]:
    """Blocks of commands; a block runs in order, blocks are shuffled.

    Deck 0 pins the closed-form anchors: solve-angle --k 4 and classify (24, 5).
    With ``workdir`` None no spec files are written (self-test only).
    """
    rng = deck_rng(seed, "cli_session", deck)
    tag = f"d{deck}"

    def path(name):
        return os.path.join(workdir, f"{tag}_{name}") if workdir else f"{tag}_{name}"

    k_e2 = 4 if deck == 0 else int(rng.integers(4, 13))
    k_s, k_h = int(rng.integers(4, 13)), int(rng.integers(4, 13))
    r_s, r_h = _radius(rng, "S2"), _radius(rng, "H2")
    nk = (24, 5) if deck == 0 else _small_nk(rng, 6, 60)
    ins = draw_inscribed(rng, 6, 40)
    twokk = draw_2kk(rng)
    fam = draw_family(rng, 6, 40)

    e2 = draw_e2_exact(rng)
    e2["root_index"], e2["alpha"] = 0, own_roots(e2["k"])[0]  # auto-kN takes the first root
    geo = "S2" if rng.random() < 0.5 else "H2"
    dc = draw_deformed(rng, geo, root_index=0)
    dc_half = dict(dc, epsilon=dc["epsilon"] / 2)
    ref = f"auto-k{e2['k']}"
    dref = f"auto-k{dc['k']}"
    files = {path("e2.json"): _spec_json(e2, ref), path("def.json"): _spec_json(dc, dref),
             path("def_half.json"): _spec_json(dc_half, dref)}
    circle = draw_circle(rng, "S2" if rng.random() < 0.5 else "H2")
    if workdir:
        for p, data in files.items():
            with open(p, "w") as fh:
                json.dump(data, fh)

    def fl(xs):
        return ",".join(repr(float(x)) for x in xs)

    blocks = [
        [{"args": ["solve-angle", "--k", str(k_e2)], "check": "solve_angle", "k": k_e2,
          "geometry": "E2", "radius": None}],
        [{"args": ["solve-angle", "--k", str(k_s), "--geometry", "S2", "--radius", repr(r_s)],
          "check": "solve_angle", "k": k_s, "geometry": "S2", "radius": r_s}],
        [{"args": ["solve-angle", "--k", str(k_h), "--geometry", "H2", "--radius", repr(r_h)],
          "check": "solve_angle", "k": k_h, "geometry": "H2", "radius": r_h}],
        [{"args": ["polygon", "classify", "--n", str(nk[0]), "--k", str(nk[1])],
          "check": "classify", "n": nk[0], "k": nk[1]}],
        [{"args": ["polygon", "construct", "--n", str(ins["n"]), "--k", str(ins["k"]),
                   "--arcs", fl(ins["arcs"]), "--out", path("poly.json")],
          "check": "construct", "n": ins["n"], "k": ins["k"], "inscribed": True},
         {"args": ["polygon", "verify", "--in", path("poly.json")],
          "check": "verify_in", "n": ins["n"], "k": ins["k"]}],
        [{"args": ["polygon", "construct", "--n", str(twokk["n"]), "--k", str(twokk["k"]),
                   "--params", fl(twokk["params"])],
          "check": "construct", "n": twokk["n"], "k": twokk["k"], "inscribed": False,
          "sides": twokk["sides"]}],
        [{"args": ["polygon", "family", "--n", str(fam["n"]), "--k", str(fam["k"]),
                   "--coeffs", fl(fam["coeffs"])],
          "check": "family", "n": fam["n"], "k": fam["k"], "dim": fam["dim"]}],
        [{"args": ["curve", "verify", "--spec", path("e2.json")], "check": "curve_verify_e2",
          "alpha": e2["alpha"], "heavy": True}],
        [{"args": ["curve", "residual", "--spec", path("e2.json"), "--operator", "E2"],
          "check": "residual_e2", "alpha": e2["alpha"]}],
        [{"args": ["curve", "verify", "--spec", path("def.json"), "--samples", "23"],
          "check": "curve_verify_def", "curve": dc, "heavy": True},
         {"args": ["curve", "verify", "--spec", path("def_half.json"), "--samples", "23"],
          "check": "curve_verify_def_half", "curve": dc_half, "heavy": True}],
        [{"args": ["curve", "residual", "--spec", path("def.json"), "--operator", geo],
          "check": "residual_def", "curve": dc}],
        [{"args": ["billiard", "orbit", "--spec", path("e2.json"), "--t0", repr(e2["t0"]),
                   "--steps", "24"],
          "check": "orbit_e2", "curve": e2, "steps": 24, "heavy": True}],
        [{"args": ["chords", "validate", "--circle", circle["geometry"], "--radius",
                   repr(circle["R"]), "--samples", "8", "--seed", str(int(rng.integers(1000)))],
          "check": "partials", "curve": circle, "samples": 8, "heavy": True}],
    ]
    return [blocks[i] for i in rng.permutation(len(blocks))]


def deck(workload: str, seed: int, index: int, workdir: str | None = None):
    if workload == "cli_session":
        return cli_deck(seed, index, workdir)
    if workload == "curve_lab":
        return curve_deck(seed, index)
    return polygon_deck(seed, index)


def _fingerprint(obj) -> str:
    def norm(o):
        if isinstance(o, np.ndarray):
            return o.tolist()
        if isinstance(o, dict):
            return {k: norm(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [norm(v) for v in o]
        return o
    return json.dumps(norm(obj), sort_keys=True)


def self_test(workload: str, seed: int):
    """Same seed gives identical decks; another seed gives different ones."""
    a = [_fingerprint(deck(workload, seed, i)) for i in range(2)]
    b = [_fingerprint(deck(workload, seed, i)) for i in range(2)]
    c = [_fingerprint(deck(workload, seed + 1, i)) for i in range(2)]
    _require(a == b, f"{workload}: seed {seed} does not reproduce its inputs")
    _require(a != c, f"{workload}: seeds {seed} and {seed + 1} give identical inputs")
