"""Closed forms and polygon checks that only the tests use, kept here as oracles.

Each one states a result of the paper independently of the code under test:
the chord length of an exact single-harmonic E2 Gutkin curve, the E2 chord
equation's residual written out, the circulant eigenvalues as the plain
O(nk) sum over the first row, the float zero tests the polygon zero set was
once decided by, the forced contact angle, the interior angles, per-vertex
angle loops with the arccos of the cosine as an independent formula, the
beta-angle sum and the angle periodicity of a Gutkin polygon, a canonical
similarity frame for comparing polygons, the extended-precision
arc-length inversions of validate_partials, to be checked against
cold-started ones, the identity a cot(alpha) cs(f*) = cot c that reduces the
linearized S2/H2 chord equation to k tan c = tan kc, the chord record and the partials report with every
quantity evaluated where it is used (18 stencil ends a sample), the
references for the shared evaluations, the curve formulas evaluated on stacked (..., dim)
points, the reference for the coordinate columns the curves return, and the
chord shot on a grid of its own, the reference for the shot on the curve's
cached ring.  The random curves the curve-layer properties are checked on
live here too, and an H2 circle's bare jet, which no builder checks.
"""

import numpy as np
from hypothesis import reject
from hypothesis import strategies as st

from equichord import (
    ArcLengthParam,
    ChordData,
    DeformedCircle,
    FourierCurveE2,
    Geometry,
    Harmonic,
    Points,
    TrigPolynomial,
    build_deformed_circle,
    build_e2_curve,
    circle_curve,
    f_star,
    geodesic_curvature,
    lemma_constants,
    validate_partials,
)
from equichord.angles import _polefree, _restr2_residual
from equichord.errors import Degenerate, NonConvex, NotAdmissible, OutOfRange
from equichord.geometry import TWO_PI, _broadcast, _chord_tangent_at_arrival, _newton, mnorm
from equichord.polygons import GutkinPolygon, _angle, verify_gutkin


@st.composite
def curves(draw, kinds=("E2", "S2", "H2", "S2 circle", "H2 circle"), h2_max_radius=2.5):
    """A random convex closed curve of one of ``kinds``: a Fourier E2 curve, or
    an S2/H2 circle or deformed circle, of radius at most ``h2_max_radius``
    on H2."""
    kind = draw(st.sampled_from(kinds))
    if kind == "E2":
        c0 = draw(st.floats(0.5, 2.0))
        hs = tuple(Harmonic(draw(st.integers(2, 8)), draw(st.floats(-0.15, 0.15)) * c0,
                            draw(st.floats(-np.pi, np.pi)))
                   for _ in range(draw(st.integers(0, 2))))
        return build_e2_curve(FourierCurveE2(c0=c0, harmonics=hs))
    geometry = Geometry(kind[:2])
    R = draw(st.floats(0.3, 1.4) if geometry is Geometry.SPHERICAL else st.floats(0.3, h2_max_radius))
    if kind.endswith("circle"):
        return circle_curve(geometry, R)
    g = TrigPolynomial(0.0, (Harmonic(draw(st.integers(2, 7)), 1.0, draw(st.floats(-np.pi, np.pi))),))
    spec = DeformedCircle(geometry=geometry, R=R, epsilon=draw(st.floats(0.0, 0.01)), g=g,
                          alpha=draw(st.floats(0.3, 2.8)))
    try:
        return build_deformed_circle(spec)
    except NonConvex:
        reject()


def h2_circle_jet(R):
    """The jet of the H2 circle of radius R about the pole, with no radius check:
    a user's jet, which the library shoots and reads past the hyperboloid's bound,
    where its builders refuse the circle."""
    s, c = np.sinh(R), np.cosh(R)

    def jet(t, order):
        x, y = s * np.cos(t), s * np.sin(t)
        zero = np.zeros_like(x)
        return (Points((c + zero, x, y)), Points((zero, -y, x)), Points((zero, -x, -y)))[:order + 1]
    return jet


def _stacked_trig(f: TrigPolynomial, t):
    """f(t) summed onto an array of zeros, as the stacked layout evaluated it."""
    out = np.zeros_like(np.asarray(t, dtype=np.result_type(t, 1.0))) + f.c0
    for h in f.harmonics:
        out = out + h.amp * np.cos(h.k * np.asarray(t) + h.phase)
    return out


def stacked_derivatives(curve_spec, t):
    """(point, velocity, acceleration) at t, each stacked (..., dim), by the
    formulas of the stacked point layout.  ``curve_spec`` is a FourierCurveE2,
    a DeformedCircle, or (geometry, R) for a circle."""
    t = np.asarray(t)
    cos, sin = np.cos(t), np.sin(t)
    if isinstance(curve_spec, FourierCurveE2):
        x, y = curve_spec.c0 * np.sin(t), curve_spec.c0 * (1.0 - np.cos(t))
        for h in curve_spec.harmonics:
            k, A, p = h.k, h.amp, h.phase
            up, um = (k + 1) * t + p, (k - 1) * t + p
            x = x + A * ((np.sin(up) - np.sin(p)) / (2 * (k + 1)) + (np.sin(um) - np.sin(p)) / (2 * (k - 1)))
            y = y + A * ((np.cos(p) - np.cos(up)) / (2 * (k + 1)) + (np.cos(um) - np.cos(p)) / (2 * (k - 1)))
        r, dr = _stacked_trig(curve_spec.rho, t), _stacked_trig(curve_spec.rho.derivative(), t)
        return (np.stack([x, y], axis=-1), np.stack([r * cos, r * sin], axis=-1),
                np.stack([dr * cos - r * sin, dr * sin + r * cos], axis=-1))
    # a circle is the deformed circle with epsilon = 0 and an empty g
    if isinstance(curve_spec, DeformedCircle):
        geometry, R, g, eps = curve_spec.geometry, curve_spec.R, curve_spec.g, curve_spec.epsilon
    else:
        (geometry, R), g, eps = curve_spec, TrigPolynomial(), 0.0
    K, S, C = geometry.kernel.K, geometry.kernel.sn, geometry.kernel.cs
    r = float(R) + eps * _stacked_trig(g, t)
    dr, ddr = eps * _stacked_trig(g.derivative(), t), eps * _stacked_trig(g.derivative(2), t)
    s, c = S(r), C(r)
    dr2 = dr * dr
    rad = -K * s * dr2 + c * ddr
    cols = ([s * cos, s * sin, C(r)],
            [c * dr * cos - s * sin, c * dr * sin + s * cos, -K * s * dr],
            [rad * cos - 2 * c * dr * sin - s * cos, rad * sin + 2 * c * dr * cos - s * sin,
             -K * (c * dr2 + s * ddr)])
    order = {Geometry.EUCLIDEAN: [0, 1], Geometry.SPHERICAL: [0, 1, 2], Geometry.HYPERBOLIC: [2, 0, 1]}[geometry]
    return tuple(np.stack([col[i] for i in order], axis=-1) for col in cols)


def unit_tangent(geometry, v) -> tuple:
    """The velocity columns v scaled to unit length, with no speed check."""
    speed = mnorm(geometry, v)
    return tuple(c / speed for c in v)


def grid_shot(curve, t0: float, theta: float) -> tuple:
    """One chord shot with a grid of its own: the side function sampled at 256
    points from t0 + 1e-6 to t0 + 2 pi - 1e-6, evaluated for this shot, its one
    sign change polished by Newton from the regula falsi point of the grid
    bracket.  Returns (t1, arrival, length) as floats, and raises as
    shoot_to_curve does on a chord that crosses the curve other than once."""
    kern = curve.geometry.kernel
    t0, theta = np.float64(t0) % TWO_PI, np.float64(theta)
    p = kern.project(curve.point(t0))
    tan = unit_tangent(curve.geometry, curve.velocity(t0))
    d = tuple(np.cos(theta) * tc + np.sin(theta) * nc for tc, nc in zip(tan, kern.normal(p, tan)))
    d = tuple(c / np.sqrt(kern.dot(d, d)) for c in d)
    side, slope = kern.side(p, d)
    start, stop = t0 + 1e-6, t0 + TWO_PI - 1e-6
    ts = np.arange(256.0) * ((stop - start) / 255) + start
    ts[-1] = stop
    vals = side(curve.point(ts))
    hits = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    count = np.count_nonzero(hits)
    if count == 0:
        raise Degenerate("no forward intersection found")
    if count > 1:
        raise NonConvex(f"the chord from t0={t0} at theta={theta} crosses the curve {count} times")
    j = hits.argmax()
    a, b, fa, fb = ts[j], ts[j + 1], vals[j], vals[j + 1]
    t1 = _newton(lambda t: (side(curve.point(t)), slope(curve.velocity(t))),
                 *((a, b) if fa < 0 else (b, a)), a - fa * (b - a) / (fb - fa))
    q = kern.project(curve.point(t1))
    length = kern.distance(p, q)
    w = _chord_tangent_at_arrival(curve.geometry, p, d, length)
    c = kern.dot(w, unit_tangent(curve.geometry, curve.velocity(t1))) / np.sqrt(kern.dot(w, w))
    return float(t1 % TWO_PI), float(np.arccos(np.clip(c, -1.0, 1.0))), float(length)


def stencil_inversions(curve, samples: int, seed: int = 0) -> list:
    """(arclen, s, t) of every t_of_s call on an (ends, steps, samples) array one
    validate_partials run makes: the warm-started stencil inversions.  The
    method is wrapped for the length of the run only."""
    calls = []
    warm = ArcLengthParam.t_of_s

    def recording(self, s, start=None):
        t = warm(self, s, start)
        if np.ndim(s) == 3:
            calls.append((self, s, t))
        return t

    ArcLengthParam.t_of_s = recording
    try:
        validate_partials(curve, samples=samples, seed=seed)
    finally:
        ArcLengthParam.t_of_s = warm
    return calls


def chord_data(curve, x, y, arclen) -> ChordData:
    """The chord record with every quantity evaluated where it is used: the
    ends' points for the chord, the frames and ``geodesic_curvature`` each
    evaluating the velocity (and the frames and the curvature the point)
    again.  The reference for chord_data's shared evaluations; it refuses
    nothing."""
    g = curve.geometry
    kern = g.kernel
    x, y = _broadcast(x, y)
    t = arclen.t_of_s(np.stack([x, y]))
    p, q = zip(*kern.project(curve.point(t)))
    L = kern.distance(p, q)
    tan = unit_tangent(g, curve.velocity(t))
    normal = kern.normal(kern.project(curve.point(t)), tan)
    w = tuple(qc - pc for pc, qc in zip(p, q))
    phi, psi = np.arctan2(np.abs(kern.dot(w, normal)), kern.dot(w, tan))
    kx, ky = geodesic_curvature(curve, t)
    inv_sin, inv_tan = 1.0 / kern.sn(L), 1.0 / kern.tn(L)
    sin_phi, sin_psi = np.sin(phi), np.sin(psi)
    fields = dict(
        x=x, y=y, tx=t[0], ty=t[1], L=L, phi=phi, psi=psi,
        Lx=-np.cos(phi), Ly=np.cos(psi),
        Lxx=sin_phi * sin_phi * inv_tan - kx * sin_phi,
        Lyy=sin_psi * sin_psi * inv_tan - ky * sin_psi,
        Lxy=sin_phi * sin_psi * inv_sin,
    )
    if x.ndim == 0:
        fields = {name: float(value) for name, value in fields.items()}
    return ChordData(**fields)


def arccos_chord_angles(curve, x, y, arclen) -> tuple:
    """(phi, psi) as chord_data measured them before the atan2 form: the unit
    departure direction d0 = (q - cs(L) p) / sn(L), the geodesic's direction
    d1 at q, and the arccos of each one's cosine with the unit tangent.  An
    independent reference for the end angles, off by about eps / sin angle."""
    g = curve.geometry
    kern = g.kernel
    x, y = _broadcast(x, y)
    t = arclen.t_of_s(np.stack([x, y]))
    p, q = zip(*kern.project(curve.point(t)))
    L = kern.distance(p, q)
    cs, sn = kern.cs(L), kern.sn(L)
    d0 = tuple((qc - pc * cs) / sn for pc, qc in zip(p, q))
    d1 = _chord_tangent_at_arrival(g, p, d0, L)
    tp, tq = zip(*unit_tangent(g, curve.velocity(t)))
    phi = np.arccos(np.clip(kern.dot(d0, tp) / mnorm(g, d0), -1.0, 1.0))
    psi = np.arccos(np.clip(kern.dot(d1, tq) / mnorm(g, d1), -1.0, 1.0))
    return phi, psi


def stencil_partials(curve, samples: int, seed: int, h: float, floor: float) -> dict:
    """validate_partials' report at step h, with the second partials' relative
    errors floored at ``floor`` and the first partials' at 1e-3, and the
    stencil's 49 chords evaluated separately: 98 ends a sample, each inverted
    and evaluated on its own, and the chord records from the oracle
    chord_data.  The reference for the stencil's 14 shared ends and its
    broadcast distance; it refuses nothing."""
    arclen = ArcLengthParam(curve)
    Ltot = arclen.total_length
    draws = np.random.default_rng(seed).uniform([0.0, 0.2], [Ltot, 0.8], size=(samples, 2))
    # chord (i, j), at row 7 i + j, runs from x + (i - 3) h to y + (j - 3) h
    sx = np.repeat(np.arange(-3.0, 4.0), 7)[:, None] * h
    sy = np.tile(np.arange(-3.0, 4.0), 7)[:, None] * h
    names = ("Lx", "Ly", "Lxx", "Lyy", "Lxy")

    def d1(f):  # 60 h f' on f at (-3, ..., 3) h
        return 45 * (f[4] - f[2]) - 9 * (f[5] - f[1]) + (f[6] - f[0])

    def d2(f):  # 180 h^2 f''
        return 270 * (f[2] + f[4]) - 27 * (f[1] + f[5]) + 2 * (f[0] + f[6]) - 490 * f[3]

    worst = np.zeros(len(names))
    for lo in range(0, len(draws), 512):
        block = draws[lo:lo + 512]
        x = block[:, 0]
        y = x + block[:, 1] * Ltot
        with np.errstate(invalid="ignore"):
            cd = chord_data(curve, x, y, arclen)
            s = np.stack([x + sx, y + sy])
            s_end = np.stack([cd.x, cd.y])[:, None]
            t_end = np.stack([cd.tx, cd.ty])[:, None]
            t = arclen.t_of_s(s, start=t_end + (s - s_end) / arclen._s_and_slope(t_end)[1])
            p, q = zip(*curve.point(t))
            d = curve.geometry.kernel.distance(p, q).reshape((7, 7) + x.shape)
        fd = np.stack([
            d1(d[:, 3]) / (60 * h),
            d1(d[3]) / (60 * h),
            d2(d[:, 3]) / (180 * h * h),
            d2(d[3]) / (180 * h * h),
            d1(d1(d)) / (3600 * h * h),
        ])
        ana = np.stack([getattr(cd, name) for name in names])
        rel = np.abs(fd - ana) / np.maximum(np.abs(ana), np.array([1e-3, 1e-3, floor, floor, floor])[:, None])
        worst = np.maximum(worst, rel.max(axis=1))
    errs = dict(zip(names, worst.tolist()))
    return {"geometry": curve.geometry.value, "samples": samples, "step": h,
            "max_rel_err": max(errs.values()), "per_quantity": errs}


def gutkin_chord_length_formula(spec, alpha: float, t):
    """Chord length L(t) = 2 sin(a) (c0 + amp cos(k a) cos(kt + phase)).

    Valid for a single-harmonic curve whose k satisfies k tan a = tan(k a);
    equals the measured geodesic distance between gamma(t - a) and
    gamma(t + a).
    """
    if len(spec.harmonics) != 1:
        raise OutOfRange("closed-form chord length needs exactly one harmonic")
    h = spec.harmonics[0]
    if abs(_polefree(h.k, alpha)) > 1e-8:
        raise NotAdmissible(
            f"alpha={alpha} does not satisfy k tan(alpha) = tan(k alpha) for k={h.k}"
        )
    t = np.asarray(t)
    return 2 * np.sin(alpha) * (spec.c0 + h.amp * np.cos(h.k * alpha) * np.cos(h.k * t + h.phase))


def e2_residual_formula(f: TrigPolynomial, alpha: float):
    """cot(a) (f(t+a) - f(t-a)) - (f'(t+a) + f'(t-a)), the E2 chord residual
    written out: the reference for s2_residual_operator on E2 at (c, a) =
    (alpha, 1)."""
    df = f.derivative()
    cot = np.cos(alpha) / np.sin(alpha)

    def residual(t):
        t = np.asarray(t)
        return cot * (f(t + alpha) - f(t - alpha)) - (df(t + alpha) + df(t - alpha))

    return residual



def linearized_coefficient_check(geometry: Geometry, R: float, alpha: float):
    """(a cot(alpha) cs(f_star), cot c) -- equal for every (R, alpha).

    The equality is what reduces the linearized chord equation to
    k tan c = tan(kc).
    """
    c, a = lemma_constants(geometry, R, alpha)
    lhs = a * (np.cos(alpha) / np.sin(alpha)) * geometry.kernel.cs(f_star(geometry, R, alpha))
    return float(lhs), float(np.cos(c) / np.sin(c))

ZERO_TOL = 1e-9  # the float zero tests' threshold


def float_zero_set(lam, scale: float) -> tuple:
    """The r with |lambda_r| below ZERO_TOL of the row scale max |row_nu|: the
    float zero test circulant_spectrum made before its zero set was decided in
    integers.  At (5742, 101) it admits r = 2473 and 3269, where lambda_r is
    3.4e-11 (3.1e-10 of the scale) at 60 digits."""
    return tuple(int(r) for r in np.flatnonzero(np.abs(lam) / scale < ZERO_TOL))


def float_restr2_roots(n: int, k: int) -> list:
    """The r in [2, n-2] with |rho_r| < ZERO_TOL, the float test solve_restr2
    made before its roots were decided in integers.  The threshold is not
    scaled, and rho_r falls below it at small r as n grows: from (1040, 2) on
    it admits non-roots, such as r = 2 at (1900, 2), where rho_r = 9.0e-11."""
    r = np.arange(2, n - 1)
    return r[np.abs(_restr2_residual(n, k, r)) < ZERO_TOL].tolist()


def direct_circulant_spectrum(n: int, k: int):
    """(eigenvalues, zero set, row scale) of the (n, k) constraint matrix by
    the direct sum lambda_r = sum_{nu<k} row_nu omega^{nu r}, row_nu =
    omega^{nu-m} - omega^{m-nu}, m = (k - 1)/2, over a k x n table of powers.

    The zero set is ``float_zero_set`` of these eigenvalues.
    """
    m = (k - 1) / 2.0
    nu = np.arange(k)
    row = np.exp(2j * np.pi * (nu - m) / n) - np.exp(2j * np.pi * (m - nu) / n)
    lam = row @ np.exp(2j * np.pi * np.outer(nu, np.arange(n)) / n)
    scale = float(np.abs(row).max())
    return lam, float_zero_set(lam, scale), scale


def contact_angle(n: int, k: int) -> float:
    """pi (k - 1) / n, the forced contact angle of any Gutkin (n, k)-gon."""
    if n < 3 or not 2 <= k <= n - 1:
        raise OutOfRange(f"no k-diagonals for (n, k) = ({n}, {k})")
    return np.pi * (k - 1) / n


def interior_angles(v: np.ndarray) -> np.ndarray:
    """Interior angle at each vertex, between -e[i-1] and e[i] for the edges
    e[i] = v[i+1] - v[i], by the array routine verify_gutkin measures with."""
    e = np.roll(v, -1, axis=0) - v
    return _angle(-np.roll(e, 1, axis=0), e)


def arccos_angle(a, b, c) -> float:
    """Unsigned angle at b between rays b->a and b->c as the arccos of its
    cosine, the formula verify_gutkin measured with before atan2."""
    u, w = a - b, c - b
    cosv = (u @ w) / (np.linalg.norm(u) * np.linalg.norm(w))
    return float(np.arccos(np.clip(cosv, -1.0, 1.0)))


def vertex_angles(v: np.ndarray, k: int, angle=arccos_angle):
    """(contact angles, betas, interior angles) by per-vertex loops over the
    literal rays, each measured by ``angle(a, b, c)`` at b.  The contact
    angles are interleaved (departure at v_i, arrival at v_{i+k})."""
    n = len(v)
    contact = []
    for i in range(n):
        contact.append(angle(v[(i + 1) % n], v[i], v[(i + k) % n]))
        contact.append(angle(v[(i + k - 1) % n], v[(i + k) % n], v[i]))
    betas = [angle(v[(i - k) % n], v[i], v[(i + k) % n]) for i in range(n)]
    interior = [angle(v[(i - 1) % n], v[i], v[(i + 1) % n]) for i in range(n)]
    return np.array(contact), np.array(betas), np.array(interior)


def beta_sum_check(p: GutkinPolygon) -> float:
    """|alpha - (pi (n - 2) - sum beta_i) / (2n)|; undefined at n = 2k."""
    if p.n == 2 * p.k:
        raise OutOfRange("beta angles do not exist when n = 2k")
    betas = p.beta_angles
    if betas is None:
        betas = verify_gutkin(p.vertices, p.k)["beta_angles"]
    predicted = (np.pi * (p.n - 2) - betas.sum()) / (2 * p.n)
    return float(abs(p.alpha - predicted))


def angle_periodicity_check(p: GutkinPolygon, tol: float = 1e-9) -> bool:
    """Interior angle at v_i equals the one at v_{i+k-1}, for all i."""
    ang = interior_angles(p.vertices)
    shifted = np.roll(ang, -(p.k - 1) % p.n)
    return bool(np.abs(ang - shifted).max() < tol)


def normalize_similarity(p: GutkinPolygon) -> GutkinPolygon:
    """Canonical placement: v0 at the origin, v1 on the positive x axis;
    scale so the k-diagonal is 1 when n = 2k, else perimeter 1."""
    v = p.vertices - p.vertices[0]
    ang = np.arctan2(v[1, 1], v[1, 0])
    rot = np.array([[np.cos(-ang), -np.sin(-ang)], [np.sin(-ang), np.cos(-ang)]])
    v = v @ rot.T
    if p.n == 2 * p.k:
        scale = np.linalg.norm(v[p.k] - v[0])
    else:
        scale = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum()
    v = v / scale
    return GutkinPolygon(n=p.n, k=p.k, vertices=v, alpha=p.alpha,
                         max_residual=p.max_residual, beta_angles=p.beta_angles)
