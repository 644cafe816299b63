"""Constant-curvature primitives on E2, S2 and the hyperboloid model of H2.

Conventions fixed here and relied on everywhere else:

* S2 is the unit sphere in R^3.
* H2 is the upper sheet (x0 > 0) of -x0^2 + x1^2 + x2^2 = -1 in Minkowski
  3-space with signature (-, +, +).
* Closed curves are parameterized counterclockwise with period 2*pi; the
  interior (convex side) lies to the left of the forward tangent.
* "Angle with the curve" always means the angle in (0, pi) measured from the
  forward tangent.
* Everything that differs between the three geometries is one row of the
  table behind ``Geometry.kernel``; formulas elsewhere are written once in
  the curvature K through sn_K, cs_K and tn_K.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import Degenerate, NonConvex, OutOfRange

__all__ = [
    "Geometry",
    "ParametricCurve",
    "circle_curve",
    "geodesic_curvature",
    "shoot_to_curve",
]

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# bracketed root finding


_BRENT_RTOL = 8.9e-16  # just above 4 machine epsilons, the least rtol brentq accepts
_BRENT_MAXITER = 100


def _brent_lane(xtol, xpre, xcur, fpre, fcur):
    """Brent's steps for one lane from a sign-changing bracket: yields each
    new abscissa, is sent f there, and returns the root."""
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre > 0) != (fcur > 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = yield xcur
    raise RuntimeError(f"brentq failed to converge after {_BRENT_MAXITER} iterations, value is {xcur!r}")


def _brentq(f, a, b, xtol):
    """Roots of f in the brackets [a, b] by Brent's method (Brent 1973, ch. 4).

    ``a`` and ``b`` broadcast to an array of lanes, one root each; scalar
    brackets give a float.  Every lane runs a step-for-step port of the widely
    used ``brentq`` C routine on its own Python floats: same steps, same
    stopping test |b - a| / 2 < (xtol + _BRENT_RTOL |x|) / 2, same iterates
    bit for bit.  ``f(x, lanes)`` is called once per round on the lanes still
    running and returns f at x.  For array brackets x is 1-d and ``lanes``
    holds the lanes' indices into the flattened brackets; for scalar brackets
    x is a float and ``lanes`` is ``()``, the index that picks a 0-d per-lane
    value whole.  Raises ValueError when a lane's f(a) and f(b) share a sign
    or f returns NaN, and RuntimeError when a lane takes _BRENT_MAXITER steps
    without converging.
    """
    def values(x, lanes):
        y = np.asarray(f(x, lanes), dtype=float).ravel().tolist()
        if any(map(math.isnan, y)):
            xi = np.ravel(x)[[math.isnan(v) for v in y].index(True)]
            raise ValueError(f"the function value at x={float(xi)!r} is NaN")
        return y

    a, b = _broadcast(a, b)
    shape, a, b = a.shape, a.ravel(), b.ravel()
    n = a.size
    if shape:
        ends = values(np.concatenate([a, b]), np.tile(np.arange(n), 2))
    else:
        ends = values(float(a[0]), ()) + values(float(b[0]), ())
    brackets = list(zip(a.tolist(), b.tolist(), ends[:n], ends[n:]))
    for xa, xb, fa, fb in brackets:
        if fa != 0.0 and fb != 0.0 and (fa > 0) == (fb > 0):
            raise ValueError(f"f(a) and f(b) must have different signs, got f({xa!r}) = {fa!r} "
                             f"and f({xb!r}) = {fb!r}")
    steps = [_brent_lane(xtol, *bracket) for bracket in brackets]
    roots = np.empty(n)
    lanes, ys = list(range(n)), [None] * n
    while lanes:
        live, xs = [], []
        for i, y in zip(lanes, ys):
            try:
                xs.append(steps[i].send(y))
                live.append(i)
            except StopIteration as done:
                roots[i] = done.value
        lanes = live
        if lanes:
            ys = values(np.array(xs) if shape else xs[0], np.array(lanes) if shape else ())
    return float(roots[0]) if shape == () else roots.reshape(shape)


def _broadcast(u, v):
    """u and v as float arrays of their common shape."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return (u, v) if u.shape == v.shape else np.broadcast_arrays(u, v)


# ---------------------------------------------------------------------------
# the per-geometry table


def _stack(cols):
    """``np.stack(cols, axis=-1)`` for columns of one shape, at half its cost
    on the 0-d and small arrays a single shot evaluates."""
    return np.concatenate([col[..., None] for col in cols], axis=-1)


def _cross(u, v):
    """``np.cross`` of stacked 3-vectors, written out as numpy computes it."""
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return _stack([u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0])


def _euclidean_dot(u, v):
    return (u * v).sum(axis=-1)


def _minkowski_dot(u, v):
    return -u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _euclidean_distance(p, q):
    d = q - p
    return np.sqrt((d * d).sum(axis=-1))


def _spherical_distance(p, q):
    cross = _cross(p, q)
    return np.arctan2(np.sqrt((cross * cross).sum(axis=-1)), (p * q).sum(axis=-1))


def _hyperbolic_distance(p, q):
    return np.arccosh(np.maximum(-_minkowski_dot(p, q), 1.0))


def _hyperbolic_normal(p, unit_t):
    # Minkowski cross product G (p x T) with G = diag(-1, 1, 1)
    n = _cross(p, unit_t) * np.array([-1.0, 1.0, 1.0])
    return n / np.sqrt(_minkowski_dot(n, n))[..., None]


def _line_side(p, d):
    p0, p1, d0, d1 = p[..., 0], p[..., 1], d[..., 0], d[..., 1]

    def f(q, lanes):
        return d0[lanes] * (q[..., 1] - p1[lanes]) - d1[lanes] * (q[..., 0] - p0[lanes])
    return f


def _plane_side(p, d):
    # great circle / H2 geodesic = surface cut by the plane span(p, d)
    n = _cross(p, d)
    n0, n1, n2 = n[..., 0], n[..., 1], n[..., 2]

    def f(q, lanes):
        return q[..., 0] * n0[lanes] + q[..., 1] * n1[lanes] + q[..., 2] * n2[lanes]
    return f


class _Kernel(NamedTuple):
    """Everything that depends on the geometry, for curvature K = 0, 1, -1.

    ``sn``, ``cs``, ``tn`` are sn_K, cs_K, tn_K: (x, 1, x) on E2, (sin, cos,
    tan) on S2, (sinh, cosh, tanh) on H2; ``arccot`` inverts 1/tn_K.
    ``dot`` is the ambient inner product, ``normal(p, T)`` the unit normal on
    the convex side of a counterclockwise curve, and ``side(p, d)``, for
    lanes of points p and directions d (shape lanes + (dim,)), a function
    ``f(q, lanes)`` vanishing exactly on the geodesics through p[lanes] along
    d[lanes]; q stacks points (..., len(lanes), dim), and ``lanes`` is an
    index array, ``...`` for all lanes, or ``()`` for 0-d lanes.
    ``embed(x, y, pole)`` stacks planar x, planar y and the pole coordinate in
    ambient order; ``pole`` is a function, and E2, which has no pole, never
    calls it.  ``max_radius`` bounds circle radii (pi/2 on S2).
    Points are stacked (..., dim), and every entry is written out in
    components, so a batch rounds exactly like its points one at a time and
    no result depends on the BLAS build.
    """

    K: float
    sn: Callable
    cs: Callable
    tn: Callable
    arccot: Callable
    dot: Callable
    distance: Callable
    project: Callable
    normal: Callable
    side: Callable
    embed: Callable
    max_radius: float


_KERNELS = {
    "E2": _Kernel(
        K=0.0, sn=lambda x: x, cs=np.ones_like, tn=lambda x: x, arccot=lambda x: 1.0 / x,
        dot=_euclidean_dot, distance=_euclidean_distance, project=lambda x: x,
        normal=lambda p, t: t[..., ::-1] * np.array([-1.0, 1.0]), side=_line_side,
        embed=lambda x, y, pole: _stack([x, y]), max_radius=np.inf),
    "S2": _Kernel(
        K=1.0, sn=np.sin, cs=np.cos, tn=np.tan, arccot=lambda x: np.arctan2(1.0, x),
        dot=_euclidean_dot, distance=_spherical_distance,
        project=lambda x: x / np.sqrt(_euclidean_dot(x, x))[..., None], normal=_cross,
        side=_plane_side,
        embed=lambda x, y, pole: _stack([x, y, pole()]), max_radius=np.pi / 2),
    "H2": _Kernel(
        K=-1.0, sn=np.sinh, cs=np.cosh, tn=np.tanh, arccot=lambda x: np.arctanh(1.0 / x),
        dot=_minkowski_dot, distance=_hyperbolic_distance,
        project=lambda x: x / np.sqrt(-_minkowski_dot(x, x))[..., None], normal=_hyperbolic_normal,
        side=_plane_side, embed=lambda x, y, pole: _stack([pole(), x, y]),
        max_radius=np.inf),
}


class Geometry(enum.Enum):
    EUCLIDEAN = "E2"
    SPHERICAL = "S2"
    HYPERBOLIC = "H2"

    def __init__(self, tag: str):
        self.kernel = _KERNELS[tag]


def _check_radius(geometry: Geometry, radius) -> float:
    """Circle radius as a float, inside (0, geometry.kernel.max_radius)."""
    bound = geometry.kernel.max_radius
    if radius is None or not 0.0 < radius < bound:
        raise OutOfRange(f"{geometry.value} radius must lie in (0, {bound:g}), got {radius!r}")
    return float(radius)


def mdot(geometry: Geometry, u, v):
    """Ambient inner product: Euclidean on E2/S2, Minkowski (-,+,+) on H2."""
    return geometry.kernel.dot(np.asarray(u), np.asarray(v))


def mnorm(geometry: Geometry, v):
    return np.sqrt(mdot(geometry, v, v))


def project_to_manifold(geometry: Geometry, coords: np.ndarray) -> np.ndarray:
    """Rescale coords back onto the surface (controls drift in long chains)."""
    return geometry.kernel.project(coords)


def _distance_coords(geometry: Geometry, p, q):
    return geometry.kernel.distance(p, q)


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class ParametricCurve:
    """Closed curve given by callables on a fixed 2*pi parameter interval.

    ``point``/``velocity``/``acceleration`` take t of any shape and return
    stacked points of shape ``t.shape + (dim,)``, elementwise in t and
    preserving dtype (so the finite-difference oracles can evaluate them in
    extended precision, and a batch of parameters rounds like each one alone).
    """

    geometry: Geometry
    point: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]
    acceleration: Callable[[np.ndarray], np.ndarray]

    def unit_tangent(self, t) -> np.ndarray:
        """Unit tangent at t of any shape, stacked as ``t.shape + (dim,)``."""
        t = np.asarray(t, dtype=float)
        v = np.asarray(self.velocity(t), dtype=float)
        speed = mnorm(self.geometry, v)
        if (speed < 1e-10).any():
            i = np.flatnonzero(speed < 1e-10)[0]
            raise Degenerate(f"curve speed {speed.flat[i]:.3e} at t={t.flat[i]}")
        return v / speed[..., None]


def circle_curve(geometry: Geometry, radius: float) -> ParametricCurve:
    """Geodesic circle of the given radius, counterclockwise, period 2*pi.

    Geodesic curvature is 1/R, cot R, coth R and length 2*pi*R,
    2*pi*sin R, 2*pi*sinh R on E2, S2, H2 respectively.
    """
    r = _check_radius(geometry, radius)
    sr, cr = geometry.kernel.sn(r), geometry.kernel.cs(r)
    embed = geometry.kernel.embed

    def point(t):
        t = np.asarray(t)
        return embed(sr * np.cos(t), sr * np.sin(t), lambda: cr * np.ones_like(t))

    def velocity(t):
        t = np.asarray(t)
        return embed(-sr * np.sin(t), sr * np.cos(t), lambda: np.zeros_like(t))

    def acceleration(t):
        t = np.asarray(t)
        return embed(-sr * np.cos(t), -sr * np.sin(t), lambda: np.zeros_like(t))

    return ParametricCurve(geometry, point, velocity, acceleration)


def geodesic_curvature(curve: ParametricCurve, t):
    """Signed geodesic curvature, positive for counterclockwise convex curves.

    Computed as <a, N> / |v|^2 where a is the ambient acceleration and N the
    inward unit normal; the surface-normal component of a drops out because N
    is tangent.  ``t`` may have any shape; a scalar gives a float, an array
    the curvature at each of its elements.
    """
    g = curve.geometry
    t = np.asarray(t, dtype=float)
    v = np.asarray(curve.velocity(t), dtype=float)
    speed2 = mdot(g, v, v)
    if (speed2 < 1e-20).any():
        raise Degenerate(f"curve speed below 1e-10 at t={t.flat[np.flatnonzero(speed2 < 1e-20)[0]]}")
    a = np.asarray(curve.acceleration(t), dtype=float)
    p = np.asarray(curve.point(t), dtype=float)
    n = g.kernel.normal(project_to_manifold(g, p), v / np.sqrt(speed2)[..., None])
    kappa = mdot(g, a, n) / speed2
    return float(kappa) if kappa.ndim == 0 else kappa


def _chord_tangent_at_arrival(geometry, p, d, length):
    """Unit tangent at arc length ``length`` of the geodesic from p along d
    (lengths of shape s, points of shape s + (dim,))."""
    kern = geometry.kernel
    length = np.asarray(length)[..., None]
    return -kern.K * kern.sn(length) * p + kern.cs(length) * d


_SHOT_GRID = 256  # samples of the side function along the curve, before polishing


_LANE_BLOCK = 1024  # shots evaluated together; bounds the (grid x lanes) arrays


def shoot_to_curve(curve: ParametricCurve, t0, theta):
    """Launch geodesic chords into the convex side and find where they land.

    From curve(t0), shoot at angle ``theta`` (measured from the forward
    tangent, into the interior) and return ``(t1, arrival_angle,
    chord_length)`` for its other intersection with the curve.  ``arrival_angle``
    is the angle between the arriving chord direction and the forward tangent
    at t1, so equiangular chords report arrival_angle == theta.  A chord that
    crosses the curve more than once on the sampling grid raises NonConvex.

    ``t0`` and ``theta`` broadcast against each other, one shot per element:
    scalars give three floats, arrays three arrays of the broadcast shape,
    each element equal bit for bit to the shot made alone.
    """
    t0, theta = _broadcast(t0, theta)
    steep = ~((1e-6 <= theta) & (theta <= np.pi - 1e-6))
    if steep.any():
        raise OutOfRange(f"launch angle {theta.flat[np.flatnonzero(steep)[0]]} too close to tangential")
    if t0.ndim == 0:  # one shot runs on 0-d lanes, numpy's cheapest shape
        return tuple(float(v) for v in _shoot_lanes(curve, t0, theta))
    out = np.empty((3, t0.size))
    flat_t0, flat_theta = t0.ravel(), theta.ravel()
    for i in range(0, t0.size, _LANE_BLOCK):
        out[:, i:i + _LANE_BLOCK] = _shoot_lanes(curve, flat_t0[i:i + _LANE_BLOCK],
                                                 flat_theta[i:i + _LANE_BLOCK])
    t1, arrival, length = out.reshape((3,) + t0.shape)
    return t1, arrival, length


def _shoot_lanes(curve, t0, theta):
    """shoot_to_curve on lanes of shape () or (n,): (t1, arrival, length)."""
    g = curve.geometry
    kern = g.kernel
    p = project_to_manifold(g, np.asarray(curve.point(t0), dtype=float))
    tan = curve.unit_tangent(t0)
    nrm = kern.normal(p, tan)
    d = np.cos(theta)[..., None] * tan + np.sin(theta)[..., None] * nrm
    d = d / mnorm(g, d)[..., None]

    side = kern.side(p, d)
    guard = 1e-6
    ts = np.linspace(t0 + guard, t0 + TWO_PI - guard, _SHOT_GRID)  # (grid,) + lanes
    vals = side(np.asarray(curve.point(ts), dtype=float), ...)

    hits = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    count = hits.sum(axis=0)
    if (count != 1).any():
        j = np.flatnonzero(count != 1)[0]
        if count.flat[j] == 0:
            raise Degenerate("no forward intersection found (curve convex and closed?)")
        raise NonConvex(f"the chord from t0={t0.flat[j]} at theta={theta.flat[j]} crosses the curve "
                        f"{count.flat[j]} times")
    # polish each lane's one sign change; where the grid hit 0 exactly, f(a) = 0
    # makes the bracket's left end the root
    m = t0.size
    at = hits.argmax(axis=0) * m + np.arange(m).reshape(t0.shape)  # flat index of each bracket
    t1 = _brentq(lambda t, lanes: side(np.asarray(curve.point(t), dtype=float), lanes),
                 ts.ravel()[at], ts.ravel()[at + m], xtol=1e-13)

    q = project_to_manifold(g, np.asarray(curve.point(t1), dtype=float))
    length = _distance_coords(g, p, q)
    w = _chord_tangent_at_arrival(g, p, d, length)
    c = mdot(g, w, curve.unit_tangent(t1)) / mnorm(g, w)
    return t1 % TWO_PI, np.arccos(np.minimum(np.maximum(c, -1.0), 1.0)), length
