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
* A point, or a batch of points, is a tuple of coordinate columns, (x, y) on
  E2 and (x0, x1, x2) on S2 and H2: numpy scalars for one point, arrays for
  a batch.  Curves return ``Points``, which ``np.asarray`` stacks (..., dim).
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
    "Points",
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


def _brentq(f, a, b, xtol, fa=None, fb=None):
    """Roots of f in the brackets [a, b] by Brent's method (Brent 1973, ch. 4).

    ``a`` and ``b`` broadcast to an array of lanes, one root each; scalar
    brackets give a float.  Every lane runs a step-for-step port of the widely
    used ``brentq`` C routine on its own Python floats: same steps, same
    stopping test |b - a| / 2 < (xtol + _BRENT_RTOL |x|) / 2, same iterates
    bit for bit.  ``f(x, lanes)`` is called once per round on the lanes still
    running and returns f at x.  For array brackets x is 1-d and ``lanes``
    holds the lanes' indices into the flattened brackets; for scalar brackets
    x is a float and ``lanes`` is None.  ``fa`` and ``fb``, when given, are
    f(a) and f(b) in the brackets' shape, known to the caller, and f is not
    evaluated there again.  Raises ValueError when a lane's f(a) and f(b)
    share a sign or f is NaN, and RuntimeError when a lane takes
    _BRENT_MAXITER steps without converging.
    """
    def checked(x, y):
        """f's values y at x as a list of floats; ValueError at the first NaN."""
        y = np.asarray(y, dtype=float).ravel().tolist() if shape else [float(y)]
        if any(map(math.isnan, y)):
            xi = np.ravel(x)[list(map(math.isnan, y)).index(True)]
            raise ValueError(f"the function value at x={float(xi)!r} is NaN")
        return y

    a, b = _broadcast(a, b)
    shape, a, b = a.shape, a.ravel(), b.ravel()
    n = a.size
    if fa is not None:
        ends = checked(a, fa) + checked(b, fb)
    elif shape:
        ends = checked(np.concatenate([a, b]), f(np.concatenate([a, b]), np.tile(np.arange(n), 2)))
    else:
        ends = checked(a, f(float(a[0]), None)) + checked(b, f(float(b[0]), None))
    brackets = list(zip(a.tolist(), b.tolist(), ends[:n], ends[n:]))
    for xa, xb, ya, yb in brackets:
        if ya != 0.0 and yb != 0.0 and (ya > 0) == (yb > 0):
            raise ValueError(f"f(a) and f(b) must have different signs, got f({xa!r}) = {ya!r} "
                             f"and f({xb!r}) = {yb!r}")
    steps = [_brent_lane(xtol, *bracket) for bracket in brackets]
    roots = [0.0] * n
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
            ys = checked(xs, f(np.array(xs), np.array(lanes)) if shape else f(xs[0], None))
    return roots[0] if shape == () else np.array(roots).reshape(shape)


def _broadcast(u, v):
    """u and v as float arrays of their common shape."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return (u, v) if u.shape == v.shape else np.broadcast_arrays(u, v)


# ---------------------------------------------------------------------------
# the per-geometry table


class Points(tuple):
    """Coordinate columns of a point or a batch of points; ``np.asarray``
    stacks them (..., dim), the one place points are stacked."""

    __slots__ = ()

    def __array__(self, dtype=None, copy=None):
        return np.stack(np.broadcast_arrays(*self), axis=-1, dtype=dtype)


def _cross(u, v):
    """Cross product of 3-vector columns, written out as ``np.cross`` computes it."""
    u0, u1, u2 = u
    v0, v1, v2 = v
    return u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0


# dot products add in the order numpy's sum over a stacked last axis does: (a0 + a1) + a2
def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _minkowski_dot(u, v):
    return -u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _scale(cols, s):
    return tuple(c / s for c in cols)


def _euclidean_distance(p, q):
    d0, d1 = q[0] - p[0], q[1] - p[1]
    return np.sqrt(d0 * d0 + d1 * d1)


def _spherical_distance(p, q):
    cross = _cross(p, q)
    return np.arctan2(np.sqrt(_dot3(cross, cross)), _dot3(p, q))


def _hyperbolic_distance(p, q):
    return np.arccosh(np.maximum(-_minkowski_dot(p, q), 1.0))


def _hyperbolic_normal(p, unit_t):
    # Minkowski cross product G (p x T) with G = diag(-1, 1, 1)
    n0, n1, n2 = _cross(p, unit_t)
    n = (-n0, n1, n2)
    return _scale(n, np.sqrt(_minkowski_dot(n, n)))


def _lane_side(formula, cols):
    """f(q, lanes) = formula(q, cols[lanes]), with all of cols when lanes is None."""
    return lambda q, lanes=None: formula(q, cols if lanes is None else [c[lanes] for c in cols])


def _line_side(p, d):
    return _lane_side(lambda q, c: c[2] * (q[1] - c[1]) - c[3] * (q[0] - c[0]), (*p, *d))


def _plane_side(p, d):
    # great circle / H2 geodesic = surface cut by the plane span(p, d)
    return _lane_side(_dot3, _cross(p, d))


class _Kernel(NamedTuple):
    """Everything that depends on the geometry, for curvature K = 0, 1, -1.

    ``sn``, ``cs``, ``tn`` are sn_K, cs_K, tn_K: (x, 1, x) on E2, (sin, cos,
    tan) on S2, (sinh, cosh, tanh) on H2; ``arccot`` inverts 1/tn_K.
    ``dot`` is the ambient inner product, ``normal(p, T)`` the unit normal on
    the convex side of a counterclockwise curve, and ``side(p, d)``, for
    lanes of points p and directions d, a function ``f(q, lanes)`` vanishing
    exactly on the geodesics through p[lanes] along d[lanes]; q's columns
    have shape (..., len(lanes)), and ``lanes`` is an index array, or None
    for all lanes.  ``embed(x, y, pole)`` orders planar x, planar y and the
    pole coordinate as ambient ``Points``; ``pole`` is a function, and E2,
    which has no pole, never calls it.  ``max_radius`` bounds circle radii:
    pi/2 on S2, and on H2 arccosh of the largest float, below which sinh and
    cosh stay finite.  Points and vectors are coordinate columns, and every
    entry is written out in components, so a batch rounds exactly like its
    points one at a time and no result depends on the BLAS build.
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
        dot=lambda u, v: u[0] * v[0] + u[1] * v[1], distance=_euclidean_distance, project=lambda x: x,
        normal=lambda p, t: (-t[1], t[0]), side=_line_side,
        embed=lambda x, y, pole: Points((x, y)), max_radius=np.inf),
    "S2": _Kernel(
        K=1.0, sn=np.sin, cs=np.cos, tn=np.tan, arccot=lambda x: np.arctan2(1.0, x),
        dot=_dot3, distance=_spherical_distance,
        project=lambda x: _scale(x, np.sqrt(_dot3(x, x))), normal=_cross, side=_plane_side,
        embed=lambda x, y, pole: Points((x, y, pole())), max_radius=np.pi / 2),
    "H2": _Kernel(
        K=-1.0, sn=np.sinh, cs=np.cosh, tn=np.tanh, arccot=lambda x: np.arctanh(1.0 / x),
        dot=_minkowski_dot, distance=_hyperbolic_distance,
        project=lambda x: _scale(x, np.sqrt(-_minkowski_dot(x, x))), normal=_hyperbolic_normal,
        side=_plane_side, embed=lambda x, y, pole: Points((pole(), x, y)),
        max_radius=float(np.arccosh(np.finfo(float).max))),
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
        raise OutOfRange(f"{geometry.value} radius must lie in (0, {bound!r}), got {radius!r}")
    return float(radius)


def mnorm(geometry: Geometry, v):
    return np.sqrt(geometry.kernel.dot(v, v))


# ---------------------------------------------------------------------------
# curves


@dataclass(frozen=True)
class ParametricCurve:
    """Closed curve given by callables on a fixed 2*pi parameter interval.

    ``point``/``velocity``/``acceleration`` take t, a number or an array of
    any shape, and return ``Points``: one coordinate column per ambient
    coordinate, each of t's shape, elementwise in t and preserving dtype (so
    the finite-difference oracles can evaluate them in extended precision,
    and a batch of parameters rounds like each one alone).  A stacked array
    would be read row by row as columns, so it raises OutOfRange.
    """

    geometry: Geometry
    point: Callable[[np.ndarray], Points]
    velocity: Callable[[np.ndarray], Points]
    acceleration: Callable[[np.ndarray], Points]

    def __post_init__(self):
        evaluators = (self.point, self.velocity, self.acceleration)
        with np.errstate(all="ignore"):  # only the type is looked at; values are checked where used
            stacked = any(isinstance(f(0.0), np.ndarray) for f in evaluators)
        if stacked:
            raise OutOfRange("curve functions must return coordinate columns (Points), not stacked points")

    def unit_tangent(self, t) -> Points:
        """Unit tangent at t of any shape, as columns of t's shape."""
        t = np.asarray(t, dtype=float)[()]  # a 0-d t becomes a numpy scalar, the cheapest operand
        v = self.velocity(t)
        speed = mnorm(self.geometry, v)
        if np.count_nonzero(speed < 1e-10):
            i = np.flatnonzero(speed < 1e-10)[0]
            raise Degenerate(f"curve speed {np.ravel(speed)[i]:.3e} at t={np.ravel(t)[i]}")
        return Points(_scale(v, speed))


def circle_curve(geometry: Geometry, radius: float) -> ParametricCurve:
    """Geodesic circle of the given radius, counterclockwise, period 2*pi.

    Geodesic curvature is 1/R, cot R, coth R and length 2*pi*R,
    2*pi*sin R, 2*pi*sinh R on E2, S2, H2 respectively.
    """
    r = _check_radius(geometry, radius)
    sr, cr = geometry.kernel.sn(r), geometry.kernel.cs(r)
    embed = geometry.kernel.embed

    def point(t):
        return embed(sr * np.cos(t), sr * np.sin(t), lambda: cr * np.ones_like(t))

    def velocity(t):
        return embed(-sr * np.sin(t), sr * np.cos(t), lambda: np.zeros_like(t))

    def acceleration(t):
        return embed(-sr * np.cos(t), -sr * np.sin(t), lambda: np.zeros_like(t))

    return ParametricCurve(geometry, point, velocity, acceleration)


def geodesic_curvature(curve: ParametricCurve, t):
    """Signed geodesic curvature, positive for counterclockwise convex curves.

    Computed as <a, N> / |v|^2 where a is the ambient acceleration and N the
    inward unit normal; the surface-normal component of a drops out because N
    is tangent.  ``t`` may have any shape; a scalar gives a float, an array
    the curvature at each of its elements.
    """
    kern = curve.geometry.kernel
    t = np.asarray(t, dtype=float)[()]
    v = curve.velocity(t)
    speed2 = kern.dot(v, v)
    if np.count_nonzero(speed2 < 1e-20):
        raise Degenerate(f"curve speed below 1e-10 at t={np.ravel(t)[np.flatnonzero(speed2 < 1e-20)[0]]}")
    n = kern.normal(kern.project(curve.point(t)), _scale(v, np.sqrt(speed2)))
    kappa = kern.dot(curve.acceleration(t), n) / speed2
    return float(kappa) if kappa.ndim == 0 else kappa


def _chord_tangent_at_arrival(geometry, p, d, length):
    """Unit tangent at arc length ``length`` of the geodesic from p along d."""
    kern = geometry.kernel
    a, b = -kern.K * kern.sn(length), kern.cs(length)
    return tuple(a * pc + b * dc for pc, dc in zip(p, d))


_SHOT_GRID = 256  # samples of the side function along the curve, before polishing
_GRID_STEPS = np.arange(_SHOT_GRID, dtype=float)


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
    t0, theta = (u[()] for u in _broadcast(t0, theta))  # one shot runs on numpy scalars
    steep = ~((1e-6 <= theta) & (theta <= np.pi - 1e-6))
    if np.count_nonzero(steep):
        raise OutOfRange(f"launch angle {theta.flat[np.flatnonzero(steep)[0]]} too close to tangential")
    if t0.ndim == 0:
        return tuple(float(v) for v in _shoot_lanes(curve, t0, theta))
    out = np.empty((3, t0.size))
    flat_t0, flat_theta = t0.ravel(), theta.ravel()
    for i in range(0, t0.size, _LANE_BLOCK):
        out[:, i:i + _LANE_BLOCK] = _shoot_lanes(curve, flat_t0[i:i + _LANE_BLOCK],
                                                 flat_theta[i:i + _LANE_BLOCK])
    return tuple(out.reshape((3,) + t0.shape))  # (t1, arrival, length)


def _shoot_lanes(curve, t0, theta):
    """shoot_to_curve on a numpy scalar or on lanes of shape (n,): (t1, arrival, length)."""
    kern = curve.geometry.kernel
    p = kern.project(curve.point(t0))
    tan = curve.unit_tangent(t0)
    cos, sin = np.cos(theta), np.sin(theta)
    d = tuple(cos * tc + sin * nc for tc, nc in zip(tan, kern.normal(p, tan)))
    d = _scale(d, np.sqrt(kern.dot(d, d)))

    side = kern.side(p, d)
    # np.linspace(start, stop, _SHOT_GRID) step for step, without its argument handling
    start, stop = t0 + 1e-6, t0 + TWO_PI - 1e-6  # a guard of 1e-6 off t0 at either end
    ts = np.multiply.outer(_GRID_STEPS, (stop - start) / (_SHOT_GRID - 1)) + start  # (grid,) + lanes
    ts[-1] = stop
    vals = side(curve.point(ts))

    hits = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    count = hits.sum(axis=0)
    if np.count_nonzero(count != 1):
        j = np.flatnonzero(count != 1)[0]
        if count.flat[j] == 0:
            raise Degenerate("no forward intersection found (curve convex and closed?)")
        raise NonConvex(f"the chord from t0={t0.flat[j]} at theta={theta.flat[j]} crosses the curve "
                        f"{count.flat[j]} times")
    # polish each lane's one sign change, starting from the grid's side values at
    # its ends; where the grid hit 0 exactly, f(a) = 0 makes the left end the root
    m = t0.size
    at = hits.argmax(axis=0) * m + np.arange(m).reshape(t0.shape)  # flat index of each bracket
    ts, vals = ts.ravel(), vals.ravel()
    t1 = _brentq(lambda t, lanes: side(curve.point(t), lanes), ts[at], ts[at + m], xtol=1e-13,
                 fa=vals[at], fb=vals[at + m])

    q = kern.project(curve.point(t1))
    length = kern.distance(p, q)
    w = _chord_tangent_at_arrival(curve.geometry, p, d, length)
    c = kern.dot(w, curve.unit_tangent(t1)) / np.sqrt(kern.dot(w, w))
    return t1 % TWO_PI, np.arccos(np.minimum(np.maximum(c, -1.0), 1.0)), length
