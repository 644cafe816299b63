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

from .errors import BadRadius, DegenerateVelocity, NoIntersection, Tangential

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


def _brentq(f, a, b, xtol):
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A step-for-step port of the widely used ``brentq`` C routine: same
    steps, same stopping test |b - a| / 2 < (xtol + _BRENT_RTOL |x|) / 2,
    same iterates bit for bit.  Raises ValueError when f(a) and f(b) share a
    sign or f returns NaN, and RuntimeError after _BRENT_MAXITER steps
    without convergence.
    """
    def fv(x):
        y = float(f(x))
        if math.isnan(y):
            raise ValueError(f"the function value at x={x!r} is NaN")
        return y

    xpre, xcur = float(a), float(b)
    fpre, fcur = fv(xpre), fv(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre > 0) == (fcur > 0):
        raise ValueError("f(a) and f(b) must have different signs")
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
        fcur = fv(xcur)
    raise RuntimeError(f"brentq failed to converge after {_BRENT_MAXITER} iterations, value is {xcur!r}")


# ---------------------------------------------------------------------------
# the per-geometry table


def _euclidean_dot(u, v):
    return (u * v).sum(axis=-1)


def _minkowski_dot(u, v):
    return -u[..., 0] * v[..., 0] + u[..., 1] * v[..., 1] + u[..., 2] * v[..., 2]


def _euclidean_distance(p, q):
    d = q - p
    return np.sqrt((d * d).sum(axis=-1))


def _spherical_distance(p, q):
    cross = np.cross(p, q)
    return np.arctan2(np.sqrt((cross * cross).sum(axis=-1)), (p * q).sum(axis=-1))


def _hyperbolic_distance(p, q):
    return np.arccosh(np.maximum(-_minkowski_dot(p, q), 1.0))


def _hyperbolic_normal(p, unit_t):
    # Minkowski cross product G (p x T) with G = diag(-1, 1, 1)
    n = np.cross(p, unit_t) * np.array([-1.0, 1.0, 1.0])
    return n / np.sqrt(_minkowski_dot(n, n))


def _line_side(p, d):
    def f(q):
        return d[0] * (q[..., 1] - p[1]) - d[1] * (q[..., 0] - p[0])
    return f


def _plane_side(p, d):
    # great circle / H2 geodesic = surface cut by the plane span(p, d)
    n = np.cross(p, d)

    def f(q):
        return q @ n
    return f


class _Kernel(NamedTuple):
    """Everything that depends on the geometry, for curvature K = 0, 1, -1.

    ``sn``, ``cs``, ``tn`` are sn_K, cs_K, tn_K: (x, 1, x) on E2, (sin, cos,
    tan) on S2, (sinh, cosh, tanh) on H2; ``arccot`` inverts 1/tn_K.
    ``dot`` is the ambient inner product, ``normal(p, T)`` the unit normal on
    the convex side of a counterclockwise curve, and ``side(p, d)`` a scalar
    function vanishing exactly on the geodesic through p along d.  ``axes``
    places (planar x, planar y, pole) in ambient coordinates; E2 has no pole.
    Each geometry keeps its own expression where a shared one would change
    the last bit (``np.linalg.norm`` on S2, for instance).
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
    axes: tuple
    max_radius: float


_KERNELS = {
    "E2": _Kernel(
        K=0.0, sn=lambda x: x, cs=np.ones_like, tn=lambda x: x, arccot=lambda x: 1.0 / x,
        dot=_euclidean_dot, distance=_euclidean_distance, project=lambda x: x,
        normal=lambda p, t: np.array([-t[1], t[0]]), side=_line_side,
        axes=(0, 1), max_radius=np.inf),
    "S2": _Kernel(
        K=1.0, sn=np.sin, cs=np.cos, tn=np.tan, arccot=lambda x: np.arctan2(1.0, x),
        dot=_euclidean_dot, distance=_spherical_distance,
        project=lambda x: x / np.linalg.norm(x), normal=np.cross, side=_plane_side,
        axes=(0, 1, 2), max_radius=np.pi / 2),
    "H2": _Kernel(
        K=-1.0, sn=np.sinh, cs=np.cosh, tn=np.tanh, arccot=lambda x: np.arctanh(1.0 / x),
        dot=_minkowski_dot, distance=_hyperbolic_distance,
        project=lambda x: x / np.sqrt(-_minkowski_dot(x, x)), normal=_hyperbolic_normal,
        side=_plane_side, axes=(2, 0, 1), max_radius=np.inf),
}


class Geometry(enum.Enum):
    EUCLIDEAN = "E2"
    SPHERICAL = "S2"
    HYPERBOLIC = "H2"

    def __init__(self, tag: str):
        self.kernel = _KERNELS[tag]


def _check_radius(geometry: Geometry, radius) -> float:
    """Circle radius as a float; it must lie in (0, pi/2) on S2, (0, inf) elsewhere."""
    bound = geometry.kernel.max_radius
    if radius is None or not 0.0 < radius < bound:
        raise BadRadius(f"{geometry.value} radius must lie in (0, {bound:g}), got {radius!r}")
    return float(radius)


def _embed(geometry: Geometry, x, y, pole):
    """Stack planar coordinates and the pole coordinate in ambient order."""
    cols = (x, y, pole)
    return np.stack([cols[i] for i in geometry.kernel.axes], axis=-1)


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

    ``point``/``velocity``/``acceleration`` must accept scalars or arrays
    and preserve dtype (so the finite-difference oracles can evaluate them in
    extended precision).
    """

    geometry: Geometry
    point: Callable[[np.ndarray], np.ndarray]
    velocity: Callable[[np.ndarray], np.ndarray]
    acceleration: Callable[[np.ndarray], np.ndarray]
    period: float = TWO_PI

    def unit_tangent(self, t: float) -> np.ndarray:
        v = np.asarray(self.velocity(float(t)), dtype=float)
        speed = float(mnorm(self.geometry, v))
        if speed < 1e-10:
            raise DegenerateVelocity(f"curve speed {speed:.3e} at t={t}")
        return v / speed


def inward_normal(geometry: Geometry, p: np.ndarray, unit_t: np.ndarray) -> np.ndarray:
    """Unit normal on the convex side of a counterclockwise curve.

    E2: rotate the tangent by +pi/2.  S2: p x T.  H2: the Minkowski cross
    product G (p x T) with G = diag(-1, 1, 1).
    """
    return geometry.kernel.normal(p, unit_t)


def circle_curve(geometry: Geometry, radius: float) -> ParametricCurve:
    """Geodesic circle of the given radius, counterclockwise, period 2*pi.

    Geodesic curvature is 1/R, cot R, coth R and length 2*pi*R,
    2*pi*sin R, 2*pi*sinh R on E2, S2, H2 respectively.
    """
    r = _check_radius(geometry, radius)
    sr, cr = geometry.kernel.sn(r), geometry.kernel.cs(r)

    def point(t):
        t = np.asarray(t)
        return _embed(geometry, sr * np.cos(t), sr * np.sin(t), cr * np.ones_like(t))

    def velocity(t):
        t = np.asarray(t)
        return _embed(geometry, -sr * np.sin(t), sr * np.cos(t), np.zeros_like(t))

    def acceleration(t):
        t = np.asarray(t)
        return _embed(geometry, -sr * np.cos(t), -sr * np.sin(t), np.zeros_like(t))

    return ParametricCurve(geometry, point, velocity, acceleration)


def geodesic_curvature(curve: ParametricCurve, t: float) -> float:
    """Signed geodesic curvature, positive for counterclockwise convex curves.

    Computed as <a, N> / |v|^2 where a is the ambient acceleration and N the
    inward unit normal; the surface-normal component of a drops out because N
    is tangent.
    """
    g = curve.geometry
    t = float(t)
    v = np.asarray(curve.velocity(t), dtype=float)
    speed2 = float(mdot(g, v, v))
    if speed2 < 1e-20:
        raise DegenerateVelocity(f"curve speed below 1e-10 at t={t}")
    a = np.asarray(curve.acceleration(t), dtype=float)
    p = np.asarray(curve.point(t), dtype=float)
    n = inward_normal(g, project_to_manifold(g, p), v / np.sqrt(speed2))
    return float(mdot(g, a, n)) / speed2


def _chord_tangent_at_arrival(geometry, p, d, length):
    """Unit tangent at arc length ``length`` of the geodesic from p along d."""
    kern = geometry.kernel
    return -kern.K * kern.sn(length) * p + kern.cs(length) * d


_SHOT_GRID = 256  # samples of the side function along the curve, before polishing


def shoot_to_curve(curve: ParametricCurve, t0: float, theta: float) -> tuple[float, float, float]:
    """Launch a geodesic chord into the convex side and find where it lands.

    From curve(t0), shoot at angle ``theta`` (measured from the forward
    tangent, into the interior) and return ``(t1, arrival_angle,
    chord_length)`` for the first forward intersection.  ``arrival_angle`` is
    the angle between the arriving chord direction and the forward tangent at
    t1, so equiangular chords report arrival_angle == theta.
    """
    g = curve.geometry
    t0 = float(t0)
    theta = float(theta)
    if theta < 1e-6 or theta > np.pi - 1e-6:
        raise Tangential(f"launch angle {theta} too close to tangential")

    p = project_to_manifold(g, np.asarray(curve.point(t0), dtype=float))
    tan = curve.unit_tangent(t0)
    nrm = inward_normal(g, p, tan)
    d = np.cos(theta) * tan + np.sin(theta) * nrm
    d = d / float(mnorm(g, d))

    side = g.kernel.side(p, d)
    guard = 1e-6
    period = curve.period
    ts = np.linspace(t0 + guard, t0 + period - guard, _SHOT_GRID)
    vals = np.asarray(side(np.asarray(curve.point(ts), dtype=float)))

    hit = (vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0)
    i = int(np.argmax(hit))
    if not hit[i]:
        raise NoIntersection("no forward intersection found (curve convex and closed?)")
    t1 = float(ts[i]) if vals[i] == 0.0 else _brentq(
        lambda t: side(np.asarray(curve.point(t), dtype=float)), ts[i], ts[i + 1], xtol=1e-13)

    q = project_to_manifold(g, np.asarray(curve.point(t1), dtype=float))
    length = float(_distance_coords(g, p, q))
    w = _chord_tangent_at_arrival(g, p, d, length)
    tan1 = curve.unit_tangent(t1)
    c = float(mdot(g, w, tan1)) / float(mnorm(g, w))
    arrival = float(np.arccos(np.clip(c, -1.0, 1.0)))
    return t1 % period, arrival, length
