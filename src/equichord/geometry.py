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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .errors import Degenerate, NonConvex, OutOfRange
from .fourier import TrigPolynomial

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


_NEWTON_ROUNDS = 60  # a lane not stopped after this many rounds raises
_NEWTON_TOL = 8 * np.finfo(float).eps  # a lane stops on a step below this times max(1, |x|)


class _NaNValue(RuntimeError):
    """A running Newton lane's function value is NaN at x."""

    def __init__(self, x: float):
        super().__init__(f"the function value at x={x!r} is NaN")
        self.x = x


def _newton(f, neg, pos, x):
    """Roots of f, one per lane, by Newton's method safeguarded by bisection.

    neg, pos and the first iterate x are numpy values of one shape with
    f(neg) < 0 < f(pos) and x between them; ``f(x)`` returns (f, f') at an x
    of that shape (a scalar runs on numpy scalars).  A lane stops when its
    step is below _NEWTON_TOL max(1, |x|), 8 eps of double.  Otherwise the
    end of f's sign moves to x, and a step landing outside the bracket, or
    longer than half the step two rounds before (a bisection's step is half
    its bracket), becomes the bracket's midpoint; a bracket below that
    tolerance stops the lane.  The second test ends cycles that shrink the
    bracket by a little each round: Newton jumping across the root of an
    arctan, or across a root whose f is rounding noise on a flat slope.
    Lanes run in place until the slowest stops; a stopped lane is still
    evaluated but keeps its root, so each lane takes the steps it would take
    alone.  Raises _NaNValue, a RuntimeError
    naming x, on a NaN f in a running lane, and RuntimeError after
    _NEWTON_ROUNDS rounds.
    """
    before = last = np.inf  # the lengths of the last two steps
    if x.ndim == 0:
        for _ in range(_NEWTON_ROUNDS):
            y, dy = f(x)
            if y != y:
                raise _NaNValue(float(x))
            step = y / dy
            neg, pos = (x, pos) if y < 0 else (neg, x)
            x = x - step
            size = abs(step)
            if size < _NEWTON_TOL * max(1.0, abs(x)):
                return x
            if not ((x - neg) * (x - pos) < 0 and size <= 0.5 * before):
                x = (neg + pos) / 2
                size = (pos - neg) / 2
                if abs(pos - neg) < _NEWTON_TOL * max(1.0, abs(x)):
                    return x
            before, last = last, size
        raise RuntimeError(f"Newton did not converge in {_NEWTON_ROUNDS} rounds, last x={float(x)!r}")
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(_NEWTON_ROUNDS):
        y, dy = f(x)
        step = y / dy
        x_new = x - step
        size = np.abs(step)
        stop = size < _NEWTON_TOL * np.maximum(1.0, np.abs(x_new))
        low = y < 0
        neg, pos = np.where(low, x, neg), np.where(low, pos, x)
        # a running lane's NaN f lands in out too
        out = ~(done | stop | (((x_new - neg) * (x_new - pos) < 0) & (size <= 0.5 * before)))
        if np.count_nonzero(out):  # count_nonzero is the cheapest reduction here
            nan = np.isnan(y) & ~done
            if np.count_nonzero(nan):
                raise _NaNValue(float(x[nan][0]))
            x_new = np.where(out, (neg + pos) / 2, x_new)
            size = np.where(out, (pos - neg) / 2, size)
            stop |= out & (np.abs(pos - neg) < _NEWTON_TOL * np.maximum(1.0, np.abs(x_new)))
        before, last = last, size
        x = np.where(done, x, x_new)
        done |= stop
        if np.count_nonzero(done) == done.size:
            return x
    raise RuntimeError(f"Newton did not converge in {_NEWTON_ROUNDS} rounds, last x={float(x[~done][0])!r}")


def _broadcast(u, v):
    """u and v as float arrays of their common shape."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    return (u, v) if u.shape == v.shape else np.broadcast_arrays(u, v)


def _any(mask) -> bool:
    """Whether a numpy bool scalar or array has a set element.  ``np.count_nonzero``
    makes a scalar an array first, about 1.5 us against 0.1 us for ``bool``."""
    return bool(mask) if mask.ndim == 0 else np.count_nonzero(mask) > 0


def _count(n, what: str) -> int:
    """n as an int; OutOfRange for NaN, an infinity or a fraction (3.0 passes)."""
    try:
        i = int(n)
    except (ValueError, OverflowError):
        i = None
    if i is None or i != n:
        raise OutOfRange(f"{what} must be an integer, got {n!r}")
    return i


def _positive(x, what: str):
    """OutOfRange unless x is finite and positive."""
    if not (np.isfinite(x) and x > 0):
        raise OutOfRange(f"{what} must be finite and positive, got {x!r}")


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
    w = q[0] - p[0], q[1] - p[1], q[2] - p[2]  # |w|_M = 2 sinh(d/2): no arccosh of ~1 on short chords
    return 2 * np.arcsinh(np.sqrt(np.maximum(_minkowski_dot(w, w), 0.0)) / 2)


def _hyperbolic_normal(p, unit_t):
    # Minkowski cross product G (p x T) with G = diag(-1, 1, 1)
    n0, n1, n2 = _cross(p, unit_t)
    n = (-n0, n1, n2)
    return _scale(n, np.sqrt(_minkowski_dot(n, n)))


def _line_side(p, d):
    (p0, p1), (d0, d1) = p, d
    return lambda q: d0 * (q[1] - p1) - d1 * (q[0] - p0), lambda v: d0 * v[1] - d1 * v[0]


def _plane_side(p, d):
    # great circle / H2 geodesic = surface cut by the plane span(p, d); linear in q
    n = _cross(p, d)
    def side(q):
        return _dot3(q, n)
    return side, side


class _Kernel(NamedTuple):
    """Everything that depends on the geometry, for curvature K = 0, 1, -1.

    ``sn``, ``cs``, ``tn`` are sn_K, cs_K, tn_K: (x, 1, x) on E2, (sin, cos,
    tan) on S2, (sinh, cosh, tanh) on H2.
    ``dot`` is the ambient inner product, ``normal(p, T)`` the unit normal on
    the convex side of a counterclockwise curve, and ``side(p, d)``, for
    lanes of points p and directions d, two functions ``f(q)``: one affine
    in q and vanishing exactly on the geodesics through p along d, and its
    linear part, which at a curve's velocity is the derivative along the
    curve; q's columns broadcast against those of p and d, so columns given
    a trailing axis (``c[:, None]``) evaluate every lane at every q.  ``embed(x, y, pole)``
    orders planar x, planar y and the pole coordinate as ambient ``Points``;
    E2 has no pole and drops it.
    ``max_radius`` bounds circle radii: pi/2 on S2, and on H2 arccosh of the
    largest float, below which sinh and cosh stay finite.  ``embed_radius``
    bounds every radius a radial graph reaches: on H2 arccosh(1e12) / 2, where
    cosh^2 r + sinh^2 r = cosh 2r reaches 1e12 and the hyperboloid's
    -<p, p> = 1 cancels; E2 and S2 embed every radius.  Points and vectors
    are coordinate columns, and every entry is written out in components, so
    a batch rounds exactly like its points one at a time and no result
    depends on the BLAS build.
    """

    K: float
    sn: Callable
    cs: Callable
    tn: Callable
    dot: Callable
    distance: Callable
    project: Callable
    normal: Callable
    side: Callable
    embed: Callable
    max_radius: float
    embed_radius: float


_KERNELS = {
    "E2": _Kernel(
        K=0.0, sn=lambda x: x, cs=np.ones_like, tn=lambda x: x,
        dot=lambda u, v: u[0] * v[0] + u[1] * v[1], distance=_euclidean_distance, project=lambda x: x,
        normal=lambda p, t: (-t[1], t[0]), side=_line_side,
        embed=lambda x, y, pole: Points((x, y)), max_radius=np.inf, embed_radius=np.inf),
    "S2": _Kernel(
        K=1.0, sn=np.sin, cs=np.cos, tn=np.tan,
        dot=_dot3, distance=_spherical_distance,
        project=lambda x: _scale(x, np.sqrt(_dot3(x, x))), normal=_cross, side=_plane_side,
        embed=lambda x, y, pole: Points((x, y, pole)), max_radius=np.pi / 2, embed_radius=np.inf),
    "H2": _Kernel(
        K=-1.0, sn=np.sinh, cs=np.cosh, tn=np.tanh,
        dot=_minkowski_dot, distance=_hyperbolic_distance,
        project=lambda x: _scale(x, np.sqrt(-_minkowski_dot(x, x))), normal=_hyperbolic_normal,
        side=_plane_side, embed=lambda x, y, pole: Points((pole, x, y)),
        max_radius=float(np.arccosh(np.finfo(float).max)), embed_radius=float(np.arccosh(1e12)) / 2),
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
    """Closed curve on a fixed 2*pi parameter interval, given by its jet.

    ``jet(t, order)`` returns the derivatives 0..order of the curve at t (0
    the point, 1 the velocity, 2 the acceleration; order <= 2) as a tuple of
    ``Points``.  t is a number or an array of any shape, and each ``Points``
    holds one coordinate column per ambient coordinate, each of t's shape,
    elementwise in t, so a batch of parameters rounds like each one alone;
    the library evaluates jets in double only.  A jet computes the terms its
    derivatives share (sn r, cs r, cos t, sin t) once.  ``point`` and
    ``velocity`` read one order of the jet; the acceleration is read from
    ``jet(t, 2)``.

    Construction evaluates ``jet(0.0, 2)`` once.  A stacked array would be
    read row by row as columns, so a jet that returns one raises
    OutOfRange, and a curve whose geodesic curvature at t = 0 is finite and
    not positive (a clockwise one) raises NonConvex; a speed at t = 0 that is
    zero or not finite is left to the layers that use it.

    ``_landing`` is the last shot's landing, kept so that a shot launched
    from exactly where the previous one landed (a billiard orbit) reuses
    its point and frame: (t1 of every lane, one (projected point, unit
    tangent, inward unit normal) per lane block); the shot took the normal
    for its arrival angle.  All are functions of t1 alone, so a reused
    launch is the one a fresh evaluation gives, bit for bit.

    ``_speed`` is the speed |velocity(t)| in closed form, for the curves whose
    builder knows it (``build_e2_curve``; ``_radial_graph`` at constant r): (series, floor),
    a ``TrigPolynomial`` in t with orders >= 1 and a positive lower bound on
    it.  ``ArcLengthParam`` integrates the series instead of sampling the
    speed.  It is None for a curve given only by its jet.
    """

    geometry: Geometry
    jet: Callable[..., tuple]
    _landing: tuple = field(default=None, init=False, repr=False, compare=False)
    _speed: tuple[TrigPolynomial, float] | None = field(default=None, init=False, repr=False,
                                                         compare=False)

    def __post_init__(self):
        kern = self.geometry.kernel
        with np.errstate(all="ignore"):  # other values are checked where they are used
            derivs = self.jet(0.0, 2)
            if any(isinstance(d, np.ndarray) for d in derivs):
                raise OutOfRange("a curve's jet must return coordinate columns (Points), not stacked points")
            p, v, a = derivs
            speed2 = kern.dot(v, v)
            if 0.0 < speed2 < np.inf:
                kappa = kern.dot(a, kern.normal(kern.project(p), _scale(v, np.sqrt(speed2)))) / speed2
                if -np.inf < kappa <= 0.0:
                    raise NonConvex(f"geodesic curvature {float(kappa)!r} at t = 0: a curve must be "
                                    "convex and counterclockwise")

    def point(self, t) -> Points:
        return self.jet(t, 0)[0]

    def velocity(self, t) -> Points:
        return self.jet(t, 1)[1]

    @cached_property
    def _ring(self) -> tuple:
        """``point`` at the shot ring t_j = j 2 pi / _SHOT_GRID, unprojected, one column
        entry per j = 0, ..., _SHOT_GRID; the last repeats the first, as t = 2 pi is t = 0.
        Evaluated once per curve, on the first shot; OutOfRange names the first t_j
        whose point is not finite."""
        ts = np.arange(_SHOT_GRID) * _RING_STEP
        cols = self.point(ts)
        finite = np.logical_and.reduce([np.isfinite(c) for c in cols])
        if not finite.all():
            raise OutOfRange(f"the curve's point at t = {float(ts[np.argmin(finite)])!r} is not finite")
        return tuple(np.concatenate((c, c[:1])) for c in cols)


def _radial_graph(geometry: Geometry, R: float, eps: float, g: TrigPolynomial) -> ParametricCurve:
    """The curve at longitude t and geodesic radius r(t) = R + eps g(t) about the pole,
    with analytic derivatives: every circle and deformed circle is one.

    r enters through S = sn_K and C = cs_K, with S' = C and C' = -K S, and the
    point is (S(r) cos t, S(r) sin t, C(r)) in the kernel's coordinate order
    (no pole entry on E2).  OutOfRange unless R lies in (0, kernel ``max_radius``)
    and every r it can reach, R -/+ |eps| (|g.c0| + sum |amp|), in (0, ``embed_radius``).
    Where r is constant (eps = 0, or g has no order above 0) the speed sn_K(r) is
    kept as the curve's ``_speed``.
    """
    kern = geometry.kernel
    R = _check_radius(geometry, R)
    reach = abs(float(eps)) * sum(abs(float(x)) for x in (g.c0, *(h.amp for h in g.harmonics)))
    if not R - reach > 0.0:
        raise OutOfRange(f"{geometry.value} radius down to {R - reach!r}: "
                         "r = R + eps g(t) must stay positive")
    if not R + reach < kern.embed_radius:  # only H2's bound is finite
        raise OutOfRange(f"H2 radius up to {R + reach!r} too large: past {kern.embed_radius:.4f}, "
                         "cosh^2 r + sinh^2 r passes 1e12 and the hyperboloid's -<p, p> = 1 cancels")
    dg, ddg = g.derivative(), g.derivative(2)
    S, C, K, embed = kern.sn, kern.cs, kern.K, kern.embed

    def jet(t, order):
        cos, sin = np.cos(t), np.sin(t)
        r = R + eps * g(t)
        s, c = S(r), C(r)
        x, y = s * cos, s * sin
        out = [embed(x, y, c)]
        if order >= 1:
            dr = eps * dg(t)
            cdr = c * dr
            out.append(embed(cdr * cos - y, cdr * sin + x, -K * s * dr))
            if order == 2:
                ddr = eps * ddg(t)
                dr2 = dr * dr  # not dr**2, which numpy rounds through pow() on a scalar
                rad = -K * s * dr2 + c * ddr
                # 2 * c * dr, not 2 * cdr: the two differ where c * dr is subnormal
                out.append(embed(rad * cos - 2 * c * dr * sin - x, rad * sin + 2 * c * dr * cos - y,
                                 -K * (c * dr2 + s * ddr)))
        return tuple(out)

    curve = ParametricCurve(geometry, jet)
    if eps == 0.0 or g.orders <= {0}:
        speed = float(S(R + eps * g(0.0)))  # the jet's own r, in (0, 2R): sn_K > 0 there
        object.__setattr__(curve, "_speed", (TrigPolynomial(speed), speed))
    return curve


def circle_curve(geometry: Geometry, radius: float) -> ParametricCurve:
    """Geodesic circle of the given radius, counterclockwise, period 2*pi: the
    radial graph r = R, a deformed circle with epsilon = 0.

    Geodesic curvature is 1/R, cot R, coth R and length 2*pi*R,
    2*pi*sin R, 2*pi*sinh R on E2, S2, H2 respectively.
    """
    return _radial_graph(geometry, radius, 0.0, TrigPolynomial())


def geodesic_curvature(curve: ParametricCurve, t):
    """Signed geodesic curvature, positive for counterclockwise convex curves.

    Computed as <a, N> / |v|^2 where a is the ambient acceleration and N the
    inward unit normal; the surface-normal component of a drops out because N
    is tangent.  ``t`` may have any shape; a scalar gives a float, an array
    the curvature at each of its elements.
    """
    t = np.asarray(t, dtype=float)[()]
    p, v, a = curve.jet(t, 2)
    _, normal, speed2 = _frame(curve.geometry, t, curve.geometry.kernel.project(p), v)
    kappa = curve.geometry.kernel.dot(a, normal) / speed2
    return float(kappa) if kappa.ndim == 0 else kappa


def _frame(geometry, t, p, v):
    """(unit tangent T, inward unit normal N, |v|^2) of a curve at t, from its projected
    point p and velocity v there; OutOfRange naming the first t where the speed is NaN,
    and Degenerate where the curve stops.  An infinite speed passes."""
    kern = geometry.kernel
    speed2 = kern.dot(v, v)
    speed = np.sqrt(speed2)
    if _any(~(speed > 0.0)):  # a NaN speed fails it too; a tiny one is a small curve
        nan = np.ravel(np.isnan(speed))
        if nan.any():
            raise OutOfRange(f"the curve's velocity at t = {float(np.ravel(t)[nan.argmax()])!r} is not finite")
        raise Degenerate(f"curve speed {np.min(speed):.3e} at t={np.ravel(t)[np.argmin(speed)]}")
    tan = _scale(v, speed)
    return tan, kern.normal(p, tan), speed2


def _angle(geometry, tan, normal, w):
    """The angle in [0, pi] from the frame's T to w's part in the plane of (T, N), w of
    any length: atan2(|<w, N>|, <w, T>), good to about eps at every angle."""
    kern = geometry.kernel
    return np.arctan2(np.abs(kern.dot(w, normal)), kern.dot(w, tan))


def _chord_tangent_at_arrival(geometry, p, d, length):
    """Unit tangent at arc length ``length`` of the geodesic from p along d."""
    kern = geometry.kernel
    a, b = -kern.K * kern.sn(length), kern.cs(length)
    return tuple(a * pc + b * dc for pc, dc in zip(p, d))


_SHOT_GRID = 256  # ring samples of the side function per period, before polishing
_RING_STEP = TWO_PI / _SHOT_GRID  # exact: the divisor is a power of two
_GUARD = 1e-6  # f(t0) is 0 only up to rounding, so no sample lies this close to t0


_LANE_BLOCK = 1024  # shots evaluated together; bounds the (lanes x ring) arrays


def shoot_to_curve(curve: ParametricCurve, t0, theta):
    """Launch geodesic chords into the convex side and find where they land.

    From curve(t0), shoot at angle ``theta`` (measured from the forward
    tangent, into the interior) and return ``(t1, arrival_angle,
    chord_length)`` for its other intersection with the curve.  ``arrival_angle``
    is the angle between the arriving chord direction w (on E2, the launch
    direction) and the forward tangent T at t1, atan2(|<w, N>|, <w, T>) with
    the normal N, so equiangular chords report arrival_angle == theta.  The crossings
    are counted on the curve's ring of _SHOT_GRID points t_j = j 2 pi /
    _SHOT_GRID, evaluated once per curve, with f'(t0) standing in for the
    samples 1e-6 after t0 and before t0 + 2 pi; only a chord landing in a cell
    next to t0 evaluates the curve there.  A chord that crosses more than once
    raises NonConvex, one that does not Degenerate; a t0 that is not finite
    raises OutOfRange, and a finite one is taken mod 2 pi.  A Newton round
    that meets a curve point that is not finite, between two ring points,
    raises OutOfRange naming its t.

    A shot evaluates the curve's jet (point and velocity together) at t0,
    once per Newton round and at the landing, which it takes at the returned
    t1 (already mod 2 pi).  The curve keeps that landing's point, T and N,
    and the next shot whose t0 (mod 2 pi) equals the t1 it returned, lane
    for lane, launches from them: a billiard step re-evaluates nothing at
    its launch.  All are functions of t1 alone, so such a shot equals a
    fresh one bit for bit.

    ``t0`` and ``theta`` broadcast against each other, one shot per element:
    scalars give three floats, arrays three arrays of the broadcast shape,
    each element equal bit for bit to the shot made alone.
    """
    t0, theta = (u[()] for u in _broadcast(t0, theta))  # one shot runs on numpy scalars
    finite = abs(t0) < np.inf  # NaN fails it too
    if _any(~finite):
        raise OutOfRange(f"launch parameter t0 must be finite, got {t0.flat[np.argmin(finite)]}")
    t0 = t0 % TWO_PI
    steep = ~((1e-6 <= theta) & (theta <= np.pi - 1e-6))
    if _any(steep):
        raise OutOfRange(f"launch angle {theta.flat[np.flatnonzero(steep)[0]]} too close to tangential")
    memo = curve._landing
    if t0.ndim == 0:
        relaunch = memo is not None and memo[0].shape == () and memo[0] == t0
        t1, arrival, length, landing = _shoot_lanes(curve, t0, theta, memo[1][0] if relaunch else None)
        object.__setattr__(curve, "_landing", (t1, [landing]))
        return float(t1), float(arrival), float(length)
    out = np.empty((3, t0.size))
    flat_t0, flat_theta = t0.ravel(), theta.ravel()
    relaunch = memo is not None and memo[0].shape == flat_t0.shape and not np.count_nonzero(memo[0] != flat_t0)
    landings = []
    for j, i in enumerate(range(0, t0.size, _LANE_BLOCK)):
        *shot, landing = _shoot_lanes(curve, flat_t0[i:i + _LANE_BLOCK], flat_theta[i:i + _LANE_BLOCK],
                                      memo[1][j] if relaunch else None)
        out[:, i:i + _LANE_BLOCK] = shot
        landings.append(landing)
    object.__setattr__(curve, "_landing", (out[0].copy(), landings))
    return tuple(out.reshape((3,) + t0.shape))  # (t1, arrival, length)


def _shoot_lanes(curve, t0, theta, launch=None):
    """shoot_to_curve on a numpy scalar or on lanes of shape (n,): (t1, arrival, length,
    landing), t1 mod 2 pi and landing the projected point and frame (q, T, N) there.  ``launch``
    is the landing of a shot that returned t0, or None to evaluate the curve at t0."""
    kern = curve.geometry.kernel
    ring = curve._ring  # first, so a curve that is not finite on its ring is named there
    if launch is None:
        p, v = curve.jet(t0, 1)
        p = kern.project(p)
        tan, normal, _ = _frame(curve.geometry, t0, p, v)
    else:
        p, tan, normal = launch
    cos, sin = np.cos(theta), np.sin(theta)
    d = tuple(cos * tc + sin * nc for tc, nc in zip(tan, normal))
    d = _scale(d, np.sqrt(kern.dot(d, d)))

    side, slope = kern.side(p, d)
    up = slope(tan)  # f'(t0): f has its sign just after t0, and the opposite one before t0 + 2 pi
    # f on the closed ring (its sample at 2 pi is the one at 0), one row per lane, and
    # its sign changes per cell [t_j, t_j+1], a 0 counting at its cell's left end;
    # one shot keeps its cell bookkeeping in Python numbers
    if t0.ndim == 0:
        x, lane = t0.item(), ()
        cell = min(int(x // _RING_STEP), _SHOT_GRID - 1)  # t0 % 2 pi may round to 2 pi
        vals = side(ring)
    else:
        x, lane = t0, (np.arange(t0.size),)
        cell = np.minimum(t0 // _RING_STEP, _SHOT_GRID - 1).astype(int)
        vals = kern.side(tuple(c[:, None] for c in p), tuple(c[:, None] for c in d))[0](ring)
    hits = (vals[..., :-1] == 0.0) | (vals[..., :-1] * vals[..., 1:] < 0.0)
    # The shot samples (t0, t0 + 2 pi) from t0's cell on, without the ring points
    # within the guard of t0: ``after`` is its first ring sample and ``before`` its
    # last, as indices of the unwrapped ring (-1 <= before < after <= _SHOT_GRID + 1).
    # The cells between them are not counted; f'(t0) gives the guards' signs.
    after = cell + 1 + ((cell + 1) * _RING_STEP - x < _GUARD)
    before = cell - (x - cell * _RING_STEP < _GUARD)
    hits[lane + (cell,)] = False
    hits[lane + ((cell + 1) % _SHOT_GRID,)] &= after == cell + 1
    hits[lane + (cell - 1,)] &= before == cell
    first, last = vals[lane + (after % _SHOT_GRID,)], vals[lane + (before % _SHOT_GRID,)]
    short_after = first * up < 0.0
    short_before = (last == 0.0) | (last * up > 0.0)
    count = hits.sum(axis=-1) + short_after + short_before
    if _any(count != 1):
        # a launch point or direction that is not finite makes every side value NaN
        nan = (count != 1) & np.isnan(vals).any(axis=-1)
        if _any(nan):
            j = np.flatnonzero(nan)[0]
            raise OutOfRange(f"the chord from t0={t0.flat[j]} at theta={theta.flat[j]} has NaN side "
                             "values: the curve's point or tangent at t0 is not finite")
        j = np.flatnonzero(count != 1)[0]
        if count.flat[j] == 0:
            raise Degenerate("no forward intersection found (curve convex and closed?)")
        raise NonConvex(f"the chord from t0={t0.flat[j]} at theta={theta.flat[j]} crosses the curve "
                        f"{count.flat[j]} times")
    k = hits.argmax(axis=-1)  # the crossing's cell, where it is a whole one
    a, b, fa, fb = k * _RING_STEP, (k + 1) * _RING_STEP, vals[lane + (k,)], vals[lane + (k + 1,)]
    short = short_after | short_before
    if _any(short):
        # a short chord lands between t0 and its first or last sample: the guard point,
        # t0 + 1e-6 or t0 - 1e-6, ends its bracket.  It is evaluated on every lane of
        # the block and kept on the short ones; the jet is elementwise, so no other
        # lane's bracket changes
        j = np.where(short_after, after, before)
        tg, tj = t0 + np.where(short_after, _GUARD, -_GUARD), j * _RING_STEP
        g, fj = side(curve.point(tg)), vals[lane + (j % _SHOT_GRID,)]
        if _any(short & (np.where(short_after, g, -g) * up < 0.0)):
            raise Degenerate("no forward intersection found (curve convex and closed?)")
        guarded = np.where(short_after, (tg, tj, g, fj), (tj, tg, fj, g))
        a, b, fa, fb = np.where(short, guarded, (a, b, fa, fb))
    # polish each lane's one sign change by Newton from the regula falsi point of
    # its bracket; where a sample is exactly 0, that point is the left end
    if t0.ndim == 0:
        neg, pos = (a, b) if fa < 0.0 else (b, a)
    else:
        neg, pos = np.where(fa < 0.0, a, b), np.where(fa < 0.0, b, a)
    def f(t):
        pt, v = curve.jet(t, 1)
        return side(pt), slope(v)

    try:
        t1 = _newton(f, neg, pos, a - fa * (b - a) / (fb - fa)) % TWO_PI
    except _NaNValue as nan:  # the ring and the launch are finite: the curve is not, between ring points
        raise OutOfRange(f"the curve's point at t = {nan.x!r} is not finite") from None
    q, v = curve.jet(t1, 1)
    q = kern.project(q)
    tan, normal, _ = _frame(curve.geometry, t1, q, v)
    length = kern.distance(p, q)
    w = _chord_tangent_at_arrival(curve.geometry, p, d, length)
    return t1, _angle(curve.geometry, tan, normal, w), length, (q, tan, normal)
