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
  E2 and (x0, x1, x2) on S2 and H2: numbers for one point (a shot's are Python
  floats), arrays for a batch.  Curves return ``Points``, which ``np.asarray``
  stacks (..., dim).
"""

from __future__ import annotations

import enum
import math
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

    neg, pos and the first iterate x are numbers, or arrays of one shape, with
    f(neg) < 0 < f(pos) and x between them; ``f(x)`` returns (f, f') at an x
    of that shape (a number, a Python float or a numpy scalar, runs on numbers
    of its type).  A lane stops when its
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
    if not isinstance(x, np.ndarray):
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


def _all(ok) -> bool:
    """Whether a bool, a numpy bool scalar or every element of a bool array is set.
    ``np.all`` makes a scalar an array first, about 1.5 us against 0.1 us here."""
    return np.count_nonzero(ok) == ok.size if isinstance(ok, np.ndarray) else bool(ok)


def _sqrt(x):
    """np.sqrt, but a Python float >= 0 stays one: ``math.sqrt`` rounds as correctly as
    np.sqrt, and a Python float's arithmetic costs a fifth of a numpy scalar's."""
    return math.sqrt(x) if type(x) is float and x >= 0.0 else np.sqrt(x)


def _count(n, what: str, least: int | None = None) -> int:
    """n as an int; OutOfRange for NaN, an infinity, a fraction (3.0 passes), a value
    that is no number (None, a string that int() cannot read) or, when ``least`` is
    given, a value below it."""
    try:
        i = int(n)
    except (TypeError, ValueError, OverflowError):
        i = None
    if i is None or i != n or (least is not None and i < least):
        bound = "" if least is None else f" >= {least}"
        raise OutOfRange(f"{what} must be an integer{bound}, got {n!r}")
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
    return _sqrt(d0 * d0 + d1 * d1)


def _spherical_distance(p, q):
    cross = _cross(p, q)
    return np.arctan2(_sqrt(_dot3(cross, cross)), _dot3(p, q))


def _hyperbolic_distance(p, q):
    w = q[0] - p[0], q[1] - p[1], q[2] - p[2]  # |w|_M = 2 sinh(d/2): no arccosh of ~1 on short chords
    return 2 * np.arcsinh(np.sqrt(np.maximum(_minkowski_dot(w, w), 0.0)) / 2)


def _hyperbolic_normal(p, unit_t):
    # Minkowski cross product G (p x T) with G = diag(-1, 1, 1)
    n0, n1, n2 = _cross(p, unit_t)
    n = (-n0, n1, n2)
    return _scale(n, _sqrt(_minkowski_dot(n, n)))


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
    bounds every radius a radial graph reaches, and ``embed_reason`` says why:
    on S2 pi, below which sn_K r = sin r is positive, as the closed-form speed
    and the polar chart need; on H2 arccosh(1e12) / 2, where cosh^2 r +
    sinh^2 r = cosh 2r reaches 1e12 and the hyperboloid's -<p, p> = 1
    cancels; E2 embeds every radius.  Points and vectors
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
    embed_reason: str = ""


_KERNELS = {
    "E2": _Kernel(
        K=0.0, sn=lambda x: x, cs=lambda x: x ** 0, tn=lambda x: x,
        dot=lambda u, v: u[0] * v[0] + u[1] * v[1], distance=_euclidean_distance, project=lambda x: x,
        normal=lambda p, t: (-t[1], t[0]), side=_line_side,
        embed=lambda x, y, pole: Points((x, y)), max_radius=np.inf, embed_radius=np.inf),
    "S2": _Kernel(
        K=1.0, sn=np.sin, cs=np.cos, tn=np.tan,
        dot=_dot3, distance=_spherical_distance,
        project=lambda x: _scale(x, _sqrt(_dot3(x, x))), normal=_cross, side=_plane_side,
        embed=lambda x, y, pole: Points((x, y, pole)), max_radius=np.pi / 2, embed_radius=np.pi,
        embed_reason="sin r stops being positive and the polar chart folds over the antipode"),
    "H2": _Kernel(
        K=-1.0, sn=np.sinh, cs=np.cosh, tn=np.tanh,
        dot=_minkowski_dot, distance=_hyperbolic_distance,
        project=lambda x: _scale(x, _sqrt(-_minkowski_dot(x, x))), normal=_hyperbolic_normal,
        side=_plane_side, embed=lambda x, y, pole: Points((pole, x, y)),
        max_radius=float(np.arccosh(np.finfo(float).max)), embed_radius=float(np.arccosh(1e12)) / 2,
        embed_reason="cosh^2 r + sinh^2 r passes 1e12 and the hyperboloid's -<p, p> = 1 cancels"),
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


_GRID_CAP = 4096  # the finest sampling grid: a speed's orders below 2048 are resolved on it


def _band_grid(band: int | None) -> int:
    """Points a period for a curve of highest order ``band``: the least power of two >= max(256,
    32 band), 16 a period of the order 2 band its speed and curvature reach; at most _GRID_CAP,
    which a curve with no band takes (docs/derivation.md, "One sampling rule")."""
    if band is None:
        return _GRID_CAP
    return min(1 << (max(256, 32 * band) - 1).bit_length(), _GRID_CAP)


def _resolved_band(band: int) -> None:
    """OutOfRange from order 1024 on: _GRID_CAP samples fold the speed's order 2 band."""
    if not 4 * band < _GRID_CAP:
        raise OutOfRange(f"g's order {band} is above {_GRID_CAP // 4 - 1}, the most the arc length "
                         f"resolves: the speed's order {2 * band} needs more than {_GRID_CAP} samples")


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
    its point and frame: (t1 of every lane as a list of floats, one
    (projected point, unit tangent, inward unit normal) per lane block, or per
    lane where the shot ran lane by lane); the shot took the normal for its
    arrival angle.  All are functions of t1 alone, so a reused
    launch is the one a fresh evaluation gives, bit for bit.

    ``_speed`` is the speed |velocity(t)| in closed form, for the curves whose
    builder knows it (``build_e2_curve``; ``_radial_graph`` at constant r): (series, floor),
    a ``TrigPolynomial`` in t with orders >= 1 and a positive lower bound on
    it.  ``ArcLengthParam`` integrates the series instead of sampling the
    speed.  ``_band``, the highest order its builder records (g's on a radial graph
    where r varies, rho's on an E2 curve), sizes every sampled grid (``_band_grid``).
    Both are None for a curve given only by its jet, ``_band`` for a constant radius.
    """

    geometry: Geometry
    jet: Callable[..., tuple]
    _landing: tuple = field(default=None, init=False, repr=False, compare=False)
    _speed: tuple[TrigPolynomial, float] | None = field(default=None, init=False, repr=False,
                                                         compare=False)
    _band: int | None = field(default=None, init=False, repr=False, compare=False)

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
        """(point, velocity) at the shot ring t_j = j 2 pi / _SHOT_GRID, the point
        unprojected, one column entry per j = 0, ..., _SHOT_GRID; the last repeats the
        first, as t = 2 pi is t = 0.  Evaluated once per curve, on the first shot, by one
        ``jet(ts, 1)``; OutOfRange names the first t_j whose point is not finite."""
        ts = np.arange(_SHOT_GRID) * _RING_STEP
        p, v = self.jet(ts, 1)
        finite = np.logical_and.reduce([np.isfinite(c) for c in p])
        if not finite.all():
            raise OutOfRange(f"the curve's point at t = {float(ts[np.argmin(finite)])!r} is not finite")
        return tuple(tuple(np.concatenate((c, c[:1])) for c in cols) for cols in (p, v))


def _radial_graph(geometry: Geometry, R: float, eps: float, g: TrigPolynomial) -> ParametricCurve:
    """The curve at longitude t and geodesic radius r(t) = R + eps g(t) about the pole,
    with analytic derivatives: every circle and deformed circle is one.

    r enters through S = sn_K and C = cs_K, with S' = C and C' = -K S, and the
    point is (S(r) cos t, S(r) sin t, C(r)) in the kernel's coordinate order
    (no pole entry on E2).  OutOfRange unless R lies in (0, kernel ``max_radius``)
    and r's range, R + eps m -/+ |eps| sum_{k >= 1} |amp| with m = c0 + sum_{k = 0}
    amp cos(phase) g's constant part, lies in (0, ``embed_radius``).  Where r is
    constant (eps = 0, or g has no order above 0) the speed sn_K(r) is kept as the
    curve's ``_speed``; elsewhere g's highest order is kept as its ``_band``.
    """
    kern = geometry.kernel
    R = _check_radius(geometry, R)
    eps = float(eps)
    centre = R + eps * float(g.c0 + sum(h.amp * np.cos(h.phase) for h in g.harmonics if h.k == 0))
    swing = abs(eps) * sum(abs(h.amp) for h in g.harmonics if h.k > 0)
    if not centre - swing > 0.0:
        raise OutOfRange(f"{geometry.value} radius down to {centre - swing!r}: "
                         "r = R + eps g(t) must stay positive")
    if not centre + swing < kern.embed_radius:
        raise OutOfRange(f"{geometry.value} radius up to {centre + swing!r} too large: "
                         f"past {kern.embed_radius:.4f}, {kern.embed_reason}")
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
        speed = float(S(R + eps * g(0.0)))  # the jet's own r, below embed_radius: sn_K > 0 there
        object.__setattr__(curve, "_speed", (TrigPolynomial(speed), speed))
    else:
        object.__setattr__(curve, "_band", int(max(g.orders)))
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
    speed = _sqrt(speed2)
    if not _all(speed > 0.0):  # a NaN speed fails it too; a tiny one is a small curve
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
    return np.arctan2(abs(kern.dot(w, normal)), kern.dot(w, tan))


def _chord_tangent_at_arrival(geometry, p, d, length):
    """Unit tangent at arc length ``length`` of the geodesic from p along d."""
    kern = geometry.kernel
    a, b = -kern.K * kern.sn(length), kern.cs(length)
    return tuple(a * pc + b * dc for pc, dc in zip(p, d))


_SHOT_GRID = 256  # ring samples of the side function per period, before polishing
_RING_STEP = TWO_PI / _SHOT_GRID  # exact: the divisor is a power of two
_GUARD = 1e-6  # f(t0) is 0 only up to rounding, so no sample lies this close to t0


_LANE_BLOCK = 1024  # shots evaluated together; bounds the (lanes x ring) arrays
_CELL_ENDS = np.array([[0], [1]])  # a lane's cell k plus these: its ends (k, k + 1) as two rows
_LANE_CROSSOVER = 7  # a batch of fewer shots is shot one lane at a time, on Python floats


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

    Newton starts at the root of the ring cell's cubic Hermite interpolant and
    takes about two rounds (docs/derivation.md, "Polishing").  A shot
    evaluates the curve's jet (point and velocity together) at t0 and once
    per round.  It lands at Newton's root, mod 2 pi, and reuses the last
    round's evaluation where that is the same t (where Newton's last step
    rounded away); elsewhere it evaluates the jet at t1.  The curve keeps
    that landing's point, T and N, and the next shot whose t0 (mod 2 pi)
    equals the t1 it returned, lane for lane, launches from them: a billiard
    step re-evaluates nothing at its launch.  All are functions of t1 alone,
    so such a shot equals a fresh one bit for bit.

    ``t0`` and ``theta`` broadcast against each other, one shot per element:
    scalars give three floats, arrays three arrays of the broadcast shape,
    each element equal bit for bit to the shot made alone.  A shot alone,
    and each lane of a batch of fewer than _LANE_CROSSOVER, runs on Python
    floats (_shoot_one); larger batches run in blocks of numpy lanes
    (_shoot_lanes), whose fixed cost a few lanes do not repay.
    """
    t0, theta = _broadcast(t0, theta)
    if t0.ndim == 0:  # one shot, on Python floats
        t0, theta = float(t0), float(theta)
        _check_launch(t0, theta)
        ((t1, arrival, length),) = _shoot_alone(curve, [t0 % TWO_PI], [theta])
        return t1, arrival, length
    for ok in (abs(t0) < np.inf, (1e-6 <= theta) & (theta <= np.pi - 1e-6)):  # NaN fails both
        if not _all(ok):
            j = np.argmin(ok)
            _check_launch(t0.flat[j], theta.flat[j])
    flat_t0, flat_theta = (t0 % TWO_PI).ravel(), theta.ravel()
    if t0.size < _LANE_CROSSOVER:
        out = np.array(_shoot_alone(curve, flat_t0.tolist(), flat_theta.tolist())).reshape(-1, 3).T
        return tuple(out.reshape((3,) + t0.shape))
    out = np.empty((3, t0.size))
    memo = curve._landing
    relaunch = memo is not None and memo[0] == flat_t0.tolist()
    landings = []
    for j, i in enumerate(range(0, t0.size, _LANE_BLOCK)):
        *shot, landing = _shoot_lanes(curve, flat_t0[i:i + _LANE_BLOCK], flat_theta[i:i + _LANE_BLOCK],
                                      memo[1][j] if relaunch else None)
        out[:, i:i + _LANE_BLOCK] = shot
        landings.append(landing)
    object.__setattr__(curve, "_landing", (out[0].tolist(), landings))
    return tuple(out.reshape((3,) + t0.shape))  # (t1, arrival, length)


def _check_launch(t0, theta):
    """OutOfRange for a launch parameter that is not finite or an angle too close to tangential."""
    if not abs(t0) < math.inf:  # NaN fails it too
        raise OutOfRange(f"launch parameter t0 must be finite, got {t0}")
    if not 1e-6 <= theta <= np.pi - 1e-6:
        raise OutOfRange(f"launch angle {theta} too close to tangential")


def _shoot_alone(curve, t0, theta) -> list:
    """Shots from lists of floats t0 (mod 2 pi) and theta, one at a time on _shoot_one:
    one (t1, arrival, length) of floats per lane.  The curve keeps one landing per lane."""
    memo = curve._landing
    relaunch = memo is not None and memo[0] == t0
    shots, landings = [], []
    for i, (t, th) in enumerate(zip(t0, theta)):
        *shot, landing = _shoot_one(curve, t, th, memo[1][i] if relaunch else None)
        shots.append(shot)
        landings.append(landing)
    object.__setattr__(curve, "_landing", ([shot[0] for shot in shots], landings))
    return shots


def _jet1(curve, t: float):
    """The curve's point and velocity at one t, as tuples of Python floats."""
    p, v = curve.jet(t, 1)
    return tuple(map(float, p)), tuple(map(float, v))


def _aim(kern, tan, normal, cos, sin):
    """The unit chord direction cos T + sin N."""
    d = tuple(cos * tc + sin * nc for tc, nc in zip(tan, normal))
    return _scale(d, _sqrt(kern.dot(d, d)))


def _hermite_start(fa, fb, ha, hb):
    """(s, u) for a sign change of f on a cell, in units of the cell (0 at its start, 1 at
    its end), from f there (fa, fb) and f' times the cell's width (ha, hb): s is the regula
    falsi point, off the root by O(h^2), and u two Newton steps from s, in Horner form, on
    the cubic Hermite interpolant, whose root is off by O(h^4) (docs/derivation.md,
    "Polishing").  A shot starts at u where it lies in the cell, and at s elsewhere."""
    drop = fa - fb
    u = s = fa / drop
    c3 = 2.0 * drop + (ha + hb)  # H(u) = fa + u (ha + u (c2 + u c3)), H(1) = fb, H'(1) = hb
    c2 = -(c3 + drop + ha)
    d2, d3 = 2.0 * c2, 3.0 * c3
    for _ in range(2):
        u = u - (fa + u * (ha + u * (c2 + u * c3))) / (ha + u * (d2 + u * d3))
    return s, u


def _refuse_chord(t0, theta, count, nan):
    """The error for a chord that does not cross the curve exactly once."""
    if nan:  # a launch point or direction that is not finite makes every side value NaN
        raise OutOfRange(f"the chord from t0={t0} at theta={theta} has NaN side values: "
                         "the curve's point or tangent at t0 is not finite")
    if count == 0:
        raise Degenerate("no forward intersection found (curve convex and closed?)")
    raise NonConvex(f"the chord from t0={t0} at theta={theta} crosses the curve {count} times")


def _shoot_one(curve, t0: float, theta: float, launch=None):
    """One shot on Python floats: (t1, arrival, length, landing) as floats, the arithmetic
    of one of _shoot_lanes' lanes and equal to it bit for bit.  Only the curve's jet and
    the transcendental functions run on numpy; +, -, *, / and math.sqrt round as numpy's do."""
    geometry = curve.geometry
    kern = geometry.kernel
    ring, ring_v = curve._ring  # first, so a curve that is not finite on its ring is named there
    if launch is None:
        p, v = _jet1(curve, t0)
        p = kern.project(p)
        tan, normal, _ = _frame(geometry, t0, p, v)
    else:
        p, tan, normal = launch
    d = _aim(kern, tan, normal, float(np.cos(theta)), float(np.sin(theta)))
    side, slope = kern.side(p, d)
    up = slope(tan)
    # the ring bookkeeping of _shoot_lanes, with the crossing cells listed
    cell = min(int(t0 // _RING_STEP), _SHOT_GRID - 1)  # t0 % 2 pi may round to 2 pi
    after = cell + 1 + ((cell + 1) * _RING_STEP - t0 < _GUARD)
    before = cell - (t0 - cell * _RING_STEP < _GUARD)
    skip = {cell, (cell + 1) % _SHOT_GRID if after > cell + 1 else cell,
            (cell - 1) % _SHOT_GRID if before < cell else cell}
    vals = side(ring)
    # the cells where the product of the ends is <= 0 hold every hit, and a few cells more
    # (a 0 at the right end, an underflowing product); the hits among them are read in floats
    cells = [j for j in np.flatnonzero(vals[:-1] * vals[1:] <= 0.0).tolist() if j not in skip
             and (vals.item(j) == 0.0 or vals.item(j) * vals.item(j + 1) < 0.0)]
    first, last = vals.item(after % _SHOT_GRID), vals.item(before % _SHOT_GRID)
    short_after = first * up < 0.0
    short_before = last == 0.0 or last * up > 0.0
    count = len(cells) + short_after + short_before
    if count != 1:
        _refuse_chord(t0, theta, count, np.isnan(vals).any())
    if cells:
        k = cells[0]
        a, b, fa, fb = k * _RING_STEP, (k + 1) * _RING_STEP, vals.item(k), vals.item(k + 1)
        da, db = (slope(tuple(c.item(j) for c in ring_v)) for j in (k, k + 1))
    else:  # a short chord: the guard point t0 +- 1e-6 ends its bracket, as in _shoot_lanes
        j = after if short_after else before
        tg, tj = t0 + _GUARD if short_after else t0 - _GUARD, j * _RING_STEP
        pg, vg = _jet1(curve, tg)
        g, dg = side(pg), slope(vg)
        fj, dj = vals.item(j % _SHOT_GRID), slope(tuple(c.item(j % _SHOT_GRID) for c in ring_v))
        if (g if short_after else -g) * up < 0.0:
            raise Degenerate("no forward intersection found (curve convex and closed?)")
        a, b, fa, fb, da, db = (tg, tj, g, fj, dg, dj) if short_after else (tj, tg, fj, g, dj, dg)
    h = b - a
    s, u = _hermite_start(fa, fb, h * da, h * db)
    neg, pos = (a, b) if fa < 0.0 else (b, a)
    evaluated = []

    def f(t):
        evaluated[:] = t, *_jet1(curve, t)
        return side(evaluated[1]), slope(evaluated[2])

    try:
        root = _newton(f, neg, pos, a + (u if 0.0 <= u <= 1.0 else s) * h)
    except _NaNValue as nan:  # the ring and the launch are finite: the curve is not, between ring points
        raise OutOfRange(f"the curve's point at t = {nan.x!r} is not finite") from None
    t, q, v = evaluated
    t1 = root % TWO_PI
    if t1 != t:
        q, v = _jet1(curve, t1)
    q = kern.project(q)
    tan, normal, _ = _frame(geometry, t1, q, v)
    length = float(kern.distance(p, q))
    sp, cd = -kern.K * float(kern.sn(length)), float(kern.cs(length))  # _chord_tangent_at_arrival
    w = tuple(sp * pc + cd * dc for pc, dc in zip(p, d))
    return t1, float(_angle(geometry, tan, normal, w)), length, (q, tan, normal)


def _shoot_lanes(curve, t0, theta, launch=None):
    """shoot_to_curve on lanes of shape (n,), t0 mod 2 pi: (t1, arrival, length, landing),
    t1 mod 2 pi and landing the projected point and frame (q, T, N) there.  ``launch`` is the
    landing of a shot that returned t0, or None to evaluate the curve at t0."""
    geometry = curve.geometry
    kern = geometry.kernel
    ring, ring_v = curve._ring  # first, so a curve that is not finite on its ring is named there
    if launch is None:
        p, v = curve.jet(t0, 1)
        p = kern.project(p)
        tan, normal, _ = _frame(geometry, t0, p, v)
    else:
        p, tan, normal = launch
    d = _aim(kern, tan, normal, np.cos(theta), np.sin(theta))
    side, slope = kern.side(p, d)
    up = slope(tan)  # f'(t0): f has its sign just after t0, and the opposite one before t0 + 2 pi
    # f on the closed ring (its sample at 2 pi is the one at 0), one row per lane, and
    # its sign changes per cell [t_j, t_j+1], a 0 counting at its cell's left end
    lane = (np.arange(t0.size),)
    cell = np.minimum(t0 // _RING_STEP, _SHOT_GRID - 1).astype(int)  # t0 % 2 pi may round to 2 pi
    vals = kern.side(tuple(c[:, None] for c in p), tuple(c[:, None] for c in d))[0](ring)
    hits = (vals[:, :-1] == 0.0) | (vals[:, :-1] * vals[:, 1:] < 0.0)
    # The shot samples (t0, t0 + 2 pi) from t0's cell on, without the ring points
    # within the guard of t0: ``after`` is its first ring sample and ``before`` its
    # last, as indices of the unwrapped ring (-1 <= before < after <= _SHOT_GRID + 1).
    # The cells between them are not counted; f'(t0) gives the guards' signs.
    after = cell + 1 + ((cell + 1) * _RING_STEP - t0 < _GUARD)
    before = cell - (t0 - cell * _RING_STEP < _GUARD)
    hits[lane + (cell,)] = False
    hits[lane + ((cell + 1) % _SHOT_GRID,)] &= after == cell + 1
    hits[lane + (cell - 1,)] &= before == cell
    first, last = vals[lane + (after % _SHOT_GRID,)], vals[lane + (before % _SHOT_GRID,)]
    short_after = first * up < 0.0
    short_before = (last == 0.0) | (last * up > 0.0)
    count = np.count_nonzero(hits, axis=-1) + short_after + short_before
    if np.count_nonzero(count != 1):
        nan = (count != 1) & np.isnan(vals).any(axis=-1)
        j = np.flatnonzero(nan if nan.any() else count != 1)[0]
        _refuse_chord(t0[j], theta[j], count[j], nan[j])
    ends = hits.argmax(axis=-1) + _CELL_ENDS  # the crossing's cell k, where it is a whole one: (k, k + 1)
    (a, b), (fa, fb) = ends * _RING_STEP, vals[lane + (ends,)]
    da, db = slope(tuple(c[ends] for c in ring_v))
    short = short_after | short_before
    if np.count_nonzero(short):
        # a short chord lands between t0 and its first or last sample: the guard point,
        # t0 + 1e-6 or t0 - 1e-6, ends its bracket.  It is evaluated on every lane of
        # the block and kept on the short ones; the jet is elementwise, so no other
        # lane's bracket changes
        j = np.where(short_after, after, before)
        tg, tj = t0 + np.where(short_after, _GUARD, -_GUARD), j * _RING_STEP
        pg, vg = curve.jet(tg, 1)
        g, dg = side(pg), slope(vg)
        fj, dj = vals[lane + (j % _SHOT_GRID,)], slope(tuple(c[j % _SHOT_GRID] for c in ring_v))
        if np.count_nonzero(short & (np.where(short_after, g, -g) * up < 0.0)):
            raise Degenerate("no forward intersection found (curve convex and closed?)")
        guarded = np.where(short_after, (tg, tj, g, fj, dg, dj), (tj, tg, fj, g, dj, dg))
        a, b, fa, fb, da, db = np.where(short, guarded, (a, b, fa, fb, da, db))
    # polish each lane's one sign change by Newton from the root of its cell's cubic
    # Hermite interpolant; where a sample is exactly 0, that start is the left end
    h = b - a
    s, u = _hermite_start(fa, fb, h * da, h * db)
    neg, pos = np.where(fa < 0.0, a, b), np.where(fa < 0.0, b, a)
    evaluated = []

    def f(t):
        evaluated[:] = t, *curve.jet(t, 1)
        return side(evaluated[1]), slope(evaluated[2])

    try:
        root = _newton(f, neg, pos, a + np.where((0.0 <= u) & (u <= 1.0), u, s) * h)
    except _NaNValue as nan:  # the ring and the launch are finite: the curve is not, between ring points
        raise OutOfRange(f"the curve's point at t = {nan.x!r} is not finite") from None
    t, q, v = evaluated  # each lane's root where it stopped before the last round
    t1 = root % TWO_PI
    if np.count_nonzero(t1 != t):
        q, v = curve.jet(t1, 1)
    q = kern.project(q)
    tan, normal, _ = _frame(geometry, t1, q, v)
    length = kern.distance(p, q)
    w = _chord_tangent_at_arrival(geometry, p, d, length)
    return t1, _angle(geometry, tan, normal, w), length, (q, tan, normal)
