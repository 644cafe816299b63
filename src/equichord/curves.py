"""Construction and verification of equiangular-chord (Gutkin) curves.

Euclidean curves are built exactly from Fourier radius-of-curvature data:
in the turning-angle parameter t the tangent direction is t and the
velocity is rho(t) (cos t, sin t), so the position is available through
term-wise closed-form antiderivatives (no quadrature).  For a single
harmonic rho = c0 + A cos(kt + phase), the chord from t - alpha to
t + alpha points exactly in direction t precisely when

    (k - 1) sin((k + 1) alpha) = (k + 1) sin((k - 1) alpha),

equivalently k tan alpha = tan(k alpha); see docs/derivation.md for the
two-line computation.  Such curves are therefore *exact* Gutkin curves and
are verified to machine precision, not just to second order.

Spherical and hyperbolic curves are infinitesimally deformed circles (the
nonlinear chord equation is out of scope); only the latitude perturbation
is applied, since the longitudinal component is a first-order
reparameterization that leaves the image unchanged.  A deformed circle is
the radial graph r = R + epsilon g(t) about the pole, built by the same
function as ``geometry.circle_curve``, its epsilon = 0 member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import angles
from .errors import NonConvex, NotClosed, OutOfRange
from .fourier import Harmonic, TrigPolynomial
from .geometry import (
    TWO_PI,
    Geometry,
    ParametricCurve,
    _band_grid,
    _count,
    _radial_graph,
    _resolved_band,
    Points,
    geodesic_curvature,
    shoot_to_curve,
)

__all__ = [
    "FourierCurveE2",
    "DeformedCircle",
    "build_e2_curve",
    "closure_defect",
    "build_deformed_circle",
    "s2_residual_operator",
    "verify_curve_gutkin",
]


def _antiderivative_xy(c0, harmonics):
    """Closed-form antiderivative of rho(s) (cos s, sin s), value at 0 removed,
    as a function of t, cos t and sin t.

    Handles k = 1 as well (used by the closure-defect negative check).
    """
    terms = [(h.k, h.amp, h.phase, np.sin(h.phase), np.cos(h.phase)) for h in harmonics]

    def xy(t, cos_t, sin_t):
        x = c0 * sin_t
        y = c0 * (1.0 - cos_t)
        for k, A, p, sin_p, cos_p in terms:
            if k == 1:
                x = x + A * ((np.sin(2 * t + p) - sin_p) / 4 + t * cos_p / 2)
                y = y + A * ((cos_p - np.cos(2 * t + p)) / 4 - t * sin_p / 2)
            else:
                up, um = (k + 1) * t + p, (k - 1) * t + p
                x = x + A * ((np.sin(up) - sin_p) / (2 * (k + 1)) + (np.sin(um) - sin_p) / (2 * (k - 1)))
                y = y + A * ((cos_p - np.cos(up)) / (2 * (k + 1)) + (np.cos(um) - cos_p) / (2 * (k - 1)))
        return Points((x, y))
    return xy


def closure_defect(c0: float, harmonics) -> float:
    """|gamma(2 pi) - gamma(0)| of the curve integrated from rho.

    Zero exactly when rho has no first harmonic; a k = 1 term of amplitude A
    produces a defect of pi * A.
    """
    hs = tuple(harmonics)
    d = _antiderivative_xy(float(c0), hs)(2 * np.pi, np.cos(2 * np.pi), np.sin(2 * np.pi))
    return float(np.hypot(d[0], d[1]))


@dataclass(frozen=True)
class FourierCurveE2:
    """Closed convex E2 curve given by its radius of curvature.

    rho(t) = c0 + sum amp cos(kt + phase) with every k >= 2 (a k = 0 term is
    OutOfRange: it belongs in c0, and k = 1 is NotClosed); t is the
    turning-angle parameter.  ``_rho_floor`` is the convexity check's lower
    bound on rho, always positive: its least value on the band grid of n points
    (``geometry._band_grid``) less the smaller of the second-order margin
    1/2 (sum |A| k^2) (pi/n)^2, which holds because rho' = 0 where rho is least,
    and the Lipschitz margin (pi/n) sum |A| k.  It is never below the 4096-point
    Lipschitz floor (docs/derivation.md).
    """

    c0: float
    harmonics: tuple[Harmonic, ...] = field(default_factory=tuple)
    _rho_floor: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.c0):
            raise OutOfRange(f"c0 must be finite, got {self.c0}")
        hs = tuple(h if isinstance(h, Harmonic) else Harmonic(*h) for h in self.harmonics)
        object.__setattr__(self, "harmonics", hs)
        for h in hs:
            if h.k == 0:
                raise OutOfRange(f"harmonic k={h.k} is a constant: add amp * cos(phase) = "
                                 f"{float(h.amp * np.cos(h.phase))!r} to c0")
            if h.k == 1:
                raise NotClosed(f"harmonic k={h.k} not allowed: first harmonics break closure")
        rho = self.rho
        n = _band_grid(max(map(int, rho.orders), default=None))
        margin = min(0.5 * sum(abs(h.amp) * h.k * h.k for h in hs) * (np.pi / n) ** 2,
                     rho.lipschitz_bound() * (np.pi / n))
        floor = float(rho(np.linspace(0.0, 2 * np.pi, n, endpoint=False)).min()) - margin
        if not floor > 0.0:
            raise NonConvex("radius of curvature must stay positive (convexity)")
        object.__setattr__(self, "_rho_floor", floor)
        # closed by construction (no first harmonic); check anyway, against the rounding
        # of a closed curve's defect, which grows with the curve's size
        if closure_defect(self.c0, hs) > 1e-10 * (self.c0 + sum(abs(h.amp) for h in hs)):
            raise NotClosed("curve fails to close")

    @property
    def rho(self) -> TrigPolynomial:
        return TrigPolynomial(self.c0, self.harmonics)


def build_e2_curve(spec: FourierCurveE2) -> ParametricCurve:
    """Exact curve with velocity rho(t) (cos t, sin t); tangent direction is t.

    Its speed is rho, kept with the spec's floor as ``_speed``, and rho's highest order as ``_band``."""
    rho = spec.rho
    drho = rho.derivative()
    xy = _antiderivative_xy(spec.c0, spec.harmonics)

    def jet(t, order):
        cos, sin = np.cos(t), np.sin(t)
        out = [xy(t, cos, sin)]
        if order >= 1:
            r = rho(t)
            x, y = r * cos, r * sin
            out.append(Points((x, y)))
            if order == 2:
                dr = drho(t)
                out.append(Points((dr * cos - y, dr * sin + x)))
        return tuple(out)

    curve = ParametricCurve(Geometry.EUCLIDEAN, jet)
    object.__setattr__(curve, "_speed", (rho, spec._rho_floor))
    object.__setattr__(curve, "_band", max(map(int, rho.orders), default=None))
    return curve


# ---------------------------------------------------------------------------
# deformed circles on S2 / H2


@dataclass(frozen=True)
class DeformedCircle:
    """Circle of radius R with latitude perturbation epsilon * g(t).

    g must have no first harmonic (those deformations are translations of
    the circle to first order).  The curve needs no angle: c, a and the chord-foot
    distance f_star, which the residual operators take, belong to the contact
    angle alpha and are derived when first read (OutOfRange without one).
    """

    geometry: Geometry
    R: float
    epsilon: float
    g: TrigPolynomial
    alpha: float | None = None

    def __post_init__(self):
        if self.geometry is Geometry.EUCLIDEAN:
            raise OutOfRange("deformed circles are spherical or hyperbolic")
        if not np.isfinite(self.epsilon):
            raise OutOfRange(f"epsilon must be finite, got {self.epsilon}")
        if 1 in self.g.orders:
            raise NotClosed("g must not contain first harmonics")

    @cached_property
    def _constants(self) -> tuple[float, float, float]:
        if self.alpha is None:
            raise OutOfRange("a deformed circle without alpha has no c, a or f_star")
        return (*angles.lemma_constants(self.geometry, self.R, self.alpha),
                angles.f_star(self.geometry, self.R, self.alpha))

    c = property(lambda self: self._constants[0])
    a = property(lambda self: self._constants[1])
    f_star = property(lambda self: self._constants[2])


def build_deformed_circle(spec: DeformedCircle) -> ParametricCurve:
    """Embedded curve (longitude t, radius R + eps g(t)): the radial graph, checked as
    ``circle_curve``, its eps = 0 member, is.  Where r varies, OutOfRange from g's order
    1024 on, and NonConvex where the geodesic curvature is not positive on the band grid
    of g's order; a constant radius is convex where ``ParametricCurve`` checks t = 0."""
    curve = _radial_graph(spec.geometry, spec.R, spec.epsilon, spec.g)
    if curve._band is not None:
        _resolved_band(curve._band)
        ts = np.linspace(0.0, 2 * np.pi, _band_grid(curve._band), endpoint=False)
        if np.any(geodesic_curvature(curve, ts) <= 0):
            raise NonConvex("deformation too large: curve loses convexity")
    return curve


def s2_residual_operator(f: TrigPolynomial, alpha: float, c: float, a: float,
                         geometry: Geometry):
    """Residual of a cot(alpha) (S(f1) - S(f2)) - (f1' + f2').

    f1 = f(t + c), f2 = f(t - c); S = sn_K is the identity on E2, sin on the
    sphere and sinh on the hyperbolic plane.
    """
    S = geometry.kernel.sn
    df = f.derivative()
    cot = np.cos(alpha) / np.sin(alpha)

    def residual(t):
        t = np.asarray(t)
        return a * cot * (S(f(t + c)) - S(f(t - c))) - (df(t + c) + df(t - c))

    return residual


def verify_curve_gutkin(curve: ParametricCurve, alpha: float, n_samples: int | str = "band") -> dict:
    """Shoot chords at angle alpha from sample points, all in one batch; report
    the worst arrival-angle defect and the first sample that reaches it.

    ``"band"`` takes max(64, 16 k) samples, at most 16384, for the curve's highest order
    k (``_band``): 8 a period of the residual's order 2k; 64 with no band.  Raises
    OutOfRange for a sample count that is not an integer, and for fewer than one
    sample: a check that shoots no chord would pass vacuously.
    """
    if isinstance(n_samples, str) and n_samples == "band":
        n_samples = min(max(64, 16 * (curve._band or 0)), 16384)
    n_samples = _count(n_samples, "verify_curve_gutkin's sample count", 1)
    ts = np.linspace(0.0, TWO_PI, n_samples, endpoint=False)
    _, arrival, _ = shoot_to_curve(curve, ts, alpha)
    dev = np.abs(arrival - alpha)
    nan = np.isnan(dev)
    if nan.any():
        i = int(np.argmax(nan))
        raise OutOfRange(f"the chord from sample {i} (t = {float(ts[i])!r}) arrives at a NaN "
                         "angle: it loses every digit to cancellation")
    worst = float(dev.max())
    worst_t = float(ts[np.argmax(dev == worst)]) if worst > 0.0 else 0.0
    return {"alpha": float(alpha), "n_samples": n_samples,
            "max_angle_residual": worst, "argmax_t": worst_t}
