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

import numpy as np

from . import angles
from .errors import NonConvex, NotClosed, OutOfRange
from .fourier import Harmonic, TrigPolynomial
from .geometry import (
    TWO_PI,
    Geometry,
    ParametricCurve,
    _count,
    _radial_graph,
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
    "linearized_coefficient_check",
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

    rho(t) = c0 + sum amp cos(kt + phase) with every k >= 2; t is the
    turning-angle parameter.  ``_rho_floor`` is the convexity check's lower
    bound on rho: its least value on a 4096-point grid less the Lipschitz
    margin, always positive.
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
            if h.k < 2:
                raise NotClosed(
                    f"harmonic k={h.k} not allowed: first harmonics break closure"
                )
        rho = self.rho
        grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        floor = float(rho(grid).min()) - rho.lipschitz_bound() * (np.pi / 4096)
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

    Its speed is rho, kept with the spec's floor on rho as the curve's ``_speed``."""
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
    return curve


# ---------------------------------------------------------------------------
# deformed circles on S2 / H2


@dataclass(frozen=True)
class DeformedCircle:
    """Circle of radius R with latitude perturbation epsilon * g(t).

    g must have no first harmonic (those deformations are translations of
    the circle to first order).  The derived constants c, a and the constant
    chord-foot distance f_star are attached for the residual operators.
    """

    geometry: Geometry
    R: float
    epsilon: float
    g: TrigPolynomial
    alpha: float
    c: float = field(init=False)
    a: float = field(init=False)
    f_star: float = field(init=False)

    def __post_init__(self):
        if self.geometry is Geometry.EUCLIDEAN:
            raise OutOfRange("deformed circles are spherical or hyperbolic")
        if not np.isfinite(self.epsilon):
            raise OutOfRange(f"epsilon must be finite, got {self.epsilon}")
        if 1 in self.g.orders:
            raise NotClosed("g must not contain first harmonics")
        c, a = angles.lemma_constants(self.geometry, self.R, self.alpha)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "f_star", angles.f_star(self.geometry, self.R, self.alpha))


def build_deformed_circle(spec: DeformedCircle) -> ParametricCurve:
    """Embedded curve (longitude t, radius R + eps g(t)) with analytic derivatives,
    the radial graph ``circle_curve`` is at eps = 0; NonConvex where its geodesic
    curvature is not positive at one of 128 equally spaced t."""
    curve = _radial_graph(spec.geometry, spec.R, spec.epsilon, spec.g)
    if np.any(geodesic_curvature(curve, np.linspace(0.0, 2 * np.pi, 128, endpoint=False)) <= 0):
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


def linearized_coefficient_check(geometry: Geometry, R: float, alpha: float):
    """(a cot(alpha) cs(f_star), cot c) -- equal for every (R, alpha).

    The equality is what reduces the linearized chord equation to
    k tan c = tan(kc).
    """
    c, a = angles.lemma_constants(geometry, R, alpha)
    fs = angles.f_star(geometry, R, alpha)
    lhs = a * (np.cos(alpha) / np.sin(alpha)) * geometry.kernel.cs(fs)
    rhs = np.cos(c) / np.sin(c)
    return float(lhs), float(rhs)


def verify_curve_gutkin(curve: ParametricCurve, alpha: float, n_samples: int = 64) -> dict:
    """Shoot chords at angle alpha from sample points, all in one batch; report
    the worst arrival-angle defect and the first sample that reaches it.

    Raises OutOfRange for a sample count that is not an integer, and for fewer
    than one sample: a check that shoots no chord would pass vacuously.
    """
    n_samples = _count(n_samples, "verify_curve_gutkin's sample count")
    if n_samples < 1:
        raise OutOfRange(f"verify_curve_gutkin needs at least one sample, got {n_samples}")
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
