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
reparameterization that leaves the image unchanged.
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
    _check_radius,
    _stack,
    geodesic_curvature,
    shoot_to_curve,
)

__all__ = [
    "FourierCurveE2",
    "DeformedCircle",
    "build_e2_curve",
    "closure_defect",
    "e2_residual_operator",
    "build_deformed_circle",
    "s2_residual_operator",
    "linearized_coefficient_check",
    "verify_curve_gutkin",
]


def _antiderivative_xy(c0, harmonics):
    """Closed-form antiderivative of rho(s) (cos s, sin s), value at 0 removed,
    as a function of t.

    Handles k = 1 as well (used by the closure-defect negative check).
    """
    terms = [(h.k, h.amp, h.phase, np.sin(h.phase), np.cos(h.phase)) for h in harmonics]

    def xy(t):
        t = np.asarray(t)
        x = c0 * np.sin(t)
        y = c0 * (1.0 - np.cos(t))
        for k, A, p, sin_p, cos_p in terms:
            if k == 1:
                x = x + A * ((np.sin(2 * t + p) - sin_p) / 4 + t * cos_p / 2)
                y = y + A * ((cos_p - np.cos(2 * t + p)) / 4 - t * sin_p / 2)
            else:
                up, um = (k + 1) * t + p, (k - 1) * t + p
                x = x + A * ((np.sin(up) - sin_p) / (2 * (k + 1)) + (np.sin(um) - sin_p) / (2 * (k - 1)))
                y = y + A * ((cos_p - np.cos(up)) / (2 * (k + 1)) + (np.cos(um) - cos_p) / (2 * (k - 1)))
        return _stack([x, y])
    return xy


def closure_defect(c0: float, harmonics) -> float:
    """|gamma(2 pi) - gamma(0)| of the curve integrated from rho.

    Zero exactly when rho has no first harmonic; a k = 1 term of amplitude A
    produces a defect of pi * A.
    """
    hs = tuple(harmonics)
    d = _antiderivative_xy(float(c0), hs)(2 * np.pi)
    return float(np.hypot(d[0], d[1]))


@dataclass(frozen=True)
class FourierCurveE2:
    """Closed convex E2 curve given by its radius of curvature.

    rho(t) = c0 + sum amp cos(kt + phase) with every k >= 2; t is the
    turning-angle parameter.
    """

    c0: float
    harmonics: tuple[Harmonic, ...] = field(default_factory=tuple)

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
        margin = rho.lipschitz_bound() * (np.pi / 4096)
        if float(rho(grid).min()) <= margin:
            raise NonConvex("radius of curvature must stay positive (convexity)")
        # closed by construction (no first harmonic); assert anyway
        if closure_defect(self.c0, hs) > 1e-10:
            raise NotClosed("curve fails to close")

    @property
    def rho(self) -> TrigPolynomial:
        return TrigPolynomial(self.c0, self.harmonics)


def build_e2_curve(spec: FourierCurveE2) -> ParametricCurve:
    """Exact curve with velocity rho(t) (cos t, sin t); tangent direction is t."""
    rho = spec.rho
    drho = rho.derivative()
    point = _antiderivative_xy(spec.c0, spec.harmonics)

    def velocity(t):
        t = np.asarray(t)
        r = rho(t)
        return _stack([r * np.cos(t), r * np.sin(t)])

    def acceleration(t):
        t = np.asarray(t)
        r, dr = rho(t), drho(t)
        return _stack([dr * np.cos(t) - r * np.sin(t), dr * np.sin(t) + r * np.cos(t)])

    return ParametricCurve(Geometry.EUCLIDEAN, point, velocity, acceleration)


def e2_residual_operator(f: TrigPolynomial, alpha: float):
    """Pointwise residual of f'(t+a) + f'(t-a) - cot(a) (f(t+a) - f(t-a))."""
    df = f.derivative()
    cot = np.cos(alpha) / np.sin(alpha)

    def residual(t):
        t = np.asarray(t)
        return df(t + alpha) + df(t - alpha) - cot * (f(t + alpha) - f(t - alpha))

    return residual


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
    """Embedded curve (longitude t, radius R + eps g(t)) with analytic derivatives.

    The radius r(t) enters through S = sn_K and C = cs_K, with S' = C and
    C' = -K S.
    """
    g, eps = spec.g, spec.epsilon
    dg = g.derivative()
    ddg = g.derivative(2)
    geo = spec.geometry
    R = _check_radius(geo, spec.R)
    S, C, K, embed = geo.kernel.sn, geo.kernel.cs, geo.kernel.K, geo.kernel.embed

    def _r(t):
        return R + eps * g(t)

    def point(t):
        t = np.asarray(t)
        r = _r(t)
        s = S(r)
        return embed(s * np.cos(t), s * np.sin(t), lambda: C(r))

    def velocity(t):
        t = np.asarray(t)
        r, dr = _r(t), eps * dg(t)
        s, c = S(r), C(r)
        return embed(c * dr * np.cos(t) - s * np.sin(t),
                     c * dr * np.sin(t) + s * np.cos(t),
                     lambda: -K * s * dr)

    def acceleration(t):
        t = np.asarray(t)
        r, dr, ddr = _r(t), eps * dg(t), eps * ddg(t)
        s, c = S(r), C(r)
        dr2 = dr * dr  # not dr**2, which numpy rounds through pow() on a scalar
        rad = -K * s * dr2 + c * ddr
        return embed(rad * np.cos(t) - 2 * c * dr * np.sin(t) - s * np.cos(t),
                     rad * np.sin(t) + 2 * c * dr * np.cos(t) - s * np.sin(t),
                     lambda: -K * (c * dr2 + s * ddr))

    curve = ParametricCurve(geo, point, velocity, acceleration)
    if np.any(geodesic_curvature(curve, np.linspace(0.0, 2 * np.pi, 128, endpoint=False)) <= 0):
        raise NonConvex("deformation too large: curve loses convexity")
    return curve


def s2_residual_operator(f: TrigPolynomial, alpha: float, c: float, a: float,
                         geometry: Geometry):
    """Residual of a cot(alpha) (S(f1) - S(f2)) - (f1' + f2').

    f1 = f(t + c), f2 = f(t - c); S = sn_K is sin on the sphere and sinh on
    the hyperbolic plane.
    """
    if geometry is Geometry.EUCLIDEAN:
        raise OutOfRange("nonlinear chord operator is spherical/hyperbolic only")
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
    the worst arrival-angle defect and the first sample that reaches it."""
    ts = np.linspace(0.0, TWO_PI, int(n_samples), endpoint=False)
    _, arrival, _ = shoot_to_curve(curve, ts, alpha)
    dev = np.abs(arrival - alpha)
    nan = np.isnan(dev)
    if nan.any():
        i = int(np.argmax(nan))
        raise OutOfRange(f"the chord from sample {i} (t = {float(ts[i])!r}) arrives at a NaN "
                         "angle: it loses every digit to cancellation")
    worst = float(np.max(dev, initial=0.0))
    worst_t = float(ts[np.argmax(dev == worst)]) if worst > 0.0 else 0.0
    return {"alpha": float(alpha), "n_samples": int(n_samples),
            "max_angle_residual": worst, "argmax_t": worst_t}
