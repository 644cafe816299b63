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
from .errors import NonConvex, NotAdmissible, NotClosed, OutOfRange
from .fourier import Harmonic, TrigPolynomial
from .geometry import (
    TWO_PI,
    Geometry,
    ParametricCurve,
    _check_radius,
    geodesic_curvature,
    shoot_to_curve,
)

__all__ = [
    "FourierCurveE2",
    "DeformedCircle",
    "build_e2_curve",
    "closure_defect",
    "e2_residual_operator",
    "gutkin_chord_length_formula",
    "build_deformed_circle",
    "s2_residual_operator",
    "linearized_coefficient_check",
    "verify_curve_gutkin",
]


def _antiderivative_xy(c0, harmonics, t):
    """Closed-form antiderivative of rho(s) (cos s, sin s), value at 0 removed.

    Handles k = 1 as well (used by the closure-defect negative check).
    """
    t = np.asarray(t)
    x = c0 * np.sin(t)
    y = c0 * (1.0 - np.cos(t))
    for h in harmonics:
        k, A, p = h.k, h.amp, h.phase
        if k == 1:
            x = x + A * ((np.sin(2 * t + p) - np.sin(p)) / 4 + t * np.cos(p) / 2)
            y = y + A * ((np.cos(p) - np.cos(2 * t + p)) / 4 - t * np.sin(p) / 2)
        else:
            x = x + A * ((np.sin((k + 1) * t + p) - np.sin(p)) / (2 * (k + 1))
                         + (np.sin((k - 1) * t + p) - np.sin(p)) / (2 * (k - 1)))
            y = y + A * ((np.cos(p) - np.cos((k + 1) * t + p)) / (2 * (k + 1))
                         + (np.cos((k - 1) * t + p) - np.cos(p)) / (2 * (k - 1)))
    return np.stack([x, y], axis=-1)


def closure_defect(c0: float, harmonics) -> float:
    """|gamma(2 pi) - gamma(0)| of the curve integrated from rho.

    Zero exactly when rho has no first harmonic; a k = 1 term of amplitude A
    produces a defect of pi * A.
    """
    hs = tuple(harmonics)
    d = _antiderivative_xy(float(c0), hs, 2 * np.pi)
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
    c0, hs = spec.c0, spec.harmonics

    def point(t):
        return _antiderivative_xy(c0, hs, t)

    def velocity(t):
        t = np.asarray(t)
        r = rho(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def acceleration(t):
        t = np.asarray(t)
        r, dr = rho(t), drho(t)
        return np.stack([dr * np.cos(t) - r * np.sin(t),
                         dr * np.sin(t) + r * np.cos(t)], axis=-1)

    return ParametricCurve(Geometry.EUCLIDEAN, point, velocity, acceleration)


def e2_residual_operator(f: TrigPolynomial, alpha: float):
    """Pointwise residual of f'(t+a) + f'(t-a) - cot(a) (f(t+a) - f(t-a))."""
    df = f.derivative()
    cot = np.cos(alpha) / np.sin(alpha)

    def residual(t):
        t = np.asarray(t)
        return df(t + alpha) + df(t - alpha) - cot * (f(t + alpha) - f(t - alpha))

    return residual


def gutkin_chord_length_formula(spec: FourierCurveE2, alpha: float, t):
    """Chord length L(t) = 2 sin(a) (c0 + amp cos(k a) cos(kt + phase)).

    Valid for a single-harmonic curve whose k satisfies k tan a = tan(k a);
    equals the measured geodesic distance between gamma(t - a) and
    gamma(t + a).
    """
    if len(spec.harmonics) != 1:
        raise OutOfRange("closed-form chord length needs exactly one harmonic")
    h = spec.harmonics[0]
    if abs(angles._polefree(h.k, alpha)) > 1e-8:
        raise NotAdmissible(
            f"alpha={alpha} does not satisfy k tan(alpha) = tan(k alpha) for k={h.k}"
        )
    t = np.asarray(t)
    return 2 * np.sin(alpha) * (spec.c0 + h.amp * np.cos(h.k * alpha) * np.cos(h.k * t + h.phase))


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
        rad = -K * s * dr**2 + c * ddr
        return embed(rad * np.cos(t) - 2 * c * dr * np.sin(t) - s * np.cos(t),
                     rad * np.sin(t) + 2 * c * dr * np.cos(t) - s * np.sin(t),
                     lambda: -K * (c * dr**2 + s * ddr))

    curve = ParametricCurve(geo, point, velocity, acceleration)
    for t in np.linspace(0.0, 2 * np.pi, 128, endpoint=False):
        if geodesic_curvature(curve, float(t)) <= 0:
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
    """Shoot chords at angle alpha from sample points; report the worst
    arrival-angle defect."""
    worst = 0.0
    worst_t = 0.0
    for t0 in np.linspace(0.0, TWO_PI, int(n_samples), endpoint=False):
        _, arrival, _ = shoot_to_curve(curve, float(t0), alpha)
        dev = abs(arrival - alpha)
        if dev > worst:
            worst, worst_t = dev, float(t0)
    return {"alpha": float(alpha), "n_samples": int(n_samples),
            "max_angle_residual": worst, "argmax_t": worst_t}
