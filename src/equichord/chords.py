"""Billiard generating function L(x, y) and its partial derivatives.

x and y are arc-length parameters on a closed convex curve; L is the
geodesic chord length, phi and psi the chord angles at the two ends
(measured from the forward tangent, so L_x = -cos phi and L_y = cos psi in
all three geometries).  The second partials use the closed forms

    L_xy = sin phi sin psi / sn(L),    L_xx = sin^2 phi / tn(L) - kappa(x) sin phi

with (sn, tn) = (L, L), (sin L, tan L), (sinh L, tanh L) on E2, S2, H2 and
the symmetric expression for L_yy.  The angles are always measured
geometrically; the derivative formulas are the object under test, validated
against central finite differences of the distance function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, OutOfRange
from .geometry import (
    ParametricCurve,
    _broadcast,
    _chord_tangent_at_arrival,
    _distance_coords,
    geodesic_curvature,
    mdot,
    mnorm,
    project_to_manifold,
)

__all__ = ["ArcLengthParam", "ChordData", "chord_data", "validate_partials"]

_SPEED_SAMPLES = 4096  # uniform samples of the speed per period


class ArcLengthParam:
    """Spectral arc-length parameterization of a smooth closed curve.

    The speed is sampled on a uniform grid and integrated through its Fourier
    series (trapezoid/FFT, spectrally accurate for smooth periodic speed), so
    s(t) = mean_speed * t + periodic part.  Inversion is by Newton (s is
    strictly increasing) and raises RuntimeError if 60 steps do not converge;
    both directions accept any real argument, of any shape, and wrap
    naturally.  Evaluation preserves the input dtype so the finite-difference
    oracle can work in extended precision.
    """

    def __init__(self, curve: ParametricCurve):
        self.curve = curve
        ts = np.arange(_SPEED_SAMPLES) * (2 * np.pi / _SPEED_SAMPLES)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused just below
            speeds = np.asarray(mnorm(curve.geometry, np.asarray(curve.velocity(ts))), dtype=float)
        # the sum is finite iff every speed and the total length are
        if not np.isfinite(speeds.sum()):
            raise OutOfRange("curve speed or length overflows floating point")
        coeffs = np.fft.rfft(speeds) / _SPEED_SAMPLES
        self.mean_speed = float(coeffs[0].real)
        k = np.arange(1, len(coeffs))
        a = np.asarray(2 * coeffs[1:].real / k)   # coefficient of sin(kt)
        b = np.asarray(-2 * coeffs[1:].imag / k)  # minus the cos(kt) coefficient
        # drop numerically-zero harmonics (speed profiles here are band-limited)
        keep = (np.abs(a) + np.abs(b)) > 1e-17 * max(1.0, self.mean_speed)
        self._ks = k[keep]
        self._a = a[keep]
        self._b = b[keep]
        self.total_length = self.mean_speed * 2 * np.pi

    def s_of_t(self, t):
        t = np.asarray(t)
        kt = np.multiply.outer(t, self._ks)
        per = (np.sin(kt) * self._a.astype(t.dtype)).sum(axis=-1) \
            - (np.cos(kt) * self._b.astype(t.dtype)).sum(axis=-1) \
            + self._b.astype(t.dtype).sum()
        return self.mean_speed * t + per

    def speed(self, t):
        t = np.asarray(t)
        v = np.asarray(self.curve.velocity(t))
        return mnorm(self.curve.geometry, v)

    def t_of_s(self, s):
        """Parameter t with s_of_t(t) = s, elementwise over s of any shape.

        Newton runs on the whole array; an element stops at its own
        convergence, so it takes exactly the steps it would take alone.  A
        scalar gives a numpy scalar of the input's float dtype.
        """
        s = np.asarray(s, dtype=np.result_type(s, 1.0))
        flat = s.ravel()
        t = flat / self.mean_speed
        eps = np.finfo(s.dtype).eps
        todo = np.arange(flat.size)
        for _ in range(60):
            if not todo.size:
                break
            tt = t[todo]
            dt = (self.s_of_t(tt) - flat[todo]) / self.speed(tt)
            tt = tt - dt
            t[todo] = tt
            todo = todo[~(np.abs(dt) < 8 * eps * np.maximum(1.0, np.abs(tt)))]
        if todo.size:
            raise RuntimeError(f"t_of_s: Newton did not converge in 60 steps for s={flat[todo[0]]!r}")
        return t.reshape(s.shape)[()]


@dataclass(frozen=True)
class ChordData:
    """One chord's record, or with array fields, one element per chord."""

    x: float
    y: float
    L: float
    phi: float
    psi: float
    Lx: float
    Ly: float
    Lxx: float
    Lyy: float
    Lxy: float


def chord_data(curve: ParametricCurve, x, y, arclen: ArcLengthParam | None = None) -> ChordData:
    """Chord record for arc-length parameters x, y on a convex closed curve.

    x and y broadcast against each other; scalars give a record of floats,
    arrays a record of arrays of the broadcast shape, each element equal bit
    for bit to the chord computed alone.
    """
    if arclen is None:
        arclen = ArcLengthParam(curve)
    g = curve.geometry
    kern = g.kernel
    x, y = _broadcast(x, y)
    Ltot = arclen.total_length
    if np.any((np.abs((x - y) % Ltot) < 1e-12) | (np.abs((y - x) % Ltot) < 1e-12)):
        raise Degenerate("chord endpoints coincide mod curve length")

    t = arclen.t_of_s(np.stack([x, y]))
    p, q = project_to_manifold(g, np.asarray(curve.point(t), dtype=float))
    L = _distance_coords(g, p, q)

    # unit chord direction at departure
    Lc = L[..., None]
    d0 = (q - p * kern.cs(Lc)) / kern.sn(Lc)
    d1 = _chord_tangent_at_arrival(g, p, d0, L)

    tp, tq = curve.unit_tangent(t)
    phi = np.arccos(np.clip(mdot(g, d0, tp) / mnorm(g, d0), -1.0, 1.0))
    psi = np.arccos(np.clip(mdot(g, d1, tq) / mnorm(g, d1), -1.0, 1.0))

    kx, ky = geodesic_curvature(curve, t)
    inv_sin, inv_tan = 1.0 / kern.sn(L), 1.0 / kern.tn(L)
    # sin * sin, not ** 2: numpy rounds a scalar's square through pow()
    sin_phi, sin_psi = np.sin(phi), np.sin(psi)
    fields = dict(
        x=x, y=y, L=L, phi=phi, psi=psi,
        Lx=-np.cos(phi), Ly=np.cos(psi),
        Lxx=sin_phi * sin_phi * inv_tan - kx * sin_phi,
        Lyy=sin_psi * sin_psi * inv_tan - ky * sin_psi,
        Lxy=sin_phi * sin_psi * inv_sin,
    )
    if x.ndim == 0:
        fields = {name: float(value) for name, value in fields.items()}
    return ChordData(**fields)


def _distance_of_arclengths(curve, arclen, x, y):
    """Chord lengths between arc-length parameters x and y, dtype preserved."""
    t = arclen.t_of_s(np.stack([x, y]))
    p, q = np.asarray(curve.point(t))
    return _distance_coords(curve.geometry, p, q)


_SAMPLE_BLOCK = 512  # samples validated together; bounds the stencil arrays


def validate_partials(curve: ParametricCurve, samples: int = 100, seed: int = 0,
                      step: float = 1e-5) -> dict:
    """Check Lx, Ly, Lxx, Lyy, Lxy against central differences of distance.

    The finite-difference stencil is evaluated in extended precision
    (long double) so the h^-2 roundoff amplification stays below the 1e-5
    target; relative-error denominators are floored at 1e-3.  All samples
    are drawn first; then the 9 stencil chords of every sample are
    evaluated together, in one arc-length inversion per block of samples.

    Returns a report dict with per-quantity and overall max relative errors.
    """
    arclen = ArcLengthParam(curve)
    Ltot = arclen.total_length
    rng = np.random.default_rng(seed)
    draws = np.array([(rng.uniform(0.0, Ltot), rng.uniform(0.2, 0.8)) for _ in range(int(samples))])
    h = np.longdouble(step)
    # the stencil's steps in (x, y), one row each: 0 0, + 0, - 0, 0 +, 0 -, + +, + -, - +, - -
    sx = np.array([0, 1, -1, 0, 0, 1, 1, -1, -1], dtype=np.longdouble)[:, None] * h
    sy = np.array([0, 0, 0, 1, -1, 1, -1, 1, -1], dtype=np.longdouble)[:, None] * h

    errs = {name: 0.0 for name in ("Lx", "Ly", "Lxx", "Lyy", "Lxy")}
    for lo in range(0, len(draws), _SAMPLE_BLOCK):
        block = draws[lo:lo + _SAMPLE_BLOCK].astype(np.longdouble)
        x = block[:, 0]
        y = x + block[:, 1] * np.longdouble(Ltot)
        cd = chord_data(curve, x.astype(float), y.astype(float), arclen)
        d0, dxp, dxm, dyp, dym, dpp, dpm, dmp, dmm = _distance_of_arclengths(
            curve, arclen, x + sx, y + sy)

        fd = {
            "Lx": (dxp - dxm) / (2 * h),
            "Ly": (dyp - dym) / (2 * h),
            "Lxx": (dxp - 2 * d0 + dxm) / h**2,
            "Lyy": (dyp - 2 * d0 + dym) / h**2,
            "Lxy": (dpp - dpm - dmp + dmm) / (4 * h**2),
        }
        for name in errs:
            ana = getattr(cd, name)
            rel = np.abs(fd[name].astype(float) - ana) / np.maximum(np.abs(ana), 1e-3)
            errs[name] = float(np.fmax.reduce(rel, initial=errs[name]))  # fmax skips NaN

    return {
        "geometry": curve.geometry.value,
        "samples": int(samples),
        "step": float(step),
        "max_rel_err": max(errs.values()),
        "per_quantity": errs,
    }
