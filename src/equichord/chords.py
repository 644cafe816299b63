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

from .errors import CoincidentPoints
from .geometry import (
    ParametricCurve,
    _chord_tangent_at_arrival,
    _distance_coords,
    geodesic_curvature,
    mdot,
    mnorm,
    project_to_manifold,
)

__all__ = ["ArcLengthParam", "ChordData", "chord_data", "validate_partials"]


class ArcLengthParam:
    """Spectral arc-length parameterization of a smooth closed curve.

    The speed is sampled on a uniform grid and integrated through its Fourier
    series (trapezoid/FFT, spectrally accurate for smooth periodic speed), so
    s(t) = mean_speed * t + periodic part.  Inversion is by Newton (s is
    strictly increasing) and raises RuntimeError if 60 steps do not converge;
    both directions accept any real argument and wrap naturally.  Evaluation
    preserves the input dtype so the finite-difference oracle can work in
    extended precision.
    """

    def __init__(self, curve: ParametricCurve, n_samples: int = 4096):
        self.curve = curve
        ts = np.arange(n_samples) * (2 * np.pi / n_samples)
        speeds = np.asarray(mnorm(curve.geometry, np.asarray(curve.velocity(ts))), dtype=float)
        coeffs = np.fft.rfft(speeds) / n_samples
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
        s_arr = np.asarray(s, dtype=np.result_type(s, 1.0))
        scalar = s_arr.ndim == 0
        ss = np.atleast_1d(s_arr)
        out = np.empty_like(ss)
        eps = np.finfo(ss.dtype).eps
        for i, si in enumerate(ss):
            t = si / self.mean_speed
            for _ in range(60):
                dt = (self.s_of_t(t) - si) / self.speed(t)
                t = t - dt
                if abs(dt) < 8 * eps * max(1.0, abs(t)):
                    break
            else:
                raise RuntimeError(f"t_of_s: Newton did not converge in 60 steps for s={si!r}")
            out[i] = t
        return out[0] if scalar else out


@dataclass(frozen=True)
class ChordData:
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


def chord_data(curve: ParametricCurve, x: float, y: float,
               arclen: ArcLengthParam | None = None) -> ChordData:
    """Chord record for arc-length parameters x, y on a convex closed curve."""
    if arclen is None:
        arclen = ArcLengthParam(curve)
    g = curve.geometry
    Ltot = arclen.total_length
    if abs((x - y) % Ltot) < 1e-12 or abs((y - x) % Ltot) < 1e-12:
        raise CoincidentPoints("chord endpoints coincide mod curve length")

    tx = float(arclen.t_of_s(float(x)))
    ty = float(arclen.t_of_s(float(y)))
    p = project_to_manifold(g, np.asarray(curve.point(tx), dtype=float))
    q = project_to_manifold(g, np.asarray(curve.point(ty), dtype=float))
    L = float(_distance_coords(g, p, q))

    # unit chord direction at departure
    kern = g.kernel
    d0 = (q - p * kern.cs(L)) / kern.sn(L)
    d1 = _chord_tangent_at_arrival(g, p, d0, L)

    tp = curve.unit_tangent(tx)
    tq = curve.unit_tangent(ty)
    phi = float(np.arccos(np.clip(mdot(g, d0, tp) / mnorm(g, d0), -1.0, 1.0)))
    psi = float(np.arccos(np.clip(mdot(g, d1, tq) / mnorm(g, d1), -1.0, 1.0)))

    kx = geodesic_curvature(curve, tx)
    ky = geodesic_curvature(curve, ty)
    inv_sin, inv_tan = 1.0 / kern.sn(L), 1.0 / kern.tn(L)
    return ChordData(
        x=float(x), y=float(y), L=L, phi=phi, psi=psi,
        Lx=-np.cos(phi), Ly=np.cos(psi),
        Lxx=np.sin(phi) ** 2 * inv_tan - kx * np.sin(phi),
        Lyy=np.sin(psi) ** 2 * inv_tan - ky * np.sin(psi),
        Lxy=np.sin(phi) * np.sin(psi) * inv_sin,
    )


def _distance_of_arclengths(curve, arclen, x, y):
    """Chord length as a function of arc-length parameters, dtype preserved."""
    t = arclen.t_of_s(np.asarray([x, y]))
    pts = np.asarray(curve.point(t))
    return _distance_coords(curve.geometry, pts[0], pts[1])


def validate_partials(curve: ParametricCurve, samples: int = 100, seed: int = 0,
                      step: float = 1e-5) -> dict:
    """Check Lx, Ly, Lxx, Lyy, Lxy against central differences of distance.

    The finite-difference stencil is evaluated in extended precision
    (long double) so the h^-2 roundoff amplification stays below the 1e-5
    target; relative-error denominators are floored at 1e-3.

    Returns a report dict with per-quantity and overall max relative errors.
    """
    arclen = ArcLengthParam(curve)
    Ltot = arclen.total_length
    rng = np.random.default_rng(seed)
    h = np.longdouble(step)

    errs = {name: 0.0 for name in ("Lx", "Ly", "Lxx", "Lyy", "Lxy")}
    for _ in range(int(samples)):
        x = np.longdouble(rng.uniform(0.0, Ltot))
        y = x + np.longdouble(rng.uniform(0.2, 0.8)) * np.longdouble(Ltot)
        cd = chord_data(curve, float(x), float(y), arclen)

        def D(xx, yy):
            return _distance_of_arclengths(curve, arclen, xx, yy)

        d0 = D(x, y)
        dxp, dxm = D(x + h, y), D(x - h, y)
        dyp, dym = D(x, y + h), D(x, y - h)
        dpp, dpm = D(x + h, y + h), D(x + h, y - h)
        dmp, dmm = D(x - h, y + h), D(x - h, y - h)

        fd = {
            "Lx": (dxp - dxm) / (2 * h),
            "Ly": (dyp - dym) / (2 * h),
            "Lxx": (dxp - 2 * d0 + dxm) / h**2,
            "Lyy": (dyp - 2 * d0 + dym) / h**2,
            "Lxy": (dpp - dpm - dmp + dmm) / (4 * h**2),
        }
        for name in errs:
            ana = getattr(cd, name)
            rel = abs(float(fd[name]) - ana) / max(abs(ana), 1e-3)
            errs[name] = max(errs[name], rel)

    return {
        "geometry": curve.geometry.value,
        "samples": int(samples),
        "step": float(step),
        "max_rel_err": max(errs.values()),
        "per_quantity": errs,
    }
