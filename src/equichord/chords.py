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

from .core import _all, _count, _newton
from .errors import Degenerate, OutOfRange
from .geometry import ParametricCurve, _GRID_CAP, _angle, _band_grid, _broadcast, _frame, mnorm

__all__ = ["ArcLengthParam", "ChordData", "chord_data", "validate_partials"]

def _fft_grid(n: int):
    """The n speed sample points j 2 pi / n, j in FFT order, for a power of two n."""
    return np.fft.fftfreq(n, 1.0 / n) * (2 * np.pi / n)


def _speeds(curve: ParametricCurve, ts):
    """The curve's speed at ts; OutOfRange where a speed or the length is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused just below
        speeds = mnorm(curve.geometry, curve.velocity(ts))
    # the sum is finite iff every speed and the total length are
    if not np.isfinite(speeds.sum()):
        nan = np.isnan(speeds)
        if nan.any():
            raise OutOfRange(f"the curve's velocity at t = {float(ts[nan.argmax()])!r} is not finite")
        raise OutOfRange("curve speed or length overflows floating point")
    return speeds


def _not_finite(what: str, x) -> OutOfRange:
    """The refusal of x, naming its first element that is NaN or infinite."""
    return OutOfRange(f"{what} must be finite, got {float(np.extract(~np.isfinite(x), x)[0])!r}")


class ArcLengthParam:
    """Spectral arc-length parameterization of a smooth closed curve.

    s(t) = mean_speed * t + sum_k (a_k sin kt - b_k cos kt + b_k).  A curve
    that knows its speed in closed form (``ParametricCurve._speed``: rho on
    an E2 Fourier curve in its turning-angle parameter, sn_K(R) on a geodesic
    circle) is integrated term by term: the speed c0 + sum A cos(kt + p)
    gives mean_speed = c0, a_k = (A / k) cos p and b_k = -(A / k) sin p, with
    equal orders merged and orders whose coefficients are both zero dropped.
    Any other curve's speed is sampled on its band grid over [-pi, pi) (``_sample``),
    and integrated through its FFT, keeping the orders above the round-off floor
    eps * (mean_speed + its total variation over a period) (docs/derivation.md).

    Either way a speed with no harmonic left (a circle) gives
    s = mean_speed * t exactly, and a length that overflows floating point
    is refused.  ``s_of_t`` and ``t_of_s`` read the series alone: Newton's
    slope is its own derivative s', from the same sin kt and cos kt, and no
    reference to the curve is kept.  Both take any real argument, of any
    shape, as a double, and wrap.
    """

    def __init__(self, curve: ParametricCurve):
        if curve._speed is None:
            floor = self._sample(curve)
        else:
            series, floor = curve._speed
            self._integrate(series)
        # t_of_s's bracket about s / mean_speed: P = sum |a_k| + 2 sum |b_k| bounds the
        # periodic part, so the root lies within P / mean_speed, and Newton's first
        # step moves at most P / (least speed) further (docs/derivation.md)
        spread = np.abs(self._a).sum() + 2 * np.abs(self._b).sum()
        self._reach = spread / self.mean_speed + spread / floor
        self.total_length = self.mean_speed * 2 * np.pi
        if not np.isfinite(self.total_length):
            raise OutOfRange("curve speed or length overflows floating point")

    def _integrate(self, series):
        """Closed-form coefficients of the speed series' antiderivative."""
        coeffs = {}
        for h in series.harmonics:
            a, b = coeffs.get(int(h.k), (0.0, 0.0))
            coeffs[int(h.k)] = (a + h.amp / h.k * np.cos(h.phase), b - h.amp / h.k * np.sin(h.phase))
        ks = sorted(k for k, ab in coeffs.items() if ab != (0.0, 0.0))
        self.mean_speed = float(series.c0)
        self._ks = np.array(ks, dtype=np.int64)
        self._a, self._b = (np.array([coeffs[k][i] for k in ks], dtype=float) for i in (0, 1))

    def _sample(self, curve) -> float:
        """Coefficients from the FFT of the sampled speed; returns a lower bound on the speed.

        The grid is t_j = j h in FFT order, j = 0, ..., N/2 - 1, -N/2, ..., -1: the
        points of [0, 2 pi) mod 2 pi, with |t_j| <= pi, so the rounding of j h, a
        ramp that the FFT would carry into the kept orders, stays half as large.  N
        starts at the curve's band grid (``_band_grid``) and doubles, evaluating the
        new odd entries only, while an order above 3N/8 is above the round-off floor,
        up to _GRID_CAP.  The bound is the least sample less the second-order margin
        1/2 sum_k k^3 (|a_k| + |b_k|) (pi/N)^2 of the kept series (docs/derivation.md)."""
        n = _band_grid(curve._band)
        speeds = _speeds(curve, _fft_grid(n))
        eps = np.finfo(float).eps
        while True:
            coeffs = np.fft.rfft(speeds) / n
            self.mean_speed = float(coeffs[0].real)
            k = np.arange(1, len(coeffs))
            a = np.asarray(2 * coeffs[1:].real / k)   # coefficient of sin(kt)
            b = np.asarray(-2 * coeffs[1:].imag / k)  # minus the cos(kt) coefficient
            # a sample rounds like the speed plus its grid point times the slope (summing to the variation)
            variation = np.abs(np.diff(speeds, append=speeds[:1])).sum()
            keep = (np.abs(a) + np.abs(b)) > eps * (self.mean_speed + variation)
            if n >= _GRID_CAP or not keep[3 * n // 8:].any():
                break
            n *= 2
            finer = np.empty(n)
            finer[0::2], finer[1::2] = speeds, _speeds(curve, _fft_grid(n)[1::2])
            speeds = finer
        self._ks, self._a, self._b = k[keep], a[keep], b[keep]
        least = speeds.min()
        bound = least - 0.5 * (self._ks ** 3 * (np.abs(self._a) + np.abs(self._b))).sum() * (np.pi / n) ** 2
        # a margin that reaches the least sample bounds nothing: the samples stay the bracket's
        return bound if bound > 0.0 else least

    def _s_and_slope(self, t):
        """(s(t), s'(t)) at a double t, from one sin kt and one cos kt per kept order."""
        if not self._ks.size:
            return self.mean_speed * t, np.full(np.shape(t), self.mean_speed)[()]
        kt = np.multiply.outer(t, self._ks)
        sin, cos = np.sin(kt), np.cos(kt)
        per = (sin * self._a).sum(axis=-1) - (cos * self._b).sum(axis=-1) + self._b.sum()
        slope = ((cos * self._a + sin * self._b) * self._ks).sum(axis=-1)
        return self.mean_speed * t + per, self.mean_speed + slope

    def s_of_t(self, t):
        """Arc length from t = 0 to t, elementwise over t of any shape; OutOfRange for a t
        that is NaN or infinite."""
        t = np.asarray(t, dtype=float)
        if not _all(np.isfinite(t)):
            raise _not_finite("parameter t", t)
        return self._s_and_slope(t)[0]

    def t_of_s(self, s, start=None):
        """Parameter t with s_of_t(t) = s, elementwise over s of any shape.

        Newton (``core._newton``) runs on the whole array, in place, from
        s / mean_speed, or from ``start`` (one first guess per element of s)
        when given; an element's root is kept from the round it converges in,
        so it takes exactly the steps it would take alone; a round evaluates
        the series once for s and s'.  A guess O(h^2) from the root, such as a
        known t plus h / s'(t), converges in two steps.  With no harmonic
        kept, t is s / mean_speed and no Newton step is taken.  A scalar gives
        a numpy double.  Raises OutOfRange for an s or a start that is NaN or
        infinite.
        """
        s = np.asarray(s, dtype=float)
        start = None if start is None else np.asarray(start, dtype=float).reshape(s.shape)
        finite = np.isfinite(s)
        if not _all(finite if start is None else finite & np.isfinite(start)):
            if not _all(finite):
                raise _not_finite("arc length s", s)
            raise _not_finite("start", start)
        centre = s / self.mean_speed
        if not self._ks.size:
            return centre[()]
        t = centre if start is None else start
        def f(t):
            y, dy = self._s_and_slope(t)
            return y - s, dy
        return _newton(f, (centre - self._reach)[()], (centre + self._reach)[()], t[()])


@dataclass(frozen=True)
class ChordData:
    """One chord's record, or with array fields, one element per chord.

    x, y are the arc-length parameters of the ends and tx, ty their curve
    parameters.
    """

    x: float
    y: float
    tx: float
    ty: float
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
    for bit to the chord computed alone.  The 2 x n chord ends are inverted
    together, and the curve's jet (point, velocity and acceleration) at each
    is evaluated once, shared by the chord, the frames (unit tangent and
    normal) and the geodesic curvatures.  Both end angles are measured on
    the ambient chord w = q - p, as atan2(|<w, N>|, <w, T>) in each end's
    frame: at either end, w's tangential part is a positive multiple of the
    geodesic's direction there (docs/derivation.md, "One frame and one angle
    at a chord end").
    """
    if arclen is None:
        arclen = ArcLengthParam(curve)
    g = curve.geometry
    kern = g.kernel
    x, y = _broadcast(x, y)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise OutOfRange("chord ends must be finite arc lengths")
    Ltot = arclen.total_length
    gap = 1e-12 * arclen.mean_speed  # 1e-12 on a curve of length 2 pi; scales with the curve
    if np.any((np.abs((x - y) % Ltot) < gap) | (np.abs((y - x) % Ltot) < gap)):
        raise Degenerate("chord endpoints coincide mod curve length")

    t = arclen.t_of_s(np.stack([x, y]))
    # each column holds both ends, x then y
    ends, v, a = curve.jet(t, 2)
    ends = kern.project(ends)
    tan, normal, speed2 = _frame(g, t, ends, v)
    p, q = zip(*ends)
    L = kern.distance(p, q)
    phi, psi = _angle(g, tan, normal, tuple(qc - pc for pc, qc in zip(p, q)))
    kx, ky = kern.dot(a, normal) / speed2
    inv_sin, inv_tan = 1.0 / kern.sn(L), 1.0 / kern.tn(L)
    # sin * sin, not ** 2: numpy rounds a scalar's square through pow()
    sin_phi, sin_psi = np.sin(phi), np.sin(psi)
    fields = dict(
        x=x, y=y, tx=t[0], ty=t[1], L=L, phi=phi, psi=psi,
        Lx=-np.cos(phi), Ly=np.cos(psi),
        Lxx=sin_phi * sin_phi * inv_tan - kx * sin_phi,
        Lyy=sin_psi * sin_psi * inv_tan - ky * sin_psi,
        Lxy=sin_phi * sin_psi * inv_sin,
    )
    if x.ndim == 0:
        fields = {name: float(value) for name, value in fields.items()}
    return ChordData(**fields)


_SAMPLE_BLOCK = 512  # samples validated together; bounds the stencil arrays


def _d1(f):
    """60 h times the seven-point first derivative, f stacked on axis 0 at x + (-3..3) h."""
    return 45 * (f[4] - f[2]) - 9 * (f[5] - f[1]) + (f[6] - f[0])


def _d2(f):
    """180 h^2 times the seven-point second derivative, f stacked as in ``_d1``."""
    return 270 * (f[2] + f[4]) - 27 * (f[1] + f[5]) + 2 * (f[0] + f[6]) - 490 * f[3]


def validate_partials(curve: ParametricCurve, samples: int = 100, seed: int = 0) -> dict:
    """Check Lx, Ly, Lxx, Lyy, Lxy against central differences of distance.

    The differences are the sixth-order seven-point central stencil in double:
    first partials (-1, 9, -45, 0, 45, -9, 1) / 60h and second partials
    (2, -27, 270, -490, 270, -27, 2) / 180h^2 on x + {0, +-h, +-2h, +-3h}, and
    the mixed partial the outer product of the first-partial weights over
    3600 h^2.  The step follows the curve: h = 2e-3 l (the report's "step"),
    with l = s / sqrt(1 + |K| s^2) and s = length / 2 pi, so l is s on E2,
    where the check is similarity-invariant, and below the space's scale on
    S2/H2.  The truncation, of order (h / l)^6, stays far below the rounding,
    of order eps |L| / h^2, where a fourth-order stencil's did not
    (docs/derivation.md).  Relative-error denominators are floored at 1e-3 for
    first partials and 1e-3 / l = 2e-6 / h for second ones.  All samples are
    drawn first.  A sample's 49 stencil chords share 14 ends, x + {0, +-h,
    +-2h, +-3h} and the same about y; the ends of every sample in a block are
    inverted in one arc-length inversion and evaluated in one point call, and
    one broadcast distance pairs them up.  That inversion starts each end at
    t_end + ds / s'(t_end), from the chord end chord_data has already
    inverted; the guess is O(h^2) from the root, so Newton takes two or three steps.

    Raises OutOfRange for a sample count that is not an integer >= 1, a seed
    that is not an integer >= 0, and a sample whose chord partial is NaN or
    infinite; the message says whether the chord overflows (its length, or a
    squared coordinate of an end, is infinite) or loses its digits to
    cancellation.
    Returns a report dict with per-quantity and overall max relative errors.
    """
    samples = _count(samples, "validate_partials' sample count", 1)
    seed = _count(seed, "validate_partials' seed", 0)
    arclen = ArcLengthParam(curve)
    Ltot = arclen.total_length
    s = arclen.mean_speed  # Ltot / 2 pi; l = s / sqrt(1 + |K| s^2) stays below the space's scale
    h = 2e-3 * float(s / np.hypot(1.0, np.sqrt(abs(curve.geometry.kernel.K)) * s))
    floor = np.array([1e-3, 1e-3] + 3 * [2e-6 / h])[:, None]
    rng = np.random.default_rng(seed)
    # one row (x, chord fraction) per sample, drawn in the order of a per-sample loop
    draws = rng.uniform([0.0, 0.2], [Ltot, 0.8], size=(samples, 2))
    ds = np.arange(-3.0, 4.0)[:, None] * h  # each end's steps, -3h to 3h, one row each

    names = ("Lx", "Ly", "Lxx", "Lyy", "Lxy")
    worst = np.zeros(len(names))
    for lo in range(0, len(draws), _SAMPLE_BLOCK):
        block = draws[lo:lo + _SAMPLE_BLOCK]
        x = block[:, 0]
        y = x + block[:, 1] * Ltot
        # a chord that cancels to NaN or to L = 0 is refused below, so its warnings are noise;
        # so is an overflow: its inf meets another (NaN) or saturates L's sn and tn
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            cd = chord_data(curve, x, y, arclen)
            s = np.stack([x + ds, y + ds])
            s_end = np.stack([cd.x, cd.y])[:, None]
            t_end = np.stack([cd.tx, cd.ty])[:, None]
            t = arclen.t_of_s(s, start=t_end + (s - s_end) / arclen._s_and_slope(t_end)[1])
            p, q = zip(*curve.point(t))
            # d[i, j] is the chord from x + (i - 3) h to y + (j - 3) h
            d = curve.geometry.kernel.distance(tuple(c[:, None] for c in p), tuple(c[None, :] for c in q))
            fd = np.stack([
                _d1(d[:, 3]) / (60 * h),
                _d1(d[3]) / (60 * h),
                _d2(d[:, 3]) / (180 * h * h),
                _d2(d[3]) / (180 * h * h),
                _d1(_d1(d)) / (3600 * h * h),
            ])
            ana = np.stack([getattr(cd, name) for name in names])
            rel = np.abs(fd - ana) / np.maximum(np.abs(ana), floor)
        bad = ~np.isfinite(rel).all(axis=0)
        if bad.any():
            i = int(np.argmax(bad))
            kind = "NaN" if np.isnan(rel[:, i]).any() else "infinite"
            # an end whose squared coordinates overflow gives inf - inf in the distance
            with np.errstate(over="ignore"):
                ends = curve.point(np.array([cd.tx[i], cd.ty[i]]))
                overflow = np.isinf(cd.L[i]) or not all(np.isfinite(c * c).all() for c in ends)
            cause = "overflows floating point" if overflow else "loses every digit to cancellation"
            raise OutOfRange(
                f"sample {lo + i} (x = {float(x[i])!r}, y = {float(y[i])!r}) gives a {kind} chord "
                f"partial: the {curve.geometry.value} chord {cause}")
        worst = np.maximum(worst, rel.max(axis=1))

    errs = dict(zip(names, worst.tolist()))
    return {
        "geometry": curve.geometry.value,
        "samples": samples,
        "step": h,
        "max_rel_err": max(errs.values()),
        "per_quantity": errs,
    }
