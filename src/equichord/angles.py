"""Root solvers for the admissibility equations of equiangular chords.

Three families of equations live here:

* ``k tan c = tan(k c)`` for integer k >= 2, solved branch by branch of
  tan(kc) on exact brackets (one root per branch away from c = pi/2); the
  pole-free form ``(k-1) sin((k+1)c) - (k+1) sin((k-1)c)``, which equals
  -2 cos c cos kc (tan kc - k tan c), reports the residual;
* the geometry link ``cot c = cs(R) cot alpha`` (cos R on the sphere,
  cosh R on the hyperbolic plane), together with the constants (c, a)
  attached to a circle of radius R with contact angle alpha;
* the integer equation tan(kr pi/n) tan(pi/n) = tan(k pi/n) tan(r pi/n),
  whose roots are decided in integers: the arithmetic characterization
  k + r = n/2 and n | (k-1)(r-1) plus its two boundary cases r = n/2, n = 2k.

``gutkin_roots``, ``contact_angle_from_c`` and ``solve_angle`` run on Python
floats and ``math``, so ``solve-angle`` loads no numpy; ``lemma_constants``,
``f_star`` and the restr2 residual import numpy when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .core import Geometry, _check_radius, _count, _newton
from .errors import OutOfRange

__all__ = [
    "AngleSolution",
    "DiophantineSolution",
    "gutkin_roots",
    "contact_angle_from_c",
    "lemma_constants",
    "f_star",
    "solve_angle",
    "solve_restr2",
    "connelly_check",
]

@dataclass(frozen=True)
class AngleSolution:
    k: int
    geometry: Geometry
    c: float
    alpha: float
    residual: float
    radius: Optional[float] = None


@dataclass(frozen=True)
class DiophantineSolution:
    n: int
    k: int
    r: int
    lhs_minus_rhs: float


def _polefree(k: int, c: float) -> float:
    return (k - 1) * math.sin((k + 1) * c) - (k + 1) * math.sin((k - 1) * c)


def gutkin_roots(k: int) -> list[float]:
    """All solutions of k tan c = tan(kc) in (0, pi), sorted ascending.

    On the branch (2j-1) pi/2k < c < (2j+1) pi/2k of tan(kc) the equation
    reads F_j(c) = kc - j pi - arctan(k tan c) = 0.  When pi/2 is neither
    inside nor an end of the branch (|2j - k| >= 2), F_j is smooth, strictly
    increasing (F_j' = k - k sec^2 c / (1 + k^2 tan^2 c) > 0), negative at the
    lower end and positive at the upper one, so the branch holds exactly one
    root; the other branches hold none.  That makes 2 floor((k-2)/2) roots,
    found by Newton on Python floats, one branch at a time, from the branch
    midpoints j pi/k.
    """
    k = _count(k, "k", 2)
    pi_lo = 1.2246467991473532e-16  # pi - math.pi: j math.pi + j pi_lo keeps the digits math.pi drops
    h = math.pi / (2 * k)
    roots = []
    for j in range(1, k):
        if abs(2 * j - k) < 2:
            continue

        def branch(c, jpi=j * math.pi, jlo=j * pi_lo):
            tan = math.tan(c)
            kt = k * tan
            return k * c - jpi - jlo - math.atan(kt), k - k * (1 + tan * tan) / (1 + kt * kt)

        roots.append(_newton(branch, (2 * j - 1) * h, (2 * j + 1) * h, j * math.pi / k))
    return roots


def contact_angle_from_c(geometry: Geometry, radius: Optional[float], c: float) -> float:
    """Contact angle alpha matching the chord half-span c on a circle.

    Branch: alpha in (0, pi) with sign(cos alpha) = sign(cos c).
    """
    c = float(c)
    if not 0.0 < c < math.pi:
        raise OutOfRange("c must lie in (0, pi)")
    if geometry is Geometry.EUCLIDEAN:
        return c
    cs = geometry.cs(_check_radius(geometry, radius))
    return math.atan2(1.0, math.cos(c) / math.sin(c) / cs)


def lemma_constants(geometry: Geometry, radius: Optional[float], alpha: float) -> tuple[float, float]:
    """(c, a) for a circle of radius R with contact angle alpha.

    c satisfies cot c = cs(R) cot alpha; a is the turning normalization
    sqrt(cs^2 R + K sin^2 alpha sn^2 R) = hypot(cos alpha cs R, sin alpha), as
    cs^2 + K sn^2 = 1: cos/sin on the sphere (K = 1), cosh/sinh on H2 (K = -1).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < math.pi:
        raise OutOfRange("alpha must lie in (0, pi)")
    if geometry is Geometry.EUCLIDEAN:
        return alpha, 1.0
    import numpy as np  # not math: the deformed circles built on these constants keep their bits

    from .geometry import _KERNELS
    kern = _KERNELS[geometry.value]
    r = _check_radius(geometry, radius)
    sn, cs = kern.sn(r), kern.cs(r)
    cot_c = cs * np.cos(alpha) / np.sin(alpha)
    c = float(np.arctan2(1.0, cot_c))
    # equivalent first form of the same lemma, kept as a self-check; its bound
    # scales with the rounding the form amplifies: cancellation in the H2
    # denominator (past 1e12 no digit is left to check) and the rounding of c,
    # which moves first by |cos alpha| c tan c = c sin alpha / cs times eps.
    # Squares that overflow make terms or den inf or NaN, which the test refuses
    with np.errstate(over="ignore", invalid="ignore"):
        terms = cs**2 + sn**2 * np.cos(c) ** 2
        den = cs**2 + kern.K * sn**2 * np.cos(c) ** 2
    if not 1e12 * den > terms:
        raise OutOfRange(f"{geometry.value} radius {r} too large for alpha = {alpha}: cosh^2 R cancels")
    a = float(np.hypot(np.cos(alpha) * cs, np.sin(alpha)))
    first = np.cos(c) / np.sqrt(den)
    if not abs(first - np.cos(alpha)) < 1e-12 * max(terms / den, c * np.sin(alpha) / cs):
        raise RuntimeError(
            f"lemma_constants self-check failed: the first form gives cos alpha = {first!r}, "
            f"expected {np.cos(alpha)!r}"
        )
    return c, a


def f_star(geometry: Geometry, radius: float, alpha: float) -> float:
    """Constant chord-foot distance on a circle: cot f = cot R / sin alpha
    (coth on H2, where artanh(sin alpha tanh R) is formed without cancellation,
    docs/derivation.md)."""
    if geometry is Geometry.EUCLIDEAN:
        raise OutOfRange("f_star is defined on S2 and H2 only")
    if not 0.0 < alpha < math.pi:
        raise OutOfRange("alpha must lie in (0, pi)")
    r = _check_radius(geometry, radius)
    import numpy as np  # as in lemma_constants
    if geometry is Geometry.SPHERICAL:
        return float(np.arctan2(1.0, np.cos(r) / np.sin(r) / np.sin(alpha)))
    s, e = np.sin(alpha), np.exp(-2 * r)
    return float(np.log1p(-2 * s * np.expm1(-2 * r) / (np.cos(alpha) ** 2 / (1 + s) + e * (1 + s))) / 2)


def solve_angle(k: int, geometry: Geometry = Geometry.EUCLIDEAN,
                radius: Optional[float] = None) -> list[AngleSolution]:
    """gutkin_roots plus the geometry-specific contact angles.

    ``residual`` is |pole-free form| / (2k): the form's coefficients k - 1
    and k + 1 sum to 2k, so its rounding at a root near machine precision
    grows with k, and the scaled value reads the same at every k.
    """
    sols = []
    for c in gutkin_roots(k):
        alpha = contact_angle_from_c(geometry, radius, c)
        res = abs(_polefree(k, c)) / (2 * k)
        sols.append(AngleSolution(k=k, geometry=geometry, c=c, alpha=alpha,
                                  residual=res, radius=radius))
    return sols


def _restr2_residual(n: int, k: int, r):
    """tan a tan b = tan c tan d read projectively, at each of the integers r:
    sin a sin b cos c cos d - sin c sin d cos a cos b, an array."""
    import numpy as np  # not math: classify's printed residuals keep their bits

    r = np.asarray(r, dtype=int)
    a = k * r * np.pi / n
    b = np.pi / n
    c = k * np.pi / n
    d = r * np.pi / n
    return (np.sin(a) * np.sin(b) * np.cos(c) * np.cos(d)
            - np.sin(c) * np.sin(d) * np.cos(a) * np.cos(b))


def _spectral_range(n: int, k: int) -> tuple[int, int]:
    """(n, k) as ints, refused unless 2 <= k <= n/2."""
    n, k = _count(n, "n"), _count(k, "k")
    if not (2 <= k <= n / 2):
        raise OutOfRange(
            f"(n, k) = ({n}, {k}): need 2 <= k <= n/2 "
            "(a k-diagonal equals an (n-k)-diagonal with swapped ends)"
        )
    return n, k


def _restr2_roots(n: int, k: int) -> list[int]:
    """The r in [2, n-2] solving restr2 for 2 <= k <= n/2, ascending, decided
    in integers (docs/derivation.md, "The zero set in integers"): every odd
    3 <= r <= n-3 when n = 2k; otherwise n/2 when n is even and k odd, plus
    r0 = n/2 - k and n - r0 when r0 > 1 and connelly_check(n, k, r0) holds."""
    if n == 2 * k:
        return list(range(3, n - 2, 2))
    roots = [n // 2] if n % 2 == 0 and k % 2 == 1 else []
    r0 = n // 2 - k
    if n % 2 == 0 and r0 > 1 and connelly_check(n, k, r0):
        roots = [r0, *roots, n - r0]
    return roots


def solve_restr2(n: int, k: int) -> list[DiophantineSolution]:
    """All r in [2, n-2] solving tan(kr pi/n) tan(pi/n) = tan(k pi/n) tan(r pi/n).

    The roots come from ``_restr2_roots``, symmetric under r <-> n - r;
    ``lhs_minus_rhs`` is the pole-free cross-multiplied form at each.
    """
    n, k = _spectral_range(n, k)
    roots = _restr2_roots(n, k)
    return [DiophantineSolution(n=n, k=k, r=ri, lhs_minus_rhs=x)
            for ri, x in zip(roots, _restr2_residual(n, k, roots).tolist())]


def connelly_check(n: int, k: int, r: int) -> bool:
    """Arithmetic characterization of restr2 solutions: k + r = n/2 and
    n | (k-1)(r-1).  Stated only for 1 < k, r < n/2."""
    n, k, r = _count(n, "n"), _count(k, "k"), _count(r, "r")
    if not (1 < k < n / 2 and 1 < r < n / 2):
        raise OutOfRange("characterization applies for 1 < k, r < n/2 only")
    return 2 * (k + r) == n and ((k - 1) * (r - 1)) % n == 0
