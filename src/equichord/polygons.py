"""Equiangular-chord polygons: verification, spectral theory, constructions.

A Gutkin (n, k)-gon is a convex n-gon whose k-diagonals meet the sides at
the same angle alpha = pi (k - 1) / n at both endpoints.  Nontrivial
(non-regular) ones exist iff gcd(n, k - 1) > 1; the equiangular family is
spanned by the real Fourier modes of the zero set of a circulant matrix
whose first row is built from differences of roots of unity.

Angle measurements are literal: each is atan2(|u x w|, u . w) of the two
rays at its vertex, built once over all vertices as edges v[i+1] - v[i] and
diagonals v[i+k] - v[i] (docs/derivation.md, "Measuring polygon angles").
So verification also works for diagonal indices above n/2 -- a k-diagonal
is an (n-k)-diagonal with swapped ends.  The spectral operations require the
canonical range 2 <= k <= n/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angles import _restr2_roots, _spectral_range
from .errors import Infeasible, NonConvex, NotAdmissible, OutOfRange
from .geometry import _all, _count, _positive

__all__ = [
    "GutkinPolygon",
    "CirculantSpectrum",
    "verify_gutkin",
    "circulant_spectrum",
    "equiangular_family_basis",
    "family_member",
    "polygon_from_sides",
    "construct_2kk",
    "construct_inscribed",
    "exists_nontrivial",
    "regular_polygon",
]

def _require_diagonal_index(n: int, k: int):
    if not (2 <= k <= n - 1):
        raise OutOfRange(f"diagonal index k={k} out of range for n={n}")


def _vertex_array(vertices) -> np.ndarray:
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
        raise OutOfRange("vertices must be an (n, 2) array with n >= 3")
    return v


def _ahead(v: np.ndarray, j: int) -> np.ndarray:
    """Row i holds v[(i + j) % n] for -n < j < n: np.roll(v, -j, axis=0)
    without its overhead."""
    return np.concatenate((v[j:], v[:j]))


def _ccw_edges(v: np.ndarray) -> np.ndarray:
    """Edges e[i] = v[i+1] - v[i] of a strictly convex counterclockwise polygon."""
    e = _ahead(v, 1) - v
    e1 = _ahead(e, 1)
    cross = e[:, 0] * e1[:, 1] - e[:, 1] * e1[:, 0]
    if not _all(cross > 0):
        if _all(cross < 0):
            raise OutOfRange("vertices are clockwise; expected counterclockwise")
        raise NonConvex("polygon is not strictly convex")
    return e


def _measured_scale(v: np.ndarray) -> np.ndarray:
    """v as measured: itself where its largest coordinate lies in [2^-256, 2^256], and
    elsewhere times the power of two, exact, that brings that coordinate into [1/2, 1).
    The products of edges and diagonals overflow from about 2^511 on and lose digits to
    underflow below about 2^-511, and np.arctan2 changes with the scale of arguments
    beyond about 2^990 or below 2^-1004.  Inside the band, a polygon whose coordinate
    differences are not tiny against its largest coordinate meets none of these, so its
    exact 2^j scalings measure alike, bit for bit.  OutOfRange for a coordinate that is
    not finite."""
    top = float(np.abs(v).max())
    if not 2.0 ** -256 <= top <= 2.0 ** 256:  # NaN and 0 too
        if not top < math.inf:
            raise OutOfRange("vertices must be finite")
        v = np.ldexp(v, -math.frexp(top)[1])
    return v


def _angle(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unsigned angle between u[i] and w[i]: atan2(|u x w|, u . w)."""
    u0, u1, w0, w1 = u[:, 0], u[:, 1], w[:, 0], w[:, 1]
    return np.arctan2(np.abs(u0 * w1 - u1 * w0), u0 * w0 + u1 * w1)


@dataclass(frozen=True)
class GutkinPolygon:
    n: int
    k: int
    vertices: np.ndarray
    alpha: float
    max_residual: float = 0.0
    beta_angles: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", _vertex_array(self.vertices))


@dataclass(frozen=True)
class CirculantSpectrum:
    n: int
    k: int
    eigenvalues: np.ndarray
    zero_set: tuple[int, ...]
    M: int = field(init=False)

    def __post_init__(self):
        zs = tuple(sorted(int(r) for r in self.zero_set))
        object.__setattr__(self, "zero_set", zs)
        object.__setattr__(self, "M", sum(1 for r in zs if 2 <= r <= self.n - 2))


def verify_gutkin(vertices, k: int, tol: float = 1e-9) -> dict:
    """Measure all 2n contact angles of the k-diagonals.

    is_gutkin iff every measured angle deviates from their common mean by
    less than tol, which must be finite and positive (OutOfRange otherwise).
    beta_angles (the angle between the two diagonals at each vertex) are
    included when n != 2k.  A vertex that is not finite raises OutOfRange; a
    polygon far from unit size is measured at an exact power-of-two scale
    (``_measured_scale``), so its exact 2^j scalings measure alike.
    """
    _positive(tol, "tol")
    v = _vertex_array(vertices)
    n = len(v)
    k = _count(k, "k")
    _require_diagonal_index(n, k)
    v = _measured_scale(v)
    e = _ccw_edges(v)
    d = _ahead(v, k) - v

    # departure at v[i] between e[i] and d[i]; arrival at v[i+k] between
    # -e[i+k-1] and -d[i], whose cross and dot equal those without the signs
    # bit for bit.  Interleaved as (departure, arrival), the order the mean sums in.
    measured = np.stack([_angle(e, d), _angle(_ahead(e, k - 1), d)], axis=1).ravel()
    mean = float(measured.mean())
    max_residual = float(np.abs(measured - mean).max())

    betas = None
    if n != 2 * k:
        betas = _angle(-_ahead(d, -k), d)

    return {
        "is_gutkin": bool(max_residual < tol),
        "alpha_measured": mean,
        "max_residual": max_residual,
        "beta_angles": betas,
        "n": n,
        "k": k,
    }


def as_gutkin_polygon(vertices, k: int, tol: float = 1e-9) -> GutkinPolygon:
    rep = verify_gutkin(vertices, k, tol)
    if not rep["is_gutkin"]:
        raise NotAdmissible(
            f"polygon is not Gutkin for k={k}: max contact-angle spread "
            f"{rep['max_residual']:.3e} >= tol {tol:g}"
        )
    return GutkinPolygon(n=rep["n"], k=k, vertices=np.asarray(vertices, float),
                         alpha=rep["alpha_measured"], max_residual=rep["max_residual"],
                         beta_angles=rep["beta_angles"])


# ---------------------------------------------------------------------------
# circulant spectral theory


def _first_row(n: int, k: int) -> np.ndarray:
    """Row (omega^{nu-m} - omega^{m-nu})_{nu<k} padded with zeros; m=(k-1)/2.

    Fractional powers for even k go through the exponential directly.
    Each entry is 2i sin(2 pi (nu - m) / n), i.e. i times a real number.
    """
    m = (k - 1) / 2.0
    row = np.zeros(n, dtype=complex)
    nu = np.arange(k)
    row[:k] = np.exp(2j * np.pi * (nu - m) / n) - np.exp(2j * np.pi * (m - nu) / n)
    return row


def circulant_spectrum(n: int, k: int) -> CirculantSpectrum:
    """Eigenvalues lambda_r = sum_nu row_nu omega^{nu r} of the diagonal
    constraint matrix, cross-checked against the inverse DFT of its first row.

    The sum is geometric, so it is evaluated in closed form in O(n):
    lambda_r = omega^{m r} (D_k(r + 1) - D_k(r - 1)) with the Dirichlet kernel
    D_k(s) = sin(pi k s/n) / sin(pi s/n), D_k(0) = k, D_k(n) = (-1)^{k+1} k
    (docs/derivation.md, "The circulant spectrum in closed form").  zero_set
    is 0 plus the restr2 roots, decided in integers ("The zero set in integers").
    """
    n, k = _spectral_range(n, k)
    row = _first_row(n, k)
    # dk[s + 1] = D_k(s) for s = -1..n.  Only 0 < s < n takes sines: D_k is
    # even and its limits are set directly.  Angles are reduced mod 2n in integers.
    s = np.arange(1, n)
    dk = np.empty(n + 2)
    dk[2:-1] = np.sin(np.pi / n * (k * s % (2 * n))) / np.sin(np.pi / n * s)
    dk[0], dk[1], dk[-1] = dk[2], k, (-1) ** (k + 1) * k
    r = np.arange(n)
    lam = np.exp(1j * np.pi / n * ((k - 1) * r % (2 * n))) * (dk[2:] - dk[:-2])
    # an independent evaluation of the same sum; disagreement means a
    # derivation or indexing bug
    lam_fft = np.fft.ifft(row) * n
    fft_gap = np.abs(lam - lam_fft).max()
    if not fft_gap < 1e-9 * max(1.0, np.abs(lam).max()):
        raise RuntimeError(f"eigenvalue sum and FFT disagree by {fft_gap:.3e}")
    return CirculantSpectrum(n=n, k=k, eigenvalues=lam, zero_set=(0, *_restr2_roots(n, k)))


def equiangular_family_basis(n: int, k: int) -> list[np.ndarray]:
    """Orthonormal basis of side-length deformations of the regular (n, k)-gon.

    The constraint matrix is circulant, so its kernel holds the Fourier modes
    of its zero set: r = 0, the ones vector, which is left out, and the restr2
    roots.  Ascending in r, each root r < n/2 gives sqrt(2/n) cos(2 pi r j/n),
    then sqrt(2/n) sin(2 pi r j/n), and r = n/2 gives (-1)^j / sqrt(n).
    """
    n, k = _spectral_range(n, k)
    roots = _restr2_roots(n, k)
    r = np.array([x for x in roots if 2 * x < n], dtype=int)
    j = np.arange(n)
    # r j reduced mod n exactly in integers indexes the n angles 2 pi j / n
    t = 2 * np.pi * j / n
    at = np.outer(r, j) % n
    modes = np.sqrt(2.0 / n) * np.stack([np.cos(t)[at], np.sin(t)[at]], axis=1).reshape(-1, n)
    if n / 2 in roots:
        modes = np.vstack([modes, (1 - 2 * (j % 2)) / np.sqrt(n)])
    return list(modes)


def polygon_from_sides(sides: np.ndarray) -> np.ndarray:
    """Equiangular polygon with exterior turning 2 pi / n per vertex:
    v_{i+1} = v_i + sides_i * omega^i."""
    x = np.asarray(sides, dtype=float)
    n = len(x)
    steps = x * np.exp(2j * np.pi * np.arange(n) / n)
    z = np.concatenate([[0.0 + 0.0j], np.cumsum(steps)[:-1]])
    return np.stack([z.real, z.imag], axis=-1)


def family_member(n: int, k: int, coefficients=None) -> np.ndarray:
    """Side-length vector 1 + s * b inside the positivity region.

    b combines the kernel basis with the given coefficients (default: the
    first basis vector, the cosine mode of the lowest r); s is chosen so
    min(sides) = 0.1 * mean(sides).
    """
    basis = equiangular_family_basis(n, k)
    if not basis:
        raise Infeasible(f"({n}, {k}) admits only the regular polygon")
    if coefficients is None:
        b = basis[0]
    else:
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (len(basis),) or not _all(np.isfinite(coefficients)):
            raise OutOfRange(f"expected {len(basis)} finite coefficients")
        b = sum(c * v for c, v in zip(coefficients, basis))
    # basis is orthogonal to ones, so mean(1 + s b) = 1
    lo = float(b.min())
    if lo >= 0:
        raise Infeasible("degenerate kernel direction")
    s = 0.9 / (-lo)
    return 1.0 + s * b


def exists_nontrivial(n: int, k: int) -> bool:
    """Nontrivial Gutkin (n, k)-gons exist iff gcd(n, k - 1) > 1, except
    that the case n = 2k is special: there they always exist for k >= 3
    (the family has dimension k - 2, regardless of the gcd)."""
    n, k = _spectral_range(n, k)
    if n == 2 * k:
        return k >= 3
    return math.gcd(n, k - 1) > 1


def construct_2kk(k: int, free_params=()) -> GutkinPolygon:
    """Gutkin (2k, k)-gon with unit diagonals from k - 2 free side lengths.

    Sides x_0..x_{k-1} satisfy sum x_i (cos i theta, sin i theta) =
    (cos alpha, sin alpha) with theta = pi / k; the opposite sides are
    y_i = 2 cos(alpha) - x_i.  The first k - 2 sides are the free
    parameters; the last two are solved from the closure constraints.
    """
    k = _count(k, "k", 2)
    params = np.asarray(free_params, dtype=float).reshape(-1)
    if len(params) != k - 2 or not _all(np.isfinite(params)):
        raise OutOfRange(f"construct_2kk(k={k}) takes exactly {k - 2} finite free parameters")
    theta = np.pi / k
    alpha = np.pi * (k - 1) / (2 * k)

    i = np.arange(k)
    cols = np.stack([np.cos(i * theta), np.sin(i * theta)])  # 2 x k
    rhs = np.array([np.cos(alpha), np.sin(alpha)])
    rhs = rhs - cols[:, : k - 2] @ params
    x_tail = np.linalg.solve(cols[:, k - 2:], rhs)
    x = np.concatenate([params, x_tail])
    y = 2 * np.cos(alpha) - x
    if np.min(x) <= 0 or np.min(y) <= 0:
        raise Infeasible("side lengths leave the positivity polytope")

    sides = np.concatenate([x, y])
    v = polygon_from_sides(sides)
    return as_gutkin_polygon(v, k, tol=1e-8)


def construct_inscribed(n: int, k: int, arcs) -> GutkinPolygon:
    """Inscribed Gutkin polygon: p = gcd(n, k-1) arcs repeated q = n/p times.

    The arcs must be positive and sum to 2 pi / q.  Any k - 1 consecutive
    arcs then subtend 2 pi (k - 1) / n, so every contact angle is
    pi (k - 1) / n by the inscribed-angle theorem.
    """
    n, k = _count(n, "n"), _count(k, "k")
    _require_diagonal_index(n, k)
    p = math.gcd(n, k - 1)
    if p < 2:
        raise OutOfRange(f"gcd({n}, {k - 1}) = 1: only regular polygons exist")
    q = n // p
    arcs = np.asarray(arcs, dtype=float).reshape(-1)
    if len(arcs) != p:
        raise OutOfRange(f"expected {p} arcs, got {len(arcs)}")
    if not _all(arcs > 0):
        raise OutOfRange("all arcs must be strictly positive")
    if abs(arcs.sum() - 2 * np.pi / q) > 1e-9:
        raise OutOfRange(f"arcs must sum to 2 pi / {q}")
    # rescale away the (at most 1e-9) rounding slack so closure is exact
    arcs = arcs * (2 * np.pi / q / arcs.sum())

    pattern = np.tile(arcs, q)
    positions = np.concatenate([[0.0], np.cumsum(pattern)[:-1]])
    v = np.stack([np.cos(positions), np.sin(positions)], axis=-1)
    return as_gutkin_polygon(v, k, tol=1e-8)


def regular_polygon(n: int) -> np.ndarray:
    """The regular n-gon inscribed in the unit circle; OutOfRange unless n is an integer >= 3."""
    n = _count(n, "a regular polygon's vertex count", 3)
    t = 2 * np.pi * np.arange(n) / n
    return np.stack([np.cos(t), np.sin(t)], axis=-1)
