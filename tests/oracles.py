"""Closed forms and polygon checks that only the tests use, kept here as oracles.

Each one states a result of the paper independently of the code under test:
the chord length of an exact single-harmonic E2 Gutkin curve, the circulant
eigenvalues as the plain O(nk) sum over the first row, the beta-angle sum and
the angle periodicity of a Gutkin polygon, and a canonical similarity frame
for comparing polygons.
"""

import numpy as np

from equichord.angles import _polefree
from equichord.errors import NotAdmissible, OutOfRange
from equichord.polygons import GutkinPolygon, interior_angles, verify_gutkin


def gutkin_chord_length_formula(spec, alpha: float, t):
    """Chord length L(t) = 2 sin(a) (c0 + amp cos(k a) cos(kt + phase)).

    Valid for a single-harmonic curve whose k satisfies k tan a = tan(k a);
    equals the measured geodesic distance between gamma(t - a) and
    gamma(t + a).
    """
    if len(spec.harmonics) != 1:
        raise OutOfRange("closed-form chord length needs exactly one harmonic")
    h = spec.harmonics[0]
    if abs(_polefree(h.k, alpha)) > 1e-8:
        raise NotAdmissible(
            f"alpha={alpha} does not satisfy k tan(alpha) = tan(k alpha) for k={h.k}"
        )
    t = np.asarray(t)
    return 2 * np.sin(alpha) * (spec.c0 + h.amp * np.cos(h.k * alpha) * np.cos(h.k * t + h.phase))


def direct_circulant_spectrum(n: int, k: int):
    """(eigenvalues, zero set, row scale) of the (n, k) constraint matrix by
    the direct sum lambda_r = sum_{nu<k} row_nu omega^{nu r}, row_nu =
    omega^{nu-m} - omega^{m-nu}, m = (k - 1)/2, over a k x n table of powers.

    The zero test is the library's: |lambda_r| below 1e-9 of max |row_nu|.
    """
    m = (k - 1) / 2.0
    nu = np.arange(k)
    row = np.exp(2j * np.pi * (nu - m) / n) - np.exp(2j * np.pi * (m - nu) / n)
    lam = row @ np.exp(2j * np.pi * np.outer(nu, np.arange(n)) / n)
    scale = float(np.abs(row).max())
    zero_set = tuple(int(r) for r in np.nonzero(np.abs(lam) / scale < 1e-9)[0])
    return lam, zero_set, scale


def beta_sum_check(p: GutkinPolygon) -> float:
    """|alpha - (pi (n - 2) - sum beta_i) / (2n)|; undefined at n = 2k."""
    if p.n == 2 * p.k:
        raise OutOfRange("beta angles do not exist when n = 2k")
    betas = p.beta_angles
    if betas is None:
        betas = verify_gutkin(p.vertices, p.k)["beta_angles"]
    predicted = (np.pi * (p.n - 2) - betas.sum()) / (2 * p.n)
    return float(abs(p.alpha - predicted))


def angle_periodicity_check(p: GutkinPolygon, tol: float = 1e-9) -> bool:
    """Interior angle at v_i equals the one at v_{i+k-1}, for all i."""
    ang = interior_angles(p.vertices)
    shifted = np.roll(ang, -(p.k - 1) % p.n)
    return bool(np.abs(ang - shifted).max() < tol)


def normalize_similarity(p: GutkinPolygon) -> GutkinPolygon:
    """Canonical placement: v0 at the origin, v1 on the positive x axis;
    scale so the k-diagonal is 1 when n = 2k, else perimeter 1."""
    v = p.vertices - p.vertices[0]
    ang = np.arctan2(v[1, 1], v[1, 0])
    rot = np.array([[np.cos(-ang), -np.sin(-ang)], [np.sin(-ang), np.cos(-ang)]])
    v = v @ rot.T
    if p.n == 2 * p.k:
        scale = np.linalg.norm(v[p.k] - v[0])
    else:
        scale = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum()
    v = v / scale
    return GutkinPolygon(n=p.n, k=p.k, vertices=v, alpha=p.alpha,
                         max_residual=p.max_residual, beta_angles=p.beta_angles)
