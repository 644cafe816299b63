import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichord import Geometry, circle_curve, geodesic_curvature, shoot_to_curve
from equichord.errors import NonConvex, OutOfRange
from equichord.geometry import (
    ParametricCurve,
    _chord_tangent_at_arrival,
    _distance_coords,
    mdot,
    mnorm,
    project_to_manifold,
)

GEOMETRIES = [Geometry.EUCLIDEAN, Geometry.SPHERICAL, Geometry.HYPERBOLIC]


def distance(geometry, p, q):
    return float(_distance_coords(geometry, np.asarray(p, float), np.asarray(q, float)))


def _random_point(geometry, rng):
    if geometry is Geometry.EUCLIDEAN:
        return rng.normal(size=2)
    if geometry is Geometry.SPHERICAL:
        return project_to_manifold(geometry, rng.normal(size=3))
    r = rng.uniform(0.0, 2.0)
    t = rng.uniform(0.0, 2 * np.pi)
    return np.array([np.cosh(r), np.sinh(r) * np.cos(t), np.sinh(r) * np.sin(t)])


def _random_unit_tangent(geometry, p, rng):
    if geometry is Geometry.EUCLIDEAN:
        raw = np.array([1.0, 0.0])
    else:
        raw = rng.normal(size=3)
        if geometry is Geometry.SPHERICAL:
            raw = raw - np.dot(raw, p) * p
        else:
            # <p, p> = -1, so the tangent projection adds <raw, p> p
            raw = raw + mdot(geometry, raw, p) * p
    return raw / mnorm(geometry, raw)


def _geodesic_point(geometry, p, u, s):
    """Point at arc length s from p along the unit tangent u: cs(s) p + sn(s) u."""
    kern = geometry.kernel
    return project_to_manifold(geometry, kern.cs(s) * p + kern.sn(s) * u)


class TestDistance:
    def test_euclidean(self):
        assert distance(Geometry.EUCLIDEAN, [0.0, 0.0], [3.0, 4.0]) == 5.0

    def test_spherical_quarter(self):
        d = distance(Geometry.SPHERICAL, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert d == pytest.approx(np.pi / 2, abs=1e-15)

    def test_hyperbolic_origin(self):
        d = distance(Geometry.HYPERBOLIC, [1.0, 0.0, 0.0], [np.cosh(0.8), np.sinh(0.8), 0.0])
        assert d == pytest.approx(0.8, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, gi, seed):
        geometry = GEOMETRIES[gi]
        rng = np.random.default_rng(seed)
        p, q, r = (_random_point(geometry, rng) for _ in range(3))
        d = functools.partial(distance, geometry)
        assert d(p, r) <= d(p, q) + d(q, r) + 1e-10


class TestGeodesics:
    def test_geodesic_hits_distance(self):
        for geometry in GEOMETRIES:
            rng = np.random.default_rng(7)
            p = _random_point(geometry, rng)
            u = _random_unit_tangent(geometry, p, rng)
            s = 0.6
            q = _geodesic_point(geometry, p, u, s)
            assert distance(geometry, p, q) == pytest.approx(s, abs=1e-10)

    def test_angle_between(self):
        u = np.array([0.0, 1.0, 0.0])
        v = np.array([0.0, 0.0, 1.0])
        g = Geometry.SPHERICAL
        c = float(mdot(g, u, v)) / float(mnorm(g, u) * mnorm(g, v))
        assert float(np.arccos(np.clip(c, -1.0, 1.0))) == pytest.approx(np.pi / 2, abs=1e-15)

    def test_arrival_tangent_is_unit_and_tangent(self):
        for geometry in GEOMETRIES:
            rng = np.random.default_rng(11)
            p = _random_point(geometry, rng)
            u = _random_unit_tangent(geometry, p, rng)
            for s in (0.3, 1.2):
                q = _geodesic_point(geometry, p, u, s)
                w = _chord_tangent_at_arrival(geometry, p, u, s)
                assert float(mnorm(geometry, w)) == pytest.approx(1.0, abs=1e-12)
                if geometry is not Geometry.EUCLIDEAN:
                    assert float(mdot(geometry, w, q)) == pytest.approx(0.0, abs=1e-12)


class TestCurvature:
    def test_circle_closed_forms(self):
        for geometry, R, expect in (
            (Geometry.EUCLIDEAN, 2.0, 0.5),
            (Geometry.SPHERICAL, np.pi / 4, 1.0),
            (Geometry.SPHERICAL, np.pi / 3, 1 / np.tan(np.pi / 3)),
            (Geometry.HYPERBOLIC, 0.8, 1 / np.tanh(0.8)),
        ):
            curve = circle_curve(geometry, R)
            for t in np.linspace(0.0, 2 * np.pi, 7):
                assert geodesic_curvature(curve, float(t)) == pytest.approx(expect, abs=1e-8)


class TestShooting:
    def test_e2_circle_chord(self):
        curve = circle_curve(Geometry.EUCLIDEAN, 1.0)
        t1, arrival, length = shoot_to_curve(curve, 0.0, np.pi / 3)
        # inscribed angle: the chord subtends 2 theta, length 2 R sin theta
        assert t1 == pytest.approx(2 * np.pi / 3, abs=1e-10)
        assert arrival == pytest.approx(np.pi / 3, abs=1e-10)
        assert length == pytest.approx(2 * np.sin(np.pi / 3), abs=1e-10)

    def test_s2_circle_half_span(self):
        R, alpha = np.pi / 3, np.pi / 4
        from equichord import lemma_constants
        c, _ = lemma_constants(Geometry.SPHERICAL, R, alpha)
        curve = circle_curve(Geometry.SPHERICAL, R)
        t1, arrival, _ = shoot_to_curve(curve, 0.3, alpha)
        assert (t1 - 0.3) % (2 * np.pi) == pytest.approx(2 * c, abs=1e-10)
        assert arrival == pytest.approx(alpha, abs=1e-10)

    def test_h2_circle_half_span(self):
        R, alpha = 0.8, 1.1
        from equichord import lemma_constants
        c, _ = lemma_constants(Geometry.HYPERBOLIC, R, alpha)
        curve = circle_curve(Geometry.HYPERBOLIC, R)
        t1, arrival, _ = shoot_to_curve(curve, 5.0, alpha)
        assert (t1 - 5.0) % (2 * np.pi) == pytest.approx(2 * c, abs=1e-10)
        assert arrival == pytest.approx(alpha, abs=1e-10)

    def test_tangential_rejected(self):
        curve = circle_curve(Geometry.EUCLIDEAN, 1.0)
        with pytest.raises(OutOfRange, match="too close to tangential"):
            shoot_to_curve(curve, 0.0, 1e-9)

    def test_multiple_crossings_rejected(self):
        """The non-convex polar curve r = 1 + 0.5 cos 3t: the chord from t0 = 0
        at theta = 1.2 crosses it three times, so there is no single landing point."""
        def polar(t):
            t = np.asarray(t)
            r, dr, ddr = 1 + 0.5 * np.cos(3 * t), -1.5 * np.sin(3 * t), -4.5 * np.cos(3 * t)
            return t, r, dr, ddr

        def point(t):
            t, r, _, _ = polar(t)
            return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

        def velocity(t):
            t, r, dr, _ = polar(t)
            return np.stack([dr * np.cos(t) - r * np.sin(t), dr * np.sin(t) + r * np.cos(t)], axis=-1)

        def acceleration(t):
            t, r, dr, ddr = polar(t)
            return np.stack([ddr * np.cos(t) - 2 * dr * np.sin(t) - r * np.cos(t),
                             ddr * np.sin(t) + 2 * dr * np.cos(t) - r * np.sin(t)], axis=-1)

        curve = ParametricCurve(Geometry.EUCLIDEAN, point, velocity, acceleration)
        with pytest.raises(NonConvex, match="crosses the curve 3 times"):
            shoot_to_curve(curve, 0.0, 1.2)
