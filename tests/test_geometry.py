import functools
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equichord import (
    DeformedCircle,
    FourierCurveE2,
    Geometry,
    Harmonic,
    TrigPolynomial,
    build_deformed_circle,
    build_e2_curve,
    circle_curve,
    contact_angle_from_c,
    f_star,
    geodesic_curvature,
    shoot_to_curve,
    verify_curve_gutkin,
)
from equichord import geometry
from equichord.chords import chord_data
from equichord.cli import main
from equichord.errors import Degenerate, NonConvex, OutOfRange
from equichord.geometry import ParametricCurve, Points, _chord_tangent_at_arrival, _newton, mnorm
from oracles import curves, grid_shot

GEOMETRIES = [Geometry.EUCLIDEAN, Geometry.SPHERICAL, Geometry.HYPERBOLIC]


def distance(geometry, p, q):
    """Distance between single points given as coordinate vectors (which
    unpack into their columns)."""
    return float(geometry.kernel.distance(np.asarray(p, float), np.asarray(q, float)))


def project_to_manifold(geometry, coords):
    return np.asarray(Points(geometry.kernel.project(coords)))


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
            raw = raw + geometry.kernel.dot(raw, p) * p
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
        c = float(g.kernel.dot(u, v)) / float(mnorm(g, u) * mnorm(g, v))
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
                    assert float(geometry.kernel.dot(w, q)) == pytest.approx(0.0, abs=1e-12)


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


class TestCircleRadius:
    def test_h2_bound_is_where_sinh_and_cosh_overflow(self):
        """max_radius bounds R in the angle formulas, which need only sinh and cosh
        of R: just below it they are finite, and the bound itself is refused."""
        bound = Geometry.HYPERBOLIC.max_radius
        for formula in (contact_angle_from_c, f_star):
            with pytest.raises(OutOfRange, match="H2 radius must lie in"):
                formula(Geometry.HYPERBOLIC, bound, 1.0)
            with np.errstate(over="raise"):
                assert np.isfinite(formula(Geometry.HYPERBOLIC, np.nextafter(bound, 0.0), 1.0))
        with pytest.raises(OutOfRange, match="H2 radius must lie in"):
            circle_curve(Geometry.HYPERBOLIC, bound)

    @pytest.mark.parametrize("geometry", [Geometry.SPHERICAL, Geometry.HYPERBOLIC])
    def test_refusal_prints_the_bound_in_full(self, geometry):
        # a rounded bound let the message's interval seem to admit the radius
        bound = geometry.max_radius
        with pytest.raises(OutOfRange) as refused:
            circle_curve(geometry, 710.4759 if geometry is Geometry.HYPERBOLIC else 1.5708)
        printed = re.fullmatch(r".* must lie in \(0, (.*)\), got .*", str(refused.value)).group(1)
        assert float(printed) == bound

    def test_bounds_are_numpys(self):
        """The circle bound lives on the Geometry members, off the numpy kernel, as a
        literal: numpy's arccosh, which math.acosh misses by an ulp (710.4758600739439),
        as it misses the hyperboloid's bound (14.162084148244245).  A refusal at the
        bound prints it as before, byte for byte."""
        assert Geometry.HYPERBOLIC.max_radius == float(np.arccosh(np.finfo(float).max)) == 710.475860073944
        assert Geometry.SPHERICAL.max_radius == np.pi / 2 and Geometry.EUCLIDEAN.max_radius == np.inf
        assert Geometry.HYPERBOLIC.kernel.embed_radius == float(np.arccosh(1e12)) / 2 == 14.162084148244247
        result = CliRunner().invoke(main, ["solve-angle", "--k", "4", "--geometry", "H2", "--radius", "711"])
        assert (result.exit_code, result.stdout, result.stderr) == (
            3, "", "error: H2 radius must lie in (0, 710.475860073944), got 711.0\n")


def _both_sides(t0, theta):
    """A batch below the lane crossover, shot lane by lane on floats, and the same batch
    tiled to one block of numpy lanes at or past it: each refusal is checked on both."""
    tiles = -(-geometry._LANE_CROSSOVER // len(t0))
    return [(t0, theta), (np.tile(t0, tiles), np.tile(theta, tiles))]


def _nan_between(lo, hi, point=True, velocity=True):
    """The unit circle's jet, NaN for t in (lo, hi) in its point, its velocity, or both."""
    def jet(t, order):
        t = np.asarray(t, dtype=float)
        off = (lo < t) & (t < hi)
        cos, sin = np.cos(t), np.sin(t)
        nan_cos, nan_sin = np.where(off, np.nan, cos), np.where(off, np.nan, sin)
        p = Points((nan_cos, nan_sin)) if point else Points((cos, sin))
        v = Points((-nan_sin, nan_cos)) if velocity else Points((-sin, cos))
        return (p, v, Points((-nan_cos, -nan_sin)))[:order + 1]
    return jet


class TestCurveContract:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    def test_clockwise_curve_refused(self, geometry):
        """circle_curve's jet at -t traverses the same circle clockwise: its geodesic
        curvature at t = 0 is negative, so construction refuses it.  Shot from
        anyway, each chord would land behind its launch and read a tiny residual."""
        ccw = circle_curve(geometry, 1.0).jet

        def clockwise(t, order):
            # d/dt gamma(-t) = -gamma'(-t); the second derivative keeps its sign
            return tuple(Points(tuple(c if i % 2 == 0 else -c for c in d))
                         for i, d in enumerate(ccw(-np.asarray(t), order)))

        with pytest.raises(NonConvex, match=r"^geodesic curvature -\d.* at t = 0: a curve must be "
                                             "convex and counterclockwise$"):
            ParametricCurve(geometry, clockwise)

    def test_non_finite_ring_point_named(self):
        """A curve that is NaN on (3, 3.2) is refused where its ring is sampled, at the
        first ring point there, t = 123 * 2 pi / 256; its NaN samples would drop out
        of the sign-change count and read as a chord that lands nowhere."""
        curve = ParametricCurve(Geometry.EUCLIDEAN, _nan_between(3.0, 3.2))
        t = 123 * (2 * np.pi / 256)
        with pytest.raises(OutOfRange, match=rf"^the curve's point at t = {t!r} is not finite$"):
            verify_curve_gutkin(curve, 1.0, 16)

    def test_non_finite_launch_named(self):
        """NaN on (3.0, 3.01), between two ring points: the ring is finite, and a
        shot launched there, alone or as one lane of a batch, names that lane."""
        curve = ParametricCurve(Geometry.EUCLIDEAN, _nan_between(3.0, 3.01))
        message = r"^the curve's velocity at t = 3\.005 is not finite$"
        with pytest.raises(OutOfRange, match=message):
            shoot_to_curve(curve, 3.005, 1.0)
        for t0, theta in _both_sides([0.5, 3.005], [1.0, 1.0]):
            with pytest.raises(OutOfRange, match=message):
                shoot_to_curve(curve, t0, theta)
        t1, arrival, _ = shoot_to_curve(curve, 0.5, 1.0)  # the other lane lands
        assert arrival == pytest.approx(1.0, abs=1e-14)

    def test_non_finite_launch_point_named(self):
        """NaN on (3.0, 3.01) in the point alone: the launch frame is finite, and
        every side value of the chord is NaN."""
        curve = ParametricCurve(Geometry.EUCLIDEAN, _nan_between(3.0, 3.01, velocity=False))
        message = r"^the chord from t0=3\.005 at theta=1\.0 has NaN side values"
        with pytest.raises(OutOfRange, match=message):
            shoot_to_curve(curve, 3.005, 1.0)
        for t0, theta in _both_sides([0.5, 3.005], [1.0, 1.0]):
            with pytest.raises(OutOfRange, match=message):
                shoot_to_curve(curve, t0, theta)

    def test_non_finite_landing_velocity_named(self):
        """NaN on (3.0, 3.01) in the velocity alone, where the chord from t0 = 1.005
        at theta = 1 lands: Newton meets finite side values and bisects to the
        landing, and its frame names t1 rather than return a NaN arrival, alone
        or as one lane of a batch; so does the geodesic curvature there."""
        curve = ParametricCurve(Geometry.EUCLIDEAN, _nan_between(3.0, 3.01, point=False))
        message = r"^the curve's velocity at t = 3\.005 is not finite$"
        with pytest.raises(OutOfRange, match=message):
            shoot_to_curve(curve, 1.005, 1.0)
        for t0, theta in _both_sides([0.5, 1.005], [1.0, 1.0]):
            with pytest.raises(OutOfRange, match=message):
                shoot_to_curve(curve, t0, theta)
        with pytest.raises(OutOfRange, match=r"^the curve's velocity at t = 3\.005 is not finite$"):
            geodesic_curvature(curve, 3.005)
        with pytest.raises(OutOfRange, match=r"^the curve's velocity at t = 3\.005 is not finite$"):
            geodesic_curvature(curve, [1.0, 3.005, 3.006])

    def test_non_finite_speed_sample_named(self):
        """NaN on (3.0, 3.01) in the velocity alone: a jet-only curve's arc length
        samples its speed and names the first NaN sample, as the frame does,
        rather than calling it an overflow."""
        curve = ParametricCurve(Geometry.EUCLIDEAN, _nan_between(3.0, 3.01, point=False))
        with pytest.raises(OutOfRange, match=r"^the curve's velocity at t = 3\.000466421104314 is not finite$"):
            chord_data(curve, 3.005, 1.0)

    def test_non_finite_landing_named(self):
        """NaN on (3.0, 3.01), between two ring points, where the chord from t0 =
        1.005 at theta = 1 lands: the ring and the launch are finite, and the shot's
        Newton round there names its t, alone or as one lane of a batch, rather than
        escaping as the root finder's RuntimeError."""
        curve = ParametricCurve(Geometry.EUCLIDEAN, _nan_between(3.0, 3.01))
        for t0, theta in [(1.005, 1.0), *_both_sides([0.5, 1.005], [1.0, 1.0])]:
            with pytest.raises(OutOfRange, match=r"^the curve's point at t = \S+ is not finite$") as refused:
                shoot_to_curve(curve, t0, theta)
            assert 3.0 < float(str(refused.value).split()[6]) < 3.01


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

    @pytest.mark.parametrize("R", [0.3, 1.2])
    def test_h2_short_chord_lengths(self, R):
        """On an H2 circle, sinh(L/2) = sinh R sin((t1 - t0)/2).  The distance is
        2 asinh(|q - p|_M / 2), with no arccosh of a number near 1, so chords
        shot at theta in [1e-5, 1e-4] keep their length to 1e-10 (the arccosh
        form lost half the digits: 6.1e-6 at R = 0.3, 1.1e-6 at R = 1.2)."""
        curve = circle_curve(Geometry.HYPERBOLIC, R)
        t0, theta = np.meshgrid([0.0, 1.0, 2.5, 4.0], np.geomspace(1e-5, 1e-4, 10))
        t1, _, length = shoot_to_curve(curve, t0, theta)
        want = 2 * np.arcsinh(np.sinh(R) * np.sin(((t1 - t0) % (2 * np.pi)) / 2))
        assert np.all(np.abs(length - want) <= 1e-10 * want)

    def test_tangential_rejected(self):
        curve = circle_curve(Geometry.EUCLIDEAN, 1.0)
        with pytest.raises(OutOfRange, match="too close to tangential"):
            shoot_to_curve(curve, 0.0, 1e-9)
        with pytest.raises(OutOfRange, match="launch angle 1e-09 too close"):
            shoot_to_curve(curve, [0.0, 1.0], [1.0, 1e-9])

    def test_t0_outside_the_period(self):
        """A t0 that is not finite is refused, alone or as one lane; a finite one is
        taken mod 2 pi, so 1e300 shoots exactly as 1e300 % 2 pi does."""
        curve = circle_curve(Geometry.EUCLIDEAN, 1.0)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(OutOfRange, match=f"t0 must be finite, got {bad}"):
                shoot_to_curve(curve, bad, 1.0)
            with pytest.raises(OutOfRange, match=f"t0 must be finite, got {bad}"):
                shoot_to_curve(curve, [0.5, bad], 1.0)
        assert shoot_to_curve(curve, 1e300, 1.0) == shoot_to_curve(curve, 1e300 % (2 * np.pi), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 4.0, -1.0, 0.0, np.pi])
    def test_launch_angle_out_of_range(self, bad):
        """An angle that is not finite or lies outside (0, pi) is out of range, alone, as a
        lane of a batch shot lane by lane, and as a lane of a block; an angle within 1e-6
        of 0 or pi is too close to tangential."""
        curve = circle_curve(Geometry.EUCLIDEAN, 1.0)
        cases = [(0.5, bad), *_both_sides([0.5, 1.0], [1.0, bad])]
        for t0, theta in cases:
            with pytest.raises(OutOfRange, match=rf"^launch angle must lie in \(0, pi\), got {bad}$"):
                shoot_to_curve(curve, t0, theta)
        for near in (1e-9, np.pi - 1e-7):
            for t0, theta in [(0.5, near), *_both_sides([0.5, 1.0], [1.0, near])]:
                with pytest.raises(OutOfRange, match=rf"^launch angle {near} too close to tangential$"):
                    shoot_to_curve(curve, t0, theta)

    def test_launch_checks_every_t0_first(self):
        """A batch is checked t0 first on every lane, then theta: a NaN t0 in lane 2 is
        named before a bad theta in lane 0."""
        curve = circle_curve(Geometry.EUCLIDEAN, 1.0)
        for t0, theta in _both_sides([0.5, 1.0, np.nan], [1e-9, 1.0, 1.0]):
            with pytest.raises(OutOfRange, match="^launch parameter t0 must be finite, got nan$"):
                shoot_to_curve(curve, t0, theta)

    def test_multiple_crossings_rejected(self):
        """The non-convex polar curve r = 1 + 0.5 cos 3t: the chord from t0 = 0
        at theta = 1.2 crosses it three times, so there is no single landing point."""
        def jet(t, order):
            t = np.asarray(t)
            r, dr, ddr = 1 + 0.5 * np.cos(3 * t), -1.5 * np.sin(3 * t), -4.5 * np.cos(3 * t)
            cos, sin = np.cos(t), np.sin(t)
            return (Points((r * cos, r * sin)),
                    Points((dr * cos - r * sin, dr * sin + r * cos)),
                    Points((ddr * cos - 2 * dr * sin - r * cos, ddr * sin + 2 * dr * cos - r * sin)))[:order + 1]

        def stacked_points(t, order):
            derivs = jet(t, order)
            return (np.asarray(derivs[0]),) + derivs[1:]

        curve = ParametricCurve(Geometry.EUCLIDEAN, jet)
        # the same curve with stacked (..., 2) points would be read row by row: refused
        with pytest.raises(OutOfRange, match="coordinate columns"):
            ParametricCurve(Geometry.EUCLIDEAN, stacked_points)
        with pytest.raises(NonConvex, match="crosses the curve 3 times"):
            shoot_to_curve(curve, 0.0, 1.2)
        # in a batch, the error names the lane that crosses; the other lane lands
        shoot_to_curve(curve, 2.0, 0.3)
        for t0, theta in _both_sides([2.0, 0.0], [0.3, 1.2]):
            with pytest.raises(NonConvex, match="t0=0.0 at theta=1.2 crosses the curve 3 times"):
                shoot_to_curve(curve, t0, theta)

    def test_landing_inside_the_guard(self):
        """A circle traversed at speed 2.4 near t = 0: a chord at theta = 1e-6 lands
        about 8e-7 from t0, inside the 1e-6 guard, and is refused, forward and
        backward, as the grid oracle refuses it; at 3e-6 it lands past the guard."""
        def jet(t, order):
            t = np.asarray(t)
            u = t + 0.8 * np.sin(t) + 0.3 * np.sin(2 * t)
            du, ddu = 1 + 0.8 * np.cos(t) + 0.6 * np.cos(2 * t), -0.8 * np.sin(t) - 1.2 * np.sin(2 * t)
            cos, sin = np.cos(u), np.sin(u)
            return (Points((cos, sin)), Points((-du * sin, du * cos)),
                    Points((-ddu * sin - du * du * cos, ddu * cos - du * du * sin)))[:order + 1]

        curve = ParametricCurve(Geometry.EUCLIDEAN, jet)
        for theta in (1e-6, np.pi - 1e-6):
            for shoot in (shoot_to_curve, grid_shot):
                with pytest.raises(Degenerate, match="no forward intersection"):
                    shoot(curve, 0.0, theta)
            for t0, thetas in _both_sides([1.0, 0.0], [1.0, theta]):
                with pytest.raises(Degenerate, match="no forward intersection"):
                    shoot_to_curve(curve, t0, thetas)
        for theta in (3e-6, np.pi - 3e-6):
            tol = _oracle_tolerance(curve, 0.0, theta)
            assert shoot_to_curve(curve, 0.0, theta) == pytest.approx(grid_shot(curve, 0.0, theta), abs=tol)


def _oracle_tolerance(curve, t0, theta):
    """How far two correct shots may differ: 1e-13, or the landing's own rounding
    floor where that is larger.  A landing is conditioned like 1/sin theta (one
    ulp of the arrival's cosine moves its arccos by eps / sin theta), and the
    side function rounds with the squared size |p|^2 of the ambient launch point,
    which grows like cosh^2 R on H2."""
    size = max(1.0, float(sum(c * c for c in curve.point(np.float64(t0)))))
    return max(1e-13, 2e-15 * size / np.sin(theta))


_RING_STEP = 2 * np.pi / 256  # the shot ring's spacing: t0 = j * _RING_STEP sits on a ring sample
_SHORT = [0.005, np.pi - 0.0026]  # chords that land in the ring cell next to t0
_FLOWER = build_e2_curve(FourierCurveE2(c0=1.0, harmonics=(Harmonic(4, 0.1, 0.0),)))
_S2_DEFORMED, _H2_DEFORMED = (
    build_deformed_circle(DeformedCircle(geometry=g, R=R, epsilon=0.01, alpha=1.1,
                                         g=TrigPolynomial(0.0, (Harmonic(4, 1.0, 0.3),))))
    for g, R in ((Geometry.SPHERICAL, 1.0), (Geometry.HYPERBOLIC, 0.8)))


def _short_chord_examples(test):
    for curve in (_FLOWER, _S2_DEFORMED, _H2_DEFORMED):
        for t0 in (0.0, -1e-42, 37 * _RING_STEP, 2.0):
            for theta in _SHORT:
                test = example(curve, t0, theta)(test)
    return test


@_short_chord_examples
@given(curves(),
       st.one_of(st.floats(-7.0, 7.0), st.integers(-256, 512).map(lambda j: j * _RING_STEP),
                 st.sampled_from([0.0, -1e-42, 2 * np.pi])),
       st.one_of(st.floats(0.2, 2.9), st.sampled_from(_SHORT)))
@settings(max_examples=150, deadline=None)
# A chord 0.0026 short of tangent on an undeformed H2 circle: next to its
# landing the side function is rounding noise, and Newton jumped across it
@example(build_deformed_circle(DeformedCircle(
    geometry=Geometry.HYPERBOLIC, R=0.78125, epsilon=0.0,
    g=TrigPolynomial(0.0, (Harmonic(2, 1.0, 0.0),)), alpha=1.0)), 0.005859375, 3.138992653589793)
def test_ring_shot_matches_the_grid_oracle(curve, t0, theta):
    """The shot on the curve's cached ring against a grid evaluated for the shot
    alone: the same refusal and crossing count, or the same landing up to
    _oracle_tolerance, from any t0, from ring samples, and for chords landing
    next to t0."""
    try:
        expected = grid_shot(curve, t0, theta)
    except (Degenerate, NonConvex) as refused:
        with pytest.raises(type(refused)) as got:
            shoot_to_curve(curve, t0, theta)
        assert re.findall(r"\d+ times", str(got.value)) == re.findall(r"\d+ times", str(refused))
        return
    t1, arrival, length = shoot_to_curve(curve, t0, theta)
    tol = _oracle_tolerance(curve, t0, theta)
    assert abs((t1 - expected[0] + np.pi) % (2 * np.pi) - np.pi) <= tol
    assert abs(arrival - expected[1]) <= tol
    assert abs(length - expected[2]) <= tol


class TestShotInvariants:
    """Invariants of the billiard map that hold on every convex curve, Gutkin or
    not, so they check the shot at every angle."""

    @given(curves(kinds=("E2",)), st.floats(0.0, 2 * np.pi),
           st.one_of(st.floats(1e-5, 1e-4), st.floats(1e-5, np.pi - 1e-5), st.floats(np.pi - 1e-4, np.pi - 1e-5)))
    @settings(max_examples=100, deadline=None)
    def test_e2_turning_angle_identity(self, curve, t0, theta):
        """An E2 curve's parameter is its tangent's turning angle, so the chord
        from t0 at theta arrives at exactly ((t1 - t0) mod 2 pi) - theta.  The
        arrival is good to about eps near tangency too (an arccos of the
        arrival's cosine missed by about 2.5e-11 at theta in [1e-5, 1e-4])."""
        t1, arrival, _ = shoot_to_curve(curve, t0, theta)
        assert abs(arrival - ((t1 - t0) % (2 * np.pi) - theta)) <= 1e-14

    @given(curves(h2_max_radius=1.0), st.floats(0.0, 2 * np.pi), st.floats(0.2, 2.9))
    @settings(max_examples=100, deadline=None)
    def test_time_reversal(self, curve, t0, theta):
        """The chord shot back from (t1, pi - arrival) lands at t0, at pi - theta,
        and is as long.  Larger H2 radii are left out: there the landing's own
        rounding grows like cosh^2 R."""
        t1, arrival, length = shoot_to_curve(curve, t0, theta)
        back, back_arrival, back_length = shoot_to_curve(curve, t1, np.pi - arrival)
        assert abs((back - t0 + np.pi) % (2 * np.pi) - np.pi) <= 1e-13
        assert abs(back_arrival - (np.pi - theta)) <= 1e-13
        assert abs(back_length - length) <= 1e-13

    @pytest.mark.parametrize("j", [-60, -40, 40, 100])
    def test_e2_shot_is_scale_invariant(self, j):
        """E2 is similarity-invariant, so the curve scaled by 2^j lands at the same
        t1 and angle, bit for bit, with every length scaled exactly; a frame refuses
        only a speed of zero (an absolute 1e-10 refused every curve with c0 below it)."""
        def build(scale):
            return build_e2_curve(FourierCurveE2(scale, (Harmonic(4, 0.1 * scale, 0.3),
                                                         Harmonic(3, -0.05 * scale, 1.0))))

        t0, theta = np.linspace(0.0, 6.0, 7), np.linspace(0.2, 2.9, 7)
        t1, arrival, length = shoot_to_curve(build(1.0), t0, theta)
        scaled = shoot_to_curve(build(2.0 ** j), t0, theta)
        assert np.array_equal(scaled[0], t1) and np.array_equal(scaled[1], arrival)
        assert np.array_equal(scaled[2], length * 2.0 ** j)


_ROUND_CURVES = {
    "E2 rho = 1 + 0.1 cos 4t": _FLOWER,
    "E2 rho = 1 + 0.3 cos 3t + 0.1 sin 5t": build_e2_curve(FourierCurveE2(
        c0=1.0, harmonics=(Harmonic(3, 0.3), Harmonic(5, 0.1, -np.pi / 2)))),
    "S2 R = 1, eps = 0.01, k = 4": build_deformed_circle(DeformedCircle(
        geometry=Geometry.SPHERICAL, R=1.0, epsilon=0.01, g=TrigPolynomial(0.0, (Harmonic(4, 1.0),)))),
    "H2 R = 1.2, eps = 0.002, k = 5": build_deformed_circle(DeformedCircle(
        geometry=Geometry.HYPERBOLIC, R=1.2, epsilon=0.002, g=TrigPolynomial(0.0, (Harmonic(5, 1.0),)))),
}


@pytest.mark.parametrize("name", _ROUND_CURVES)
def test_newton_rounds_per_shot(monkeypatch, name):
    """Newton starts at the root of the ring cell's cubic Hermite interpolant, off
    the landing by O(h^4), so a shot takes about two rounds (the regula falsi start,
    off by O(h^2), took three): at most 2.2 on average over 400 random chords with
    theta in [0.05, pi - 0.05], and at most 4."""
    rounds = []

    def counting(f, neg, pos, x):
        calls = []

        def counted(t):
            calls.append(t)
            return f(t)

        try:
            return _newton(counted, neg, pos, x)
        finally:
            rounds.append(len(calls))

    monkeypatch.setattr("equichord.geometry._newton", counting)
    rng = np.random.default_rng(0)
    t0, theta = rng.uniform(0.0, 2 * np.pi, 400), rng.uniform(0.05, np.pi - 0.05, 400)
    for t, th in zip(t0.tolist(), theta.tolist()):
        shoot_to_curve(_ROUND_CURVES[name], t, th)
    assert len(rounds) == 400
    assert np.mean(rounds) <= 2.2 and max(rounds) <= 4, (np.mean(rounds), max(rounds))


def test_near_tangent_newton_hop(monkeypatch):
    """Seed 1 of test_newton_rounds_per_shot's draw on the H2 curve, 0.061 from
    tangent: there the side function's rounding, about 2e-16 on a slope of 0.09, is
    above Newton's stopping tolerance, and Newton hops on it until its step-length
    test bisects, 9 rounds.  Alone, and as one lane of a block with seven other
    chords, the shot takes at most those 9 rounds and is undone by shooting back
    from (t1, pi - arrival) to 5.3e-15 in t and 9.8e-15 in theta."""
    rounds = []

    def counting(f, neg, pos, x):
        calls = []
        try:
            return _newton(lambda t: calls.append(t) or f(t), neg, pos, x)
        finally:
            rounds.append(len(calls))

    monkeypatch.setattr("equichord.geometry._newton", counting)
    curve = _ROUND_CURVES["H2 R = 1.2, eps = 0.002, k = 5"]
    t0, theta = 0.9698324761316475, 0.061343200932852185
    others = np.linspace(0.3, 6.0, 7), np.linspace(0.5, 2.5, 7)
    for lanes in ((t0, theta), (np.r_[others[0], t0], np.r_[others[1], theta])):
        t1, arrival, length = (np.ravel(x)[-1] for x in shoot_to_curve(curve, *lanes))
        assert max(rounds) <= 9, rounds
        back, back_arrival, back_length = shoot_to_curve(curve, t1, np.pi - arrival)
        assert abs((back - t0 + np.pi) % (2 * np.pi) - np.pi) <= 1e-13
        assert abs(back_arrival - (np.pi - theta)) <= 1e-13
        assert abs(back_length - length) <= 1e-13
        rounds.clear()


_ENTRY_CURVES = {
    "E2": lambda: build_e2_curve(FourierCurveE2(c0=1.0, harmonics=(Harmonic(4, 0.1),))),
    "S2": lambda: build_deformed_circle(DeformedCircle(
        geometry=Geometry.SPHERICAL, R=1.0, epsilon=0.01, g=TrigPolynomial(0.0, (Harmonic(4, 1.0, 0.3),)))),
    "H2": lambda: build_deformed_circle(DeformedCircle(
        geometry=Geometry.HYPERBOLIC, R=0.9, epsilon=0.002, g=TrigPolynomial(0.0, (Harmonic(5, 1.0, 0.4),)))),
}


@pytest.mark.parametrize("name", _ENTRY_CURVES)
class TestShotEntry:
    """Every way into a shot gives the same floats: a lone shot given as any kind of
    scalar, its lane in a batch shot lane by lane and in a block, and a shot after
    another entry's, which may launch from the landing that one kept."""

    def test_scalar_kinds_give_the_same_floats(self, name):
        curve = _ENTRY_CURVES[name]()
        want = shoot_to_curve(curve, 2.0, 1.0)
        assert all(type(x) is float for x in want)
        for t0, theta in [(2, 1), (np.float64(2.0), np.float64(1.0)), (np.array(2.0), np.array(1.0)),
                          (2.0, np.array(1.0)), (np.int64(2), 1.0)]:
            got = shoot_to_curve(curve, t0, theta)
            assert all(type(x) is float for x in got)
            assert list(map(repr, got)) == list(map(repr, want))

    def test_scalar_equals_its_lane(self, name):
        curve = _ENTRY_CURVES[name]()
        t0, theta = [0.5, 2.0, 4.0], [1.3, 1.0, 0.7]
        alone = [shoot_to_curve(curve, t, th) for t, th in zip(t0, theta)]
        for n in (3, 8):  # 3 lanes shot one at a time on floats, a block of 8 numpy lanes
            batch = shoot_to_curve(curve, np.resize(t0, n), np.resize(theta, n))
            for i in range(n):
                assert tuple(map(repr, alone[i % 3])) == tuple(repr(float(x[i])) for x in batch)

    def test_scalar_and_batch_in_either_order(self, name):
        """A shot from the t1 a one-lane batch returned equals a fresh shot, and so does a
        one-lane batch from the t1 a lone shot returned; a 3-lane batch after a lone shot,
        and a lone shot after it, each equal fresh shots too."""
        curve = _ENTRY_CURVES[name]()
        (t1,), _, _ = shoot_to_curve(curve, np.array([2.0]), 1.0)
        assert shoot_to_curve(curve, t1, 1.1) == shoot_to_curve(_ENTRY_CURVES[name](), t1, 1.1)
        t1, _, _ = shoot_to_curve(curve, 2.0, 1.0)
        batch = shoot_to_curve(curve, np.array([t1]), 1.1)
        fresh = shoot_to_curve(_ENTRY_CURVES[name](), np.array([t1]), 1.1)
        assert all(np.array_equal(a, b) for a, b in zip(batch, fresh))
        t1, _, _ = shoot_to_curve(curve, 4.0, 1.0)
        lanes = np.array([t1, 1.0, 3.0]), np.array([1.1, 1.2, 1.3])
        batch = shoot_to_curve(curve, *lanes)
        fresh = shoot_to_curve(_ENTRY_CURVES[name](), *lanes)
        assert all(np.array_equal(a, b) for a, b in zip(batch, fresh))
        assert shoot_to_curve(curve, batch[0][0], 1.1) == shoot_to_curve(_ENTRY_CURVES[name](), batch[0][0], 1.1)
