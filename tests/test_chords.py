import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from equichord import (
    ArcLengthParam,
    ChordData,
    DeformedCircle,
    FourierCurveE2,
    Geometry,
    Harmonic,
    ParametricCurve,
    Points,
    TrigPolynomial,
    build_deformed_circle,
    build_e2_curve,
    chord_data,
    circle_curve,
    validate_partials,
)
from equichord.errors import Degenerate, NonConvex, OutOfRange
from equichord import core
from equichord.geometry import mnorm
import oracles
from oracles import curves, h2_circle_jet, stencil_inversions

EPS = np.finfo(float).eps
LD_EPS = np.finfo(np.longdouble).eps


@st.composite
def known_speed_curves(draw):
    """An E2 Fourier curve with up to three distinct orders, or an E2, S2 or H2
    circle.  Every amplitude is at least 1e-3 c0: the sampled speed drops, by
    design, an order below its round-off floor, which the closed form keeps."""
    kind = draw(st.sampled_from(["E2", "E2 circle", "S2 circle", "H2 circle"]))
    if kind == "E2":
        c0 = draw(st.floats(0.5, 2.0))
        ks = draw(st.lists(st.integers(2, 8), max_size=3, unique=True))
        hs = tuple(Harmonic(k, draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-3, 0.3)) * c0,
                            draw(st.floats(-np.pi, np.pi))) for k in ks)
        return build_e2_curve(FourierCurveE2(c0=c0, harmonics=hs))
    geometry = Geometry(kind[:2])
    return circle_curve(geometry, draw(st.floats(0.1, 1.5) if geometry is not Geometry.EUCLIDEAN
                                       else st.floats(0.1, 10.0)))


@pytest.fixture(scope="module")
def wavy_curve():
    spec = FourierCurveE2(c0=1.0, harmonics=(Harmonic(3, 0.3, 0.0),
                                             Harmonic(5, 0.1, -np.pi / 2)))
    return build_e2_curve(spec)


class TestArcLength:
    def test_circle_is_linear(self):
        arclen = ArcLengthParam(circle_curve(Geometry.EUCLIDEAN, 2.0))
        assert arclen.total_length == pytest.approx(4 * np.pi, abs=1e-12)
        assert arclen.s_of_t(1.3) == pytest.approx(2.6, abs=1e-12)

    def test_round_trip(self, wavy_curve):
        arclen = ArcLengthParam(wavy_curve)
        for s in np.linspace(0.0, arclen.total_length, 17):
            assert arclen.s_of_t(arclen.t_of_s(float(s))) == pytest.approx(float(s), abs=1e-10)

    def test_s_of_t_takes_integers_as_floats(self):
        # casting the coefficients to an integer argument's dtype truncated them
        arclen = ArcLengthParam(build_e2_curve(FourierCurveE2(c0=1.0, harmonics=(Harmonic(4, 0.1, 0.0),))))
        assert arclen.s_of_t(1) == arclen.s_of_t(1.0) != 1.0
        assert np.array_equal(arclen.s_of_t(np.array([1, 2])), arclen.s_of_t(np.array([1.0, 2.0])))

    @pytest.mark.parametrize("make", [
        lambda: build_e2_curve(FourierCurveE2(1.0, (Harmonic(3, 0.3, 0.0), Harmonic(5, 0.1, -1.0)))),
        lambda: ParametricCurve(Geometry.EUCLIDEAN, build_e2_curve(FourierCurveE2(1.0, (Harmonic(4, 0.1, 0.0),))).jet),
        lambda: circle_curve(Geometry.HYPERBOLIC, 1.2),
    ], ids=["closed form", "sampled", "circle"])
    def test_arguments_are_read_as_double(self, make):
        """float32, long double and integer arguments give the double results of
        the same values, bit for bit, in every direction."""
        arclen = ArcLengthParam(make())
        for values in (np.arange(-3, 8), np.linspace(-3.0, 9.0, 7, dtype=np.float32),
                       np.linspace(-3.0, 9.0, 7).astype(np.longdouble)):
            double = values.astype(np.float64)
            for method in (arclen.s_of_t, arclen.t_of_s):
                for got, want in ((method(values), method(double)), (method(values[1]), method(double[1]))):
                    assert np.asarray(got).dtype == np.float64
                    assert np.array_equal(got, want)

    def test_t_of_s_fails_loudly(self, wavy_curve, monkeypatch):
        # a slope 1e6 times too large makes every Newton step tiny; bisection alone
        # would close the bracket in about 49 rounds, so 40 rounds end in a RuntimeError
        monkeypatch.setattr(core, "_NEWTON_ROUNDS", 40)
        arclen = ArcLengthParam(wavy_curve)
        true_s_and_slope = arclen._s_and_slope

        def steep(t):
            s, slope = true_s_and_slope(t)
            return s, 1e6 * slope

        arclen._s_and_slope = steep
        with pytest.raises(RuntimeError):
            arclen.t_of_s(1.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [
        lambda: build_e2_curve(FourierCurveE2(1.0, (Harmonic(3, 0.3, 0.0), Harmonic(5, 0.1, -1.0)))),
        lambda: build_deformed_circle(DeformedCircle(Geometry.SPHERICAL, 1.0, 0.01,
                                                     TrigPolynomial(0.0, (Harmonic(4, 1.0, 0.3),)))),
        lambda: circle_curve(Geometry.EUCLIDEAN, 2.0),
    ], ids=["E2", "S2 deformed", "circle"])
    def test_t_of_s_refuses_values_that_are_not_finite(self, make):
        """A NaN or infinite s, alone or in an array, is OutOfRange with one message,
        before Newton or the series sees it: no private error, warning or NaN."""
        arclen = ArcLengthParam(make())
        for bad in (np.nan, np.inf, -np.inf):
            for s in (bad, np.array([0.5, bad, 1.0])):
                with pytest.raises(OutOfRange, match=f"^arc length s must be finite, got {bad!r}$"):
                    arclen.t_of_s(s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("make", [
        lambda: build_e2_curve(FourierCurveE2(1.0, (Harmonic(3, 0.3, 0.0), Harmonic(5, 0.1, -1.0)))),
        lambda: circle_curve(Geometry.EUCLIDEAN, 2.0),
    ], ids=["E2", "circle"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_t_of_s_refuses_a_start_that_is_not_finite(self, make, bad):
        """A NaN start once raised the private _NaNValue, a RuntimeError, and an
        infinite one warned from np.sin; a circle, which takes no Newton step,
        refuses it too.  A bad s is named first."""
        arclen = ArcLengthParam(make())
        for s, start in ((1.0, bad), (np.array([0.5, 1.0]), np.array([0.5, bad]))):
            with pytest.raises(OutOfRange, match=f"^start must be finite, got {bad!r}$"):
                arclen.t_of_s(s, start=start)
        with pytest.raises(OutOfRange, match=f"^arc length s must be finite, got {bad!r}$"):
            arclen.t_of_s(np.array([bad, 1.0]), start=np.array([0.5, bad]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_s_of_t_refuses_values_that_are_not_finite(self, wavy_curve, bad):
        """s_of_t(nan) once returned NaN silently and s_of_t(inf) warned from np.sin."""
        arclen = ArcLengthParam(wavy_curve)
        for t in (bad, np.array([0.5, bad, 1.0])):
            with pytest.raises(OutOfRange, match=f"^parameter t must be finite, got {bad!r}$"):
                arclen.s_of_t(t)

    def test_total_length_matches_rho_mean(self, wavy_curve):
        # in the turning-angle parameter the speed is rho, so length = 2 pi c0
        arclen = ArcLengthParam(wavy_curve)
        assert arclen.total_length == pytest.approx(2 * np.pi, abs=1e-10)

    @pytest.mark.parametrize("harmonics", [
        (Harmonic(7, 0.05, 1.3),),
        (Harmonic(3, 0.3, 0.0), Harmonic(5, 0.1, -np.pi / 2)),
        (Harmonic(2, 0.2, 0.4), Harmonic(4, 0.01, 2.0), Harmonic(6, 0.05, -1.0)),
    ])
    def test_e2_keeps_exactly_its_orders(self, harmonics):
        """The speed of an E2 curve is rho, so its sampled arc length (the curve
        read through its jet alone) has rho's orders and no others: FFT noise
        below eps * (mean speed + total variation) is dropped."""
        curve = build_e2_curve(FourierCurveE2(c0=1.0, harmonics=harmonics))
        arclen = ArcLengthParam(ParametricCurve(Geometry.EUCLIDEAN, curve.jet))
        assert arclen._ks.tolist() == sorted(h.k for h in harmonics)

    def test_large_harmonic_keeps_no_noise_order(self):
        """A harmonic at 0.9 c0 makes the grid's rounding, times the speed's
        slope, a noise of order 1 to 9 that passed eps * max(1, mean speed)
        at order 2; the floor eps * (mean speed + total variation) drops it."""
        spec = FourierCurveE2(17.91279722123089, (Harmonic(6, 16.1215174991078, -0.6802300634771652),))
        jet_only = ParametricCurve(Geometry.EUCLIDEAN, build_e2_curve(spec).jet)
        assert ArcLengthParam(jet_only)._ks.tolist() == [6]

    def test_sampled_speed_keeps_its_digits_where_rho_is_least(self):
        """The speed is sampled on [-pi, pi): on [0, 2 pi) the rounding of t_j = j h, a
        ramp up to 2 pi, went into the kept orders, and on this curve, read through its
        jet, the series' s' was 7.46 eps of rho off rho where rho is least (1.13 now)."""
        spec = FourierCurveE2(1.482778497459179, (Harmonic(8, -0.42088392758716475, 0.3617281116533393),
                                                  Harmonic(3, 0.34380261484144625, 2.6482715620196506),
                                                  Harmonic(7, 0.42342778996875113, -2.5851436776850165)))
        arclen = ArcLengthParam(ParametricCurve(Geometry.EUCLIDEAN, build_e2_curve(spec).jet))
        grid = np.linspace(-np.pi, np.pi, 20001)
        t = np.longdouble(grid[np.argmin(spec.rho(grid))])
        rho = spec.c0 + sum(h.amp * np.cos(h.k * t + h.phase) for h in spec.harmonics)
        kt = arclen._ks * t
        slope = arclen.mean_speed + (arclen._ks * (arclen._a * np.cos(kt) + arclen._b * np.sin(kt))).sum()
        assert abs(slope - rho) <= 4 * EPS * rho

    @given(known_speed_curves())
    @settings(max_examples=80, deadline=None)
    def test_closed_form_matches_the_sampled_speed(self, curve):
        """A curve that knows its speed, integrated in closed form, against the
        same curve read through its jet alone: the same orders, mean speeds a
        few ulp apart and s_of_t within 1e-15 (1 + |s|); the closed-form speed is
        within a few ulp of the velocity's norm, and t_of_s inverts the closed
        form within Newton's tolerance."""
        closed = ArcLengthParam(curve)
        sampled = ArcLengthParam(ParametricCurve(curve.geometry, curve.jet))
        assert closed._ks.tolist() == sampled._ks.tolist()
        assert abs(closed.mean_speed - sampled.mean_speed) <= 4 * np.spacing(closed.mean_speed)
        t = np.linspace(-20.0, 20.0, 81)
        s = closed.s_of_t(t)
        assert s.dtype == np.float64
        assert np.all(np.abs(s - sampled.s_of_t(t)) <= 1e-15 * (1 + np.abs(s)))
        speed = curve._speed[0](t)
        assert np.all(np.abs(speed - mnorm(curve.geometry, curve.velocity(t))) <= 4 * EPS * speed)
        back = closed.t_of_s(s)
        assert back.dtype == np.float64
        assert np.all(np.abs(back - t) <= 8 * EPS * np.maximum(1, np.abs(t)))

    @pytest.mark.parametrize("make", [
        lambda: build_e2_curve(FourierCurveE2(1.0, (Harmonic(3, 0.3, 0.0), Harmonic(5, 0.1, -1.0)))),
        lambda: circle_curve(Geometry.HYPERBOLIC, 1.2),
    ], ids=["E2", "H2 circle"])
    def test_known_speed_needs_no_speed_grid(self, make):
        """A curve that knows its speed builds its arc length without a jet call
        (a jet-only curve makes one, on the 4096-point speed grid), and
        validate_partials then evaluates the jet twice a block: the chord ends
        and the stencil's points.  The slope in every Newton round is the series'."""
        curve = make()
        jet, calls = curve.jet, []

        def counting(t, order):
            calls.append(np.shape(t))
            return jet(t, order)

        object.__setattr__(curve, "jet", counting)
        ArcLengthParam(ParametricCurve(curve.geometry, counting))
        assert calls == [(), (4096,)]  # construction looks at the jet's type at t = 0
        calls.clear()
        ArcLengthParam(curve)
        assert calls == []
        validate_partials(curve, samples=5)
        assert calls == [(2, 5), (2, 7, 5)]

    @pytest.mark.parametrize("make, grid", [
        (lambda: _deformed("S2"), 256),
        (lambda: ParametricCurve(Geometry.EUCLIDEAN, build_e2_curve(FourierCurveE2(1.0, (Harmonic(4, 0.1, 0.0),))).jet),
         4096),
    ], ids=["S2 deformed", "E2 jet only"])
    def test_sampled_speed_needs_no_jet_after_construction(self, make, grid):
        """A curve whose speed is sampled evaluates its jet three times a block of
        validate_partials: the speed grid, the chord ends and the stencil's points.
        Newton's slope and the stencil's warm start are the series' own
        derivative, never a velocity: reading the velocity's norm there made
        these 9 and 11 calls.  The deformed circle's builder knows g's order 5,
        so its speed grid is 256 points, where the speed's orders above 96 are
        below their round-off floor; a curve known only by its jet keeps 4096."""
        curve = make()
        jet, calls = curve.jet, []

        def counting(t, order):
            calls.append(np.shape(t))
            return jet(t, order)

        object.__setattr__(curve, "jet", counting)
        validate_partials(curve, samples=5)
        assert calls == [(grid,), (2, 5), (2, 7, 5)]

    @given(st.sampled_from([Geometry.SPHERICAL, Geometry.HYPERBOLIC]), st.integers(2, 200),
           st.floats(0.0, 0.9), st.floats(-np.pi, np.pi), st.data())
    @settings(max_examples=60, deadline=None)
    def test_sized_speed_grid_gives_the_full_grid_series(self, geometry, k, fraction, phase, data):
        """A deformed circle's speed, sampled on its builder's grid and doubled while
        its top orders are above the round-off floor, gives the series of the full
        4096-point grid up to rounding: coefficients within that floor (an order
        only one grid keeps sits at the floor, which each grid takes from its own
        samples, so within twice it), means within 4 eps, and t_of_s within 4 eps
        plus the part t = s / mean carries of the means' difference.  epsilon
        reaches 0.9 of the first-order convexity limit sn_K cs_K(R) / (k^2 - 1),
        and of R, where r would reach 0."""
        R = data.draw(st.floats(0.2, 1.4) if geometry is Geometry.SPHERICAL else st.floats(0.2, 3.0))
        eps = fraction * min(float(geometry.kernel.sn(R) * geometry.kernel.cs(R)) / (k * k - 1), R)
        g = TrigPolynomial(0.0, (Harmonic(k, 1.0, phase),))
        try:
            curve = build_deformed_circle(DeformedCircle(geometry=geometry, R=R, epsilon=eps, g=g))
        except NonConvex:
            reject()
        sized = ArcLengthParam(curve)
        full, floor = oracles.full_grid_arclength(curve)
        coeffs = [dict(zip(arclen._ks.tolist(), zip(arclen._a, arclen._b))) for arclen in (sized, full)]
        for order in coeffs[0].keys() | coeffs[1].keys():
            (a0, b0), (a1, b1) = (c.get(order, (0.0, 0.0)) for c in coeffs)
            both = order in coeffs[0] and order in coeffs[1]
            assert abs(a0 - a1) + abs(b0 - b1) <= (1 if both else 2) * floor
        means = abs(sized.mean_speed - full.mean_speed) / full.mean_speed
        assert means <= 4 * EPS
        s = np.linspace(-2.0, 2.0, 41) * full.total_length
        t = full.t_of_s(s)
        assert np.all(np.abs(sized.t_of_s(s) - t) <= 4 * EPS * np.maximum(1.0, np.abs(t)) + means * np.abs(t))

    def test_margin_past_the_least_sample_keeps_the_sample(self):
        """On rho = 1 + 0.75 cos(1000 t + pi/4) read through its jet, the speed's
        second-order margin, 1/2 sum k^3 (|a| + |b|) (pi / 4096)^2 = 0.31, passes
        its least sample, 0.25: the bracket takes the sample, and inverts."""
        spec = FourierCurveE2(1.0, (Harmonic(1000, 0.75, np.pi / 4),))
        arclen = ArcLengthParam(ParametricCurve(Geometry.EUCLIDEAN, build_e2_curve(spec).jet))
        assert 0.0 < arclen._reach < np.inf
        s = np.linspace(0.0, arclen.total_length, 50)
        assert np.all(np.abs(arclen.s_of_t(arclen.t_of_s(s)) - s) <= 4 * EPS * np.maximum(1.0, s))

    @pytest.mark.parametrize("geometry, radius", [(Geometry.EUCLIDEAN, 1e308)])
    def test_closed_form_length_overflow_is_refused(self, geometry, radius):
        """2 pi R overflows though the speed is finite."""
        with pytest.raises(OutOfRange, match="length overflows"):
            ArcLengthParam(circle_curve(geometry, radius))

    def test_e2_length_is_two_pi_c0(self):
        """The closed form's length is c0 * 2 * pi rounded once; the FFT mean of
        the sampled speed read it 1 ulp low at c0 = 1.3."""
        spec = FourierCurveE2(1.3, (Harmonic(4, 0.1, 0.0),))
        assert ArcLengthParam(build_e2_curve(spec)).total_length == 1.3 * 2 * np.pi

    def test_circle_is_inverted_in_closed_form(self):
        arclen = ArcLengthParam(circle_curve(Geometry.SPHERICAL, 0.9))
        s = np.linspace(-3.0, 9.0, 7)
        assert np.array_equal(arclen.t_of_s(s), s / arclen.mean_speed)

    def test_start_is_a_first_guess_only(self, wavy_curve):
        arclen = ArcLengthParam(wavy_curve)
        s = np.linspace(0.0, 7.0, 5, dtype=np.longdouble)
        cold = arclen.t_of_s(s)
        warm = arclen.t_of_s(s, start=cold + 1e-6)
        assert np.all(np.abs(warm - cold) <= 8 * LD_EPS * np.maximum(1.0, np.abs(cold)))


class TestChordData:
    def test_first_partials_are_angle_cosines(self, wavy_curve):
        arclen = ArcLengthParam(wavy_curve)
        cd = chord_data(wavy_curve, 0.5, 3.0, arclen)
        assert cd.Lx == pytest.approx(-np.cos(cd.phi), abs=1e-14)
        assert cd.Ly == pytest.approx(np.cos(cd.psi), abs=1e-14)
        assert 0 < cd.phi < np.pi and 0 < cd.psi < np.pi

    def test_swap_symmetry(self, wavy_curve):
        # reversing the chord swaps the endpoints and flips the angles
        arclen = ArcLengthParam(wavy_curve)
        cd = chord_data(wavy_curve, 0.7, 2.9, arclen)
        dc = chord_data(wavy_curve, 2.9, 0.7, arclen)
        assert cd.L == pytest.approx(dc.L, abs=1e-12)
        assert cd.phi == pytest.approx(np.pi - dc.psi, abs=1e-10)
        assert cd.Lxy == pytest.approx(dc.Lxy, abs=1e-10)

    def test_coincident_endpoints(self, wavy_curve):
        with pytest.raises(Degenerate, match="chord endpoints coincide"):
            chord_data(wavy_curve, 1.0, 1.0)

    def test_coincident_ends_scale_with_the_curve(self):
        """Ends 3 lengths apart coincide on a curve of c0 = 1e6, though x + 3 L
        rounds a few ulp of 2e7 off (an absolute 1e-12 let through a chord of
        length 2e-9), and ends 1e-13 apart, 1.6e-5 of the length, are a chord
        of a curve of c0 = 1e-9 (an absolute 1e-12 refused them)."""
        def build(c0):
            return build_e2_curve(FourierCurveE2(c0, (Harmonic(4, 0.1 * c0, 0.3), Harmonic(3, -0.05 * c0, 1.0))))

        big = build(1e6)
        arclen = ArcLengthParam(big)
        with pytest.raises(Degenerate, match="chord endpoints coincide"):
            chord_data(big, 0.7e6, 0.7e6 + 3 * arclen.total_length, arclen)
        assert 0 < chord_data(build(1e-9), 0.7e-9, 0.7e-9 + 1e-13).L < 2e-13

    def test_stationary_end_refused(self):
        """An astroid stops at t = 0; read through the unit circle's arc length,
        the chord end x = 0 lands there, and the unit tangent refuses it first."""
        def jet(t, order):
            cos, sin = np.cos(t), np.sin(t)
            return (Points((cos ** 3, sin ** 3)), Points((-3 * cos ** 2 * sin, 3 * sin ** 2 * cos)),
                    Points((0 * t, 0 * t)))[:order + 1]

        astroid = ParametricCurve(Geometry.EUCLIDEAN, jet)
        arclen = ArcLengthParam(circle_curve(Geometry.EUCLIDEAN, 1.0))
        with pytest.raises(Degenerate, match=r"^curve speed 0\.000e\+00 at t=0\.0$"):
            chord_data(astroid, np.array([0.5, 0.0]), 1.0, arclen)

    @given(st.sampled_from(["E2", "S2", "H2"]), st.floats(0.3, 1.2), st.floats(0.0, 1.0), st.floats(0.2, 0.8))
    @settings(max_examples=60, deadline=None)
    def test_circle_chords_are_equiangular(self, tag, R, x, fraction):
        """Both ends of a circle's chord meet it at one angle."""
        curve = circle_curve(Geometry(tag), R)
        arclen = ArcLengthParam(curve)
        cd = chord_data(curve, x * arclen.total_length, (x + fraction) * arclen.total_length, arclen)
        assert abs(cd.phi - cd.psi) <= 2e-15

    @given(curves(h2_max_radius=1.0), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_angles_match_the_arccos_reference(self, curve, seed):
        """atan2 on q - p at both ends against the arccos of each end's cosine
        with the unit geodesic direction, on chords at fraction 0.2 to 0.8 of
        the length.  Larger H2 radii are left out: the reference's direction
        (q - cosh L p) / sinh L cancels like cosh^2 R."""
        arclen = ArcLengthParam(curve)
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, arclen.total_length, 20)
        y = x + rng.uniform(0.2, 0.8, 20) * arclen.total_length
        cd = chord_data(curve, x, y, arclen)
        phi, psi = oracles.arccos_chord_angles(curve, x, y, arclen)
        assert np.abs(cd.phi - phi).max() <= 1e-14
        assert np.abs(cd.psi - psi).max() <= 1e-14

    @pytest.mark.parametrize("x", [float("nan"), float("inf")])
    def test_non_finite_end_refused(self, wavy_curve, x):
        for curve in (wavy_curve, circle_curve(Geometry.SPHERICAL, 0.9)):
            with pytest.raises(OutOfRange, match="finite"):
                chord_data(curve, np.array([0.5, x]), 3.0)


class TestValidatePartials:
    def test_e2(self, wavy_curve):
        report = validate_partials(wavy_curve, samples=40)
        assert report["max_rel_err"] < 1e-5

    def test_s2_circle(self):
        report = validate_partials(circle_curve(Geometry.SPHERICAL, np.pi / 3), samples=40)
        assert report["max_rel_err"] < 1e-5

    def test_h2_circle(self):
        report = validate_partials(circle_curve(Geometry.HYPERBOLIC, 0.8), samples=40)
        assert report["max_rel_err"] < 1e-5

    def test_nan_sample_refused(self):
        """A NaN chord partial is refused, not dropped from the max of the other lanes,
        and the message names the cause.  On a user's H2 circle jet at R = 20 the
        hyperboloid chord cancels.  On the E2 circle of radius 1e160 the length is
        finite, but the chord's squared coordinates overflow, and the NaN is
        inf - inf.  (The H2 builders refuse both radii that once showed these, 20 and
        400, and a jet's sampled speed overflows first at R = 400.)"""
        for curve, samples, cause in (
                (ParametricCurve(Geometry.HYPERBOLIC, h2_circle_jet(20.0)), 20,
                 "the H2 chord loses every digit to cancellation"),
                (circle_curve(Geometry.EUCLIDEAN, 1e160), 3, "the E2 chord overflows floating point")):
            with pytest.raises(OutOfRange, match=rf"^sample 0 \(x = \S+, y = \S+\) gives a NaN chord "
                                                 rf"partial: {cause}$"):
                validate_partials(curve, samples=samples)

    def test_h2_circle_r5(self):
        """The double stencil's rounding, eps |L| / h^2, is what H2 R = 5 reads:
        about 3e-6 at h = 2e-3, where the long-double one at h = 1e-5 read 2e-5."""
        report = validate_partials(circle_curve(Geometry.HYPERBOLIC, 5.0), samples=100)
        assert report["max_rel_err"] < 1e-5

    def test_sharply_curved_e2(self):
        """rho = c0 (1 + 0.48 cos(7t + p)) turns on a length scale near 0.04, where
        a fourth-order stencil's truncation at h = 2e-3 read 1.5e-5 (Ly); the
        seven-point stencil's reads about 3e-8."""
        spec = FourierCurveE2(0.5441248828794524, (Harmonic(7, 0.2603382782961819, 1.5835431511929232),))
        report = validate_partials(build_e2_curve(spec), samples=12, seed=1999871263)
        assert report["max_rel_err"] < 1e-6

    def test_h2_circle_r9(self):
        """The chord-end angles are atan2 on q - p, with no direction divided by
        sinh L: at R = 9 the partials keep four digits (2.1e-2 with the arccos form)."""
        report = validate_partials(circle_curve(Geometry.HYPERBOLIC, 9.0), samples=40)
        assert report["max_rel_err"] < 1e-4

    def test_report_shape(self, wavy_curve):
        report = validate_partials(wavy_curve, samples=3)
        assert set(report["per_quantity"]) == {"Lx", "Ly", "Lxx", "Lyy", "Lxy"}
        assert report["geometry"] == "E2"

    @pytest.mark.parametrize("samples", [0, -3])
    def test_no_sample_refused(self, wavy_curve, samples):
        with pytest.raises(OutOfRange, match=f"sample count must be an integer >= 1, got {samples}$"):
            validate_partials(wavy_curve, samples=samples)

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_seed_is_a_count(self, wavy_curve, seed):
        """numpy's generator raised a ValueError at seed -1, which the CLI showed as a bug."""
        with pytest.raises(OutOfRange, match=f"seed must be an integer >= 0, got {seed}$"):
            validate_partials(wavy_curve, samples=2, seed=seed)

    @pytest.mark.parametrize("tag, radius", [("E2", 1e-3), ("E2", 1e4), ("S2", 1e-3), ("H2", 1e-3)])
    def test_small_and_large_circles(self, tag, radius):
        """The step follows the curve, so circles far from unit size keep the
        digits of the unit circle; an absolute h = 2e-3 read 1.37 at radius 1e-3
        and 4.6e-3 at 1e4."""
        report = validate_partials(circle_curve(Geometry(tag), radius), samples=20)
        assert report["max_rel_err"] < 1e-8

    @pytest.mark.parametrize("tag, radius, scale", [
        ("E2", 0.37, 0.37),
        ("S2", 0.9, np.sin(0.9) / np.sqrt(1 + np.sin(0.9) ** 2)),
        ("H2", 1.2, np.tanh(1.2)),
        ("H2", 9.0, np.tanh(9.0)),
    ])
    def test_step_follows_the_curve(self, tag, radius, scale):
        """h = 2e-3 l: l is the radius on E2, and on an H2 circle tanh R, its radius
        of curvature."""
        report = validate_partials(circle_curve(Geometry(tag), radius), samples=1)
        assert report["step"] == pytest.approx(2e-3 * scale, rel=1e-15)

    def test_unit_length_keeps_the_unit_step(self, wavy_curve):
        """A curve of length 2 pi (c0 = 1) has l = 1, so h is exactly 2e-3."""
        assert validate_partials(wavy_curve, samples=3)["step"] == 2e-3

    # an amplitude that is subnormal, or becomes so when scaled, is not scaled exactly:
    # at c0 = 1.5 and j = 1, A = 1e-323 and 2e-323, and the antiderivative's A / 6
    # rounds to 0 and to 5e-324; from 1e-200 on nothing comes near the subnormals
    @given(st.floats(0.5, 2.0),
           st.lists(st.tuples(st.integers(2, 8),
                              st.floats(-0.15, 0.15).filter(lambda a: a == 0.0 or abs(a) >= 1e-200),
                              st.floats(-np.pi, np.pi)), max_size=2),
           st.integers(-60, 100), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_e2_report_is_scale_invariant(self, c0, harmonics, j, seed):
        """E2 is similarity-invariant and h follows the curve's length, so the curve
        scaled by 2^j, which scales every length exactly, gives the same report
        bit for bit, apart from h, which scales by 2^j."""
        def build(scale):
            hs = tuple(Harmonic(k, amp * c0 * scale, phase) for k, amp, phase in harmonics)
            return build_e2_curve(FourierCurveE2(c0=c0 * scale, harmonics=hs))

        one, scaled = (validate_partials(build(scale), samples=6, seed=seed) for scale in (1.0, 2.0 ** j))
        assert scaled.pop("step") == one.pop("step") * 2.0 ** j
        assert scaled == one


def _deformed(tag):
    g = TrigPolynomial(0.0, (Harmonic(5, 1.0, 0.4),))
    return build_deformed_circle(DeformedCircle(geometry=Geometry(tag), R=0.9, epsilon=0.002,
                                                g=g, alpha=1.1))


class TestStencilInversion:
    """validate_partials starts each stencil end next to the chord end
    chord_data solved, in double."""

    @given(curves(), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_warm_start_equals_cold_start(self, curve, seed):
        inversions = stencil_inversions(curve, samples=4, seed=seed)
        assert len(inversions) == 1
        arclen, s, t = inversions[0]
        cold = arclen.t_of_s(s)
        assert t.dtype == np.float64
        assert np.all(np.abs(t - cold) <= 8 * EPS * np.maximum(1.0, np.abs(cold)))

    @given(curves(), st.integers(1, 20), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fourteen_ends_per_sample(self, curve, samples, seed):
        """The 49 stencil chords of a sample share 14 ends, x + {0, +-h, +-2h,
        +-3h} and y + {0, +-h, +-2h, +-3h}, inverted in one call."""
        (arclen, s, _), = stencil_inversions(curve, samples=samples, seed=seed)
        ltot = arclen.total_length
        draws = np.random.default_rng(seed).uniform([0.0, 0.2], [ltot, 0.8], size=(samples, 2))
        x = draws[:, 0]
        y = x + draws[:, 1] * ltot
        h = validate_partials(curve, samples=samples, seed=seed)["step"]
        assert s.shape == (2, 7, samples)
        assert np.array_equal(s, np.stack([[e - 3 * h, e - 2 * h, e - h, e, e + h, e + 2 * h, e + 3 * h]
                                           for e in (x, y)]))

    @pytest.mark.parametrize("make, steps", [
        (lambda: build_e2_curve(FourierCurveE2(c0=1.0, harmonics=(Harmonic(3, 0.3, 0.0),
                                                                  Harmonic(5, 0.1, -np.pi / 2)))), 3),
        (lambda: build_e2_curve(FourierCurveE2(c0=1.3, harmonics=(Harmonic(7, 0.08, 1.0),))), 3),
        (lambda: _deformed("S2"), 2),
        (lambda: _deformed("H2"), 2),
        (lambda: circle_curve(Geometry.SPHERICAL, 0.9), 0),
        (lambda: circle_curve(Geometry.HYPERBOLIC, 1.2), 0),
    ], ids=["E2 3+5", "E2 7", "S2 deformed", "H2 deformed", "S2 circle", "H2 circle"])
    def test_newton_steps(self, monkeypatch, make, steps):
        """Three Newton steps on E2 curves with harmonics and two on deformed
        circles (5 and 4 on these E2 curves and 3 on deformed circles from a
        cold start), none on circles; each step evaluates s and its slope once,
        together, on the (2, 7, samples) stencil ends."""
        curve = make()
        shapes = []
        s_and_slope = ArcLengthParam._s_and_slope

        def counting(self, t):
            shapes.append(np.shape(t))
            return s_and_slope(self, t)

        monkeypatch.setattr(ArcLengthParam, "_s_and_slope", counting)
        validate_partials(curve, samples=40)
        assert shapes.count((2, 7, 40)) == steps


@given(curves(), st.integers(1, 40), st.integers(0, 2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_shared_evaluations_change_no_bit(curve, samples, seed):
    """The 14 shared stencil ends, their broadcast distance and the chord
    ends' shared point and velocity give the report and the chord records of
    evaluating each where it is used, bit for bit."""
    report = validate_partials(curve, samples=samples, seed=seed)
    h = report["step"]
    assert report == oracles.stencil_partials(curve, samples, seed, h, 2e-6 / h)
    arclen = ArcLengthParam(curve)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, arclen.total_length, samples)
    y = x + rng.uniform(0.2, 0.8, samples) * arclen.total_length
    for xs, ys in ((x, y), (x[0], y[0])):
        got, want = chord_data(curve, xs, ys, arclen), oracles.chord_data(curve, xs, ys, arclen)
        for name in ChordData.__dataclass_fields__:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
