import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from equichord import (
    ArcLengthParam,
    DeformedCircle,
    FourierCurveE2,
    Geometry,
    ParametricCurve,
    Harmonic,
    TrigPolynomial,
    build_deformed_circle,
    build_e2_curve,
    circle_curve,
    closure_defect,
    contact_angle_from_c,
    curves,
    f_star,
    geodesic_curvature,
    gutkin_roots,
    lemma_constants,
    s2_residual_operator,
    shoot_to_curve,
    verify_curve_gutkin,
)
from equichord.errors import NonConvex, NotAdmissible, NotClosed, OutOfRange
from equichord.geometry import _radial_graph, mnorm
from oracles import (e2_residual_formula, gutkin_chord_length_formula, linearized_coefficient_check,
                     stacked_derivatives)

ALPHA4 = float(np.arctan(np.sqrt(5.0)))


@st.composite
def curve_specs(draw):
    """A FourierCurveE2, a DeformedCircle, or (geometry, R) for a circle."""
    kind = draw(st.sampled_from(["E2", "S2", "H2", "circle"]))
    if kind == "E2":
        c0 = draw(st.floats(0.5, 2.0))
        return FourierCurveE2(c0=c0, harmonics=tuple(
            Harmonic(draw(st.integers(2, 9)), draw(st.floats(-0.15, 0.15)) * c0, draw(st.floats(-np.pi, np.pi)))
            for _ in range(draw(st.integers(0, 3)))))
    if kind == "circle":
        geometry = draw(st.sampled_from(list(Geometry)))
        return geometry, draw(st.floats(0.1, 1.5))
    g = TrigPolynomial(0.0, tuple(Harmonic(draw(st.integers(2, 7)), draw(st.floats(-1.0, 1.0)),
                                           draw(st.floats(-np.pi, np.pi)))
                                  for _ in range(draw(st.integers(1, 2)))))
    return DeformedCircle(geometry=Geometry(kind), R=draw(st.floats(0.2, 1.4)),
                          epsilon=draw(st.floats(-0.01, 0.01)), g=g, alpha=draw(st.floats(0.3, 2.8)))


@given(curve_specs(), st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6))
# 2 * (c * dr) against (2 * c) * dr: they differ where c * dr is subnormal
@example(DeformedCircle(geometry=Geometry.SPHERICAL, R=1.0, epsilon=2.2250738585e-313,
                        g=TrigPolynomial(0.0, (Harmonic(2, 1.0, 1.0), Harmonic(2, 0.0, 0.0))), alpha=1.0),
         [0.0])
@settings(max_examples=150, deadline=None)
def test_columns_stack_to_the_stacked_formulas(spec, ts):
    """np.asarray of a curve's coordinate columns is, bit for bit, the stacked
    point, velocity and acceleration of the stacked layout: for arrays of t
    and for one numpy scalar."""
    if isinstance(spec, FourierCurveE2):
        curve = build_e2_curve(spec)
    elif isinstance(spec, DeformedCircle):
        try:
            curve = build_deformed_circle(spec)
        except NonConvex:
            assume(False)
    else:
        curve = circle_curve(*spec)
    for t in (np.array(ts), np.float64(ts[0])):
        for got, want in zip((curve.point(t), curve.velocity(t), curve.jet(t, 2)[2]),
                             stacked_derivatives(spec, t)):
            got = np.asarray(got)
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            # equal values and equal zero signs
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


class TestFourierCurveE2:
    def test_circle_point(self):
        curve = build_e2_curve(FourierCurveE2(c0=1.0))
        p = np.asarray(curve.point(np.pi / 2))
        assert np.allclose(p, [1.0, 1.0], atol=1e-14)

    def test_first_harmonic_rejected(self):
        with pytest.raises(NotClosed):
            FourierCurveE2(c0=1.0, harmonics=(Harmonic(1, 0.1, 0.0),))

    def test_constant_harmonic_belongs_in_c0(self):
        """A k = 0 term is a constant, which closes: OutOfRange, naming the value to
        add to c0, not NotClosed."""
        with pytest.raises(OutOfRange, match=r"^harmonic k=0 is a constant: add amp \* cos\(phase\) = "
                                             r"-0\.2 to c0$"):
            FourierCurveE2(c0=1.0, harmonics=(Harmonic(4, 0.1, 0.0), Harmonic(0, 0.2, np.pi)))

    def test_closure_defect_of_first_harmonic(self):
        assert closure_defect(1.0, (Harmonic(1, 0.1, 0.0),)) == pytest.approx(
            np.pi * 0.1, abs=1e-10)
        assert closure_defect(1.0, (Harmonic(4, 0.1, 0.0),)) < 1e-14

    @given(st.floats(0.5, 3.0), st.floats(-0.5, 0.5), st.floats(-np.pi, np.pi),
           st.lists(st.tuples(st.integers(2, 9), st.floats(-0.2, 0.2), st.floats(-np.pi, np.pi)),
                    max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_closure_defect_is_pi_amplitude(self, c0, rel_amp, phase, others):
        """A first harmonic of amplitude A opens the curve by pi |A|, whatever its
        phase and whatever higher harmonics ride along."""
        hs = (Harmonic(1, rel_amp * c0, phase),) + tuple(Harmonic(k, a * c0, p) for k, a, p in others)
        assert closure_defect(c0, hs) == pytest.approx(np.pi * abs(rel_amp * c0), abs=1e-12 * c0)

    @pytest.mark.parametrize("c0", [5e5, 1e8])
    def test_large_curve_closes(self, c0):
        """A closed curve's closure defect is rounding of size eps * c0, so the
        self-check bounds it relative to the curve's size."""
        spec = FourierCurveE2(c0=c0, harmonics=(Harmonic(4, 0.1 * c0, 0.0),))
        assert ArcLengthParam(build_e2_curve(spec)).total_length == c0 * 2 * np.pi

    def test_nonconvex_rejected(self):
        with pytest.raises(NonConvex, match="radius of curvature must stay positive"):
            FourierCurveE2(c0=1.0, harmonics=(Harmonic(4, 1.2, 0.0),))

    @given(st.lists(st.tuples(st.integers(2, 300), st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi)),
                    min_size=1, max_size=4), st.floats(0.5, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_rho_floor_lies_between_the_lipschitz_floor_and_the_least_rho(self, terms, size):
        """The convexity floor takes rho's least value on the band grid of rho's
        highest order k (the least power of two >= max(256, 32 k), at most 4096)
        less the smaller of its second-order and Lipschitz margins: it is never
        below the 4096-point Lipschitz floor, and never above rho's least value,
        here on 2^16 points."""
        hs = tuple(Harmonic(*term) for term in terms)
        c0 = size * sum(abs(h.amp) for h in hs)
        try:
            spec = FourierCurveE2(c0=c0, harmonics=hs)
        except NonConvex:
            assume(False)
        rho = spec.rho
        grid = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        lipschitz = float(rho(grid).min()) - rho.lipschitz_bound() * (np.pi / 4096)
        assert lipschitz <= spec._rho_floor <= rho(np.linspace(0.0, 2 * np.pi, 2**16, endpoint=False)).min()

    def test_velocity_is_rho_times_tangent(self, flower_curve, flower_spec):
        for t in (0.0, 0.9, 4.0):
            v = np.asarray(flower_curve.velocity(t))
            rho = flower_spec.rho(t)
            assert np.allclose(v, [rho * np.cos(t), rho * np.sin(t)], atol=1e-14)


class TestVerifyCurve:
    def test_nan_arrival_refused(self, flower_curve, alpha4, monkeypatch):
        shoot = curves.shoot_to_curve

        def lossy(curve, t0, theta):
            t1, arrival, length = shoot(curve, t0, theta)
            return t1, np.where(np.arange(arrival.size) >= 5, np.nan, arrival), length

        monkeypatch.setattr(curves, "shoot_to_curve", lossy)
        with pytest.raises(OutOfRange, match=r"sample 5 \(t = 0\.98"):
            verify_curve_gutkin(flower_curve, alpha4, 32)

    @pytest.mark.parametrize("make, count", [
        (lambda: build_e2_curve(FourierCurveE2(1.0, (Harmonic(4, 0.1),))), 64),
        (lambda: build_e2_curve(FourierCurveE2(1.0, (Harmonic(3, 0.1), Harmonic(6, 0.01)))), 96),
        (lambda: build_e2_curve(FourierCurveE2(1.0)), 64),
        (lambda: circle_curve(Geometry.HYPERBOLIC, 1.2), 64),
        (lambda: build_deformed_circle(DeformedCircle(Geometry.SPHERICAL, 1.0, 0.0,
                                                      TrigPolynomial(0.0, (Harmonic(40, 1.0),)))), 64),
        (lambda: build_deformed_circle(DeformedCircle(Geometry.SPHERICAL, 1.0, 1e-6,
                                                      TrigPolynomial(0.0, (Harmonic(40, 1.0),)))), 640),
        (lambda: ParametricCurve(Geometry.EUCLIDEAN, build_e2_curve(
            FourierCurveE2(1.0, (Harmonic(40, 1e-4),))).jet), 64),
    ], ids=["E2 k = 4", "E2 k = 6", "E2 circle", "H2 circle", "S2 eps = 0", "S2 k = 40", "jet only"])
    def test_default_count_follows_the_band(self, make, count):
        """max(64, 16 k) samples for the curve's highest order k, 8 a period of the
        residual's order 2k; 64 for a constant radius and a curve known only by its jet."""
        assert verify_curve_gutkin(make(), 0.9)["n_samples"] == count

    def test_default_count_reads_high_orders(self):
        """On S2, R = 1, eps = 1e-6, g = cos 64t, at alpha = 1 (no root), 64 samples
        read 7.2e-5 against 1.24e-4 on 4096; the default 1024 read within 2% of it."""
        g = TrigPolynomial(0.0, (Harmonic(64, 1.0),))
        curve = build_deformed_circle(DeformedCircle(Geometry.SPHERICAL, 1.0, 1e-6, g))
        fine = verify_curve_gutkin(curve, 1.0, 4096)["max_angle_residual"]
        assert verify_curve_gutkin(curve, 1.0, 64)["max_angle_residual"] < 0.6 * fine
        assert abs(verify_curve_gutkin(curve, 1.0)["max_angle_residual"] - fine) < 0.02 * fine


class TestE2Residual:
    def test_admissible_vanishes(self, flower_spec, alpha4):
        f = TrigPolynomial(np.sin(alpha4),
                           (Harmonic(4, 0.1 * np.sin(alpha4), 0.0),))
        res = s2_residual_operator(f, alpha4, alpha4, 1.0, Geometry.EUCLIDEAN)
        ts = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        assert np.abs(res(ts)).max() < 1e-12

    def test_wrong_angle_fails(self):
        f = TrigPolynomial(1.0, (Harmonic(4, 0.1, 0.0),))
        res = s2_residual_operator(f, 1.0, 1.0, 1.0, Geometry.EUCLIDEAN)
        ts = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        assert np.abs(res(ts)).max() > 1e-2

    @given(st.floats(-2.0, 2.0),
           st.lists(st.tuples(st.integers(0, 9), st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi)),
                    max_size=3),
           st.floats(0.05, 3.1))
    @example(1.0, [], 1.0).via("constant f, cot > 0")
    @example(1.0, [], 2.0).via("constant f, cot < 0")
    @settings(max_examples=60, deadline=None)
    def test_matches_written_out_formula(self, c0, harmonics, alpha):
        """The general operator on E2 (c = alpha, a = 1) is the E2 chord residual,
        bit for bit, the sign of a zero residual included."""
        f = TrigPolynomial(c0, tuple(Harmonic(*h) for h in harmonics))
        ts = np.linspace(0.0, 2 * np.pi, 257)
        got = s2_residual_operator(f, alpha, alpha, 1.0, Geometry.EUCLIDEAN)(ts)
        assert got.tobytes() == e2_residual_formula(f, alpha)(ts).tobytes()


class TestChordLengthFormula:
    def test_matches_measured_distance(self, flower_spec, flower_curve, alpha4):
        ts = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        formula = gutkin_chord_length_formula(flower_spec, alpha4, ts)
        p = np.asarray(flower_curve.point(ts - alpha4))
        q = np.asarray(flower_curve.point(ts + alpha4))
        measured = np.linalg.norm(q - p, axis=-1)
        assert np.abs(formula - measured).max() < 1e-8

    def test_closed_form_values(self, flower_spec, alpha4):
        # L(t) = 2 sqrt(5/6) (1 - cos 4t / 90)
        ts = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        expect = 2 * np.sqrt(5.0 / 6.0) * (1 - np.cos(4 * ts) / 90)
        got = gutkin_chord_length_formula(flower_spec, alpha4, ts)
        assert np.abs(got - expect).max() < 1e-12

    def test_inadmissible_angle_rejected(self, flower_spec):
        with pytest.raises(NotAdmissible):
            gutkin_chord_length_formula(flower_spec, 1.0, 0.0)

    @given(st.integers(4, 12), st.integers(0, 20), st.floats(0.3, 3.0), st.floats(-0.6, 0.6),
           st.floats(-np.pi, np.pi))
    @settings(max_examples=30, deadline=None)
    def test_exact_chords_on_random_specs(self, k, index, c0, rel_amp, phase):
        """Every admissible single-harmonic curve is an exact Gutkin curve: shot
        chords arrive at alpha, land at t + alpha from t - alpha, and have the
        closed-form length."""
        roots = gutkin_roots(k)
        alpha = roots[index % len(roots)]
        spec = FourierCurveE2(c0=c0, harmonics=(Harmonic(k, rel_amp * c0, phase),))
        curve = build_e2_curve(spec)
        assert verify_curve_gutkin(curve, alpha, 32)["max_angle_residual"] <= 1e-12
        ts = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
        t1, _, length = shoot_to_curve(curve, ts - alpha, alpha)
        formula = gutkin_chord_length_formula(spec, alpha, ts)
        assert np.abs(length - formula).max() <= 1e-12 * formula.max()
        assert np.abs((t1 - ts - alpha + np.pi) % (2 * np.pi) - np.pi).max() <= 1e-12


def _deformed(geometry, R, k, eps):
    from equichord import contact_angle_from_c, gutkin_roots
    roots = gutkin_roots(k) if k >= 4 else []
    c0 = roots[0] if roots else 0.9
    alpha = contact_angle_from_c(geometry, R, c0)
    spec = DeformedCircle(geometry=geometry, R=R, epsilon=eps,
                          g=TrigPolynomial(0.0, (Harmonic(k, 1.0, 0.0),)),
                          alpha=alpha)
    return spec, build_deformed_circle(spec)


class TestDeformedCircle:
    def test_zero_epsilon_is_circle(self):
        spec, curve = _deformed(Geometry.SPHERICAL, np.pi / 3, 4, 0.0)
        for t in (0.0, 1.0, 2.5):
            assert geodesic_curvature(curve, t) == pytest.approx(
                1 / np.tan(np.pi / 3), abs=1e-8)

    @pytest.mark.parametrize("geometry", [Geometry.SPHERICAL, Geometry.HYPERBOLIC])
    def test_circle_is_the_zero_epsilon_jet(self, geometry):
        """A circle and the deformed circle with epsilon = 0 and an empty g are one
        radial graph: equal jets bit for bit, zero signs included, for an array
        of t and for numpy scalars, t = 0 among them."""
        circle = circle_curve(geometry, 0.9)
        deformed = build_deformed_circle(DeformedCircle(geometry, 0.9, 0.0, TrigPolynomial(), 1.0))
        for t in (np.linspace(-7.0, 7.0, 29), np.float64(0.0), np.float64(2.5)):
            for got, want in zip(circle.jet(t, 2), deformed.jet(t, 2)):
                got, want = np.asarray(got), np.asarray(want)
                assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("geometry, R", [(Geometry.EUCLIDEAN, 1.3), (Geometry.SPHERICAL, 0.9),
                                             (Geometry.HYPERBOLIC, 1.2)])
    def test_circle_jet_is_the_closed_form(self, geometry, R):
        """A circle's point (sn R cos t, sn R sin t, cs R), velocity (-sn R sin t,
        sn R cos t, 0) and acceleration (-sn R cos t, -sn R sin t, 0), exactly,
        in the kernel's coordinate order, with no pole entry on E2."""
        order = {Geometry.EUCLIDEAN: [0, 1], Geometry.SPHERICAL: [0, 1, 2], Geometry.HYPERBOLIC: [2, 0, 1]}
        sr, cr = geometry.kernel.sn(R), geometry.kernel.cs(R)
        curve = circle_curve(geometry, R)
        for t in (np.linspace(-7.0, 7.0, 29), np.float64(0.0), np.float64(2.5)):
            cos, sin, zero = np.cos(t), np.sin(t), np.zeros_like(t)
            closed = ([sr * cos, sr * sin, cr + zero], [-sr * sin, sr * cos, zero], [-sr * cos, -sr * sin, zero])
            for got, want in zip(curve.jet(t, 2), closed):
                assert len(got) == len(order[geometry])
                assert all(np.array_equal(g, want[i]) for g, i in zip(got, order[geometry]))

    def test_latitude_deviation_is_epsilon(self):
        spec, curve = _deformed(Geometry.SPHERICAL, np.pi / 3, 4, 1e-3)
        ts = np.linspace(0.0, 2 * np.pi, 256, endpoint=False)
        pts = np.asarray(curve.point(ts))
        colat = np.arccos(np.clip(pts[:, 2], -1, 1))
        assert np.abs(colat - np.pi / 3).max() == pytest.approx(1e-3, rel=1e-6)

    def test_curvature_perturbation_shape(self):
        # kappa(t) - cot R ~ -eps (1 - k^2) cos kt / sin^2 R for g = cos kt
        R, k, eps = np.pi / 3, 4, 1e-4
        spec, curve = _deformed(Geometry.SPHERICAL, R, k, eps)
        ts = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        kappa = np.array([geodesic_curvature(curve, float(t)) for t in ts])
        predicted = -eps * (1 - k * k) * np.cos(k * ts) / np.sin(R) ** 2
        delta = kappa - 1 / np.tan(R)
        shape_err = np.abs(delta - predicted).max() / np.abs(predicted).max()
        assert shape_err < 1e-3

    def test_constants_need_alpha_only_when_read(self):
        """A deformed circle without alpha builds; its c, a and f_star are the lemma
        constants at the spec's alpha, derived when first read, and OutOfRange
        without one."""
        g = TrigPolynomial(0.0, (Harmonic(4, 1.0, 0.0),))
        for geometry, R in ((Geometry.SPHERICAL, 1.0), (Geometry.HYPERBOLIC, 0.9)):
            bare = DeformedCircle(geometry, R, 1e-3, g)
            assert bare.alpha is None
            build_deformed_circle(bare)
            for name in ("c", "a", "f_star"):
                with pytest.raises(OutOfRange, match="without alpha"):
                    getattr(bare, name)
            spec = DeformedCircle(geometry, R, 1e-3, g, 0.8)
            assert (spec.c, spec.a) == lemma_constants(geometry, R, 0.8)
            assert spec.f_star == f_star(geometry, R, 0.8)

    @pytest.mark.filterwarnings("error")
    def test_h2_build_bound_is_the_largest_radius(self):
        """On H2 the build refuses a largest radius R + |eps| (|c0| + sum |amp|) from
        arccosh(1e12) / 2 on, where cosh^2 r + sinh^2 r = cosh 2r reaches 1e12, at
        any alpha or none; a bad R is still the radius check's refusal."""
        bound = float(np.arccosh(1e12)) / 2
        assert 14.16 < bound < 14.17
        g = TrigPolynomial(0.0, (Harmonic(4, -0.5, 0.0), Harmonic(6, 0.25, 1.0)))
        build_deformed_circle(DeformedCircle(Geometry.HYPERBOLIC, 14.0, 0.2, g))
        build_deformed_circle(DeformedCircle(Geometry.HYPERBOLIC, np.nextafter(bound, 0), 0.0, TrigPolynomial()))
        for R, eps, alpha in ((14.0, 0.25, None), (14.0, -0.25, 1.0), (bound, 0.0, np.pi / 2),
                              (19.0, 0.0, np.pi / 2), (400.0, 0.01, 1.0)):
            spec = DeformedCircle(Geometry.HYPERBOLIC, R, eps, g if eps else TrigPolynomial(), alpha)
            with pytest.raises(OutOfRange, match="hyperboloid's -<p, p> = 1 cancels"):
                build_deformed_circle(spec)
        for R in (None, np.nan, 800.0):
            with pytest.raises(OutOfRange, match="radius must lie in"):
                build_deformed_circle(DeformedCircle(Geometry.HYPERBOLIC, R, 0.0, TrigPolynomial()))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("R", [15.0, 20.0, 30.0, 400.0])
    def test_h2_circle_past_the_bound_is_refused(self, R):
        """A circle is the eps = 0 radial graph, so it meets the deformed circles'
        bound: refused with the same message and no warning (a warning fails this
        test), where it once built and its shots or partials failed later."""
        with pytest.raises(OutOfRange, match=rf"^H2 radius up to {R!r} too large: past 14\.1621, "):
            circle_curve(Geometry.HYPERBOLIC, R)
        bound = Geometry.HYPERBOLIC.kernel.embed_radius
        assert ArcLengthParam(circle_curve(Geometry.HYPERBOLIC, np.nextafter(bound, 0))).total_length > 0

    @pytest.mark.parametrize("R, eps, g, low", [
        (0.1, 0.2, TrigPolynomial(0.0, (Harmonic(4, 1.0),)), -0.1),
        (1.0, 1.0, TrigPolynomial(0.0, (Harmonic(0, -2.0),)), -1.0),
    ], ids=["dips below 0", "constant -1"])
    def test_radius_must_stay_positive(self, R, eps, g, low):
        """r = R + eps g(t) below 0 is refused where it is built: r = 0.1 + 0.2 cos 4t
        once built and then failed its chord shots, and r = -1 once built as the
        circle of radius 1 and verified as Gutkin."""
        with pytest.raises(OutOfRange, match=rf"^S2 radius down to {low!r}: "
                                             r"r = R \+ eps g\(t\) must stay positive$"):
            build_deformed_circle(DeformedCircle(Geometry.SPHERICAL, R, eps, g))

    @pytest.mark.parametrize("geometry, R", [(Geometry.SPHERICAL, 1.0), (Geometry.HYPERBOLIC, 1.2)])
    def test_constant_radius_keeps_the_closed_form_speed(self, geometry, R):
        """Where r is constant the speed is sn_K(r): a deformed circle with eps = 0,
        or whose g is a constant, integrates its arc length in closed form, as the
        circle does, and so gives the circle's length bit for bit.  A k = 0 term
        moves r by eps amp cos(phase), sign and all; counted without its sign, the
        last two specs were refused as reaching 0."""
        circle = circle_curve(geometry, R)
        assert circle._speed == (TrigPolynomial(geometry.kernel.sn(R)), geometry.kernel.sn(R))
        g = TrigPolynomial(0.0, (Harmonic(4, 1.0, 0.3),))
        for spec in (DeformedCircle(geometry, R, 0.0, g), DeformedCircle(geometry, R, 0.0, TrigPolynomial()),
                     DeformedCircle(geometry, R - 0.25, 0.5, TrigPolynomial(0.5)),
                     DeformedCircle(geometry, R / 2, 1.0, TrigPolynomial(0.0, (Harmonic(0, R / 2),))),
                     DeformedCircle(geometry, R / 2, -1.0, TrigPolynomial(0.0, (Harmonic(0, -R / 2),)))):
            curve = build_deformed_circle(spec)
            assert curve._speed == circle._speed
            assert ArcLengthParam(curve).total_length == ArcLengthParam(circle).total_length
        assert build_deformed_circle(DeformedCircle(geometry, R, 1e-3, g))._speed is None

    def test_convexity_scan_sees_every_harmonic(self):
        """The scan takes the band grid, the least power of two >= max(256, 32 k) for
        g's highest order k, so 32 points per period of k = 128: at a fixed 128
        points a k = 128 deformation was sampled only where cos 128t = 1, and built
        though its geodesic curvature reaches -1.67."""
        g = TrigPolynomial(0.0, (Harmonic(128, 1.0),))
        with pytest.raises(NonConvex, match="loses convexity"):
            build_deformed_circle(DeformedCircle(Geometry.SPHERICAL, 1.0, 1e-4, g))
        build_deformed_circle(DeformedCircle(Geometry.SPHERICAL, 1.0, 1e-5, g))
        with pytest.raises(OutOfRange, match="order 1024 is above 1023, the most the arc length resolves"):
            build_deformed_circle(DeformedCircle(Geometry.SPHERICAL, 1.0, 1e-12,
                                                 TrigPolynomial(0.0, (Harmonic(1024, 1.0),))))

    @pytest.mark.parametrize("tag, k, phase, eps", [
        # R = 1, g = cos(kt + pi k / max(128, 8 k)): g's extremum lies midway between the
        # points of the 8-points-a-period scan; eps is 1.0001, 1.001, 1.01 or 1.05 times
        # the convexity limit, bisected on 200000 points
        ("S2", 2, 0.04908738521234052, 0.12291604101219925),
        ("S2", 2, 0.04908738521234052, 0.12302665438777265),
        ("S2", 3, 0.07363107781851078, 0.05267255723857331),
        ("S2", 5, 0.1227184630308513, 0.01848293908508202),
        ("S2", 8, 0.19634954084936207, 0.007150362400939141),
        ("S2", 8, 0.19634954084936207, 0.007156797083631716),
        ("S2", 8, 0.19634954084936207, 0.007221143910557476),
        ("S2", 20, 0.39269908169872414, 0.0011379163521921876),
        ("S2", 20, 0.39269908169872414, 0.0011389403745069291),
        ("S2", 20, 0.39269908169872414, 0.001149180597654344),
        ("S2", 20, 0.39269908169872414, 0.001194692700531744),
        ("S2", 60, 0.3926990816987241, 0.00012631853634313382),
        ("S2", 60, 0.3926990816987241, 0.00012643221165831113),
        ("S2", 60, 0.3926990816987241, 0.00012756896481008417),
        ("S2", 60, 0.3926990816987241, 0.0001326212010401865),
        ("H2", 2, 0.04908738521234052, 0.26023632678400777),
        ("H2", 2, 0.04908738521234052, 0.2604705160591858),
        ("H2", 3, 0.07363107781851078, 0.14771773561874432),
        ("H2", 5, 0.1227184630308513, 0.0635427854259713),
        ("H2", 8, 0.19634954084936207, 0.02680209772622024),
        ("H2", 8, 0.19634954084936207, 0.026826217202226235),
        ("H2", 8, 0.19634954084936207, 0.027067411962286212),
        ("H2", 20, 0.39269908169872414, 0.004491962135076918),
        ("H2", 20, 0.39269908169872414, 0.004496004496762318),
        ("H2", 20, 0.39269908169872414, 0.004536428113616325),
        ("H2", 20, 0.39269908169872414, 0.004716088632967467),
        ("H2", 60, 0.3926990816987241, 0.0005032553111470827),
        ("H2", 60, 0.3926990816987241, 0.0005037081956386658),
        ("H2", 60, 0.3926990816987241, 0.000508237040554498),
        ("H2", 60, 0.3926990816987241, 0.0005283652401804188),
    ])
    def test_nonconvex_between_the_old_scan_points_is_refused(self, tag, k, phase, eps):
        """Each of these curves built when the scan took max(128, 8 k) points, with
        its least geodesic curvature between -6.4e-5 and -0.066 on a fine grid; on
        the band grid each is refused."""
        geometry = Geometry(tag)
        g = TrigPolynomial(0.0, (Harmonic(k, 1.0, phase),))
        fine = np.linspace(0.0, 2 * np.pi, 200000, endpoint=False)
        assert geodesic_curvature(_radial_graph(geometry, 1.0, eps, g), fine).min() < 0
        with pytest.raises(NonConvex, match="loses convexity"):
            build_deformed_circle(DeformedCircle(geometry, 1.0, eps, g))

    @pytest.mark.parametrize("k, resolved", [(1023, True), (1500, False)])
    def test_order_cap_is_where_the_arc_length_resolves(self, k, resolved):
        """The arc length samples the speed 4096 times, so from k = 1024 on the speed's
        order 2k folds onto 4096 - 2k, and the build refuses g's order k.  On S2,
        R = 1, g = cos(kt + 0.3), eps = 0.3 / k^2, s_of_t against the trapezoid
        cumulative of 2^17 speed samples reads 9e-14 at k = 1023 and 2.3e-11 at
        k = 1500, which only the bare radial graph still builds."""
        g = TrigPolynomial(0.0, (Harmonic(k, 1.0, 0.3),))
        spec = DeformedCircle(Geometry.SPHERICAL, 1.0, 0.3 / k**2, g)
        curve = _radial_graph(spec.geometry, spec.R, spec.epsilon, spec.g)
        t = np.arange(2**17 + 1) * (2 * np.pi / 2**17)
        speed = mnorm(curve.geometry, curve.velocity(t))
        s = np.concatenate([[0.0], np.cumsum(speed[1:] + speed[:-1]) * (np.pi / 2**17)])
        err = np.abs(ArcLengthParam(curve).s_of_t(t[::97]) - s[::97]).max()
        assert (err < 1e-12) == resolved
        if resolved:
            build_deformed_circle(spec)
        else:
            with pytest.raises(OutOfRange, match=f"order {k} is above 1023"):
                build_deformed_circle(spec)

    def test_first_harmonic_rejected(self):
        with pytest.raises(NotClosed):
            DeformedCircle(geometry=Geometry.SPHERICAL, R=1.0, epsilon=1e-3,
                           g=TrigPolynomial(0.0, (Harmonic(1, 1.0, 0.0),)),
                           alpha=0.8)


class TestResidualOrders:
    @pytest.mark.parametrize("geometry,R", [(Geometry.SPHERICAL, np.pi / 3),
                                            (Geometry.HYPERBOLIC, 0.8)])
    def test_admissible_is_second_order(self, geometry, R):
        res = {}
        for eps in (1e-2, 5e-3):
            spec, curve = _deformed(geometry, R, 4, eps)
            res[eps] = verify_curve_gutkin(curve, spec.alpha, n_samples=24)[
                "max_angle_residual"]
        assert 3.5 < res[1e-2] / res[5e-3] < 4.5

    @pytest.mark.parametrize("geometry,R", [(Geometry.SPHERICAL, np.pi / 3),
                                            (Geometry.HYPERBOLIC, 0.8)])
    def test_inadmissible_is_first_order(self, geometry, R):
        res = {}
        for eps in (1e-2, 5e-3):
            spec, curve = _deformed(geometry, R, 3, eps)
            res[eps] = verify_curve_gutkin(curve, spec.alpha, n_samples=24)[
                "max_angle_residual"]
        assert 1.8 < res[1e-2] / res[5e-3] < 2.2

    @given(st.sampled_from([Geometry.SPHERICAL, Geometry.HYPERBOLIC]), st.floats(0.0, 1.0),
           st.integers(4, 8), st.booleans(), st.integers(0, 9), st.floats(0.2, np.pi - 0.2),
           st.floats(-np.pi, np.pi))
    @settings(max_examples=30, deadline=None)
    @example(Geometry.SPHERICAL, 0.0, 6, True, 3, 1.0, -0.171875)
    def test_orders_on_random_deformed_circles(self, geometry, u, k, admissible, index, c_other,
                                               phase):
        """A deformation cos(kt + phase) of amplitude eps leaves an O(eps^2) angle
        residual when c solves k tan c = tan kc and an O(eps) one otherwise: halving
        eps divides it by 4 or by 2. The O(eps^2) part carries harmonic 2k, so the
        curve is sampled 8k times, four samples to its period: 24 samples can fall
        on its zeros (k = 6 above), leaving the O(eps^3) part to set the order."""
        R = 0.3 + (1.1 if geometry is Geometry.SPHERICAL else 2.2) * u
        roots = gutkin_roots(k)
        if admissible:
            c = roots[index % len(roots)]
        else:
            # c = pi/2 solves the pole-free form too when k is odd
            zeros = roots + ([np.pi / 2] if k % 2 else [])
            assume(min(abs(c_other - z) for z in zeros) >= 0.1)
            c = c_other
        alpha = contact_angle_from_c(geometry, R, c)
        eps = 1e-3 / (k * k - 1)
        res = []
        for e in (eps, eps / 2):
            spec = DeformedCircle(geometry=geometry, R=R, epsilon=e, alpha=alpha,
                                  g=TrigPolynomial(0.0, (Harmonic(k, 1.0, phase),)))
            res.append(verify_curve_gutkin(build_deformed_circle(spec), alpha, 8 * k)["max_angle_residual"])
        order = np.log2(res[0] / res[1])
        assert abs(order - (2 if admissible else 1)) < 0.2, (res, order)


class TestLinearizedOperator:
    def test_coefficient_identity(self):
        for geometry, R in ((Geometry.SPHERICAL, 0.7), (Geometry.HYPERBOLIC, 1.4)):
            for alpha in (0.4, 1.0, 2.0):
                lhs, rhs = linearized_coefficient_check(geometry, R, alpha)
                assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_linearized_residual_vanishes_for_admissible_mode(self):
        from equichord import contact_angle_from_c, f_star, gutkin_roots
        geometry, R = Geometry.SPHERICAL, np.pi / 3
        c0 = gutkin_roots(4)[0]
        alpha = contact_angle_from_c(geometry, R, c0)
        c, a = lemma_constants(geometry, R, alpha)
        eps = 1e-4
        f = TrigPolynomial(f_star(geometry, R, alpha), (Harmonic(4, eps, 0.0),))
        res = s2_residual_operator(f, alpha, c, a, geometry)
        ts = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        # residual is O(eps^2), far below the O(eps) scale
        assert np.abs(res(ts)).max() < 10 * eps ** 2
