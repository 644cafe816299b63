import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichord import (
    DeformedCircle,
    FourierCurveE2,
    Geometry,
    Harmonic,
    TrigPolynomial,
    build_deformed_circle,
    build_e2_curve,
    closure_defect,
    curves,
    e2_residual_operator,
    geodesic_curvature,
    gutkin_roots,
    lemma_constants,
    linearized_coefficient_check,
    s2_residual_operator,
    shoot_to_curve,
    verify_curve_gutkin,
)
from equichord.errors import NonConvex, NotAdmissible, NotClosed, OutOfRange
from oracles import gutkin_chord_length_formula

ALPHA4 = float(np.arctan(np.sqrt(5.0)))


class TestFourierCurveE2:
    def test_circle_point(self):
        curve = build_e2_curve(FourierCurveE2(c0=1.0))
        p = np.asarray(curve.point(np.pi / 2))
        assert np.allclose(p, [1.0, 1.0], atol=1e-14)

    def test_first_harmonic_rejected(self):
        with pytest.raises(NotClosed):
            FourierCurveE2(c0=1.0, harmonics=(Harmonic(1, 0.1, 0.0),))

    def test_closure_defect_of_first_harmonic(self):
        assert closure_defect(1.0, (Harmonic(1, 0.1, 0.0),)) == pytest.approx(
            np.pi * 0.1, abs=1e-10)
        assert closure_defect(1.0, (Harmonic(4, 0.1, 0.0),)) < 1e-14

    def test_nonconvex_rejected(self):
        with pytest.raises(NonConvex, match="radius of curvature must stay positive"):
            FourierCurveE2(c0=1.0, harmonics=(Harmonic(4, 1.2, 0.0),))

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


class TestE2Residual:
    def test_admissible_vanishes(self, flower_spec, alpha4):
        f = TrigPolynomial(np.sin(alpha4),
                           (Harmonic(4, 0.1 * np.sin(alpha4), 0.0),))
        res = e2_residual_operator(f, alpha4)
        ts = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        assert np.abs(res(ts)).max() < 1e-12

    def test_wrong_angle_fails(self):
        f = TrigPolynomial(1.0, (Harmonic(4, 0.1, 0.0),))
        res = e2_residual_operator(f, 1.0)
        ts = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        assert np.abs(res(ts)).max() > 1e-2


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
