import numpy as np
import pytest

from equichord import (
    ArcLengthParam,
    FourierCurveE2,
    Geometry,
    Harmonic,
    build_e2_curve,
    chord_data,
    circle_curve,
    validate_partials,
)
from equichord.errors import Degenerate, OutOfRange


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

    def test_t_of_s_fails_loudly(self, wavy_curve):
        # a speed 1e6 times too large makes every Newton step tiny
        arclen = ArcLengthParam(wavy_curve)
        true_speed = arclen.speed
        arclen.speed = lambda t: 1e6 * true_speed(t)
        with pytest.raises(RuntimeError):
            arclen.t_of_s(1.0)

    def test_total_length_matches_rho_mean(self, wavy_curve):
        # in the turning-angle parameter the speed is rho, so length = 2 pi c0
        arclen = ArcLengthParam(wavy_curve)
        assert arclen.total_length == pytest.approx(2 * np.pi, abs=1e-10)


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

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nan_sample_refused(self):
        with pytest.raises(OutOfRange, match=r"sample \d+ .* NaN chord partial"):
            validate_partials(circle_curve(Geometry.HYPERBOLIC, 12.0), samples=20)

    def test_report_shape(self, wavy_curve):
        report = validate_partials(wavy_curve, samples=3)
        assert set(report["per_quantity"]) == {"Lx", "Ly", "Lxx", "Lyy", "Lxy"}
        assert report["geometry"] == "E2"
