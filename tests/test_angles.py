import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichord import (
    Geometry,
    circle_curve,
    connelly_check,
    contact_angle_from_c,
    f_star,
    gutkin_roots,
    lemma_constants,
    solve_angle,
    solve_restr2,
)
from equichord.errors import OutOfRange
from equichord.geometry import _BRENT_RTOL, _brentq


class TestGutkinRoots:
    def test_k2_k3_empty(self):
        assert gutkin_roots(2) == []
        assert gutkin_roots(3) == []

    def test_k4_closed_form(self):
        # tan a = sqrt 5 solves 4 tan a = tan 4a (double-angle twice)
        roots = gutkin_roots(4)
        assert len(roots) == 2
        a = np.arctan(np.sqrt(5.0))
        assert roots[0] == pytest.approx(a, abs=1e-12)
        assert roots[1] == pytest.approx(np.pi - a, abs=1e-12)

    def test_k5_closed_form(self):
        # tan a = sqrt(5/3) solves 5 tan a = tan 5a
        roots = gutkin_roots(5)
        a = np.arctan(np.sqrt(5.0 / 3.0))
        assert any(abs(r - a) < 1e-12 for r in roots)

    def test_roots_satisfy_equation(self):
        for k in range(4, 10):
            for c in gutkin_roots(k):
                assert abs(k * np.tan(c) - np.tan(k * c)) < 1e-9 * (1 + abs(k * np.tan(c)))

    def test_root_count_grows(self):
        # k-3 roots below pi/2 would be the naive guess; just pin monotone counts
        counts = [len(gutkin_roots(k)) for k in range(2, 9)]
        assert counts == sorted(counts)
        assert counts[0] == 0 and counts[-1] > 0

    @given(st.integers(min_value=4, max_value=12))
    @settings(max_examples=9, deadline=None)
    def test_supplement_symmetry(self, k):
        roots = gutkin_roots(k)
        for c in roots:
            assert any(abs((np.pi - c) - r) < 1e-9 for r in roots)

    def test_bad_k(self):
        with pytest.raises(OutOfRange):
            gutkin_roots(1)

    def test_one_root_per_branch_k2_to_300(self):
        for k in range(2, 301):
            roots = gutkin_roots(k)
            assert len(roots) == 2 * ((k - 2) // 2)
            assert all(a < b for a, b in zip(roots, roots[1:]))
            branches = [j for j in range(1, k) if abs(2 * j - k) >= 2]
            for j, c in zip(branches, roots):
                assert (2 * j - 1) * np.pi / (2 * k) < c < (2 * j + 1) * np.pi / (2 * k)
            n = len(roots)
            for i in range(n):
                assert abs(roots[i] + roots[n - 1 - i] - np.pi) <= 1e-14

    def test_tangent_form_k2_to_300(self):
        def tangent_form(k, c):
            return k * np.tan(c) - np.tan(k * c)

        for k in range(2, 301):
            for c in gutkin_roots(k):
                # the tangent form changes sign within 4e-15 of every root
                assert tangent_form(k, c - 4e-15) * tangent_form(k, c + 4e-15) < 0
                # the relative residual bound of test_roots_satisfy_equation; above
                # k ~ 160 rounding c to a double alone can exceed it (the correctly
                # rounded root of k = 300 nearest pi/2 reaches 1.7e-9)
                if k <= 150:
                    kt = k * np.tan(c)
                    assert abs(kt - np.tan(k * c)) < 1e-9 * (1 + abs(kt))


class TestLemmaConstants:
    def test_euclidean_identity(self):
        c, a = lemma_constants(Geometry.EUCLIDEAN, None, 0.7)
        assert c == 0.7 and a == 1.0

    def test_s2_r_to_zero_limit(self):
        c, a = lemma_constants(Geometry.SPHERICAL, 1e-8, 0.7)
        assert c == pytest.approx(0.7, abs=1e-10)
        assert a == pytest.approx(1.0, abs=1e-10)

    def test_s2_reference_values(self):
        c, a = lemma_constants(Geometry.SPHERICAL, np.pi / 3, np.pi / 4)
        assert c == pytest.approx(np.arctan2(1.0, 0.5), abs=1e-13)
        assert a == pytest.approx(0.7905694150420949, abs=1e-12)

    def test_identity_grid(self):
        # a cot(alpha) {cos|cosh}(f*) = cot c for every admissible (R, alpha)
        for geometry, radii in ((Geometry.SPHERICAL, np.linspace(0.05, 1.5, 20)),
                                (Geometry.HYPERBOLIC, np.linspace(0.05, 3.0, 20))):
            C = np.cos if geometry is Geometry.SPHERICAL else np.cosh
            for R in radii:
                for alpha in np.linspace(0.1, np.pi - 0.1, 20):
                    c, a = lemma_constants(geometry, float(R), float(alpha))
                    lhs = a * np.cos(alpha) / np.sin(alpha) * C(f_star(geometry, float(R), float(alpha)))
                    assert abs(lhs - np.cos(c) / np.sin(c)) < 1e-12 * (1 + abs(lhs))

    def test_bad_radius(self):
        with pytest.raises(OutOfRange, match="radius must lie in"):
            lemma_constants(Geometry.SPHERICAL, np.pi / 2, 0.5)
        with pytest.raises(OutOfRange, match="radius must lie in"):
            lemma_constants(Geometry.HYPERBOLIC, -1.0, 0.5)
        for geometry in (Geometry.SPHERICAL, Geometry.HYPERBOLIC):
            with pytest.raises(OutOfRange, match="radius must lie in"):
                contact_angle_from_c(geometry, float("nan"), 1.0)
        with pytest.raises(OutOfRange, match="radius must lie in"):
            circle_curve(Geometry.EUCLIDEAN, float("nan"))

    def test_self_check_holds_on_the_whole_domain(self):
        """The first-form self-check never fires on admissible input: not for
        H2 radii up to 14 (its denominator cancels like cosh^2 R), nor for S2
        radii up to the last double below pi/2 (c near pi/2)."""
        alphas = np.concatenate([np.linspace(1e-8, np.pi - 1e-8, 61),
                                 [1e-300, np.pi / 2, np.nextafter(np.pi / 2, 0)]])
        for geometry, radii in ((Geometry.HYPERBOLIC, np.linspace(1e-6, 14.0, 60)),
                                (Geometry.SPHERICAL, [1.0, 1.5707963, np.nextafter(np.pi / 2, 0)])):
            for R in radii:
                for alpha in alphas:
                    lemma_constants(geometry, float(R), float(alpha))

    def test_self_check_fires_near_a_right_angle(self, monkeypatch):
        """At alpha within 1e-3 or 1e-9 of pi/2 on the unit-radius sphere the
        first form is good to about 1e-15; a c off by 1e-10 moves it by about
        2e-10, and the self-check reports that."""
        for alpha in (np.pi / 2 - 1e-3, np.pi / 2 - 1e-9):
            lemma_constants(Geometry.SPHERICAL, 1.0, alpha)
        arctan2 = np.arctan2
        monkeypatch.setattr(np, "arctan2", lambda y, x: arctan2(y, x) + 1e-10)
        for alpha in (np.pi / 2 - 1e-3, np.pi / 2 - 1e-9):
            with pytest.raises(RuntimeError, match="self-check failed"):
                lemma_constants(Geometry.SPHERICAL, 1.0, alpha)

    def test_h2_cancellation_is_out_of_range(self):
        """Large H2 radii stay valid where only cosh and sinh are needed; the
        lemma constants reject them once cosh^2 R cancels past 1e12."""
        for R in (12.0, 40.0):
            circle_curve(Geometry.HYPERBOLIC, R)
            assert 0.0 < contact_angle_from_c(Geometry.HYPERBOLIC, R, 1.0) <= np.pi / 2
            assert f_star(Geometry.HYPERBOLIC, R, 1.0) > 0.0
        lemma_constants(Geometry.HYPERBOLIC, 12.0, 1.0)
        lemma_constants(Geometry.HYPERBOLIC, 40.0, np.pi / 2)
        for R, alpha in ((20.0, 1.0), (40.0, 0.1)):
            with pytest.raises(OutOfRange, match="cosh\\^2 R cancels"):
                lemma_constants(Geometry.HYPERBOLIC, R, alpha)

    def test_contact_angle_round_trip(self):
        for geometry, R in ((Geometry.SPHERICAL, 0.9), (Geometry.HYPERBOLIC, 1.3)):
            for alpha in (0.3, 1.0, 2.2):
                c, _ = lemma_constants(geometry, R, alpha)
                assert contact_angle_from_c(geometry, R, c) == pytest.approx(alpha, abs=1e-12)


class TestFStar:
    def test_alpha_out_of_range(self):
        for geometry in (Geometry.SPHERICAL, Geometry.HYPERBOLIC):
            for alpha in (-0.5, 0.0, np.pi, 4.0, float("nan")):
                with pytest.raises(OutOfRange):
                    f_star(geometry, 1.0, alpha)


class TestBrentq:
    def test_same_sign_bracket(self):
        with pytest.raises(ValueError):
            _brentq(np.cos, 0.0, 1.0, xtol=1e-15)

    def test_maxiter(self, monkeypatch):
        assert _brentq(np.cos, 0.0, 3.0, xtol=1e-15) == pytest.approx(np.pi / 2, abs=1e-15)
        monkeypatch.setattr("equichord.geometry._BRENT_MAXITER", 3)
        with pytest.raises(RuntimeError):
            _brentq(np.cos, 0.0, 3.0, xtol=1e-15)

    def test_bit_identical_to_scipy(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(20261018)
        checked = 0
        for _ in range(400):
            k = int(rng.integers(4, 40))
            shift = rng.uniform(-1.0, 1.0)
            a, b = np.sort(rng.uniform(0.01, np.pi - 0.01, 2))

            def f(x):
                return float((k - 1) * np.sin((k + 1) * x) - (k + 1) * np.sin((k - 1) * x) + shift)

            if f(a) * f(b) >= 0:
                continue
            for xtol in (1e-15, 1e-13):
                assert _brentq(f, a, b, xtol=xtol) == optimize.brentq(f, a, b, xtol=xtol, rtol=_BRENT_RTOL)
            checked += 1
        assert checked > 100


class TestSolveAngle:
    def test_euclidean_alpha_equals_c(self):
        sols = solve_angle(4)
        assert sols[0].alpha == sols[0].c

    def test_spherical_contact_angle(self):
        sols = solve_angle(4, Geometry.SPHERICAL, np.pi / 3)
        # cot c = cos R cot alpha, so tan alpha = cos R tan c = sqrt(5)/2
        assert sols[0].alpha == pytest.approx(np.arctan(np.sqrt(5.0) / 2), abs=1e-10)

    def test_empty_for_k2(self):
        assert solve_angle(2) == []


class TestRestr2:
    def test_known_solution_sets(self):
        assert [s.r for s in solve_restr2(24, 5)] == [7, 12, 17]
        assert [s.r for s in solve_restr2(6, 3)] == [3]
        assert [s.r for s in solve_restr2(5, 2)] == []

    @given(st.integers(min_value=5, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_r_reflection_symmetry(self, n):
        for k in range(2, n // 2 + 1):
            rs = {s.r for s in solve_restr2(n, k)}
            assert rs == {n - r for r in rs}

    def test_k_out_of_range(self):
        with pytest.raises(OutOfRange):
            solve_restr2(10, 6)


class TestConnelly:
    def test_matches_restr2_below_half(self):
        for n in range(5, 41):
            for k in range(2, (n - 1) // 2 + 1):
                rs = {s.r for s in solve_restr2(n, k) if 1 < s.r < n / 2}
                arith = {r for r in range(2, (n - 1) // 2 + 1) if connelly_check(n, k, r)}
                assert rs == arith, (n, k)

    def test_range_guard(self):
        with pytest.raises(OutOfRange):
            connelly_check(10, 5, 3)
