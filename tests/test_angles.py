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
from equichord.errors import BadRadius, OutOfRange


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
        with pytest.raises(BadRadius):
            lemma_constants(Geometry.SPHERICAL, np.pi / 2, 0.5)
        with pytest.raises(BadRadius):
            lemma_constants(Geometry.HYPERBOLIC, -1.0, 0.5)
        for geometry in (Geometry.SPHERICAL, Geometry.HYPERBOLIC):
            with pytest.raises(BadRadius):
                contact_angle_from_c(geometry, float("nan"), 1.0)
        with pytest.raises(BadRadius):
            circle_curve(Geometry.EUCLIDEAN, float("nan"))

    def test_contact_angle_round_trip(self):
        for geometry, R in ((Geometry.SPHERICAL, 0.9), (Geometry.HYPERBOLIC, 1.3)):
            for alpha in (0.3, 1.0, 2.2):
                c, _ = lemma_constants(geometry, R, alpha)
                assert contact_angle_from_c(geometry, R, c) == pytest.approx(alpha, abs=1e-12)


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
