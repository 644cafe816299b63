import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from equichord.geometry import _newton
from gutkin_digits import ROOTS


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

    @given(st.integers(min_value=2, max_value=600))
    @settings(max_examples=30, deadline=None)
    def test_mirror_pairs(self, k):
        # c -> pi - c maps k tan c = tan kc to itself, so the sorted roots pair
        # up end to end; every pair sums to pi within 4 ulp (3 is the worst k <= 600)
        roots = gutkin_roots(k)
        assert len(roots) % 2 == 0
        for c, d in zip(roots, reversed(roots)):
            assert abs(c + d - np.pi) <= 4 * np.spacing(np.pi)

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

    @pytest.mark.parametrize("k", sorted(ROOTS))
    def test_within_3_ulp_of_40_digit_roots(self, k):
        roots = gutkin_roots(k)
        assert len(roots) == len(ROOTS[k])
        for c, digits in zip(roots, ROOTS[k]):
            assert abs(Fraction(c) - Fraction(digits)) <= 3 * Fraction(math.ulp(c)), (c, digits)

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


def _arctan_family(r, a, b, shift):
    """f = arctan(a (x - r)) + b (x - r) - shift and f', increasing in x; the
    parameters broadcast against x, one per lane."""
    def f(x):
        u = x - r
        au = a * u
        return np.arctan(au) + b * u - shift, a / (1 + au * au) + b
    return f


def _counting(f, calls):
    """f, appending to ``calls`` on every evaluation."""
    def counted(x):
        calls.append(np.shape(x))
        return f(x)
    return counted


class TestNewton:
    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    @example(seed=7238, n=5)  # lane (0, 2) jumps across its root, -11.3, 10.6, -10.9, ...
    def test_lanes_match_one_lane_at_a_time(self, seed, n):
        """Every lane of a (3, n) block equals the same call made alone on numpy
        scalars, bit for bit.  Row 0 starts near and far from the root (far ones
        bisect); row 1 is steep, so its far starts bisect for many rounds (a
        slope in [1e5, 1e6] gives at least 8 on every (seed, n) drawn here, where
        [1e3, 1e4] gave fewer on 61 of them); row 2 starts within 1e-9 of its root
        and stops in at most two rounds, then is evaluated in place while the
        other rows run."""
        rng = np.random.default_rng(seed)
        r = rng.uniform(-5, 5, (3, n))
        a = np.stack([rng.uniform(0.1, 10, n), rng.uniform(1e5, 1e6, n), rng.uniform(0.1, 10, n)])
        b = np.stack([rng.uniform(1e-3, 0.1, n), rng.uniform(1e-4, 1e-3, n), rng.uniform(1e-3, 0.1, n)])
        shift = np.stack([rng.uniform(-1, 1, n), rng.uniform(-1, 1, n), np.zeros(n)])
        neg, pos = r - rng.uniform(1, 20, (3, n)), r + rng.uniform(1, 20, (3, n))
        x0 = neg + rng.uniform(0, 1, (3, n)) * (pos - neg)
        x0[2] = r[2] + rng.uniform(-1e-9, 1e-9, n)  # the root of row 2 is r: shift is 0
        block_calls = []
        roots = _newton(_counting(_arctan_family(r, a, b, shift), block_calls), neg, pos, x0)
        assert roots.shape == (3, n)
        rounds = np.empty((3, n), dtype=int)
        for i in np.ndindex(3, n):
            calls = []
            one = _counting(_arctan_family(r[i], a[i], b[i], shift[i]), calls)
            alone = _newton(one, neg[i], pos[i], x0[i])
            assert isinstance(alone, np.float64)
            assert alone == roots[i]
            rounds[i] = len(calls)
        assert rounds[1].min() >= 8 and rounds[2].max() <= 2, rounds
        # the block runs until its slowest lane stops: no round more
        assert block_calls == [(3, n)] * rounds.max()

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_sign_change_within_4_ulp(self, seed, n):
        """f = x - r + b sin(w x) with |b w| <= 1/2 has f' in [1/2, 3/2]: f
        changes sign within 4 ulp of every returned root."""
        rng = np.random.default_rng(seed)
        r, w = rng.uniform(2, 8, n), rng.uniform(0.1, 5, n)
        b = rng.uniform(-0.5, 0.5, n) / w
        b = np.clip(b, -0.4, 0.4)

        def f(x):
            return x - r + b * np.sin(w * x), 1 + b * w * np.cos(w * x)

        neg, pos = r - 1, r + 1
        roots = _newton(f, neg, pos, neg + rng.uniform(0, 1, n) * 2)
        below = f(roots - 4 * np.spacing(roots))[0]
        above = f(roots + 4 * np.spacing(roots))[0]
        assert np.all(below * above <= 0), (below, above)

    def test_step_leaving_the_bracket_bisects(self):
        """From x = 10 the raw Newton step on arctan(x - 1) lands at about -110,
        outside the bracket [-20, 20]; the safeguard bisects and still converges."""
        def f(x):
            return np.arctan(x - 1), 1 / (1 + (x - 1) * (x - 1))

        y, dy = f(10.0)
        assert not -20 < 10.0 - y / dy < 20
        assert _newton(f, np.float64(-20), np.float64(20), np.float64(10)) == 1.0
        assert np.array_equal(_newton(f, np.array([-20.0, -20.0]), np.array([20.0, 20.0]),
                                      np.array([10.0, 1.5])), [1.0, 1.0])

    def test_step_not_halving_bisects(self):
        """With f' a little under half the slope, Newton jumps across the root to
        its mirror image, each jump only 0.02% shorter, and every landing lies
        inside the bracket.  A step longer than half the one two rounds before
        bisects, so the lanes converge well within the round cap."""
        def f(x):
            return x - 1.25, 0.5001 + 0 * x

        for root in (_newton(f, np.float64(-20), np.float64(20), np.float64(3)),
                     _newton(f, np.full(2, -20.0), np.full(2, 20.0), np.array([3.0, -1.0]))[0]):
            assert abs(root - 1.25) <= 8 * np.finfo(float).eps * 1.25

    def test_collapsed_bracket_stops(self):
        """A sign change with no root (a jump at 0.3) ends in a bracket below the
        tolerance, not in the round cap."""
        def f(x):
            return np.where(x < 0.3, -1.0, 1.0)[()], 1e-3 + 0 * x

        for root in (_newton(f, np.float64(0), np.float64(1), np.float64(0.9)),
                     _newton(f, np.array([0.0]), np.array([1.0]), np.array([0.9]))[0]):
            assert abs(root - 0.3) <= 8 * np.finfo(float).eps

    def test_round_cap(self, monkeypatch):
        def cos(x):
            return np.cos(x), -np.sin(x)

        one_lane = np.float64(3), np.float64(0), np.float64(1)
        assert _newton(cos, *one_lane) == pytest.approx(np.pi / 2, abs=1e-15)
        monkeypatch.setattr("equichord.geometry._NEWTON_ROUNDS", 2)
        with pytest.raises(RuntimeError, match="did not converge in 2 rounds"):
            _newton(cos, *one_lane)

    def test_lane_errors(self, monkeypatch):
        def nan_on_lane_1(x):
            y = np.cos(x)
            return (np.where(np.arange(x.size) == 1, np.nan, y) if x.ndim else np.nan), -np.sin(x)

        with pytest.raises(RuntimeError, match="is NaN"):
            _newton(nan_on_lane_1, np.float64(3), np.float64(0), np.float64(1))
        with pytest.raises(RuntimeError, match="is NaN"):
            _newton(nan_on_lane_1, np.array([3.0, 3.0]), np.array([0.0, 0.0]), np.array([1.0, 1.0]))

        def cos(x):
            return np.cos(x), -np.sin(x)

        monkeypatch.setattr("equichord.geometry._NEWTON_ROUNDS", 2)
        with pytest.raises(RuntimeError, match="did not converge in 2 rounds"):
            _newton(cos, np.array([3.0, 3.0]), np.array([0.0, 0.0]), np.array([1.0, 1.5]))

    def test_stopped_lanes_are_not_checked(self, monkeypatch):
        """Lane 0 starts on its root and stops in the first round; it is evaluated
        again, as NaN, while lane 1, a steep arctan, bisects for several rounds.
        Neither the NaN refusal nor the round cap's message looks at lane 0: the
        message is lane 1's, as the call alone gives."""
        def steep(x):
            u = 1000 * (x - 1.2)
            return np.arctan(u), 1000 / (1 + u * u)

        def f(x):
            y, dy = steep(x[1])
            calls.append(x.copy())
            return np.array([x[0] - 1.0 if len(calls) == 1 else np.nan, y]), np.array([1.0, dy])

        lanes, alone = (np.array([0.0, 0.0]), np.array([2.0, 3.0]), np.array([1.0, 2.9])), (0.0, 3.0, 2.9)
        calls = []
        roots = _newton(f, *lanes)
        assert len(calls) > 2
        assert roots[0] == 1.0 and roots[1] == _newton(steep, *map(np.float64, alone))
        monkeypatch.setattr("equichord.geometry._NEWTON_ROUNDS", 2)
        with pytest.raises(RuntimeError, match="did not converge in 2 rounds") as one:
            _newton(steep, *map(np.float64, alone))
        calls = []
        with pytest.raises(RuntimeError, match="did not converge in 2 rounds") as two:
            _newton(f, *lanes)
        assert str(two.value) == str(one.value)

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

    def test_residual_is_scale_free_k2_to_300(self):
        # |pole-free form| / 2k: the raw form's rounding reaches 1.1e-10 at k = 296
        for k in range(2, 301):
            assert all(s.residual <= 1e-12 for s in solve_angle(k))


class TestRestr2:
    def test_known_solution_sets(self):
        assert [s.r for s in solve_restr2(24, 5)] == [7, 12, 17]
        assert [s.r for s in solve_restr2(6, 3)] == [3]
        assert [s.r for s in solve_restr2(5, 2)] == []
        # |rho_2| = 9.0e-11 here: below a float threshold of 1e-9, yet not a root
        assert [s.r for s in solve_restr2(1900, 2)] == []

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
