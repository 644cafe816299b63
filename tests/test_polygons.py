import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from equichord import (
    circulant_spectrum,
    connelly_check,
    construct_2kk,
    construct_inscribed,
    equiangular_family_basis,
    exists_nontrivial,
    family_member,
    polygon_from_sides,
    solve_restr2,
    verify_gutkin,
)
from equichord.angles import _restr2_roots
from equichord.cli import main
from equichord.errors import Infeasible, NotAdmissible, OutOfRange
from equichord.polygons import as_gutkin_polygon, regular_polygon
from oracles import (
    angle_periodicity_check,
    beta_sum_check,
    contact_angle,
    direct_circulant_spectrum,
    float_restr2_roots,
    float_zero_set,
    interior_angles,
    normalize_similarity,
    vertex_angles,
)


class TestVerify:
    def test_regular_polygons(self):
        for n in (4, 5, 7, 9):
            for k in range(2, n - 1):
                rep = verify_gutkin(regular_polygon(n), k)
                assert rep["is_gutkin"]
                assert rep["alpha_measured"] == pytest.approx(contact_angle(n, k), abs=1e-12)

    def test_rectangle_k2_not_gutkin(self):
        rect = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        assert not verify_gutkin(rect, 2)["is_gutkin"]

    @pytest.mark.parametrize("n", [1000, 10000, 100000])
    def test_alpha_accurate_near_0_and_pi(self, n):
        # the arccos of a cosine is off by about eps / sin(alpha); at
        # (100000, 2) its mean read 6.6e-9 relative
        v = regular_polygon(n)
        for k in (2, 3, n - 1):
            alpha = contact_angle(n, k)
            assert abs(verify_gutkin(v, k)["alpha_measured"] - alpha) <= 1e-14 * alpha

    @pytest.mark.parametrize("n, k", [(5, 2), (2001, 1000), (50001, 25000), (50000, 24999)])
    def test_betas_accurate_near_0(self, n, k):
        # the arccos form read 2.3e-12 at (50000, 24999)
        betas = verify_gutkin(regular_polygon(n), k)["beta_angles"]
        assert np.abs(betas - abs(np.pi - 2 * np.pi * k / n)).max() <= 1e-13

    def test_regular_polygon_needs_an_integer_of_at_least_3(self):
        """regular_polygon(3.7) once returned 4 points that were no regular polygon."""
        assert np.array_equal(regular_polygon(5.0), regular_polygon(5))
        with pytest.raises(OutOfRange, match="vertex count must be an integer >= 3, got 3.7"):
            regular_polygon(3.7)
        for n in (2, 0, -3):
            with pytest.raises(OutOfRange, match=f"vertex count must be an integer >= 3, got {n}$"):
                regular_polygon(n)

    def test_clockwise_vertices_rejected(self):
        with pytest.raises(OutOfRange, match="vertices are clockwise"):
            verify_gutkin(regular_polygon(6)[::-1], 2)

    def test_rectangle_k3_gutkin(self):
        # k = n - 1: the "diagonals" are the sides, every rectangle qualifies
        rect = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        rep = verify_gutkin(rect, 3)
        assert rep["is_gutkin"]
        assert rep["alpha_measured"] == pytest.approx(np.pi / 2, abs=1e-12)


class TestSpectrum:
    def test_hand_derived_6_3(self):
        # lambda_r = i sqrt(3) (omega^{2r} - 1), zero exactly at r in {0, 3}
        spec = circulant_spectrum(6, 3)
        assert spec.zero_set == (0, 3)
        assert spec.M == 1
        omega = np.exp(2j * np.pi / 6)
        for r in range(6):
            expect = 1j * np.sqrt(3.0) * (omega ** (2 * r) - 1)
            assert abs(spec.eigenvalues[r] - expect) < 1e-12

    def test_24_5_includes_half_mode(self):
        spec = circulant_spectrum(24, 5)
        assert spec.zero_set == (0, 7, 12, 17)
        assert spec.M == 3

    def test_no_solutions_5_2(self):
        spec = circulant_spectrum(5, 2)
        assert spec.zero_set == (0,)
        assert spec.M == 0

    def test_5742_101_has_only_the_half_mode(self):
        # a float zero test admitted r = 2473 and 3269 too, where
        # lambda_r = 3.4e-11 is 3.1e-10 of the row scale but not zero
        spec = circulant_spectrum(5742, 101)
        assert spec.zero_set == (0, 2871)
        assert spec.M == 1
        assert [s.r for s in solve_restr2(5742, 101)] == [2871]
        assert len(equiangular_family_basis(5742, 101)) == 1

    def test_sweep_matches_restr2_and_connelly(self):
        for n in range(5, 61):
            for k in range(2, n // 2 + 1):
                spec = circulant_spectrum(n, k)
                rs = [s.r for s in solve_restr2(n, k)]
                assert sorted(set(spec.zero_set) - {0}) == rs, (n, k)
                if k < n / 2:
                    below = {r for r in spec.zero_set if 1 < r < n / 2}
                    arith = {r for r in range(2, (n - 1) // 2 + 1)
                             if connelly_check(n, k, r)}
                    assert below == arith, (n, k)

    def test_exists_nontrivial_criterion(self):
        for n in range(5, 31):
            for k in range(2, n // 2 + 1):
                expect = (k >= 3) if n == 2 * k else (math.gcd(n, k - 1) > 1)
                assert exists_nontrivial(n, k) == expect

    def test_8_4_family_despite_coprimality(self):
        # gcd(8, 3) = 1 yet nontrivial (8,4)-gons exist: n = 2k is special
        assert math.gcd(8, 3) == 1
        p = construct_2kk(4, [0.3, 0.5])
        assert verify_gutkin(p.vertices, 4, tol=1e-8)["is_gutkin"]
        assert circulant_spectrum(8, 4).M == 2


def direct_sum_margin(n, k):
    """Compare circulant_spectrum(n, k) with the direct-sum oracle and return
    the smallest |lambda_r| / scale over the nonzero lanes."""
    spec = circulant_spectrum(n, k)
    lam, zero_set, scale = direct_circulant_spectrum(n, k)
    assert spec.zero_set == zero_set, (n, k)
    assert spec.M == sum(1 for r in zero_set if 2 <= r <= n - 2), (n, k)
    gap = np.abs(spec.eigenvalues - lam).max()
    assert gap <= 1e-12 * max(1.0, np.abs(lam).max()), (n, k, gap)
    return np.delete(np.abs(spec.eigenvalues) / scale, list(zero_set)).min()


_rng = np.random.default_rng(7)
# seeded large pairs, plus (325, 43) and (325, 102): the smallest nonzero
# |lambda_r| / scale of all 27,829 pairs with 220 <= n <= 400 (1.9e-7, 3.9e-7)
LARGE_PAIRS = sorted({(int(n), int(_rng.integers(2, n // 2 + 1)))
                      for n in _rng.integers(220, 401, size=120)} | {(325, 43), (325, 102)})


class TestClosedFormSpectrum:
    def test_every_pair_up_to_120_matches_the_direct_sum(self):
        margin = min(direct_sum_margin(n, k) for n in range(4, 121) for k in range(2, n // 2 + 1))
        # nonzero lanes stay far from the 1e-9 zero threshold
        assert margin >= 1e-6

    def test_seeded_large_pairs_match_the_direct_sum(self):
        for n, k in LARGE_PAIRS:
            # near n = 400 a few nonzero lanes come within 2e-7 of zero; they
            # stay two decades above the threshold, and the arithmetic
            # characterization confirms they are not zeros
            assert direct_sum_margin(n, k) >= 1e-7, (n, k)
            if k < n / 2:
                below = {r for r in circulant_spectrum(n, k).zero_set if 1 < r < n / 2}
                assert below == {r for r in range(2, (n - 1) // 2 + 1)
                                 if connelly_check(n, k, r)}, (n, k)

    @given(st.integers(4, 400).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n // 2))))
    @settings(max_examples=80, deadline=None)
    def test_zero_lanes_are_the_restr2_roots(self, nk):
        # product-to-sum turns the restr2 residual rho_r into
        # lambda_r sin((r+1) pi/n) sin((r-1) pi/n) = -2 omega^{m r} rho_r,
        # whose sine factor does not vanish for 2 <= r <= n - 2
        n, k = nk
        spec = circulant_spectrum(n, k)
        x = np.pi / n
        r = np.arange(2, n - 1)
        a, c = k * r * x, k * x
        rho = (np.sin(a) * np.sin(x) * np.cos(c) * np.cos(r * x)
               - np.sin(c) * np.sin(r * x) * np.cos(a) * np.cos(x))
        lhs = spec.eigenvalues[2:n - 1] * np.sin((r + 1) * x) * np.sin((r - 1) * x)
        twist = np.exp(1j * np.pi * (k - 1) * r / n)
        lam_max = max(1.0, np.abs(spec.eigenvalues).max())
        assert np.abs(lhs + 2 * twist * rho).max() <= 1e-13 * lam_max
        roots = solve_restr2(n, k)
        assert [s.r for s in roots] == [z for z in spec.zero_set if z != 0]
        assert len(roots) == spec.M


@st.composite
def rule_pairs(draw, max_n):
    """(n, k) with 4 <= n <= max_n, drawn from each clause of the integer zero
    rule: any k, n = 2k, and a Connelly pair (n, k, n/2 - k)."""
    n = draw(st.integers(4, max_n))
    clause = draw(st.sampled_from(["any", "n = 2k", "Connelly"]))
    if clause == "any":
        return n, draw(st.integers(2, n // 2))
    n -= n % 2
    if clause == "n = 2k":
        return n, n // 2
    ks = [k for k in range(2, n // 2 - 1) if connelly_check(n, k, n // 2 - k)]
    assume(ks)
    return n, draw(st.sampled_from(ks))


class TestIntegerZeroSet:
    @given(rule_pairs(10_000))
    @settings(max_examples=100, deadline=None)
    def test_rule_roots_are_zeros_up_to_10000(self, nk):
        n, k = nk
        lam = np.abs(circulant_spectrum(n, k).eigenvalues)
        scale = 2 * np.sin(np.pi * (k - 1) / n)  # max |row_nu|, at nu = 0
        assert lam[[0, *_restr2_roots(n, k)]].max() <= 1e-12 * scale, (n, k)
        # lambda_0 = D_k(1) - D_k(-1) is 0 exactly; |D_k(2)| < k keeps
        # lambda_1 = omega^m (D_k(2) - k) and lambda_{n-1} off zero
        assert lam[0] == 0 and lam[1] > 0 and lam[-1] > 0

    @given(rule_pairs(400))
    @settings(max_examples=100, deadline=None)
    def test_rule_equals_the_float_tests_up_to_400(self, nk):
        n, k = nk
        roots = _restr2_roots(n, k)
        _, direct_zeros, scale = direct_circulant_spectrum(n, k)
        assert float_zero_set(circulant_spectrum(n, k).eigenvalues, scale) == direct_zeros == (0, *roots)
        assert float_restr2_roots(n, k) == roots


class TestFamily:
    def test_basis_dimension_2kk(self):
        for k in (3, 4, 5):
            assert len(equiangular_family_basis(2 * k, k)) == k - 2

    def test_members_are_gutkin(self):
        basis = equiangular_family_basis(24, 5)
        assert len(basis) == 3
        for i in range(3):
            sides = family_member(24, 5, [0.3 if j == i else 0.0 for j in range(3)])
            assert sides.min() > 0
            rep = verify_gutkin(polygon_from_sides(sides), 5, tol=1e-8)
            assert rep["is_gutkin"]

    def test_zero_coefficients_infeasible(self):
        with pytest.raises(Infeasible, match="degenerate kernel direction"):
            family_member(24, 5, [0, 0, 0])

    def test_default_member_positive(self):
        sides = family_member(6, 3)
        assert sides.min() > 0
        assert verify_gutkin(polygon_from_sides(sides), 3, tol=1e-8)["is_gutkin"]

    def test_no_equiangular_family_for_12_4(self):
        # nontrivial (12,4)-gons exist (inscribed) but none are equiangular
        assert equiangular_family_basis(12, 4) == []
        with pytest.raises(Infeasible):
            family_member(12, 4)


class TestConstruct2kk:
    def test_side_pattern(self):
        p = construct_2kk(3, [0.3])
        assert p.alpha == pytest.approx(np.pi / 3, abs=1e-12)
        sides = np.linalg.norm(np.roll(p.vertices, -1, axis=0) - p.vertices, axis=1)
        assert sides[0] == pytest.approx(0.3, abs=1e-12)
        assert sides[1] == pytest.approx(0.7, abs=1e-12)
        # main diagonals all have unit length
        for i in range(3):
            d = np.linalg.norm(p.vertices[i + 3] - p.vertices[i])
            assert d == pytest.approx(1.0, abs=1e-10)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            construct_2kk(3, [1.2])

    def test_beta_undefined(self):
        p = construct_2kk(3, [0.3])
        with pytest.raises(OutOfRange, match="beta angles do not exist"):
            beta_sum_check(p)


class TestConstructInscribed:
    def test_hexagon(self):
        p = construct_inscribed(6, 3, [0.8, 2 * np.pi / 3 - 0.8])
        assert p.alpha == pytest.approx(np.pi / 3, abs=1e-10)
        assert angle_periodicity_check(p)

    def test_12_4(self):
        w = np.array([0.4, 0.6, 1.0])
        p = construct_inscribed(12, 4, w / w.sum() * 2 * np.pi / 4)
        assert p.alpha == pytest.approx(contact_angle(12, 4), abs=1e-10)
        assert beta_sum_check(p) < 1e-9
        assert angle_periodicity_check(p)

    def test_coprime_rejected(self):
        with pytest.raises(OutOfRange, match="only regular polygons exist"):
            construct_inscribed(7, 2, [1.0])

    def test_arcs_must_sum_to_the_period(self):
        # gcd(12, 3) = 3 arcs summing to 2 pi 3/12 = pi/2, not 2.5
        with pytest.raises(OutOfRange, match="arcs must sum to 2 pi / 4"):
            construct_inscribed(12, 4, [1.0, 1.0, 0.5])

    def test_nonregular(self):
        p = construct_inscribed(6, 3, [0.8, 2 * np.pi / 3 - 0.8])
        sides = np.linalg.norm(np.roll(p.vertices, -1, axis=0) - p.vertices, axis=1)
        assert sides.std() > 1e-3


class TestNormalize:
    def test_canonical_frame(self):
        p = normalize_similarity(construct_2kk(3, [0.3]))
        assert np.allclose(p.vertices[0], [0.0, 0.0], atol=1e-12)
        d = np.linalg.norm(p.vertices[3] - p.vertices[0])
        assert d == pytest.approx(1.0, abs=1e-12)


class TestRangeChecks:
    def test_contact_angle_formula(self):
        assert contact_angle(24, 5) == pytest.approx(np.pi * 4 / 24, abs=1e-15)
        with pytest.raises(OutOfRange):
            contact_angle(6, 1)

    def test_spectral_range(self):
        with pytest.raises(OutOfRange):
            circulant_spectrum(10, 6)

    @given(st.integers(min_value=5, max_value=24))
    @settings(max_examples=20, deadline=None)
    def test_verify_alpha_matches_formula(self, n):
        v = regular_polygon(n)
        for k in range(2, n // 2 + 1):
            rep = verify_gutkin(v, k)
            assert rep["alpha_measured"] == pytest.approx(contact_angle(n, k), abs=1e-10)

    def test_as_gutkin_polygon_rejects(self):
        rect = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotAdmissible):
            as_gutkin_polygon(rect, 2)


# ---------------------------------------------------------------------------
# properties over random admissible (n, k), 2 <= k <= n/2, n <= 60


def real_circulant(n, k):
    """S[i, i + nu] = 2 sin(2 pi (nu - m) / n) for nu < k, m = (k - 1) / 2,
    built entry by entry; the constraint matrix is i S."""
    m = (k - 1) / 2.0
    S = np.zeros((n, n))
    for i in range(n):
        for nu in range(k):
            S[i, (i + nu) % n] = 2.0 * np.sin(2 * np.pi * (nu - m) / n)
    return S


def atan2_angle(a, b, c):
    """Unsigned angle at b between rays b->a and b->c, one vertex at a time,
    by the formula verify_gutkin measures with."""
    u, w = a - b, c - b
    return float(np.arctan2(abs(u[0] * w[1] - u[1] * w[0]), u[0] * w[0] + u[1] * w[1]))


@st.composite
def spectral_pairs(draw):
    n = draw(st.integers(4, 60))
    return n, draw(st.integers(2, n // 2))


# (n, k) whose equiangular family is nontrivial, by the rank of the test's own S
FAMILY_PAIRS = [(n, k) for n in range(4, 61) for k in range(2, n // 2 + 1)
                if n - np.linalg.matrix_rank(real_circulant(n, k)) - 1 > 0]


@st.composite
def inscribed_polygons(draw):
    """(n, k, arcs) for construct_inscribed: gcd(n, k - 1) > 1, positive arcs."""
    n, k = draw(spectral_pairs().filter(lambda nk: math.gcd(nk[0], nk[1] - 1) > 1))
    p = math.gcd(n, k - 1)
    w = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=p, max_size=p)))
    return n, k, w / w.sum() * 2 * np.pi * p / n


class TestSpectralProperties:
    @given(spectral_pairs())
    @settings(max_examples=60, deadline=None)
    def test_zero_set_symmetric(self, nk):
        n, k = nk
        zs = set(circulant_spectrum(n, k).zero_set)
        assert zs == {(n - r) % n for r in zs}

    @given(spectral_pairs())
    @settings(max_examples=60, deadline=None)
    def test_basis_spans_the_kernel(self, nk):
        n, k = nk
        S = real_circulant(n, k)
        basis = equiangular_family_basis(n, k)
        assert len(basis) == circulant_spectrum(n, k).M == n - np.linalg.matrix_rank(S) - 1
        if not basis:
            return
        b = np.array(basis)
        assert np.abs(b @ b.T - np.eye(len(b))).max() < 1e-12
        assert np.abs(b.sum(axis=1)).max() < 1e-12
        assert np.abs(S @ b.T).max() < 1e-12

    @given(st.sampled_from(FAMILY_PAIRS), st.data())
    @settings(max_examples=40, deadline=None)
    def test_family_members_close_and_are_gutkin(self, nk, data):
        n, k = nk
        dim = len(equiangular_family_basis(n, k))
        coeffs = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim)
                           .filter(lambda c: np.linalg.norm(c) > 0.1))
        sides = family_member(n, k, coeffs)
        assert sides.min() > 0
        assert abs(np.sum(sides * np.exp(2j * np.pi * np.arange(n) / n))) < 1e-12 * n
        rep = verify_gutkin(polygon_from_sides(sides), k, tol=1e-8)
        assert rep["is_gutkin"]
        assert rep["alpha_measured"] == pytest.approx(contact_angle(n, k), abs=1e-9)

    @given(inscribed_polygons())
    @settings(max_examples=60, deadline=None)
    def test_inscribed_angles_match_the_vertex_loop(self, case):
        n, k, arcs = case
        p = construct_inscribed(n, k, arcs)
        assert p.alpha == pytest.approx(np.pi * (k - 1) / n, abs=1e-10)
        rep = verify_gutkin(p.vertices, k)
        contact, betas, interior = vertex_angles(p.vertices, k, atan2_angle)
        # the array routine rounds each cross and dot product as the loop
        # does, and the signs it drops from the literal rays are exact
        assert rep["alpha_measured"] == contact.mean()
        assert rep["max_residual"] == np.abs(contact - contact.mean()).max()
        if n == 2 * k:
            assert rep["beta_angles"] is None
        else:
            assert np.array_equal(rep["beta_angles"], betas)
        assert np.array_equal(interior_angles(p.vertices), interior)

    @given(inscribed_polygons())
    @settings(max_examples=60, deadline=None)
    def test_inscribed_angles_match_the_arccos_oracle(self, case):
        n, k, arcs = case
        v = construct_inscribed(n, k, arcs).vertices
        rep = verify_gutkin(v, k)
        contact, betas, interior = vertex_angles(v, k)
        assert abs(rep["alpha_measured"] - contact.mean()) < 1e-12
        assert abs(rep["max_residual"] - np.abs(contact - contact.mean()).max()) < 1e-12
        if n != 2 * k:
            assert np.abs(rep["beta_angles"] - betas).max() < 1e-12
        assert np.abs(interior_angles(v) - interior).max() < 1e-12

    @given(inscribed_polygons())
    @settings(max_examples=8, deadline=None)
    def test_cli_construct_then_verify(self, tmp_path_factory, case):
        n, k, arcs = case
        path = tmp_path_factory.mktemp("polygon") / "polygon.json"
        runner = CliRunner()
        made = runner.invoke(main, ["polygon", "construct", "--n", str(n), "--k", str(k),
                                    "--arcs", ",".join(repr(float(a)) for a in arcs),
                                    "--out", str(path)])
        assert made.exit_code == 0, made.output
        checked = runner.invoke(main, ["polygon", "verify", "--in", str(path)])
        assert checked.exit_code == 0, checked.output
        rep = json.loads(checked.output)
        assert rep["is_gutkin"] and (rep["n"], rep["k"]) == (n, k)
        assert rep["alpha"] == pytest.approx(np.pi * (k - 1) / n, abs=1e-10)
