"""The error contract: bad input raises an EquichordError (exit 3 in the CLI),
never another exception.  Inputs are random and mostly inadmissible."""

import contextlib
import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from equichord import (
    BilliardState,
    DeformedCircle,
    FourierCurveE2,
    Geometry,
    Harmonic,
    TrigPolynomial,
    build_deformed_circle,
    build_e2_curve,
    circulant_spectrum,
    connelly_check,
    construct_2kk,
    construct_inscribed,
    contact_angle_from_c,
    equiangular_family_basis,
    exists_nontrivial,
    export_orbit,
    f_star,
    family_member,
    gutkin_roots,
    invariant_circle_residual,
    lemma_constants,
    solve_restr2,
    validate_partials,
    verify_curve_gutkin,
    verify_gutkin,
)
from equichord.cli import main
from equichord.errors import EquichordError, OutOfRange
from equichord.polygons import regular_polygon

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# near-domain values, boundaries and non-finite values, mixed
NUMBERS = st.one_of(
    st.floats(-4.0, 8.0),
    st.sampled_from([0.0, -0.0, 1e-300, np.pi / 2, np.pi, 2 * np.pi, 1e6, -1e300,
                     np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)
SMALL_INTS = st.integers(-3, 40)
GEOMETRIES = st.sampled_from(list(Geometry))
RADII = st.one_of(st.none(), NUMBERS)
# arrays of any shape up to 10 x 3, and regular polygons moved by up to 0.3 per coordinate
VERTICES = st.one_of(
    st.tuples(st.integers(0, 10), st.integers(1, 3)).flatmap(
        lambda shape: st.lists(NUMBERS, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
        .map(lambda xs: np.reshape(np.asarray(xs, dtype=float), shape))),
    st.integers(3, 12).flatmap(
        lambda n: st.lists(st.floats(-0.3, 0.3), min_size=2 * n, max_size=2 * n)
        .map(lambda xs: regular_polygon(n) + np.reshape(xs, (n, 2)))),
)
HARMONICS = st.lists(st.tuples(st.one_of(st.integers(-2, 9), NUMBERS), NUMBERS, NUMBERS),
                     max_size=3)


def within_contract(fn, *args):
    """fn(*args) returns or raises an EquichordError; anything else fails the test."""
    with contextlib.suppress(EquichordError):
        fn(*args)


class TestLibraryContract:
    @given(SMALL_INTS, SMALL_INTS, st.one_of(NUMBERS, st.lists(NUMBERS, max_size=8)))
    @settings(max_examples=150, deadline=None)
    def test_construct_inscribed(self, n, k, arcs):
        within_contract(construct_inscribed, n, k, arcs)

    @given(st.integers(-2, 12), st.one_of(NUMBERS, st.lists(NUMBERS, max_size=12)))
    @settings(max_examples=150, deadline=None)
    def test_construct_2kk(self, k, params):
        within_contract(construct_2kk, k, params)

    @given(VERTICES, SMALL_INTS, NUMBERS)
    @settings(max_examples=150, deadline=None)
    def test_verify_gutkin(self, vertices, k, tol):
        within_contract(verify_gutkin, vertices, k, tol)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, 0.0, np.inf], ids=["nan", "negative", "zero", "inf"])
    def test_verify_gutkin_tol_must_be_finite_and_positive(self, tol):
        # a NaN, negative or zero tol failed even the regular hexagon, and an
        # infinite one passed any polygon, each without an error
        with pytest.raises(OutOfRange, match=r"^tol must be finite and positive, got "):
            verify_gutkin(regular_polygon(6), 2, tol)

    @given(st.integers(-3, 30), st.integers(-3, 16), st.one_of(st.none(), NUMBERS, st.lists(NUMBERS, max_size=6)))
    @settings(max_examples=150, deadline=None)
    def test_family_member(self, n, k, coefficients):
        within_contract(family_member, n, k, coefficients)

    @given(GEOMETRIES, RADII, NUMBERS)
    @settings(max_examples=300, deadline=None)
    def test_lemma_constants(self, geometry, radius, alpha):
        within_contract(lemma_constants, geometry, radius, alpha)

    @given(GEOMETRIES, RADII, NUMBERS)
    @settings(max_examples=300, deadline=None)
    def test_f_star(self, geometry, radius, alpha):
        within_contract(f_star, geometry, radius, alpha)

    @given(GEOMETRIES, RADII, NUMBERS)
    @settings(max_examples=300, deadline=None)
    def test_contact_angle_from_c(self, geometry, radius, c):
        within_contract(contact_angle_from_c, geometry, radius, c)

    @given(st.integers(-10, 400))
    @settings(max_examples=100, deadline=None)
    def test_gutkin_roots(self, k):
        within_contract(gutkin_roots, k)

    @given(NUMBERS, HARMONICS)
    @settings(max_examples=150, deadline=None)
    def test_fourier_curve_e2(self, c0, harmonics):
        within_contract(lambda: build_e2_curve(FourierCurveE2(c0=c0, harmonics=harmonics)))

    @given(GEOMETRIES, RADII, NUMBERS, HARMONICS, st.one_of(st.none(), NUMBERS))
    @settings(max_examples=150, deadline=None)
    def test_deformed_circle(self, geometry, radius, epsilon, g, alpha):
        """The build, and the constants derived from alpha when first read."""
        def build():
            poly = TrigPolynomial(0.0, tuple(Harmonic(*h) for h in g))
            spec = DeformedCircle(geometry, radius, epsilon, poly, alpha)
            for read in (lambda: build_deformed_circle(spec), lambda: spec.c, lambda: spec.a, lambda: spec.f_star):
                within_contract(read)
        within_contract(build)

    @pytest.mark.parametrize("build", [
        lambda: FourierCurveE2(c0=np.nan),
        lambda: Harmonic(4, np.inf),
        lambda: DeformedCircle(Geometry.SPHERICAL, 1.0, np.nan, TrigPolynomial(), 1.0),
        lambda: family_member(24, 5, [np.nan, 1.0, 1.0]),
        lambda: construct_2kk(3, [np.nan]),
    ], ids=["c0", "amp", "epsilon", "coefficients", "free-params"])
    def test_non_finite_input_is_out_of_range(self, build):
        with pytest.raises(OutOfRange, match="finite"):
            build()

    @pytest.mark.parametrize("k", [4.7, -1, 2**53, 10**400, np.nan, np.inf],
                             ids=["fraction", "negative", "2^53", "10^400", "nan", "inf"])
    def test_harmonic_order_out_of_range(self, k):
        with pytest.raises(OutOfRange, match="harmonic order"):
            Harmonic(k, 0.1)

    @pytest.mark.parametrize("n_steps, n_starts", [(0, 16), (100, 0), (100, -3), (-1, 4)])
    def test_billiard_check_without_chords(self, flower_curve, alpha4, n_steps, n_starts):
        # a drift taken over no chord reads 0.0, so the check would pass vacuously
        with pytest.raises(OutOfRange, match=r"(step|start) count must be an integer >= 1, got -?\d+$"):
            invariant_circle_residual(flower_curve, alpha4, n_steps=n_steps, n_starts=n_starts)

    @pytest.mark.parametrize("count", [np.nan, np.inf, 2.7], ids=["nan", "inf", "fraction"])
    @pytest.mark.parametrize("call", [
        lambda curve, alpha, n: verify_curve_gutkin(curve, alpha, n_samples=n),
        lambda curve, alpha, n: invariant_circle_residual(curve, alpha, n_steps=n, n_starts=4),
        lambda curve, alpha, n: invariant_circle_residual(curve, alpha, n_steps=3, n_starts=n),
        lambda curve, alpha, n: export_orbit(curve, BilliardState(0.0, alpha), n),
        lambda curve, alpha, n: validate_partials(curve, samples=n),
        lambda curve, alpha, n: gutkin_roots(n),
        lambda curve, alpha, n: solve_restr2(24, n),
        lambda curve, alpha, n: connelly_check(24, 5, n),
        lambda curve, alpha, n: circulant_spectrum(n, 5),
        lambda curve, alpha, n: circulant_spectrum(24, n),
        lambda curve, alpha, n: equiangular_family_basis(n, 5),
        lambda curve, alpha, n: exists_nontrivial(24, n),
        lambda curve, alpha, n: verify_gutkin(regular_polygon(8), n),
        lambda curve, alpha, n: construct_2kk(n, [1.0]),
        lambda curve, alpha, n: construct_inscribed(n, 5, [0.1, 0.2]),
    ], ids=["verify_curve_gutkin", "invariant_circle_residual steps",
            "invariant_circle_residual starts", "export_orbit", "validate_partials",
            "gutkin_roots", "solve_restr2", "connelly_check", "circulant_spectrum n",
            "circulant_spectrum k", "equiangular_family_basis", "exists_nontrivial",
            "verify_gutkin", "construct_2kk", "construct_inscribed"])
    def test_count_must_be_an_integer(self, flower_curve, alpha4, call, count):
        # int() raised ValueError on NaN and OverflowError on inf, and ran 2.7 as 2
        with pytest.raises(OutOfRange, match="must be an integer"):
            call(flower_curve, alpha4, count)

    @pytest.mark.parametrize("call, least, got", [
        (lambda curve, alpha: validate_partials(curve, samples=2, seed=None), 0, "None"),
        (lambda curve, alpha: verify_curve_gutkin(curve, alpha, "band"), 1, "'band'"),
    ], ids=["validate_partials seed", "verify_curve_gutkin"])
    def test_count_that_is_no_number(self, flower_curve, alpha4, call, least, got):
        # int(None) raised a bare TypeError, outside the error contract; a sample
        # count's default is None, and a string is no count
        with pytest.raises(OutOfRange, match=f"must be an integer >= {least}, got {got}$"):
            call(flower_curve, alpha4)

    def test_integral_float_count_passes(self, flower_curve, alpha4):
        assert verify_curve_gutkin(flower_curve, alpha4, 3.0)["n_samples"] == 3
        assert validate_partials(flower_curve, samples=3.0) == validate_partials(flower_curve, samples=3)
        assert len(export_orbit(flower_curve, BilliardState(0.0, alpha4), 2.0)) == 2

    def test_negative_orbit_length(self, flower_curve, alpha4):
        with pytest.raises(OutOfRange, match="step count must be an integer >= 0, got -1$"):
            export_orbit(flower_curve, BilliardState(0.0, alpha4), -1)
        assert export_orbit(flower_curve, BilliardState(0.0, alpha4), 0) == []


# ---------------------------------------------------------------------------
# CLI: malformed spec and polygon files exit 3 with a single error line

E2_SPEC = {"geometry": "euclidean", "c0": 1.0,
           "harmonics": [{"k": 4, "amp": 0.1, "phase": 0.0}], "alpha": "auto-k4"}
S2_SPEC = {"geometry": "spherical", "R": 1.0, "epsilon": 0.001,
           "g": [{"k": 4, "amp": 1.0, "phase": 0.0}], "alpha": "auto-k4"}
GEOMETRY_TAGS = {"euclidean", "E2", "spherical", "S2", "hyperbolic", "H2"}
POLYGON = {"n": 4, "k": 2, "vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]}

NOT_A_NUMBER = st.one_of(st.none(), st.text(st.characters(categories=["L"]), min_size=1),
                         st.lists(st.integers(), max_size=2), st.dictionaries(st.text(), st.integers(), max_size=2))
NOT_AN_ORDER = st.one_of(st.floats(2.0, 9.0).filter(lambda x: not x.is_integer()),
                         st.sampled_from([2**53, 2**63, 10**400]))
NOT_HARMONICS = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.text(min_size=1), st.none(),
    st.dictionaries(st.sampled_from(["k", "amp", "phase"]), st.integers(2, 5), min_size=1),
    st.lists(st.one_of(st.integers(), st.text(), st.lists(st.integers(), max_size=3)), min_size=1, max_size=3),
    st.lists(st.fixed_dictionaries({"k": st.integers(2, 6)}), min_size=1, max_size=2),
    st.lists(st.fixed_dictionaries({"k": NOT_A_NUMBER, "amp": st.floats(0, 0.01)}), min_size=1, max_size=2),
    # a fractional order is not truncated, and an order past 2^53 (or past float range) is refused
    st.lists(st.fixed_dictionaries({"k": NOT_AN_ORDER, "amp": st.floats(0, 0.01)}), min_size=1, max_size=2),
)


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


NOT_ALPHA = st.one_of(st.lists(st.floats(), max_size=2), st.dictionaries(st.text(), st.integers(), max_size=2),
                      st.text(st.characters(categories=["L"]), min_size=1).filter(lambda t: not _is_float(t)),
                      st.text(st.characters(categories=["L", "P"]), max_size=4).map("auto-k{}".format),
                      # a contact angle outside (0, pi), NaN included
                      st.floats().filter(lambda a: not 0.0 < a < np.pi))
NOT_AN_OBJECT = st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.text(), st.none(), st.booleans())


def _spec_faults(base, list_key):
    numeric = [k for k in ("c0", "R", "epsilon") if k in base]
    required = [k for k in ("c0", "R") if k in base]
    return st.one_of(
        st.tuples(st.sampled_from(numeric), NOT_A_NUMBER),
        st.tuples(st.just(list_key), NOT_HARMONICS),
        st.tuples(st.just("alpha"), NOT_ALPHA),
        st.tuples(st.just("geometry"), st.one_of(st.text(max_size=5).filter(lambda t: t not in GEOMETRY_TAGS),
                                                 st.integers(), st.lists(st.text(), max_size=2))),
        st.tuples(st.sampled_from(required), st.just(KeyError)),
    )


def _apply(base, fault):
    key, value = fault
    data = dict(base)
    if value is KeyError:
        del data[key]
    else:
        data[key] = value
    return data


MALFORMED_SPECS = st.one_of(
    _spec_faults(E2_SPEC, "harmonics").map(lambda f: _apply(E2_SPEC, f)),
    _spec_faults(S2_SPEC, "g").map(lambda f: _apply(S2_SPEC, f)),
    NOT_AN_OBJECT,
)
MALFORMED_POLYGONS = st.one_of(
    st.tuples(st.just("vertices"), st.one_of(
        NOT_A_NUMBER, st.lists(st.lists(st.floats(-1, 1), min_size=1, max_size=4), min_size=1, max_size=6)
        .filter(lambda v: len({len(p) for p in v}) > 1 or len(v[0]) != 2 or len(v) < 3),
        st.lists(st.lists(st.text(st.characters(categories=["L"]), min_size=1), min_size=2, max_size=2),
                 min_size=3, max_size=4))).map(lambda f: _apply(POLYGON, f)),
    st.tuples(st.just("k"), st.one_of(NOT_A_NUMBER, st.floats(2.0, 3.0).filter(lambda x: not x.is_integer())))
    .map(lambda f: _apply(POLYGON, f)),
    st.sampled_from(["vertices", "k"]).map(lambda key: _apply(POLYGON, (key, KeyError))),
    NOT_AN_OBJECT,
)


def _exit_3_one_line(result):
    assert result.exit_code == 3, (result.exit_code, result.output, result.exception)
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.output


class TestCliContract:
    @pytest.mark.parametrize("command", [["curve", "build"], ["curve", "verify"]])
    @pytest.mark.parametrize("spec", [
        dict(E2_SPEC, harmonics=5),
        [E2_SPEC],
        dict(S2_SPEC, g={"k": 4}),
        dict(E2_SPEC, alpha=[1]),
        dict(E2_SPEC, harmonics=[{"k": 4.7, "amp": 0.1}]),
        dict(E2_SPEC, harmonics=[{"k": 10**400, "amp": 0.1}]),
        dict(E2_SPEC, alpha=5.0),
        dict(E2_SPEC, alpha=0.0),
        dict(E2_SPEC, alpha="inf"),
        dict(E2_SPEC, alpha="nan"),
    ], ids=["harmonics-int", "top-level-list", "g-object", "alpha-list", "k-fraction", "k-huge",
            "alpha-5", "alpha-0", "alpha-inf", "alpha-nan"])
    def test_malformed_specs_named(self, tmp_path, command, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        _exit_3_one_line(CliRunner().invoke(main, command + ["--spec", str(path)]))

    @given(MALFORMED_SPECS, st.sampled_from(["build", "verify"]))
    @settings(max_examples=120, deadline=None)
    def test_random_malformed_spec(self, tmp_path_factory, spec, command):
        path = tmp_path_factory.mktemp("spec") / "spec.json"
        path.write_text(json.dumps(spec))
        _exit_3_one_line(CliRunner().invoke(main, ["curve", command, "--spec", str(path)]))

    @given(MALFORMED_POLYGONS)
    @settings(max_examples=120, deadline=None)
    def test_random_malformed_polygon(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("polygon") / "polygon.json"
        path.write_text(json.dumps(data))
        _exit_3_one_line(CliRunner().invoke(main, ["polygon", "verify", "--in", str(path)]))

    @pytest.mark.parametrize("args", [
        ["polygon", "construct", "--n", "6", "--k", "3", "--arcs", "1,x"],
        ["polygon", "construct", "--n", "6", "--k", "3", "--params", "0.5,x"],
        ["polygon", "family", "--n", "12", "--k", "4", "--coeffs", "nope"],
    ])
    def test_malformed_options(self, args):
        _exit_3_one_line(CliRunner().invoke(main, args))

    @pytest.mark.parametrize("args", [
        ["chords", "validate", "--circle", "S2", "--radius", "0.9", "--samples", "0"],
    ], ids=["no samples"])
    def test_bad_partials_options(self, args):
        _exit_3_one_line(CliRunner().invoke(main, args))

    def test_partials_step_is_no_option(self):
        """The stencil's step follows the curve; --step is a usage error."""
        result = CliRunner().invoke(main, ["chords", "validate", "--circle", "S2", "--radius", "0.9",
                                           "--step", "1e-3"])
        assert result.exit_code == 2
        assert "No such option '--step'" in result.stderr

    def test_verify_without_samples(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(E2_SPEC))
        _exit_3_one_line(CliRunner().invoke(main, ["curve", "verify", "--spec", str(path),
                                                   "--samples", "0"]))

    def test_overflowing_h2_radius(self):
        """R = 400 is past the hyperboloid's bound, so the circle is refused when
        it is built."""
        _exit_3_one_line(CliRunner().invoke(main, ["chords", "validate", "--circle", "H2",
                                                   "--radius", "400", "--samples", "2"]))

    def test_internal_fault_is_not_a_domain_error(self, monkeypatch):
        """A bug surfaces as itself (exit 1), not as exit 3."""
        def broken(*args, **kwargs):
            raise ValueError("a programming error")
        monkeypatch.setattr("equichord.angles.gutkin_roots", broken)
        result = CliRunner().invoke(main, ["solve-angle", "--k", "4"])
        assert result.exit_code == 1
        assert isinstance(result.exception, ValueError)
