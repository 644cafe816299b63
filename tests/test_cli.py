import json
import pathlib
import re
import shlex
import subprocess
import sys

import click
import numpy as np
import pytest
from click.testing import CliRunner

import equichord
from equichord import FourierCurveE2, Harmonic, build_e2_curve, polygons
from equichord.cli import _CURVATURE_SAMPLES, _polygon_svg, _svg_document, main, to_json

E2_SPEC = {"geometry": "euclidean", "c0": 1.0,
           "harmonics": [{"k": 4, "amp": 0.1, "phase": 0.0}],
           "alpha": "auto-k4"}
S2_SPEC = {"geometry": "spherical", "R": 1.0471975511965976, "epsilon": 0.001,
           "g": [{"k": 4, "amp": 1.0, "phase": 0.0}], "alpha": "auto-k4"}
H2_SPEC = {"geometry": "hyperbolic", "R": 0.9, "epsilon": 0.002,
           "g": [{"k": 5, "amp": 1.0, "phase": 0.4}], "alpha": "auto-k5"}
RECTANGLE = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [0.0, 1.0]]
# H2 specs whose largest radius passes the hyperboloid's bound, about 14.16
H2_BEYOND_BOUND = [
    {"geometry": "hyperbolic", "R": 19.0, "epsilon": 0.0, "alpha": np.pi / 2},
    {"geometry": "hyperbolic", "R": 30.0, "epsilon": 0.0, "alpha": np.pi / 2},
    {"geometry": "hyperbolic", "R": 30.0, "epsilon": 0.0, "alpha": 1.0},
    {"geometry": "hyperbolic", "R": 30.0, "epsilon": 0.0},
    {"geometry": "hyperbolic", "R": 400.0, "epsilon": 0.01, "g": [{"k": 4, "amp": 1.0}], "alpha": 1.0},
]
# the one stderr line that refuses them, and every H2 circle past the bound
H2_BOUND_REFUSAL = (r"error: H2 radius up to \S+ too large: past 14\.1621, cosh\^2 r \+ sinh\^2 r "
                    r"passes 1e12 and the hyperboloid's -<p, p> = 1 cancels\n")


def no_alpha(option):
    """The refusal of a spec without alpha by a command whose angle option is ``option``."""
    return f"error: spec has no alpha; pass {option} or add it to the spec\n"


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


class TestSerializer:
    def test_float_digits(self):
        assert to_json(np.pi) == "3.1415926535897931"

    def test_fixed_key_order(self):
        assert to_json({"b": 1, "a": 2}).index('"b"') < to_json({"b": 1, "a": 2}).index('"a"')

    def test_empty_list(self):
        assert to_json([]) == "[]"


class TestSolveAngle:
    def test_k4_contains_root(self, runner):
        out = run_ok(runner, ["solve-angle", "--k", "4"])
        assert "1.1502619915" in out

    def test_k2_empty(self, runner):
        out = run_ok(runner, ["solve-angle", "--k", "2"])
        assert out.strip() == "[]"

    def test_s2_contact_angle(self, runner):
        out = run_ok(runner, ["solve-angle", "--k", "4", "--geometry", "S2",
                              "--radius", "1.0471975512"])
        assert any(abs(s["alpha"] - 0.8410686705) < 1e-6 for s in json.loads(out))

    def test_usage_error_exit_2(self, runner):
        result = runner.invoke(main, ["solve-angle"])
        assert result.exit_code == 2


class TestPolygonCommands:
    def test_classify_24_5(self, runner):
        out = json.loads(run_ok(runner, ["polygon", "classify", "--n", "24", "--k", "5"]))
        assert out["exists_nontrivial"] is True
        assert out["zero_set"] == [0, 7, 12, 17]
        assert out["M"] == 3
        assert out["restr2_roots"] == [7, 12, 17]

    def test_verify_regular_pentagon(self, runner):
        out = json.loads(run_ok(runner, ["polygon", "verify", "--regular", "5", "--k", "2"]))
        assert out["is_gutkin"] is True
        assert abs(out["alpha"] - 0.6283185307) < 1e-9

    def test_construct_verify_round_trip_via_files(self, runner, tmp_path):
        poly = tmp_path / "rect.json"
        svg = tmp_path / "rect.svg"
        run_ok(runner, ["polygon", "construct", "--n", "4", "--k", "3",
                        "--arcs", "1.0471975512,2.0943951024",
                        "--out", str(poly), "--svg", str(svg)])
        out = json.loads(run_ok(runner, ["polygon", "verify", "--in", str(poly)]))
        assert out["is_gutkin"] is True
        assert abs(out["alpha"] - np.pi / 2) < 1e-9
        body = svg.read_text()
        assert body.startswith('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 800">')
        assert 'stroke="gray"' in body and 'stroke="black"' in body

    def test_family_member_round_trip(self, runner, tmp_path):
        out = json.loads(run_ok(runner, ["polygon", "family", "--n", "24", "--k", "5",
                                         "--coeffs", "0.2,0.1,0.05"]))
        assert out["dimension"] == 3
        poly = tmp_path / "fam.json"
        poly.write_text(json.dumps({"n": 24, "k": 5, "vertices": out["vertices"]}))
        rep = json.loads(run_ok(runner, ["polygon", "verify", "--in", str(poly),
                                         "--tol", "1e-8"]))
        assert rep["is_gutkin"] is True

    def test_construct_2kk_from_params(self, runner):
        out = json.loads(run_ok(runner, ["polygon", "construct", "--n", "8", "--k", "4",
                                         "--params", "0.3,0.4"]))
        p = polygons.construct_2kk(4, [0.3, 0.4])
        assert (out["n"], out["k"], out["alpha"]) == (8, 4, p.alpha)
        assert np.array_equal(out["vertices"], p.vertices)

    def test_family_member_svg(self, runner, tmp_path):
        svg = tmp_path / "fam.svg"
        out = json.loads(run_ok(runner, ["polygon", "family", "--n", "24", "--k", "5",
                                         "--coeffs", "0.2,0.1,0.05", "--svg", str(svg)]))
        body = svg.read_text()
        assert body == _polygon_svg(np.array(out["vertices"]), 5) + "\n"
        assert body.count('stroke="gray"') == 24 and body.count('<polygon fill="none" stroke="black"') == 1

    @pytest.mark.parametrize("args, message", [
        (["construct", "--n", "8", "--k", "3"], "--arcs is required unless n = 2k (then --params)"),
        (["verify"], "exactly one of --in / --regular is required"),
        (["verify", "--regular", "4", "--k", "2", "--in", "{file}"],
         "exactly one of --in / --regular is required"),
        (["verify", "--regular", "5"], "--k is required with --regular"),
    ], ids=["construct without arcs", "verify neither", "verify both", "regular without k"])
    def test_usage_errors(self, runner, write_spec, args, message):
        file = write_spec({"k": 2, "vertices": RECTANGLE})
        result = runner.invoke(main, ["polygon"] + [file if a == "{file}" else a for a in args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == f"Error: {message}"

    def test_polygon_file_k_is_an_integer(self, runner, write_spec):
        """k = 3.0 reads as 3; a fraction or a JSON string is refused by the
        library's integer reader."""
        out = json.loads(run_ok(runner, ["polygon", "verify", "--in",
                                         write_spec({"k": 3.0, "vertices": RECTANGLE})]))
        assert (out["k"], out["is_gutkin"]) == (3, True)
        for k in (2.5, "3"):
            result = runner.invoke(main, ["polygon", "verify", "--in",
                                          write_spec({"k": k, "vertices": RECTANGLE})])
            assert result.exit_code == 3
            assert result.stderr == (f"error: cannot read polygon file field 'k': "
                                     f"k must be an integer, got {k!r}\n")

    def test_classify_and_family_200000_2(self, runner):
        # lambda_1 = -4 sin^2(pi/n) = 9.9e-10 is not zero, though below 1e-9
        out = json.loads(run_ok(runner, ["polygon", "classify", "--n", "200000", "--k", "2"]))
        assert (out["M"], out["zero_set"], out["restr2_roots"]) == (0, [0], [])
        out = json.loads(run_ok(runner, ["polygon", "family", "--n", "200000", "--k", "2"]))
        assert (out["dimension"], out["basis"]) == (0, [])

    def test_domain_error_exit_3(self, runner):
        result = runner.invoke(main, ["polygon", "classify", "--n", "7", "--k", "5"])
        assert result.exit_code == 3

    def test_tol_flag(self, runner):
        out = run_ok(runner, ["polygon", "verify", "--regular", "5", "--k", "2", "--tol", "1e-3"])
        assert '"tol": 0.001' in out

    @pytest.mark.parametrize("tol", ["nan", "-1", "0", "inf"])
    def test_tol_must_be_finite_and_positive(self, runner, write_spec, monkeypatch, tol):
        """Such a tol gave a verdict with exit 0: a NaN, negative or zero one failed
        the regular hexagon, an infinite one passed any polygon.  curve verify
        refuses it before it shoots."""
        def no_shot(*args, **kwargs):
            raise AssertionError("curve verify shot chords before it checked --tol")

        monkeypatch.setattr(equichord.curves, "verify_curve_gutkin", no_shot)
        for args in (["polygon", "verify", "--regular", "6", "--k", "2"],
                     ["curve", "verify", "--spec", write_spec(E2_SPEC)]):
            result = runner.invoke(main, args + ["--tol", tol])
            assert result.exit_code == 3, (result.output, result.exception)
            assert result.stdout == ""
            assert result.stderr.splitlines() == [f"error: tol must be finite and positive, got {float(tol)!r}"]


class TestCurveCommands:
    def test_verify_auto_alpha(self, runner, write_spec):
        path = write_spec(E2_SPEC)
        out = json.loads(run_ok(runner, ["curve", "verify", "--spec", path]))
        assert out["max_angle_residual"] < 1e-8
        assert out["is_gutkin"] is True

    def test_residual_e2(self, runner, write_spec):
        path = write_spec(E2_SPEC)
        out = json.loads(run_ok(runner, ["curve", "residual", "--spec", path,
                                         "--operator", "E2"]))
        assert out["max_residual"] < 1e-12

    def test_residual_negative_control(self, runner, write_spec):
        path = write_spec(E2_SPEC)
        out = json.loads(run_ok(runner, ["curve", "residual", "--spec", path,
                                         "--operator", "E2", "--alpha", "1.0"]))
        assert out["max_residual"] > 1e-2

    def test_residual_s2(self, runner, write_spec):
        path = write_spec(S2_SPEC)
        out = json.loads(run_ok(runner, ["curve", "residual", "--spec", path,
                                         "--operator", "S2"]))
        assert out["max_residual"] < 1e-6

    def test_build_svg(self, runner, write_spec, tmp_path):
        path = write_spec(E2_SPEC)
        svg = tmp_path / "curve.svg"
        out = json.loads(run_ok(runner, ["curve", "build", "--spec", path,
                                         "--svg", str(svg)]))
        assert abs(out["length"] - 2 * np.pi) < 1e-9
        assert svg.read_text().startswith("<svg")

    @pytest.mark.parametrize("spec", [E2_SPEC, S2_SPEC], ids=["E2", "S2"])
    def test_build_svg_is_the_planar_image(self, runner, write_spec, tmp_path, spec):
        """An E2 spec draws the curve itself; an S2/H2 spec the geodesic polar image
        (r cos t, r sin t) of its radius r(t) = R + epsilon g(t), on 512 samples."""
        svg = tmp_path / "curve.svg"
        run_ok(runner, ["curve", "build", "--spec", write_spec(spec), "--svg", str(svg)])
        ts = np.linspace(0.0, 2 * np.pi, 512, endpoint=False)
        if spec is E2_SPEC:
            points = np.asarray(build_e2_curve(FourierCurveE2(1.0, (Harmonic(4, 0.1),))).point(ts))
        else:
            r = spec["R"] + spec["epsilon"] * np.cos(4 * ts)
            points = np.stack([r * np.cos(ts), r * np.sin(ts)], axis=-1)
        assert svg.read_text() == _svg_document([(points, "black", True)]) + "\n"

    def test_auto_alpha_without_roots(self, runner, write_spec):
        result = runner.invoke(main, ["curve", "build", "--spec",
                                      write_spec(dict(E2_SPEC, alpha="auto-k3"))])
        assert result.exit_code == 3
        assert result.stderr == "error: k tan c = tan kc has no roots for k=3\n"

    @pytest.mark.parametrize("spec, operator", [(E2_SPEC, "E2"), (S2_SPEC, "S2"), (H2_SPEC, "H2")],
                             ids=["E2", "S2", "H2"])
    def test_spec_needs_alpha_only_to_shoot(self, runner, write_spec, spec, operator):
        """No curve needs an angle: without alpha a spec of any geometry builds,
        with the same length and curvature and no alpha printed, and validates its
        partials; verify, residual and orbit refuse it, naming their angle option,
        and with the spec's alpha given by that option print what the spec prints."""
        path = write_spec({k: v for k, v in spec.items() if k != "alpha"})
        full = write_spec(spec, "with_alpha.json")
        built = json.loads(run_ok(runner, ["curve", "build", "--spec", path]))
        assert built == {k: v for k, v in json.loads(run_ok(runner, ["curve", "build", "--spec", full])).items()
                         if k != "alpha"}
        run_ok(runner, ["chords", "validate", "--spec", path, "--samples", "2"])
        for args, option in ((["curve", "verify"], "--alpha"),
                             (["curve", "residual", "--operator", operator], "--alpha"),
                             (["billiard", "orbit", "--steps", "1"], "--theta")):
            result = runner.invoke(main, args + ["--spec", path])
            assert result.exit_code == 3, args
            assert (result.stdout, result.stderr) == ("", no_alpha(option)), args
            assert (run_ok(runner, args + ["--spec", path, option, spec["alpha"]])
                    == run_ok(runner, args + ["--spec", full])), args

    @pytest.mark.parametrize("spec, operator", [(E2_SPEC, "S2"), (S2_SPEC, "E2"), (S2_SPEC, "H2")],
                             ids=["E2 spec, S2", "S2 spec, E2", "S2 spec, H2"])
    def test_residual_operator_must_match_the_spec(self, runner, write_spec, spec, operator):
        result = runner.invoke(main, ["curve", "residual", "--spec", write_spec(spec),
                                      "--operator", operator])
        assert result.exit_code == 3
        assert result.stderr == "error: operator geometry must match the spec geometry\n"

    def test_harmonic_order_is_an_integer(self, runner, write_spec):
        """k = 4.0 reads as 4; a fraction or a JSON string is refused by the
        library's integer reader."""
        as_float = dict(E2_SPEC, harmonics=[{"k": 4.0, "amp": 0.1}])
        assert (run_ok(runner, ["curve", "build", "--spec", write_spec(as_float)])
                == run_ok(runner, ["curve", "build", "--spec", write_spec(E2_SPEC)]))
        for k in (4.5, "4"):
            bad = dict(E2_SPEC, harmonics=[{"k": k, "amp": 0.1}])
            result = runner.invoke(main, ["curve", "build", "--spec", write_spec(bad)])
            assert result.exit_code == 3
            assert result.stderr == ("error: cannot read curve spec field 'harmonics': "
                                     f"harmonic order must be an integer, got {k!r}\n")

    def test_first_harmonic_spec_rejected(self, runner, write_spec):
        bad = dict(E2_SPEC, harmonics=[{"k": 1, "amp": 0.1}])
        result = runner.invoke(main, ["curve", "build", "--spec", write_spec(bad)])
        assert result.exit_code == 3

    def test_malformed_spec_exit_3(self, runner, tmp_path, write_spec):
        not_json = tmp_path / "broken.json"
        not_json.write_text('{"geometry": "euclidean", "c0": ')
        no_c0 = {k: v for k, v in E2_SPEC.items() if k != "c0"}
        for path in (str(not_json), write_spec(no_c0)):
            result = runner.invoke(main, ["curve", "build", "--spec", path])
            assert result.exit_code == 3
            assert "error:" in result.output


    def test_bad_counts_are_usage_errors(self, runner, write_spec):
        path = write_spec(E2_SPEC)
        for args in (["curve", "verify", "--spec", path, "--samples", "-1"],
                     ["curve", "residual", "--spec", path, "--operator", "E2", "--grid", "0"],
                     ["billiard", "orbit", "--spec", path, "--steps", "-1"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, result.output

    def test_missing_key_is_named(self, runner, write_spec):
        no_r = {k: v for k, v in S2_SPEC.items() if k != "R"}
        no_c0 = {k: v for k, v in E2_SPEC.items() if k != "c0"}
        no_vertices = {"n": 4, "k": 3}
        cases = [(["curve", "verify", "--spec", write_spec(no_r, "no_r.json")], "curve spec", "R"),
                 (["curve", "build", "--spec", write_spec(no_c0, "no_c0.json")], "curve spec", "c0"),
                 (["polygon", "verify", "--in", write_spec(no_vertices, "no_vertices.json")],
                  "polygon file", "vertices")]
        for args, what, key in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 3
            assert f"error: {what} is missing required key '{key}'" in result.output


class TestBilliardAndChords:
    def test_orbit_zero_steps(self, runner, write_spec):
        out = run_ok(runner, ["billiard", "orbit", "--spec", write_spec(E2_SPEC),
                              "--steps", "0"])
        assert out.strip() == "step,t,theta,chord_length"

    def test_orbit_rows(self, runner, write_spec):
        out = run_ok(runner, ["billiard", "orbit", "--spec", write_spec(E2_SPEC),
                              "--steps", "3"])
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("0,0,1.1502619915109316,")

    def test_orbit_t0_outside_the_period(self, write_spec):
        """A t0 that is not finite is refused before the curve is evaluated, with
        one stderr line and no numpy warning; a finite one is taken mod 2 pi, so a
        huge one still shoots.  Run as real processes, so warnings reach stderr."""
        src = str(pathlib.Path(equichord.__file__).parents[1])
        spec = write_spec(E2_SPEC)
        for t0, code in (("inf", 3), ("-inf", 3), ("nan", 3), ("1e300", 0)):
            proc = subprocess.run(
                [sys.executable, "-m", "equichord.cli", "billiard", "orbit", "--spec", spec,
                 "--t0", t0, "--steps", "3"],
                capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": ""}, timeout=120)
            assert proc.returncode == code, (t0, proc.stderr)
            if code:
                assert proc.stdout == ""
                assert proc.stderr.splitlines() == [f"error: launch parameter t0 must be finite, got {t0}"]
            else:
                assert len(proc.stdout.splitlines()) == 4 and proc.stderr == ""

    def test_chords_validate_circle(self, runner):
        out = json.loads(run_ok(runner, ["chords", "validate", "--circle", "H2",
                                         "--radius", "0.8", "--samples", "10"]))
        assert out["max_rel_err"] < 1e-5

    @pytest.mark.parametrize("spec", [E2_SPEC, S2_SPEC], ids=["E2", "S2"])
    def test_chords_validate_spec(self, runner, write_spec, spec):
        out = json.loads(run_ok(runner, ["chords", "validate", "--spec", write_spec(spec),
                                         "--samples", "10"]))
        assert out["geometry"] == ("E2" if spec is E2_SPEC else "S2")
        assert out["samples"] == 10 and out["max_rel_err"] < 1e-5

    def test_chords_validate_nan_chord_exit_3(self, runner):
        """At R = 20 the hyperboloid chord cancels, and at R = 400 cosh^2 R overflows:
        either would give NaN partials (the library's diagnoses of those are checked
        on a user's jet).  Both circles are past the hyperboloid's bound, so the
        build refuses them with one line."""
        for radius, samples in (("20", "20"), ("400", "2")):
            result = runner.invoke(main, ["chords", "validate", "--circle", "H2",
                                          "--radius", radius, "--samples", samples])
            assert result.exit_code == 3
            assert (result.stdout, result.stderr) == ("", result.output)
            assert re.fullmatch(H2_BOUND_REFUSAL, result.output)

    @pytest.mark.parametrize("tag, name, radius", [("S2", "spherical", 1.0), ("H2", "hyperbolic", 1.2)])
    def test_zero_epsilon_spec_is_the_circle(self, runner, write_spec, tag, name, radius):
        """An eps = 0 spec is the circle: chords validate prints the bytes --circle
        prints, and curve build reports the circle's closed-form length and its
        curvature."""
        spec = write_spec({"geometry": name, "R": radius, "epsilon": 0.0})
        validate = ["chords", "validate", "--samples", "7"]
        assert (run_ok(runner, validate + ["--spec", spec])
                == run_ok(runner, validate + ["--circle", tag, "--radius", str(radius)]))
        circle = equichord.circle_curve(equichord.Geometry(tag), radius)
        ts = np.linspace(0.0, 2 * np.pi, _CURVATURE_SAMPLES, endpoint=False)
        kappa = equichord.geodesic_curvature(circle, ts)
        assert run_ok(runner, ["curve", "build", "--spec", spec]) == to_json(
            {"geometry": tag, "kind": "deformed_circle", "length": equichord.ArcLengthParam(circle).total_length,
             "min_geodesic_curvature": float(kappa.min())}) + "\n"

    def test_h2_circle_and_zero_epsilon_spec_share_the_refusal(self, runner, write_spec):
        """At R = 15 --circle once printed a max_rel_err of 0.534 with exit 0, while
        the same circle as a spec was refused; both are now the build's one line."""
        circle = runner.invoke(main, ["chords", "validate", "--circle", "H2", "--radius", "15", "--samples", "5"])
        spec = runner.invoke(main, ["chords", "validate", "--samples", "5", "--spec",
                                    write_spec({"geometry": "hyperbolic", "R": 15.0, "epsilon": 0.0})])
        for result in (circle, spec):
            assert result.exit_code == 3
            assert (result.stdout, result.stderr) == ("", circle.stderr)
        assert re.fullmatch(H2_BOUND_REFUSAL, circle.stderr)

    @pytest.mark.parametrize("data, message", [
        ({"geometry": "spherical", "R": 0.1, "epsilon": 0.2, "g": [{"k": 4, "amp": 1.0}]},
         "S2 radius down to -0.1: r = R + eps g(t) must stay positive"),
        ({"geometry": "spherical", "R": 1.0, "epsilon": 1.0, "g": [{"k": 0, "amp": -2.0}]},
         "S2 radius down to -1.0: r = R + eps g(t) must stay positive"),
        ({"geometry": "spherical", "R": 1.0, "epsilon": 1e-4, "g": [{"k": 128, "amp": 1.0}]},
         "deformation too large: curve loses convexity"),
        (dict(E2_SPEC, harmonics=[{"k": 0, "amp": 0.1}]),
         "harmonic k=0 is a constant: add amp * cos(phase) = 0.1 to c0"),
    ], ids=["r dips below 0", "r is -1", "k = 128 aliased", "E2 k = 0"])
    def test_curve_build_refusals(self, runner, write_spec, data, message):
        """Specs that once built, or were refused as not closed, are refused with one line."""
        result = runner.invoke(main, ["curve", "build", "--spec", write_spec(data)])
        assert result.exit_code == 3
        assert (result.stdout, result.stderr) == ("", f"error: {message}\n")

    def test_nan_chord_stderr_is_one_line(self, tmp_path):
        """No numpy warning precedes the error line, on an H2 circle or deformed H2
        spec whose largest radius is past the hyperboloid's bound, at any alpha or
        none (R = 19 at a right angle printed a NaN curvature after three warnings,
        and R = 400 once reached a NaN chord), or on an H2 radius whose sinh and
        cosh overflow; run as a real process, because pytest would catch the
        warning before it reached stderr."""
        src = str(pathlib.Path(equichord.__file__).parents[1])
        specs = [tmp_path / f"h2_{i}.json" for i in range(len(H2_BEYOND_BOUND))]
        for spec, data in zip(specs, H2_BEYOND_BOUND):
            spec.write_text(json.dumps(data))
        for args in (*(["curve", "build", "--spec", str(spec)] for spec in specs),
                     ["chords", "validate", "--circle", "H2", "--radius", "20", "--samples", "20"],
                     ["chords", "validate", "--circle", "H2", "--radius", "40", "--samples", "20"],
                     ["chords", "validate", "--circle", "H2", "--radius", "400", "--samples", "2"],
                     ["chords", "validate", "--circle", "H2", "--radius", "400", "--samples", "20"],
                     ["chords", "validate", "--circle", "H2", "--radius", "709", "--samples", "2"],
                     ["chords", "validate", "--circle", "H2", "--radius", "800", "--samples", "3"],
                     ["solve-angle", "--k", "4", "--geometry", "H2", "--radius", "800"]):
            proc = subprocess.run(
                [sys.executable, "-m", "equichord.cli", *args],
                capture_output=True, text=True, env={"PYTHONPATH": src, "PATH": ""}, timeout=120)
            assert proc.returncode == 3, args
            assert proc.stdout == ""
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("data", H2_BEYOND_BOUND, ids=["R19 right", "R30 right", "R30 a1", "R30 none", "R400"])
    @pytest.mark.parametrize("command, option", [(["curve", "build"], None), (["curve", "verify"], "--alpha"),
                                                 (["billiard", "orbit", "--steps", "2"], "--theta")],
                             ids=["build", "verify", "orbit"])
    def test_h2_spec_past_the_hyperboloid_bound(self, runner, write_spec, data, command, option):
        """A deformed H2 spec is refused by its largest radius, at any alpha, with
        one error line and no warning (a warning fails this test); a command that
        shoots refuses a spec without alpha first."""
        result = runner.invoke(main, command + ["--spec", write_spec(data)])
        assert result.exit_code == 3, (result.output, result.exception)
        if option and "alpha" not in data:
            assert (result.stdout, result.stderr) == ("", no_alpha(option))
        else:
            assert result.stdout == ""
            assert re.fullmatch(H2_BOUND_REFUSAL, result.stderr)


def _leaf_commands(group, prefix=""):
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            yield from _leaf_commands(command, f"{prefix}{name} ")
        else:
            yield prefix + name


class TestErrorBoundary:
    """The command group maps domain errors for every command, present or added later."""

    # one invocation per leaf command that fails on its input, not on its usage;
    # "{spec}" is an E2 spec file and "{dir}" a directory, which open() refuses
    # with an OSError
    DOMAIN_ERRORS = {
        "solve-angle": ["--k", "4", "--geometry", "S2", "--radius", "2"],
        "polygon construct": ["--n", "6", "--k", "3", "--arcs", "1,x"],
        "polygon verify": ["--regular", "5", "--k", "7"],
        "polygon classify": ["--n", "7", "--k", "5"],
        "polygon family": ["--n", "12", "--k", "4", "--coeffs", "nope"],
        "curve build": ["--spec", "{dir}"],
        "curve verify": ["--spec", "{spec}", "--samples", "0"],
        "curve residual": ["--spec", "{spec}", "--operator", "S2"],
        "billiard orbit": ["--spec", "{spec}", "--theta", "5.0", "--steps", "1"],
        "chords validate": ["--circle", "H2", "--radius", "800", "--samples", "3"],
    }

    def test_table_covers_every_command(self):
        assert set(self.DOMAIN_ERRORS) == set(_leaf_commands(main))

    @pytest.mark.parametrize("command", sorted(DOMAIN_ERRORS))
    def test_exit_3_one_error_line(self, runner, write_spec, tmp_path, command):
        paths = {"{spec}": write_spec(E2_SPEC), "{dir}": str(tmp_path)}
        args = command.split() + [paths.get(a, a) for a in self.DOMAIN_ERRORS[command]]
        result = runner.invoke(main, args)
        assert result.exit_code == 3, (result.output, result.exception)
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr


class TestDeterminism:
    DOCUMENTED = [
        ["solve-angle", "--k", "4"],
        ["solve-angle", "--k", "2"],
        ["solve-angle", "--k", "4", "--geometry", "S2", "--radius", "1.0471975512"],
        ["polygon", "classify", "--n", "24", "--k", "5"],
        ["polygon", "construct", "--n", "4", "--k", "3",
         "--arcs", "1.0471975512,2.0943951024"],
        ["polygon", "verify", "--regular", "5", "--k", "2"],
    ]

    @pytest.mark.parametrize("args", DOCUMENTED, ids=lambda a: " ".join(a))
    def test_byte_identical_runs(self, runner, args):
        assert run_ok(runner, args) == run_ok(runner, args)

    def test_orbit_byte_identical(self, runner, write_spec):
        path = write_spec(E2_SPEC)
        args = ["billiard", "orbit", "--spec", path, "--steps", "5"]
        assert run_ok(runner, args) == run_ok(runner, args)


class TestReadme:
    def test_cli_examples_run(self, runner, tmp_path, monkeypatch):
        """Every command of the README's CLI block exits 0, run in a scratch
        directory after its spec.json heredoc is written."""
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        block = next(b for b in re.findall(r"```sh\n(.*?)```", readme, re.S) if "equichord curve" in b)
        heredoc = re.search(r"cat > (\S+) <<'JSON'\n(.*?)\nJSON\n", block, re.S)
        monkeypatch.chdir(tmp_path)
        pathlib.Path(heredoc[1]).write_text(heredoc[2])
        lines = block.replace(heredoc[0], "").replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.strip() and not line.startswith("#")]
        assert len(commands) >= 10 and all(argv[0] == "equichord" for argv in commands)
        for argv in commands:
            result = runner.invoke(main, argv[1:])
            assert result.exit_code == 0, (argv, result.output)
        assert all(pathlib.Path(f).stat().st_size > 0 for f in ("rect.json", "rect.svg", "orbit.csv"))
