import json

import numpy as np
import pytest
from click.testing import CliRunner

from equichord.cli import main, to_json

E2_SPEC = {"geometry": "euclidean", "c0": 1.0,
           "harmonics": [{"k": 4, "amp": 0.1, "phase": 0.0}],
           "alpha": "auto-k4"}
S2_SPEC = {"geometry": "spherical", "R": 1.0471975511965976, "epsilon": 0.001,
           "g": [{"k": 4, "amp": 1.0, "phase": 0.0}], "alpha": "auto-k4"}


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

    def test_domain_error_exit_3(self, runner):
        result = runner.invoke(main, ["polygon", "classify", "--n", "7", "--k", "5"])
        assert result.exit_code == 3

    def test_tol_env_override(self, runner, monkeypatch):
        monkeypatch.setenv("EQUICHORD_TOL", "1e-3")
        out = json.loads(run_ok(runner, ["polygon", "verify", "--regular", "5", "--k", "2"]))
        assert out["tol"] == 1e-3


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
                     ["curve", "residual", "--spec", path, "--operator", "E2", "--grid", "0"]):
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

    def test_chords_validate_circle(self, runner):
        out = json.loads(run_ok(runner, ["chords", "validate", "--circle", "H2",
                                         "--radius", "0.8", "--samples", "10"]))
        assert out["max_rel_err"] < 1e-5

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_chords_validate_nan_chord_exit_3(self, runner):
        # at R = 12 the hyperboloid chord cancels and some partials come out NaN;
        # the report must refuse rather than take the max of the other lanes
        result = runner.invoke(main, ["chords", "validate", "--circle", "H2",
                                      "--radius", "12", "--samples", "20"])
        assert result.exit_code == 3
        assert "gives a NaN chord partial" in result.output


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
