import json
import math
import warnings

import pytest

from cscforge import (
    MetricField,
    a0_in_standard_coordinates,
    build_third_kind,
    cli,
    form_to_json,
    normalize_form,
    solve_phi_closed,
    standard_form,
)


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInspect:
    def test_valid_form(self, capsys):
        code, out, _ = run(
            capsys, ["inspect", "--form", '{"poles":[{"a":[0,0],"lambda":[3,0]}]}']
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["real_part_exact"] is True
        weights = {json.dumps(e["point"]): e["weight"] for e in doc["divisor"]}
        assert weights['"inf"'] == -1.0

    def test_imaginary_residue(self, capsys):
        code, out, _ = run(
            capsys, ["inspect", "--form", '{"poles":[{"a":[0,0],"lambda":[0,1]}]}']
        )
        assert code == 2
        assert json.loads(out)["real_part_exact"] is False

    def test_exact_part_only(self, capsys):
        code, out, _ = run(
            capsys,
            ["inspect", "--form", '{"poles":[],"exact_part":[[0,0],[1,0]]}'],
        )
        assert code == 2
        assert json.loads(out)["is_third_kind"] is False

    def test_exact_part_above_sixteen_poles(self, capsys):
        # 16 poles and H = z^2: 17 zeros, one more than the monomial root
        # finder that used to serve nonconstant H could take
        angles = [2 * math.pi * k / 16 for k in range(16)]
        poles = [{"a": [1.5 * math.cos(t), 1.5 * math.sin(t)], "lambda": [1.0 + t, 0.0]}
                 for t in angles]
        form = {"poles": poles, "exact_part": [[0, 0], [0, 0], [1, 0]]}
        code, out, _ = run(capsys, ["inspect", "--form", json.dumps(form)])
        assert code == 2
        weights = [e["weight"] for e in json.loads(out)["divisor"]]
        assert sum(weights) == -2
        assert sum(w for w in weights if w > 0) == 17

    def test_many_poles_inspect(self, capsys):
        # 24 poles: the zeros come from the pole data, with no degree cap
        angles = [2 * math.pi * k / 24 for k in range(24)]
        poles = [{"a": [1.5 * math.cos(t), 1.5 * math.sin(t)], "lambda": [1.0 + t, 0.0]}
                 for t in angles]
        code, out, _ = run(capsys, ["inspect", "--form", json.dumps({"poles": poles})])
        assert code == 0
        weights = [e["weight"] for e in json.loads(out)["divisor"]]
        assert sum(weights) == -2
        assert sum(w for w in weights if w > 0) == 23

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, ["inspect", "--form", "{not json"])
        assert code == 1

    @pytest.mark.parametrize("command", ["classify", "verify"])
    @pytest.mark.parametrize("phi0", ["5", "0"])
    def test_initial_value_out_of_range_is_a_parse_error(self, capsys, command, phi0):
        code, out, err = run(
            capsys, [command, "--standard", "simple:lambda=1", "--K", "1", "--phi0", phi0]
        )
        assert code == 1
        assert err.startswith("parse error:")
        assert out == ""

    def test_two_sources_rejected(self, capsys):
        code, _, _ = run(
            capsys,
            ["inspect", "--form", "{}", "--standard", "simple:lambda=1"],
        )
        assert code == 1


class TestHypothesisFailure:
    # a simple pole at 0 plus H = z^2: infinity is a pole of order 3
    FORM = '{"poles":[{"a":[0,0],"lambda":[1,0]}],"exact_part":[[0,0],[0,0],[1,0]]}'

    @pytest.mark.parametrize("argv", [
        ["metric", "--grid", "1,1,0.1,5"], ["angles"], ["verify"],
    ])
    def test_field_commands_refuse_exact_part(self, capsys, argv):
        code, out, err = run(capsys, argv + ["--form", self.FORM, "--K", "1"])
        assert code == 2
        assert err.startswith("hypothesis failure:")
        assert "INFINITY" in err
        assert out == ""


class TestMetric:
    def test_round_sphere_grid(self, capsys, tmp_path):
        out = tmp_path / "grid.csv"
        code, stdout, _ = run(
            capsys,
            [
                "metric", "--standard", "simple:lambda=1", "--K", "1",
                "--grid", "0,0,0.5,10", "--out", str(out),
            ],
        )
        assert code == 0
        assert "max_curvature_residual=" in stdout
        resid = float(stdout.strip().split("=")[1])
        assert resid < 1e-4
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,y,rho,phi,K_est"
        assert len(lines) == 101
        # every K_est on the grid, smooth pole included, sits within 1e-4 of 1
        for line in lines[1:]:
            assert abs(float(line.split(",")[4]) - 1.0) < 1e-4

    def test_two_cone_pipeline_grid(self, capsys):
        # unit-residue case with alpha=2 is the 4 pi two-cone metric; away
        # from its cones the curvature residual is tiny
        code, stdout, _ = run(
            capsys,
            [
                "metric", "--standard", "unit:alpha=2", "--K", "1",
                "--grid", "1.0,0.8,0.15,9",
            ],
        )
        assert code == 0
        resid = float(stdout.strip().split("\n")[-1].split("=")[1])
        assert resid < 1e-4

    def test_grid_touching_pole(self, capsys):
        code, _, err = run(
            capsys,
            [
                "metric", "--standard", "unit:alpha=2", "--K", "1",
                "--grid", "0,1,0.05,11",  # centered on the pole at i
            ],
        )
        assert code == 3

    def test_grid_touching_two_points_names_both(self, capsys):
        # the grid passes within rounding of the pole at -1 and the order-2
        # zero at 0; both are named, in table order
        code, _, err = run(
            capsys,
            ["metric", "--standard", "unit:alpha=3", "--K", "1", "--grid=0,0,1.5,31"],
        )
        assert code == 3
        assert err.startswith("grid touches the singular points (-1")
        assert err.count("j)") == 2
        assert err.endswith("\n") and err.count("\n") == 1

    def test_hyperbolic_locus_crossing(self, capsys):
        # |z| = 1 is the degeneracy circle for lambda/z with a0 = 0
        code, _, err = run(
            capsys,
            [
                "metric", "--standard", "simple:lambda=1", "--K", "-1",
                "--p0", "1,0", "--phi0", "2.0", "--grid", "1,0,0.2,9",
            ],
        )
        assert code == 3
        assert "degeneracy locus" in err

    def test_byte_stable(self, capsys, tmp_path):
        argv = [
            "metric", "--standard", "simple:lambda=2.5", "--K", "1",
            "--grid", "0.8,0.3,0.2,7",
        ]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestPhi:
    def test_values(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "phi", "--standard", "simple:lambda=1",
                "--p0", "1,0", "--phi0", "2.0", "--at", "2,0",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["values"][0]["phi"] - 3.2) < 1e-12


class TestAngles:
    def test_unit_case(self, capsys):
        code, out, _ = run(
            capsys,
            ["angles", "--standard", "unit:alpha=2", "--K", "1"],
        )
        assert code == 0
        doc = json.loads(out)
        near_zero = [
            e for e in doc["angles"]
            if e["point"] != "inf" and abs(complex(*e["point"])) < 1e-6
        ]
        assert len(near_zero) == 1
        zero = near_zero[0]
        assert abs(zero["fitted_angle"] - zero["predicted_angle"]) <= \
            0.01 * zero["predicted_angle"]

    def test_nan_fit_is_quiet(self, capfd):
        # the fits at the order-4 zero go NaN; the report shows that, and
        # numpy writes nothing to stderr about it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["angles", "--standard", "unit:alpha=5", "--K", "1"])
        out, err = capfd.readouterr()
        assert code == 0
        assert any(math.isnan(e["fitted_angle"]) for e in json.loads(out)["angles"])
        assert err == ""
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


class TestGaussBonnet:
    def test_round_sphere(self, capsys):
        code, out, _ = run(
            capsys, ["gauss-bonnet", "--standard", "simple:lambda=1", "--K", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["total_area"] - doc["expected_area"]) < 0.01 * doc["expected_area"]

    def test_flat_rejected(self, capsys):
        code, _, err = run(
            capsys, ["gauss-bonnet", "--standard", "simple:lambda=2", "--K", "0"]
        )
        assert code == 3


class TestClassify:
    def test_plus_minus(self, capsys):
        code, out, _ = run(
            capsys, ["classify", "--standard", "pm:alpha=2,a=2+0j"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["case"] == "plus_minus"
        assert doc["alpha"] == 2.0
        assert abs(doc["football"]["b"]) > 0

    def test_json_form(self, capsys):
        code, out, _ = run(
            capsys,
            ["classify", "--form", '{"poles":[{"a":[0,0],"lambda":[2.5,0]}]}'],
        )
        assert code == 0
        assert json.loads(out)["case"] == "simple"

    @pytest.mark.parametrize("spec", ["unit:alpha=3", "pm:alpha=3,a=2+0j"])
    def test_small_scale(self, capsys, spec):
        # moved by z = p w with |p| = 0.05: the scale comes back from the
        # pole table at any |p|
        p = 0.05
        std = standard_form(cli._parse_standard(spec))
        form = form_to_json(build_third_kind([(p * a, lam) for a, lam in std.poles]))
        code, out, _ = run(capsys, ["classify", "--form", json.dumps(form)])
        assert code == 0
        assert abs(complex(*json.loads(out)["scale"])) == pytest.approx(p, rel=1e-9)

    def test_base_point_is_read(self, capsys):
        form = standard_form(cli._parse_standard("unit:alpha=3"))
        case = normalize_form(form)
        want = a0_in_standard_coordinates(case, solve_phi_closed(form, 2 + 0.5j, 2.0).a0)
        code, out, _ = run(capsys, ["classify", "--standard", "unit:alpha=3",
                                    "--p0", "2,0.5"])
        assert code == 0
        assert json.loads(out)["football"]["a0_standard"] == want

    def test_no_standard_pattern(self, capsys):
        poles = [(0.3 + 0.1j, 1.2), (-0.8 + 0.5j, -0.4), (0.2 - 1.1j, 2.1)]
        form = form_to_json(build_third_kind(poles))
        code, out, err = run(capsys, ["classify", "--form", json.dumps(form)])
        assert code == 3
        assert err.startswith("no standard pattern:")
        assert out == ""

    def test_exact_part_is_no_standard_pattern(self, capsys):
        std = standard_form(cli._parse_standard("unit:alpha=3"))
        form = form_to_json(build_third_kind(std.poles, [0, 1]))  # H = z
        code, out, err = run(capsys, ["classify", "--form", json.dumps(form)])
        assert code == 3
        assert err.startswith("no standard pattern:")
        assert out == ""


class TestVerify:
    def test_standard_case_passes(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--standard", "unit:alpha=3", "--K", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        assert doc["checks"]["classification"]["applicable"] is True

    def test_corrupted_density_fails(self, capsys, monkeypatch):
        original = MetricField.log_density_many
        monkeypatch.setattr(
            MetricField, "log_density_many",
            lambda self, pts, chart="z": original(self, pts, chart) + math.log(1.01),
        )
        code, out, _ = run(
            capsys, ["verify", "--standard", "unit:alpha=2", "--K", "1"]
        )
        assert code == 4
        doc = json.loads(out)
        assert doc["checks"]["curvature"]["pass"] is False

    def test_scaled_density_fails_area(self, capsys, monkeypatch):
        original = MetricField.log_density_many
        monkeypatch.setattr(
            MetricField, "log_density_many",
            lambda self, pts, chart="z": original(self, pts, chart) + math.log(1.05),
        )
        code, out, _ = run(
            capsys, ["verify", "--standard", "unit:alpha=2", "--K", "1"]
        )
        assert code == 4
        gb = json.loads(out)["checks"]["gauss_bonnet"]
        assert gb["pass"] is False
        assert gb["error_estimate"] < gb["residual"]
        assert gb["nodes"] > 0

    def test_smooth_sphere(self, capsys):
        code, out, _ = run(
            capsys, ["verify", "--standard", "simple:lambda=1", "--K", "1"]
        )
        assert code == 0
        doc = json.loads(out)
        gb = doc["checks"]["gauss_bonnet"]
        assert abs(gb["total_area"] - gb["expected_area"]) < 0.01 * gb["expected_area"]


class TestConfigPrecedence:
    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"standard": "simple:lambda=1", "phi0": 1.0}))
        code, out, _ = run(
            capsys,
            ["phi", "--config", str(cfg), "--p0", "1,0", "--phi0", "2.0",
             "--at", "2,0"],
        )
        assert code == 0
        assert abs(json.loads(out)["values"][0]["phi"] - 3.2) < 1e-12

    def test_phi_grid_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"standard": "simple:lambda=1", "grid": "0.5,0.5,0.1,2"}))
        code, out, _ = run(capsys, ["phi", "--config", str(cfg)])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,phi" and len(lines) == 1 + 2 * 2

    def test_angles_radii_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"standard": "unit:alpha=2", "K": 1,
                                   "radii": "1e-5,1e-3,4"}))
        code, out, _ = run(capsys, ["angles", "--config", str(cfg)])
        assert code == 0
        assert all(len(e["fit_radii"]) == 4 for e in json.loads(out)["angles"])

    def test_inspect_out_from_file(self, capsys, tmp_path):
        cfg = tmp_path / "job.json"
        target = tmp_path / "report.json"
        cfg.write_text(json.dumps({"standard": "unit:alpha=2", "out": str(target)}))
        code, out, _ = run(capsys, ["inspect", "--config", str(cfg)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["is_third_kind"] is True
