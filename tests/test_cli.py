import json

import pytest

from susy_fisheye.cli import main
from susy_fisheye.fisheye import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFigureCommand:
    def test_csv_schema_and_shape(self, capsys):
        code, out, err = run_cli(
            capsys, "figure", "--l", "1", "--lambda", "1", "--samples", "10"
        )
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 11

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(
                ["figure", "--l", "2", "--lambda", "10", "--samples", "40",
                 "--output", str(path)]
            ) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_svg_output(self, tmp_path):
        path = tmp_path / "fig.svg"
        code = main(
            ["figure", "--l", "1", "--lambda", "1", "--samples", "30",
             "--format", "svg", "--output", str(path)]
        )
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg xmlns=")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 4
        assert "href" not in text  # self-contained, no external references

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure", "--l", "1", "--lambda", "1", "--samples", "4",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload["data"]) == {
            "rho", "n_maxwell", "n_iso", "ratio_minus_1", "f_bos_sq"
        }
        assert len(payload["data"]["rho"]) == 4


class TestGridCommands:
    def test_potential_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--kappa", "0.5", "--l", "1", "--samples", "5"
        )
        assert code == 0
        assert out.startswith("rho,v,u_minus,u_plus\n")

    def test_index_exact_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "index", "--l", "1", "--lambda", "1", "--samples", "3",
            "--rho-min", "0.5", "--rho-max", "1.5", "--exact-index",
        )
        assert code == 0
        assert out.startswith("rho,n_maxwell,n_iso,ratio_minus_1\n")

    def test_family_csv(self, capsys):
        code, out, _ = run_cli(capsys, "family", "--l", "0", "--samples", "4")
        assert code == 0
        assert out.startswith("rho,u_minus,u_bos,f,f_bos\n")
        assert len(out.strip().split("\n")) == 5


class TestLangerCommand:
    def test_spectrum_json(self, capsys):
        code, out, _ = run_cli(capsys, "langer", "--nb", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["eigenvalues"] == [-9, -4, -1]

    def test_family_metadata(self, capsys):
        code, out, _ = run_cli(
            capsys, "langer", "--nb", "1", "--lambda0", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["family"]["rescaled_radius"] == pytest.approx(2**-0.5)
        assert payload["family"]["well_center"] == pytest.approx(-0.3465735902799726)

    def test_aufbau_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "langer", "--aufbau", "3", "--format", "json")
        payload = json.loads(out)
        assert payload["eigenvalues"] == [-2.25, -1, -0.25]

    def test_scan_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "langer", "--nb", "2", "--format", "csv", "--samples", "7"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,v_minus,v_plus,v_family"
        assert len(lines) == 8


class TestErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--lambda0", "0"],
            ["--lambda0", "-2"],
            ["--aufbau", "2"],
            ["--nb", "-1"],
            ["--aufbau", "3", "--lambda0", "0"],
            ["--lambda0", "nan"],
        ],
        ids=["lambda0-zero", "lambda0-below-minus-one", "aufbau-even", "nb-negative",
             "aufbau-lambda0-zero", "lambda0-nan"],
    )
    def test_langer_rejects_bad_parameters(self, capsys, argv):
        code, out, err = run_cli(capsys, "langer", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_lambda0_message_names_the_value(self, capsys):
        _, _, err = run_cli(capsys, "langer", "--aufbau", "3", "--lambda0", "-2")
        assert err == "error: lambda0 must lie in (-1, 0) or (0, inf), got -2\n"

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize(
        "argv,message",
        [
            # u_plus turns into inf/inf at rho >~ 1e154
            (["potential", "--rho-max", "1e200"], "u_plus is not finite at rho = 3.33e+199"),
            (["figure", "--lambda", "nan"], "n_iso is not finite at rho = 0.01"),
            (["figure", "--lambda", "nan", "--format", "svg"], "n_iso is not finite at rho = 0.01"),
        ],
        ids=["potential-overflow", "figure-csv-nan", "figure-svg-nan"],
    )
    def test_non_finite_output_is_refused(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "--samples", "4")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (
                ["potential", "--samples", "3"],
                "rho,v,u_minus,u_plus\n"
                "0.01,-14.997000449940009,19985.002999550059,59991.001199850019\n"
                "1.5050000000000001,-1.4070782083495479,-0.52408574689768772,"
                "0.52990353179907757\n"
                "3,-0.14999999999999999,0.072222222222222215,0.036666666666666653\n",
            ),
            (
                ["langer", "--format", "csv", "--nb", "2", "--samples", "3"],
                "x,v_minus,v_plus,v_family\n"
                "-6,-0.0001474592844319962,-4.9153094810665397e-05,"
                "-9.8304981611677155e-05\n"
                "0,-6,-2,-1.7777777777777775\n"
                "6,-0.0001474592844319962,-4.9153094810665397e-05,"
                "-2.4576698408626924e-05\n",
            ),
            (
                ["langer", "--format", "csv", "--aufbau", "3", "--samples", "3"],
                "x,v_minus\n-6,-0.029598111496320578\n0,-3\n6,-0.029598111496320578\n",
            ),
        ],
    )
    def test_in_domain_output_is_unchanged(self, capsys, argv, expected):
        assert run_cli(capsys, *argv) == (0, expected, "")

    def test_config_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "figure", "--samples", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_svg_only_for_figure(self, capsys):
        code, _, err = run_cli(capsys, "potential", "--format", "svg")
        assert code == 2
        assert "svg" in err

    def test_bad_rho_range(self, capsys):
        code, _, err = run_cli(
            capsys, "index", "--rho-min", "2.0", "--rho-max", "1.0"
        )
        assert code == 2
        assert err.startswith("error:")


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun")
        assert code == 0
        assert "PASS gegenbauer-recurrence" in out
        assert out.strip().endswith("passed, 0 failed")

    def test_tolerance_env_scaling(self, capsys, monkeypatch):
        monkeypatch.setenv("SUSY_FISHEYE_TOL", "1e6")
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun")
        assert code == 0
        assert "tol=1.000e-06" in out  # 1e-12 scaled by 1e6

    def test_known_failures_reported_honestly(self, capsys):
        # the full suite carries two documented out-of-tolerance checks
        code, out, _ = run_cli(capsys, "verify", "--suite", "fisheye")
        assert code == 1
        assert "FAIL index-ratio-percent-bound" in out
