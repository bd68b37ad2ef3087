import json

import pytest

from qkdng.cli import CSV_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_decoupled_thermal_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--noise", "thermal", "--detector", "pnrd",
            "--T", "1", "--nu", "0.5", "--eta", "1", "--dark", "0", "--p", "1",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == pytest.approx(0.0, abs=1e-12)
        assert doc["coincidence_defined"]
        assert doc["region"]["bb84"] == "SecureAndNonGauss"
        assert doc["manifest"]["parameters"]["T"] == 1.0

    def test_poisson_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--noise", "poisson", "--detector", "spad",
            "--T", "0.5", "--nu", "0", "--eta", "1", "--dark", "0", "--p", "0.9",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == pytest.approx(0.05, abs=1e-12)

    def test_rejected_pairing(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--noise", "thermal", "--detector", "spad",
            "--T", "0.5", "--nu", "0.1",
        )
        assert code != 0
        assert "--detector" in err or "--noise" in err

    def test_missing_flag_named(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--noise", "thermal", "--detector", "pnrd", "--nu", "0.1"
        )
        assert code != 0
        assert "--T" in err

    def test_out_of_range_flag(self, capsys):
        code, _, err = run_cli(
            capsys, "eval", "--noise", "thermal", "--detector", "pnrd",
            "--T", "1.5", "--nu", "0.1",
        )
        assert code != 0
        assert "--T" in err

    def test_undefined_point_reports_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--noise", "thermal", "--detector", "pnrd",
            "--T", "0", "--nu", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] is None
        assert not doc["coincidence_defined"]
        assert doc["region"]["bb84"] == "Neither"

    @pytest.mark.parametrize("flag,value", [
        ("--nu", "nan"), ("--nu", "inf"), ("--T", "nan"), ("--eta", "nan"), ("--dark", "inf"),
    ])
    def test_non_finite_flag(self, capsys, flag, value):
        argv = {"--T": "0.5", "--nu": "0.1", flag: value}
        code, _, err = run_cli(capsys, "eval", "--preset", "fig4", *sum(argv.items(), ()))
        assert code == 2
        assert err.startswith("error:") and flag in err

    def test_large_thermal_noise_mean(self, capsys):
        # no photon-number cutoff limits the thermal model
        code, out, _ = run_cli(capsys, "eval", "--preset", "fig4", "--T", "0.5", "--nu", "150")
        assert code == 0
        doc = json.loads(out)
        assert 0.0 <= doc["q"] <= 0.5
        assert doc["region"]["bb84"] == "Neither"

    def test_preset_supplies_channel(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--preset", "fig4", "--T", "0.6", "--nu", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["parameters"]["eta"] == 0.7
        assert doc["manifest"]["parameters"]["dark"] == 0.001

    def test_fig5_preset_requires_detector_numbers(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--preset", "fig5", "--T", "0.5", "--nu", "0.1")
        assert code != 0
        assert "--eta" in err

    def test_config_file_layering(self, capsys, tmp_path):
        config = tmp_path / "link.conf"
        config.write_text("# channel recipe\nnoise=thermal\ndetector=pnrd\neta=0.7\ndark=0.001\n")
        code, out, _ = run_cli(
            capsys, "eval", "--config", str(config), "--eta", "0.9",
            "--T", "0.8", "--nu", "0.05",
        )
        assert code == 0
        params = json.loads(out)["manifest"]["parameters"]
        assert params["eta"] == 0.9      # flag beats file
        assert params["dark"] == 0.001   # file beats default


class TestScan:
    def scan_args(self, out_path, fmt="csv"):
        return [
            "scan", "--preset", "fig3", "--t-min", "0.4", "--t-max", "0.8",
            "--t-points", "3", "--nu-cap", "1", "--tol", "1e-3",
            "--out", str(out_path), "--format", fmt,
        ]

    def test_csv_header_and_shape(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli(capsys, *self.scan_args(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == 0.4
        assert float(first[1]) >= 0.0

    def test_single_point_grid(self, capsys, tmp_path):
        out = tmp_path / "one.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--preset", "fig3", "--t-min", "0.5", "--t-points", "1",
            "--nu-cap", "1", "--tol", "1e-3", "--out", str(out),
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 2

    def test_byte_identical_reruns(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(capsys, *self.scan_args(first))[0] == 0
        assert run_cli(capsys, *self.scan_args(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_written_alongside(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        run_cli(capsys, *self.scan_args(out))
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        params = manifest["parameters"]
        assert params["p"] == 1.0
        assert params["tol"] == 1e-3
        assert "policy" not in params  # the thermal model has no truncation setting
        assert "effective_detector_mapping" in params

    def test_json_format(self, capsys, tmp_path):
        out = tmp_path / "curve.json"
        code, _, _ = run_cli(capsys, *self.scan_args(out, fmt="json"))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["criteria"] == ["nongauss", "bb84", "di"]
        assert len(doc["points"]) == 3
        bound = doc["points"][0]["bounds"]["bb84"]
        assert {"nu_star", "capped", "undefined", "monotone_warning"} <= set(bound)

    def test_probe_points_recorded(self, capsys, tmp_path):
        out = tmp_path / "probed.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--preset", "fig3", "--t-min", "0.5", "--t-points", "1",
            "--nu-cap", "1", "--tol", "1e-3", "--probe-points", "5",
            "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "probed.csv.manifest.json").read_text())
        assert manifest["parameters"]["probe_points"] == 5

    def test_criteria_subset_keeps_columns(self, capsys, tmp_path):
        out = tmp_path / "sub.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--preset", "fig3", "--t-min", "0.5", "--t-points", "1",
            "--nu-cap", "1", "--tol", "1e-3", "--criteria", "bb84",
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[1] == ""      # witness column empty
        assert fields[2] != ""      # bb84 column filled

    def test_undefined_row_uses_empty_sentinel(self, capsys, tmp_path):
        out = tmp_path / "gap.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--noise", "thermal", "--detector", "pnrd",
            "--t-min", "0", "--t-max", "0.5", "--t-points", "2",
            "--nu-cap", "1", "--tol", "1e-3", "--out", str(out),
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[0] == "0.0"
        assert row[1:] == ["", "", "", "", "", ""]

    @pytest.mark.parametrize("flag,value", [("--nu-cap", "inf"), ("--tol", "nan")])
    def test_non_finite_search_flag(self, capsys, tmp_path, flag, value):
        code, _, err = run_cli(capsys, *self.scan_args(tmp_path / "x.csv"), flag, value)
        assert code == 2
        assert err.startswith("error:")

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.scan_args(tmp_path))  # a directory
        assert code != 0
        assert err


class TestPmf:
    def test_vacuum_ancilla_rows(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--l", "1", "--nbar", "0", "--T", "0.7")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s p"
        assert lines[1].startswith("0 0.3")
        assert lines[2].startswith("1 0.7")
        assert lines[3].startswith("truncation_tail")
        manifest = json.loads(lines[4].split(" ", 1)[1])
        assert manifest["parameters"] == {"l": 1, "nbar": 0.0, "T": 0.7}

    def test_thermal_row_value(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--l", "1", "--nbar", "1", "--T", "0.5")
        assert code == 0
        rows = {line.split()[0]: line.split()[1] for line in out.splitlines()[1:]}
        assert float(rows["1"]) == pytest.approx(8.0 / 27.0, abs=1e-9)

    def test_attenuated_thermal(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--l", "0", "--nbar", "2", "--T", "0.5")
        assert code == 0
        rows = out.splitlines()
        assert float(rows[1].split()[1]) == pytest.approx(0.5, abs=1e-12)

    def test_domain_error_propagates(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--l", "-1", "--nbar", "0", "--T", "0.5")
        assert code != 0
        assert "--l" in err

    def test_non_finite_nbar(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--l", "1", "--nbar", "nan", "--T", "0.5")
        assert code == 2
        assert "--nbar" in err
