import json
import math

import numpy as np
import pytest

import qkdng.scan
from qkdng.channels import NoiseStatistics
from qkdng.cli import CSV_HEADER, main
from qkdng.photodetection import DetectorKind, DetectorModel
from qkdng.scan import ALL_CRITERIA, Criterion, ScanConfig, sweep


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

    def test_poisson_noise_far_past_exp_overflow(self, capsys):
        # e^(d_eff) overflows a double from d_eff ~ 709; the model must not
        code, out, _ = run_cli(
            capsys, "eval", "--noise", "poisson", "--detector", "spad",
            "--T", "0", "--nu", "800", "--eta", "1", "--dark", "0",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["q"] == 0.5
        assert doc["region"]["bb84"] == "Neither"

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

    @pytest.mark.parametrize("probe_points", ["-3", "2", "1000000000000"])
    def test_bad_probe_points_rejected(self, capsys, tmp_path, probe_points):
        out = tmp_path / "probed.csv"
        code, _, err = run_cli(
            capsys, "scan", "--preset", "fig3", "--t-points", "4",
            "--probe-points", probe_points, "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error:") and "probe_points" in err
        assert not out.exists()

    def test_manifest_diagnostics(self, capsys, tmp_path):
        out = tmp_path / "diag.csv"
        code, _, err = run_cli(
            capsys, "scan", "--preset", "fig3", "--t-min", "0", "--t-max", "1",
            "--t-points", "5", "--nu-cap", "1", "--tol", "1e-3", "--probe-points", "5",
            "--out", str(out),
        )
        assert code == 0 and err == ""
        diag = json.loads((tmp_path / "diag.csv.manifest.json").read_text())["diagnostics"]
        # ceil(log2(1 / 1e-3)) = 10 steps, plus nu = 0, nu = nu_cap and the probe
        assert diag["bisection_steps"] == 10
        assert diag["evaluations"] == 13
        assert diag["boundaries"] == 15
        assert diag["undefined"] == 3    # T = 0, every criterion
        assert diag["capped"] >= 1       # T = 1 decouples the noise
        assert diag["monotone_warning"] == 0
        assert diag["python"].count(".") == 2 and diag["numpy"]

    def test_monotone_warning_reported(self, capsys, tmp_path, monkeypatch):
        import qkdng.scan
        from test_scan import banded_fields

        monkeypatch.setattr(qkdng.scan, "thermal_fields", banded_fields)
        out = tmp_path / "banded.csv"
        code, _, err = run_cli(
            capsys, "scan", "--preset", "fig3", "--t-min", "0.5", "--t-points", "1",
            "--nu-cap", "2", "--probe-points", "9", "--out", str(out),
        )
        assert code == 0
        assert err.startswith("warning: 1 of 3 boundaries") and err.count("\n") == 1
        diag = json.loads((tmp_path / "banded.csv.manifest.json").read_text())["diagnostics"]
        assert diag["monotone_warning"] == 1

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

    def test_poisson_huge_cap_is_capped(self, capsys, tmp_path):
        # Q rises to 1/2 - p eta^2 / (2 (2 - eta)^2) = 0.002 as the noise grows:
        # BB84 holds at any noise mean, so the boundary is the cap
        out = tmp_path / "huge.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--preset", "fig5", "--eta", "1", "--dark", "0",
            "--nu-cap", "1e6", "--t-min", "0.999", "--t-points", "1", "--criteria", "bb84",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[1] == "0.999,,1000000.0,,,true,"

    @pytest.mark.parametrize("flag,value", [("--nu-cap", "inf"), ("--tol", "nan")])
    def test_non_finite_search_flag(self, capsys, tmp_path, flag, value):
        code, _, err = run_cli(capsys, *self.scan_args(tmp_path / "x.csv"), flag, value)
        assert code == 2
        assert err.startswith("error:")

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.scan_args(tmp_path))  # a directory
        assert code != 0
        assert err


def record_csv(curve):
    """The scan CSV rendered record by record from ``curve.points``: the oracle."""
    lines = [CSV_HEADER]
    for point in curve.points:
        nu_fields, capped_fields = [], []
        for criterion in ALL_CRITERIA:
            bound = point.bounds.get(criterion)
            if bound is None or bound.undefined:
                nu_fields.append("")
                capped_fields.append("")
            else:
                nu_fields.append(repr(bound.nu_star))
                capped_fields.append("true" if bound.capped else "false")
        lines.append(",".join([repr(point.t)] + nu_fields + capped_fields))
    return "\n".join(lines) + "\n"


def record_doc(curve):
    """The scan JSON document built record by record from ``curve.points``."""
    points = [
        {"T": point.t, "bounds": {
            criterion.value: {
                "nu_star": None if bound.undefined else bound.nu_star,
                "capped": bound.capped,
                "undefined": bound.undefined,
                "monotone_warning": bound.monotone_warning,
            }
            for criterion, bound in point.bounds.items()
        }}
        for point in curve.points
    ]
    return {"criteria": [c.value for c in curve.criteria], "points": points}


class TestColumnarOutput:
    """The scan output, written from columns, against the per-record oracle."""

    @pytest.mark.parametrize("noise,detector", [("thermal", "pnrd"), ("poisson", "spad")])
    @pytest.mark.parametrize("criteria", [
        "nongauss,bb84,di", "di,bb84,nongauss", "bb84", "di,nongauss", "nongauss,di",
    ])
    def test_csv_and_json_equal_record_oracle(self, capsys, tmp_path, noise, detector,
                                              criteria):
        # T = 0 is undefined (no dark counts), T = 1 capped
        flags = ["--noise", noise, "--detector", detector, "--t-min", "0", "--t-max", "1",
                 "--t-points", "5", "--nu-cap", "1", "--tol", "1e-3", "--criteria", criteria]
        csv_out, json_out = tmp_path / "c.csv", tmp_path / "c.json"
        assert run_cli(capsys, "scan", *flags, "--out", str(csv_out))[0] == 0
        assert run_cli(capsys, "scan", *flags, "--out", str(json_out), "--format", "json")[0] == 0
        curve = sweep(ScanConfig(
            t_grid=tuple(np.linspace(0.0, 1.0, 5)), statistics=NoiseStatistics(noise),
            detector=DetectorModel(DetectorKind(detector)), nu_cap=1.0, tol=1e-3,
            criteria=tuple(Criterion(c) for c in criteria.split(",")),
        ))
        assert csv_out.read_text() == record_csv(curve)
        assert json_out.read_text() == json.dumps(record_doc(curve), indent=2) + "\n"
        rows = csv_out.read_text().splitlines()
        assert rows[1] == "0.0,,,,,,"
        scanned = [c.value in criteria.split(",") for c in ALL_CRITERIA]
        assert rows[-1].split(",")[4:] == ["true" if s else "" for s in scanned]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_scan_builds_no_records(self, capsys, tmp_path, monkeypatch, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("a per-point record was built")

        monkeypatch.setattr(qkdng.scan, "BoundaryPoint", refuse)
        monkeypatch.setattr(qkdng.scan, "CriterionBoundary", refuse)
        code, _, err = run_cli(
            capsys, "scan", "--preset", "fig5", "--eta", "0.7", "--dark", "0.001",
            "--t-points", "40", "--out", str(tmp_path / f"fig5.{fmt}"), "--format", fmt,
        )
        assert code == 0, err
        curve = sweep(ScanConfig(t_grid=(0.5,), statistics="poisson",
                                 detector=DetectorModel(DetectorKind.SPAD)))
        with pytest.raises(AssertionError, match="per-point record"):
            curve.points  # the guard does catch a record being built

    def test_manifest_phase_times(self, capsys, tmp_path):
        out = tmp_path / "timed.csv"
        assert run_cli(capsys, "scan", "--preset", "fig3", "--t-points", "4",
                       "--out", str(out))[0] == 0
        manifest = json.loads((tmp_path / "timed.csv.manifest.json").read_text())
        phase_s = manifest["diagnostics"]["phase_s"]
        assert set(phase_s) == {"resolve", "sweep", "write"}
        assert all(isinstance(v, float) and math.isfinite(v) and v >= 0.0
                   for v in phase_s.values())


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
