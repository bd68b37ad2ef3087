import collections
import json
import math
import random
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qkdng.cli
import qkdng.scan
from qkdng.channels import ChannelConfig, NoiseModel, NoiseStatistics, assess
from qkdng.cli import CHUNK_T, CSV_HEADER, main
from qkdng.photodetection import DetectorKind, DetectorModel
from qkdng.scan import ALL_CRITERIA, Criterion, ScanConfig, sweep

from test_properties import seeded_case


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

    def test_manifest_names_python_and_numpy(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--preset", "fig4", "--T", "0.5", "--nu", "0.1")
        assert code == 0
        manifest = json.loads(out)["manifest"]
        assert manifest["python"] == "{}.{}.{}".format(*sys.version_info[:3])
        assert manifest["numpy"] == np.__version__

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

    @pytest.mark.parametrize("detector", ["spad", "pnrd"])
    def test_poisson_d_eff_past_the_float_limit(self, capsys, detector):
        # dark + eta (1 - T) nu overflows: the answer is the e^-d_eff = 0 limit
        # every d_eff above ~745 gives, not a NaN that fails a range check
        def point(dark, nu):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run_cli(capsys, "eval", "--noise", "poisson", "--detector",
                                         detector, "--dark", dark, "--T", "0", "--nu", nu)
            assert (code, err) == (0, "")
            doc = json.loads(out)
            del doc["manifest"]
            return doc

        assert point("1e308", "1e308") == point("800", "0")

    def test_cross_pairing_matches_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--noise", "thermal", "--detector", "spad",
            "--T", "0.5", "--nu", "0.1",
        )
        assert code == 0
        doc = json.loads(out)
        from test_channels import thermal_spad_oracle

        q, p_s, p_e = thermal_spad_oracle(0.5, 0.1, 1.0, DetectorModel(DetectorKind.SPAD))
        assert doc["q"] == pytest.approx(q, abs=1e-12)
        assert doc["p_s"] == pytest.approx(p_s, rel=1e-12)
        assert doc["p_e"] == pytest.approx(p_e, rel=1e-12)

    @pytest.mark.parametrize("noise", ["thermal", "poisson"])
    @pytest.mark.parametrize("detector", ["pnrd", "spad"])
    def test_every_pairing_runs(self, capsys, tmp_path, noise, detector):
        channel = ["--noise", noise, "--detector", detector, "--eta", "0.7", "--dark", "0.001"]
        code, out, _ = run_cli(capsys, "eval", *channel, "--T", "0.6", "--nu", "0.05")
        assert code == 0 and json.loads(out)["coincidence_defined"]
        out = tmp_path / "four.csv"
        code, _, _ = run_cli(capsys, "scan", *channel, "--t-points", "5", "--out", str(out))
        assert code == 0 and len(out.read_text().splitlines()) == 6

    def test_underflowed_witness_fails(self, capsys):
        # P_s and P_e ~ 2e-323: the unscaled threshold rounded to 0 and the witness passed
        code, out, _ = run_cli(
            capsys, "eval", "--noise", "poisson", "--detector", "spad",
            "--T", "0.3", "--nu", "758", "--eta", "0.7", "--dark", "0.001",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["witness"]["passed"] is False
        assert not doc["witness"]["margin"] > 0.0
        assert doc["region"]["bb84"] == "Neither"

    def test_dead_coupler_error_coincidences_not_cancelled(self, capsys):
        # T = nu = 0: only dark counts reach the PNRD, so P_e = P(D >= 2) ~ dark^2/2;
        # 1 - p01 - p11 cancelled to 0 and the witness margin came out +1e-76
        code, out, _ = run_cli(
            capsys, "eval", "--noise", "thermal", "--detector", "pnrd",
            "--T", "0", "--nu", "0", "--eta", "1", "--dark", "1e-38",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["p_e"] == pytest.approx(5e-77, rel=1e-15, abs=0.0)
        assert doc["witness"]["margin"] == pytest.approx(1e-76 - math.sqrt(5e-77), rel=1e-15,
                                                         abs=0.0)
        assert doc["witness"]["passed"] is False and doc["coincidence_defined"] is False

    def test_witness_verdict_is_assess_verdict(self, capsys):
        # no coincidences but a positive margin: eval printed false while assess passed
        code, out, _ = run_cli(
            capsys, "eval", "--noise", "poisson", "--detector", "spad",
            "--T", "0.5", "--nu", "0", "--eta", "1e-16", "--dark", "0",
        )
        assert code == 0
        doc = json.loads(out)
        point = assess(ChannelConfig(t=0.5), NoiseModel(NoiseStatistics.POISSON, 0.0),
                       DetectorModel(DetectorKind.SPAD, eta=1e-16))
        assert doc["witness"] == {"passed": point.witness.passed, "margin": point.witness.margin}
        assert doc["witness"]["margin"] > 0.0 and doc["coincidence_defined"] is False
        assert doc["witness"]["passed"] is False

    def test_manifest_names_the_poisson_mapping(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--preset", "fig5", "--eta", "0.7", "--dark", "0.001",
            "--T", "0.5", "--nu", "0.1",
        )
        assert code == 0
        params = json.loads(out)["manifest"]["parameters"]
        assert params["effective_detector_mapping"] == (
            "eta_eff = T*eta; d_eff = dark + eta*(1-T)*nbar"
        )

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

    @pytest.mark.parametrize("command,flag,value,message", [
        ("eval", "--nu", "-1e-3", "noise mean must be finite and lie in [0, inf), got -0.001"),
        ("eval", "--nu", "-1E5", "noise mean must be finite and lie in [0, inf), got -100000.0"),
        ("eval", "--nu", "-inf", "noise mean must be finite and lie in [0, inf), got -inf"),
        ("scan", "--t-min", "-1e-3", "--t-min must be finite and lie in [0, 1], got -0.001"),
    ])
    def test_negative_exponent_form_range_checked(self, capsys, tmp_path, command, flag, value,
                                                  message):
        # argparse alone would read the value as an option string and report it missing
        argv = {"eval": ["--T", "0.5", "--nu", "0.1"], "scan": ["--out", str(tmp_path / "x.csv")]}
        code, _, err = run_cli(capsys, command, "--preset", "fig4", *argv[command], flag, value)
        assert code == 2
        assert err.startswith("error:") and message in err

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


class TestConfigLayering:
    """--config values become flag defaults: cast by the flag's type, other keys dropped."""

    def write(self, tmp_path, text):
        path = tmp_path / "run.conf"
        path.write_text(text)
        return str(path)

    def test_file_value_cast_by_flag_type(self, capsys, tmp_path):
        out = tmp_path / "curve.csv"
        config = self.write(tmp_path, "t-points=3\nnu_cap=1\ntol=1e-3\n")
        code, _, _ = run_cli(capsys, "scan", "--preset", "fig3", "--config", config,
                             "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 4
        params = json.loads((tmp_path / "curve.csv.manifest.json").read_text())["parameters"]
        assert params["t_points"] == 3 and params["nu_cap"] == 1.0

    def test_uncastable_file_value_names_flag(self, capsys, tmp_path):
        config = self.write(tmp_path, "eta=abc\n")
        with pytest.raises(SystemExit) as exit_info:
            main(["eval", "--preset", "fig4", "--config", config, "--T", "0.5", "--nu", "0.1"])
        assert exit_info.value.code == 2
        assert "--eta" in capsys.readouterr().err

    def test_line_without_equals_sign_named(self, capsys, tmp_path):
        config = self.write(tmp_path, "# recipe\neta=0.7\ndark 0.001\n")
        code, _, err = run_cli(capsys, "eval", "--preset", "fig4", "--config", config,
                               "--T", "0.5", "--nu", "0.1")
        assert code == 2
        assert err == f"error: --config {config}: line 3 is not key=value\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "--preset", "fig4", "--T", "0.5", "--nu", "0.1"],
        ["scan", "--preset", "fig4", "--out", "curve.csv"],
        ["pmf", "--l", "1", "--nbar", "0.5", "--T", "0.7"],
    ], ids=["eval", "scan", "pmf"])
    def test_file_not_utf8_named(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "bad.conf"
        config.write_bytes(b"eta=0.5\n\xff\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(config))
        assert code == 2 and out == ""
        assert err.startswith(f"error: --config {config}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == [config]

    def test_byte_order_mark_dropped(self, capsys, tmp_path):
        # read as part of the first key, it hid that key: eta stayed the preset's 0.7
        config = tmp_path / "bom.conf"
        config.write_bytes(b"\xef\xbb\xbfeta=0.5\n")
        code, out, _ = run_cli(capsys, "eval", "--preset", "fig4", "--config", str(config),
                               "--T", "0.5", "--nu", "0.1")
        assert code == 0
        assert json.loads(out)["manifest"]["parameters"]["eta"] == 0.5

    def test_file_satisfies_fig5_detector_numbers(self, capsys, tmp_path):
        config = self.write(tmp_path, "eta=0.7\ndark=0.001\n")
        code, out, _ = run_cli(capsys, "eval", "--preset", "fig5", "--config", config,
                               "--T", "0.5", "--nu", "0.1")
        assert code == 0
        params = json.loads(out)["manifest"]["parameters"]
        assert (params["noise"], params["eta"], params["dark"]) == ("poisson", 0.7, 0.001)

    def test_fig5_names_every_missing_flag(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--preset", "fig5", "--T", "0.5", "--nu", "0.1")
        assert code == 2
        assert err == "error: missing required flag --eta, --dark\n"

    def test_keys_of_other_commands_ignored(self, capsys, tmp_path):
        config = self.write(tmp_path, "t_points=3\nnu-cap=1\n")
        code, out, _ = run_cli(capsys, "eval", "--preset", "fig4", "--config", config,
                               "--T", "0.5", "--nu", "0.1")
        assert code == 0
        params = json.loads(out)["manifest"]["parameters"]
        assert "t_points" not in params and "nu_cap" not in params

    def test_dispatch_keys_ignored(self, capsys, tmp_path):
        config = self.write(tmp_path, "handler=x\ncommand=pmf\npreset=fig3\nconfig=none\n")
        code, out, _ = run_cli(capsys, "eval", "--preset", "fig4", "--config", config,
                               "--T", "0.5", "--nu", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["command"] == "eval"
        assert doc["manifest"]["parameters"]["eta"] == 0.7  # fig4, not fig3

    def test_fig4_scan_manifest_parameters(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli(capsys, "scan", "--preset", "fig4", "--out", "./fig4.csv")[0] == 0
        params = json.loads((tmp_path / "fig4.csv.manifest.json").read_text())["parameters"]
        assert params == {
            "noise": "thermal", "detector": "pnrd", "eta": 0.7, "dark": 0.001, "p": 1.0,
            "t_min": 0.02, "t_max": 1.0, "t_points": 96, "nu_cap": 10.0, "tol": 0.0001,
            "criteria": ["nongauss", "bb84", "di"],
            "effective_detector_mapping":
                "eta_eff = T*eta; thermal mean m_eff = eta*(1-T)*nbar; d_eff = dark",
            "format": "csv", "out": "fig4.csv",
        }


class TestChoiceFlags:
    """A bad --noise or --detector value exits 2 naming the allowed ones, as a flag or in a file."""

    CHOICES = [pytest.param("--noise", "thermal, poisson", id="noise"),
               pytest.param("--detector", "spad, pnrd", id="detector")]

    @staticmethod
    def line(command, out, *flags):
        tail = (["--T", "0.5", "--nu", "0.1"] if command == "eval"
                else ["--t-points", "2", "--out", str(out)])
        return [command, "--preset", "fig4", *flags, *tail]

    @pytest.mark.parametrize("flag, allowed", CHOICES)
    @pytest.mark.parametrize("command", ["eval", "scan"])
    def test_bad_flag_value_lists_the_choices(self, capsys, tmp_path, command, flag, allowed):
        out = tmp_path / "curve.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(self.line(command, out, flag, "foo"))
        assert exit_info.value.code == 2
        listed = capsys.readouterr().err.split(f"argument {flag}: invalid choice: 'foo'")[1]
        assert all(value in listed for value in allowed.split(", "))
        assert not out.exists()

    @pytest.mark.parametrize("flag, allowed", CHOICES)
    @pytest.mark.parametrize("command", ["eval", "scan"])
    def test_bad_file_value_names_the_flag(self, capsys, tmp_path, command, flag, allowed):
        out, config = tmp_path / "curve.csv", tmp_path / "run.conf"
        config.write_text(f"{flag[2:]}=foo\n")
        code, stdout, err = run_cli(capsys, *self.line(command, out, "--config", str(config)))
        assert code == 2
        assert err == f"error: {flag} must be one of {allowed}, got 'foo'\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [config]


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
        # the single-crossing check needs no flag: every scan records its outcome
        out = tmp_path / "probed.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--preset", "fig3", "--t-min", "0.5", "--t-points", "1",
            "--nu-cap", "1", "--tol", "1e-3", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "probed.csv.manifest.json").read_text())
        assert "probe_points" not in manifest["parameters"]
        assert manifest["diagnostics"]["monotone_warning"] == 0

    @pytest.mark.parametrize("probe_points", ["-3", "2", "1000000000000"])
    def test_bad_probe_points_rejected(self, capsys, tmp_path, probe_points):
        # the flag is gone: argparse refuses it, whatever its value
        out = tmp_path / "probed.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["scan", "--preset", "fig3", "--t-points", "4",
                  "--probe-points", probe_points, "--out", str(out)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --probe-points" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_criteria_name_the_flag(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, _, err = run_cli(capsys, "scan", "--preset", "fig3", "--criteria", "bb84,bb84",
                               "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "--criteria" in err and "criteria must" in err
        assert not out.exists()

    def test_empty_grid_rejected(self, capsys, tmp_path):
        out = tmp_path / "empty.csv"
        code, _, err = run_cli(capsys, "scan", "--preset", "fig3", "--t-points", "0",
                               "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and "--t-points" in err
        assert not out.exists()

    @pytest.mark.parametrize("message,shown", [
        ("Unable to allocate 96.0 KiB for an array with shape (3, 4096)",
         "Unable to allocate 96.0 KiB"),
        ("", "out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_exits_2(self, capsys, tmp_path, monkeypatch, message, shown):
        # a sweep that cannot allocate its arrays: one error line, no traceback, no file
        def refuse(config):
            raise MemoryError(message)

        monkeypatch.setattr(qkdng.cli, "sweep", refuse)
        out = tmp_path / "scan.csv"
        code, _, err = run_cli(capsys, "scan", "--preset", "fig4", "--out", str(out))
        assert code == 2
        assert err.startswith("error:") and shown in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("points,shown", [
        ("100000000000000000000", "t_grid must be strictly increasing"),  # steps below 2 ulps
        ("1" + "0" * 400, "int too large to convert to float"),  # n - 1 is no float
    ], ids=["1e20", "1e400"])
    def test_grid_finer_than_the_floats_rejected(self, capsys, tmp_path, points, shown):
        out = tmp_path / "fine.csv"
        code, _, err = run_cli(capsys, "scan", "--preset", "fig3", "--t-points", points,
                               "--out", str(out))
        assert code == 2
        assert err == f"error: --t-min/--t-max/--t-points/--nu-cap/--tol/--criteria: {shown}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("points", [10**6, 10**11])
    def test_setup_does_not_grow_with_the_grid(self, tmp_path, monkeypatch, points):
        # set-up ends where the first chunk is swept: up to there a scan holds one chunk, not
        # the grid (10^6 Python floats in a list alone take ~32 MB)
        class Swept(Exception):
            pass

        def stop(config):
            raise Swept

        monkeypatch.setattr(qkdng.cli, "sweep", stop)
        tracemalloc.start()
        try:
            with pytest.raises(Swept):
                main(["scan", "--preset", "fig3", "--t-points", str(points),
                      "--out", str(tmp_path / "scan.csv")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert list(tmp_path.iterdir()) == []

    def test_unknown_format_from_config_rejected(self, capsys, tmp_path):
        out, config = tmp_path / "curve.xml", tmp_path / "run.conf"
        config.write_text("format=xml\n")
        code, stdout, err = run_cli(capsys, "scan", "--preset", "fig3", "--config", str(config),
                                    "--out", str(out))
        assert code == 2
        assert err == "error: --format must be one of csv, json, got 'xml'\n"
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [config]

    def test_manifest_diagnostics(self, capsys, tmp_path):
        out = tmp_path / "diag.csv"
        code, _, err = run_cli(
            capsys, "scan", "--preset", "fig3", "--t-min", "0", "--t-max", "1",
            "--t-points", "5", "--nu-cap", "1", "--tol", "1e-3",
            "--out", str(out),
        )
        assert code == 0 and err == ""
        diag = json.loads((tmp_path / "diag.csv.manifest.json").read_text())["diagnostics"]
        # one sweep of ceil(log2(1 / 1e-3)) = 10 steps; each sweep makes one model call,
        # so nothing counts the calls
        assert set(diag) == {"sweeps", "bisection_steps", "boundaries", "capped", "undefined",
                             "monotone_warning", "phase_s", "python", "numpy"}
        assert diag["sweeps"] == 1
        assert diag["bisection_steps"] == 10
        assert diag["boundaries"] == 15
        assert diag["undefined"] == 3    # T = 0, every criterion
        assert diag["capped"] >= 1       # T = 1 decouples the noise
        assert diag["monotone_warning"] == 0
        assert diag["python"].count(".") == 2 and diag["numpy"]

    def test_monotone_warning_reported(self, capsys, tmp_path, monkeypatch):
        from test_scan import NOTCHED, fake_fields

        # the witness holds at 0 and nu_cap but not at nu_cap / 2; no flag asks for the check
        fake_fields(monkeypatch, **NOTCHED)
        out = tmp_path / "banded.csv"
        code, _, err = run_cli(
            capsys, "scan", "--preset", "fig3", "--t-min", "0.5", "--t-points", "1",
            "--nu-cap", "2", "--out", str(out),
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

    def test_underflowed_witness_not_capped(self, capsys, tmp_path):
        # the witness passed again near nu = 758, so a cap there read as a capped boundary
        out = tmp_path / "band.csv"
        code, _, _ = run_cli(
            capsys, "scan", "--preset", "fig5", "--eta", "0.7", "--dark", "0.001",
            "--nu-cap", "758", "--t-min", "0.3", "--t-max", "0.3", "--t-points", "1",
            "--out", str(out),
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[4] == "false"  # capped_nongauss
        # 0.0106048583984375 under the default cap, within the bisection tolerance
        assert float(row[1]) == pytest.approx(0.0106048583984375, abs=1e-4)

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

    @pytest.mark.parametrize("detector,rows", [
        ("spad", ["0.02,0.0,0.0,0.0,false,false,false", "0.51,0.0,0.0,0.0,false,false,false",
                  "1.0,0.0,1e+308,1e+308,false,true,true"]),
        ("pnrd", ["0.02,,,,,,", "0.51,,,,,,", "1.0,,,,,,"]),
    ])
    def test_poisson_d_eff_past_the_float_limit(self, capsys, tmp_path, detector, rows):
        # dark + eta (1 - T) nu overflows below T = 1; no numpy warning may show it
        out = tmp_path / "limit.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                capsys, "scan", "--preset", "fig5", "--detector", detector, "--eta", "1",
                "--dark", "1e308", "--nu-cap", "1e308", "--t-points", "3", "--out", str(out),
            )
        assert code == 0
        assert "Warning" not in err
        assert out.read_text().splitlines() == [CSV_HEADER, *rows]

    @pytest.mark.parametrize("flag,value", [("--t-max", "inf"), ("--t-max", "5"), ("--t-min", "nan")])
    def test_bad_grid_end_on_one_point_grid(self, capsys, tmp_path, flag, value):
        out = tmp_path / "one.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning may precede the error
            code, _, err = run_cli(
                capsys, "scan", "--preset", "fig3", "--t-points", "1", flag, value,
                "--out", str(out),
            )
        assert code == 2
        assert err.startswith(f"error: {flag} must be finite and lie in [0, 1]")
        assert not out.exists()

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


class TestChunkedScan:
    """A grid swept ``CHUNK_T`` transmittances at a time gives the one-sweep output."""

    CHANNELS = {
        "fig4": (["--preset", "fig4"], "thermal", "pnrd"),
        "fig5": (["--preset", "fig5", "--eta", "0.7", "--dark", "0.001"], "poisson", "spad"),
    }

    def scan(self, capsys, tmp_path, flags, fmt):
        out = tmp_path / f"scan.{fmt}"
        code, _, err = run_cli(capsys, "scan", *flags, "--t-points", "50", "--format", fmt,
                               "--out", str(out))
        assert code == 0, err
        return out.read_bytes(), json.loads(Path(f"{out}.manifest.json").read_text())["diagnostics"]

    @pytest.mark.parametrize("chunk,sweeps", [(1, 50), (7, 8)])
    @pytest.mark.parametrize("preset", CHANNELS)
    def test_chunks_give_the_single_sweep_bytes(self, capsys, tmp_path, monkeypatch, preset,
                                                chunk, sweeps):
        flags, statistics, detector = self.CHANNELS[preset]
        config = ScanConfig(
            t_grid=np.linspace(0.02, 1.0, 50).tolist(), statistics=statistics,
            detector=DetectorModel(detector, eta=0.7, dark=0.001),
        )
        chunks = [sweep(replace(config, t_grid=config.t_grid[i:i + chunk]))
                  for i in range(0, 50, chunk)]
        for fmt in ("csv", "json"):
            with monkeypatch.context() as patch:
                whole, whole_diag = self.scan(capsys, tmp_path, flags, fmt)
                patch.setattr(qkdng.cli, "CHUNK_T", chunk)
                data, diag = self.scan(capsys, tmp_path, flags, fmt)
            assert data == whole
            assert (whole_diag["sweeps"], diag["sweeps"]) == (1, sweeps)
            assert diag["bisection_steps"] == max(curve.bisection_steps for curve in chunks)
            for outcome in ("boundaries", "capped", "undefined", "monotone_warning"):
                assert diag[outcome] == whole_diag[outcome]
            assert set(diag["phase_s"]) == {"resolve", "sweep", "write"}

    @pytest.mark.parametrize("chunk,points,checks", [
        pytest.param(None, 96, [96], id="None-96-1"),
        pytest.param(7, 50, [7] * 7 + [1], id="7-50-8"),
    ])
    def test_grid_checked_once_per_chunk(self, capsys, tmp_path, monkeypatch, chunk, points,
                                         checks):
        # one ScanConfig per chunk, whatever the grid's size: each value is checked once
        calls = []
        check = ScanConfig.__post_init__

        def counted(config):
            calls.append(len(config.t_grid))
            check(config)

        monkeypatch.setattr(ScanConfig, "__post_init__", counted)
        if chunk is not None:
            monkeypatch.setattr(qkdng.cli, "CHUNK_T", chunk)
        code, _, err = run_cli(capsys, "scan", "--preset", "fig3", "--t-points", str(points),
                               "--out", str(tmp_path / "scan.csv"))
        assert code == 0, err
        assert calls == checks

    # real grids whose values first repeat at index drop, in a chunk after the first:
    # drop: (--t-min, --t-max, --t-points, CHUNK_T)
    REPEATS = {
        7: ("0.4999999999999975", "0.5", "50", 7),  # at the first chunk boundary
        49: ("0.49999999999999467", "0.5", "98", 7),  # at the seventh
        4103: ("0.499999999999754", "0.5000000000001139", "6000", CHUNK_T),  # inside chunk 1
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("drop", REPEATS)
    def test_order_across_chunks_checked_before_the_file_opens(self, capsys, tmp_path,
                                                               monkeypatch, drop, fmt):
        t_min, t_max, points, chunk = self.REPEATS[drop]
        grid = np.linspace(float(t_min), float(t_max), int(points)).tolist()
        assert min(i for i in range(1, len(grid)) if grid[i] <= grid[i - 1]) == drop >= chunk
        monkeypatch.setattr(qkdng.cli, "CHUNK_T", chunk)
        out = tmp_path / f"scan.{fmt}"
        code, _, err = run_cli(capsys, "scan", "--preset", "fig4", "--t-min", t_min,
                               "--t-max", t_max, "--t-points", points, "--format", fmt,
                               "--out", str(out))
        assert code == 2
        assert err == ("error: --t-min/--t-max/--t-points/--nu-cap/--tol/--criteria: "
                       "t_grid must be strictly increasing\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_chunk_leaves_no_file(self, capsys, tmp_path, monkeypatch, fmt):
        out = tmp_path / f"scan.{fmt}"
        calls = []

        def fail_second(config):
            calls.append(out.exists())
            if len(calls) == 2:
                raise MemoryError("second chunk")
            return sweep(config)

        monkeypatch.setattr(qkdng.cli, "CHUNK_T", 7)
        monkeypatch.setattr(qkdng.cli, "sweep", fail_second)
        code, _, err = run_cli(capsys, "scan", "--preset", "fig4", "--t-points", "50",
                               "--format", fmt, "--out", str(out))
        assert code != 0 and "second chunk" in err
        assert calls == [True, True]  # the output was open when the chunk failed
        assert list(tmp_path.iterdir()) == []


class TestGridChunks:
    """``_chunk`` gives ``np.linspace(t_min, t_max, n).tolist()`` bit for bit, chunk by chunk."""

    @staticmethod
    def assert_linspace_bits(t_min, t_max, n):
        step = (t_max - t_min) / max(n - 1, 1)  # as _cmd_scan forms it
        chunks = [qkdng.cli._chunk(t_min, step, t_max, n, i) for i in range(0, n, CHUNK_T)]
        assert all(len(chunk) <= CHUNK_T for chunk in chunks)
        got = [value.hex() for chunk in chunks for value in chunk]
        assert got == [value.hex() for value in np.linspace(t_min, t_max, n).tolist()]

    @pytest.mark.parametrize("n", [1, 2, CHUNK_T - 1, CHUNK_T, CHUNK_T + 1, 2 * CHUNK_T + 1])
    @pytest.mark.parametrize("t_min,t_max", [
        (0.02, 1.0), (0.3, 0.3), (0.9, 0.1), (0.0, 0.0), (1.0, 0.0),
        (0.499999999999754, 0.5000000000001139),
    ], ids=["rising", "equal", "falling", "zero", "falling-to-zero", "binade"])
    def test_chunks_are_linspace_bits(self, t_min, t_max, n):
        self.assert_linspace_bits(t_min, t_max, n)

    def test_seeded_grids_are_linspace_bits(self):
        rng = random.Random(31)
        for _ in range(200):
            t_min = rng.random()
            t_max = rng.choice([rng.random(), t_min, min(1.0, t_min + 1e-12 * rng.random()), 1.0])
            self.assert_linspace_bits(t_min, t_max, rng.randrange(1, 3 * CHUNK_T))

    def test_scan_writes_linspace_bits(self, capsys, tmp_path):
        # the T column of a three-chunk scan; repr gives each float back exactly
        out, n = tmp_path / "scan.csv", 2 * CHUNK_T + 1
        code, _, err = run_cli(capsys, "scan", "--preset", "fig3", "--t-min", "0.013",
                               "--t-points", str(n), "--nu-cap", "1", "--tol", "1",
                               "--out", str(out))
        assert code == 0, err
        written = [float(row.split(",")[0]) for row in out.read_text().splitlines()[1:]]
        assert written == np.linspace(0.013, 1.0, n).tolist()


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

    def test_long_table(self, capsys):
        code, out, _ = run_cli(capsys, "pmf", "--l", "1100", "--nbar", "0.1", "--T", "0.5")
        assert code == 0
        rows = out.splitlines()
        assert rows[0] == "s p" and rows[-2].startswith("truncation_tail")
        assert rows[1101].startswith("1100 ")

    def test_too_much_work_refused(self, capsys):
        # l (l + rows) row updates, about 25 min at l = 100000: refused before any row
        code, out, err = run_cli(capsys, "pmf", "--l", "100000", "--nbar", "0.1", "--T", "0.5")
        assert code == 2 and out == ""
        assert err.startswith("error: --l/--nbar/--T:") and "2e+07 updates" in err

    def test_faint_noise_rows(self, capsys):
        # (1 - T) nbar = 5e-301: the row estimate raised a ValueError traceback
        code, out, err = run_cli(capsys, "pmf", "--l", "1", "--nbar", "1e-300", "--T", "0.5")
        assert code == 0 and err == ""
        assert out.splitlines()[:4] == ["s p", "0 0.5", "1 0.5", "truncation_tail 5e-301"]

    def test_overwhelming_noise_refused(self, capsys):
        code, out, err = run_cli(capsys, "pmf", "--l", "1", "--nbar", "1e300", "--T", "0.5")
        assert code == 2 and out == ""
        assert err.startswith("error: --l/--nbar/--T:")

    def test_domain_error_propagates(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--l", "-1", "--nbar", "0", "--T", "0.5")
        assert code != 0
        assert "--l" in err

    def test_non_finite_nbar(self, capsys):
        code, _, err = run_cli(capsys, "pmf", "--l", "1", "--nbar", "nan", "--T", "0.5")
        assert code == 2
        assert "--nbar" in err


def same_namespace(read, parsed):
    """The same attributes in the same order, with equal values of the same types (NaN too)."""
    assert list(vars(read)) == list(vars(parsed))
    for name, value in vars(read).items():
        other = getattr(parsed, name)
        assert type(value) is type(other), name
        assert value == other or (value != value and other != other), name


# a few fixed --config files; the reader fuzz names them relative to their folder
CONFIG_TEXTS = {
    "channel": "# a channel recipe\nnoise=poisson\ndetector=pnrd\neta=0.9\ndark=0.002\n",
    "scan": "t-points=3\nnu_cap=1\ncriteria=bb84\nformat=json\nout=file.csv\n",
    "odd": "preset=fig3\ncommand=pmf\nhandler=x\nformat=xml\nl=2\nunknown=1\n",
    "bad-noise": "noise=foo\n",  # read as given; main names the flag and its choices
    "bad-detector": "detector=foo\n",
    "not-utf8": b"eta=0.5\n\xff\n",
    "bad": "eta=abc\n",
}
CONFIG_NAMES = [*CONFIG_TEXTS, "missing"]  # the last names no file


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    """The CONFIG_NAMES paths in one folder."""
    folder = tmp_path_factory.mktemp("configs")
    for name, text in CONFIG_TEXTS.items():
        (folder / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    return [str(folder / name) for name in CONFIG_NAMES]


class TestReader:
    """``cli._read`` resolves a well-formed line from the flag table, as argparse would."""

    VALUES = {  # valid values of each flag; FLOATS for the rest
        "--noise": ["thermal", "poisson"], "--detector": ["pnrd", "spad"],
        "--preset": ["fig3", "fig4", "fig5"], "--format": ["csv", "json"],
        "--criteria": ["nongauss,bb84,di", "di", "bb84,nongauss"],
        "--t-points": ["3", "1", "0"], "--l": ["0", "2"], "--out": ["x.csv"],
    }
    FLOATS = ["0.5", "1", "0", "1e-3", "nan", "inf"]
    BAD = ["-0.5", "-1e-3", "abc", "", "nan,di", "fig9", "xml", "--eta"]  # declined or refused
    ODD = ["-h", "--help", "--version", "--", "--eta=0.5", "--no", "--t-p", "--pre", "bogus"]
    SEED = 3211

    @staticmethod
    def options(command):
        return [flag for flag, _ in qkdng.cli._COMMANDS[command][2]]

    @classmethod
    def lines(cls, count=300):
        """``count`` lines from ``random.Random(SEED)``: up to six of a command's flags with
        a valid value five times in six, and in one line of four an odd token, a repeated
        flag or another command's flag."""
        rng = random.Random(cls.SEED)

        def value(flag):
            if rng.randrange(6) == 5:
                return rng.choice(cls.BAD + CONFIG_NAMES)
            return rng.choice(CONFIG_NAMES if flag == "--config"
                              else cls.VALUES.get(flag, cls.FLOATS))

        lines = []
        for _ in range(count):
            command = rng.choice(["eval", "scan", "pmf"])
            options = cls.options(command)
            flags = rng.sample(options, rng.randint(0, min(6, len(options))))
            tokens = [token for flag in flags for token in (flag, value(flag))]
            if command == "scan" and "--out" not in flags and rng.randrange(4) < 3:
                tokens += ["--out", "x.csv"]
            if rng.randrange(4) == 3:
                extra = rng.choice(cls.ODD + cls.options("scan") + cls.options("pmf") + flags)
                at = rng.randint(0, len(tokens) // 2) * 2
                tokens[at:at] = [extra, value(extra)][:rng.randint(1, 2)]
            lines.append([command, *tokens])
        return lines

    def test_reader_agrees_with_argparse(self, config_files, monkeypatch):
        monkeypatch.chdir(Path(config_files[0]).parent)
        accepted = 0
        for index, argv in enumerate(self.lines()):
            with seeded_case(self.SEED, index, argv):
                read = qkdng.cli._read(argv)
                if read is not None:
                    accepted += 1
                    same_namespace(read, qkdng.cli._parse(argv))  # argparse exits on no line read
        assert accepted >= 40  # the comparison did run

    @pytest.mark.parametrize("argv", [
        ["scan", "--preset", "fig4", "--out", "x.csv"],
        ["scan", "--preset", "fig5", "--eta", "0.7", "--dark", "0.001", "--t-points", "960",
         "--out", "x.csv"],
        ["eval", "--preset", "fig4", "--T", "0.5", "--nu", "nan"],
        ["eval", "--noise", "thermal", "--detector", "spad", "--T", "0.5"],  # main names --nu
        ["pmf", "--l", "1", "--nbar", "0", "--T", "0.7"],
    ])
    def test_accepts_well_formed_lines(self, argv):
        read = qkdng.cli._read(argv)
        assert read is not None
        same_namespace(read, qkdng.cli._parse(argv))

    @pytest.mark.parametrize("tail", [
        ["-h"], ["--help"], ["--pre", "fig4"], ["--preset=fig4"], ["--eta", "-0.5"],
        ["--eta", "-1e-3"], ["--", "x"], ["--eta", "abc"], ["--t-points", "3.0"],
        ["--preset", "fig9"], ["--format", "xml"], ["--criteria", "bb84,x"], ["--eta"],
        ["--eta", "0.5", "--eta", "0.6"], ["--nu", "0.1"],
    ])
    def test_declines_other_lines(self, tail):
        assert qkdng.cli._read(["scan", "--preset", "fig4", "--out", "x.csv", *tail]) is None

    @pytest.mark.parametrize("argv", [[], ["--version"], ["scan", "--preset", "fig4"],
                                      ["bogus", "--eta", "1"]])
    def test_declines_lines_without_a_command_or_required_flag(self, argv):
        assert qkdng.cli._read(argv) is None

    def test_declines_failed_layer(self, config_files):
        # an uncastable file value or an unreadable file is argparse's, or main's, to report
        *_, not_utf8, bad, missing = config_files
        for config in (not_utf8, bad, missing):
            assert qkdng.cli._read(["eval", "--config", config, "--T", "0.5"]) is None

    def test_goldens_without_argparse(self, capsys, tmp_path, monkeypatch):
        from test_golden import ROOT, SCANS

        def refuse():
            raise AssertionError("argparse parsers built for a well-formed line")

        monkeypatch.setattr(qkdng.cli, "_parsers", refuse)
        for golden in ("fig3.csv", "fig4.csv", "fig5.csv"):
            out = tmp_path / golden
            assert run_cli(capsys, "scan", *SCANS[f"bench/golden/{golden}"],
                           "--out", str(out))[0] == 0
            assert out.read_bytes() == (ROOT / "bench/golden" / golden).read_bytes()
        code, out, _ = run_cli(capsys, "eval", "--preset", "fig4", "--T", "0.6", "--nu", "0.1")
        assert code == 0 and json.loads(out)["manifest"]["parameters"]["eta"] == 0.7
        code, out, _ = run_cli(capsys, "pmf", "--l", "1", "--nbar", "0", "--T", "0.7")
        assert code == 0 and out.startswith("s p\n0 0.3")


class TestFuzz:
    """Seeded random command lines through ``main``: an exit code, never a traceback or warning."""

    BASE = {  # a well-formed line of each command, to perturb
        "eval": ["--preset", "fig4", "--T", "0.5", "--nu", "0.1"],
        "scan": ["--preset", "fig3", "--t-points", "2"],
        "pmf": ["--l", "1", "--nbar", "0.5", "--T", "0.7"],
    }
    GOOD = {  # valid values of each flag; FLOATS for the rest
        "--noise": ["thermal", "poisson"], "--detector": ["pnrd", "spad"],
        "--preset": ["fig3", "fig4", "fig5"], "--format": ["csv", "json"],
        "--criteria": ["nongauss,bb84,di", "di", "bb84,nongauss"],
        "--t-points": ["1", "2", "3"], "--l": ["0", "1", "3"],
    }
    FLOATS = ["0.5", "0.02", "1", "0", "1e-3", "1e308", "5e-324"]
    BAD = ["nan", "inf", "-inf", "-1e-3", "-1E5", "-0.5", "", "abc", "2.5", "fig9", "xml",
           "bb84,bb84", "x"]
    CONFIGS = {
        "channel": "noise=poisson\ndetector=spad\neta=0.9\ndark=0.002\n",
        "search": "t-points=2\nnu_cap=1e308\ntol=5e-324\ncriteria=bb84,di\n",
        "odd": "preset=fig3\ncommand=pmf\nhandler=x\nformat=xml\nl=2\nunknown=1\n",
        "bad": "eta=abc\nT=nan\n",
        "not-key-value": "eta=0.5\njust words\n",
        "not-utf8": b"eta=0.5\n\xff\n",
    }
    ODD = ["-h", "--version", "--", "--eta=0.5", "--bogus", "--pre", "eval"]

    def line(self, rng, configs, out):
        command = rng.choice(list(self.BASE))
        tokens = [command, *self.BASE[command]]
        if command == "scan":
            tokens += ["--out", str(out if rng.random() < 0.85 else out.parent)]  # a folder: 1
        flags = [flag for flag, _ in qkdng.cli._COMMANDS[command][2] if flag != "--out"]
        for flag in rng.sample(flags, rng.randint(0, 3)):
            if flag == "--config":
                value = rng.choice(configs)
            elif flag == "--t-points" or rng.random() < 0.75:  # a scan's grid stays tiny
                value = rng.choice(self.GOOD.get(flag, self.FLOATS))
            else:
                value = rng.choice(self.BAD)
            tokens += [flag, value][:1 + (rng.random() < 0.97)]
        if rng.random() < 0.1:
            tokens.insert(rng.randint(1, len(tokens)), rng.choice(self.ODD))
        return tokens

    def test_every_line_exits_cleanly(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        configs = [str(tmp_path / "missing.conf")]
        for name, text in self.CONFIGS.items():
            data = text if isinstance(text, bytes) else text.encode()
            (tmp_path / f"{name}.conf").write_bytes(data)
            configs.append(str(tmp_path / f"{name}.conf"))
        rng = random.Random(2025)
        codes = collections.Counter()
        for _ in range(400):
            argv = self.line(rng, configs, tmp_path / "curve.csv")
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # also those an except clause would swallow
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: --help, --version and the lines it refuses
                    code = exc.code
            captured = capsys.readouterr()
            assert code in (0, 1, 2), argv
            assert "Traceback" not in captured.out + captured.err, argv
            assert not caught, (argv, [str(w.message) for w in caught])
            codes[code] += 1
        assert min(codes[0], codes[1], codes[2]) >= 10, codes  # every outcome was reached
