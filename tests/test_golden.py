"""The reference scans, byte for byte.

Each CSV under ``bench/golden`` is the output of ``qkdng scan <flags>`` saved
before any optimisation; a change that moves one boundary decision shows up
here.  The flags are those of the benchmark's reference scans (fig5 fixes
no detector numbers, so it takes those of fig4).
"""

from pathlib import Path

import pytest

from qkdng.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "bench" / "golden"

SCANS = {
    "fig3": ["--preset", "fig3"],
    "fig4": ["--preset", "fig4"],
    "fig5": ["--preset", "fig5", "--eta", "0.7", "--dark", "0.001"],
    "fig5-dense": ["--preset", "fig5", "--eta", "0.7", "--dark", "0.001",
                   "--t-points", "960"],
}


@pytest.mark.parametrize("name", list(SCANS))
def test_scan_csv_is_byte_identical_to_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(["scan", *SCANS[name], "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
