"""The reference scans, byte for byte.

Each CSV under ``bench/golden`` is the output of ``qkdng scan <flags>`` saved
before any optimisation; a change that moves one boundary decision shows up
here.  The flags are those of the benchmark's reference scans (fig5 fixes
no detector numbers, so it takes those of fig4).  The files under
``tests/golden`` cover what those four do not: the two cross pairings
(thermal noise on a SPAD, Poisson noise on a PNRD) and a probed scan written
as JSON.
"""

from pathlib import Path

import pytest

from qkdng.cli import main

ROOT = Path(__file__).resolve().parent.parent
LOSSY = ["--eta", "0.7", "--dark", "0.001"]

SCANS = {
    "bench/golden/fig3.csv": ["--preset", "fig3"],
    "bench/golden/fig4.csv": ["--preset", "fig4"],
    "bench/golden/fig5.csv": ["--preset", "fig5", *LOSSY],
    "bench/golden/fig5-dense.csv": ["--preset", "fig5", *LOSSY, "--t-points", "960"],
    "tests/golden/thermal-spad.csv": ["--noise", "thermal", "--detector", "spad", *LOSSY],
    "tests/golden/poisson-pnrd.csv": ["--noise", "poisson", "--detector", "pnrd", *LOSSY],
    "tests/golden/fig4-probe.json": ["--preset", "fig4", "--probe-points", "9",
                                     "--format", "json"],
}


@pytest.mark.parametrize("golden", list(SCANS), ids=lambda path: Path(path).stem)
def test_scan_csv_is_byte_identical_to_golden(golden, tmp_path, capsys):
    out = tmp_path / Path(golden).name
    assert main(["scan", *SCANS[golden], "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == (ROOT / golden).read_bytes()
