"""Behaviour seen only from a fresh interpreter: exit, the module entry point,
searches and tables that must end and a scan's peak memory.

Each test starts ``python`` with ``src`` on ``PYTHONPATH``.  A search that
never ends is caught by the subprocess timeout instead of hanging the suite.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qkdng.channels import NoiseStatistics, noise_root
from qkdng.keyrates import Q_STAR_BB84, Q_STAR_DI
from qkdng.photodetection import DetectorKind, DetectorModel

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "bench" / "golden"
TIMEOUT_S = 20  # each run below ends within a few seconds (the memory gates), most well under one
CLI = ("-c", "import sys, qkdng.cli; sys.exit(qkdng.cli.main(sys.argv[1:]))")

# registered before qkdng's own handlers, so it runs after them (atexit is LIFO)
FREEZE_PROBE = (
    "import atexit, gc\n"
    "atexit.register(lambda: print('freeze_count', gc.get_freeze_count()))\n"
    "import {module}\n"
)

# runs its arguments as one child and prints that child's exit code and peak RSS,
# so RUSAGE_CHILDREN sees no other process (ru_maxrss is in KiB, bytes on macOS)
RSS_PROBE = (
    "import resource, subprocess, sys\n"
    "code = subprocess.call([sys.executable, *sys.argv[1:]])\n"
    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


# tabulates a photocount record built by hand from fields photocount_pmf refuses; one
# BLAS thread keeps the data segment small, and its limit stops a table that grows
# without end within seconds, before it fills the machine's memory
TABLE_PROBE = (
    "import os, resource\n"
    "os.environ.update(OPENBLAS_NUM_THREADS='1', OMP_NUM_THREADS='1')\n"
    "from qkdng.photodetection import PhotocountDistribution\n"
    "hard = resource.getrlimit(resource.RLIMIT_DATA)[1]\n"
    "resource.setrlimit(resource.RLIMIT_DATA, (1 << 29, hard))\n"
    "try:\n"
    "    PhotocountDistribution({fields}).probs\n"
    "except ValueError as exc:\n"
    "    print(type(exc).__name__, exc)\n"
)


def python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def freeze_count_at_exit(module: str) -> int:
    proc = python("-c", FREEZE_PROBE.format(module=module))
    assert proc.returncode == 0, proc.stderr
    label, count = proc.stdout.split()
    assert label == "freeze_count"
    return int(count)


class TestExitFreeze:
    """``qkdng.cli`` freezes the heap at exit; the library leaves GC alone."""

    def test_cli_import_freezes_heap_at_exit(self):
        assert freeze_count_at_exit("qkdng.cli") > 0

    def test_library_import_leaves_gc_alone(self):
        assert freeze_count_at_exit("qkdng") == 0

    def test_cli_scan_output_complete_at_exit(self, tmp_path):
        out = tmp_path / "fig3.csv"
        proc = python(*CLI, "scan", "--preset", "fig3", "--out", str(out), cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert out.read_bytes() == (GOLDEN / "fig3.csv").read_bytes()
        manifest = out.with_name(out.name + ".manifest.json")
        assert json.loads(manifest.read_text())["command"] == "scan"
        assert proc.stdout == f"wrote {out} and {manifest}\n"


def test_cli_module_runs_scan(tmp_path):
    out = tmp_path / "fig3.csv"
    proc = python("-m", "qkdng.cli", "scan", "--preset", "fig3", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / "fig3.csv").read_bytes()


def test_module_entry_point_runs_eval():
    proc = python("-m", "qkdng", "eval", "--noise", "thermal", "--detector", "pnrd",
                  "--T", "1", "--nu", "0.5")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["manifest"]["command"] == "eval"
    assert doc["region"]["bb84"] == "SecureAndNonGauss"


# runs main on its arguments and prints its exit code and whether argparse was loaded
ARGPARSE_PROBE = (
    "import sys, qkdng.cli\n"
    "try:\n"
    "    code = qkdng.cli.main(sys.argv[1:])\n"
    "except SystemExit as exit:\n"
    "    code = exit.code\n"
    "print(code, 'argparse' in sys.modules)\n"
)


@pytest.mark.parametrize("argv,loaded", [
    (["scan", "--preset", "fig3", "--t-points", "2", "--out", "x.csv"], False),
    (["scan", "--help"], True),
])
def test_argparse_loaded_only_when_needed(tmp_path, argv, loaded):
    proc = python("-c", ARGPARSE_PROBE, *argv, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loaded}"


class TestBisectionEnds:
    """A tolerance finer than the float spacing ends on a one-float bracket."""

    def test_scan_tolerance_below_float_spacing(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = python(*CLI, "scan", "--preset", "fig4", "--t-points", "2", "--t-min", "0.5",
                      "--t-max", "0.6", "--tol", "1e-20", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        t = np.array([float(row[0]) for row in rows])
        detector = DetectorModel(DetectorKind.PNRD, eta=0.7, dark=0.001)
        # the security rows replay bisection against the root: it ends on the root itself
        for column, q_star in ((2, Q_STAR_BB84), (3, Q_STAR_DI)):
            root = noise_root(NoiseStatistics.THERMAL, t, q_star, 1.0, detector)
            assert [float(row[column]) for row in rows] == root.tolist()
        assert all(0.0 < float(row[1]) < 10.0 for row in rows)

    LOSSY = ["--eta", "0.7", "--dark", "0.001"]

    # each pairing's witness column as a bisection on the model itself writes it
    @pytest.mark.parametrize("flags,witness", [
        pytest.param(["--preset", "fig4"], ["0.005887265122454051", "0.08120962771855736",
                                            "0.50849809538059"], id="fig4"),
        pytest.param(["--preset", "fig5", *LOSSY], ["0.006002701693482562", "0.11682180988085294",
                                                    "1.0489721209360776"], id="fig5"),
        pytest.param(["--noise", "thermal", "--detector", "spad", *LOSSY],
                     ["0.005944983407968307", "0.10389291392565972", "0.7206127946454787"],
                     id="thermal-spad"),
        pytest.param(["--noise", "poisson", "--detector", "pnrd", *LOSSY],
                     ["0.012640304527621934", "0.23081542377150738", "1.912379953943824"],
                     id="poisson-pnrd"),
    ])
    def test_scan_at_the_largest_cap_stays_quiet(self, tmp_path, flags, witness):
        # 0.5 * (nu_cap/2 + nu_cap) overflows: no opening row may hand the model inf, and
        # none of the 1,036 later witness steps may overflow in the closed form or the model
        out = tmp_path / "x.csv"
        proc = python("-W", "error", *CLI, "scan", *flags, "--nu-cap", "1.7e308",
                      "--t-points", "5", "--out", str(out))
        assert proc.returncode == 0 and proc.stderr == ""
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[1] for row in rows[:-1]] == ["0.0", *witness]
        assert rows[-1] == "1.0,1.7e+308,1.7e+308,1.7e+308,true,true,true"

    @pytest.mark.parametrize("protocol,q_star", [("bb84", Q_STAR_BB84), ("di", Q_STAR_DI)])
    def test_security_threshold_tolerance_below_float_spacing(self, protocol, q_star):
        proc = python("-c", "from qkdng import security_threshold; "
                            f"print(repr(security_threshold({protocol!r}, tol=1e-20)))")
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) in (q_star, math.nextafter(q_star, 1.0))


@pytest.mark.parametrize("fields,what", [
    ("1, float('nan'), 0.5", "transmittance"), ("1, 0.5, float('nan')", "thermal mean m"),
])
def test_nan_record_refused_not_tabulated(fields, what):
    proc = python("-c", TABLE_PROBE.format(fields=fields))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"DomainError {what} must be finite"), proc.stdout


class TestScanMemory:
    """A scan sweeps and writes the grid in chunks: beyond the validated grid
    itself (~32 B per point), its memory does not grow with the grid."""

    # a scan that held the whole grid's results needed 307 MB (CSV) and 276 MB (JSON)
    # on a 2-vCPU VM with Python 3.11 and numpy 2.4
    PEAK_MB = 80

    @pytest.mark.parametrize("fmt,points", [("csv", 300_000), ("json", 50_000)])
    def test_large_grid_peak_rss(self, tmp_path, fmt, points):
        out = tmp_path / f"scan.{fmt}"
        proc = python("-c", RSS_PROBE, *CLI, "scan", "--preset", "fig5", "--eta", "0.7",
                      "--dark", "0.001", "--t-points", str(points), "--format", fmt,
                      "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        code, max_rss = map(int, proc.stdout.splitlines()[-1].split())
        assert code == 0, proc.stderr
        peak_mb = max_rss / (2**20 if sys.platform == "darwin" else 2**10)
        assert peak_mb < self.PEAK_MB
        with out.open() as fh:
            if fmt == "csv":
                assert sum(1 for _ in fh) == points + 1  # the header and one row per T
            else:
                assert sum(line.startswith('      "T": ') for line in fh) == points
        with out.open("rb") as fh:
            fh.seek(-8, os.SEEK_END)
            assert fh.read().endswith(b"\n" if fmt == "csv" else b"\n  ]\n}\n")
