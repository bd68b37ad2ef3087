"""Paths, child processes and scan definitions shared by the benchmark scripts."""

from __future__ import annotations

import bisect
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
OUT = ROOT / ".bench_out"

CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 60.0  # the slowest child (a fig4 scan) takes about 6 s

# Children get the package from the checkout's src only.  BLAS is held to one
# thread: the benchmark measures one single-threaded child at a time, and idle
# BLAS worker threads competing for a core only add noise on a shared box.
CHILD_ENV_OVERRIDES = {
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# Scans with a stored reference CSV: the qkdng scan flags and the grid size.
# fig5 fixes no detector numbers, so it takes those of fig4.
SCANS = {
    "fig3": (["--preset", "fig3"], 96),
    "fig4": (["--preset", "fig4"], 96),
    "fig5": (["--preset", "fig5", "--eta", "0.7", "--dark", "0.001"], 96),
    "fig5-dense": (["--preset", "fig5", "--eta", "0.7", "--dark", "0.001",
                    "--t-points", "960"], 960),
}
SCAN_TOL = 1e-4  # the scans' bisection tolerance; a boundary may move by this much
CRITERIA = 3


def child_env() -> dict[str, str]:
    return {**os.environ, **CHILD_ENV_OVERRIDES}


def check_source() -> None:
    """Exit with an error when the checkout holds no qkdng sources."""
    if not (SRC / "qkdng" / "__init__.py").is_file():
        sys.exit(f"error: no qkdng package under {SRC}")


@dataclass
class ChildRun:
    returncode: int
    wall_s: float     # spawn to exit
    setup_s: float    # spawn to qkdng and qkdng.cli imported; NaN if never reached
    peak_rss_mb: float
    stderr: str

    @property
    def completed(self) -> bool:
        """Exited cleanly after reporting its set-up time, so its times count."""
        return self.returncode == 0 and not math.isnan(self.setup_s)

    @property
    def work_s(self) -> float:
        return self.wall_s - self.setup_s


def run_child(argv: list[str], workdir: Path) -> ChildRun:
    """Run one child to completion, timing it and reading its own rusage."""
    stdout_path = workdir / "child.stdout"
    stderr_path = workdir / "child.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            ended = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    stderr = stderr_path.read_text(errors="replace")
    setup_s = float("nan")
    for line in stderr.splitlines():
        if line.startswith("bench-setup "):
            setup_s = float(line.split()[1]) - spawned
    return ChildRun(
        returncode=proc.returncode,
        wall_s=ended - spawned,
        setup_s=setup_s,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        stderr=stderr,
    )


def scan_argv(spans: str, flags: list[str], out: Path) -> list[str]:
    return [sys.executable, str(CHILD), spans, "scan", *flags, "--out", str(out)]


def compare_scan(
    text: str, golden: str, rows: int, tol: float = SCAN_TOL
) -> tuple[list[str], int]:
    """Problems found against a reference CSV, and rows not byte-identical.

    ``rows`` is the number of grid points the scan ran.  Rows are matched on
    T, so a scan on a grid that is a subset of the reference grid is checked
    too.  A row fails when a boundary moves by more than ``tol``, when one
    side is undefined and the other is not, or when a ``capped`` flag differs.
    """
    out_lines = text.splitlines()
    ref_lines = golden.splitlines()
    if not out_lines or out_lines[0] != ref_lines[0]:
        return ["header differs from the reference"], rows
    problems = []
    if len(out_lines) - 1 != rows:
        problems.append(f"{len(out_lines) - 1} rows, expected {rows}")
    ref_rows = {float(line.split(",", 1)[0]): line for line in ref_lines[1:]}
    ref_ts = sorted(ref_rows)
    differing = 0
    for line in out_lines[1:]:
        fields = line.split(",")
        t = float(fields[0])
        i = bisect.bisect_left(ref_ts, t)
        nearest = min(ref_ts[max(i - 1, 0):i + 1], key=lambda r: abs(r - t))
        if abs(nearest - t) > 1e-12:
            problems.append(f"T={t!r}: no reference row")
            differing += 1
            continue
        ref_line = ref_rows[nearest]
        if line == ref_line:
            continue
        differing += 1
        ref_fields = ref_line.split(",")
        nu, ref_nu = fields[1:1 + CRITERIA], ref_fields[1:1 + CRITERIA]
        for got, want in zip(nu, ref_nu):
            if (got == "") != (want == "") or (got and abs(float(got) - float(want)) > tol):
                problems.append(f"T={t!r}: boundary {got or 'undefined'} "
                                f"against reference {want or 'undefined'}")
        if fields[1 + CRITERIA:] != ref_fields[1 + CRITERIA:]:
            problems.append(f"T={t!r}: capped flags {fields[1 + CRITERIA:]} "
                            f"against reference {ref_fields[1 + CRITERIA:]}")
    return problems, differing
