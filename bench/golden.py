"""Run the reference scans once, untimed, and diff them against bench/golden.

    python3 bench/golden.py

Checks fig3, fig4 and fig5 at default flags (fig5 with eta 0.7 and dark
0.001, which its preset leaves open) and the 960-point fig5 scan of the
benchmark.  Each reference CSV is the output of ``qkdng scan <flags>`` (the
flags are in common.SCANS) at the seed code, commit 8b9d87f, before any
optimisation.  A scan fails when a boundary moves by more than the scan
tolerance or a ``capped`` flag differs; rows that are not byte-identical are
counted either way.  Exits with 1 if any scan fails.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

from common import GOLDEN, OUT, SCANS, check_source, compare_scan, run_child, scan_argv


def main() -> int:
    check_source()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=OUT))
    failed = False
    try:
        for name, (flags, rows) in SCANS.items():
            out = workdir / f"{name}.csv"
            child = run_child(scan_argv("-", flags, out), workdir)
            if child.returncode != 0:
                print(f"{name}: FAIL, exit code {child.returncode}\n{child.stderr}")
                failed = True
                continue
            golden = (GOLDEN / f"{name}.csv").read_text()
            problems, differing = compare_scan(out.read_text(), golden, rows)
            print(f"{name}: {'FAIL' if problems else 'ok'}, "
                  f"{differing} of {rows} rows not byte-identical")
            for problem in problems:
                print(f"  {problem}")
            failed = failed or bool(problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
