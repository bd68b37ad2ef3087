"""The qkdng benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Each sample is one fresh child process (bench/child.py), run one at a time
from this single-threaded driver: a closed loop with one caller.  Every
child's output is checked against a reference, and a child that exits
non-zero, raises or misses its reference counts as failed.

Workloads, and why each is here:

  fig4-scan        ``qkdng scan --preset fig4`` at default flags: thermal
                   noise, PNRD, 96 values of T, 3 criteria, tol 1e-4.  The hot
                   path: nearly all of it is ``photocount_pmf``, whose table
                   cache is hit on most calls since bisection revisits one T.
  fig5-dense-scan  ``qkdng scan --preset fig5 --eta 0.7 --dark 0.001
                   --t-points 960``: closed-form Poisson noise, which never calls
                   ``photodetection``; its cost is the per-call Python overhead
                   of scan, channels, keyrates and witness.  960 points, since at
                   96 the import would be most of the run.
  thermal-points   a seeded stream of thermal+PNRD point evaluations (``assess``
                   then ``classify_assessment``), 600 per process, T uniform on
                   [0.02, 1], nu log-uniform on [1e-4, 10] (a Latin hypercube
                   sample), eta 0.7, dark 0.001.
                   Every T is new, so the table cache never hits.  nu stays at
                   or below 10 because larger means build tables of over 100 MB.

``--trace 0`` runs children until ``--seconds`` is spent and reports the
end-to-end metrics as medians over them.  ``--trace 1`` reports per-layer
metrics: it times ``python -X importtime`` imports, then runs pairs of an
untraced and a traced child on the same inputs, the traced one recording a
span around every call into the functions in tracer.TRACED.

The last line on stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (environment,
every sample, quartiles, problems found) is written to
.bench_out/results/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from common import (
    CHILD,
    CHILD_ENV_OVERRIDES,
    CRITERIA,
    GOLDEN,
    OUT,
    ROOT,
    SCANS,
    ChildRun,
    check_source,
    compare_scan,
    run_child,
    scan_argv,
)
from reference import check_point
from tracer import TRACED_NAMES, layer_stats

MIN_SAMPLES = 3        # children per untraced run, however short --seconds is
IMPORTTIME_RUNS = 5    # `python -X importtime` runs per traced run
POINTS_PER_CHILD = 600
ETA, DARK = 0.7, 0.001
T_RANGE = (0.02, 1.0)
LOG10_NU_RANGE = (-4.0, 1.0)

# --tiny shrinks each workload for the smoke test.  The scan grids are
# subsets of the reference grids (95 = 5*19 and 959 = 7*137 intervals), so
# every row still has a reference row.
TINY_T_POINTS = {"fig4-scan": 6, "fig5-dense-scan": 8}
TINY_POINTS_PER_CHILD = 20

END_TO_END = {  # name: unit
    "setup_s": "s",
    "wall_s": "s",
    "results_per_s": "1/s",
    "peak_rss_mb": "MB",
}
LAYER_STATS = {"calls": "count", "self_s": "s", "us_per_call": "us"}
PER_LAYER = {
    **{f"{name}.{stat}": unit for name in TRACED_NAMES for stat, unit in LAYER_STATS.items()},
    "photodetection.photocount_pmf.us_per_call_p50": "us",
    "photodetection.photocount_pmf.us_per_call_p99": "us",
    "scan.assess_per_boundary": "count",
    "scan.golden_rows_differing": "count",
    "import.scipy_s": "s",
    "import.numpy_s": "s",
    "import.qkdng_s": "s",
    "trace_overhead_frac": "frac",
}


@dataclass
class Sample:
    """One child run and the verdict on its output."""

    child: ChildRun
    results: int       # boundaries (scans) or point verdicts produced
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    golden_rows_differing: int = 0

    def record(self) -> dict:
        return {
            "wall_s": self.child.wall_s, "setup_s": self.child.setup_s,
            "peak_rss_mb": self.child.peak_rss_mb, "returncode": self.child.returncode,
            "results": self.results, "attempted": self.attempted, "failed": self.failed,
            "golden_rows_differing": self.golden_rows_differing,
        }


class ScanWorkload:
    """One ``qkdng scan`` per child, checked against its reference CSV."""

    def __init__(self, scan: str, t_points: int | None):
        flags, self.rows = SCANS[scan]
        self.flags = list(flags)
        if t_points is not None:
            self.flags += ["--t-points", str(t_points)]
            self.rows = t_points
        self.golden = (GOLDEN / f"{scan}.csv").read_text()

    def inputs(self, rng: random.Random) -> None:
        return None  # the scan flags are the whole input

    def run(self, workdir: Path, spans: str, inputs: None) -> Sample:
        out = workdir / "scan.csv"
        out.unlink(missing_ok=True)
        child = run_child(scan_argv(spans, self.flags, out), workdir)
        results = self.rows * CRITERIA
        problems = _child_problems(child)
        differing = 0
        if not problems:
            try:
                problems, differing = compare_scan(out.read_text(), self.golden, self.rows)
            except (OSError, ValueError, IndexError) as exc:
                problems = [f"unreadable scan output: {exc}"]
        return Sample(child, results, attempted=1, failed=1 if problems else 0,
                      problems=problems, golden_rows_differing=differing)


class PointsWorkload:
    """A batch of (T, nu) point evaluations per child, checked point by point."""

    def __init__(self, points: int):
        self.points = points

    def inputs(self, rng: random.Random) -> list[tuple[float, float]]:
        """A Latin hypercube sample: T uniform, nu log-uniform.

        Each of the ``points`` equal slices of either range holds exactly one
        point, so every batch has the same mix of small and large noise means
        (the table size, and so the cost of a point, grows with nu) and the
        batches differ in their exact points only.
        """
        n = self.points
        (t_lo, t_hi), (e_lo, e_hi) = T_RANGE, LOG10_NU_RANGE
        t_slices, nu_slices = rng.sample(range(n), n), rng.sample(range(n), n)
        return [(t_lo + (t_hi - t_lo) * (i + rng.random()) / n,
                 10.0 ** (e_lo + (e_hi - e_lo) * (j + rng.random()) / n))
                for i, j in zip(t_slices, nu_slices)]

    def run(self, workdir: Path, spans: str, inputs: list[tuple[float, float]]) -> Sample:
        in_path, out_path = workdir / "points.json", workdir / "verdicts.json"
        in_path.write_text(json.dumps({"eta": ETA, "dark": DARK, "points": inputs}))
        out_path.unlink(missing_ok=True)
        argv = [sys.executable, str(CHILD), spans, "points", str(in_path), str(out_path)]
        child = run_child(argv, workdir)
        problems = _child_problems(child)
        failed = len(inputs)
        if not problems:
            try:
                rows = json.loads(out_path.read_text())
            except (OSError, ValueError) as exc:
                rows, problems = [], [f"unreadable verdicts: {exc}"]
            if len(rows) != len(inputs):
                problems.append(f"{len(rows)} verdicts for {len(inputs)} points")
            else:
                failed = 0
                for (t, nu), row in zip(inputs, rows):
                    misses = check_point(row, t, nu, ETA, DARK)
                    failed += bool(misses)
                    problems += [f"T={t!r} nu={nu!r}: {miss}" for miss in misses]
        return Sample(child, len(inputs), attempted=len(inputs), failed=failed,
                      problems=problems)


def _child_problems(child: ChildRun) -> list[str]:
    if child.completed:
        return []
    tail = child.stderr.strip().splitlines()[-1:] or [""]
    return [f"child exited with {child.returncode} before finishing: {tail[0]}"]


# workload name: the reference scan one child runs, or None for the point stream
WORKLOADS = {"fig4-scan": "fig4", "fig5-dense-scan": "fig5-dense", "thermal-points": None}


def make_workload(name: str, tiny: bool):
    if WORKLOADS[name] is None:
        return PointsWorkload(TINY_POINTS_PER_CHILD if tiny else POINTS_PER_CHILD)
    return ScanWorkload(WORKLOADS[name], TINY_T_POINTS[name] if tiny else None)


def warm_up(workdir: Path) -> None:
    """Import the package once, untimed, so the first timed child starts warm.

    The first import in a fresh checkout reads cold files and may compile
    bytecode; later children would not pay for either.
    """
    child = run_child([sys.executable, "-c", "import qkdng.cli"], workdir)
    if child.returncode != 0:
        sys.exit(f"error: cannot import qkdng.cli from {ROOT / 'src'}:\n{child.stderr}")


def import_breakdown(workdir: Path) -> dict[str, float]:
    """Seconds that ``import qkdng.cli`` takes, and the parts numpy and scipy take.

    From ``python -X importtime``: ``qkdng`` is the whole import.  numpy's and
    scipy's parts are the cumulative times of their outermost imports, those
    not made from inside the other, so each includes whatever it pulls in that
    was not loaded before, and the two do not overlap.
    """
    child = run_child([sys.executable, "-X", "importtime", "-c", "import qkdng.cli"], workdir)
    if child.returncode != 0:
        sys.exit(f"error: python -X importtime failed:\n{child.stderr}")
    rows = []  # (depth, package, cumulative seconds); a module prints after its imports
    for line in child.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip().split(".")[0], int(cumulative_us) / 1e6))
    totals = {"qkdng": 0.0, "numpy": 0.0, "scipy": 0.0}
    enclosing: list[str] = []  # packages of the rows enclosing the current one
    for depth, package, cumulative in reversed(rows):
        del enclosing[depth:]
        if package == "qkdng" and depth == 0:
            totals[package] += cumulative
        elif package in ("numpy", "scipy") and not {"numpy", "scipy"} & set(enclosing):
            totals[package] += cumulative
        enclosing.append(package)
    return totals


def measure(workload, args, workdir: Path, rng: random.Random):
    """Run children until the time is spent; returns untraced and traced samples."""
    deadline = time.monotonic() + args.seconds
    plain, traced, layers, imports = [], [], [], []
    if not args.trace:
        while len(plain) < MIN_SAMPLES or time.monotonic() + plain[-1].child.wall_s <= deadline:
            plain.append(workload.run(workdir, "-", workload.inputs(rng)))
        return plain, traced, layers, imports
    imports = [import_breakdown(workdir) for _ in range(IMPORTTIME_RUNS)]
    spans = workdir / "spans.pickle"
    pair_s = 0.0
    while not traced or time.monotonic() + pair_s <= deadline:
        started = time.monotonic()
        inputs = workload.inputs(rng)
        # alternate which of the pair runs first, so drift hits both sides
        if len(traced) % 2:
            traced.append(workload.run(workdir, str(spans), inputs))
            plain.append(workload.run(workdir, "-", inputs))
        else:
            plain.append(workload.run(workdir, "-", inputs))
            traced.append(workload.run(workdir, str(spans), inputs))
        if traced[-1].child.completed:
            layers.append(layer_stats(str(spans)))
        spans.unlink(missing_ok=True)
        pair_s = time.monotonic() - started
    return plain, traced, layers, imports


def _summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(samples: list[Sample]) -> dict[str, list[float]]:
    """Times of every child that ran to the end, whether or not its output was right."""
    good = [s for s in samples if s.child.completed]
    return {
        "setup_s": [s.child.setup_s for s in good],
        "wall_s": [s.child.wall_s for s in good],
        "results_per_s": [s.results / s.child.work_s for s in good],
        "peak_rss_mb": [s.child.peak_rss_mb for s in good],
    }


def per_layer(plain, traced, layers, imports) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {name: [] for name in PER_LAYER}
    for stats, sample in zip(layers, (s for s in traced if s.child.completed)):
        for name in TRACED_NAMES:
            for stat in LAYER_STATS:
                values[f"{name}.{stat}"].append(stats[name][stat])
        pmf = stats["photodetection.photocount_pmf"]
        values["photodetection.photocount_pmf.us_per_call_p50"].append(pmf["us_per_call_p50"])
        values["photodetection.photocount_pmf.us_per_call_p99"].append(pmf["us_per_call_p99"])
        values["scan.assess_per_boundary"].append(
            stats["channels.assess"]["calls"] / sample.results)
    values["scan.golden_rows_differing"] = [
        max(s.golden_rows_differing for s in plain + traced)]
    for package in ("scipy", "numpy", "qkdng"):
        values[f"import.{package}_s"] = [entry[package] for entry in imports]
    values["trace_overhead_frac"] = [
        (t.child.work_s - p.child.work_s) / p.child.work_s
        for p, t in zip(plain, traced) if p.child.completed and t.child.completed
    ]
    return values


def environment(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "git_commit": _git_commit(),
        "child_env": {k: v for k, v in CHILD_ENV_OVERRIDES.items() if k != "PYTHONPATH"},
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one; never a parent repo's."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink each workload (smoke test only)")
    args = parser.parse_args(argv)
    check_source()
    rng = random.Random(args.seed)
    workload = make_workload(args.workload, args.tiny)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        warm_up(workdir)
        plain, traced, layers, imports = measure(workload, args, workdir, rng)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    samples = plain + traced
    attempted = sum(s.attempted for s in samples)
    failed = sum(s.failed for s in samples)
    if args.trace:
        units, values = PER_LAYER, per_layer(plain, traced, layers, imports)
    else:
        units, values = END_TO_END, end_to_end(samples)
    empty = [name for name, v in values.items() if not v]
    problems = [p for s in samples for p in s.problems]
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    if empty:
        print(f"error: no child ran to the end to measure {', '.join(empty)}", file=sys.stderr)
        return 1

    summaries = {name: _summary(v) for name, v in values.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(args.seed),
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "metrics": {name: {**summaries[name], "unit": units[name]} for name in units},
        "samples": {"untraced": [s.record() for s in plain],
                    "traced": [s.record() for s in traced]},
        "problems": problems[:100],
    }
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")

    for name, s in summaries.items():
        print(f"{name:50s} {s['median']:14.6g} {units[name]:6s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}")
    print(f"fail_frac {failed}/{attempted}; record in {result_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summaries[name]["median"], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
