"""A checked-in snapshot of the link model at fixed points, compared in ulps.

``tests/golden/model-snapshot.txt`` holds, for all four noise/detector
pairings at the same points, what ``assess``, ``link_fields`` and
``noise_root`` (at both Q*) return.  The points are part of the ``edge`` set
of ``test_channels.point_sets``, points with T·eta within 1e-9 of 1, and
seeded random points; ``points()`` makes them without any randomness the
run could change.

Floats are stored as hex and must lie within ``ULPS`` floats of the stored
value, counted along the float line: a normal value within ``ULPS`` units
in its last place, a subnormal (whose spacing is fixed) absolutely, within
``ULPS * 2**-1074``.  NaN matches only NaN and an infinity only itself.
Every decision (``defined``, the witness verdict, ``di_defined``,
``q <= Q*``) must match exactly.  So a last-bit difference in libm or numpy
passes, and a relative change of 1e-12 (about 4,500 ulps) fails.

The test only reads the file.  A change that moves the model's numbers on
purpose rewrites it, and lists how many values moved and by how many ulps:

    PYTHONPATH=src python3 tests/test_snapshot.py
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import struct
from pathlib import Path

import numpy as np
import pytest

from qkdng.channels import (
    ChannelConfig, NoiseModel, NoiseStatistics, assess, link_fields, noise_root,
)
from qkdng.keyrates import Q_STAR_BB84, Q_STAR_DI
from qkdng.photodetection import DetectorKind, DetectorModel

SNAPSHOT = Path(__file__).parent / "golden" / "model-snapshot.txt"
ULPS = 4
PAIRINGS = tuple(itertools.product(NoiseStatistics, DetectorKind))
INPUTS = ("t", "nu", "eta", "dark", "p")
# "=" in a link_fields column: the same bits as the assess column of that name
FLOATS = ("q", "s", "p_s", "p_e", "margin", "r_bb84", "r_di", "link_margin", "link_q",
          "root_bb84", "root_di")
FLAGS = ("passed", "di_defined", "defined", "link_defined")
COLUMNS = ("statistics", "kind", *INPUTS, "q", "s", "p_s", "p_e", "margin", "passed", "r_bb84",
           "r_di", "di_defined", "defined", "link_defined", "link_margin", "link_q", "root_bb84",
           "root_di")


def points() -> list[tuple[float, ...]]:
    """(T, nu, eta, dark, p): T·eta near 1, part of the edge grid, then seeded points."""
    near_one = list(itertools.product((1.0 - 2.0**-53, 1.0 - 1e-10, 1.0), (0.0, 1e-6, 1.0),
                                      (1.0,), (0.0, 1e-3), (1.0,)))
    rng = random.Random(3011)
    edges = list(itertools.product(
        (0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0), (0.0, 5e-324, 1.0, 1e6, 1e308),
        (0.0, 1e-12, 0.5, 1.0), (0.0, 5e-324, 1e-3, 0.5, 700.0, 1e308), (0.0, 1.0),
    ))
    # nine significant digits keep the inputs short in the file
    seeded = [tuple(float(f"{x:.9g}") for x in (
        rng.random(), 10.0 ** rng.uniform(-4.0, 1.5), rng.random(),
        10.0 ** rng.uniform(-6.0, -0.3), rng.random(),
    )) for _ in range(75)]
    return near_one + rng.sample(edges, 30) + seeded


def record(statistics: NoiseStatistics, kind: DetectorKind, point) -> dict:
    """Every snapshot column at one point, floats as Python floats."""
    t, nu, eta, dark, p = point
    det = DetectorModel(kind, eta=eta, dark=dark)
    a = assess(ChannelConfig(t=t, p=p), NoiseModel(statistics, nu), det)
    fields = link_fields(statistics, np.array([t]), np.array([nu]), p, det)
    roots = [noise_root(statistics, np.array([t]), q_star, p, det)[0]
             for q_star in (Q_STAR_BB84, Q_STAR_DI)]
    return {
        "statistics": statistics.value, "kind": kind.value, **dict(zip(INPUTS, point)),
        "q": a.q, "s": a.s, "p_s": a.stats.p_s, "p_e": a.stats.p_e, "margin": a.witness.margin,
        "passed": a.witness.passed, "r_bb84": a.rates.bb84, "r_di": a.rates.di,
        "di_defined": a.rates.di_defined, "defined": a.coincidence_defined,
        "link_defined": bool(fields.defined[0]), "link_margin": float(fields.margin[0]),
        "link_q": float(fields.q[0]), "root_bb84": float(roots[0]), "root_di": float(roots[1]),
    }


def _format(name: str, value, row: dict) -> str:
    if name in FLAGS:
        return str(int(value))
    if isinstance(value, str):
        return value
    twin = name.removeprefix("link_")
    if twin != name and value.hex() == row[twin].hex():
        return "="
    return value.hex()


def _parse(line: str) -> dict:
    row = dict(zip(COLUMNS, line.split(), strict=True))
    for name, text in row.items():
        if name in FLAGS:
            row[name] = text == "1"
        elif text == "=":
            row[name] = row[name.removeprefix("link_")]
        elif name in INPUTS or name in FLOATS:
            row[name] = float.fromhex(text)
    return row


@functools.lru_cache(maxsize=None)
def stored() -> tuple[dict, ...]:
    lines = SNAPSHOT.read_text().splitlines()
    return tuple(_parse(line) for line in lines if not line.startswith("#"))


def _ordered(x: float) -> int:
    """x's bits as an integer that counts the floats in order; -0.0 and 0.0 are both 0."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulp_distance(got: float, want: float) -> float:
    """How many floats apart ``got`` and ``want`` lie; NaN and inf are 0 or infinitely far."""
    if math.isnan(got) or math.isnan(want) or math.isinf(got) or math.isinf(want):
        return 0 if got.hex() == want.hex() else math.inf
    return abs(_ordered(got) - _ordered(want))


def decisions(row: dict) -> dict:
    """Every verdict the scan and ``eval`` take from a record, by name."""
    out = {name: row[name] for name in FLAGS}
    out["link_passed"] = row["link_margin"] > 0.0
    for name, q_star in (("bb84", Q_STAR_BB84), ("di", Q_STAR_DI)):
        out[f"q_le_{name}"] = row["q"] <= q_star
        out[f"link_q_le_{name}"] = row["link_q"] <= q_star
    return out


def mismatches(got: dict, want: dict) -> list[str]:
    """What differs between two records beyond ``ULPS``, one line per column."""
    where = " ".join(f"{name}={want[name]!r}" for name in ("statistics", "kind", *INPUTS))
    out = [f"{where}: {name} {got[name].hex()} vs {want[name].hex()} "
           f"({ulp_distance(got[name], want[name])} ulps)"
           for name in FLOATS if ulp_distance(got[name], want[name]) > ULPS]
    want_decisions = decisions(want)
    out += [f"{where}: {name} {value} vs {want_decisions[name]}"
            for name, value in decisions(got).items() if value != want_decisions[name]]
    return out


@pytest.mark.parametrize("statistics,kind", PAIRINGS, ids=lambda x: x.value)
def test_model_matches_the_snapshot(statistics, kind):
    want = [row for row in stored() if (row["statistics"], row["kind"]) == (statistics, kind)]
    assert [tuple(row[name] for name in INPUTS) for row in want] == points()
    problems = [line for row, point in zip(want, points())
                for line in mismatches(record(statistics, kind, point), row)]
    assert not problems, f"{len(problems)} values off the snapshot:\n" + "\n".join(problems[:20])


def test_ulp_distance():
    assert ulp_distance(0.1 * (1.0 + 1e-12), 0.1) > 1000 * ULPS
    assert ulp_distance(math.nextafter(0.1, 1.0), 0.1) == 1
    assert ulp_distance(5e-324, 0.0) == ulp_distance(-5e-324, 0.0) == 1  # subnormals absolutely
    assert ulp_distance(math.nan, math.nan) == 0 and ulp_distance(math.nan, 0.0) == math.inf


def write_snapshot(path: Path = SNAPSHOT) -> None:
    """Rewrite the snapshot from the model as it is, and say how far each moved value went."""
    old = {tuple(row[name] for name in ("statistics", "kind", *INPUTS)): row
           for row in (stored() if path.exists() else ())}
    rows = [record(statistics, kind, point) for statistics, kind in PAIRINGS for point in points()]
    moved = [max(ulp_distance(row[name], old[key][name]) for name in FLOATS)
             for row in rows
             if (key := tuple(row[name] for name in ("statistics", "kind", *INPUTS))) in old]
    header = [
        "# qkdng model snapshot: assess, link_fields and noise_root at both Q*;",
        "# written by PYTHONPATH=src python3 tests/test_snapshot.py.  Floats are hex,",
        "# flags 0/1, and '=' in a link_ column repeats the assess column of that name.",
        "# " + " ".join(COLUMNS),
    ]
    body = [" ".join(_format(name, row[name], row) for name in COLUMNS) for row in rows]
    path.write_text("\n".join(header + body) + "\n")
    changed = [d for d in moved if d]
    print(f"wrote {len(rows)} records to {path}; {len(changed)} of {len(moved)} kept points "
          f"moved, by at most {max(changed, default=0)} ulps")


if __name__ == "__main__":
    write_snapshot()
