"""Independent closed-form reference for thermal-noise PNRD point evaluations.

Each signal photon reaches the transmitted port with probability T and the
port carries additive thermal noise of mean m = (1-T)*nbar, so for l = 0, 1
incident photons the photon-number distribution there is

    l=0:  p(s) = m^s / (1+m)^(s+1)
    l=1:  p(s) = (1-T) m^s / (1+m)^(s+1) + T m^(s-1) (m^2 + s) / (1+m)^(s+2)

(the second l=1 term is T m / (1+m)^2 at s=0).  Detector efficiency eta is
one more thinning, (T, m) -> (T eta, eta m); dark counts d then give
p0 = e^-d p~0 and p1 = e^-d (p~1 + d p~0).  No truncated sums and no code of
the package are used, so this checks the amplitude-table path from outside.
"""

from __future__ import annotations

import math

ABS_TOL = 1e-12  # worst deviation seen over 400 seeded points was 6.7e-16
S_MAX = 2.0 * math.sqrt(2.0)


def _counts(l: int, t: float, m: float, dark: float) -> tuple[float, float]:
    """Detected-count probabilities (p0, p1) behind the detector-folded channel."""
    g0 = 1.0 / (1.0 + m)
    g1 = m / (1.0 + m) ** 2
    if l == 0:
        p0, p1 = g0, g1
    else:
        p0 = (1.0 - t) * g0 + t * m / (1.0 + m) ** 2
        p1 = (1.0 - t) * g1 + t * (m * m + 1.0) / (1.0 + m) ** 3
    damp = math.exp(-dark)
    return damp * p0, damp * (p1 + dark * p0)


def thermal_point(t: float, nu: float, eta: float, dark: float, p: float = 1.0) -> dict:
    """QBER, success and error coincidence probabilities at one point."""
    t_det, m_det = t * eta, eta * (1.0 - t) * nu
    p00, p10 = _counts(0, t_det, m_det, dark)
    p01, p11 = _counts(1, t_det, m_det, dark)
    norm = (p11 * p00 + p10 * p01) ** 2
    q = (4.0 * p * p11 * p00 * p01 * p10 + (1.0 - p) * norm) / (2.0 * norm)
    return {"q": min(max(q, 0.0), 0.5), "p_s": p11 * p11, "p_e": 1.0 - p01 - p11}


def check_point(row: dict, t: float, nu: float, eta: float, dark: float) -> list[str]:
    """Ways in which one evaluated point misses the reference or an invariant."""
    if "error" in row:
        return [f"raised {row['error']}"]
    problems = []
    if not row["defined"]:
        return ["no coincidences, but the reference has them at every T > 0"]
    ref = thermal_point(t, nu, eta, dark)
    for key in ("q", "p_s", "p_e"):
        if not abs(row[key] - ref[key]) <= ABS_TOL:
            problems.append(f"{key}={row[key]!r}, reference {ref[key]!r}")
    q, s = row["q"], row["s"]
    if not 0.0 <= q <= 0.5:
        problems.append(f"Q={q!r} outside [0, 1/2]")
    if not abs(s - S_MAX * (1.0 - 2.0 * q)) <= ABS_TOL:
        problems.append(f"S={s!r} is not 2*sqrt(2)*(1-2Q)")
    if row["di_defined"] and not row["bb84"] >= row["di"]:
        problems.append(f"DI rate {row['di']!r} above BB84 rate {row['bb84']!r}")
    problems += _check_regions(row)
    return problems


def _check_regions(row: dict) -> list[str]:
    """The region labels must follow from the witness and rate fields."""
    nongauss = row["passed"]
    secure = {"bb84": row["bb84"] > 0.0, "di": row["di_defined"] and row["di"] > 0.0}
    problems = []
    for protocol, holds in secure.items():
        want = ("SecureAndNonGauss" if holds and nongauss else "SecureOnly" if holds
                else "NonGaussOnly" if nongauss else "Neither")
        if row["region"].get(protocol) != want:
            problems.append(f"region[{protocol}]={row['region'].get(protocol)!r}, expected {want}")
    return problems
