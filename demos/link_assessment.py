"""Assess single channel points and name the region they fall in.

One call produces everything the two decisions need: the QBER and CHSH
score, both key-rate bounds, the witness coincidence statistics and the
verdict.  The classifier then names the region per protocol, which is the
quantity the boundary maps sweep.

Run:  python demos/link_assessment.py
"""

from qkdng import (
    ChannelConfig,
    Criterion,
    DetectorKind,
    DetectorModel,
    NoiseModel,
    NoiseStatistics,
    ScanConfig,
    assess,
    classify,
)

DET = DetectorModel(DetectorKind.PNRD, eta=0.7, dark=0.001)

points = [
    (0.9, 0.02, "strong coupling, almost quiet"),
    (0.55, 0.08, "moderate coupling and noise"),
    (0.55, 0.4, "same coupling, noise past both boundaries"),
    (0.08, 0.0, "weak coupling, no noise at all"),
]

print("thermal link behind an imperfect PNRD (eta=0.7, dark=0.001):")
for t, nu, label in points:
    out = assess(ChannelConfig(t=t, p=1.0), NoiseModel(NoiseStatistics.THERMAL, nu), DET)
    print(f"\n  {label}  (T={t}, nu={nu})")
    print(f"    Q={out.q:.4f}  S={out.s:.4f}  r_BB84={out.rates.bb84:+.4f}", end="")
    if out.rates.di_defined:
        print(f"  r_DI={out.rates.di:+.4f}")
    else:
        print("  r_DI undefined (no CHSH violation)")
    print(f"    P_s={out.stats.p_s:.4f}  P_e={out.stats.p_e:.5f}  "
          f"witness {'passed' if out.witness.passed else 'failed'}")

print("\nregion labels per protocol:")
config = ScanConfig(
    t_grid=(0.5,), statistics=NoiseStatistics.THERMAL, detector=DET, p=1.0
)
for t, nu, label in points:
    regions = classify(t, nu, config)
    print(f"  T={t:4}, nu={nu:4}:  BB84 {regions[Criterion.BB84].value:18s}"
          f"  DI {regions[Criterion.DI].value}")

print("\nthe weak-coupling point shows the inconclusive regime: the key rate")
print("is still positive but the witness cannot certify the light, so the")
print("pre-check says nothing there.")
