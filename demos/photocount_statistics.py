"""Photocount statistics of a single photon mixed with thermal noise.

A signal Fock state meets a thermal noise mode on a beam splitter of
transmittance T; the transmitted port is what the receiver sees.  The empty
polarisation mode of the same receiver sees the l=0 version.  The port holds
the T-thinned Fock state plus thermal noise of mean (1-T)*nbar, which gives
both distributions in closed form.  This script prints them and what an
imperfect photon-number-resolving detector makes of them.

Run:  python demos/photocount_statistics.py
"""

from qkdng import DetectorKind, DetectorModel, detect_pmf, photocount_pmf

T = 0.5
NBAR = 1.0

print(f"transmitted-port distributions at T={T}, thermal mean nbar={NBAR}")
for l in (1, 0):
    pmf = photocount_pmf(l, NBAR, T)
    head = ", ".join(f"p[{s}]={p:.5f}" for s, p in enumerate(pmf.probs[:5]))
    print(f"  incident |{l}>: {head}, ...")
    print(f"    {len(pmf.probs)} rows tabulated, tail left out {pmf.truncation_tail:.1e}")

print()
print("the l=1, s=0 and s=1 values have closed forms 4/9 and 8/27 at these")
print("settings, which the library reproduces to machine precision.")

print()
print("coarse-grained counts {0, 1, >=2} behind the detector:")
for eta, dark in ((1.0, 0.0), (0.7, 0.001)):
    det = DetectorModel(DetectorKind.PNRD, eta=eta, dark=dark)
    out = detect_pmf(photocount_pmf(1, NBAR, T), det)
    print(
        f"  eta={eta:.1f}, dark={dark:.3f}:"
        f"  p0={out.p0:.5f}  p1={out.p1:.5f}  p2+={out.p_two_plus:.5f}"
    )

print()
print("with a perfect detector the mapping is the identity coarse-graining;")
print("losses shift weight toward zero counts, dark counts away from it.")
print("efficiency is one more thinning of the port, so these counts come from")
print("the closed form directly, without the table above.")
