#!/usr/bin/env python3
"""The delta/mu calculator: how many disjoint nodal curves a du Val
singularity configuration produces, and whether it fits on a K3 surface."""

from k3nodal import AdmissibilityReport, DuValConfig

print("Each A/D/E singularity resolves into a Dynkin tree of nodal curves;")
print("delta counts a maximum set of pairwise disjoint ones:")
print()
print("  type   delta   milnor")
for term in ("A1", "A2", "A3", "A16", "D4", "D6", "D7", "E6", "E7", "E8"):
    report = AdmissibilityReport(DuValConfig.parse(term))
    print(f"  {term:5s}  {report.delta:5d}   {report.mu:6d}")

print("\nConfigurations on a K3 surface must keep delta <= 16:")
for text in ("A1x16", "A1x17", "A2x16", "E8x4", "E7x4", "D6x4", "D7x4", "A16x4", "A2,D4x2,E7"):
    report = AdmissibilityReport(DuValConfig.parse(text))
    verdict = "admissible  " if report.admissible else "INADMISSIBLE"
    ratio = f"{report.ratio}" if report.ratio is not None else "n/a"
    print(f"  {text:12s} delta={report.delta:3d} mu={report.mu:3d} "
          f"delta/mu={ratio:6s} {verdict}")

print("\nNote the asymmetry between delta and the Milnor number: piling up")
print("singularities of high Milnor number drives delta/mu toward 1/2,")
print("so the 16-curve bound caps mu at 32 for pure E8 configurations.")
print("\nNote also A16: its delta under the floor formula is 8, so four of")
print("them reach delta = 32 and are rejected, unlike four D6, D7, E7 or E8.")
