"""
Spreading an annulus across the disk
====================================

A Schottky pair of disk automorphisms translates one annulus into a tree of
shrinking copies accumulating on the boundary circle.  Each copy carries a
corrected twist Hamiltonian scaled so its time-1 flow still rotates the
translated circle exactly once; the scales decay fast enough that the glued
function is continuous on the closed disk, with first derivatives falling
to zero at the boundary and n-th derivatives growing no faster than
r^{-(n-2)}.  Writes translates.svg next to this script.
"""

import os

from raagham import analytic_report, assemble_Hv, enumerate_group, schottky_pair
from raagham.lift import default_study_annulus
from raagham.textio import svg_disk_translates

here = os.path.dirname(os.path.abspath(__file__))

gens = schottky_pair(0.98)
depth = 6
elements = enumerate_group(gens, depth)
print(f"enumerated {len(elements)} group elements to word length {depth}")

annulus = default_study_annulus()
H = assemble_Hv("v", elements, annulus)
print("assembled Hamiltonian over", len(H.pieces), "disjoint translates")
print("sup |H| on the ring 0.999 <= |z| <= 1:", f"{H.boundary_ring_sup():.2e}")

report = analytic_report(H)
print("\nmax lambda^2 by word length (the area of a translate):")
for L, count, lam in report.lambda_table:
    print(f"  length {L}: {count:4d} elements, max lambda^2 = {lam:.3e}")
print("strictly decreasing beyond length 2:", report.lambda_monotone)

print("\nboundary growth of derivatives, log-log slope against 1/r:")
for n in sorted(report.slopes):
    target = max(0, n - 2)
    print(f"  n={n}: slope {report.slopes[n]:+.3f} "
          f"(growth exponent bound {target}, verdict <= {target + 0.3}: "
          f"{report.slope_verdicts[n]})")

with open(os.path.join(here, "translates.svg"), "w") as f:
    f.write(svg_disk_translates(H))
print("\nwrote translates.svg")
