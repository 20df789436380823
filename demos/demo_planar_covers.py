"""
Planar covers of nonplanar graphs
=================================

K5 and K6 are not planar, but each has a planar 2-fold cover (they embed in
the projective plane, and the cover lives on the sphere).  The search walks
cyclic voltage assignments until a connected planar derived graph appears,
then revalidates everything.  At the other extreme, valence >= 6 everywhere
rules planar emulators out entirely by an Euler count.
"""

import sys

from raagham import (
    certificate_no_emulator,
    check_orbicover,
    complete_graph,
    find_planar_emulator,
)
from raagham.graphs import EmulatorResult, NoEmulatorCertificate, validate_embedding

for n in (5, 6):
    g = complete_graph([chr(ord("a") + i) for i in range(n)])
    res = find_planar_emulator(g, max_sheets=2, allow_trivial=False)
    if not isinstance(res, EmulatorResult):
        sys.exit(f"K{n}: expected a planar 2-fold cover, got {type(res).__name__}")
    cover = res.cover
    print(f"K{n}: planar 2-fold cover with {len(cover.vertices)} vertices "
          f"and {len(cover.edges)} edges")
    print("   orbi-cover recheck:", type(check_orbicover(res.projection)).__name__)
    print("   straight-line drawing valid:", validate_embedding(res.embedding))
    if n == 6:
        v, e = len(cover.vertices), len(cover.edges)
        print(f"   e = {e} = 3v - 6 = {3 * v - 6}: the cover is forced to be "
              "a triangulation")

# K7 is 6-regular: any drawing of anything covering it would violate Euler
k7 = complete_graph(list("abcdefg"))
cert = certificate_no_emulator(k7)
if not isinstance(cert, NoEmulatorCertificate):
    sys.exit(f"K7: expected a no-emulator certificate, got {type(cert).__name__}")
print(f"\nK7: minimum valence {cert.min_valence} >= 6, so "
      f"v - e/3 = {cert.euler_gap():.2f} <= 0 < 2 = chi(S^2): "
      "no planar emulator can exist")
out = find_planar_emulator(k7, max_sheets=3)
print("   search agrees:", type(out).__name__, "-", out.reason)
