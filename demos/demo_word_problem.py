"""
Words in an Artin-graph group
=============================

Generators commute exactly when their vertices are NOT adjacent, so an edge
is an obstruction.  This script builds a small graph, reduces some words,
confirms that each equals its normal form (w * nf(w)^-1 reduces to the
empty word), and walks through the doubling trick: g_v -> g_{v+} g_{v-}
into the doubled graph, split by the retraction that kills the minus
copies.  It exits non-zero if any check fails.
"""

import sys

from raagham import (
    SimplicialGraph,
    double,
    geodesic_length,
    hom_apply,
    hom_diagonal,
    hom_retraction,
    normal_form,
    word_from_tokens,
)

# a path u - v - w: u and w commute, everything touching v does not
g = SimplicialGraph(["u", "v", "w"], [("u", "v"), ("v", "w")])

w = word_from_tokens(g, "w u v u^-1 w^-1 w".split())
nf = normal_form(w)
print("word:        ", " ".join(w.tokens()))
print("normal form: ", " ".join(nf.word.tokens()))
print("length:      ", len(w), "->", geodesic_length(w))

# w and its normal form are one group element: w * nf(w)^-1 reduces to nothing
quotient = normal_form(w * nf.word.inverse())
print("w * nf(w)^-1 reduces to the empty word:", len(quotient) == 0)
if len(quotient):
    sys.exit("w * nf(w)^-1 does not reduce to the empty word")

# commutators: non-edges die, edges survive
uv = word_from_tokens(g, "u v u^-1 v^-1".split())
uw = word_from_tokens(g, "u w u^-1 w^-1".split())
print("[u,v] trivial?", geodesic_length(uv) == 0)   # edge: no
print("[u,w] trivial?", geodesic_length(uw) == 0)   # non-edge: yes
if geodesic_length(uv) == 0 or geodesic_length(uw) != 0:
    sys.exit("commutators: [u,v] must survive and [u,w] must die")

# the double: one plus and one minus copy per vertex, cross edges over edges
dg = double(g)
print("\ndouble:", len(dg.vertices), "vertices,", len(dg.edges), "edges")

delta = hom_diagonal(g)
pi = hom_retraction(g)
image = hom_apply(delta, w)
print("diagonal image length:", geodesic_length(image), "= 2 x", geodesic_length(w))
if geodesic_length(image) != 2 * geodesic_length(w):
    sys.exit("the diagonal image is not twice as long")
back = hom_apply(pi, image)
print("retraction undoes it:", normal_form(back).word == nf.word)
if normal_form(back).word != nf.word:
    sys.exit("the retraction does not undo the diagonal")
