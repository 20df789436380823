"""
Annulus configurations and twist dynamics
=========================================

A planar graph becomes a configuration of overlapping disks: adjacent
circles cross in exactly two points, non-adjacent ones stay apart, and
thickening every circle gives annuli whose nerve is the graph again.  Each
generator acts as the N-th power of a double Dehn twist supported on its
annulus; punctures pinned on the circles and in the complementary regions
stay fixed.  Writes config.svg and orbits.svg next to this script.
"""

import os

import numpy as np

from raagham import (
    build_representation,
    cycle_graph,
    rep_apply,
    verify_relations,
    word_from_tokens,
)
from raagham.textio import svg_configuration, svg_orbits

here = os.path.dirname(os.path.abspath(__file__))

g = cycle_graph(["w", "x", "y", "z"])
rep = build_representation(g, N=2)
cfg = rep.config
print("configuration for the 4-cycle:")
print("  inflation delta:", round(cfg.provenance["delta"], 5))
print("  widths:", {v: round(w, 4) for v, w in cfg.widths.items()})
print("  complementary components:", len(cfg.region_points))
print("  punctures:", len(cfg.all_punctures()))

with open(os.path.join(here, "config.svg"), "w") as f:
    f.write(svg_configuration(cfg))
print("wrote config.svg")

# push the marked points through a word and draw the displacements
word = word_from_tokens(g, "w x w^-1 x^-1".split())
marked = cfg.marked_points()
moved = rep_apply(rep, word, marked)
disp = np.hypot(*(moved - marked).T)
print(f"\ncommutator [w, x] on {len(marked)} marked points: "
      f"max displacement {disp.max():.4f} (the edge resists commuting)")

word2 = word_from_tokens(g, "w y w^-1 y^-1".split())
moved2 = rep_apply(rep, word2, marked)
print(f"commutator [w, y]: max displacement "
      f"{np.abs(moved2 - marked).max():.2e} (non-adjacent annuli are disjoint)")

with open(os.path.join(here, "orbits.svg"), "w") as f:
    f.write(svg_orbits(cfg, marked, moved))
print("wrote orbits.svg")

report = verify_relations(rep, samples=200, seed=0)
print("\nrelation report: all passed =", report.all_passed())
for row in report.rows():
    print(f"  {row['check']:>16} {row['pair']:<8} displacement {row['displacement']:.3e}")
