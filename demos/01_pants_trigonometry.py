"""
Closed-form trigonometry of hyperbolic pairs of pants
=====================================================

A hyperbolic pair of pants is determined by its three boundary lengths.
This script walks through the closed-form lengths of orthogeodesic arcs
(arcs meeting the boundary at right angles) and the comparison constants
that control how the arcs relate to neighbouring closed curves.
"""

from teichspace import (
    between_arc_constants,
    gap_constants,
    orthogeodesic_between,
    orthogeodesic_self,
    self_arc_constant,
)

# The arc joining two boundaries of lengths 2 and 2, in a pants whose third
# boundary has length 2:
print("arc between boundaries (2, 2) with third boundary 2:",
      orthogeodesic_between(2.0, 2.0, 2.0))

# The formula is symmetric in the two endpoint boundaries and increasing in
# the third one.
print("symmetry check:", orthogeodesic_between(1.0, 3.0, 2.0),
      "=", orthogeodesic_between(3.0, 1.0, 2.0))
for la in (0.0, 2.0, 4.0, 8.0):
    print(f"  third boundary {la:>3}: arc length",
          orthogeodesic_between(2.0, 2.0, la))

# Since the length increases with the third boundary, an arc shorter than
# the arc at a cusp (third boundary 0) bounds no pants: that length is the
# minimal feasible arc length.
print("minimal feasible arc length for (2, 2):", orthogeodesic_between(2.0, 2.0, 0.0))

# An arc from a boundary back to itself, with the two other boundary curves
# of its neighbourhood pants given:
print("self-arc at boundary 2 around curves (2, 2):",
      orthogeodesic_self(2.0, 2.0, 2.0))

# Comparison constants for a surface with boundary lengths (1, 1): these
# certify that whenever an arc gets longer between two hyperbolic metrics,
# some boundary curve of its neighbourhood pants grows at a proportional
# rate.
c = between_arc_constants([1.0, 1.0])
print("\nconstants for boundary lengths (1, 1):")
print("  coefficient bound        :", c.lam)
print("  length threshold log(2L) :", c.threshold)
print("  arc floor                :", c.arc_floor)
print("  curve cap                :", c.curve_cap)
print("  between-arc constant     :", c.ratio_const)
print("  self-arc constant        :", self_arc_constant([1.0, 1.0]))
g = gap_constants([1.0, 1.0])
print("  certified constant c     :", g.c)
print("  additive gap -log c      :", g.gap)

# The certified constant shrinks as the boundary gets long (the arc and
# curve scales decouple), stays positive throughout.
print("\ncertified constant across boundary scales:")
for lam in (0.25, 0.5, 1.0, 2.0, 4.0):
    print(f"  boundary ({lam}, {lam}): c = {gap_constants([lam, lam]).c:.6f}")
