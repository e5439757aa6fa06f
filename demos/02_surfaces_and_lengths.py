"""
Surfaces from Fenchel-Nielsen coordinates
=========================================

Builds hyperbolic surfaces with geodesic boundary from their cuff lengths,
twists, and boundary lengths; computes geodesic lengths of curves through
the holonomy representation; and doubles the surface across its boundary
to measure arcs.
"""

import numpy as np

from teichspace import FNPoint, build_marking, orthogeodesic_self, phi_gamma
from teichspace.surface import (
    arc_length,
    boundary_word,
    curve_length,
    double,
    gamma_word,
    holonomy,
    mu_word,
)

# A genus-1 surface with two boundary components: one handle block glued to
# a chain pants that carries both boundaries.
m = build_marking(1, 2)
print("surface (g, n) = (1, 2):", m.pants_count, "pants,",
      m.ncurves, "internal curves")
print("internal curves:", [(e.index, e.left, e.right) for e in m.edges])

x = FNPoint(g=1, n=2, lengths=[2.0, 1.4], twists=[0.3, -0.8],
            boundary=[1.0, 1.5])
h = holonomy(x, m)
print("\nassembled holonomy, gluing residual:", h.relation_residual)

# Cuff and boundary words reproduce their assigned lengths through traces.
for k in range(m.ncurves):
    print(f"  cuff {k}: assigned {x.lengths[k]}, measured",
          curve_length(h, gamma_word(m, k)))
for i in range(2):
    print(f"  boundary {i}: assigned {x.boundary[i]}, measured",
          curve_length(h, boundary_word(m, i)))

# Dual curves cross the cuffs and respond to twisting.
print("\ndual curve lengths under twisting the handle:")
for t in np.linspace(0.0, 2.0, 5):
    xt = FNPoint(g=1, n=2, lengths=x.lengths, twists=[t, x.twists[1]],
                 boundary=x.boundary)
    print(f"  twist {t:+.1f}:", curve_length(holonomy(xt, m), mu_word(m, 0)))

# Forgetting the boundary lengths gives the punctured surface at the same
# coordinates; boundary words become parabolic (length zero).
px = phi_gamma(x)
ph = holonomy(px, m)
print("\npunctured image boundary lengths:",
      [curve_length(ph, boundary_word(m, i)) for i in range(2)])

# The double: mirror the surface and glue along the boundary.  Arcs of the
# original surface double to closed geodesics; half those lengths agree
# with the hexagon closed forms.
d = double(x, m)
print("\ndouble has genus", d.marking.genus, "and",
      d.marking.ncurves, "cuffs")
hd = d.holonomy()
for arc in m.arcs:
    print(f"  {arc.label()}: doubled-word length/2 =",
          arc_length(d, arc, hd))
print("closed form for the first self-arc:",
      orthogeodesic_self(x.boundary[0], x.lengths[1], x.boundary[1]))
