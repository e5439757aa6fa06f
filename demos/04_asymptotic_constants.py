"""
Asymptotic comparison constants
===============================

Closed-form constants comparing a bordered surface with its cusped
counterpart: conformal cusp radii, the truncation distortion constant, the
quasiconformal dilation of straightening short boundaries into cusps, the
additive bounds of the extremal-length comparison, and the contraction
factor of the infinite Nielsen extension.
"""

from teichspace import (
    bmms_dilation,
    comparison_bounds,
    cusp_radius,
    cusp_truncation_constant,
    nielsen_k_infinity,
)
from teichspace.pants_trig import DomainError

# The cusp neighbourhood bounded by a horocycle of length eps is conformally
# a punctured disc of this radius.
print("cusp radii:")
for eps in (1.0, 0.5, 0.1):
    print(f"  horocycle length {eps}: radius {cusp_radius(eps):.6e}")

# Truncating cusps distorts extremal lengths by at most this constant; it
# is defined only while the estimate's margin stays positive, and tends to
# 1 with the horocycle length.
print("\ntruncation distortion (one cusp):")
for eps in (1e-2, 1e-4, 1e-8, 1e-16):
    try:
        print(f"  eps = {eps:.0e}: C = {cusp_truncation_constant(eps, 1):.6f}")
    except DomainError as err:
        print(f"  eps = {eps:.0e}: outside validity domain ({err})")

# Straightening pants boundaries of short lengths into cusps costs a
# quasiconformal dilation close to 1.
print("\nstraightening dilation:")
for eps in (0.4, 0.2, 0.05):
    print(f"  boundary lengths ({eps}, {eps}): dilation",
          bmms_dilation([eps, eps]))

# Additive constants of the extremal-length comparison for n boundaries.
print("\ncomparison bounds by boundary count:")
for n in (1, 2, 4):
    b = comparison_bounds(n)
    print(f"  n = {n}: sup defect {b['sup_defect']:.4f}, coordinate bound "
          f"{b['coordinate_bound']:.4f}, split factor {b['split_factor']:.0f}")

# The infinite Nielsen extension shortens every interior closed geodesic by
# a factor bounded below by this infinite product.
print("\nNielsen contraction factor:")
for lam in (0.1, 0.5, 1.0, 2.0, 3.0):
    print(f"  max boundary {lam}: k = {nielsen_k_infinity(lam):.9f}")

k = nielsen_k_infinity(1.0)
print("\nlength bracket on the extension for a curve of length 3, "
      f"boundary at most 1: ({k * 3.0}, 3.0)")
