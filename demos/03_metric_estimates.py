"""
Metric estimates over twist-orbit curve families
================================================

The curve-ratio (Thurston) metric and the arc metric are suprema of log
length ratios over infinitely many classes.  This script evaluates them
over nested finite families of certified-simple curves, showing the lower
bounds converging as the family depth grows, the ordering between the two
metrics, and the interval bracketing the quasiconformal metric.
"""

from teichspace import (
    FNPoint,
    arc_lower,
    build_marking,
    gap_constants,
    teich_interval_report,
    thurston_lower,
)

m = build_marking(1, 2)
boundary = (1.0, 1.0)
# A heavily twisted source point: the ratio-maximising class is then a
# high twist power of a dual seed, which only deep families contain.
x = FNPoint(g=1, n=2, lengths=[2.2, 1.1], twists=[-5.6, 4.9], boundary=boundary)
y = FNPoint(g=1, n=2, lengths=[1.3, 1.9], twists=[0.4, -0.2], boundary=boundary)

print("lower bounds as the twist-orbit family deepens:")
for depth in range(4):
    d_th = thurston_lower(x, y, m, depth)
    d_a = arc_lower(x, y, m, depth)
    print(f"  depth {depth}: d_th >= {d_th.value:.6f} (witness {d_th.witness}, "
          f"{d_th.family_size} classes), d_a >= {d_a.value:.6f} "
          f"(witness {d_a.witness})")

# The arc estimate always dominates the curve estimate, and the observed
# gap stays below the certified additive gap of the comparison constant.
d_th = thurston_lower(x, y, m, 3)
d_a = arc_lower(x, y, m, 3)
g = gap_constants(boundary)
print("\nobserved arc-vs-curve gap:", d_a.value - d_th.value)
print("certified additive gap   :", g.gap)

# Asymmetry and its symmetrisation, the larger of the two one-sided values.
back = thurston_lower(y, x, m, 3)
print("\nforward estimate :", d_th.value)
print("backward estimate:", back.value)
print("symmetrised      :", max(d_th.value, back.value))

# The quasiconformal metric cannot be evaluated exactly without extremal
# metrics; it is reported as an interval.  Its lower end is half the larger
# curve-ratio estimate of the two directions (a K-quasiconformal map
# stretches lengths by at most K).  Its upper end is half the largest
# log(pi/2) + l_max + log(l_max/l_min) over the family's classes, plus
# log(n+2): the extremal-length brackets' over the finite family, which
# grows with the depth and is not a certified bound.  At equal points the
# interval starts at zero.
rep = teich_interval_report(x, y, m, 2)
print("\nquasiconformal interval for (x, y):", rep.interval)
print("quasiconformal interval for (x, x):",
      teich_interval_report(x, x, m, 2).interval)

# The per-curve ingredient: on a bordered surface a curve of hyperbolic
# length l has log(l/pi) <= log Ext <= log(l/2) + l, a bracket of log width
# log(pi/2) + l.  The upper end's witness is reported with its wider
# bracket, log(pi/2) + l_max.
print(f"\nupper-end witness {rep.witness}: widest log bracket "
      f"{rep.witness_max_log_width:.6f}")
