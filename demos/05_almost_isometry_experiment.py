"""
Forgetting the boundary: an almost-isometry experiment
======================================================

The map that keeps the Fenchel-Nielsen cuff lengths and twists but sets
every boundary length to zero sends the space of bordered surfaces to the
space of cusped ones.  Distances measured before and after the map should
differ by at most an additive constant.  This script measures that
distortion empirically: along a twist ray, and over a random sample.
"""

from teichspace import (
    ExperimentConfig,
    almost_isometry_report,
    compare_metrics,
    phi_experiment,
    sample_point,
    verify_arc_construction,
)

cfg = ExperimentConfig(g=1, n=2, boundary=(1.0, 1.0), seed=20260809,
                       depth=2, samples=12)
m = cfg.marking()

# Along a twist ray the bordered and cusped estimates both grow, and their
# difference levels off instead of diverging.
x = sample_point(cfg, 0)
rep = phi_experiment(x, m, curve_index=1, step=1.0, count=9, depth=2)
print("twist ray (bordered vs cusped curve-ratio estimates):")
for row in rep["rows"]:
    print(f"  offset {row['twist_offset']:4.1f}: bordered "
          f"{row['d_th_bordered']:.4f}, cusped {row['d_th_punctured']:.4f}, "
          f"difference {row['difference']:.4f}")
print("max difference:", rep["max_difference"])

# Over a random sample, the largest additive distortion observed between
# the arc metric upstairs and the curve-ratio metric downstairs:
samples = [sample_point(cfg, i) for i in range(cfg.samples)]
air = almost_isometry_report(samples, m, cfg.depth)
print(f"\nalmost-isometry distortion over {air.pairs} ordered pairs:",
      air.b_bound)
print("worst pair of sample indices:", air.worst_pair)

# Per-pair comparison rows also record the certified gap between the arc
# and curve-ratio metrics; the observed gap sits far below it.
row = compare_metrics(samples[0], samples[1], m, cfg.depth)
print("\none comparison row:")
for key in ("d_th", "d_a", "d_a_minus_d_th", "gap_constant"):
    print(f"  {key:>15}: {row[key]:.6f}")

# The constructive check behind the certified gap: every arc that grows is
# matched by a neighbourhood curve growing at a proportional rate.
checks = passes = 0
for i in range(cfg.samples // 2):
    r = verify_arc_construction(sample_point(cfg, 2 * i),
                                sample_point(cfg, 2 * i + 1), m, cfg.depth)
    checks += r["checked"]
    passes += r["passed"]
print(f"\nconstructive arc checks: {passes}/{checks} passed")
