"""Numerics for Teichmuller spaces of hyperbolic surfaces with boundary.

Builds surfaces from Fenchel-Nielsen coordinates, computes geodesic lengths
of closed curves and orthogeodesic arcs, estimates the curve-ratio, arc,
and quasiconformal metrics over certified curve families, and provides the
closed-form comparison constants relating them.  The SL(2, R) holonomy that
cross-checks the closed forms is :mod:`teichspace.surface`, which the
package does not import.
"""

from .asymptotics import (
    bmms_dilation,
    comparison_bounds,
    cusp_radius,
    cusp_truncation_constant,
    nielsen_k_infinity,
)
from .coords import ArcClass, FNPoint, Marking, build_marking, phi_gamma
from .curves import (
    CurveClass,
    LengthTable,
    arc_length_formula,
    enumerate_arcs,
    enumerate_curves,
    family_lengths,
    hexagon_lengths,
    length_table,
    pants_neighborhood_boundaries,
)
from .harness import (
    ExperimentConfig,
    almost_isometry_report,
    compare_metrics,
    phi_experiment,
    sample_point,
    verify_arc_construction,
    verify_arcs,
)
from .metrics import (
    MetricEstimate,
    arc_lower,
    arc_of,
    teich_interval_report,
    teich_of,
    thurston_lower,
    thurston_of,
)
from .pants_trig import (
    BetweenArcConstants,
    DomainError,
    GapConstants,
    Interval,
    between_arc_constants,
    gap_constants,
    orthogeodesic_between,
    orthogeodesic_self,
    self_arc_constant,
)

__version__ = "0.1.0"
