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
    halpern_bracket,
    nielsen_k_infinity,
)
from .coords import ArcClass, FNPoint, Marking, build_marking, phi_gamma
from .curves import (
    CurveClass,
    LengthTable,
    arc_length_formula,
    curve_length_at,
    enumerate_arcs,
    enumerate_curves,
    family_lengths,
    length_table,
    pants_neighborhood_boundaries,
)
from .harness import (
    AlmostIsometryReport,
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
    maskit_bracket,
    symmetrize,
    teich_interval,
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
    min_between_arc_length,
    orthogeodesic_between,
    orthogeodesic_self,
    self_arc_constant,
    third_boundary_from_arc,
)

__version__ = "0.1.0"
