"""Metric estimators and extremal-length bracket arithmetic.

The curve-ratio (Thurston) and arc metrics are suprema of length ratios
over infinite families; this module evaluates the suprema over the finite
nested twist-orbit families of :mod:`teichspace.curves`, which yields
certified lower bounds, monotone nondecreasing in the family depth.  Each
estimate carries the witness class attaining it.

Exact extremal lengths are out of reach without quadratic differentials,
so the quasiconformal-deformation metric is reported as an interval only.
Maskit's inequalities bound the extremal length of a closed geodesic of
hyperbolic length ``l`` on a cusped surface by ``l/pi <= Ext <= (l/2)
exp(l/2)``.  Doubling a bordered surface across its boundary doubles both
``l`` and ``Ext``, so a bordered curve has half the bracket of its double,
``l/pi <= Ext <= (l/2) exp(l)``.  The brackets enter in log form,
``log(l/pi) <= log Ext <= log(l/2) + kappa l`` with ``kappa = 1/2``
punctured and ``1`` bordered, so the interval is finite for every length a
table can hold (no ``exp(l)`` is formed).  They are combined conservatively
over the curve family, and the upper end absorbs the additive defect
``log(n + 2)`` of restricting the supremum to simple closed curves.

Every estimator is a pure reduction over the :class:`~teichspace.curves.LengthTable`
of its two points (:func:`thurston_of`, :func:`arc_of`, :func:`teich_of`);
:func:`thurston_lower`, :func:`arc_lower` and :func:`teich_interval_report`
build the two tables and reduce.  Callers that compare one point with
several others, or run several estimators on one pair, build each table
once and call the reductions: one comparison row then costs two length
tables, scalar closed forms with no holonomy assembly.

A report reduces every ordered pair of its tables, so the reductions read
the views each table selected once (:class:`~teichspace.curves.LengthTable`),
and the log-ratio supremum logs only the ratios ``b / a`` of at least
``1 - 2**-38`` times the largest.  That is exact: every ``|log|`` of a
double is below ``2**11``, so a ``log`` within 1 ulp errs by less than
``2**-41``, and a smaller ratio has a strictly smaller computed log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from operator import sub, truediv

from .coords import FNPoint, Marking
from .curves import LengthTable, length_table
from .pants_trig import DomainError, Interval

__all__ = [
    "MetricEstimate",
    "TeichIntervalReport",
    "arc_lower",
    "arc_of",
    "teich_interval_report",
    "teich_of",
    "thurston_lower",
    "thurston_of",
]


@dataclass(frozen=True)
class MetricEstimate:
    """Family lower bound for an asymmetric metric, with its witness."""

    value: float
    depth: int
    witness: str
    family_size: int

    def to_dict(self) -> dict:
        return {"value": self.value, "depth": self.depth,
                "witness": self.witness, "family_size": self.family_size}


def _require_comparable(t1: LengthTable, t2: LengthTable) -> None:
    x1, x2 = t1.point, t2.point
    if (x1.g, x1.n) != (x2.g, x2.n):
        raise DomainError(
            f"points live on different surfaces: ({x1.g},{x1.n}) vs ({x2.g},{x2.n})")
    if x1.boundary != x2.boundary:
        raise DomainError(
            f"boundary lengths differ: {x1.boundary} vs {x2.boundary}")
    if t1.depth != t2.depth:
        raise DomainError(f"tables have different depths: {t1.depth} vs {t2.depth}")


def _essential(t1: LengthTable, t2: LengthTable):
    """The essential classes with their lengths at ``t1`` and at ``t2``."""
    if not t1.essential:
        raise DomainError("a pair of pants has no essential curve to compare")
    return t1.essential, t1.essential_lengths, t2.essential_lengths


_SCREEN = 1.0 - 2.0 ** -38


def _sup_log_ratio(members, a, b):
    """Largest ``log(b / a)`` over aligned ``members``, ``a`` and ``b``, and
    the member attaining it; the first of equal values wins.

    Only ratios of at least ``_SCREEN`` times the largest are logged; the
    module docstring shows that this gives the same result.
    """
    r = list(map(truediv, b, a))
    screen = max(r) * _SCREEN
    best, witness = None, None
    for i in compress(range(len(r)), map(screen.__le__, r)):
        val = math.log(r[i])
        if best is None or val > best:
            best, witness = val, members[i]
    return best, witness


def thurston_of(t1: LengthTable, t2: LengthTable) -> MetricEstimate:
    """Best log length ratio over the essential curve family.

    A lower bound for the curve-ratio metric from ``t1.point`` to
    ``t2.point``; both points must have identical boundary lengths (all
    zero is allowed).
    """
    _require_comparable(t1, t2)
    members, a, b = _essential(t1, t2)
    best, witness = _sup_log_ratio(members, a, b)
    return MetricEstimate(value=best, depth=t1.depth, witness=witness.label(),
                          family_size=len(members))


def arc_of(t1: LengthTable, t2: LengthTable) -> MetricEstimate:
    """Best log length ratio over the curve family, boundaries and arcs.

    Defined only for positive boundary lengths (arcs degenerate at cusps).
    Always at least :func:`thurston_of` on the same tables, since the
    family is a superset.
    """
    _require_comparable(t1, t2)
    if not t1.arcs:
        raise DomainError("arc metric needs strictly positive boundary lengths")
    best, witness = _sup_log_ratio(t1.members, t1.member_lengths,
                                   t2.member_lengths)
    return MetricEstimate(value=best, depth=t1.depth, witness=witness.label(),
                          family_size=len(t1.members))


def thurston_lower(x1: FNPoint, x2: FNPoint, m: Marking,
                   depth: int) -> MetricEstimate:
    """:func:`thurston_of` on the length tables of ``x1`` and ``x2``."""
    return thurston_of(length_table(x1, m, depth), length_table(x2, m, depth))


def arc_lower(x1: FNPoint, x2: FNPoint, m: Marking, depth: int) -> MetricEstimate:
    """:func:`arc_of` on the length tables of ``x1`` and ``x2``."""
    return arc_of(length_table(x1, m, depth), length_table(x2, m, depth))


# ---------------------------------------------------------------------------
# bracketed quasiconformal metric


@dataclass(frozen=True)
class TeichIntervalReport:
    """Interval estimate with the witness of its upper end."""

    interval: Interval
    depth: int
    witness: str
    witness_max_log_width: float
    family_size: int

    def to_dict(self) -> dict:
        return {"interval": [self.interval.lo, self.interval.hi],
                "depth": self.depth, "witness": self.witness,
                "witness_max_log_width": self.witness_max_log_width,
                "family_size": self.family_size}


def _log_brackets(lengths, kappa: float):
    """``[log(l/pi)]`` and ``[log(l/2) + kappa l]`` over ``lengths``: the
    log extremal-length bracket of each curve (module docstring)."""
    return ([math.log(l / math.pi) for l in lengths],
            [math.log(0.5 * l) + kappa * l for l in lengths])


def teich_of(t1: LengthTable, t2: LengthTable) -> TeichIntervalReport:
    """Interval bracketing the quasiconformal metric between two points.

    Both points must be punctured, or both bordered with equal boundary
    lengths.  For every essential curve the extremal-length ratio is
    bracketed through the log brackets of :func:`_log_brackets`; the lower
    end pairs bracket ends so the value can only shrink, the upper end so
    it can only grow, and the additive defect ``log(n+2)`` of the
    simple-curve restriction widens the top.  The upper end's witness is
    the first class attaining it.
    """
    _require_comparable(t1, t2)
    x1 = t1.point
    punctured = x1.is_punctured()
    if not punctured and 0.0 in x1.boundary:
        raise DomainError("points must be fully punctured or fully bordered")
    members, lengths1, lengths2 = _essential(t1, t2)
    kappa = 0.5 if punctured else 1.0
    lo1, hi1 = _log_brackets(lengths1, kappa)
    lo2, hi2 = _log_brackets(lengths2, kappa)
    # Halving after the max gives the largest halved difference, since
    # rounding is monotone; the upper differences are above log(pi/2), so
    # halving them is exact and keeps the first argmax.
    s_lo = 0.5 * max(0.0, max(map(sub, lo2, hi1)), max(map(sub, lo1, hi2)))
    up = list(map(max, map(sub, hi2, lo1), map(sub, hi1, lo2)))
    i = up.index(max(up))
    defect = math.log(x1.n + 2)
    return TeichIntervalReport(interval=Interval(s_lo, 0.5 * up[i] + defect),
                               depth=t1.depth, witness=members[i].label(),
                               witness_max_log_width=max(hi1[i] - lo1[i],
                                                         hi2[i] - lo2[i]),
                               family_size=len(members))


def teich_interval_report(x1: FNPoint, x2: FNPoint, m: Marking,
                          depth: int) -> TeichIntervalReport:
    """:func:`teich_of` on the length tables of ``x1`` and ``x2``."""
    return teich_of(length_table(x1, m, depth), length_table(x2, m, depth))
