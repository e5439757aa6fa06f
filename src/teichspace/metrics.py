"""Metric estimators and the extremal-length closed forms of the
quasiconformal interval.

The curve-ratio (Thurston) and arc metrics are suprema of length ratios
over infinite families; this module evaluates the suprema over the finite
nested twist-orbit families of :mod:`teichspace.curves`, which yields
certified lower bounds, monotone nondecreasing in the family depth.  Each
estimate carries the witness class attaining it.

Exact extremal lengths are out of reach without quadratic differentials,
so the quasiconformal-deformation metric is reported as an interval only.
Its lower end comes from Wolpert's lemma (1979, "The length spectra as
moduli for compact Riemann surfaces"): a ``K``-quasiconformal map between
finite-area hyperbolic surfaces stretches the length of every closed
geodesic by at most ``K``.  On bordered points it is applied to the
doubles: a ``K``-quasiconformal map ``X -> Y`` extends by reflection to a
``K``-quasiconformal map ``DX -> DY``, and an interior closed geodesic of
``X`` is a closed geodesic of ``DX`` of the same length, so ``l_Y <= K
l_X`` on bordered points too, and the same holds for the inverse map.
With ``d_T = (1/2) log K`` this gives ``d_T >= (1/2) max(d_th(x, y),
d_th(y, x))``, read off the largest and the smallest length ratio of the
family; the argument reads hyperbolic lengths only, never the brackets
below.

Maskit's inequalities bound the extremal length of a closed geodesic of
hyperbolic length ``l`` on a cusped surface by ``l/pi <= Ext <= (l/2)
exp(l/2)``.  Doubling a bordered surface across its boundary doubles both
``l`` and ``Ext``, so a bordered curve has half the bracket of its double,
``l/pi <= Ext <= (l/2) exp(l)``.  In log form, ``log(l/pi) <= log Ext <=
log(l/2) + kappa l`` with ``kappa = 1/2`` punctured and ``1`` bordered: a
bracket ``c + kappa l`` wide, where ``c = log(pi/2)``.  For a class of
lengths ``l1`` and ``l2`` write ``M >= m`` for the two.  The larger of its
upper differences, ``log Ext`` at one point over ``log Ext`` at the other,
is ``c + kappa M + log(M/m)``, and :func:`teich_of` evaluates this closed
form, so the upper end is finite for every length a table can hold (no
``exp(l)`` is formed).  The upper end is half the largest such value over
the curve family, widened by the additive defect ``log(n + 2)`` of
restricting the supremum to simple closed curves.  It is the bracket's
over the finite family only: it is at least ``(c + kappa max M) / 2 +
log(n + 2)``, so it grows with the longest class and with the depth, and
it is not a certified upper bound.  A class's lower difference is
``log(M/m) - c - kappa m``, below ``|log r|`` by more than ``c``, so the
brackets never give a larger lower end.

Every estimator is a pure reduction over the :class:`~teichspace.curves.LengthTable`
of its two points (:func:`thurston_of`, :func:`arc_of`, :func:`teich_of`;
:func:`thurston_sup` and :func:`arc_sup` are the checked cores of the first
two, which give the value and the class attaining it without a label);
:func:`thurston_lower`, :func:`arc_lower` and :func:`teich_interval_report`
build the two tables and reduce.  Callers that compare one point with
several others, or run several estimators on one pair, build each table
once and call the reductions: one comparison row then costs two length
tables, scalar closed forms with no holonomy assembly.

A report reduces every ordered pair of its tables, so the reductions read
the views each table selected once (:class:`~teichspace.curves.LengthTable`).
A log-ratio supremum takes one ``log``, of the largest ratio ``b / a``, and
its witness is the first member attaining that ratio.

The upper end of the quasiconformal interval is screened.  For a class
with lengths ``a >= b`` write ``v = kappa a + log(a/b)``.  ``D+ = log max
r`` and ``D- = -log min r``, the two logs the lower end takes, bound every
``log(a/b)``, so a class attains the largest ``v`` only if ``kappa a >=
kappa max M - max(D+, D-)``.  :func:`teich_of` takes ``v`` only for the
classes that pass this test widened by ``slack = 2**-30 (1 + kappa max M +
max(D+, D-))``, and the upper end, its witness and
``witness_max_log_width`` are bit for bit those of taking every class.  In
double, ``kappa a`` is exact and ``a/b`` and its ``log`` are each within 1
ulp, so a computed ``v`` errs by less than about ``2**-50 (1 + kappa M +
log(M/m))``, ``D+`` and ``D-`` by less than ``2**-41``, and the test
rounds by less than ``2**-50 (1 + kappa max M + max(D+, D-))``.  The slack
is far above all of these together.  So a class screened out has a
computed ``v`` strictly below that of the longest class, which always
passes and has ``v >= kappa max M``, and cannot tie with the largest.  The
kept classes keep their order, so the first of them with the largest
``v`` is the first class overall.  Each class's lengths are ordered so
that ``a >= b`` before ``v`` is formed, which makes the upper end, its
witness and ``witness_max_log_width`` bit for bit symmetric in the two
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import truediv

from .coords import FNPoint, Marking
from .curves import LengthTable, length_table
from .pants_trig import DomainError, Interval

__all__ = [
    "MetricEstimate",
    "TeichIntervalReport",
    "arc_lower",
    "arc_of",
    "arc_sup",
    "teich_interval_report",
    "teich_of",
    "thurston_lower",
    "thurston_of",
    "thurston_sup",
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


def _sup_log_ratio(members, a, b):
    """Largest ``log(b / a)`` over aligned ``members``, ``a`` and ``b``: the
    log of the largest ratio, and the first member attaining that ratio."""
    r = list(map(truediv, b, a))
    best = max(r)
    return math.log(best), members[r.index(best)]


def thurston_sup(t1: LengthTable, t2: LengthTable):
    """The checked core of :func:`thurston_of`: its value and the class
    attaining it, with no label or :class:`MetricEstimate` built."""
    _require_comparable(t1, t2)
    return _sup_log_ratio(*_essential(t1, t2))


def thurston_of(t1: LengthTable, t2: LengthTable) -> MetricEstimate:
    """Best log length ratio over the essential curve family.

    A lower bound for the curve-ratio metric from ``t1.point`` to
    ``t2.point``; both points must have identical boundary lengths (all
    zero is allowed).
    """
    best, witness = thurston_sup(t1, t2)
    return MetricEstimate(value=best, depth=t1.depth, witness=witness.label(),
                          family_size=len(t1.essential))


def arc_sup(t1: LengthTable, t2: LengthTable):
    """The checked core of :func:`arc_of`: its value and the member
    attaining it, with no label or :class:`MetricEstimate` built."""
    _require_comparable(t1, t2)
    if not t1.arcs:
        raise DomainError("arc metric needs strictly positive boundary lengths")
    return _sup_log_ratio(t1.members, t1.member_lengths, t2.member_lengths)


def arc_of(t1: LengthTable, t2: LengthTable) -> MetricEstimate:
    """Best log length ratio over the curve family, boundaries and arcs.

    Defined only for positive boundary lengths (arcs degenerate at cusps).
    Always at least :func:`thurston_of` on the same tables, since the
    family is a superset.
    """
    best, witness = arc_sup(t1, t2)
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
# quasiconformal interval


@dataclass(frozen=True)
class TeichIntervalReport:
    """The family-restricted interval of the quasiconformal metric, with the
    witness of its upper end.

    ``interval.lo`` is half the larger curve-ratio estimate of the two
    directions, a lower bound on the Teichmüller distance ``d_T`` by
    Wolpert's lemma (:mod:`teichspace.metrics`).
    ``interval.hi`` is the upper end of the extremal-length brackets over
    the family at ``depth``: it grows without limit in ``depth`` and is not
    a certified bound on ``d_T``.  ``witness_max_log_width`` is the wider
    bracket of its witness, ``log(pi/2) + kappa M`` (:func:`teich_of`).
    """

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


_TEICH_SLACK = 2.0 ** -30
_LOG_HALF_PI = math.log(0.5 * math.pi)


def teich_of(t1: LengthTable, t2: LengthTable) -> TeichIntervalReport:
    """The family-restricted interval of the quasiconformal metric between
    two points.

    Both points must be punctured, or both bordered with equal boundary
    lengths.  The lower end is ``(1/2) max(log max r, -log min r)`` over
    the length ratios ``r = l2/l1`` of the essential curve family at
    ``depth``: half the larger curve-ratio estimate of the two directions,
    a lower bound on the Teichmüller distance ``d_T`` by Wolpert's lemma
    (module docstring).  The upper end is ``(1/2) (log(pi/2) + kappa M +
    log(M/m)) + log(n+2)`` at the first class of lengths ``M >= m`` where
    it is largest, its witness: the larger upper difference of the class's
    log extremal-length brackets, widened by the defect ``log(n+2)`` of
    the simple-curve restriction.  It grows with the longest class, so
    without limit in ``depth``, and it is not a certified bound on
    ``d_T``.  ``witness_max_log_width`` is ``log(pi/2) + kappa M``.  Only
    the classes that can attain the upper end take a ``log`` (the screen
    of the module docstring).
    """
    _require_comparable(t1, t2)
    x1 = t1.point
    punctured = x1.is_punctured()
    if not punctured and 0.0 in x1.boundary:
        raise DomainError("points must be fully punctured or fully bordered")
    members, lengths1, lengths2 = _essential(t1, t2)
    kappa = 0.5 if punctured else 1.0
    r = list(map(truediv, lengths2, lengths1))
    # At equal points d_plus is 0.0 and d_minus -0.0; max keeps the first.
    d_plus, d_minus = math.log(max(r)), -math.log(min(r))
    d = max(d_plus, d_minus)
    # The screen of the module docstring, in length units (dividing by
    # kappa is exact): a class is kept only if its longer length reaches edge.
    top = max(max(lengths1), max(lengths2))
    edge = top - (d + _TEICH_SLACK * (1.0 + kappa * top + d)) / kappa
    v_max = -math.inf
    for c, a, b in zip(members, lengths1, lengths2):
        if a < b:
            a, b = b, a
        if a >= edge:
            v = kappa * a + math.log(a / b)
            if v > v_max:
                v_max, a_max, witness = v, a, c
    defect = math.log(x1.n + 2)
    return TeichIntervalReport(
        interval=Interval(0.5 * d, 0.5 * (_LOG_HALF_PI + v_max) + defect),
        depth=t1.depth, witness=witness.label(),
        witness_max_log_width=_LOG_HALF_PI + kappa * a_max,
        family_size=len(members))


def teich_interval_report(x1: FNPoint, x2: FNPoint, m: Marking,
                          depth: int) -> TeichIntervalReport:
    """:func:`teich_of` on the length tables of ``x1`` and ``x2``."""
    return teich_of(length_table(x1, m, depth), length_table(x2, m, depth))
