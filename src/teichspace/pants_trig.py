"""Closed-form hyperbolic trigonometry of pairs of pants.

A hyperbolic pair of pants with geodesic boundary is determined by its three
boundary lengths.  Every essential arc meeting the boundary orthogonally at
both endpoints has a length given in closed form by right-angled hexagon
identities.  This module implements those identities together with the
explicit comparison constants that control how much longer or shorter a
boundary curve of a tubular neighbourhood of an arc can be, relative to the
arc itself.

Two arc configurations occur:

* an arc joining two *different* boundary components ``beta_i``, ``beta_j``;
  the neighbourhood of ``beta_i + beta_j + arc`` is a pants whose third
  boundary is a single curve ``alpha``:

      cosh l(arc) = (cosh(li/2) cosh(lj/2) + cosh(la/2))
                    / (sinh(li/2) sinh(lj/2))

* an arc joining a boundary component ``beta_i`` of length ``li`` to itself;
  the neighbourhood is a pants with two other boundary curves ``alpha``,
  ``delta`` of lengths ``la``, ``ld``:

      cosh^2(l(arc)/2) = [cosh(ld/2) + cosh(la/2 + li/2)]
                         * [cosh(ld/2) + cosh(la/2 - li/2)]
                         / sinh^2(li/2)

Comparison constants (derivation of the self-arc constant)
-----------------------------------------------------------

Write ``x = li/2`` and ``m = max(la, ld)``.  From the factored identity and
the elementary bounds ``exp(-x) cosh(a) <= cosh(a +- x) <= exp(x) cosh(a)``,
``cosh(m/2) <= cosh(la/2) + cosh(ld/2) <= 2 cosh(m/2)`` and
``exp(u)/2 <= cosh(u) <= exp(u)`` one obtains the two-sided bound

    B_lo <= l(arc) - m <= B_hi,
    B_lo = 2 log( exp(-x) / (2 sinh x) ),   B_hi = 2 log( 4 exp(x) / sinh x ).

(The factor 2 in front of the logarithms is forced by the half-length
arguments; dropping it produces a bound that fails numerically, e.g. at
``li = 0.1, la = ld = 1``.)  The identity also gives the floor

    l(arc) >= g0 := 2 arcsinh( 1 / sinh x ),

because ``sinh^2(x) sinh^2(l/2) = cosh^2(ld/2) + cosh^2(la/2)
+ 2 cosh(la/2) cosh(ld/2) cosh(x) >= cosh^2(la/2) >= 1``.

For two hyperbolic structures with the same boundary lengths, let
``r = l_2(arc) / l_1(arc) > 1`` and ``m_k = max(l_k(alpha), l_k(delta))``.
Since ``max(ratio_alpha, ratio_delta) >= m_2/m_1``, a comparison constant
``c`` with ``m_2/m_1 >= c * r`` follows from the bracket by the three-zone
argument with threshold ``t0 = 2 B_hi`` (note ``B_hi > log 8 > 0``):

* ``l_1 >= t0``:   ``m_2 >= l_2 - B_hi >= l_2/2`` and
  ``m_1 <= l_1 + max(0, -B_lo) <= l_1 (1 + max(0, -B_lo)/t0)``, giving
  ``c_a = 1 / (2 (1 + max(0, -B_lo)/t0))``.
* ``l_2 >= t0 >= l_1``:  ``m_2 >= l_2/2`` and
  ``m_1 <= t0 + max(0, -B_lo)``, giving ``c_b = g0 / (2 (t0 + max(0,-B_lo)))``
  via the floor ``l_1 >= g0``.
* ``l_2 <= t0``:  ``r <= t0/g0``, giving ``c_c = g0/t0`` against a curve of
  ratio at least 1.

The exported constant is ``min(c_a, c_b, c_c)`` minimised over the boundary
components, so the certified inequality holds in every zone.

Both arc forms are evaluated in double precision as sums of positive
terms, each by one private core (``_between``, ``_self``) that checks its
range and raises its own :class:`DomainError`.  A core is passed its terms,
not its lengths' hyperbolic functions: the ``cosh(l/2)`` of the curves
bounding the arc's neighbourhood, which a point's arcs share, and the terms
that read only the arc's own boundaries (``cosh((li - lj)/2)`` and
``sinh(li/2) sinh(lj/2)`` of a between-arc, ``cosh(li/2)`` and
``sinh(li/2)`` of a self-arc), which every point with the same boundary
shares.  A term that overflows is passed as ``inf`` (:func:`_cosh_half`,
:func:`_sinh_half`), which takes the core out of double range as the
overflow itself would.  The public forms and
:func:`teichspace.curves.hexagon_lengths` both call the cores, so they give
the same lengths and the same errors.  For boundary lengths in
``[1e-4, 40]`` they match a 50-digit mpmath evaluation of the identities
above to 1e-14 relative, and the doubled-arc traces of the 40-digit holonomy of the
doubled surface to 1e-12 on the ranges the tests sample.  Where an intermediate or the result
leaves double range, both forms, the self-arc floor and bracket and the
constants raise :class:`DomainError` naming the lengths.
Boundary components of length 0 (cusps) are rejected here: the hexagon
identities degenerate, and cusped surfaces only ever need closed-curve
lengths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement


class DomainError(ValueError):
    """Raised when an input lies outside the validity domain of a formula."""

    def with_witness(self, witness: dict) -> "DomainError":
        """This error with the replay ``witness`` in its message and attribute."""
        replay = DomainError(f"{self}\nwitness: {json.dumps(witness)}")
        replay.witness = witness
        return replay


def _require_positive(**values: float) -> None:
    for name, v in values.items():
        if not (v > 0.0) or not math.isfinite(v):
            raise DomainError(f"{name} must be a positive finite length, got {v!r}")


def _acosh1p(w: float) -> float:
    """``acosh(1 + w)`` for ``w >= 0``, without rounding ``1 + w``."""
    return math.log1p(w + math.sqrt(w) * math.sqrt(w + 2.0))


def _cosh_half(v: float) -> float:
    """``cosh(v/2)``, or ``inf`` where it overflows."""
    try:
        return math.cosh(v / 2)
    except OverflowError:
        return math.inf


def _sinh_half(v: float) -> float:
    """``sinh(v/2)``, or ``inf`` where it overflows."""
    try:
        return math.sinh(v / 2)
    except OverflowError:
        return math.inf


def _between(li: float, lj: float, la: float, ca: float, cd: float,
             ss: float) -> float:
    """Between-arc form of positive ``li``, ``lj`` and ``la >= 0``, given
    ``ca = cosh(la/2)``, ``cd = cosh((li - lj)/2)`` and ``ss = sinh(li/2)
    sinh(lj/2)``; raises :class:`DomainError` where it leaves double
    range."""
    try:
        length = _acosh1p((cd + ca) / ss)
    except (OverflowError, ZeroDivisionError):
        length = math.inf
    if not 0.0 < length < math.inf:
        raise DomainError(f"orthogeodesic_between{(li, lj, la)} leaves double range")
    return length


def _self(li: float, la: float, ld: float, ca: float, cd: float, ci: float,
          si: float) -> float:
    """Self-arc form of positive ``li``, ``la`` and ``ld``, given their
    ``cosh(l/2)`` as ``ca``, ``cd`` and ``ci`` and ``si = sinh(li/2)``;
    raises :class:`DomainError` where it leaves double range."""
    try:
        length = 2.0 * math.asinh(math.sqrt(ca * ca + 2.0 * ca * cd * ci + cd * cd)
                                  / si)
    except (OverflowError, ZeroDivisionError):
        length = math.inf
    if not 0.0 < length < math.inf:
        raise DomainError(f"orthogeodesic_self{(li, la, ld)} leaves double range")
    return length


def orthogeodesic_between(li: float, lj: float, la: float) -> float:
    """Length of the orthogeodesic arc joining two distinct boundaries.

    ``li``, ``lj`` are the lengths of the two boundary components the arc
    connects, ``la`` the length of the third boundary of the pants the arc
    determines.  Symmetric in ``(li, lj)`` and strictly increasing in ``la``.
    ``la = 0`` is allowed (the third boundary degenerates to a cusp).
    Since ``cosh a cosh b - sinh a sinh b = cosh(a - b)``, the identity is
    ``acosh(1 + w)`` with ``w = (cosh((li - lj)/2) + cosh(la/2))
    / (sinh(li/2) sinh(lj/2))``, which keeps its precision for long
    boundaries.
    """
    _require_positive(li=li, lj=lj)
    if la < 0 or not math.isfinite(la):
        raise DomainError(f"la must be a nonnegative finite length, got {la!r}")
    return _between(li, lj, la, _cosh_half(la), _cosh_half(li - lj),
                    _sinh_half(li) * _sinh_half(lj))


def orthogeodesic_self(li: float, la: float, ld: float) -> float:
    """Length of the orthogeodesic arc joining boundary ``li`` to itself.

    ``la`` and ``ld`` are the lengths of the two other boundary curves of
    the pants the arc determines; the formula is symmetric in ``(la, ld)``.
    The factored identity is evaluated as ``2 asinh(sqrt(ca^2 + 2 ca cd
    cosh(li/2) + cd^2) / sinh(li/2))`` with ``ca = cosh(la/2)``, ``cd =
    cosh(ld/2)`` (the identity behind the floor in the module docstring):
    a sum of positive terms, so nothing cancels for long boundaries.
    """
    _require_positive(li=li, la=la, ld=ld)
    return _self(li, la, ld, _cosh_half(la), _cosh_half(ld), _cosh_half(li),
                 _sinh_half(li))


def self_arc_floor(li: float) -> float:
    """Lower bound ``2 arcsinh(1/sinh(li/2))`` for any self-arc at ``li``."""
    _require_positive(li=li)
    try:
        floor = 2.0 * math.asinh(1.0 / math.sinh(li / 2))
    except (OverflowError, ZeroDivisionError):
        floor = math.inf
    if not 0.0 < floor < math.inf:
        raise DomainError(f"self_arc_floor({li!r}) leaves double range")
    return floor


def self_arc_bracket(li: float) -> "Interval":
    """Two-sided bound for ``l(arc) - max(la, ld)`` over self-arcs at ``li``.

    See the module docstring for the derivation; the bounds are
    ``2 log(exp(-x)/(2 sinh x))`` and ``2 log(4 exp(x)/sinh x)`` with
    ``x = li/2``.
    """
    _require_positive(li=li)
    x = li / 2
    try:
        hi = 2.0 * (x + math.log(4.0 / math.sinh(x)))
        lo = 2.0 * (-x - math.log(2.0 * math.sinh(x)))
    except (OverflowError, ZeroDivisionError):
        hi = math.inf
    if not hi < math.inf:
        raise DomainError(f"self_arc_bracket({li!r}) leaves double range")
    return Interval(lo, hi)


@dataclass(frozen=True)
class Interval:
    """Closed interval ``[lo, hi]`` with finite endpoints."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"interval endpoints must be finite: {self}")
        if self.lo > self.hi:
            raise DomainError(f"empty interval: lo={self.lo} > hi={self.hi}")


@dataclass(frozen=True)
class BetweenArcConstants:
    """Constants controlling arcs that join two distinct boundaries.

    ``lam``       bounds the coefficient in the arc/curve identity:
                  ``exp(la/2)/(2 lam) <= cosh l(arc) <= lam exp(la/2)``.
    ``threshold`` equals ``log(2 lam)``; arcs longer than twice this value
                  have ``1 <= la/l(arc) <= 3``.
    ``arc_floor`` lower bound for every between-arc length.
    ``curve_cap`` upper bound for the curve length when the arc is shorter
                  than ``threshold``.
    ``ratio_const`` the reported comparison constant
                  ``max(1/3, arc_floor/curve_cap, arc_floor/threshold)``.
    """

    lam: float
    threshold: float
    arc_floor: float
    curve_cap: float
    ratio_const: float


def _boundary_lengths(boundary_lengths) -> tuple:
    lam = tuple(float(v) for v in boundary_lengths)
    if not lam:
        raise DomainError("need at least one boundary length")
    for v in lam:
        # Every pair's sinh(u/2) sinh(v/2) lies between two of these squares.
        try:
            s2 = math.sinh(v / 2) ** 2
        except OverflowError:
            s2 = math.inf
        if not (v > 0.0 and 0.0 < s2 < math.inf):
            raise DomainError(f"boundary lengths must be positive, with sinh(l/2)^2 "
                              f"in double range, got {v!r}")
    return lam


def between_arc_constants(boundary_lengths) -> BetweenArcConstants:
    """Comparison constants for arcs between two distinct boundaries.

    Extremised over all ordered pairs of entries of ``boundary_lengths``
    (pairs with repetition: two distinct boundary components may have equal
    lengths).  All entries must be strictly positive.  Raises
    :class:`DomainError` naming the lengths where a constant leaves double
    range.
    """
    lengths = _boundary_lengths(boundary_lengths)
    terms = [(math.sinh(u / 2) * math.sinh(v / 2),
              math.cosh(u / 2) * math.cosh(v / 2), math.cosh((u - v) / 2))
             for u, v in combinations_with_replacement(lengths, 2)]
    lam = max(max(ss, (cc + 1.0) / ss) for ss, cc, _ in terms)
    threshold = math.log(2.0 * lam)
    arc_floor = min(_acosh1p(cd / ss) for ss, _, cd in terms)
    # Cap on the curve length while the arc stays below the threshold:
    # cosh(la/2) = cosh(l_arc) ss - cc <= exp(l_arc) ss - cc <= 2 lam ss - cc.
    # Since lam >= (cc+1)/ss for every pair, the acosh argument is >= cc + 2.
    curve_cap = max(2.0 * math.acosh(2.0 * lam * ss - cc) for ss, cc, _ in terms)
    if not all(0.0 < v < math.inf for v in (lam, arc_floor, curve_cap)):
        raise DomainError(f"between_arc_constants({lengths}) leaves double range")
    ratio_const = max(1.0 / 3.0, arc_floor / curve_cap, arc_floor / threshold)
    return BetweenArcConstants(lam=lam, threshold=threshold,
                               arc_floor=arc_floor, curve_cap=curve_cap,
                               ratio_const=ratio_const)


def self_arc_constant(boundary_lengths) -> float:
    """Comparison constant for self-arcs, minimised over the boundaries.

    For each boundary length the constant is ``min(c_a, c_b, c_c)`` from the
    three-zone argument documented in the module docstring; the result is
    the minimum over all boundary components, so a single constant certifies
    every self-arc on the surface.  Always lies in ``(0, 1]``.
    """
    best = 1.0
    for li in _boundary_lengths(boundary_lengths):
        bracket = self_arc_bracket(li)
        b_lo, b_hi = bracket.lo, bracket.hi
        g0 = self_arc_floor(li)
        t0 = 2.0 * b_hi
        slack = max(0.0, -b_lo)
        c_a = 1.0 / (2.0 * (1.0 + slack / t0))
        c_b = g0 / (2.0 * (t0 + slack))
        c_c = g0 / t0
        best = min(best, c_a, c_b, c_c)
    return best


@dataclass(frozen=True)
class GapConstants:
    """Certified arc-vs-curve comparison constant and the induced gap.

    ``c_between`` and ``c_self`` are the two per-configuration constants;
    ``c = min(c_between, c_self)`` is the constant actually used in the
    certified per-arc check (the minimum is required for the inequality to
    hold in both configurations), and ``gap = -log c >= 0`` bounds the
    difference between the arc metric and the curve-ratio metric.
    """

    c_between: float
    c_self: float
    c: float
    gap: float

    def __post_init__(self) -> None:
        if not (0.0 < self.c <= 1.0):
            raise DomainError(f"comparison constant must lie in (0, 1]: {self.c!r}")
        if self.gap < 0.0:
            raise DomainError(f"gap must be nonnegative: {self.gap!r}")


def gap_constants(boundary_lengths) -> GapConstants:
    """Combined comparison constant ``min(c_between, c_self)`` and its gap.

    ``c_between`` is reported as computed (it may exceed 1 on surfaces with
    short boundaries); the certified constant ``c`` is clamped into ``(0, 1]``
    since a ratio bound with constant above 1 is never needed.
    """
    c_between = between_arc_constants(boundary_lengths).ratio_const
    c_self = self_arc_constant(boundary_lengths)
    c = min(c_between, c_self, 1.0)
    return GapConstants(c_between=c_between, c_self=c_self,
                        c=c, gap=-math.log(c))
