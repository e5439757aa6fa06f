"""Certified-simple curve families and arc families with length evaluation.

Seeds are the pants curves, the dual multicurve, and the boundary curves of
the canonical marking; richer families arise as images of the dual seeds
under powers of the Dehn twist along the one cuff each of them crosses.
Every family member is therefore simple by construction (a mapping-class
image of a simple seed), which is the certificate this module relies on; no
general simplicity test is performed.

Every length has a closed form in the Fenchel-Nielsen coordinates.  The
``p``-fold twist of ``mu_k`` along cuff ``k`` has the length of ``mu_k`` at
twist ``tau = t_k - p * L_k`` (mapping-class equivariance), and ``mu_k``
lies in the one-holed torus or four-holed sphere around cuff ``k`` (Buser,
*Geometry and Spectra of Compact Riemann Surfaces*, ch. 2-3; Goldman,
"Trace coordinates on Fricke spaces of some simple hyperbolic surfaces").
With ``c(x) = cosh(x/2)``, ``L = L_k`` and ``s = sinh(L/2)``:

* handle loop, ``b`` the third slot: ``cosh(l/2) = cosh(d/2) cosh(tau/2)``
  with ``cosh d - 1 = (c(b) + 1) / s^2``;
* other cuffs, ``a+, a-`` (``b+, b-``) the slots after the glued one in the
  left (right) pants: ``s^2 cosh(l/2) = c(L) (c(a+) c(b-) + c(a-) c(b+))
  + c(a+) c(b+) + c(a-) c(b-) + cosh(tau) Q(a+, a-) Q(b+, b-)`` with
  ``Q(x, y)^2 = c(x)^2 + c(y)^2 + 2 c(x) c(y) c(L) + s^2``.

Both are evaluated as ``u = cosh(l/2) - 1``, a sum of positive terms, and
``l = 2 log1p(u + sqrt(u (u + 2)))``, so neither long cuffs nor short duals
cancel.  The holonomy of :mod:`teichspace.surface` is their independent
check.

Pants-local arcs are evaluated by the hexagon closed forms; geodesic pants
are convex, so these lengths do not depend on the twists.

:func:`length_table` gathers every length the metric estimators read at one
point (the curve family and, on bordered points, the seed arcs) so that a
point is evaluated once however many estimators and partners use it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import pants_trig
from .coords import ArcClass, FNPoint, Marking
from .pants_trig import DomainError

__all__ = [
    "CurveClass",
    "LengthTable",
    "curve_length_at",
    "enumerate_arcs",
    "enumerate_curves",
    "family_lengths",
    "arc_length_formula",
    "length_table",
    "pants_neighborhood_boundaries",
]


@dataclass(frozen=True)
class CurveClass:
    """A seed curve twisted by a power of the Dehn twist along its cuff.

    ``seed`` is ``("gamma", k)``, ``("mu", k)`` or ``("beta", i)``;
    ``power`` is the number of twists along cuff ``k`` applied to a dual
    seed ``("mu", k)`` and 0 for the others, which every twist fixes.
    """

    seed: tuple
    power: int

    def label(self) -> str:
        kind, idx = self.seed
        if self.power:
            return f"{kind}{idx}@{self.power}"
        return f"{kind}{idx}"

    @property
    def essential(self) -> bool:
        return self.seed[0] != "beta"


def enumerate_curves(m: Marking, depth: int):
    """All seeds, and each dual seed twisted ``-r`` and ``+r`` times along
    its own cuff for every radius ``r`` up to ``depth``.

    Pants curves and boundary curves are fixed by every twist, so they
    appear once; a dual seed crosses only its own cuff, so the other twists
    fix it.  Deterministic order (radius, then cuff, then ``-r`` before
    ``+r``), nested in ``depth``.
    """
    if depth < 0:
        raise DomainError(f"depth must be nonnegative, got {depth!r}")
    out = [CurveClass(seed=("gamma", k), power=0) for k in range(m.ncurves)]
    out += [CurveClass(seed=("mu", k), power=0) for k in range(m.ncurves)]
    out += [CurveClass(seed=("beta", i), power=0) for i in range(m.nboundary)]
    for radius in range(1, depth + 1):
        for k in range(m.ncurves):
            for power in (-radius, radius):
                out.append(CurveClass(seed=("mu", k), power=power))
    return out


def family_lengths(fn: FNPoint, m: Marking, classes):
    """Lengths of many curve classes at one point, aligned with ``classes``.

    Pants and boundary lengths are read off the point; a dual class is the
    one-holed torus or four-holed sphere identity of the module docstring
    (scalar work, no holonomy).  Raises :class:`DomainError` when a length
    is not finite in double precision (such as at twists of 2000).
    """
    out = []
    for c in classes:
        kind, idx = c.seed
        if kind == "gamma":
            out.append(fn.lengths[idx])
        elif kind == "beta":
            out.append(fn.boundary[idx])
        else:
            try:
                length = _dual_length(fn, m, idx, c.power)
            except OverflowError:
                length = math.inf
            if not math.isfinite(length):
                raise DomainError(
                    f"length of {c.label()} is not finite in double precision")
            out.append(length)
    return out


def _dual_length(fn: FNPoint, m: Marking, k: int, power: int) -> float:
    """Length of ``mu_k`` twisted ``power`` times along its cuff ``k``."""
    (pa, sa), (pb, sb) = m.edges[k].left, m.edges[k].right
    cuff = fn.lengths[k]
    tau = fn.twists[k] - power * cuff
    s2 = math.sinh(cuff / 2.0) ** 2
    if pa == pb:
        # w = cosh d - 1; cosh(d/2) - 1 = (w/2) / (sqrt(1 + w/2) + 1).
        w = (math.cosh(m.slot_length(fn, (pa, 3 - sa - sb)) / 2.0) + 1.0) / s2
        u = (0.5 * w / (math.sqrt(1.0 + 0.5 * w) + 1.0) * math.cosh(tau / 2.0)
             + 2.0 * math.sinh(tau / 4.0) ** 2)
    else:
        cl = math.cosh(cuff / 2.0)
        ap, am, bp, bm = (math.cosh(m.slot_length(fn, side) / 2.0) for side in
                          ((pa, (sa + 1) % 3), (pa, (sa + 2) % 3),
                           (pb, (sb + 1) % 3), (pb, (sb + 2) % 3)))
        # Q(a+, a-)^2 = s2 + qa and Q(b+, b-)^2 = s2 + qb, so
        # Q Q - s2 = (s2 (qa + qb) + qa qb) / (Q Q + s2) without cancelling.
        qa = ap * ap + am * am + 2.0 * ap * am * cl
        qb = bp * bp + bm * bm + 2.0 * bp * bm * cl
        qq = math.sqrt((s2 + qa) * (s2 + qb))
        u = (cl * (ap * bm + am * bp) + ap * bp + am * bm
             + 2.0 * math.sinh(tau / 2.0) ** 2 * qq
             + (s2 * (qa + qb) + qa * qb) / (qq + s2)) / s2
    return 2.0 * pants_trig._acosh1p(u)


def curve_length_at(fn: FNPoint, m: Marking, c: CurveClass) -> float:
    """Length of one twisted class at ``fn``."""
    return family_lengths(fn, m, [c])[0]


@dataclass(frozen=True)
class LengthTable:
    """Every length the metric estimators read at one point.

    ``classes`` is the family of :func:`enumerate_curves` at ``depth`` and
    ``lengths`` their lengths, aligned.  When every boundary length is
    positive, ``arcs`` holds the seed arcs and ``arc_lengths`` their
    hexagon lengths; otherwise both are empty.
    """

    point: FNPoint
    depth: int
    classes: tuple
    lengths: tuple
    arcs: tuple
    arc_lengths: tuple


def length_table(fn: FNPoint, m: Marking, depth: int) -> LengthTable:
    """Evaluate the length table of ``fn`` at family depth ``depth``.

    The curve lengths come from one :func:`family_lengths` call over the
    whole family.  A :class:`DomainError` of that call (a length that is
    not finite) is re-raised with the replay witness ``{"x": <point JSON>,
    "depth": depth}`` appended to its message and kept in its ``witness``
    attribute.
    """
    if (fn.g, fn.n) != (m.genus, m.nboundary):
        raise DomainError(f"point on ({fn.g},{fn.n}) does not fit the marking "
                          f"of ({m.genus},{m.nboundary})")
    classes = tuple(enumerate_curves(m, depth))
    try:
        lengths = tuple(family_lengths(fn, m, classes))
    except DomainError as err:
        witness = {"x": fn.to_dict(), "depth": depth}
        replay = DomainError(f"{err}\nwitness: {json.dumps(witness)}")
        replay.witness = witness
        raise replay from err
    arcs = ()
    if m.nboundary and all(fn.boundary):
        arcs = tuple(enumerate_arcs(m))
    return LengthTable(point=fn, depth=depth, classes=classes, lengths=lengths,
                       arcs=arcs,
                       arc_lengths=tuple(arc_length_formula(fn, m, a) for a in arcs))


def enumerate_arcs(m: Marking):
    """Seed arcs of every boundary-adjacent pants: one arc per boundary
    pair within a pants plus one self-arc per boundary slot."""
    if m.nboundary < 1:
        raise DomainError("arc families need at least one boundary component")
    return list(m.arcs)


def arc_length_formula(fn: FNPoint, m: Marking, arc: ArcClass) -> float:
    """Closed-form length of a pants-local arc (twist independent)."""
    a, b, c = (m.slot_length(fn, (arc.pants, s))
               for s in arc.slots + arc.neighbour_slots)
    if arc.kind == "between":
        return pants_trig.orthogeodesic_between(a, b, c)
    return pants_trig.orthogeodesic_self(a, b, c)


def pants_neighborhood_boundaries(arc: ArcClass, m: Marking):
    """Boundary curves of the tubular neighbourhood pants of an arc.

    The seed curves on the arc's ``neighbour_slots``: one for an arc
    joining two distinct boundaries (the third cuff of its pants), two for
    a self-arc (the other two cuffs, which coincide on a handle block).
    A curve on a boundary slot is the seed ``("beta", i)``, which is not
    essential.
    """
    slots = m.slot_assignment()
    out = []
    for s in arc.neighbour_slots:
        kind, idx = slots[(arc.pants, s)]
        out.append(CurveClass(seed=("gamma" if kind == "edge" else "beta", idx),
                              power=0))
    return out
