"""Certified-simple curve families and arc families with length evaluation.

Seeds are the pants curves, the dual multicurve, and the boundary curves of
the canonical marking; richer families arise as images of the dual seeds
under powers of the Dehn twist along the one cuff each of them crosses.
Every family member is therefore simple by construction (a mapping-class
image of a simple seed), which is the certificate this module relies on; no
general simplicity test is performed.

Lengths of twisted classes are evaluated frame-locally on the point's one
holonomy: the image of ``mu_k`` under the ``p``-fold twist along cuff ``k``
has the length of ``mu_k`` at twist ``t_k - p * L_k`` (mapping-class
equivariance of geodesic length), and that is a 2x2 trace in the frame of
cuff ``k`` (:meth:`~teichspace.surface.Holonomy.dual_length`).  Along the
orbit the trace is ``a + b e^t + c e^-t`` in the twist ``t`` (``b e^(t/2) +
c e^(-t/2)`` on a handle loop).

Pants-local arcs are evaluated by the hexagon closed forms; geodesic pants
are convex, so these lengths do not depend on the twists.

:func:`length_table` gathers every length the metric estimators read at one
point (the curve family and, on bordered points, the seed arcs) so that a
point is assembled once however many estimators and partners use it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import pants_trig
from .pants_trig import DomainError
from .surface import (
    ArcClass,
    FNPoint,
    HolonomyError,
    Marking,
    NotGeodesicError,
    holonomy,
)

__all__ = [
    "CurveClass",
    "LengthTable",
    "NeighborhoodCurve",
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
    """Lengths of many curve classes at one point.

    Assembles the holonomy of ``fn`` once, whose relation check raises
    :class:`HolonomyError` on a failed gluing.  Pants and boundary lengths
    are read off the point; every dual class is a trace in the frame of
    its cuff.  Returns a list aligned with ``classes``.  :func:`length_table`
    makes this call once per point, so a comparison of two points costs two
    assemblies.
    """
    h = holonomy(fn, m)
    out = []
    for c in classes:
        kind, idx = c.seed
        if kind == "gamma":
            out.append(fn.lengths[idx])
        elif kind == "beta":
            out.append(fn.boundary[idx])
        else:
            out.append(h.dual_length(idx, c.power))
    return out


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
    whole family.  A :class:`HolonomyError` or :class:`NotGeodesicError`
    of the assembly is re-raised as the same type with the replay witness
    ``{"x": <point JSON>, "depth": depth}`` appended to its message and
    kept in its ``witness`` attribute.
    """
    if (fn.g, fn.n) != (m.genus, m.nboundary):
        raise DomainError(f"point on ({fn.g},{fn.n}) does not fit the marking "
                          f"of ({m.genus},{m.nboundary})")
    classes = tuple(enumerate_curves(m, depth))
    try:
        lengths = tuple(family_lengths(fn, m, classes))
    except (HolonomyError, NotGeodesicError) as err:
        witness = {"x": json.loads(fn.to_json()), "depth": depth}
        replay = type(err)(f"{err}\nwitness: {json.dumps(witness)}")
        replay.witness = witness
        raise replay from err
    arcs = ()
    if m.nboundary and all(fn.boundary):
        arcs = tuple(enumerate_arcs(m, depth))
    return LengthTable(point=fn, depth=depth, classes=classes, lengths=lengths,
                       arcs=arcs,
                       arc_lengths=tuple(arc_length_formula(fn, m, a) for a in arcs))


def enumerate_arcs(m: Marking, depth: int = 0):
    """Seed arcs of every boundary-adjacent pants.

    The seed system (one arc per boundary pair within a pants plus one
    self-arc per boundary slot) is independent of ``depth``; richer
    doubled-word families are an extension point and keep the family
    nested in ``depth``.
    """
    if m.nboundary < 1:
        raise DomainError("arc families need at least one boundary component")
    if depth < 0:
        raise DomainError(f"depth must be nonnegative, got {depth!r}")
    return list(m.arcs)


def arc_length_formula(fn: FNPoint, m: Marking, arc: ArcClass) -> float:
    """Closed-form length of a pants-local arc (twist independent)."""
    assign = m.slot_assignment()

    def slot_len(p, s):
        kind, idx = assign[(p, s)]
        return fn.lengths[idx] if kind == "edge" else fn.boundary[idx]

    p = arc.pants
    if arc.kind == "between":
        si, sj = arc.slots
        return pants_trig.orthogeodesic_between(
            slot_len(p, si), slot_len(p, sj), slot_len(p, 3 - si - sj))
    (s,) = arc.slots
    others = [t for t in range(3) if t != s]
    return pants_trig.orthogeodesic_self(
        slot_len(p, s), slot_len(p, others[0]), slot_len(p, others[1]))


@dataclass(frozen=True)
class NeighborhoodCurve:
    """Boundary curve of the pants neighbourhood of an arc.

    ``ref`` points at a pants curve ``("gamma", k)`` or a boundary
    ``("beta", i)``; boundary-parallel curves are flagged non-essential.
    """

    ref: tuple
    word: tuple
    essential: bool

    def length_at(self, fn: FNPoint) -> float:
        kind, idx = self.ref
        return fn.lengths[idx] if kind == "gamma" else fn.boundary[idx]

    def label(self) -> str:
        return f"{self.ref[0]}{self.ref[1]}" + ("" if self.essential else "(boundary)")


def pants_neighborhood_boundaries(arc: ArcClass, m: Marking):
    """Boundary curves of the tubular neighbourhood pants of an arc.

    One curve for an arc joining two distinct boundaries (the third cuff of
    its pants), two for a self-arc (the other two cuffs, which coincide on
    a handle block).  Curves parallel to a surface boundary are returned
    flagged as non-essential.
    """
    assign = m.slot_assignment()
    p = arc.pants
    if arc.kind == "between":
        si, sj = arc.slots
        other = [3 - si - sj]
    else:
        (s,) = arc.slots
        other = [t for t in range(3) if t != s]
    out = []
    for s in other:
        kind, idx = assign[(p, s)]
        if kind == "edge":
            out.append(NeighborhoodCurve(ref=("gamma", idx),
                                         word=m.gamma_word(idx), essential=True))
        else:
            out.append(NeighborhoodCurve(ref=("beta", idx),
                                         word=m.boundary_word(idx), essential=False))
    return out

