"""Certified-simple curve families and arc families with length evaluation.

Seeds are the pants curves, the dual multicurve, and the boundary curves of
the canonical marking; richer families arise as images of these seeds under
multi-powers of Dehn twists along the pants curves.  Every family member is
therefore simple by construction (a mapping-class image of a simple seed),
which is the certificate this module relies on; no general simplicity test
is performed.

Lengths of twisted classes are evaluated by the twist-shift rule: the image
of a seed under the k-fold twist has, at the point with twists ``T``, the
length of the seed at twists ``T - k * L`` (componentwise).  This avoids
rewriting words under twist automorphisms and is exact by mapping-class
equivariance of geodesic length.

Pants-local arcs are evaluated by the hexagon closed forms; geodesic pants
are convex, so these lengths do not depend on the twists.

:func:`length_table` gathers every length the metric estimators read at one
point (the curve family and, on bordered points, the seed arcs) so that a
point is assembled once however many estimators and partners use it.
"""

from __future__ import annotations

import itertools
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
    curve_length,
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
    """A seed curve twisted by a multi-power of Dehn twists.

    ``seed`` is ``("gamma", k)``, ``("mu", k)`` or ``("beta", i)``; ``twist``
    is the full twist vector (nonzero only on the seed's support, where the
    class actually depends on it).
    """

    seed: tuple
    twist: tuple

    def label(self) -> str:
        kind, idx = self.seed
        if any(self.twist):
            return f"{kind}{idx}@" + ":".join(str(t) for t in self.twist)
        return f"{kind}{idx}"

    @property
    def essential(self) -> bool:
        return self.seed[0] != "beta"


def _seed_word(m: Marking, seed):
    kind, idx = seed
    if kind == "gamma":
        return m.gamma_word(idx)
    if kind == "mu":
        return m.mu_words[idx]
    if kind == "beta":
        return m.boundary_word(idx)
    raise DomainError(f"unknown seed {seed!r}")


def enumerate_curves(m: Marking, depth: int):
    """All seeds with twist multi-powers of sup norm at most ``depth``.

    Pants curves and boundary curves are fixed by every twist, so they
    appear once; each dual seed is twisted only along its support (the
    curves it actually crosses), which is the deduplication quotient.
    Deterministic order, nested in ``depth``.
    """
    if depth < 0:
        raise DomainError(f"depth must be nonnegative, got {depth!r}")
    zero = (0,) * m.ncurves
    out = []
    for k in range(m.ncurves):
        out.append(CurveClass(seed=("gamma", k), twist=zero))
    for k in range(m.ncurves):
        out.append(CurveClass(seed=("mu", k), twist=zero))
    for i in range(m.nboundary):
        out.append(CurveClass(seed=("beta", i), twist=zero))
    supports = m.curve_supports()
    for radius in range(1, depth + 1):
        for k in range(m.ncurves):
            support = sorted(supports[k])
            for combo in itertools.product(range(-radius, radius + 1),
                                           repeat=len(support)):
                if max(abs(c) for c in combo) != radius:
                    continue
                tw = [0] * m.ncurves
                for pos, c in zip(support, combo):
                    tw[pos] = c
                out.append(CurveClass(seed=("mu", k), twist=tuple(tw)))
    return out


def _shifted_point(fn: FNPoint, twist_vec) -> FNPoint:
    if not any(twist_vec):
        return fn
    shifted = tuple(t - k * l for t, k, l in
                    zip(fn.twists, twist_vec, fn.lengths))
    return FNPoint(g=fn.g, n=fn.n, lengths=fn.lengths, twists=shifted,
                   boundary=fn.boundary)


def family_lengths(fn: FNPoint, m: Marking, classes):
    """Lengths of many curve classes at one point.

    Groups the classes by twist vector so each shifted holonomy is
    assembled once.  Returns a list aligned with ``classes``.  Over the
    family of :func:`enumerate_curves` at ``depth`` that is
    ``1 + 2 * depth * ncurves`` assemblies (the zero twist plus two per
    dual seed and radius); :func:`length_table` makes this call once per
    point, so a comparison of two points costs twice that.
    """
    by_twist = {}
    for pos, c in enumerate(classes):
        by_twist.setdefault(c.twist, []).append(pos)
    out = [0.0] * len(classes)
    for twist_vec, positions in sorted(by_twist.items()):
        h = holonomy(_shifted_point(fn, twist_vec), m)
        for pos in positions:
            seed = classes[pos].seed
            if seed[0] == "gamma":
                out[pos] = fn.lengths[seed[1]]
            elif seed[0] == "beta":
                out[pos] = fn.boundary[seed[1]]
            else:
                out[pos] = curve_length(h, _seed_word(m, seed))
    return out


def curve_length_at(fn: FNPoint, m: Marking, c: CurveClass) -> float:
    """Length of one twisted class via the twist-shift rule."""
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

