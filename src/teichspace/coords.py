"""Fenchel-Nielsen coordinates and the canonical pants decomposition.

A surface of genus ``g`` with ``n`` boundary components (``2 - 2g - n < 0``)
carries a canonical pants decomposition built here from ``g`` one-handle
blocks attached to a linear chain of pants.  A :class:`Marking` records the
gluing combinatorics with the seed curve and arc systems; an
:class:`FNPoint` holds the Fenchel-Nielsen data (cuff lengths, twists,
boundary lengths) on it.  Everything here is plain Python: the closed-form
lengths in :mod:`teichspace.curves` read these types directly, and only the
SL(2, R) oracle in :mod:`teichspace.surface` turns them into matrices.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType

from .pants_trig import DomainError

__all__ = [
    "ArcClass",
    "Edge",
    "FNPoint",
    "Marking",
    "build_marking",
    "json_fields",
    "phi_gamma",
]

# ---------------------------------------------------------------------------
# combinatorics


@dataclass(frozen=True)
class Edge:
    """Internal pants curve: the two pants slots it glues (left, right)."""

    index: int
    left: tuple  # (pants, slot)
    right: tuple


@dataclass(frozen=True)
class ArcClass:
    """Homotopy class of an essential arc supported in a single pants.

    ``kind`` is "between" (two distinct boundary slots ``slots``) or "self"
    (one boundary slot).  Boundary indices are recorded alongside the slots.
    ``neighbour_slots`` are the slots of the other cuffs of the pants, which
    bound the arc's neighbourhood: the third slot of a between-arc, the
    other two of a self-arc in ascending order.
    """

    pants: int
    kind: str
    slots: tuple
    boundaries: tuple
    neighbour_slots: tuple

    def label(self) -> str:
        bs = ",".join(str(b) for b in self.boundaries)
        return f"arc[{self.kind}:p{self.pants}:b{bs}]"


@dataclass(frozen=True)
class Marking:
    """Combinatorial pants decomposition with seed curve and arc systems.

    ``edges`` are the internal curves (index aligned with the length/twist
    vectors), ``boundary_slots[m]`` is the pants slot carrying boundary
    ``m``, ``tree`` lists the spanning-tree edge indices and ``arcs`` the
    pants-local seed arcs.

    Construction checks that every slot of every pants carries exactly one
    edge side or boundary and keeps the resulting slot table, which
    :meth:`slot_assignment`, :meth:`slot_length` and :meth:`curve_index`
    read.  It also resolves each seed arc and each dual once:
    ``arc_forms[i]`` is :meth:`arc_form` of ``arcs[i]`` and
    ``orbit_forms[k]`` is :meth:`orbit_form` of edge ``k``.  These are the
    one place an arc's or a dual's slots are mapped to curves: the hexagon
    lengths, the neighbourhood curves of an arc and the arc check read the
    forms.  ``boundary_orbits`` lists, in order, the edges ``k`` whose
    ``orbit_forms[k]`` reads a boundary (an index ``>= ncurves``): the
    dual orbits whose lengths change when the boundary lengths are
    forgotten.
    """

    genus: int
    nboundary: int
    edges: tuple
    boundary_slots: tuple
    tree: frozenset
    arcs: tuple
    _slots: dict = field(init=False, repr=False, compare=False)
    arc_forms: tuple = field(init=False, repr=False, compare=False)
    orbit_forms: tuple = field(init=False, repr=False, compare=False)
    boundary_orbits: tuple = field(init=False, repr=False, compare=False)

    @property
    def ncurves(self) -> int:
        return len(self.edges)

    @property
    def pants_count(self) -> int:
        return 2 * self.genus - 2 + self.nboundary

    def __post_init__(self):
        used = {}
        for e in self.edges:
            for side in (e.left, e.right):
                if side in used:
                    raise DomainError(f"slot {side} used twice in marking")
                used[side] = ("edge", e.index)
        for m, side in enumerate(self.boundary_slots):
            if side in used:
                raise DomainError(f"slot {side} used twice in marking")
            used[side] = ("boundary", m)
        expected = {(p, s) for p in range(self.pants_count) for s in range(3)}
        if set(used) != expected:
            raise DomainError("marking is not trivalent")
        object.__setattr__(self, "_slots", used)
        object.__setattr__(self, "arc_forms",
                           tuple(self.arc_form(a) for a in self.arcs))
        object.__setattr__(self, "orbit_forms",
                           tuple(self.orbit_form(k) for k in range(self.ncurves)))
        object.__setattr__(self, "boundary_orbits", tuple(
            k for k, form in enumerate(self.orbit_forms)
            if max(form) >= self.ncurves))

    def require_fit(self, fn: FNPoint) -> None:
        """Raise :class:`DomainError` unless ``fn`` lives on the surface
        ``(genus, nboundary)`` of this marking."""
        if (fn.g, fn.n) != (self.genus, self.nboundary):
            raise DomainError(f"point on ({fn.g},{fn.n}) does not fit the marking "
                              f"of ({self.genus},{self.nboundary})")

    def slot_assignment(self):
        """Read-only map ``(pants, slot) -> ("edge", k)`` or
        ``("boundary", m)``: the curve on each slot.  Kept for the
        benchmark, which reads it; the package reads :meth:`curve_index`."""
        return MappingProxyType(self._slots)

    def slot_length(self, fn: FNPoint, side: tuple) -> float:
        """Length at ``fn`` of the curve on slot ``side = (pants, slot)``:
        its cuff length, its boundary length, or 0.0 on a cusp."""
        kind, idx = self._slots[side]
        return fn.lengths[idx] if kind == "edge" else fn.boundary[idx]

    def curve_index(self, side: tuple) -> int:
        """Index of the curve on slot ``side = (pants, slot)`` in
        ``fn.lengths + fn.boundary``: cuffs first, then boundaries."""
        kind, idx = self._slots[side]
        return idx if kind == "edge" else self.ncurves + idx

    def arc_form(self, arc: ArcClass) -> tuple:
        """``(between, i, j, k)``: whether ``arc`` joins two distinct
        boundaries, then the :meth:`curve_index` of the curves on its
        ``slots + neighbour_slots``; the curves its hexagon form reads.
        ``form[1 + len(arc.slots):]`` are the curves bounding its
        neighbourhood pants: ``form[3:]`` of a between-arc, ``form[2:]``
        of a self-arc."""
        return (arc.kind == "between",
                *(self.curve_index((arc.pants, s))
                  for s in arc.slots + arc.neighbour_slots))

    def orbit_form(self, k: int) -> tuple:
        """The :meth:`curve_index` of the curves the length of the dual
        ``mu_k`` reads besides cuff ``k``: ``(b,)``, the third slot of a
        handle loop, or ``(a+, a-, b+, b-)``, the slots after the glued one
        in its left and right pants."""
        (pa, sa), (pb, sb) = self.edges[k].left, self.edges[k].right
        if pa == pb:
            return (self.curve_index((pa, 3 - sa - sb)),)
        return tuple(self.curve_index(side) for side in
                     ((pa, (sa + 1) % 3), (pa, (sa + 2) % 3),
                      (pb, (sb + 1) % 3), (pb, (sb + 2) % 3)))


def _check_surface(g: int, n: int) -> None:
    """Raise :class:`DomainError` unless ``g, n >= 0`` and ``2 - 2g - n < 0``."""
    if g < 0:
        raise DomainError(f"genus must be nonnegative, got g={g!r}")
    if n < 0:
        raise DomainError(f"boundary count must be nonnegative, got n={n!r}")
    if 2 - 2 * g - n >= 0:
        raise DomainError(f"unsupported surface: chi(S) = {2 - 2*g - n} >= 0")


def build_marking(g: int, n: int) -> Marking:
    """Canonical deterministic pants decomposition of the (g, n) surface.

    ``g`` handle blocks (one pants with two slots glued to each other) are
    attached to a chain of ``g + n - 2`` pants carrying the boundary legs.
    Edge order: handle loops, block attachments, chain gluings.

    This fixes one marking among the isotopic choices; all reported
    quantities are marking-dependent only through the naming of curve and
    arc classes, not through any metric value.
    """
    # A negative genus is named first, by _check_surface.
    if g >= 0 and n < 1:
        raise DomainError(f"need at least one boundary component, got n={n!r}")
    _check_surface(g, n)
    m = g + n - 2
    edges = []
    if m == 0:
        # One-holed torus: a single block whose free slot is the boundary.
        edges.append(Edge(0, (0, 0), (0, 1)))
        boundary_slots = ((0, 2),)
        tree = frozenset()
    else:
        legs = [(g, 0), (g, 1)]
        legs += [(g + c, 1) for c in range(1, m - 1)]
        if m > 1:
            legs += [(g + m - 1, 1), (g + m - 1, 2)]
        else:
            legs = [(g, 0), (g, 1), (g, 2)]
        k = 0
        for h in range(g):
            edges.append(Edge(k, (h, 0), (h, 1)))
            k += 1
        for h in range(g):
            edges.append(Edge(k, (h, 2), legs[h]))
            k += 1
        for c in range(m - 1):
            edges.append(Edge(k, (g + c, 2), (g + c + 1, 0)))
            k += 1
        boundary_slots = tuple(legs[g + i] for i in range(n))
        tree = frozenset(range(g, len(edges)))

    slot_of_boundary = {side: mh for mh, side in enumerate(boundary_slots)}
    by_pants = {}
    for side, mh in slot_of_boundary.items():
        by_pants.setdefault(side[0], []).append(side)
    arcs = []
    for p in sorted(by_pants):
        sides = sorted(by_pants[p], key=lambda ps: ps[1])
        for i in range(len(sides)):
            for j in range(i + 1, len(sides)):
                si, sj = sides[i][1], sides[j][1]
                arcs.append(ArcClass(
                    pants=p, kind="between", slots=(si, sj),
                    boundaries=(slot_of_boundary[sides[i]],
                                slot_of_boundary[sides[j]]),
                    neighbour_slots=(3 - si - sj,)))
        for side in sides:
            arcs.append(ArcClass(
                pants=p, kind="self", slots=(side[1],),
                boundaries=(slot_of_boundary[side],),
                neighbour_slots=tuple(t for t in range(3) if t != side[1])))

    return Marking(genus=g, nboundary=n, edges=tuple(edges),
                   boundary_slots=tuple(boundary_slots), tree=tree,
                   arcs=tuple(arcs))


# ---------------------------------------------------------------------------
# Fenchel-Nielsen points


@dataclass(frozen=True, init=False)
class FNPoint:
    """Fenchel-Nielsen coordinates: cuff lengths, twists, boundary lengths.

    Construction stores every coordinate as a float and raises
    :class:`DomainError` for, in this order: a surface with ``g < 0``,
    ``n < 0`` or ``chi(S) >= 0``; counts that do not fit ``(g, n)``; a cuff
    length that is not positive and finite, a twist that is not finite and
    a boundary length that is not nonnegative and finite.  ``n = 0`` (the
    closed doubles of :func:`teichspace.surface.double`) is accepted.
    Each field is converted, checked and stored once, by ``__init__``.
    """

    g: int
    n: int
    lengths: tuple
    twists: tuple
    boundary: tuple

    def __init__(self, g, n, lengths, twists, boundary):
        _check_surface(g, n)
        lengths = tuple(map(float, lengths))
        twists = tuple(map(float, twists))
        boundary = tuple(map(float, boundary))
        ncurves = 3 * g - 3 + n
        if len(lengths) != ncurves or len(twists) != ncurves:
            raise DomainError(
                f"expected {ncurves} lengths/twists for (g, n)=({g},{n})")
        if len(boundary) != n:
            raise DomainError(f"expected {n} boundary lengths")
        # Chained comparisons with the infinities: NaN fails every one.
        inf = math.inf
        for v in lengths:
            if not 0.0 < v < inf:
                raise DomainError(f"cuff lengths must be positive, got {v!r}")
        for v in twists:
            if not -inf < v < inf:
                raise DomainError(f"twists must be finite, got {v!r}")
        for v in boundary:
            if not 0.0 <= v < inf:
                raise DomainError(f"boundary lengths must be nonnegative, got {v!r}")
        # Frozen: the instance dict is written directly, as
        # object.__setattr__ would.
        self.__dict__.update(g=g, n=n, lengths=lengths, twists=twists,
                             boundary=boundary)

    def is_punctured(self) -> bool:
        return all(v == 0.0 for v in self.boundary)

    def to_dict(self) -> dict:
        """The point as a plain JSON-ready dict; :meth:`to_json` dumps it."""
        return {"g": self.g, "n": self.n, "lengths": list(self.lengths),
                "twists": list(self.twists), "boundary": list(self.boundary)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FNPoint":
        """Point from a JSON object, checked by :func:`json_fields`."""
        return cls(**json_fields(cls, text, "point"))


def json_fields(cls, text: str, what: str) -> dict:
    """Keyword arguments of the dataclass ``cls`` read from the JSON object
    ``text``; ``what`` names the object in messages.

    A value that is not an object, unknown keys, absent fields without a
    default, non-integer values of integer fields, values of tuple fields
    that are not lists of numbers and values of string fields that are
    neither strings nor null raise :class:`DomainError` naming them.
    Absent fields with a default are left out.
    """
    d = json.loads(text)
    if not isinstance(d, dict):
        raise DomainError(f"{what} must be a JSON object, got "
                          f"{type(d).__name__}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise DomainError(f"unknown {what} keys: {', '.join(unknown)}")
    for f in fields(cls):
        if f.name not in d:
            if f.default is MISSING:
                raise DomainError(f"missing {what} key: {f.name}")
            continue
        v = d[f.name]
        if f.type == "int" and type(v) is not int:
            raise DomainError(f"{what} key {f.name} must be an integer, "
                              f"got {v!r}")
        if f.type == "tuple" and not (
                type(v) is list and all(type(e) in (int, float) for e in v)):
            raise DomainError(f"{what} key {f.name} must be a list of "
                              f"numbers, got {v!r}")
        if f.type in ("str", "str | None") and not (v is None or type(v) is str):
            raise DomainError(f"{what} key {f.name} must be a string, got {v!r}")
    return d


def phi_gamma(x: FNPoint) -> FNPoint:
    """Forget the boundary lengths: (L, T, Lambda) -> (L, T, 0).  Idempotent."""
    return FNPoint(g=x.g, n=x.n, lengths=x.lengths, twists=x.twists,
                   boundary=(0.0,) * x.n)
