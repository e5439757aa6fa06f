"""Fenchel-Nielsen coordinates, pants gluing, and holonomy representations.

A surface of genus ``g`` with ``n`` boundary components (``2 - 2g - n < 0``)
carries a canonical pants decomposition built here from ``g`` one-handle
blocks attached to a linear chain of pants.  Given Fenchel-Nielsen data
(cuff lengths, twists, boundary lengths) the module assembles an explicit
representation of the fundamental group into SL(2, R) by positioning one
pants group per pair of pants and conjugating neighbours into place across
each cuff.

Matrix conventions
------------------
All matrices act on the upper half-plane.  Each pair of pants with half-trace
targets ``x = cosh(l0/2)``, ``y = cosh(l1/2)``, ``z = cosh(l2/2)`` is realised
by generators ``A, B`` with ``tr A = 2x``, ``tr B = 2y``, ``tr AB = -2z`` and
third boundary word ``C = (AB)^-1``, so ``A B C = 1`` holds exactly.  Cusps
(``l = 0``) produce parabolic boundary words.

Every glued cuff of a positioned pants carries a canonical *frame*: the
unique (up to sign) matrix taking the cuff axis to the imaginary axis,
attracting fixed point to infinity, and the foot of a designated seam
perpendicular to the point ``i``.  The designated seam runs to the next
slot of the pants, except on a handle loop, where both sides use the seam
joining the two copies of the cuff (this makes the zero twist the
perpendicular gluing on a one-holed torus).  Gluing two pants along a cuff
with twist ``t`` composes one frame with the half-turn ``z -> -1/z`` and a
translation by ``t`` along the axis before undoing the other frame; the
half-turn guarantees the two pants land on opposite sides of the cuff, and
aligned feet define the zero twist.  Twists are measured in hyperbolic
length, so a full Dehn twist along a cuff shifts its twist by the cuff
length; the sign convention is fixed by the word-level twist tests.

Cuffs not in the spanning tree of the pants graph (handle loops, mirror
gluings) contribute one explicit connector matrix each; together with the
pants generators these generate the holonomy group, and every defining
gluing relation is checked numerically and reported as a residual.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType

import numpy as np

from .pants_trig import DomainError

__all__ = [
    "ArcClass",
    "DoubleData",
    "FNPoint",
    "Holonomy",
    "HolonomyError",
    "Marking",
    "NotGeodesicError",
    "arc_length",
    "build_marking",
    "curve_length",
    "double",
    "holonomy",
    "phi_gamma",
]

_ID = np.eye(2)
_SWAP = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Positive twist direction; fixed so that the positive Dehn twist along a
# cuff appends the positive cuff letter to the dual word (and so evaluating
# a k-fold twisted class equals evaluating its seed at twists T - k*L), and
# doubling with negated mirror twists is an isometry.
_TWIST_SIGN = -1.0

# Accepted scale-relative deviation of a gluing relation from +-identity,
# and the band of |trace| around 2 read as parabolic (length 0).
_RESIDUAL_TOL = 1e-9
_PARABOLIC_TOL = 1e-9


class HolonomyError(RuntimeError):
    """Raised when the numerical gluing fails its own consistency checks."""


class NotGeodesicError(ValueError):
    """Raised for words whose holonomy is elliptic (no geodesic length)."""


def _inv(m: np.ndarray) -> np.ndarray:
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def _translation(t: float) -> np.ndarray:
    e = math.exp(t / 2.0)
    return np.array([[e, 0.0], [0.0, 1.0 / e]])


def _det(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _renorm(m: np.ndarray) -> np.ndarray:
    """Rescale to determinant 1 when the determinant is well conditioned.

    For matrices with large entries the determinant is a catastrophically
    cancelled difference and carries no information; products of det-1
    factors keep determinant 1 to machine precision anyway, so those are
    left untouched.
    """
    scale = float(np.abs(m).max())
    noise = 64.0 * np.finfo(float).eps * scale * scale
    if noise > 1e-6:
        return m
    d = _det(m)
    if d <= 0:
        raise HolonomyError(f"matrix determinant collapsed: {d!r}")
    return m / math.sqrt(d)


def _eigen_direction(m: np.ndarray, lam: float) -> np.ndarray:
    v1 = np.array([m[0, 1], lam - m[0, 0]])
    v2 = np.array([lam - m[1, 1], m[1, 0]])
    v = v1 if np.dot(v1, v1) >= np.dot(v2, v2) else v2
    norm = math.sqrt(np.dot(v, v))
    if norm == 0.0:
        raise HolonomyError("degenerate eigenvector")
    return v / norm


def _fixed_directions(m: np.ndarray):
    """Eigen-directions (attracting, repelling) of a hyperbolic matrix, or a
    single repeated direction for a parabolic one."""
    tr = m[0, 0] + m[1, 1]
    disc = tr * tr - 4.0
    if disc <= 1e-14:
        lam = math.copysign(1.0, tr)
        v = _eigen_direction(m, lam)
        return v, v
    s = math.sqrt(disc)
    dominant = (tr + s) / 2.0 if tr > 0 else (tr - s) / 2.0
    other = 1.0 / dominant
    return _eigen_direction(m, dominant), _eigen_direction(m, other)


def _normalizer(m: np.ndarray) -> np.ndarray:
    """Det-1 matrix N with ``N m N^-1 = +-diag(e^(l/2), e^(-l/2))``."""
    ep, em = _fixed_directions(m)
    v = np.column_stack([ep, em])
    d = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    if abs(d) < 1e-14:
        raise HolonomyError("cannot normalize a parabolic element to the axis")
    if d < 0:
        v = np.column_stack([ep, -em])
        d = -d
    v = v / math.sqrt(d)
    return _inv(v)


def _frame(slot_mat: np.ndarray, neighbor_mat: np.ndarray) -> np.ndarray:
    """Canonical cuff frame: axis to the imaginary axis, perpendicular foot
    from the neighbouring cuff to the point i."""
    n = _normalizer(slot_mat)
    pts = []
    for v in _fixed_directions(neighbor_mat):
        w = n @ v
        if abs(w[1]) < 1e-13 * abs(w[0]):
            raise HolonomyError("neighbouring cuff axis touches the cuff endpoint")
        pts.append(w[0] / w[1])
    p, q = pts
    if p * q <= 0:
        raise HolonomyError("neighbouring cuff axis crosses the cuff")
    f = 0.5 * math.log(abs(p * q))
    return _translation(-f) @ n


def _pants_generators(l0: float, l1: float, l2: float):
    """Generators (A, B, C) with boundary traces 2cosh(l/2) and A B C = 1."""
    for l in (l0, l1, l2):
        if l < 0 or not math.isfinite(l):
            raise DomainError(f"cuff lengths must be nonnegative, got {l!r}")
    x, y, z = (math.cosh(v / 2.0) for v in (l0, l1, l2))
    if l0 == 0.0:
        a = np.array([[1.0, -1.0], [0.0, 1.0]])
        c_low = 2.0 * (z + y)
        b = np.array([[y, (y * y - 1.0) / c_low], [c_low, y]])
    else:
        a = np.array([[x, 1.0], [x * x - 1.0, x]])
        if l1 == 0.0:
            # The l1 -> 0 limit of the generic root below.
            b = np.array([[1.0, -2.0 * (z + x) / (x * x - 1.0)], [0.0, 1.0]])
        else:
            # (x^2-1) b^2 + 2(z+xy) b + (y^2-1) = 0; both roots negative.
            p = z + x * y
            disc = p * p - (x * x - 1.0) * (y * y - 1.0)
            root = (-p - math.sqrt(disc)) / (x * x - 1.0)
            b = np.array([[y, root], [(y * y - 1.0) / root, y]])
    c = _inv(a @ b)
    return a, b, c


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
    ``m``, ``tree`` lists the spanning-tree edge indices, ``mu_words`` the
    seed multicurve words dual to each edge, and ``arcs`` the pants-local
    seed arcs.  Words are tuples of ``(token, exponent)`` pairs where a
    token is ``("slot", pants, slot)`` or ``("conn", edge_index)``.

    Construction checks that every slot of every pants carries exactly one
    edge side or boundary and keeps the resulting slot table, which
    :meth:`slot_assignment` and :meth:`slot_length` read.
    """

    genus: int
    nboundary: int
    pants_count: int
    edges: tuple
    boundary_slots: tuple
    tree: frozenset
    mu_words: tuple
    arcs: tuple
    _slots: dict = field(init=False, repr=False, compare=False)

    @property
    def ncurves(self) -> int:
        return len(self.edges)

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

    def slot_assignment(self):
        """Read-only map ``(pants, slot) -> ("edge", k)`` or
        ``("boundary", m)``: the curve on each slot."""
        return MappingProxyType(self._slots)

    def slot_length(self, fn: FNPoint, side: tuple) -> float:
        """Length at ``fn`` of the curve on slot ``side = (pants, slot)``:
        its cuff length, its boundary length, or 0.0 on a cusp."""
        kind, idx = self._slots[side]
        return fn.lengths[idx] if kind == "edge" else fn.boundary[idx]

    def gamma_word(self, k: int):
        p, s = self.edges[k].left
        return ((("slot", p, s), 1),)

    def boundary_word(self, m: int):
        p, s = self.boundary_slots[m]
        return ((("slot", p, s), 1),)


def build_marking(g: int, n: int) -> Marking:
    """Canonical deterministic pants decomposition of the (g, n) surface.

    ``g`` handle blocks (one pants with two slots glued to each other) are
    attached to a chain of ``g + n - 2`` pants carrying the boundary legs.
    Edge order: handle loops, block attachments, chain gluings.

    This fixes one marking among the isotopic choices; all reported
    quantities are marking-dependent only through the naming of curve and
    arc classes, not through any metric value.
    """
    if n < 1:
        raise DomainError(f"need at least one boundary component, got n={n!r}")
    if 2 - 2 * g - n >= 0:
        raise DomainError(f"unsupported surface: chi(S) = {2 - 2*g - n} >= 0")
    pants_count = 2 * g - 2 + n
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

    mu_words = []
    loop_edges = {e.index for e in edges if e.left[0] == e.right[0]}
    for e in edges:
        if e.index in loop_edges:
            mu_words.append(((("conn", e.index), 1),))
        else:
            (pa, sa), (pb, sb) = e.left, e.right
            mu_words.append(((("slot", pa, (sa + 1) % 3), 1),
                             (("slot", pb, (sb + 1) % 3), 1)))

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

    return Marking(genus=g, nboundary=n, pants_count=pants_count,
                   edges=tuple(edges), boundary_slots=tuple(boundary_slots),
                   tree=tree, mu_words=tuple(mu_words), arcs=tuple(arcs))


# ---------------------------------------------------------------------------
# Fenchel-Nielsen points


@dataclass(frozen=True)
class FNPoint:
    """Fenchel-Nielsen coordinates: cuff lengths, twists, boundary lengths."""

    g: int
    n: int
    lengths: tuple
    twists: tuple
    boundary: tuple

    def __post_init__(self):
        ncurves = 3 * self.g - 3 + self.n
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        object.__setattr__(self, "twists", tuple(float(v) for v in self.twists))
        object.__setattr__(self, "boundary", tuple(float(v) for v in self.boundary))
        if len(self.lengths) != ncurves or len(self.twists) != ncurves:
            raise DomainError(
                f"expected {ncurves} lengths/twists for (g, n)=({self.g},{self.n})")
        if len(self.boundary) != self.n:
            raise DomainError(f"expected {self.n} boundary lengths")
        for v in self.lengths:
            if not (v > 0.0 and math.isfinite(v)):
                raise DomainError(f"cuff lengths must be positive, got {v!r}")
        for v in self.twists:
            if not math.isfinite(v):
                raise DomainError(f"twists must be finite, got {v!r}")
        for v in self.boundary:
            if v < 0.0 or not math.isfinite(v):
                raise DomainError(f"boundary lengths must be nonnegative, got {v!r}")

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
    default, non-integer values of integer fields and values of tuple
    fields that are not lists of numbers raise :class:`DomainError` naming
    them.  Absent fields with a default are left out.
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
    return d


def phi_gamma(x: FNPoint) -> FNPoint:
    """Forget the boundary lengths: (L, T, Lambda) -> (L, T, 0).  Idempotent."""
    return FNPoint(g=x.g, n=x.n, lengths=x.lengths, twists=x.twists,
                   boundary=(0.0,) * x.n)


# ---------------------------------------------------------------------------
# holonomy assembly


@dataclass
class Holonomy:
    """Positioned SL(2,R) matrices for one Fenchel-Nielsen point.

    ``slot_mats[(p, s)]`` is the global boundary word of slot ``s`` of pants
    ``p``; ``conn_mats[k]`` the connector for each non-tree edge.
    ``relation_residual`` is the largest deviation of a defining gluing
    relation from plus or minus the identity, and ``det_residual`` the
    largest deviation of a generator determinant from 1.
    """

    marking: Marking
    fn: FNPoint
    slot_mats: dict
    conn_mats: dict
    relation_residual: float
    det_residual: float

    def generator(self, token) -> np.ndarray:
        if token[0] == "slot":
            return self.slot_mats[(token[1], token[2])]
        if token[0] == "conn":
            return self.conn_mats[token[1]]
        raise DomainError(f"unknown generator token {token!r}")

    def evaluate(self, word) -> np.ndarray:
        out = _ID
        for token, exp in word:
            m = self.generator(token)
            if exp < 0:
                m, exp = _inv(m), -exp
            for _ in range(exp):
                out = out @ m
        return out


def _transition(frames: dict, a: tuple, b: tuple, twist: float) -> np.ndarray:
    """``inv(F_a) @ translation(t) @ SWAP @ F_b`` across a cuff glued at
    ``twist``; swapping the slots gives the inverse up to sign."""
    return _renorm(_inv(frames[a]) @ _translation(_TWIST_SIGN * twist)
                   @ _SWAP @ frames[b])


def holonomy(fn: FNPoint, m: Marking) -> Holonomy:
    """Assemble the holonomy representation for ``fn`` on marking ``m``.

    Pants groups are positioned along the spanning tree of the pants graph;
    every remaining cuff contributes a connector matrix.  Raises
    :class:`HolonomyError` if any defining relation deviates from plus or
    minus the identity by more than ``_RESIDUAL_TOL`` (in scale-relative
    transition form), or if a cuff frame degenerates.  This catches
    gluings that double precision cannot close, such as every cuff at 20
    on genus 2 or 3.  It does not bound length accuracy: on (2, 2) with
    every cuff at 1e-4 the relations hold to 2e-12 or better, yet the cuff
    lengths read back up to 9e-4 off (relative), since ``2 acosh(|tr|/2)``
    cancels near trace 2.  An enforced accuracy envelope is an open
    ROADMAP item.
    """
    local = {p: _pants_generators(*(m.slot_length(fn, (p, s)) for s in range(3)))
             for p in range(m.pants_count)}
    # Cuff frames are needed only on glued slots; boundary slots may carry
    # parabolic words, which have no axis frame.  The frame of a glued slot
    # aligns the foot of the seam to the next slot of the pants; on a handle
    # loop both sides use the seam joining the two copies of the cuff, which
    # makes the zero twist the perpendicular gluing.
    frames = {}
    for e in m.edges:
        for (p, s), (q, o) in ((e.left, e.right), (e.right, e.left)):
            nb = o if p == q else (s + 1) % 3
            frames[(p, s)] = _frame(local[p][s], local[p][nb])

    # Position pants across the spanning tree, each after its parent.  All
    # frames are computed on well-conditioned local matrices; the global
    # frame of a positioned cuff is frame_local @ inv(G), exactly.  Rooting
    # at a tree center keeps conjugator entries as small as possible.
    root, steps = _tree_walk(m)
    g_mat = {root: _ID}
    placed_resids = []
    for (parent, pslot), (child, cslot), k in steps:
        trans = _transition(frames, (parent, pslot), (child, cslot),
                            fn.twists[k])
        g_mat[child] = _renorm(g_mat[parent] @ trans)
        # Gluing relation in transition form: V_child equals the
        # transition-conjugate of V_parent^-1 (checked without forming
        # ill-conditioned global conjugates).
        placed_resids.append(_relation_residual(
            local[child][cslot] @ _inv(trans),
            _inv(trans) @ _inv(local[parent][pslot])))
    if len(g_mat) != m.pants_count:
        raise HolonomyError("pants graph is not connected via the spanning tree")

    slot_mats = {}
    for p in range(m.pants_count):
        gi = _inv(g_mat[p])
        for s in range(3):
            slot_mats[(p, s)] = g_mat[p] @ local[p][s] @ gi

    conn_mats = {}
    for e in m.edges:
        if e.index in m.tree:
            continue
        (pa, sa), (pb, sb) = e.left, e.right
        trans = _transition(frames, e.left, e.right, fn.twists[e.index])
        conn_mats[e.index] = _renorm(g_mat[pa] @ trans @ _inv(g_mat[pb]))
        placed_resids.append(_relation_residual(
            trans @ local[pb][sb], _inv(local[pa][sa]) @ trans))

    for p in range(m.pants_count):
        a, b, c = local[p]
        placed_resids.append(_relation_residual(a @ b, _inv(c)))

    # Determinant drift is only measurable where the determinant itself is
    # well conditioned; on large-entry conjugates the true value stays 1
    # through products of det-1 factors but float64 cannot verify it.
    det_resid = 0.0
    for mat in list(slot_mats.values()) + list(conn_mats.values()):
        scale = float(np.abs(mat).max())
        if 64.0 * np.finfo(float).eps * scale * scale > 1e-12:
            continue
        det_resid = max(det_resid, abs(_det(mat) - 1.0))
    for p in range(m.pants_count):
        for mat in local[p]:
            det_resid = max(det_resid, abs(_det(mat) - 1.0))

    residual = max(placed_resids) if placed_resids else 0.0
    if residual > _RESIDUAL_TOL:
        raise HolonomyError(
            f"gluing relations failed: residual {residual:.3e} > {_RESIDUAL_TOL:.1e}")
    return Holonomy(marking=m, fn=fn, slot_mats=slot_mats, conn_mats=conn_mats,
                    relation_residual=residual, det_residual=det_resid)


def _tree_walk(m: Marking):
    """Root of the spanning tree and the other pants in breadth-first order
    from it, as ``(parent side, child side, edge index)`` of the tree edge
    that reaches each one.

    The root is a center: the middle of the path between the farthest pants
    ``u`` from pants 0 and the farthest pants from ``u`` (ties to the lower
    index; on an even path, the middle pants nearer ``u``).
    """
    adj = {p: [] for p in range(m.pants_count)}
    for k in sorted(m.tree):
        e = m.edges[k]
        adj[e.left[0]].append((e.left, e.right, k))
        adj[e.right[0]].append((e.right, e.left, k))

    def bfs(start):
        order, dist, via = [start], {start: 0}, {}
        for p in order:
            for mine, other, k in adj[p]:
                q = other[0]
                if q not in dist:
                    dist[q], via[q] = dist[p] + 1, (mine, other, k)
                    order.append(q)
        return order, via, max(order, key=lambda p: (dist[p], -p))

    _, _, u = bfs(0)
    _, via, v = bfs(u)
    path = [v]
    while path[-1] != u:
        path.append(via[path[-1]][0][0])
    root = path[len(path) // 2]
    order, via, _ = bfs(root)
    return root, [via[q] for q in order[1:]]


def _relation_residual(got: np.ndarray, want: np.ndarray) -> float:
    # Relative to the matrix scale: entries grow like exp of the cuff
    # lengths, and only the relative deviation controls length accuracy.
    scale = max(1.0, float(np.abs(got).max()), float(np.abs(want).max()))
    dev = min(np.abs(got - want).max(), np.abs(got + want).max())
    return float(dev) / scale


def curve_length(h: Holonomy, word) -> float:
    """Geodesic length of the free homotopy class of ``word``.

    ``2 acosh(|tr|/2)`` for hyperbolic holonomy, 0 within tolerance of a
    parabolic, :class:`NotGeodesicError` for elliptic words.
    """
    if not word:
        raise DomainError("empty word has no geodesic class")
    tr = abs(float(np.trace(h.evaluate(word))))
    if tr >= 2.0 + _PARABOLIC_TOL:
        return 2.0 * math.acosh(tr / 2.0)
    if tr >= 2.0 - _PARABOLIC_TOL:
        return 0.0
    raise NotGeodesicError(f"elliptic word (|trace| = {tr!r} < 2): not a geodesic class")


# ---------------------------------------------------------------------------
# Schottky double


@dataclass(frozen=True)
class DoubleData:
    """Marking and Fenchel-Nielsen data of the double of a bordered surface.

    The double has genus ``2g + n - 1``; its cuffs are the two mirror copies
    of the original cuffs plus one gluing curve per boundary component, in
    that index order.  ``involution`` maps a generator token to its mirror
    token wherever the mirror image is again a single generator (all slot
    words, handle connectors, and the boundary-gluing connectors, which are
    fixed up to inversion); ``boundary_edge[i]`` is the edge index of the
    gluing curve over boundary ``i``.
    """

    base_marking: Marking
    marking: Marking
    fn: FNPoint
    involution: dict
    boundary_edge: tuple

    def holonomy(self) -> Holonomy:
        return holonomy(self.fn, self.marking)


def double(fn: FNPoint, m: Marking) -> DoubleData:
    """Mirror and glue: Fenchel-Nielsen data (L, L, Lambda; T, -T, 0).

    All boundary lengths must be positive; doubling across a cusp is not
    defined.
    """
    if any(v == 0.0 for v in fn.boundary):
        raise DomainError("double of punctured boundary undefined")
    p_count, n_edges, n = m.pants_count, m.ncurves, m.nboundary

    def mirror_side(side):
        return (side[0] + p_count, side[1])

    edges = list(m.edges)
    for e in m.edges:
        edges.append(Edge(e.index + n_edges, mirror_side(e.left),
                          mirror_side(e.right)))
    boundary_edge = []
    for i, side in enumerate(m.boundary_slots):
        k = 2 * n_edges + i
        boundary_edge.append(k)
        edges.append(Edge(k, side, mirror_side(side)))

    # Spanning tree preferring the boundary gluings, so each mirror pants is
    # positioned directly across the boundary from its original; this keeps
    # the conjugators of doubled-arc words short and well conditioned.  The
    # base tree, one boundary gluing and the mirror tree already span, so
    # no other edge is ever needed.
    parent = list(range(2 * p_count))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = set()
    base_tree = sorted(m.tree)
    for k in base_tree + boundary_edge + [k + n_edges for k in base_tree]:
        e = edges[k]
        ra, rb = find(e.left[0]), find(e.right[0])
        if ra != rb:
            parent[ra] = rb
            tree.add(k)

    mu_words = list(m.mu_words)
    for w in m.mu_words:
        mu_words.append(tuple((_mirror_token(t, p_count, n_edges), e)
                              for t, e in w))
    for i, side in enumerate(m.boundary_slots):
        p, s = side
        mu_words.append(((("slot", p, (s + 1) % 3), 1),
                         (("slot", p + p_count, (s + 1) % 3), 1)))

    dm = Marking(genus=2 * m.genus + n - 1, nboundary=0,
                 pants_count=2 * p_count, edges=tuple(edges),
                 boundary_slots=(), tree=frozenset(tree),
                 mu_words=tuple(mu_words), arcs=())

    dfn = FNPoint(g=dm.genus, n=0,
                  lengths=fn.lengths + fn.lengths + fn.boundary,
                  twists=fn.twists + tuple(-t for t in fn.twists) + (0.0,) * n,
                  boundary=())

    involution = {}
    for p in range(p_count):
        for s in range(3):
            involution[("slot", p, s)] = ("slot", p + p_count, s)
            involution[("slot", p + p_count, s)] = ("slot", p, s)
    for e in m.edges:
        if e.index not in m.tree:
            involution[("conn", e.index)] = ("conn", e.index + n_edges)
            involution[("conn", e.index + n_edges)] = ("conn", e.index)
    for i in range(1, n):
        involution[("conn", 2 * n_edges + i)] = ("conn", 2 * n_edges + i)

    return DoubleData(base_marking=m, marking=dm, fn=dfn,
                      involution=involution, boundary_edge=tuple(boundary_edge))


def _mirror_token(token, p_count, n_edges):
    if token[0] == "slot":
        return ("slot", token[1] + p_count, token[2])
    return ("conn", token[1] + n_edges)


def doubled_arc_word(d: DoubleData, arc: ArcClass):
    """Word of the closed geodesic obtained by doubling a seed arc.

    Each crossing of a boundary gluing curve contributes its connector
    letter (or nothing when that gluing sits in the spanning tree, where
    the mirror pants is positioned directly across the boundary).

    A between-arc, oriented so its two slots are cyclically adjacent
    (``sj = si + 1 mod 3``), doubles to ``c_i * V'(sj) * c_j^-1`` where
    ``V'(sj)`` is the mirror copy of the slot-``sj`` boundary word.  The
    self-arc at slot ``s`` doubles to ``V(s') * c_i * V'(s') * c_i^-1``
    with ``s' = s + 1 mod 3``.  Both forms were fixed by matching the
    half-lengths of the resulting closed geodesics to the hexagon closed
    forms over random pants configurations.
    """
    m = d.base_marking
    p_count = m.pants_count

    def crossing(boundary_index, exp):
        k = d.boundary_edge[boundary_index]
        if k in d.marking.tree:
            return ()
        return ((("conn", k), exp),)

    p = arc.pants
    if arc.kind == "between":
        (si, i), (sj, j) = zip(arc.slots, arc.boundaries)
        if (si + 1) % 3 != sj:
            (si, i), (sj, j) = (sj, j), (si, i)
        assert (si + 1) % 3 == sj
        return (crossing(i, 1)
                + ((("slot", p + p_count, sj), 1),)
                + crossing(j, -1))
    (i,) = arc.boundaries
    s = arc.slots[0]
    nb = (s + 1) % 3
    return (((("slot", p, nb), 1),)
            + crossing(i, 1)
            + ((("slot", p + p_count, nb), 1),)
            + crossing(i, -1))


def arc_length(d: DoubleData, arc: ArcClass, h: Holonomy | None = None) -> float:
    """Arc length as half the closed-geodesic length of the doubled word.

    Pass the double's holonomy explicitly to evaluate several arcs without
    reassembling it.
    """
    if h is None:
        h = d.holonomy()
    elif h.marking is not d.marking:
        raise DomainError("holonomy does not belong to this double")
    return 0.5 * curve_length(h, doubled_arc_word(d, arc))
