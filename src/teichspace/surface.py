"""SL(2, R) holonomy of a Fenchel-Nielsen point: the matrix oracle.

Given Fenchel-Nielsen data on the canonical marking of
:mod:`teichspace.coords`, this module assembles an explicit representation
of the fundamental group into SL(2, R) by positioning one pants group per
pair of pants and conjugating neighbours into place across each cuff.  No
subcommand calls it: every reported length comes from the closed forms of
:mod:`teichspace.curves` and :mod:`teichspace.pants_trig`, and the traces
of these matrices are the tests' independent cross-check of them.

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

import math
from dataclasses import dataclass

import numpy as np

from .coords import ArcClass, Edge, FNPoint, Marking
# Bound only because the benchmark imports them from this module.
from .coords import build_marking, phi_gamma  # noqa: F401
from .pants_trig import DomainError

__all__ = [
    "DoubleData",
    "Holonomy",
    "HolonomyError",
    "NotGeodesicError",
    "arc_length",
    "curve_length",
    "double",
    "holonomy",
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
# Rounding noise of a determinant (64 eps max|entry|^2) above which
# _renorm leaves the matrix alone: the determinant carries no information.
_RENORM_NOISE_TOL = 1e-6
# The same noise above which the determinant residual skips a matrix.
_DET_NOISE_TOL = 1e-12
# |w1| / |w0| below which a neighbouring axis endpoint is read as sitting
# on the cuff endpoint at infinity, so the frame's foot is undefined.
_FOOT_TOL = 1e-13
# Trace discriminant and eigenbasis determinant below which a matrix is
# read as parabolic: its two fixed directions coincide.
_DEGENERATE_TOL = 1e-14


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
    if noise > _RENORM_NOISE_TOL:
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
    if disc <= _DEGENERATE_TOL:
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
    if abs(d) < _DEGENERATE_TOL:
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
        if abs(w[1]) < _FOOT_TOL * abs(w[0]):
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
        if 64.0 * np.finfo(float).eps * scale * scale > _DET_NOISE_TOL:
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
