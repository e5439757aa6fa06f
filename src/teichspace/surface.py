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

Words are tuples of ``(token, exponent)`` pairs; a token is ``("slot",
pants, slot)``, the boundary word of a slot, or ``("conn", edge_index)``,
the connector of a non-tree edge.  :func:`gamma_word`, :func:`mu_word` and
:func:`boundary_word` spell the seed curves of a marking this way.

Matrix entries are 40-digit ``decimal.Decimal`` numbers (``_DPS``) in 2x2
numpy object arrays, computed from the exact values of the coordinates
under a private decimal context; lengths and residuals come back as
floats.  :mod:`decimal` is imported on the first call, not with this
module, which the benchmark's timed set-up imports.
"""

from __future__ import annotations

import functools
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
    "boundary_word",
    "curve_length",
    "double",
    "gamma_word",
    "holonomy",
    "mu_word",
]

# Working precision of every matrix entry, in significant decimal digits.
_DPS = 40

_ID = np.array([[1, 0], [0, 1]], dtype=object)
_SWAP = np.array([[0, 1], [-1, 0]], dtype=object)

# Positive twist direction; fixed so that the positive Dehn twist along a
# cuff appends the positive cuff letter to the dual word (and so evaluating
# a k-fold twisted class equals evaluating its seed at twists T - k*L), and
# doubling with negated mirror twists is an isometry.
_TWIST_SIGN = -1.0

# Ten digits short of the working precision: the accepted scale-relative
# deviation of a gluing relation from +-identity, and the band of
# |trace| - 2 read as parabolic (length 0).  Five digits short: |w1| / |w0|
# below which a neighbouring axis endpoint sits on the cuff endpoint at
# infinity (no frame foot), and the trace discriminant and eigenbasis
# determinant below which a matrix is read as parabolic.
_RESIDUAL_TOL = _PARABOLIC_TOL = 10.0 ** (10 - _DPS)
_FOOT_TOL = _DEGENERATE_TOL = 10.0 ** (5 - _DPS)


class HolonomyError(RuntimeError):
    """Raised when the numerical gluing fails its own consistency checks."""


class NotGeodesicError(ValueError):
    """Raised for words whose holonomy is elliptic (no geodesic length)."""


def _working_precision(f):
    """Run ``f`` with a private ``_DPS``-digit decimal context as the
    thread's current one, and restore the caller's context after."""
    @functools.wraps(f)
    def run(*args, **kwargs):
        import decimal
        with decimal.localcontext(decimal.Context(prec=_DPS)):
            return f(*args, **kwargs)
    return run


def _dec(x):
    """The exact decimal value of a number."""
    from decimal import Decimal
    return Decimal(x)


def _mat(a, b, c, d) -> np.ndarray:
    return np.array([[_dec(a), _dec(b)], [_dec(c), _dec(d)]], dtype=object)


def _inv(m: np.ndarray) -> np.ndarray:
    return _mat(m[1, 1], -m[0, 1], -m[1, 0], m[0, 0])


def _translation(t) -> np.ndarray:
    e = _dec(t / 2).exp()
    return _mat(e, 0, 0, 1 / e)


def _det(m: np.ndarray):
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _eigen_direction(m: np.ndarray, lam) -> np.ndarray:
    v1 = np.array([m[0, 1], lam - m[0, 0]], dtype=object)
    v2 = np.array([lam - m[1, 1], m[1, 0]], dtype=object)
    v = v1 if np.dot(v1, v1) >= np.dot(v2, v2) else v2
    norm = np.dot(v, v).sqrt()
    if norm == 0:
        raise HolonomyError("degenerate eigenvector")
    return v / norm


def _fixed_directions(m: np.ndarray):
    """Eigen-directions (attracting, repelling) of a hyperbolic matrix, or a
    single repeated direction for a parabolic one."""
    tr = m[0, 0] + m[1, 1]
    disc = tr * tr - 4
    if disc <= _DEGENERATE_TOL:
        v = _eigen_direction(m, 1 if tr > 0 else -1)
        return v, v
    s = disc.sqrt()
    dominant = (tr + s) / 2 if tr > 0 else (tr - s) / 2
    return _eigen_direction(m, dominant), _eigen_direction(m, 1 / dominant)


def _normalizer(m: np.ndarray) -> np.ndarray:
    """Det-1 matrix N with ``N m N^-1 = +-diag(e^(l/2), e^(-l/2))``."""
    ep, em = _fixed_directions(m)
    v = np.column_stack([ep, em])
    d = _det(v)
    if abs(d) < _DEGENERATE_TOL:
        raise HolonomyError("cannot normalize a parabolic element to the axis")
    if d < 0:
        v = np.column_stack([ep, -em])
        d = -d
    return _inv(v / d.sqrt())


def _frame(slot_mat: np.ndarray, neighbor_mat: np.ndarray) -> np.ndarray:
    """Canonical cuff frame: axis to the imaginary axis, perpendicular foot
    from the neighbouring cuff to the point i."""
    n = _normalizer(slot_mat)
    pts = []
    for v in _fixed_directions(neighbor_mat):
        w = n @ v
        if abs(w[1]) < _dec(_FOOT_TOL) * abs(w[0]):
            raise HolonomyError("neighbouring cuff axis touches the cuff endpoint")
        pts.append(w[0] / w[1])
    p, q = pts
    if p * q <= 0:
        raise HolonomyError("neighbouring cuff axis crosses the cuff")
    return _translation(-abs(p * q).ln() / 2) @ n


def _pants_generators(l0: float, l1: float, l2: float):
    """Generators (A, B, C) with boundary traces 2cosh(l/2) and A B C = 1."""
    for l in (l0, l1, l2):
        if l < 0 or not math.isfinite(l):
            raise DomainError(f"cuff lengths must be nonnegative, got {l!r}")
    # cosh(l/2) = (e + 1/e) / 2 with e = exp(l/2).
    x, y, z = ((e + 1 / e) / 2 for e in (_dec(v / 2).exp() for v in (l0, l1, l2)))
    if l0 == 0.0:
        a = _mat(1, -1, 0, 1)
        c_low = 2 * (z + y)
        b = _mat(y, (y * y - 1) / c_low, c_low, y)
    else:
        a = _mat(x, 1, x * x - 1, x)
        if l1 == 0.0:
            # The l1 -> 0 limit of the generic root below.
            b = _mat(1, -2 * (z + x) / (x * x - 1), 0, 1)
        else:
            # (x^2-1) b^2 + 2(z+xy) b + (y^2-1) = 0; both roots negative.
            p = z + x * y
            disc = p * p - (x * x - 1) * (y * y - 1)
            root = (-p - disc.sqrt()) / (x * x - 1)
            b = _mat(y, root, (y * y - 1) / root, y)
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

    @_working_precision
    def evaluate(self, word) -> np.ndarray:
        out = _ID
        for token, exp in word:
            m = self.generator(token)
            if exp < 0:
                m, exp = _inv(m), -exp
            for _ in range(exp):
                out = out @ m
        return out


def gamma_word(m: Marking, k: int):
    """Word of the pants curve ``k``: the slot word of its left side."""
    p, s = m.edges[k].left
    return ((("slot", p, s), 1),)


def mu_word(m: Marking, k: int):
    """Word of the seed curve dual to pants curve ``k``.

    A handle loop's dual is its connector; any other dual runs through the
    slot after the glued one on each side.
    """
    e = m.edges[k]
    if e.left[0] == e.right[0]:
        return ((("conn", e.index), 1),)
    return ((("slot", e.left[0], (e.left[1] + 1) % 3), 1),
            (("slot", e.right[0], (e.right[1] + 1) % 3), 1))


def boundary_word(m: Marking, i: int):
    """Word of the boundary curve ``i``: the word of its slot."""
    p, s = m.boundary_slots[i]
    return ((("slot", p, s), 1),)


def _transition(frames: dict, a: tuple, b: tuple, twist: float) -> np.ndarray:
    """``inv(F_a) @ translation(t) @ SWAP @ F_b`` across a cuff glued at
    ``twist``; swapping the slots gives the inverse up to sign."""
    return _inv(frames[a]) @ _translation(_TWIST_SIGN * twist) @ _SWAP @ frames[b]


@_working_precision
def holonomy(fn: FNPoint, m: Marking) -> Holonomy:
    """Assemble the holonomy representation for ``fn`` on marking ``m``.

    Pants groups are positioned along the spanning tree of the pants graph;
    every remaining cuff contributes a connector matrix.  Raises
    :class:`HolonomyError` if any defining relation deviates from plus or
    minus the identity by more than ``_RESIDUAL_TOL`` (1e-30, in
    scale-relative transition form), or if a cuff frame degenerates.  The
    check does not bound length accuracy: the tests hold seed words to
    1e-12 relative with cuffs as short as 1e-4 or as long as 40, but with
    cuffs and boundaries spread over ``[1e-4, 40]`` some whole doubles of
    (1, 6) pass it with a doubled arc far off (an open ROADMAP item).
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
        g_mat[child] = g_mat[parent] @ trans
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
        conn_mats[e.index] = g_mat[pa] @ trans @ _inv(g_mat[pb])
        placed_resids.append(_relation_residual(
            trans @ local[pb][sb], _inv(local[pa][sa]) @ trans))

    for p in range(m.pants_count):
        a, b, c = local[p]
        placed_resids.append(_relation_residual(a @ b, _inv(c)))

    mats = [*slot_mats.values(), *conn_mats.values(),
            *(mat for p in range(m.pants_count) for mat in local[p])]
    det_resid = float(max(abs(_det(mat) - 1) for mat in mats))

    residual = max(placed_resids)
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
    scale = max(1, np.abs(got).max(), np.abs(want).max())
    dev = min(np.abs(got - want).max(), np.abs(got + want).max())
    return float(dev / scale)


@_working_precision
def curve_length(h: Holonomy, word) -> float:
    """Geodesic length of the free homotopy class of ``word``.

    ``2 acosh(|tr|/2)`` for hyperbolic holonomy, 0 within tolerance of a
    parabolic, :class:`NotGeodesicError` for elliptic words.
    """
    if not word:
        raise DomainError("empty word has no geodesic class")
    tr = abs(np.trace(h.evaluate(word)))
    # Compare tr - 2: the float 2.0 + _PARABOLIC_TOL rounds to 2.0.
    if tr - 2 >= _PARABOLIC_TOL:
        # 2 acosh(y) with y = |tr| / 2.
        y = _dec(tr) / 2
        return float(2 * (y + ((y - 1) * (y + 1)).sqrt()).ln())
    if tr - 2 >= -_PARABOLIC_TOL:
        return 0.0
    raise NotGeodesicError(
        f"elliptic word (|trace| = {float(tr)!r} < 2): not a geodesic class")


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
    if 0.0 in fn.boundary:
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

    dm = Marking(genus=2 * m.genus + n - 1, nboundary=0, edges=tuple(edges),
                 boundary_slots=(), tree=frozenset(tree), arcs=())

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
