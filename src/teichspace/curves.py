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
cancel.  Along an orbit only ``tau`` changes, so :func:`family_lengths`
evaluates the twist-free terms of cuff ``k`` (``s^2``, and ``cosh(d/2) - 1``
or the ``c(L)`` cross terms, ``Q Q`` and the constant tail) once per cuff
per point; each member then costs one ``cosh``/``sinh`` of ``tau`` and one
``acosh``.  The terms read ``c(x)`` from one vector per point, ``cosh(l/2)``
of every curve of ``lengths + boundary`` (``inf`` where it overflows, which
makes the terms of an orbit reading it NaN, so its members are rejected; a
cusp's entry is ``cosh(0) = 1``), through the curves each orbit reads, resolved
once per marking (:attr:`~teichspace.coords.Marking.orbit_forms`).  The
family, and its essential classes (all but its ``beta`` block), are built
once per ``(ncurves, nboundary, depth)``.  The holonomy of
:mod:`teichspace.surface` is their independent check.

Pants-local arcs are evaluated by the hexagon closed forms; geodesic pants
are convex, so these lengths do not depend on the twists.  The curves
each seed arc reads are resolved once per marking, and only there
(:attr:`~teichspace.coords.Marking.arc_forms`): its own boundaries, then
the curves bounding its neighbourhood pants.  A seed arc's own curves are
always boundaries, so the terms its form reads of them alone, and the
boundary block of the ``cosh(l/2)`` vector, depend only on the boundary
lengths: :func:`hexagon_terms` takes them once per boundary.
:func:`hexagon_lengths` reads them and the same ``cosh(l/2)`` vector, and
feeds every form's checked core in :mod:`teichspace.pants_trig`, the one
path by which a length is rejected.  The arc check evaluates its points a
block at a time through the block form of the same expressions
(:func:`teichspace.pants_trig._block`), which reads the same boundary
terms and gives the first point that leaves double range; only that
point's pair goes through :func:`hexagon_lengths`, to name its error.

:func:`length_table` gathers every length the metric estimators read at one
point (the curve family and, on bordered points, the seed arcs) so that a
point is evaluated once however many estimators and partners use it.  It
takes the ``cosh(l/2)`` vector once for both, its cuff block per point and
its boundary block per boundary, and keeps only the two views
the pair reductions read: the essential classes with their lengths, and
the family followed by the arcs with theirs.  Forgetting the boundary
lengths changes only the orbits whose terms read a boundary
(:attr:`~teichspace.coords.Marking.boundary_orbits`), so
:func:`image_table` derives the table of a point's punctured image from
the point's own table and evaluates only those orbits again.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import pants_trig
from .coords import ArcClass, FNPoint, Marking, phi_gamma
from .pants_trig import DomainError

__all__ = [
    "CurveClass",
    "LengthTable",
    "enumerate_arcs",
    "enumerate_curves",
    "family_lengths",
    "arc_length_formula",
    "hexagon_lengths",
    "hexagon_terms",
    "image_table",
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
    ``+r``), nested in ``depth``.  The family depends only on
    ``(m.ncurves, m.nboundary, depth)`` and is built once per such key; each
    call returns a new list of the same classes.
    """
    return list(_family(m.ncurves, m.nboundary, depth)[0])


@functools.lru_cache(maxsize=16)
def _family(ncurves: int, nboundary: int, depth: int) -> tuple:
    """``(family, essential)``: the classes of :func:`enumerate_curves` and
    its essential ones, which are all but the ``beta`` block
    ``family[2 * ncurves:2 * ncurves + nboundary]``.  A negative ``depth``
    raises :class:`DomainError`."""
    if depth < 0:
        raise DomainError(f"depth must be nonnegative, got {depth!r}")
    out = [CurveClass(seed=("gamma", k), power=0) for k in range(ncurves)]
    out += [CurveClass(seed=("mu", k), power=0) for k in range(ncurves)]
    out += [CurveClass(seed=("beta", i), power=0) for i in range(nboundary)]
    for radius in range(1, depth + 1):
        for k in range(ncurves):
            for power in (-radius, radius):
                out.append(CurveClass(seed=("mu", k), power=power))
    b = 2 * ncurves
    return tuple(out), tuple(out[:b] + out[b + nboundary:])


def family_lengths(fn: FNPoint, m: Marking, classes, ch=None):
    """Lengths of many curve classes at one point, aligned with ``classes``.

    Pants and boundary lengths are read off the point; a dual class is the
    one-holed torus or four-holed sphere identity of the module docstring
    (scalar work, no holonomy).  The twist-free terms of cuff ``k`` are
    evaluated once, when the first class of its orbit appears, from ``ch``,
    the ``cosh(l/2)`` of the point's curves
    (:func:`~teichspace.pants_trig._cosh_halves`, taken here when not
    given); each member then costs one function of its twist ``tau``.
    Raises :class:`DomainError` when a length is not finite in double precision
    (such as at twists of 2000, at cuffs of 1500, and at cuffs below about
    1e-154, whose duals are too long; below about 1e-161 ``sinh(L/2)^2``
    underflows to 0).
    """
    if ch is None:
        ch = pants_trig._cosh_halves(fn.lengths + fn.boundary)
    cosh, sinh, log1p, sqrt = math.cosh, math.sinh, math.log1p, math.sqrt
    lengths, twists = fn.lengths, fn.twists
    orbits = [None] * len(lengths)
    out = []
    for c in classes:
        kind, k = c.seed
        if kind == "gamma":
            out.append(lengths[k])
        elif kind == "beta":
            out.append(fn.boundary[k])
        else:
            try:
                orbit = orbits[k]
                if orbit is None:
                    orbit = orbits[k] = _orbit_terms(fn, m, k, ch)
                cuff, h, head, qq, tail, s2 = orbit
                tau = twists[k] - c.power * cuff
                if h is not None:
                    u = h * cosh(tau / 2.0) + 2.0 * sinh(tau / 4.0) ** 2
                else:
                    u = (head + 2.0 * sinh(tau / 2.0) ** 2 * qq + tail) / s2
                # acosh(1 + u), as pants_trig._acosh1p.
                length = 2.0 * log1p(u + sqrt(u) * sqrt(u + 2.0))
            except (OverflowError, ZeroDivisionError):
                length = math.inf
            if not math.isfinite(length):
                raise DomainError(
                    f"length of {c.label()} is not finite in double precision")
            out.append(length)
    return out


def _orbit_terms(fn: FNPoint, m: Marking, k: int, ch) -> tuple:
    """Twist-free terms ``(L, h, head, qq, tail, s2)`` of the orbit of
    ``mu_k``, reading ``cosh(l/2)`` from ``ch`` on the curves of
    :attr:`~teichspace.coords.Marking.orbit_forms`: on a handle loop ``h =
    cosh(d/2) - 1`` and ``None`` for ``head``, ``qq`` and ``tail``; on other
    cuffs ``h`` is ``None``.  An ``inf`` in ``ch`` (a ``cosh`` that
    overflows) makes ``h`` or ``tail`` NaN, so every member is rejected."""
    cuff, form = fn.lengths[k], m.orbit_forms[k]
    s2 = math.sinh(cuff / 2.0) ** 2
    if len(form) == 1:
        # w = cosh d - 1; cosh(d/2) - 1 = (w/2) / (sqrt(1 + w/2) + 1).
        w = (ch[form[0]] + 1.0) / s2
        return cuff, 0.5 * w / (math.sqrt(1.0 + 0.5 * w) + 1.0), None, None, None, s2
    cl = ch[k]
    ap, am, bp, bm = map(ch.__getitem__, form)
    # Q(a+, a-)^2 = s2 + qa and Q(b+, b-)^2 = s2 + qb, so
    # Q Q - s2 = (s2 (qa + qb) + qa qb) / (Q Q + s2) without cancelling.
    qa = ap * ap + am * am + 2.0 * ap * am * cl
    qb = bp * bp + bm * bm + 2.0 * bp * bm * cl
    qq = math.sqrt((s2 + qa) * (s2 + qb))
    head = cl * (ap * bm + am * bp) + ap * bp + am * bm
    return cuff, None, head, qq, (s2 * (qa + qb) + qa * qb) / (qq + s2), s2


@dataclass(frozen=True)
class LengthTable:
    """Every length the metric estimators read at one point, in the two
    views their reductions over every partner read.

    ``members`` is the family of :func:`enumerate_curves` at ``depth``
    followed by ``arcs``, and ``member_lengths`` their lengths, aligned.
    ``arcs`` holds the seed arcs, with their hexagon lengths, when no
    boundary is a cusp, and is empty otherwise.  ``essential`` and
    ``essential_lengths`` are the essential classes of the family (all but
    its ``beta`` block) and their lengths.
    """

    point: FNPoint
    depth: int
    arcs: tuple
    essential: tuple
    essential_lengths: tuple
    members: tuple
    member_lengths: tuple


def length_table(fn: FNPoint, m: Marking, depth: int) -> LengthTable:
    """Evaluate the length table of ``fn`` at family depth ``depth``.

    ``cosh(l/2)`` of every curve is taken once, the cuffs' here
    (:func:`~teichspace.pants_trig._cosh_halves`) and the boundaries' with
    the arcs' boundary terms once per boundary (:func:`hexagon_terms`), and
    read by one :func:`family_lengths` call over the whole family and by
    :func:`hexagon_lengths`.  A :class:`DomainError` of either (a length
    that is not finite) is re-raised with the replay witness ``{"x": <point
    JSON>, "depth": depth}`` appended to its message and kept in its
    ``witness`` attribute.
    """
    m.require_fit(fn)
    family, essential = _family(m.ncurves, m.nboundary, depth)
    arcs = () if 0.0 in fn.boundary else m.arcs
    terms = hexagon_terms(m.arc_forms, m.ncurves, fn.boundary)
    ch = pants_trig._cosh_halves(fn.lengths)
    ch += terms[0]
    try:
        lengths = family_lengths(fn, m, family, ch)
        arc_lengths = hexagon_lengths(fn, m.arc_forms, ch, terms) if arcs else []
    except DomainError as err:
        raise err.with_witness({"x": fn.to_dict(), "depth": depth}) from err
    beta = 2 * m.ncurves
    return LengthTable(point=fn, depth=depth, arcs=arcs, essential=essential,
                       essential_lengths=tuple(lengths[:beta]
                                               + lengths[beta + m.nboundary:]),
                       members=family + arcs,
                       member_lengths=tuple(lengths + arc_lengths))


def image_table(t: LengthTable, m: Marking) -> LengthTable:
    """The length table of the punctured image ``phi_gamma(t.point)``,
    derived from the table ``t`` of the bordered point.

    It is ``length_table(phi_gamma(t.point), m, t.depth)`` bit for bit,
    and raises the same :class:`DomainError`, with the same witness
    ``{"x": <image JSON>, "depth": depth}``.  Forgetting the boundary keeps
    every cuff length and every dual orbit that reads no boundary
    (:attr:`~teichspace.coords.Marking.boundary_orbits`), so their lengths
    are copied from ``t``; the ``beta`` block becomes 0.0 and the arcs are
    dropped.  Only the members of the orbits that read a boundary are
    evaluated again, in family order, by :func:`family_lengths`; on a
    surface where every orbit reads one, that is every dual member.
    """
    x = phi_gamma(t.point)
    m.require_fit(x)
    depth, nb = t.depth, m.nboundary
    family, essential = _family(m.ncurves, nb, depth)
    positions, classes = _orbit_members(m.ncurves, nb, depth, m.boundary_orbits)
    lengths = list(t.member_lengths[:len(family)])
    beta = 2 * m.ncurves
    lengths[beta:beta + nb] = (0.0,) * nb
    try:
        for i, v in zip(positions, family_lengths(x, m, classes)):
            lengths[i] = v
    except DomainError as err:
        raise err.with_witness({"x": x.to_dict(), "depth": depth}) from err
    return LengthTable(point=x, depth=depth, arcs=(), essential=essential,
                       essential_lengths=tuple(lengths[:beta] + lengths[beta + nb:]),
                       members=family, member_lengths=tuple(lengths))


@functools.lru_cache(maxsize=16)
def _orbit_members(ncurves: int, nboundary: int, depth: int, orbits: tuple) -> tuple:
    """``(positions, classes)``: the positions in the family of
    :func:`_family` of the members of the dual orbits ``orbits``, in family
    order, and those classes."""
    family = _family(ncurves, nboundary, depth)[0]
    positions = tuple(i for i, c in enumerate(family)
                      if c.seed[0] == "mu" and c.seed[1] in orbits)
    return positions, tuple(family[i] for i in positions)


def enumerate_arcs(m: Marking):
    """Seed arcs of every boundary-adjacent pants: one arc per boundary
    pair within a pants plus one self-arc per boundary slot.

    Kept for the benchmark, which reads it; the package reads ``m.arcs``.
    """
    if m.nboundary < 1:
        raise DomainError("arc families need at least one boundary component")
    return list(m.arcs)


def arc_length_formula(fn: FNPoint, m: Marking, arc: ArcClass) -> float:
    """Closed-form length of a pants-local arc (twist independent)."""
    return hexagon_lengths(fn, [m.arc_form(arc)])[0]


def hexagon_lengths(fn: FNPoint, forms, ch=None, terms=None) -> list:
    """Hexagon lengths at ``fn`` of the arcs resolved by
    :meth:`~teichspace.coords.Marking.arc_form`, aligned with ``forms``.

    ``terms`` is :func:`hexagon_terms` of ``forms`` at ``fn.boundary`` and
    ``ch`` the ``cosh(l/2)`` of the point's curves, whose boundary block is
    ``terms[0]``; both are taken here when not given, ``ch`` from the cuffs
    (:func:`~teichspace.pants_trig._cosh_halves`) and that block.  Each
    form's neighbourhood ``cosh(l/2)`` from ``ch`` and its boundary terms
    from ``terms`` are fed to the checked core of
    :func:`~teichspace.pants_trig.orthogeodesic_between` or
    :func:`~teichspace.pants_trig.orthogeodesic_self`, so the lengths, and
    the :class:`DomainError` naming the lengths of the first arc that
    leaves double range, are theirs.  On a point with a cusp every arc
    goes through the entry point itself, whose positivity checks name the
    cusp.
    """
    ell = fn.lengths + fn.boundary
    if 0.0 in fn.boundary:
        return [(pants_trig.orthogeodesic_between if between
                 else pants_trig.orthogeodesic_self)(ell[i], ell[j], ell[k])
                for between, i, j, k in forms]
    if terms is None:
        terms = hexagon_terms(tuple(forms), len(fn.lengths), fn.boundary)
    if ch is None:
        ch = pants_trig._cosh_halves(fn.lengths)
        ch += terms[0]
    return [pants_trig._between(ell[i], ell[j], ell[k], ch[k], p, q) if between
            else pants_trig._self(ell[i], ell[j], ell[k], ch[j], ch[k], p, q)
            for (between, i, j, k), (p, q) in zip(forms, terms[1])]


@functools.lru_cache(maxsize=16)
def hexagon_terms(forms, ncurves: int, boundary: tuple) -> tuple:
    """``(ch, arcs)``: the terms of the hexagon forms ``forms`` (see
    :func:`hexagon_lengths`) that read only the boundary lengths
    ``boundary``, taken once per ``(forms, ncurves, boundary)``.

    ``ch`` is ``cosh(b/2)`` of every boundary, the boundary block of a
    point's ``cosh(l/2)`` vector (``1.0`` on a cusp).  A seed arc's own
    curves are boundaries, so ``arcs`` holds, aligned with ``forms``, the
    pair of terms its core reads of them: ``(cosh((li - lj)/2), sinh(li/2)
    sinh(lj/2))`` of a between-arc and ``(cosh(li/2), sinh(li/2))`` of a
    self-arc, the same expressions the entry points take.  A ``cosh`` or
    ``sinh`` that overflows is ``inf``, which takes the core out of double
    range as the overflow itself would; a ``sinh`` of 0 still divides by
    zero inside the core.
    """
    ch = tuple(map(pants_trig._cosh_half, boundary))
    sh = tuple(map(pants_trig._sinh_half, boundary))
    arcs = []
    for between, i, j, _ in forms:
        i -= ncurves
        if between:
            j -= ncurves
            arcs.append((pants_trig._cosh_half(boundary[i] - boundary[j]),
                         sh[i] * sh[j]))
        else:
            arcs.append((ch[i], sh[i]))
    return ch, tuple(arcs)


def pants_neighborhood_boundaries(arc: ArcClass, m: Marking):
    """Boundary curves of the tubular neighbourhood pants of an arc.

    The seed curves that :meth:`~teichspace.coords.Marking.arc_form` reads
    after the arc's own slots: one for an arc joining two distinct
    boundaries (the third cuff of its pants), two for a self-arc (the other
    two cuffs, which coincide on a handle block).  Curve index ``i`` is
    ``("gamma", i)`` below ``m.ncurves`` and the boundary seed ``("beta", i
    - m.ncurves)``, which is not essential, above.  Kept for the benchmark,
    which traces it; :func:`~teichspace.harness.verify_arcs` reads the
    forms directly.
    """
    nc = m.ncurves
    return [CurveClass(seed=("gamma", i) if i < nc else ("beta", i - nc), power=0)
            for i in m.arc_form(arc)[1 + len(arc.slots):]]
