"""Experiment runner: sampling, inequality checks, and report generation.

Every operation here is deterministic given the experiment configuration:
point ``index`` is drawn from the ``random.Random`` stream keyed by ``(seed,
index // 64)``, after the draws of the points before it in that block of
64, so it depends only on ``(seed, index)`` (see :func:`sample_points`).
Reports are plain dicts with fixed key order so identical runs serialize to
identical bytes.

The checks are boundedness reports, not proofs: the estimators are lower
bounds, so an observed difference exceeding a theoretical ceiling indicates
a bug, while staying below it is evidence of consistency only.

The metric rows reduce the length tables of :mod:`teichspace.curves`; the
punctured images of the coordinate-forgetting experiment and of the
almost-isometry report are derived from their bordered points' tables
(:func:`~teichspace.curves.image_table`), and the report reduces each pair
to its two values only.  The arc check builds no table and reads each
seed arc's curves, its own boundaries and then its neighbourhood curves,
from the forms the marking resolved once
(:attr:`~teichspace.coords.Marking.arc_forms`).  One run object
(:class:`_ArcRun`) takes the terms of those forms that read only the
boundary once per run, and evaluates the forms, and counts the checked and
passed arcs, a block of pairs at a time, on columns; :func:`verify_arcs`
and :func:`verify_sampled_arcs` each build one and hand it their blocks.
The sampled pairs of the ``verify-arcs`` command (:func:`verify_sampled_arcs`)
stay columns from the draw to the counts: each sampler block is drawn into
one length column and one twist column per cuff, checked a column at a
time, and a point is built only for a pair that is reported or names an
error.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from itertools import islice, repeat, starmap
from operator import add, truediv

from . import pants_trig
from .coords import FNPoint, Marking, build_marking, json_fields
from .curves import hexagon_lengths, hexagon_terms, image_table, length_table
from .metrics import arc_of, arc_sup, teich_of, thurston_of, thurston_sup
from .pants_trig import DomainError, gap_constants

__all__ = [
    "ExperimentConfig",
    "HarnessCheckError",
    "almost_isometry_report",
    "compare_metrics",
    "csv_line",
    "phi_experiment",
    "sample_point",
    "sample_points",
    "verify_arc_construction",
    "verify_arcs",
    "verify_sampled_arcs",
    "COMPARE_COLUMNS",
    "PHI_COLUMNS",
]


class HarnessCheckError(AssertionError):
    """An inequality check failed; carries a machine-readable witness."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message + "\nwitness: " + json.dumps(witness))
        self.witness = witness


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Sampling and reporting parameters for one experiment.

    ``boundary`` fixes the boundary lengths of every sampled point; cuff
    lengths are log-uniform over ``length_range`` and twists uniform over
    ``twist_range``.
    """

    g: int
    n: int
    boundary: tuple
    length_range: tuple = (0.5, 4.0)
    twist_range: tuple = (-2.0, 2.0)
    seed: int = 0
    depth: int = 2
    samples: int = 10
    out: str | None = None
    format: str = "json"

    def __post_init__(self):
        object.__setattr__(self, "boundary", tuple(float(v) for v in self.boundary))
        object.__setattr__(self, "length_range", tuple(float(v) for v in self.length_range))
        object.__setattr__(self, "twist_range", tuple(float(v) for v in self.twist_range))
        if len(self.boundary) != self.n:
            raise DomainError(f"expected {self.n} boundary lengths")
        for name in ("length_range", "twist_range"):
            r = getattr(self, name)
            if len(r) != 2 or not all(math.isfinite(v) for v in r):
                raise DomainError(f"{name} must be two finite numbers, got {r}")
        lo, hi = self.length_range
        if not (0 < lo <= hi):
            raise DomainError(f"length range must be positive, got {self.length_range}")
        lo, hi = self.twist_range
        if lo > hi:
            raise DomainError(f"bad twist range {self.twist_range}")
        if not math.isfinite(hi - lo):
            raise DomainError(f"twist range width must be finite, got {self.twist_range}")
        if self.samples < 1:
            raise DomainError("need at least one sample")
        if self.depth < 0:
            raise DomainError("depth must be nonnegative")
        if self.format not in ("json", "csv"):
            raise DomainError(f"unknown report format {self.format!r}")

    def marking(self) -> Marking:
        return build_marking(self.g, self.n)

    def to_dict(self) -> dict:
        """The config as a plain JSON-ready dict; :meth:`to_json` dumps it."""
        return {"g": self.g, "n": self.n, "boundary": list(self.boundary),
                "length_range": list(self.length_range),
                "twist_range": list(self.twist_range),
                "seed": self.seed, "depth": self.depth,
                "samples": self.samples, "out": self.out,
                "format": self.format}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Config from a JSON object, checked by
        :func:`~teichspace.coords.json_fields`; absent fields take their
        defaults."""
        return cls(**json_fields(cls, text, "config"))


_M64 = 2 ** 64 - 1
# Consecutive indices that share one generator stream (see sample_points).
_BLOCK = 64
# Pairs the arc check evaluates together: one sampler block of points.
_ARC_BLOCK = _BLOCK // 2
# Past the last index (see _sample_runs).
_END = object()


def _sample_runs(cfg: ExperimentConfig, indices):
    """The draws of the points ``indices`` as columns, one run at a time.

    A run is a stretch of consecutive ascending indices within one block of
    64; per run this yields ``(count, lengths, twists)``, one column per
    cuff of its ``count`` points' lengths and one of their twists.  The
    stream and the draw order are those of :func:`sample_points`: the run
    reads ``2 * ncurves * count`` draws of its block's stream straight
    through, after skipping those of the block's points before it that were
    not just drawn, and nothing past its last index.  An index outside
    ``[0, 2**64)`` raises :class:`DomainError` when its run is reached."""
    ncurves = 3 * cfg.g - 3 + cfg.n
    step = 2 * ncurves
    # Each random() takes two 32-bit words of MT19937 and getrandbits(64 * k)
    # takes 2k, so the latter skips k draws.
    skip_bits = 64 * step
    # lo + (hi - lo) * random() is what Random.uniform(lo, hi) returns.
    lo = math.log(cfg.length_range[0])
    width = math.log(cfg.length_range[1]) - lo
    twist_lo, twist_hi = cfg.twist_range
    twist_width = twist_hi - twist_lo
    key = (cfg.seed & _M64) << 64
    exp = math.exp
    block = drawn = None
    indices = iter(indices)
    index = next(indices, _END)
    while index is not _END:
        if not 0 <= index <= _M64:
            raise DomainError(f"sample index must lie in [0, 2**64), got {index}")
        b, start = divmod(index, _BLOCK)
        first, end, stop = index, index + 1, (b + 1) * _BLOCK
        for index in indices:
            if index != end or end == stop:
                break
            end += 1
        else:
            index = _END
        if b != block or start < drawn:
            rng = random.Random(key | b)
            block, drawn = b, 0
        if start > drawn:
            rng.getrandbits((start - drawn) * skip_bits)
        count = end - first
        drawn = start + count
        draws = list(starmap(rng.random, repeat((), count * step)))
        yield (count,
               [[exp(lo + width * v) for v in draws[k::step]] for k in range(ncurves)],
               [[twist_lo + twist_width * v for v in draws[k::step]]
                for k in range(ncurves, step)])


def sample_points(cfg: ExperimentConfig, indices):
    """Points number ``indices`` of the experiment, in order: each
    deterministic in ``(cfg.seed, index)``, lengths log-uniform, twists
    uniform.

    The indices fall into blocks of 64, and block ``b`` reads the
    ``random.Random`` stream of the integer ``(cfg.seed mod 2**64) * 2**64
    + b``, which is injective over the accepted range.  Point ``index``
    takes ``2 * ncurves`` draws of its block's stream after those of the
    ``index % 64`` points before it: first the logs of the ``ncurves``
    lengths, uniform over the logs of ``length_range`` and taken through
    ``math.exp``, then the ``ncurves`` twists, uniform over
    ``twist_range``.  A point therefore depends only on its own index, not
    on the order or repetition of ``indices``.  The points are drawn a run
    at a time, into one column per cuff of the run's lengths and one of its
    twists, by the one draw of :func:`_sample_runs`, which the arc check of
    :func:`verify_sampled_arcs` reads too: a run of consecutive indices
    within a block reads its block's stream straight through, up to its
    last index and no further, and seeds one generator per block; any other
    index seeds a fresh generator (a full MT19937 initialisation of its
    624-word state) and skips the draws of the points before it in its
    block, up to ``63 * 2 * ncurves``.  The per-config terms are worked out
    once.  Python keeps ``random()`` and ``getrandbits`` the same for the
    same integer seed in every release, so the points do not depend on the
    interpreter or the host.  An ``index`` below 0 or at or above 2**64
    lies outside the sampler's domain and raises :class:`DomainError` when
    it is reached, after the points before it have been yielded.

    The surface, the counts and the boundary are the same at every point,
    so they are checked once per call, by :class:`FNPoint` at the first
    point, after its index check: a config that fails them raises the
    point's own :class:`DomainError` there.  Every later point is built on
    them by :meth:`FNPoint._checked`, which checks its cuffs and twists,
    and shares the first point's boundary tuple.
    """
    g, n, boundary = cfg.g, cfg.n, cfg.boundary
    point = FNPoint
    for count, lengths, twists in _sample_runs(cfg, indices):
        rows = zip(zip(*lengths), zip(*twists)) if lengths else repeat(((), ()), count)
        for x_lengths, x_twists in rows:
            x = point(g, n, x_lengths, x_twists, boundary)
            if point is FNPoint:
                boundary, point = x.boundary, FNPoint._checked
            yield x


def sample_point(cfg: ExperimentConfig, index: int) -> FNPoint:
    """Point number ``index`` of the experiment: the one-index case of
    :func:`sample_points`, so the same point whichever way it is drawn.

    Each call seeds a generator and skips the draws of the ``index % 64``
    points before it in its block; to draw many points, pass their indices
    to :func:`sample_points` in one call."""
    return next(sample_points(cfg, (index,)))


# ---------------------------------------------------------------------------
# constructive arc check


class _ArcRun:
    """The arc check of a run of pairs on the marking ``m`` whose points all
    have the boundary ``boundary``: :func:`verify_arcs` and
    :func:`verify_sampled_arcs` build one at their first pair, after that
    pair's own checks, and give it their pairs a block at a time
    (:meth:`block`).

    The gap constants and the hexagon forms' boundary terms
    (:func:`~teichspace.curves.hexagon_terms`) depend only on the boundary,
    so they are taken here, once per run, after a check that the boundary
    is positive; each raises its own :class:`DomainError`.  The per-arc
    plan (label, the curves the arc's form reads after its own boundaries,
    which of them are essential and how many are boundary-parallel) is read
    off the marking.  The seed arcs are the same at every family depth, so
    there is no depth.
    """

    def __init__(self, m: Marking, boundary: tuple):
        if 0.0 in boundary:
            raise DomainError("arc check needs positive boundary lengths")
        self.constants = gap_constants(boundary)
        nc, self.forms = m.ncurves, m.arc_forms
        self.terms = hexagon_terms(self.forms, nc, boundary)
        self.plan = []
        for arc, form in zip(m.arcs, self.forms):
            curves = form[1 + len(arc.slots):]
            neighbours = [(i, f"gamma{i}" if i < nc else f"beta{i - nc}(boundary)",
                           i < nc) for i in curves]
            essential = [i for i in curves if i < nc]
            self.plan.append((arc.label(), neighbours, essential,
                              len(curves) - len(essential)))

    def block(self, cuffs, count: int, point, summary_only: bool, error):
        """``(checked, passed, reports, error)`` of a block of ``count``
        points, pair ``i`` being points ``2i`` and ``2i + 1``: the checked
        and passed arcs of each pair, the reports of the pairs reported in
        full (every pair, or with ``summary_only`` every failing pair), in
        order, and the error that ends the run after them, or ``None``.

        ``cuffs`` holds one column per cuff of the block's points,
        ``point(j)`` builds point ``j``, and ``error`` is the error that
        ends the run past the block's pairs, or ``None``.  One call of the
        block form :func:`~teichspace.pants_trig._block` gives every arc
        length at every point, one column per arc form.  At its first
        failing point the block ends at that point's pair, whose
        :class:`DomainError` is that of the first failing arc of ``x1``, or
        of ``x2`` if every arc of ``x1`` has a length, raised by
        :func:`~teichspace.curves.hexagon_lengths`, with the witness
        ``{"x1", "x2"}``; it comes before ``error``, which lies past it.

        Essential neighbourhood curves are cuffs, so each arc gets two
        columns over the pairs: its ratio ``r = l2 / l1`` and the largest
        of its essential cuffs' ratios ``x2.lengths[i] / x1.lengths[i]``.
        The arc is checked where ``r > 1.0`` and passes where that largest
        ratio is ``>= c * r``; the counts and the rows of a report both
        read these verdicts.  A point, and a report, is built only for a
        pair that is reported in full or names an error.
        """
        lengths, bad = pants_trig._block(self.forms, self.terms, cuffs, count)
        if bad is not None:
            count = bad - bad % 2
            x1, x2 = point(count), point(count + 1)
            witness = {"x1": x1.to_dict(), "x2": x2.to_dict()}
            try:
                hexagon_lengths(x1, self.forms, terms=self.terms)
                hexagon_lengths(x2, self.forms, terms=self.terms)
            except DomainError as err:
                error = err.with_witness(witness)
            else:
                error = RuntimeError("the block form rejected a pair the cores "
                                     "accept\nwitness: " + json.dumps(witness))
            cuffs = [column[:count] for column in cuffs]
            lengths = [column[:count] for column in lengths]
        c = self.constants.c
        ratios = [list(map(truediv, column[1::2], column[::2])) for column in cuffs]
        checked = passed = [0] * (count // 2)
        arcs = []
        for (_, _, essential, _), column in zip(self.plan, lengths):
            r = list(map(truediv, column[1::2], column[::2]))
            # On the pants alone no arc has an essential cuff, and no arc
            # changes length: r is 1.0 and its best is never read.
            best = ratios[essential[0]] if essential else r
            for i in essential[1:]:
                # max(a, b) by max's own rule, without a call per pair.
                best = [b if b > a else a for a, b in zip(best, ratios[i])]
            ticks = [x > 1.0 for x in r]
            passes = [t and b >= c * x for t, x, b in zip(ticks, r, best)]
            checked = list(map(add, checked, ticks))
            passed = list(map(add, passed, passes))
            arcs.append((column, r, ticks, best, passes))
        reports = [self._report(point(2 * i), point(2 * i + 1), i, arcs, k, p)
                   for i, (k, p) in enumerate(zip(checked, passed))
                   if not summary_only or k != p]
        return checked, passed, reports, error

    def _report(self, x1, x2, i, arcs, checked, passed) -> dict:
        """The full report of pair ``i``, ``(x1, x2)``, of a block whose
        per-arc columns are ``arcs`` (see :meth:`block`)."""
        constants = self.constants
        ell1, ell2 = x1.lengths + x1.boundary, x2.lengths + x2.boundary
        rows = []
        for (label, neighbours, _, excluded), (lengths, r, ticks, best, passes) in zip(
                self.plan, arcs):
            row = {"arc": label, "l1": lengths[2 * i], "l2": lengths[2 * i + 1],
                   "ratio": r[i], "checked": ticks[i]}
            if ticks[i]:
                row.update({
                    "curves": [{"curve": nb_label, "l1": ell1[j], "l2": ell2[j],
                                "ratio": ell2[j] / ell1[j], "essential": e}
                               for j, nb_label, e in neighbours],
                    "excluded_boundary_parallel": excluded,
                    "max_curve_ratio": best[i], "bound": constants.c * r[i],
                    "passed": passes[i]})
            rows.append(row)
        return {
            "x1": x1.to_dict(),
            "x2": x2.to_dict(),
            "constant": constants.c,
            "constant_between": constants.c_between,
            "constant_self": constants.c_self,
            "gap": constants.gap,
            "arcs": rows,
            "checked": checked,
            "passed": passed,
            "vacuous": len(rows) - checked,
            "all_passed": passed == checked,
        }


def verify_arcs(pairs, m: Marking, summary_only: bool = False):
    """Check the constructive arc-to-curve comparison on every seed arc of
    each pair ``(x1, x2)``; yield one report per pair, in order.

    For each arc whose length grows from ``x1`` to ``x2``, the boundary
    curves of its neighbourhood pants must satisfy
    ``max length-ratio >= c * arc-ratio`` with the certified constant
    ``c = gap_constants(boundary).c``.  Boundary-parallel neighbourhood
    curves are excluded from the maximum and noted.  Each report carries
    full replay witnesses.  With ``summary_only``, a pair whose checked
    arcs all pass yields only ``{"checked", "passed", "all_passed"}``; a
    failing pair still yields its full report.

    Every checked arc has an essential neighbourhood curve: only the pants
    alone has none, and there both points share all three cuff lengths,
    so no arc changes length.

    The pairs are taken in blocks of 32, the 64 points of one sampler
    block, and each pair is checked as it is taken: it must fit the
    marking, and every point must share the first point's boundary.  The
    run's checks (:class:`_ArcRun`) follow the first pair's fit and come
    before its boundary check; each block's cuff columns then go to
    :meth:`_ArcRun.block`, which :func:`verify_sampled_arcs` feeds too, and
    whose docstring gives the evaluation, the counts and the error of a
    failing pair.  A point that does not fit the marking raises the
    :class:`DomainError` of :meth:`~teichspace.coords.Marking.require_fit`
    before anything else of its pair; a pair whose points' boundaries
    differ raises ``arc check needs equal boundary lengths``.  Each, and
    each error of the run's checks, carries the witness ``{"x1", "x2"}``.
    An error taking the next pair is raised as it is, after the pairs
    before it.
    """
    fit = (m.genus, m.nboundary) * 2
    run = boundary = None
    stream = iter(pairs)
    while True:
        block, error = [], None
        try:
            for x1, x2 in islice(stream, _ARC_BLOCK):
                try:
                    if (x1.g, x1.n, x2.g, x2.n) != fit:
                        m.require_fit(x1)
                        m.require_fit(x2)
                    if run is None:
                        run, boundary = _ArcRun(m, x1.boundary), x1.boundary
                    if x1.boundary != boundary or x2.boundary != boundary:
                        raise DomainError("arc check needs equal boundary lengths")
                except DomainError as err:
                    error = err.with_witness({"x1": x1.to_dict(), "x2": x2.to_dict()})
                    break
                block += (x1, x2)
        except Exception as err:
            error = err  # raised as it is, after the pairs before it
        if block:
            checked, passed, reports, error = run.block(
                list(zip(*[x.lengths for x in block])), len(block),
                block.__getitem__, summary_only, error)
            reports = iter(reports)
            for k, p in zip(checked, passed):
                yield ({"checked": k, "passed": p, "all_passed": True}
                       if summary_only and k == p else next(reports))
        if error is not None:
            raise error
        if len(block) < _BLOCK:
            return


def verify_sampled_arcs(cfg: ExperimentConfig, summary_only: bool = False):
    """The arc check of :func:`verify_arcs` on the experiment's pairs, point
    ``2i`` against point ``2i + 1`` for ``i < cfg.samples``, a block of up
    to 32 pairs at a time: per block ``(checked, passed, reports)``, the
    checked and passed arcs of each of its pairs and the reports of the
    pairs :func:`verify_arcs` would yield in full (every pair, or with
    ``summary_only`` every failing pair), in order.

    The points are never built as a whole: each sampler block is drawn
    into one length column and one twist column per cuff
    (:func:`_sample_runs`, the draw of :func:`sample_points`), each column
    is checked as a whole, and the cuff columns go to
    :meth:`_ArcRun.block` as they are; an :class:`FNPoint` is built only
    for a pair that is reported or names an error.  The surface, the counts
    and the boundary are checked once, by :class:`FNPoint` at the first
    point.  At the first point whose cuff is not positive and finite, or
    whose twist is not finite, the point is built by
    :meth:`FNPoint._checked`, which raises its own :class:`DomainError`,
    after the pairs before its pair.  The run's checks (:class:`_ArcRun`)
    follow the column checks of the first pair's points, and an error of
    theirs carries that pair's witness; so every report and error is that
    of :func:`verify_arcs` on the pairs of :func:`sample_points`.
    """
    g, n = cfg.g, cfg.n
    m = cfg.marking()
    run = boundary = None
    for count, lengths, twists in _sample_runs(cfg, range(2 * cfg.samples)):
        if boundary is None:
            boundary = FNPoint(g, n, [c[0] for c in lengths],
                               [c[0] for c in twists], cfg.boundary).boundary

        def point(j, lengths=lengths, twists=twists):
            return FNPoint._checked(g, n, tuple([c[j] for c in lengths]),
                                    tuple([c[j] for c in twists]), boundary)

        # FNPoint._checked's tests, a column at a time.
        bad = count
        for column in lengths:
            bad = pants_trig._first_outside(column, 0.0, bad)
        for column in twists:
            bad = pants_trig._first_outside(column, -math.inf, bad)
        cuffs, error = lengths, None
        if bad < count:
            try:
                point(bad)
            except DomainError as err:
                error = err
            else:
                error = RuntimeError(f"point {bad} of a block failed the "
                                     "column checks but not its own")
            count = bad - bad % 2
            cuffs = [column[:count] for column in lengths]
        if run is None and count:
            try:
                run = _ArcRun(m, boundary)
            except DomainError as err:
                error = err.with_witness({"x1": point(0).to_dict(),
                                          "x2": point(1).to_dict()})
                count = 0
        if count:
            checked, passed, reports, error = run.block(cuffs, count, point,
                                                        summary_only, error)
            yield checked, passed, reports
        if error is not None:
            raise error


def verify_arc_construction(x1: FNPoint, x2: FNPoint, m: Marking,
                            depth: int) -> dict:
    """The :func:`verify_arcs` report of the one pair ``(x1, x2)``.

    ``depth`` is ignored; it is kept only because the benchmark passes one.
    """
    return next(verify_arcs([(x1, x2)], m))


# ---------------------------------------------------------------------------
# metric comparison rows

COMPARE_COLUMNS = (
    "d_th", "d_a", "d_a_minus_d_th", "gap_constant",
    "teich_lo", "teich_hi", "depth",
    "d_th_witness", "d_a_witness", "teich_witness",
)


def compare_metrics(x1: FNPoint, x2: FNPoint, m: Marking, depth: int) -> dict:
    """One comparison row: curve-ratio and arc estimates, their gap, the
    certified gap constant, and the quasiconformal interval.

    ``teich_lo`` is half the larger curve-ratio estimate of the two
    directions, a lower bound on the Teichmüller distance; ``teich_hi``
    is the upper end of the family-restricted bracket at ``depth``
    (:func:`~teichspace.metrics.teich_of`), which grows without limit in
    ``depth`` and is not a certified bound on it.

    The three estimators reduce over the same two length tables.  Raises
    :class:`HarnessCheckError` with a replay witness if the ordering
    ``d_a >= d_th >= 0`` fails on the evaluated family; a
    :class:`DomainError` of the gap constant gets the witness ``{"x1", "x2"}``.
    The gap constant depends only on the boundary and is taken once per
    boundary tuple.
    """
    t1, t2 = length_table(x1, m, depth), length_table(x2, m, depth)
    d_th = thurston_of(t1, t2)
    d_a = arc_of(t1, t2)
    teich = teich_of(t1, t2)
    if not (d_a.value >= d_th.value >= 0.0):
        message = ("arc estimate fell below curve estimate"
                   if not (d_a.value >= d_th.value) else
                   "curve-ratio estimate negative: family missed its witness")
        raise HarnessCheckError(message, {
            "x1": x1.to_dict(), "x2": x2.to_dict(), "depth": depth,
            "d_th": d_th.value, "d_a": d_a.value,
            "d_th_witness": d_th.witness, "d_a_witness": d_a.witness})
    try:
        gap = _gap(x1.boundary)
    except DomainError as err:
        raise err.with_witness({"x1": x1.to_dict(), "x2": x2.to_dict()}) from err
    return {
        "d_th": d_th.value,
        "d_a": d_a.value,
        "d_a_minus_d_th": d_a.value - d_th.value,
        "gap_constant": gap,
        "teich_lo": teich.interval.lo,
        "teich_hi": teich.interval.hi,
        "depth": depth,
        "d_th_witness": d_th.witness,
        "d_a_witness": d_a.witness,
        "teich_witness": teich.witness,
    }


@functools.lru_cache(maxsize=16)
def _gap(boundary: tuple) -> float:
    """``gap_constants(boundary).gap``, taken once per boundary tuple; a
    :class:`DomainError` is not cached, so every row that meets it raises
    it."""
    return gap_constants(boundary).gap


def csv_line(row: dict, columns) -> str:
    cells = []
    for col in columns:
        v = row[col]
        cells.append(_fmt(v) if isinstance(v, float) else str(v))
    return ",".join(cells)


# ---------------------------------------------------------------------------
# coordinate-forgetting experiment

PHI_COLUMNS = (
    "step", "twist_offset", "d_th_bordered", "d_th_punctured", "difference",
    "teich_bordered_lo", "teich_bordered_hi",
    "teich_punctured_lo", "teich_punctured_hi",
    "teich_diff_hi", "coordinate_bound",
)


def phi_experiment(x: FNPoint, m: Marking, *, curve_index: int, step: float,
                   count: int, depth: int, ceiling: float | None) -> dict:
    """Tabulate metric distortion under forgetting the boundary lengths.

    Walks a twist ray ``X_s`` from ``x`` (twist of one cuff shifted by
    ``s * step``), comparing the curve-ratio estimate between bordered
    points with the estimate between their punctured images, plus the
    quasiconformal intervals against the coordinate bound ``log(n+3)``.
    The intervals' lower ends are half the larger curve-ratio estimate of
    the two directions, lower bounds on the Teichmüller distance.  Their
    upper ends, and ``teich_diff_hi``, which reads them, are upper ends of
    the family-restricted brackets at ``depth``
    (:func:`~teichspace.metrics.teich_of`): they grow without limit in
    ``depth`` and are not certified bounds on the Teichmüller distance.
    If ``ceiling`` is not ``None`` and any difference exceeds it the run
    fails with a replay witness; a step or ceiling that is not finite
    raises :class:`DomainError`.  A ray point moves one twist of the
    checked ``x``, taken as a float, so it is built by
    :meth:`FNPoint._checked`, which checks it.  Each ray point is evaluated
    once, into its length table, and its image's table is derived from it
    (:func:`~teichspace.curves.image_table`).
    """
    if 0.0 in x.boundary:
        raise DomainError("ray experiment starts from a bordered point")
    if not (0 <= curve_index < m.ncurves):
        raise DomainError(f"no cuff with index {curve_index}")
    if count < 1:
        raise DomainError("need at least one ray point")
    for name, value in (("ray step", step), ("ceiling", ceiling)):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    base = length_table(x, m, depth)
    base_image = image_table(base, m)
    bound = math.log(x.n + 3)
    rows = []
    max_diff = 0.0
    for s in range(count):
        twists = list(x.twists)
        twists[curve_index] = float(twists[curve_index] + s * step)
        xs = FNPoint._checked(x.g, x.n, x.lengths, tuple(twists), x.boundary)
        ray = length_table(xs, m, depth)
        ray_image = image_table(ray, m)
        d_b = thurston_of(base, ray).value
        d_p = thurston_of(base_image, ray_image).value
        t_b = teich_of(base, ray).interval
        t_p = teich_of(base_image, ray_image).interval
        diff = abs(d_b - d_p)
        max_diff = max(max_diff, diff)
        rows.append({
            "step": s,
            "twist_offset": s * step,
            "d_th_bordered": d_b,
            "d_th_punctured": d_p,
            "difference": diff,
            "teich_bordered_lo": t_b.lo,
            "teich_bordered_hi": t_b.hi,
            "teich_punctured_lo": t_p.lo,
            "teich_punctured_hi": t_p.hi,
            "teich_diff_hi": max(t_b.hi - t_p.lo, t_p.hi - t_b.lo),
            "coordinate_bound": bound,
        })
    report = {
        "base_point": x.to_dict(),
        "curve_index": curve_index,
        "step": step,
        "count": count,
        "depth": depth,
        "rows": rows,
        "max_difference": max_diff,
        "coordinate_bound": bound,
        "ceiling": ceiling,
    }
    if ceiling is not None and max_diff > ceiling:
        raise HarnessCheckError(
            f"difference {max_diff} exceeded the configured ceiling {ceiling}",
            report)
    return report


# ---------------------------------------------------------------------------
# almost-isometry sampling report


def almost_isometry_report(samples, m: Marking, depth: int,
                           metric: str) -> dict:
    """Measure the additive metric distortion of forgetting the boundary.

    ``d1`` is the arc estimate (or curve-ratio estimate, per ``metric``)
    between bordered samples; ``d2`` the curve-ratio estimate between
    their punctured images.  ``b_bound`` is the largest observed ``|d2(f
    x, f y) - d1(x, y)|`` over sampled ordered pairs and ``worst_pair``
    the first pair attaining it, also when it is zero.  Targets are the
    images of the samples, so the coarse-density bound ``a_bound`` is
    exactly zero.  Each sample is evaluated once, into its length table,
    and each image's table is derived from its sample's
    (:func:`~teichspace.curves.image_table`).  A pair is reduced to its two
    values only, through the checked cores
    :func:`~teichspace.metrics.arc_sup` and
    :func:`~teichspace.metrics.thurston_sup`, which raise as the estimators
    do.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise DomainError("need at least two samples")
    if metric not in ("arc", "thurston"):
        raise DomainError(f"unknown metric selector {metric!r}")
    d1_of = arc_sup if metric == "arc" else thurston_sup
    tables = [length_table(x, m, depth) for x in samples]
    images = [image_table(t, m) for t in tables]
    b_bound, worst = None, []
    pairs = 0
    for i in range(len(samples)):
        for j in range(len(samples)):
            if i == j:
                continue
            d1 = d1_of(tables[i], tables[j])[0]
            d2 = thurston_sup(images[i], images[j])[0]
            pairs += 1
            if b_bound is None or abs(d2 - d1) > b_bound:
                b_bound, worst = abs(d2 - d1), [i, j]
    return {"a_bound": 0.0, "b_bound": b_bound, "pairs": pairs,
            "metric": metric, "worst_pair": worst}
