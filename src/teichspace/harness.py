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
(:attr:`~teichspace.coords.Marking.arc_forms`); it takes the terms of
those forms that read only the boundary once per run, and evaluates the
forms a block of pairs at a time.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from itertools import islice

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
    on the order or repetition of ``indices``.  A run of consecutive
    indices seeds one generator per block and reads its stream straight
    through; any other index seeds a fresh generator (a full MT19937
    initialisation of its 624-word state) and skips the draws of the
    points before it in its block, up to ``63 * 2 * ncurves``.  The
    per-config terms are worked out once.  Python keeps ``random()`` and
    ``getrandbits`` the same for the same integer seed in every release,
    so the points do not depend on the interpreter or the host.  An
    ``index`` below 0 or at or above 2**64 lies outside the sampler's
    domain and raises :class:`DomainError` when it is reached, after the
    points before it have been yielded.

    The surface, the counts and the boundary are the same at every point,
    so they are checked once per call, by :class:`FNPoint` at the first
    point, after its index check: a config that fails them raises the
    point's own :class:`DomainError` there.  Every later point is built on
    them by :meth:`FNPoint._checked`, which checks its cuffs and twists,
    and shares the first point's boundary tuple.
    """
    g, n, boundary = cfg.g, cfg.n, cfg.boundary
    draws = range(3 * g - 3 + n)
    # Each random() takes two 32-bit words of MT19937 and getrandbits(64 * k)
    # takes 2k, so the latter skips k draws.
    skip_bits = 64 * 2 * len(draws)
    # lo + (hi - lo) * random() is what Random.uniform(lo, hi) returns.
    lo = math.log(cfg.length_range[0])
    width = math.log(cfg.length_range[1]) - lo
    twist_lo, twist_hi = cfg.twist_range
    twist_width = twist_hi - twist_lo
    key = (cfg.seed & _M64) << 64
    exp = math.exp
    block = drawn = None
    point = FNPoint
    for index in indices:
        if not 0 <= index <= _M64:
            raise DomainError(f"sample index must lie in [0, 2**64), got {index}")
        b, position = divmod(index, _BLOCK)
        if b != block or position < drawn:
            rng = random.Random(key | b)
            draw = rng.random
            block, drawn = b, 0
        if position > drawn:
            rng.getrandbits((position - drawn) * skip_bits)
        drawn = position + 1
        lengths = tuple([exp(lo + width * draw()) for _ in draws])
        twists = tuple([twist_lo + twist_width * draw() for _ in draws])
        x = point(g, n, lengths, twists, boundary)
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

    The arcs and their neighbourhood curves depend only on the marking, so
    the per-run plan is read off ``m.arcs`` and
    :attr:`~teichspace.coords.Marking.arc_forms` before the first pair: per
    arc its label, and the curves its form reads after its own boundaries
    (index ``i`` of ``x.lengths + x.boundary`` is ``gamma<i>`` below
    ``m.ncurves`` and a boundary above), with the indices of the essential
    ones and the count of the boundary-parallel ones.  The gap constants
    and the hexagon forms' boundary terms
    (:func:`~teichspace.curves.hexagon_terms`: the arcs' own ``cosh`` and
    ``sinh`` terms and the boundary block of the ``cosh(l/2)`` vector)
    depend only on the boundary, so they are taken once, from the first
    pair, before its report; every point of every pair must share that
    boundary.

    The pairs are taken in blocks of 32, the 64 points of one sampler
    block.  A block's pairs are checked in order, then one call of the
    block form :func:`~teichspace.pants_trig._block` gives every arc length
    at every point of the block, one column per arc form, taking one
    ``cosh(l/2)`` column per cuff.  Each pair's lengths, read from the
    columns, become its report through one helper.  Essential
    neighbourhood curves are cuffs, so one pass per pair over the cuff
    ratios ``x2.lengths[i] / x1.lengths[i]``, taken once, counts the
    checked and passed arcs.  The rows (ratio, best curve ratio, bound and
    verdict of each arc, with its curves) are computed with the same
    expressions only for a report that is yielded in full.  The seed arcs
    are the same at every family depth, so there is no depth.

    A block in which a check fails, a length leaves double range or the
    next pair cannot be taken is taken again one pair at a time, through
    :func:`~teichspace.curves.hexagon_lengths` and the scalar cores, which
    give the same lengths: the pairs before the failing one are yielded,
    then its error is raised.  A point that does not fit the marking raises
    the :class:`DomainError` of
    :meth:`~teichspace.coords.Marking.require_fit` before anything else of
    its pair.  Otherwise a pair's DomainError is that of the first failing
    arc of ``x1``, or of ``x2`` if every arc of ``x1`` has a length.  Each
    carries the witness ``{"x1", "x2"}``.  An error taking the next pair is
    raised as it is, after the pairs before it.
    """
    nc, forms = m.ncurves, m.arc_forms
    plan = []
    for arc, form in zip(m.arcs, forms):
        curves = form[1 + len(arc.slots):]
        neighbours = [(i, f"gamma{i}" if i < nc else f"beta{i - nc}(boundary)",
                       i < nc) for i in curves]
        essential = [i for i in curves if i < nc]
        plan.append((arc.label(), neighbours, essential,
                     len(curves) - len(essential)))
    essentials = [essential for _, _, essential, _ in plan]
    boundary = constants = terms = None
    fit = (m.genus, m.nboundary) * 2

    def check(x1, x2):
        nonlocal boundary, constants, terms
        if (x1.g, x1.n, x2.g, x2.n) != fit:
            m.require_fit(x1)
            m.require_fit(x2)
        if constants is None:
            boundary = x1.boundary
            if 0.0 in boundary:
                raise DomainError("arc check needs positive boundary lengths")
            constants = gap_constants(boundary)
            terms = hexagon_terms(forms, nc, boundary)
        if x1.boundary != boundary or x2.boundary != boundary:
            raise DomainError("arc check needs equal boundary lengths")

    def report(x1, x2, lens1, lens2):
        c = constants.c
        # Essential neighbours are cuffs, so their ratios are read from here.
        cuffs = [b / a for a, b in zip(x1.lengths, x2.lengths)]
        checked = passed = 0
        for essential, l1, l2 in zip(essentials, lens1, lens2):
            ratio = l2 / l1
            if ratio > 1.0:
                checked += 1
                passed += max([cuffs[i] for i in essential]) >= c * ratio
        if summary_only and passed == checked:
            return {"checked": checked, "passed": passed, "all_passed": True}
        ell1, ell2 = x1.lengths + x1.boundary, x2.lengths + x2.boundary
        rows = []
        for (label, neighbours, essential, excluded), l1, l2 in zip(plan, lens1, lens2):
            ratio = l2 / l1
            if ratio <= 1.0:
                rows.append({"arc": label, "l1": l1, "l2": l2,
                             "ratio": ratio, "checked": False})
                continue
            best = max([cuffs[i] for i in essential])
            bound = c * ratio
            rows.append({
                "arc": label, "l1": l1, "l2": l2, "ratio": ratio,
                "checked": True,
                "curves": [{"curve": nb_label, "l1": ell1[i], "l2": ell2[i],
                            "ratio": ell2[i] / ell1[i], "essential": e}
                           for i, nb_label, e in neighbours],
                "excluded_boundary_parallel": excluded,
                "max_curve_ratio": best, "bound": bound, "passed": best >= bound})
        return {
            "x1": x1.to_dict(),
            "x2": x2.to_dict(),
            "constant": c,
            "constant_between": constants.c_between,
            "constant_self": constants.c_self,
            "gap": constants.gap,
            "arcs": rows,
            "checked": checked,
            "passed": passed,
            "vacuous": len(rows) - checked,
            "all_passed": passed == checked,
        }

    def one_by_one(block):
        for x1, x2 in block:
            try:
                check(x1, x2)
                lens1 = hexagon_lengths(x1, forms, terms=terms)
                lens2 = hexagon_lengths(x2, forms, terms=terms)
            except DomainError as err:
                raise err.with_witness({"x1": x1.to_dict(), "x2": x2.to_dict()}) from err
            yield report(x1, x2, lens1, lens2)

    pairs = iter(pairs)
    while True:
        block, pulled, lengths = [], None, None
        try:
            for x1, x2 in islice(pairs, _ARC_BLOCK):
                block.append((x1, x2))
        except Exception as err:
            pulled = err  # raised as it is, after the pairs before it
        if pulled is None and block:
            try:
                for x1, x2 in block:
                    check(x1, x2)
            except DomainError:
                pass  # one_by_one raises it again, after the pairs before it
            else:
                points = [x for pair in block for x in pair]
                lengths = pants_trig._block(forms, terms,
                                            list(zip(*[x.lengths for x in points])),
                                            len(points))
        if lengths is None:
            yield from one_by_one(block)
            if pulled is not None:
                raise pulled
        else:
            lens = list(zip(*lengths))
            for (x1, x2), lens1, lens2 in zip(block, lens[::2], lens[1::2]):
                yield report(x1, x2, lens1, lens2)
        if len(block) < _ARC_BLOCK:
            return


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
