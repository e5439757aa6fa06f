"""Experiment runner: sampling, inequality checks, and report generation.

Every operation here is deterministic given the experiment configuration:
points are drawn from a counter-based generator keyed by (seed, index), and
reports are plain dicts with fixed key order so identical runs serialize to
identical bytes.

The checks are boundedness reports, not proofs: the estimators are lower
bounds, so an observed difference exceeding a theoretical ceiling indicates
a bug, while staying below it is evidence of consistency only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .curves import (
    arc_length_formula,
    enumerate_arcs,
    length_table,
    pants_neighborhood_boundaries,
)
from .metrics import arc_of, teich_of, thurston_of
from .pants_trig import DomainError, gap_constants
from .surface import FNPoint, Marking, build_marking, json_fields, phi_gamma

__all__ = [
    "AlmostIsometryReport",
    "ExperimentConfig",
    "HarnessCheckError",
    "almost_isometry_report",
    "compare_metrics",
    "csv_line",
    "phi_experiment",
    "sample_point",
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
        if self.twist_range[0] > self.twist_range[1]:
            raise DomainError(f"bad twist range {self.twist_range}")
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
        :func:`~teichspace.surface.json_fields`; absent fields take their
        defaults."""
        return cls(**json_fields(cls, text, "config"))


def sample_point(cfg: ExperimentConfig, index: int) -> FNPoint:
    """Point number ``index`` of the experiment: deterministic in
    ``(cfg.seed, index)``, lengths log-uniform, twists uniform."""
    rng = np.random.default_rng([cfg.seed & (2 ** 64 - 1), index])
    ncurves = 3 * cfg.g - 3 + cfg.n
    lo, hi = cfg.length_range
    lengths = np.exp(rng.uniform(math.log(lo), math.log(hi), ncurves))
    twists = rng.uniform(cfg.twist_range[0], cfg.twist_range[1], ncurves)
    return FNPoint(g=cfg.g, n=cfg.n, lengths=lengths.tolist(),
                   twists=twists.tolist(), boundary=cfg.boundary)


# ---------------------------------------------------------------------------
# constructive arc check


def verify_arcs(pairs, m: Marking, depth: int):
    """Check the constructive arc-to-curve comparison on every seed arc of
    each pair ``(x1, x2)``; yield one report per pair, in order.

    For each arc whose length grows from ``x1`` to ``x2``, the boundary
    curves of its neighbourhood pants must satisfy
    ``max length-ratio >= c * arc-ratio`` with the certified constant
    ``c = gap_constants(boundary).c``.  Boundary-parallel neighbourhood
    curves are excluded from the maximum and noted.  Each report carries
    full replay witnesses.

    Every checked arc has an essential neighbourhood curve: only the pants
    alone has none, and there both points share all three cuff lengths,
    so no arc changes length.

    The constants, the arcs and their neighbourhood curves depend only on
    the boundary and the marking, so they are computed once, from the
    first pair, before its report; every point of every pair must share
    that boundary.
    """
    plan = None
    for x1, x2 in pairs:
        if plan is None:
            boundary = x1.boundary
            if any(v == 0.0 for v in boundary):
                raise DomainError("arc check needs positive boundary lengths")
            constants = gap_constants(boundary)
            plan = [(arc, arc.label(),
                     [((arc.pants, s),
                       c.label() + ("" if c.essential else "(boundary)"),
                       c.essential)
                      for s, c in zip(arc.neighbour_slots,
                                      pants_neighborhood_boundaries(arc, m))])
                    for arc in enumerate_arcs(m, depth)]
        if x1.boundary != boundary or x2.boundary != boundary:
            raise DomainError("arc check needs equal boundary lengths")
        rows = []
        for arc, label, neighbours in plan:
            l1 = arc_length_formula(x1, m, arc)
            l2 = arc_length_formula(x2, m, arc)
            ratio = l2 / l1
            row = {"arc": label, "l1": l1, "l2": l2, "ratio": ratio}
            if ratio <= 1.0:
                row["checked"] = False
                rows.append(row)
                continue
            curves = []
            for side, nb_label, essential in neighbours:
                c1, c2 = m.slot_length(x1, side), m.slot_length(x2, side)
                curves.append({"curve": nb_label, "l1": c1, "l2": c2,
                               "ratio": c2 / c1, "essential": essential})
            best = max(c["ratio"] for c in curves if c["essential"])
            bound = constants.c * ratio
            row.update({"checked": True, "curves": curves,
                        "excluded_boundary_parallel":
                            sum(not c["essential"] for c in curves),
                        "max_curve_ratio": best, "bound": bound,
                        "passed": best >= bound})
            rows.append(row)
        checked = sum(r["checked"] for r in rows)
        passed = sum(r["checked"] and r["passed"] for r in rows)
        yield {
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


def verify_arc_construction(x1: FNPoint, x2: FNPoint, m: Marking,
                            depth: int) -> dict:
    """The :func:`verify_arcs` report of the one pair ``(x1, x2)``."""
    return next(verify_arcs([(x1, x2)], m, depth))


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

    The three estimators reduce over the same two length tables.  Raises
    :class:`HarnessCheckError` with a replay witness if the ordering
    ``d_a >= d_th >= 0`` fails on the evaluated family.
    """
    t1, t2 = length_table(x1, m, depth), length_table(x2, m, depth)
    d_th = thurston_of(t1, t2)
    d_a = arc_of(t1, t2)
    teich = teich_of(t1, t2)
    witness = {"x1": x1.to_dict(), "x2": x2.to_dict(),
               "depth": depth, "d_th": d_th.value, "d_a": d_a.value,
               "d_th_witness": d_th.witness, "d_a_witness": d_a.witness}
    if not (d_a.value >= d_th.value):
        raise HarnessCheckError("arc estimate fell below curve estimate", witness)
    if not (d_th.value >= 0.0):
        raise HarnessCheckError(
            "curve-ratio estimate negative: family missed its witness", witness)
    return {
        "d_th": d_th.value,
        "d_a": d_a.value,
        "d_a_minus_d_th": d_a.value - d_th.value,
        "gap_constant": gap_constants(x1.boundary).gap,
        "teich_lo": teich.interval.lo,
        "teich_hi": teich.interval.hi,
        "depth": depth,
        "d_th_witness": d_th.witness,
        "d_a_witness": d_a.witness,
        "teich_witness": teich.witness,
    }


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


def phi_experiment(x: FNPoint, m: Marking, *, curve_index: int = 0,
                   step: float = 0.5, count: int = 11, depth: int = 2,
                   ceiling: float | None = None) -> dict:
    """Tabulate metric distortion under forgetting the boundary lengths.

    Walks a twist ray ``X_s`` from ``x`` (twist of one cuff shifted by
    ``s * step``), comparing the curve-ratio estimate between bordered
    points with the estimate between their punctured images, plus the
    quasiconformal intervals against the coordinate bound ``log(n+3)``.
    If ``ceiling`` is given and any difference exceeds it the run fails
    with a replay witness.
    """
    if any(v == 0.0 for v in x.boundary):
        raise DomainError("ray experiment starts from a bordered point")
    if not (0 <= curve_index < m.ncurves):
        raise DomainError(f"no cuff with index {curve_index}")
    if count < 1:
        raise DomainError("need at least one ray point")
    base = length_table(x, m, depth)
    base_image = length_table(phi_gamma(x), m, depth)
    bound = math.log(x.n + 3)
    rows = []
    max_diff = 0.0
    for s in range(count):
        twists = list(x.twists)
        twists[curve_index] += s * step
        xs = FNPoint(g=x.g, n=x.n, lengths=x.lengths, twists=twists,
                     boundary=x.boundary)
        ray = length_table(xs, m, depth)
        ray_image = length_table(phi_gamma(xs), m, depth)
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


@dataclass(frozen=True)
class AlmostIsometryReport:
    """Empirical additive distortion of the boundary-forgetting map.

    ``b_bound`` is the largest observed ``|d2(f x, f y) - d1(x, y)|`` over
    sampled ordered pairs and ``worst_pair`` the first pair attaining it,
    also when it is zero; ``a_bound`` the largest distance from a target
    to the image (zero when the targets are the images themselves).
    """

    a_bound: float
    b_bound: float
    pairs: int
    metric: str
    worst_pair: tuple = field(default=())

    def to_dict(self) -> dict:
        return {"a_bound": self.a_bound, "b_bound": self.b_bound,
                "pairs": self.pairs, "metric": self.metric,
                "worst_pair": list(self.worst_pair)}


def almost_isometry_report(samples, m: Marking, depth: int,
                           metric: str = "arc") -> AlmostIsometryReport:
    """Measure the additive metric distortion of forgetting the boundary.

    ``d1`` is the arc estimate (or curve-ratio estimate, per ``metric``)
    between bordered samples; ``d2`` the curve-ratio estimate between
    their punctured images.  Targets are the images of the samples, so
    the coarse-density bound is exactly zero for this sample set.  Each
    sample and each image is evaluated once, into its length table.
    """
    samples = list(samples)
    if len(samples) < 2:
        raise DomainError("need at least two samples")
    if metric not in ("arc", "thurston"):
        raise DomainError(f"unknown metric selector {metric!r}")
    d1_of = arc_of if metric == "arc" else thurston_of
    tables = [length_table(x, m, depth) for x in samples]
    images = [length_table(phi_gamma(x), m, depth) for x in samples]
    b_bound, worst = None, ()
    pairs = 0
    for i in range(len(samples)):
        for j in range(len(samples)):
            if i == j:
                continue
            d1 = d1_of(tables[i], tables[j]).value
            d2 = thurston_of(images[i], images[j]).value
            pairs += 1
            if b_bound is None or abs(d2 - d1) > b_bound:
                b_bound, worst = abs(d2 - d1), (i, j)
    return AlmostIsometryReport(a_bound=0.0, b_bound=b_bound, pairs=pairs,
                                metric=metric, worst_pair=worst)
