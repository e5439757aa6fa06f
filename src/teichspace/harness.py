"""Experiment runner: sampling, inequality checks, and report generation.

Every operation here is deterministic given the experiment configuration:
point ``index`` is drawn from numpy's ``SeedSequence`` + ``PCG64`` stream
keyed by ``(seed, index)``, written out in pure Python so that no run
imports numpy and numpy's Generator policy cannot move it; the lengths go
through ``math.exp``, so the points do not depend on numpy's CPU dispatch
(see :func:`sample_point`).  Reports are plain dicts with fixed key order so
identical runs serialize to identical bytes.

The checks are boundedness reports, not proofs: the estimators are lower
bounds, so an observed difference exceeding a theoretical ceiling indicates
a bug, while staying below it is evidence of consistency only.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .coords import FNPoint, Marking, build_marking, json_fields, phi_gamma
from .curves import (
    arc_length_formula,
    enumerate_arcs,
    length_table,
    pants_neighborhood_boundaries,
)
from .metrics import arc_of, teich_of, thurston_of
from .pants_trig import DomainError, gap_constants

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


# numpy's SeedSequence (pool of four 32-bit words) and PCG64 (XSL-RR 128/64),
# written out so that sampling needs no ``numpy.random``.
_M32, _M64, _M128 = 2 ** 32 - 1, 2 ** 64 - 1, 2 ** 128 - 1
_POOL = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = 0xca01f9dd, 0x4973f715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_consts(h: int, mult: int, calls: int) -> list:
    """``(xor, mul)`` of ``calls`` successive hashmix calls from constant ``h``:
    each call XORs with the running constant, advances it, multiplies by it."""
    out = []
    for _ in range(calls):
        out.append((h, h * mult & _M32))
        h = out[-1][1]
    return out


def _mixing_schedule(extra: int):
    """Hash constants of the pool fill, and ``(src, dst, xor, mul)`` of every
    mixing step: each pool word into every other, then each of ``extra``
    entropy words past the pool into every pool word.  A ``src`` past the
    pool indexes those extra words, which sit after the pool."""
    pairs = [(s, d) for s in range(_POOL) for d in range(_POOL) if s != d]
    pairs += [(_POOL + e, d) for e in range(extra) for d in range(_POOL)]
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL + len(pairs))
    return consts[:_POOL], [(s, d, *c) for (s, d), c in zip(pairs, consts[_POOL:])]


_FILL, _SCHEDULE = _mixing_schedule(0)
# The eight state words, cycling over the pool: (pool word, xor, mul).
_OUTPUT = [(i % _POOL, *c) for i, c in
           enumerate(_hash_consts(_INIT_B, _MULT_B, 2 * _POOL))]


def _words32(n: int) -> list:
    """``n`` as little-endian 32-bit words; one word for 0."""
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)
    return words


def _uniforms(seed: int, index: int, count: int) -> list:
    """The first ``count`` doubles in [0, 1) of
    ``numpy.random.default_rng([seed, index])``, bit for bit.

    ``SeedSequence`` hashes the entropy words into its pool and draws eight
    words from it; as four little-endian uint64 ``s0 s1 i0 i1`` they seed
    PCG64 with state ``s0:s1`` and increment ``2 (i0:i1) + 1``.  Each double
    is the top 53 bits of one XSL-RR output.
    """
    if seed < 0 or index < 0:
        raise DomainError(f"seed and index must be nonnegative, got {seed}, {index}")
    pool = _words32(seed) + _words32(index)
    fill, schedule = (_FILL, _SCHEDULE) if len(pool) <= _POOL else \
        _mixing_schedule(len(pool) - _POOL)
    pool += [0] * (_POOL - len(pool))
    for i, (xor, mul) in enumerate(fill):
        v = (pool[i] ^ xor) * mul & _M32
        pool[i] = v ^ v >> 16
    for s, d, xor, mul in schedule:
        v = (pool[s] ^ xor) * mul & _M32
        v = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _M32
        pool[d] = v ^ v >> 16
    w = []
    for i, xor, mul in _OUTPUT:
        v = (pool[i] ^ xor) * mul & _M32
        w.append(v ^ v >> 16)
    state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]) << 1 & _M128 | 1
    state = ((inc + state) * _PCG_MULT + inc) & _M128
    out = []
    for _ in range(count):
        state = (state * _PCG_MULT + inc) & _M128
        x = (state >> 64 ^ state) & _M64
        # rotate x right by the top six bits of the state
        out.append((((x << 64 | x) >> (state >> 122) & _M64) >> 11) * 2.0 ** -53)
    return out


def sample_point(cfg: ExperimentConfig, index: int) -> FNPoint:
    """Point number ``index`` of the experiment: deterministic in
    ``(cfg.seed, index)``, lengths log-uniform, twists uniform.

    The draws are those of ``numpy.random.default_rng([cfg.seed mod 2**64,
    index]).uniform``, bit for bit, from :func:`_uniforms`: numpy's
    ``SeedSequence`` and ``PCG64`` stream written out.  Importing
    ``numpy.random`` took longer than a small run's geometry, and numpy does
    not promise that ``Generator.uniform`` keeps its stream across releases.
    The lengths go through ``math.exp``, the C library's: numpy's ``exp``
    dispatches to a CPU-specific kernel that differs from it in the last
    bit on some inputs, so numpy's lengths depend on the host.  A negative
    ``index`` raises :class:`DomainError`.
    """
    ncurves = 3 * cfg.g - 3 + cfg.n
    u = _uniforms(cfg.seed & _M64, index, 2 * ncurves)
    lo, hi = math.log(cfg.length_range[0]), math.log(cfg.length_range[1])
    t_lo, t_hi = cfg.twist_range
    lengths = [math.exp(lo + (hi - lo) * v) for v in u[:ncurves]]
    twists = [t_lo + (t_hi - t_lo) * v for v in u[ncurves:]]
    return FNPoint(g=cfg.g, n=cfg.n, lengths=lengths, twists=twists,
                   boundary=cfg.boundary)


# ---------------------------------------------------------------------------
# constructive arc check


def verify_arcs(pairs, m: Marking):
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
    that boundary.  The seed arcs are the same at every family depth, so
    there is no depth.
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
                    for arc in enumerate_arcs(m)]
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
