"""Workload definitions and their output checks.

Every workload is one CLI subcommand on a fixed surface; the seed is the
only input that varies between runs.  The checks use seed-independent
invariants with the test-suite tolerances, read only the frozen CSV columns
or named JSON keys, and recompute values through the public API, so they
hold for any seed and ignore fields that later versions may add.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

from teichspace.curves import arc_length_formula, enumerate_arcs, enumerate_curves
from teichspace.harness import (
    COMPARE_COLUMNS,
    ExperimentConfig,
    compare_metrics,
    sample_point,
    verify_arc_construction,
)
from teichspace.metrics import arc_lower, teich_interval_report, thurston_lower
from teichspace.pants_trig import gap_constants
from teichspace.surface import FNPoint, arc_length, build_marking, double, phi_gamma

# Recomputed values and inequalities between outputs (the test suite's 1e-12).
TOL = 1e-12
# Hexagon closed form against the doubled-holonomy arc length (1e-8).
ARC_TOL = 1e-8
# The pants alone, with boundary i in slot i: the reference for arc lengths.
_PANTS = build_marking(0, 3)


class Workload:
    """A subcommand, its config, its item count, check and replay."""

    def __init__(self, name, why, config, cli_args, check_items):
        self.name = name
        self.why = why
        self.config = config
        self.cli_args = cli_args
        self.check_items = check_items

    def make_config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig.from_json(json.dumps(dict(self.config, seed=seed)))

    def argv(self, config_path: str, out_path: str):
        return [self.cli_args[0], "--config", config_path, *self.cli_args[1:],
                "--out", out_path]

    def items(self, cfg: ExperimentConfig) -> int:
        k = cfg.samples
        return k * (k - 1) if self.cli_args[0] == "report" else k

    def check(self, text: str, cfg: ExperimentConfig):
        """Return ``{item index: reason}`` for every item that fails."""
        try:
            return self.check_items(text, cfg, random.Random(f"{self.name}/{cfg.seed}"))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return {i: f"unreadable output: {exc!r}" for i in range(self.items(cfg))}

    def replay(self, cfg: ExperimentConfig):
        """Redo the items one by one; return ``(index, exception)`` of the
        first item that raises, or ``(None, None)``."""
        m = cfg.marking()
        for index, call in enumerate(_item_calls(self.cli_args[0], cfg, m)):
            try:
                call()
            except Exception as exc:  # the witness names whatever was raised
                return index, f"{type(exc).__name__}: {exc}"
        return None, None


def _item_calls(command, cfg, m):
    d = cfg.depth
    if command == "compare":
        for i in range(cfg.samples):
            yield lambda i=i: compare_metrics(sample_point(cfg, 2 * i),
                                              sample_point(cfg, 2 * i + 1), m, d)
    elif command == "verify-arcs":
        for i in range(cfg.samples):
            yield lambda i=i: verify_arc_construction(
                sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1), m, d)
    else:
        xs = [sample_point(cfg, i) for i in range(cfg.samples)]
        for i in range(cfg.samples):
            for j in range(cfg.samples):
                if i != j:
                    yield lambda i=i, j=j: (
                        arc_lower(xs[i], xs[j], m, d),
                        thurston_lower(phi_gamma(xs[i]), phi_gamma(xs[j]), m, d))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _arc_cross_check(x, m):
    """Hexagon arc lengths against the doubled-holonomy path; ``None`` if
    all agree to ARC_TOL, else a reason.

    Each arc lies in one geodesic pants, which is convex, so its length is
    that of the same arc on the pants alone: the reference doubles the
    arc's pants (a genus-2 double), not the whole surface, whose long
    conjugator chains lose accuracy on far pants.
    """
    assign = m.slot_assignment()
    doubles = {}
    for arc in enumerate_arcs(m):
        if arc.pants not in doubles:
            lens = []
            for s in range(3):
                kind, idx = assign[(arc.pants, s)]
                lens.append(x.lengths[idx] if kind == "edge" else x.boundary[idx])
            d = double(FNPoint(g=0, n=3, lengths=(), twists=(), boundary=lens), _PANTS)
            doubles[arc.pants] = (d, d.holonomy())
        d, h = doubles[arc.pants]
        ref = next(a for a in _PANTS.arcs
                   if (a.kind, sorted(a.slots)) == (arc.kind, sorted(arc.slots)))
        want = arc_length(d, ref, h)
        got = arc_length_formula(x, m, arc)
        if not abs(got - want) <= ARC_TOL:
            return f"arc {arc.label()}: hexagon {got!r} vs double {want!r}"
    return None


def _check_compare(text, cfg, rng):
    m = cfg.marking()
    reader = csv.DictReader(io.StringIO(text))
    if tuple(reader.fieldnames or ())[:len(COMPARE_COLUMNS)] != COMPARE_COLUMNS:
        raise ValueError(f"CSV header {reader.fieldnames} lacks the frozen columns")
    rows = list(reader)
    bad = {i: "row missing" for i in range(len(rows), cfg.samples)}
    if len(rows) > cfg.samples:
        bad[cfg.samples] = f"{len(rows)} rows for {cfg.samples} samples"
    classes = enumerate_curves(m, cfg.depth)
    essential = {c.label() for c in classes if c.essential}
    members = {c.label() for c in classes} | {a.label() for a in enumerate_arcs(m)}
    gap = gap_constants(cfg.boundary).gap
    defect = math.log(cfg.n + 2)
    cross = rng.randrange(cfg.samples)
    for i, row in enumerate(rows[:cfg.samples]):
        x1, x2 = sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1)
        d_th, d_a, diff, gapc, lo, hi = (float(row[c]) for c in COMPARE_COLUMNS[:6])
        floor = max(math.log(b / a) for a, b in zip(x1.lengths, x2.lengths))
        reasons = []
        if not _finite(d_th, d_a, diff, gapc, lo, hi):
            reasons.append("non-finite value")
        if not d_a >= d_th - TOL:
            reasons.append(f"d_a {d_a!r} < d_th {d_th!r}")
        if not d_th >= floor - TOL:
            reasons.append(f"d_th {d_th!r} < pants-curve ratio {floor!r}")
        if not abs(diff - (d_a - d_th)) <= TOL:
            reasons.append(f"d_a_minus_d_th {diff!r} != d_a - d_th")
        if not abs(gapc - gap) <= TOL:
            reasons.append(f"gap_constant {gapc!r} != {gap!r}")
        if not (-TOL <= lo <= hi + TOL and hi >= defect - TOL):
            reasons.append(f"teich interval [{lo!r}, {hi!r}] vs log(n+2)")
        if int(row["depth"]) != cfg.depth:
            reasons.append(f"depth {row['depth']}")
        if row["d_th_witness"] not in essential:
            reasons.append(f"d_th_witness {row['d_th_witness']!r} not in family")
        if row["d_a_witness"] not in members:
            reasons.append(f"d_a_witness {row['d_a_witness']!r} not in family")
        if row["teich_witness"] not in essential:
            reasons.append(f"teich_witness {row['teich_witness']!r} not in family")
        if i == cross:
            reasons += [r for r in (_arc_cross_check(x1, m), _arc_cross_check(x2, m)) if r]
            teich = teich_interval_report(x1, x2, m, cfg.depth).interval
            want = (thurston_lower(x1, x2, m, cfg.depth).value,
                    arc_lower(x1, x2, m, cfg.depth).value, teich.lo, teich.hi)
            if not all(abs(a - b) <= TOL for a, b in zip((d_th, d_a, lo, hi), want)):
                reasons.append(f"row differs from the estimators' {want!r}")
        if reasons:
            bad[i] = "; ".join(reasons)
    return bad


def _check_report(text, cfg, rng):
    m = cfg.marking()
    k = cfg.samples
    rep = json.loads(text)["report"]
    b_bound, worst = rep["b_bound"], list(rep["worst_pair"])
    reasons = []
    if rep["pairs"] != k * (k - 1):
        reasons.append(f"pairs {rep['pairs']} != k(k-1) = {k * (k - 1)}")
    if rep["metric"] != "arc":
        reasons.append(f"metric {rep['metric']!r}")
    if rep["a_bound"] != 0.0:
        reasons.append(f"a_bound {rep['a_bound']!r} != 0")
    if not (_finite(b_bound) and b_bound >= 0.0):
        reasons.append(f"b_bound {b_bound!r}")
    xs = [sample_point(cfg, i) for i in range(k)]

    def distortion(i, j):
        d1 = arc_lower(xs[i], xs[j], m, cfg.depth).value
        d2 = thurston_lower(phi_gamma(xs[i]), phi_gamma(xs[j]), m, cfg.depth).value
        return abs(d2 - d1)

    if not (len(worst) == 2 and all(isinstance(v, int) and 0 <= v < k for v in worst)
            and worst[0] != worst[1]):
        reasons.append(f"worst_pair {worst!r}")
    elif not abs(distortion(*worst) - b_bound) <= TOL:
        reasons.append(f"b_bound {b_bound!r} != recomputed {distortion(*worst)!r}")
    i, j = rng.sample(range(k), 2)
    if not distortion(i, j) <= b_bound + TOL:
        reasons.append(f"pair ({i}, {j}) exceeds b_bound")
    reasons += [r for r in (_arc_cross_check(xs[i], m), _arc_cross_check(xs[j], m)) if r]
    if reasons:
        return {p: "; ".join(reasons) for p in range(k * (k - 1))}
    return {}


def _check_verify_arcs(text, cfg, rng):
    m = cfg.marking()
    payload = json.loads(text)
    checked, passed, failures = payload["checked"], payload["passed"], payload["failures"]
    reasons = []
    if payload["pairs"] != cfg.samples:
        reasons.append(f"pairs {payload['pairs']} != {cfg.samples}")
    if not (isinstance(checked, int) and 0 <= passed <= checked <= cfg.samples * len(m.arcs)):
        reasons.append(f"passed {passed!r} of {checked!r}")
    elif payload["pass_rate"] != (1.0 if checked == 0 else passed / checked):
        reasons.append(f"pass_rate {payload['pass_rate']!r} != passed / checked")
    if bool(failures) != (passed < checked):
        reasons.append(f"{len(failures)} failures listed for {checked - passed} failed arcs")
    i = rng.randrange(cfg.samples)
    x1, x2 = sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1)
    reasons += [r for r in (_arc_cross_check(x1, m), _arc_cross_check(x2, m)) if r]
    if reasons:
        return {p: "; ".join(reasons) for p in range(cfg.samples)}
    # A pass rate below 1 fails the pairs listed, each found by its first point.
    index = {sample_point(cfg, 2 * p).to_json(): p for p in range(cfg.samples)} if failures else {}
    return {index[json.dumps(f["x1"])]: "arc check failed" for f in failures}


WORKLOADS = {w.name: w for w in (
    Workload(
        "compare-g3n2",
        "holonomy assembly with the most pants and tree edges; no reuse across rows",
        {"g": 3, "n": 2, "boundary": [1.0, 1.5], "depth": 3, "samples": 8,
         "format": "csv"},
        ["compare", "--format", "csv"], _check_compare),
    Workload(
        "report-g2n2",
        "same layers as compare with heavy reuse: 336 of 4704 assemblies are distinct",
        {"g": 2, "n": 2, "boundary": [1.0, 1.5], "depth": 2, "samples": 8},
        ["report", "--metric", "arc"], _check_report),
    Workload(
        "verify-arcs-g1n6",
        "no holonomy at all: hexagon closed forms, gap constants and sampling",
        {"g": 1, "n": 6, "boundary": [0.5, 0.75, 1.0, 1.25, 1.5, 1.75],
         "depth": 2, "samples": 5000},
        ["verify-arcs", "--summary-only"], _check_verify_arcs),
)}
