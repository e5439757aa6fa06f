"""Acceptance suite: one test per release criterion, with pinned tolerances.

Each test prints a single pass line when it completes (visible under
``pytest -s`` or in verbose mode through the test name).  Criteria are
property- and cross-validation-based; sampling is deterministic from the
seeds pinned here, so the suite is reproducible bit for bit.

Run with::

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from teichspace.asymptotics import (
    _nielsen_factor,
    bmms_dilation,
    cusp_radius,
    cusp_truncation_constant,
    nielsen_k_infinity,
    nielsen_truncation_index,
)
from teichspace.coords import FNPoint, build_marking
from teichspace.curves import arc_length_formula, enumerate_arcs
from teichspace.harness import (
    ExperimentConfig,
    phi_experiment,
    sample_point,
    verify_arc_construction,
)
from teichspace.metrics import _log_brackets, arc_lower, thurston_lower
from teichspace.metrics import teich_interval_report
from teichspace.pants_trig import (
    DomainError,
    between_arc_constants,
    orthogeodesic_between,
    orthogeodesic_self,
    self_arc_bracket,
)
from teichspace.surface import (
    arc_length,
    boundary_word,
    curve_length,
    double,
    gamma_word,
    holonomy,
)


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def random_fn(m, rng, boundary=None):
    n = m.nboundary
    if boundary is None:
        boundary = rng.uniform(0.5, 2.5, n)
    return FNPoint(
        g=m.genus, n=n,
        lengths=np.exp(rng.uniform(math.log(0.5), math.log(4.0), m.ncurves)),
        twists=rng.uniform(-2.0, 2.0, m.ncurves),
        boundary=boundary)


def test_01_holonomy_trace_consistency():
    """200 random points per surface type; every cuff and boundary word
    reproduces its assigned length within 1e-12, in under 10 seconds."""
    start = time.time()
    rng = np.random.default_rng(101)
    for (g, n) in [(1, 1), (0, 3), (1, 2), (2, 1)]:
        m = build_marking(g, n)
        for _ in range(200):
            fn = random_fn(m, rng)
            h = holonomy(fn, m)
            for k in range(m.ncurves):
                assert abs(curve_length(h, gamma_word(m, k)) - fn.lengths[k]) < 1e-12
            for i in range(n):
                assert abs(curve_length(h, boundary_word(m, i)) - fn.boundary[i]) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0, f"trace consistency took {elapsed:.1f}s"
    report("01 holonomy-trace-consistency")


def test_02_formula_holonomy_cross_validation():
    """On 100 random pants, both hexagon closed forms agree with the
    doubled-geodesic arc length within 1e-12."""
    rng = np.random.default_rng(202)
    m = build_marking(0, 3)
    for _ in range(100):
        lam = rng.uniform(0.4, 3.0, 3)
        fn = FNPoint(g=0, n=3, lengths=[], twists=[], boundary=lam)
        d = double(fn, m)
        h = d.holonomy()
        for arc in m.arcs:
            if arc.kind == "between":
                i, j = arc.boundaries
                k = 3 - i - j
                want = orthogeodesic_between(lam[i], lam[j], lam[k])
            else:
                (i,) = arc.boundaries
                j, k = (x for x in range(3) if x != i)
                want = orthogeodesic_self(lam[i], lam[j], lam[k])
            assert abs(arc_length(d, arc, h) - want) < 1e-12
    report("02 formula-holonomy-cross-validation")


def test_03_arc_brackets_hold():
    """Exponential bracket for between-arcs and the corrected two-sided
    self-arc bracket hold on 10^4 random inputs with zero violations."""
    rng = np.random.default_rng(303)
    violations = 0
    for _ in range(10_000):
        li, lj, la = rng.uniform(0.1, 6.0, 3)
        lam = between_arc_constants([li, lj]).lam
        c = math.cosh(orthogeodesic_between(li, lj, la))
        e = math.exp(la / 2)
        if not (e / (2 * lam) <= c * (1 + 1e-12) and c <= lam * e * (1 + 1e-12)):
            violations += 1
    assert violations == 0
    for _ in range(10_000):
        li, la, ld = rng.uniform(0.1, 6.0, 3)
        gap = orthogeodesic_self(li, la, ld) - max(la, ld)
        bracket = self_arc_bracket(li)
        if not bracket.lo - 1e-10 <= gap <= bracket.hi + 1e-10:
            violations += 1
    assert violations == 0
    report("03 arc-brackets-zero-violations")


def test_04_maskit_sandwich_and_limit():
    """Log extremal-length brackets are nonempty for all sampled lengths and
    their width is log(pi/2) + l/2 down to l -> 0."""
    rng = np.random.default_rng(404)
    lo, hi = _log_brackets(rng.uniform(1e-3, 10.0, 2000).tolist(), 0.5)
    assert all(a < b for a, b in zip(lo, hi))
    small = (1e-1, 1e-2, 1e-3, 1e-6)
    lo, hi = _log_brackets(small, 0.5)
    widths = [b - a for a, b in zip(lo, hi)]
    for l, w in zip(small, widths):
        assert w == pytest.approx(math.log(math.pi / 2) + l / 2, rel=1e-9)
    assert widths[0] > widths[1] > widths[2] > widths[3] > math.log(math.pi / 2)
    assert widths[3] == pytest.approx(math.log(math.pi / 2), rel=1e-5)
    report("04 maskit-sandwich-and-limit")


def test_05_metric_ordering_reflexivity_monotonicity():
    """Arc estimate dominates the curve estimate, both vanish exactly on
    equal points, and both are monotone in the family depth 0..3."""
    cfg = ExperimentConfig(g=1, n=2, boundary=(1.0, 1.0), seed=20260809,
                           depth=2, samples=20)
    m = cfg.marking()
    x0 = sample_point(cfg, 0)
    assert thurston_lower(x0, x0, m, 2).value == 0.0
    assert arc_lower(x0, x0, m, 2).value == 0.0
    for i in range(20):
        x1, x2 = sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1)
        d_t = [thurston_lower(x1, x2, m, d).value for d in range(4)]
        d_a = [arc_lower(x1, x2, m, d).value for d in range(4)]
        for a, t in zip(d_a, d_t):
            assert a >= t >= 0.0
        assert all(b >= a for a, b in zip(d_t, d_t[1:]))
        assert all(b >= a for a, b in zip(d_a, d_a[1:]))
    report("05 metric-ordering-reflexivity-monotonicity")


def test_06_constructive_arc_bound():
    """The certified constant passes the neighbourhood-curve check on every
    arc: 100 pants-surface pairs (closed forms exact there) and 120 pairs
    on the two-holed torus.  Any failure is a release blocker and the
    report carries a full replay witness."""
    rng = np.random.default_rng(606)
    m3 = build_marking(0, 3)
    for _ in range(100):
        lam = rng.uniform(0.5, 2.5, 3)
        x = FNPoint(g=0, n=3, lengths=[], twists=[], boundary=lam)
        rep = verify_arc_construction(x, x, m3, 0)
        assert rep["all_passed"], json.dumps(rep)
        for row in rep["arcs"]:
            assert row["ratio"] == 1.0
    cfg = ExperimentConfig(g=1, n=2, boundary=(1.0, 1.0), seed=20260809,
                           depth=2, samples=120)
    m = cfg.marking()
    checked = 0
    for i in range(cfg.samples):
        x1, x2 = sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1)
        rep = verify_arc_construction(x1, x2, m, cfg.depth)
        assert rep["all_passed"], json.dumps(rep)
        checked += rep["checked"]
    assert checked >= 100, "sampling produced too few non-vacuous checks"
    report("06 constructive-arc-bound")


def test_07_teich_interval_sanity():
    """The quasiconformal interval contains 0 at equal points and its
    width obeys the simple-curve defect plus twice the witness bracket
    log-width."""
    rng = np.random.default_rng(707)
    m = build_marking(1, 2)
    for _ in range(100):
        x = random_fn(m, rng, boundary=np.array([1.0, 1.0]))
        rep = teich_interval_report(x, x, m, 1)
        iv = rep.interval
        assert iv.lo <= 0.0 <= iv.hi
        bound = math.log(m.nboundary + 2) + 2 * rep.witness_max_log_width
        assert iv.hi - iv.lo <= bound + 1e-12
    report("07 teich-interval-sanity")


def test_08_asymptotic_constants():
    """Truncation constant: the stated grid point 1e-2 violates the
    validity condition 1 - 2 n pi sqrt(2) eps^(1/4) > 0 for every n >= 1
    and is rejected; on the valid part of the grid the constant strictly
    decreases toward 1.  Cusp radius at horocycle length 1 is exactly
    exp(-2 pi); the pants-straightening dilation is monotone with limit 1."""
    with pytest.raises(DomainError):
        cusp_truncation_constant(1e-2, 1)
    vals = [cusp_truncation_constant(e, 1) for e in (1e-4, 1e-8)]
    assert vals[0] > vals[1] > 1.0
    tail = [cusp_truncation_constant(e, 1) for e in (1e-8, 1e-12, 1e-16, 1e-20)]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert tail[-1] == pytest.approx(1.0, abs=3e-3)

    assert cusp_radius(1.0) == math.exp(-2 * math.pi)

    grid = np.linspace(0.01, 0.49, 30)
    dil = [bmms_dilation([e]) for e in grid]
    assert all(b > a for a, b in zip(dil, dil[1:]))
    assert bmms_dilation([1e-8]) == pytest.approx(1.0, abs=1e-12)
    report("08 asymptotic-constants")


def test_09_nielsen_infinite_product():
    """Truncations at the certified tail index and at four times that
    index agree within 1e-12; the product is 1 at 0 and strictly
    decreasing on a 20-point grid."""
    for lam in (0.1, 1.0, 3.0):
        idx = nielsen_truncation_index(lam)
        a = nielsen_k_infinity(lam)
        b = math.prod(_nielsen_factor(lam, i) for i in range(1, 4 * idx + 1))
        assert abs(a - b) < 1e-12
    assert nielsen_k_infinity(0.0) == 1.0
    grid = np.linspace(0.0, 5.0, 20)
    vals = [nielsen_k_infinity(l) for l in grid]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    report("09 nielsen-infinite-product")


def test_10_phi_experiment_bounded():
    """21-point twist ray on the two-holed torus with boundary (1, 1) at
    depth 3: the difference between bordered and punctured curve-ratio
    estimates stays bounded along the ray (saturating increments, maximum
    below the configured ceiling) and the run completes in under 60 s.

    No closed-form constant is available for this difference, so the
    ceiling is a configured regression guard: 3.0, roughly 1.35x the
    saturation value 2.21 observed at this pinned seed.
    """
    start = time.time()
    cfg = ExperimentConfig(g=1, n=2, boundary=(1.0, 1.0), seed=20260809,
                           depth=3, samples=1)
    m = cfg.marking()
    x = sample_point(cfg, 0)
    ceiling = 3.0
    rep = phi_experiment(x, m, curve_index=1, step=0.5, count=21,
                         depth=3, ceiling=ceiling)
    elapsed = time.time() - start
    assert rep["max_difference"] <= ceiling
    assert rep["max_difference"] == max(r["difference"] for r in rep["rows"])
    assert rep["rows"][0]["difference"] == 0.0
    # Boundedness evidence: the per-step growth of the difference shrinks
    # along the ray instead of diverging.
    diffs = [r["difference"] for r in rep["rows"]]
    increments = [b - a for a, b in zip(diffs[1:], diffs[2:])]
    assert increments[-1] < increments[0]
    assert increments[-1] < 0.01
    assert elapsed < 60.0, f"ray experiment took {elapsed:.1f}s"
    report("10 phi-experiment-bounded")


def test_11_determinism(tmp_path):
    """Two runs of the same experiment with the same seed produce
    byte-identical report files, for both output formats."""
    cfg = ExperimentConfig(g=1, n=2, boundary=(1.0, 1.0), seed=31337,
                           depth=1, samples=3, format="csv")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(cfg.to_json())
    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "teichspace", "compare",
                        "--config", str(cfg_path), "--out", str(out)],
                       check=True, capture_output=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "teichspace", "verify-arcs",
                        "--config", str(cfg_path), "--out", str(out)],
                       check=True, capture_output=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report("11 determinism")
