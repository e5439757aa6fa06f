"""Tests for the experiment harness and the CLI."""

import hashlib
import json
import math
import random
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

from teichspace import cli, harness, metrics, surface
from teichspace.coords import FNPoint, build_marking, phi_gamma
from teichspace.harness import (
    COMPARE_COLUMNS,
    ExperimentConfig,
    HarnessCheckError,
    almost_isometry_report,
    compare_metrics,
    csv_line,
    phi_experiment,
    sample_point,
    sample_points,
    verify_arc_construction,
    verify_arcs,
)
from teichspace.pants_trig import (
    DomainError,
    gap_constants,
    orthogeodesic_between,
    orthogeodesic_self,
)


def cfg_12(**kw):
    base = dict(g=1, n=2, boundary=(1.0, 1.0), seed=7, depth=2, samples=4)
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_json_roundtrip(self):
        cfg = cfg_12(format="csv", out="report.csv")
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg

    def test_rejects_unknown_keys(self):
        text = json.dumps({"g": 1, "n": 2, "boundary": [1, 1], "sample": 50,
                           "seeed": 3})
        with pytest.raises(DomainError, match="unknown config keys: sample, seeed"):
            ExperimentConfig.from_json(text)

    def test_rejects_missing_required_key(self):
        with pytest.raises(DomainError, match="missing config key: g"):
            ExperimentConfig.from_json('{"n": 2, "boundary": [1, 1]}')

    @pytest.mark.parametrize("key,value", [("seed", "3"), ("depth", 1.5),
                                           ("g", True)])
    def test_rejects_non_integer_fields(self, key, value):
        d = {"g": 1, "n": 2, "boundary": [1, 1], key: value}
        with pytest.raises(DomainError, match=f"config key {key} must be an integer"):
            ExperimentConfig.from_json(json.dumps(d))

    @pytest.mark.parametrize("key,value,match", [
        ("length_range", [0.5, math.inf], "length_range must be two finite"),
        ("twist_range", [math.nan, math.nan], "twist_range must be two finite"),
        ("length_range", [1], "length_range must be two finite"),
        # Each end is finite, but hi - lo overflows and no twist could be drawn.
        ("twist_range", [-1.7e308, 1.7e308], "twist range width must be finite"),
        ("boundary", 5, "config key boundary must be a list of numbers"),
        # Passed on to open(), a bool or int would write to a file descriptor.
        ("out", True, "config key out must be a string"),
        ("out", 7, "config key out must be a string"),
        ("format", ["csv"], "config key format must be a string"),
    ])
    def test_rejects_malformed_ranges(self, key, value, match):
        d = {"g": 1, "n": 2, "boundary": [1, 1], key: value}
        with pytest.raises(DomainError, match=match):
            ExperimentConfig.from_json(json.dumps(d))

    def test_rejects_non_object(self):
        with pytest.raises(DomainError, match="config must be a JSON object"):
            ExperimentConfig.from_json("[1, 2]")

    def test_partial_config_takes_defaults(self):
        cfg = ExperimentConfig.from_json('{"g": 1, "n": 2, "boundary": [1, 1]}')
        assert cfg == ExperimentConfig(g=1, n=2, boundary=(1.0, 1.0))

    def test_config_echo_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"g": 1, "n": 2, "boundary": [1, 1]}')
        args = SimpleNamespace(config=str(path), seed=3, depth=1,
                               format="csv", out="rows.csv")
        cfg = cli._load_config(args)
        assert cfg.out == "rows.csv"
        assert json.dumps(cli._config_echo(cfg)) == (
            '{"g": 1, "n": 2, "boundary": [1.0, 1.0], "length_range": '
            '[0.5, 4.0], "twist_range": [-2.0, 2.0], "seed": 3, "depth": 1, '
            '"samples": 10, "out": null, "format": "csv"}')

    def test_validates_boundary_count(self):
        with pytest.raises(DomainError):
            ExperimentConfig(g=1, n=2, boundary=(1.0,))

    def test_validates_ranges(self):
        with pytest.raises(DomainError):
            cfg_12(length_range=(0.0, 1.0))
        with pytest.raises(DomainError):
            cfg_12(samples=0)
        with pytest.raises(DomainError):
            cfg_12(format="xml")


def reference_sample_point(cfg, index):
    """The sampler written out with a fresh ``random.Random`` per point."""
    m64 = 2 ** 64 - 1
    if not 0 <= index <= m64:
        raise DomainError(f"sample index must lie in [0, 2**64), got {index}")
    draw = random.Random((cfg.seed & m64) << 64 | index).random
    ncurves = 3 * cfg.g - 3 + cfg.n
    lo = math.log(cfg.length_range[0])
    width = math.log(cfg.length_range[1]) - lo
    lengths = [math.exp(lo + width * draw()) for _ in range(ncurves)]
    lo, hi = cfg.twist_range
    width = hi - lo
    twists = [lo + width * draw() for _ in range(ncurves)]
    return FNPoint(g=cfg.g, n=cfg.n, lengths=lengths, twists=twists,
                   boundary=cfg.boundary)


def point_hex(x):
    return [v.hex() for v in x.lengths + x.twists + x.boundary]


class TestSamplePoints:
    LAST = 2 ** 64 - 1
    ORDERS = {
        "ascending": [0, 1, 2, 3, 4, 5, LAST],
        "descending": [LAST, 5, 4, 3, 2, 1, 0],
        "repeated": [3, 3, 0, 3, LAST, 0, LAST, 3],
    }

    @pytest.mark.parametrize("g,n", [(1, 6), (2, 2), (0, 4)])
    @pytest.mark.parametrize("seed", [0, 7, -1, 2 ** 64 - 1])
    @pytest.mark.parametrize("order", list(ORDERS))
    def test_matches_a_fresh_generator_per_point(self, g, n, seed, order):
        cfg = ExperimentConfig(g=g, n=n, boundary=(1.0,) * n, seed=seed,
                               length_range=(0.3, 5.0), twist_range=(-3.0, 1.0))
        indices = self.ORDERS[order]
        points = list(sample_points(cfg, indices))
        assert len(points) == len(indices)
        for index, x in zip(indices, points):
            assert point_hex(x) == point_hex(reference_sample_point(cfg, index))
            assert point_hex(x) == point_hex(sample_point(cfg, index))

    @pytest.mark.parametrize("bad", [-1, 2 ** 64])
    def test_bad_index_raises_after_earlier_points(self, bad):
        cfg = cfg_12()
        points = sample_points(cfg, [0, 1, bad, 2])
        assert point_hex(next(points)) == point_hex(reference_sample_point(cfg, 0))
        assert point_hex(next(points)) == point_hex(reference_sample_point(cfg, 1))
        with pytest.raises(DomainError, match=r"must lie in \[0, 2\*\*64\), got "
                           + re.escape(str(bad))):
            next(points)


class TestSamplePoint:
    def test_deterministic(self):
        cfg = cfg_12()
        assert sample_point(cfg, 3) == sample_point(cfg, 3)

    def test_distinct_indices_differ(self):
        cfg = cfg_12()
        assert sample_point(cfg, 0) != sample_point(cfg, 1)

    def test_respects_ranges(self):
        cfg = cfg_12(length_range=(0.7, 2.0), twist_range=(-0.5, 0.5),
                     samples=20)
        for i in range(20):
            x = sample_point(cfg, i)
            assert all(0.7 <= l <= 2.0 for l in x.lengths)
            assert all(-0.5 <= t <= 0.5 for t in x.twists)
            assert x.boundary == cfg.boundary

    def test_seed_changes_points(self):
        assert sample_point(cfg_12(seed=1), 0) != sample_point(cfg_12(seed=2), 0)

    # SHA-256 of the space-joined float.hex of the lengths, then the twists,
    # of every point at seeds 0, 7, -1, 2**64 - 1 and indices 0, 1, 2**64 - 1,
    # with the default ranges and boundary 1.0.
    GOLDEN = {
        (1, 6): "5abc73d425c5a4cfed5b8e4381bc10c151d46636809ea31d2a5cc4a886fb3cc8",
        (2, 2): "d72559de0868eef8825907b9beed9690308584b112bf2b158321dfbb0fc242c4",
        (0, 4): "ae7761364eb49ba8177520d83788a34818ffb48005b40469b6b1317a55b8b106",
    }

    @pytest.mark.parametrize("g,n", list(GOLDEN))
    def test_golden_stream(self, g, n):
        hexes = []
        for seed in (0, 7, -1, 2 ** 64 - 1):
            cfg = ExperimentConfig(g=g, n=n, boundary=(1.0,) * n, seed=seed)
            for index in (0, 1, 2 ** 64 - 1):
                x = sample_point(cfg, index)
                hexes += [v.hex() for v in x.lengths + x.twists]
        digest = hashlib.sha256(" ".join(hexes).encode()).hexdigest()
        assert digest == self.GOLDEN[g, n]

    def test_golden_point(self):
        x = sample_point(ExperimentConfig(g=2, n=2, boundary=(1.0, 1.0), seed=7), 1)
        assert [v.hex() for v in x.lengths] == [
            "0x1.9c73b0e55a071p+1", "0x1.e783f24d06919p-1", "0x1.515651996f421p+1",
            "0x1.3e941f9065274p+0", "0x1.9049a06e3535ep-1"]
        assert [v.hex() for v in x.twists] == [
            "-0x1.b62312fc83d6ep+0", "0x1.efc8246d68c40p-1", "-0x1.faf0e85db4e80p+0",
            "0x1.1a9fd79db3056p+0", "0x1.19fbc496ce29ap+0"]

    def test_seed_taken_mod_2_to_64(self):
        cfg = cfg_12(seed=-1)
        assert sample_point(cfg, 5) == sample_point(cfg_12(seed=2 ** 64 - 1), 5)

    def test_negative_index_raises(self):
        with pytest.raises(DomainError, match=r"must lie in \[0, 2\*\*64\)"):
            sample_point(cfg_12(), -1)

    def test_index_past_64_bits_raises(self):
        # From 2**64 on, the key (seed << 64 | index) would equal that of
        # another (seed, index) pair.
        with pytest.raises(DomainError, match=r"must lie in \[0, 2\*\*64\)"):
            sample_point(cfg_12(), 2 ** 64)


class TestVerifyArcConstruction:
    def test_equal_points_vacuous(self):
        cfg = cfg_12()
        m = cfg.marking()
        x = sample_point(cfg, 0)
        rep = verify_arc_construction(x, x, m, 2)
        assert rep["checked"] == 0
        assert rep["vacuous"] == len(m.arcs)
        assert rep["all_passed"]

    def test_random_pairs_pass(self):
        cfg = cfg_12(samples=30)
        m = cfg.marking()
        for i in range(30):
            x1, x2 = sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1)
            rep = verify_arc_construction(x1, x2, m, 2)
            assert rep["all_passed"], rep

    def test_report_carries_witnesses(self):
        cfg = cfg_12()
        m = cfg.marking()
        rep = verify_arc_construction(sample_point(cfg, 0),
                                      sample_point(cfg, 1), m, 2)
        assert FNPoint.from_json(json.dumps(rep["x1"]))
        assert rep["constant"] == pytest.approx(
            min(rep["constant_between"], rep["constant_self"], 1.0))

    def test_boundary_mismatch_rejected(self):
        cfg = cfg_12()
        m = cfg.marking()
        x = sample_point(cfg, 0)
        y = FNPoint(g=1, n=2, lengths=x.lengths, twists=x.twists,
                    boundary=(1.0, 2.0))
        with pytest.raises(DomainError):
            verify_arc_construction(x, y, m, 1)


def verify_arcs_reference(pairs, m):
    """The arc check with each arc length through its checked entry point,
    every arc of ``x1`` before those of ``x2``, and each neighbourhood
    curve named through ``m.slot_assignment`` and measured through
    ``m.slot_length``, independently of ``m.arc_forms``."""
    constants = gap_constants(pairs[0][0].boundary)
    for x1, x2 in pairs:
        try:
            lens1, lens2 = ([(orthogeodesic_between if arc.kind == "between"
                              else orthogeodesic_self)(
                                 *(m.slot_length(x, (arc.pants, s))
                                   for s in arc.slots + arc.neighbour_slots))
                             for arc in m.arcs]
                            for x in (x1, x2))
            rows = []
            for arc, l1, l2 in zip(m.arcs, lens1, lens2):
                ratio = l2 / l1
                row = {"arc": arc.label(), "l1": l1, "l2": l2, "ratio": ratio}
                if ratio <= 1.0:
                    row["checked"] = False
                    rows.append(row)
                    continue
                curves = []
                for s in arc.neighbour_slots:
                    kind, idx = m.slot_assignment()[(arc.pants, s)]
                    c1 = m.slot_length(x1, (arc.pants, s))
                    c2 = m.slot_length(x2, (arc.pants, s))
                    curves.append({"curve": (f"gamma{idx}" if kind == "edge"
                                             else f"beta{idx}(boundary)"),
                                   "l1": c1, "l2": c2, "ratio": c2 / c1,
                                   "essential": kind == "edge"})
                best = max(c["ratio"] for c in curves if c["essential"])
                bound = constants.c * ratio
                row.update({"checked": True, "curves": curves,
                            "excluded_boundary_parallel":
                                sum(not c["essential"] for c in curves),
                            "max_curve_ratio": best, "bound": bound,
                            "passed": best >= bound})
                rows.append(row)
        except DomainError as err:
            raise err.with_witness({"x1": x1.to_dict(), "x2": x2.to_dict()}) from err
        checked = sum(r["checked"] for r in rows)
        passed = sum(r["checked"] and r["passed"] for r in rows)
        yield {"x1": x1.to_dict(), "x2": x2.to_dict(), "constant": constants.c,
               "constant_between": constants.c_between,
               "constant_self": constants.c_self, "gap": constants.gap,
               "arcs": rows, "checked": checked, "passed": passed,
               "vacuous": len(rows) - checked, "all_passed": passed == checked}


class TestVerifyArcs:
    # (0, 3): every neighbourhood curve is boundary-parallel; (1, 1): the
    # self-arc reads the handle loop twice; (0, 4) and (3, 2): chain cuffs.
    @pytest.mark.parametrize("g,n,boundary", [
        (1, 6, (0.5, 0.75, 1.0, 1.25, 1.5, 1.75)), (2, 2, (1.0, 1.5)),
        (0, 3, (0.5, 1.0, 2.0)), (1, 1, (0.8,)), (0, 4, (0.5, 1.0, 1.5, 2.0)),
        (3, 2, (1.0, 1.5))])
    def test_reports_match_arc_by_arc_reference(self, g, n, boundary):
        cfg = ExperimentConfig(g=g, n=n, boundary=boundary, seed=11)
        m = cfg.marking()
        pairs = [(sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1))
                 for i in range(50)]
        reports = list(verify_arcs(pairs, m))
        assert reports == list(verify_arcs_reference(pairs, m))
        # The pants alone has no cuff to vary, so no arc changes length.
        assert any(r["checked"] for r in reports) == (m.ncurves > 0)

    def test_error_is_the_first_failing_arcs(self):
        # A cuff of 1500 fails the self-arc of pants 4 (the fourth arc) at
        # x1 and that of pants 1 (the first arc) at x2: x1 is evaluated
        # first, so its failing arc is named.
        m = build_marking(1, 6)
        x1, x2 = (FNPoint(g=1, n=6, lengths=[1500.0 if k == bad else 1.0
                                             for k in range(6)],
                          twists=[0.0] * 6,
                          boundary=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75))
                  for bad in (5, 1))
        with pytest.raises(DomainError) as ref:
            next(verify_arcs_reference([(x1, x2)], m))
        with pytest.raises(DomainError) as got:
            next(verify_arcs([(x1, x2)], m))
        assert str(got.value) == str(ref.value)
        assert str(got.value).startswith(
            "orthogeodesic_self(1.25, 1.0, 1500.0) leaves double range")
        assert got.value.witness == {"x1": x1.to_dict(), "x2": x2.to_dict()}

    @pytest.mark.parametrize("g,n,boundary", [
        (1, 6, (0.5, 0.75, 1.0, 1.25, 1.5, 1.75)), (2, 2, (1.0, 1.5))])
    def test_batch_equals_one_pair_calls(self, g, n, boundary):
        cfg = ExperimentConfig(g=g, n=n, boundary=boundary, seed=3)
        m = cfg.marking()
        pairs = [(sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1))
                 for i in range(6)]
        batch = list(verify_arcs(iter(pairs), m))
        assert batch == [verify_arc_construction(x1, x2, m, 2)
                         for x1, x2 in pairs]
        assert any(r["checked"] for r in batch)

    def test_cli_computes_gap_constants_once(self, tmp_path, monkeypatch):
        calls = []
        gap_constants = harness.gap_constants
        monkeypatch.setattr(harness, "gap_constants",
                            lambda b: calls.append(b) or gap_constants(b))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_12(samples=5).to_json())
        cli.main(["verify-arcs", "--config", str(cfg_path),
                  "--out", str(tmp_path / "arcs.json")])
        assert calls == [(1.0, 1.0)]

    def test_summary_is_full_payload_without_reports(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_12(samples=5).to_json())
        full, summary = tmp_path / "full.json", tmp_path / "summary.json"
        cli.main(["verify-arcs", "--config", str(cfg_path), "--out", str(full)])
        cli.main(["verify-arcs", "--config", str(cfg_path), "--summary-only",
                  "--out", str(summary)])
        payload = json.loads(full.read_text())
        assert len(payload.pop("reports")) == 5
        assert json.loads(summary.read_text()) == payload

    # A constant of 1.6, which GapConstants itself rejects (it needs c <= 1),
    # makes 145 of these 300 pairs fail.
    FAILING = SimpleNamespace(c=1.6, c_between=1.6, c_self=1.6, gap=-0.47)

    def failing_pairs(self, monkeypatch):
        monkeypatch.setattr(harness, "gap_constants", lambda b: self.FAILING)
        cfg = ExperimentConfig(g=1, n=6, boundary=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75),
                               seed=1, samples=300)
        points = [sample_point(cfg, i) for i in range(2 * cfg.samples)]
        return cfg, list(zip(points[::2], points[1::2]))

    def test_failing_pairs_through_cli(self, tmp_path, monkeypatch):
        cfg, pairs = self.failing_pairs(monkeypatch)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        full, summary = tmp_path / "full.json", tmp_path / "summary.json"
        cli.main(["verify-arcs", "--config", str(cfg_path), "--out", str(full)])
        cli.main(["verify-arcs", "--config", str(cfg_path), "--summary-only",
                  "--out", str(summary)])
        payload = json.loads(full.read_text())
        reports = payload.pop("reports")
        assert json.loads(summary.read_text()) == payload
        failing = [r for r in verify_arcs(pairs, cfg.marking())
                   if not r["all_passed"]]
        assert len(failing) == 145
        assert payload["failures"] == failing
        assert failing == [r for r in reports if not r["all_passed"]]
        assert payload["pass_rate"] < 1.0

    def test_summary_only_yields_compact_passing_pairs(self, monkeypatch):
        cfg, pairs = self.failing_pairs(monkeypatch)
        m = cfg.marking()
        full = list(verify_arcs(pairs, m))
        compact = list(verify_arcs(pairs, m, summary_only=True))
        assert len(compact) == len(full)
        for f, c in zip(full, compact):
            if f["all_passed"]:
                assert c == {"checked": f["checked"], "passed": f["passed"],
                             "all_passed": True}
            else:
                assert c == f

    def test_boundary_mismatch_mid_batch_raises(self):
        cfg = cfg_12()
        m = cfg.marking()
        x = sample_point(cfg, 0)
        y = FNPoint(g=1, n=2, lengths=x.lengths, twists=x.twists,
                    boundary=(1.0, 2.0))
        reports = verify_arcs([(x, x), (y, y), (x, x)], m)
        assert next(reports)["vacuous"] == len(m.arcs)
        with pytest.raises(DomainError, match="equal boundary lengths"):
            next(reports)

    def test_zero_boundary_raises_before_any_report(self):
        cfg = cfg_12()
        x = phi_gamma(sample_point(cfg, 0))
        reports = verify_arcs([(x, x), (x, x)], cfg.marking())
        with pytest.raises(DomainError, match="positive boundary lengths"):
            next(reports)


    def test_pants_alone_checks_no_arc(self):
        cfg = ExperimentConfig(g=0, n=3, boundary=(0.5, 1.0, 2.0), seed=2,
                               samples=20)
        m = cfg.marking()
        pairs = [(sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1))
                 for i in range(20)]
        reports = list(verify_arcs(pairs, m))
        assert len(reports) == 20
        for rep in reports:
            assert rep["checked"] == rep["passed"] == 0
            assert rep["vacuous"] == len(m.arcs)
            assert all(row["ratio"] == 1.0 and row["checked"] is False
                       for row in rep["arcs"])

    def test_boundary_parallel_curve_is_listed_and_excluded(self):
        cfg = ExperimentConfig(g=1, n=6, boundary=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75),
                               seed=3)
        m = cfg.marking()
        pairs = [(sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1))
                 for i in range(20)]
        rows = [row for rep in verify_arcs(pairs, m) for row in rep["arcs"]
                if row["checked"]]
        parallel = []
        for row in rows:
            excluded = [c for c in row["curves"] if not c["essential"]]
            assert row["excluded_boundary_parallel"] == len(excluded) <= 1
            assert row["max_curve_ratio"] == max(
                c["ratio"] for c in row["curves"] if c["essential"])
            parallel += excluded
        assert parallel and len(parallel) < len(rows)
        for c in parallel:
            assert c["curve"].startswith("beta")
            assert c["curve"].endswith("(boundary)")
            assert c["l1"] == c["l2"]


class TestCompareMetrics:
    def test_equal_points_all_zero(self):
        cfg = cfg_12()
        m = cfg.marking()
        x = sample_point(cfg, 0)
        row = compare_metrics(x, x, m, 2)
        assert row["d_th"] == 0.0 and row["d_a"] == 0.0
        assert row["teich_lo"] <= 0.0 <= row["teich_hi"]

    def test_ordering_enforced(self):
        cfg = cfg_12()
        m = cfg.marking()
        row = compare_metrics(sample_point(cfg, 0), sample_point(cfg, 1), m, 2)
        assert row["d_a"] >= row["d_th"] >= 0.0
        assert row["d_a_minus_d_th"] >= 0.0

    def test_observed_gap_below_certified_gap(self):
        cfg = cfg_12(samples=10)
        m = cfg.marking()
        for i in range(10):
            row = compare_metrics(sample_point(cfg, 2 * i),
                                  sample_point(cfg, 2 * i + 1), m, 2)
            assert row["d_a_minus_d_th"] <= row["gap_constant"]

    def test_long_cuffs_deep_family_give_finite_teich_interval(self):
        # Twisted duals of length ~ 20 * 40 once overflowed exp(l).
        m = build_marking(1, 1)
        x1 = FNPoint(g=1, n=1, lengths=[40.0], twists=[0.0], boundary=[1.0])
        x2 = FNPoint(g=1, n=1, lengths=[39.0], twists=[0.5], boundary=[1.0])
        iv = metrics.teich_interval_report(x1, x2, m, 20).interval
        row = compare_metrics(x1, x2, m, 20)
        for lo, hi in ((iv.lo, iv.hi), (row["teich_lo"], row["teich_hi"])):
            assert math.isfinite(lo) and math.isfinite(hi) and lo <= hi

    def test_punctured_pair_raises(self):
        cfg = cfg_12()
        x1, x2 = (phi_gamma(sample_point(cfg, i)) for i in (0, 1))
        with pytest.raises(DomainError, match="strictly positive boundary"):
            compare_metrics(x1, x2, cfg.marking(), 1)

    def test_csv_line_fixed_columns(self):
        cfg = cfg_12()
        m = cfg.marking()
        row = compare_metrics(sample_point(cfg, 0), sample_point(cfg, 1), m, 1)
        line = csv_line(row, COMPARE_COLUMNS)
        assert len(line.split(",")) == len(COMPARE_COLUMNS)
        # floats carry 17 significant digits
        assert line.split(",")[0] == format(row["d_th"], ".17g")

    def test_report_values_roundtrip_bit_exactly(self):
        # 17 significant digits (CSV) and repr-based JSON both reproduce
        # the doubles exactly on parsing.
        cfg = cfg_12()
        m = cfg.marking()
        row = compare_metrics(sample_point(cfg, 0), sample_point(cfg, 1), m, 1)
        cells = csv_line(row, COMPARE_COLUMNS).split(",")
        for col, cell in zip(COMPARE_COLUMNS, cells):
            if isinstance(row[col], float):
                assert float(cell) == row[col]
        parsed = json.loads(json.dumps(row))
        for col in COMPARE_COLUMNS:
            assert parsed[col] == row[col]


class TestPhiExperiment:
    def test_first_row_zero(self):
        cfg = cfg_12()
        m = cfg.marking()
        rep = phi_experiment(sample_point(cfg, 0), m, curve_index=1,
                             step=0.5, count=4, depth=1, ceiling=None)
        first = rep["rows"][0]
        assert first["difference"] == 0.0
        assert first["d_th_bordered"] == 0.0

    def test_difference_bounded_and_reported(self):
        cfg = cfg_12()
        m = cfg.marking()
        rep = phi_experiment(sample_point(cfg, 0), m, curve_index=1,
                             step=0.5, count=6, depth=2, ceiling=None)
        assert rep["max_difference"] == max(r["difference"] for r in rep["rows"])
        assert all(math.isfinite(r["teich_diff_hi"]) for r in rep["rows"])

    def test_ceiling_enforced(self):
        cfg = cfg_12()
        m = cfg.marking()
        with pytest.raises(HarnessCheckError):
            phi_experiment(sample_point(cfg, 0), m, curve_index=1, step=0.5,
                           count=6, depth=2, ceiling=1e-6)

    def test_rejects_punctured_start(self):
        cfg = cfg_12()
        m = cfg.marking()
        x = sample_point(cfg, 0)
        px = FNPoint(g=1, n=2, lengths=x.lengths, twists=x.twists,
                     boundary=(0.0, 0.0))
        with pytest.raises(DomainError):
            phi_experiment(px, m, curve_index=0, step=0.5, count=11, depth=1,
                           ceiling=None)


class TestAlmostIsometryReport:
    def test_repeated_sample_zero_distortion(self):
        cfg = cfg_12()
        m = cfg.marking()
        x = sample_point(cfg, 0)
        rep = almost_isometry_report([x, x], m, 1, metric="arc")
        assert rep["b_bound"] == 0.0
        assert rep["a_bound"] == 0.0
        assert rep["worst_pair"] == [0, 1]

    def test_finite_on_samples(self):
        cfg = cfg_12(samples=4)
        m = cfg.marking()
        samples = [sample_point(cfg, i) for i in range(4)]
        rep = almost_isometry_report(samples, m, 1, metric="arc")
        assert rep["pairs"] == 12
        assert math.isfinite(rep["b_bound"]) and rep["b_bound"] >= 0

    def test_metric_selector(self):
        cfg = cfg_12()
        m = cfg.marking()
        samples = [sample_point(cfg, i) for i in range(2)]
        arc = almost_isometry_report(samples, m, 1, metric="arc")
        thu = almost_isometry_report(samples, m, 1, metric="thurston")
        assert arc["metric"] == "arc" and thu["metric"] == "thurston"
        with pytest.raises(DomainError):
            almost_isometry_report(samples, m, 1, metric="extremal")


class TestAssemblyCount:
    """Length tables are closed forms: compare rows, reports and the
    phi experiment assemble no holonomy at all."""

    @pytest.fixture(autouse=True)
    def no_assembly(self, monkeypatch):
        def refuse(fn, m):
            raise AssertionError("a length table assembled a holonomy")

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "teichspace"
                    and getattr(module, "holonomy", None) is surface.holonomy):
                monkeypatch.setattr(module, "holonomy", refuse)

    def test_compare_row(self):
        cfg = ExperimentConfig(g=2, n=2, boundary=(1.0, 1.5), seed=3, depth=2,
                               samples=1)
        compare_metrics(sample_point(cfg, 0), sample_point(cfg, 1),
                        cfg.marking(), 2)

    @pytest.mark.parametrize("metric", ["arc", "thurston"])
    def test_report(self, metric):
        cfg = cfg_12(samples=3)
        samples = [sample_point(cfg, i) for i in range(cfg.samples)]
        almost_isometry_report(samples, cfg.marking(), cfg.depth, metric=metric)

    def test_phi_experiment(self):
        cfg = cfg_12()
        phi_experiment(sample_point(cfg, 0), cfg.marking(), curve_index=0,
                       step=0.5, count=3, depth=1, ceiling=None)


class TestReplayWitness:
    def test_overflow_names_point_and_depth(self):
        m = build_marking(2, 2)
        x = FNPoint(g=2, n=2, lengths=[1.0] * 5, twists=[2000.0] * 5,
                    boundary=[1.0, 1.5])
        y = sample_point(ExperimentConfig(g=2, n=2, boundary=(1.0, 1.5)), 0)
        with pytest.raises(DomainError) as err:
            compare_metrics(y, x, m, 1)
        witness = {"x": json.loads(x.to_json()), "depth": 1}
        assert err.value.witness == witness
        assert str(err.value).endswith("\nwitness: " + json.dumps(witness))
        assert "is not finite in double precision" in str(err.value)

    def test_failed_ordering_check_carries_witness(self):
        # A (1,1) pair on which the family estimate d_th is negative; the
        # check stops the row and names both points and both estimates.
        x1 = FNPoint(g=1, n=1, lengths=[3.943768666190351],
                     twists=[-1.6463440623860075], boundary=[1.0])
        x2 = FNPoint(g=1, n=1, lengths=[3.1718232642179864],
                     twists=[-1.372480618933241], boundary=[1.0])
        with pytest.raises(HarnessCheckError) as err:
            compare_metrics(x1, x2, build_marking(1, 1), 2)
        witness = {
            "x1": {"g": 1, "n": 1, "lengths": [3.943768666190351],
                   "twists": [-1.6463440623860075], "boundary": [1.0]},
            "x2": {"g": 1, "n": 1, "lengths": [3.1718232642179864],
                   "twists": [-1.372480618933241], "boundary": [1.0]},
            "depth": 2, "d_th": -0.06692330445267751, "d_a": 0.0,
            "d_th_witness": "mu0", "d_a_witness": "beta0"}
        assert err.value.witness == witness
        assert str(err.value) == (
            "curve-ratio estimate negative: family missed its witness\n"
            "witness: " + json.dumps(witness))


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "teichspace", *args],
                              capture_output=True, text=True, check=True)

    def test_constants_subcommand(self, tmp_path):
        out = tmp_path / "constants.json"
        self.run_cli("constants", "--boundary", "1.0,1.0",
                     "--eps", "1e-4", "--cusps", "1", "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["comparison"]["gap"] > 0
        assert payload["cusp_radius"] == pytest.approx(math.exp(-2 * math.pi / 1e-4))

    def test_constants_notes_bmms_dilation_out_of_range(self, tmp_path):
        out = tmp_path / "constants.json"
        cli.main(["constants", "--boundary", "1.0", "--eps", "0.1",
                  "--cusps", "40000", "--out", str(out)])
        payload = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert payload["bmms_dilation"] is None
        assert payload["bmms_dilation_note"] == (
            "bmms_dilation leaves double range after 35843 factors")

    @pytest.mark.parametrize("boundary,named", [
        ("700,1.0", "between_arc_constants((700.0, 1.0))"),
        ("2e-154", "between_arc_constants((2e-154,))"),
    ])
    def test_constants_names_boundary_out_of_range(self, boundary, named):
        with pytest.raises(DomainError, match=re.escape(named)):
            cli.main(["constants", "--boundary", boundary])

    @pytest.mark.parametrize("argv,message", [
        (["constants", "--boundary", "1.0", "--eps", "nan"], "--eps must be finite"),
        (["constants", "--boundary", "1.0", "--eps", "inf"], "--eps must be finite"),
        (["constants", "--boundary", "1.0", "--cusps", "0"],
         "--cusps must be at least 1"),
        (["phi-experiment", "--ceiling", "nan"], "ceiling must be finite"),
        (["phi-experiment", "--ceiling", "inf"], "ceiling must be finite"),
        (["phi-experiment", "--ray-step", "nan"], "ray step must be finite, got nan"),
        (["phi-experiment", "--ray-step", "inf"], "ray step must be finite, got inf"),
        (["constants", "--boundary", "abc"],
         "--boundary entries must be numbers, got 'abc'"),
        (["constants", "--boundary", "1.0,x,2.0"],
         "--boundary entries must be numbers, got 'x'"),
    ])
    def test_bad_flag_value_rejected_before_output(self, tmp_path, argv,
                                                   message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_12(samples=1, depth=1).to_json())
        config = [] if argv[0] == "constants" else ["--config", str(cfg_path)]
        out = tmp_path / "out.json"
        with pytest.raises(DomainError, match=re.escape(message)):
            cli.main([*argv, *config, "--out", str(out)])
        assert not out.exists()

    def test_module_entry_point_matches_main(self, tmp_path, capsys):
        paths = []
        for name, lengths in (("x1", [2.0]), ("x2", [2.5])):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(FNPoint(g=1, n=1, lengths=lengths, twists=[0.3],
                                         boundary=[1.0]).to_json())
        for argv in (["constants", "--boundary", "1.0,1.5"],
                     ["distance", "--x1", str(paths[0]), "--x2", str(paths[1])]):
            run = subprocess.run([sys.executable, "-m", "teichspace", *argv],
                                 capture_output=True, check=True)
            assert cli.main(argv) == run.returncode == 0
            assert run.stdout == capsys.readouterr().out.encode()
            assert run.stderr == b""

    def test_distance_subcommand(self, tmp_path):
        x1 = FNPoint(g=1, n=1, lengths=[2.0], twists=[0.0], boundary=[1.0])
        x2 = FNPoint(g=1, n=1, lengths=[2.5], twists=[0.3], boundary=[1.0])
        p1, p2 = tmp_path / "x1.json", tmp_path / "x2.json"
        p1.write_text(x1.to_json())
        p2.write_text(x2.to_json())
        out = tmp_path / "dist.json"
        self.run_cli("distance", "--x1", str(p1), "--x2", str(p2),
                     "--depth", "2", "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["d_th"]["value"] >= math.log(2.5 / 2.0) - 1e-12

    @pytest.mark.parametrize("boundary", [(1.0,), (0.0,)])
    def test_distance_builds_two_tables(self, tmp_path, monkeypatch, boundary):
        builds = []
        length_table = cli.length_table
        monkeypatch.setattr(cli, "length_table",
                            lambda *a: builds.append(a) or length_table(*a))
        paths = []
        for name, lengths in (("x1", [2.0]), ("x2", [2.5])):
            x = FNPoint(g=1, n=1, lengths=lengths, twists=[0.3],
                        boundary=boundary)
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(x.to_json())
        out = tmp_path / "dist.json"
        cli.main(["distance", "--x1", str(paths[0]), "--x2", str(paths[1]),
                  "--out", str(out)])
        assert len(builds) == 2
        payload = json.loads(out.read_text())
        assert list(payload) == (["d_th", "d_a", "teich"] if boundary[0]
                                 else ["d_th", "teich"])

    def test_report_thurston_on_punctured_images(self, tmp_path):
        # The images of these points glue cusp pants to bordered-slot pants.
        cfg = ExperimentConfig(g=1, n=3, boundary=(0.7, 1.0, 1.5), depth=3,
                               samples=6, seed=11)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "report.json"
        self.run_cli("report", "--config", str(cfg_path), "--metric",
                     "thurston", "--out", str(out))
        rep = json.loads(out.read_text())["report"]
        assert rep["pairs"] == 30
        assert math.isfinite(rep["b_bound"]) and rep["b_bound"] >= 0.0

    def test_compare_csv_and_determinism(self, tmp_path):
        cfg = cfg_12(samples=2, format="csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        self.run_cli("compare", "--config", str(cfg_path), "--out", str(out1))
        self.run_cli("compare", "--config", str(cfg_path), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header == ",".join(COMPARE_COLUMNS)

    def test_verify_arcs_subcommand(self, tmp_path):
        cfg = cfg_12(samples=3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "arcs.json"
        self.run_cli("verify-arcs", "--config", str(cfg_path),
                     "--summary-only", "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["pass_rate"] == 1.0

    @pytest.mark.parametrize("long", [38.0, 40.0])
    def test_long_boundary_runs(self, tmp_path, long):
        cfg = ExperimentConfig(g=1, n=2, boundary=(long, 1.0), depth=1,
                               samples=3)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "out.json"
        cli.main(["compare", "--config", str(cfg_path), "--out", str(out)])
        assert len(json.loads(out.read_text())["rows"]) == 3
        cli.main(["verify-arcs", "--config", str(cfg_path), "--out", str(out)])
        assert json.loads(out.read_text())["pass_rate"] == 1.0

    def test_phi_experiment_subcommand(self, tmp_path):
        cfg = cfg_12(samples=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "phi.json"
        self.run_cli("phi-experiment", "--config", str(cfg_path),
                     "--ray-curve", "1", "--ray-count", "4", "--out", str(out))
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 4

    def test_no_subcommand_imports_numpy(self, tmp_path):
        cfg = cfg_12(samples=3, depth=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        x_path = tmp_path / "x.json"
        x_path.write_text(sample_point(cfg, 0).to_json())
        out = str(tmp_path / "out")
        config = ["--config", str(cfg_path), "--out", out]
        runs = [["compare", *config], ["report", *config],
                ["verify-arcs", *config], ["phi-experiment", *config],
                ["distance", "--x1", str(x_path), "--x2", str(x_path),
                 "--out", out],
                ["constants", "--boundary", "1.0,1.0", "--out", out]]
        # A None entry makes every import of the module raise ImportError.
        # The CLI parses its flags without argparse, and so never imports
        # locale on the way to a result.
        code = ("import sys\n"
                "sys.modules['numpy'] = sys.modules['mpmath'] = None\n"
                "sys.modules['argparse'] = sys.modules['locale'] = None\n"
                "import teichspace\n"
                "from teichspace import cli\n"
                f"for argv in {runs!r}:\n"
                "    cli.main(argv)\n")
        subprocess.run([sys.executable, "-c", code], check=True)

    @pytest.mark.parametrize("argv,message", [
        (["verify-arcs", "--depth", "3"], "unrecognized arguments: --depth 3"),
        (["verify-arcs", "--format", "csv"], "unrecognized arguments: --format"),
        (["report", "--format", "csv"], "unrecognized arguments: --format"),
        (["compare"], "the following arguments are required: --config"),
        (["compare", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["compare", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        (["report", "--metric", "l2"], "argument --metric: invalid choice: 'l2'"),
        (["compare", "--out"], "argument --out: expected one argument"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        # Flags are matched by their exact names, never by a prefix.
        (["compare", "--conf", "cfg.json"],
         "unrecognized arguments: --conf cfg.json"),
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(
            self, tmp_path, capsys, argv, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_12().to_json())
        config = [] if argv == ["compare"] else ["--config", str(cfg_path)]
        with pytest.raises(SystemExit) as exit_:
            cli.main([argv[0], *config, *argv[1:]])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert ": error: " + message in err

    def test_flag_value_after_equals_sign(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg_12(samples=2).to_json())
        outs = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["compare", f"--config={cfg_path}", "--depth=1",
                  f"--out={outs[0]}"])
        cli.main(["compare", "--config", str(cfg_path), "--depth", "1",
                  "--out", str(outs[1])])
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert json.loads(outs[0].read_text())["config"]["depth"] == 1

    def test_negative_numbers_are_values(self, capsys):
        handler, args = cli._parse(["phi-experiment", "--config", "c.json",
                                    "--seed", "-3", "--ray-step", "-.5",
                                    "--ray-count=-1"])
        assert handler is cli._cmd_phi_experiment
        assert (args.seed, args.ray_step, args.ray_count) == (-3, -0.5, -1)
        # As in argparse, only integers and plain decimals read as numbers.
        with pytest.raises(SystemExit) as exit_:
            cli._parse(["phi-experiment", "--config", "c.json",
                        "--ray-step", "-1e-3"])
        assert exit_.value.code == 2
        assert "argument --ray-step: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flags", [
        (["constants"], ["--boundary", "--eps", "--cusps", "--out"]),
        (["distance"], ["--x1", "--x2", "--depth", "--out"]),
        (["compare"], ["--config", "--seed", "--depth", "--format", "--out"]),
        (["verify-arcs"], ["--config", "--seed", "--out", "--summary-only"]),
        (["phi-experiment"], ["--config", "--seed", "--depth", "--format",
                              "--out", "--ray-curve", "--ray-step",
                              "--ray-count", "--ceiling"]),
        (["report"], ["--config", "--seed", "--depth", "--out", "--metric"]),
        ([], ["constants", "distance", "compare", "verify-arcs",
              "phi-experiment", "report"]),
    ])
    def test_help_names_every_flag(self, capsys, argv, flags):
        with pytest.raises(SystemExit) as exit_:
            cli.main([*argv, "--help"])
        assert exit_.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        for flag in flags:
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", out), flag

    def test_json_outputs_are_strict_json(self, tmp_path):
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        cfg = cfg_12(samples=3, depth=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        x1, x2 = tmp_path / "x1.json", tmp_path / "x2.json"
        x1.write_text(sample_point(cfg, 0).to_json())
        x2.write_text(sample_point(cfg, 1).to_json())
        config = ["--config", str(cfg_path)]
        runs = [["compare", *config, "--format", "json"],
                ["report", *config], ["report", *config, "--metric", "thurston"],
                ["verify-arcs", *config], ["verify-arcs", *config, "--summary-only"],
                ["phi-experiment", *config, "--format", "json"],
                ["distance", "--x1", str(x1), "--x2", str(x2)],
                ["constants", "--boundary", "1.0,1.5"]]
        out = tmp_path / "out.json"
        for argv in runs:
            cli.main([*argv, "--out", str(out)])
            json.loads(out.read_text(), parse_constant=reject)

    @pytest.mark.parametrize("subcommand,config,message,witness", [
        ("compare", {"length_range": [800, 900]}, "not finite", "table"),
        ("verify-arcs", {"length_range": [800, 900]}, "leaves double range", "pair"),
        ("compare", {"boundary": [1e-200, 1.0]}, "double range, got 1e-200", "pair"),
        ("verify-arcs", {"boundary": [1e-200, 1.0]}, "double range, got 1e-200", "pair"),
        # sinh(L/2)^2 of a cuff below about 1e-161 underflows to 0.
        *((subcommand, {"length_range": [1e-200, 1e-190]},
           "length of mu0 is not finite", "table")
          for subcommand in ("compare", "report", "phi-experiment")),
    ])
    def test_out_of_range_raises_with_witness(self, tmp_path, subcommand,
                                              config, message, witness):
        cfg = ExperimentConfig.from_json(json.dumps(
            {"g": 1, "n": 2, "boundary": [1.0, 1.5], "depth": 1, "samples": 2,
             **config}))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out = tmp_path / "out.json"
        with pytest.raises(DomainError, match=message) as err:
            cli.main([subcommand, "--config", str(cfg_path), "--out", str(out)])
        x1, x2 = sample_point(cfg, 0).to_dict(), sample_point(cfg, 1).to_dict()
        want = ({"x": x1, "depth": 1} if witness == "table"
                else {"x1": x1, "x2": x2})
        assert err.value.witness == want
        assert str(err.value).endswith("\nwitness: " + json.dumps(want))
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["compare", "verify-arcs", "report"])
    def test_negative_genus_is_named(self, tmp_path, subcommand):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"g": -1, "n": 6, "boundary": [1.0] * 6}))
        with pytest.raises(DomainError, match=r"genus must be nonnegative, got g=-1$"):
            cli.main([subcommand, "--config", str(cfg_path)])

    def test_report_subcommand_deterministic(self, tmp_path):
        cfg = cfg_12(samples=3, depth=1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        self.run_cli("report", "--config", str(cfg_path), "--out", str(out1))
        self.run_cli("report", "--config", str(cfg_path), "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()
        payload = json.loads(out1.read_text())
        assert payload["report"]["a_bound"] == 0.0



GOLDEN_CONFIGS = {
    "g2n2": ExperimentConfig(g=2, n=2, boundary=(1.0, 1.5), seed=5, depth=2,
                             samples=3),
    "g1n1": ExperimentConfig(g=1, n=1, boundary=(0.8,), seed=7, depth=3,
                             samples=4),
    "g0n4": ExperimentConfig(g=0, n=4, boundary=(0.5, 1.0, 1.5, 2.0), seed=11,
                             depth=2, samples=4),
}
GOLDEN_COMMANDS = {
    "compare-csv": ["compare", "--format", "csv"],
    "compare-json": ["compare", "--format", "json"],
    "report-arc": ["report", "--metric", "arc"],
    "report-thurston": ["report", "--metric", "thurston"],
    "phi-csv": ["phi-experiment", "--format", "csv", "--ray-count", "3"],
    "phi-json": ["phi-experiment", "--format", "json", "--ray-count", "3"],
    "distance": ["distance"],
    "verify-arcs": ["verify-arcs"],
    "verify-arcs-summary": ["verify-arcs", "--summary-only"],
}


def golden_cli_digest(tmp_path, config, command):
    """SHA-256 of the bytes ``cli.main`` writes for ``GOLDEN_COMMANDS[command]``
    on ``GOLDEN_CONFIGS[config]``; ``distance`` compares samples 0 and 1."""
    cfg, argv = GOLDEN_CONFIGS[config], GOLDEN_COMMANDS[command]
    if argv[0] == "distance":
        paths = []
        for index in (0, 1):
            paths.append(tmp_path / f"x{index}.json")
            paths[-1].write_text(sample_point(cfg, index).to_json())
        argv = [*argv, "--x1", str(paths[0]), "--x2", str(paths[1])]
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        argv = [argv[0], "--config", str(cfg_path), *argv[1:]]
    out = tmp_path / "out"
    cli.main([*argv, "--out", str(out)])
    return hashlib.sha256(out.read_bytes()).hexdigest()


class TestGoldenOutputs:
    # SHA-256 of each output file, recorded before the length tables took
    # their per-table views and shared cosh(l/2) vector; those changes
    # leave every output byte as it was.  The verify-arcs digests were
    # recorded while the summary still built every pair's full report, and
    # the phi-json digests before the length tables dropped their unread
    # fields.
    GOLDEN = {
        ("g2n2", "compare-csv"):
            "7f198b09abbf608ed6f6d4f3e1a8b5e6eab01a314e76b86e989cb28a7d308a9e",
        ("g2n2", "compare-json"):
            "1f97a79100fa156b3b9eb0850220596d70f29b3229f0b7a5c7519ef9bf029767",
        ("g2n2", "report-arc"):
            "3d977cf91a0fc819585cbd897db700f6b2f40c3ef69267f1b0a167aa44e8b304",
        ("g2n2", "report-thurston"):
            "5c94f5ceb63406482358713c2168f4fefefa28559b9eabe3d6d74d6fc213f3d2",
        ("g2n2", "phi-csv"):
            "93ba958fd0f6c76ea85cfac17b2a49321a33bf587ebc6db92c4c46f9b95c645f",
        ("g2n2", "phi-json"):
            "3e18d267bfd3d95d3378f946bfd8c7690ae262a4e2a85d0874a3fef6c7751d97",
        ("g2n2", "distance"):
            "0b3326a52923fd47f02e057809d5a1e1c2b9f353a1b5ac9ebe4a6a2eb4e646e5",
        ("g2n2", "verify-arcs"):
            "f565cfeebd7471d6a2ef2619f2aadd8fd619e09588a2c35110e4135052ff872a",
        ("g2n2", "verify-arcs-summary"):
            "ad25519b96f608e846499f3fec2628c5281a8617247d65ceffb91bc1a31dfc71",
        ("g1n1", "compare-csv"):
            "401ccb902736ba77b7df4093cca9bdde86ce63e705616a67cce9d8f162210147",
        ("g1n1", "compare-json"):
            "fbd0be6e7f3c7e75f79daaec2f062061af34e03e11da32168e076f6f0e4a560a",
        ("g1n1", "report-arc"):
            "cdd844a1cd79c6009e82ebbf9b66f2c2354a7e81322bea6be6a19fc1e5ccd9c0",
        ("g1n1", "report-thurston"):
            "15af4477b7b8268db8bc6bc11f3fd027c4f7077e2be18344e93ced93a310099a",
        ("g1n1", "phi-csv"):
            "46899ec6e7183678c1c27dfeadc7461530c2f5e467fd099b6fdf4cc63ff8599e",
        ("g1n1", "phi-json"):
            "ec7d6905fd24db0e34ab12872ca6756bba663046a47a72777f432c3550bb9698",
        ("g1n1", "distance"):
            "5d961c73f3c2a27371b245f581e11f9f231fb7ce5adf9d6c11b540bae80130cf",
        ("g1n1", "verify-arcs"):
            "ca6357e893a34e6bbbcd4ff5ce689c44cb6b6effb3512987d679c80661e4ed7f",
        ("g1n1", "verify-arcs-summary"):
            "5e80b3a2c853612c378fd06764b3172c821356866f1e7ec32de8a8311246d86d",
        ("g0n4", "compare-csv"):
            "f0b4a4b7d951f91362fb1c64f32f23f2a3043e091a64b7dbfc0885d1b3648f63",
        ("g0n4", "compare-json"):
            "673f46a2753eeee0f7a2baa7c5ef560339d7d7c0b56caa3db29156521bac49a5",
        ("g0n4", "report-arc"):
            "f90656f65e489955c92fc3bfb611fb15622c2043e964a502964d9221d87b81b5",
        ("g0n4", "report-thurston"):
            "2e24618a3846c2123ee1af8651b669f87ea960f77f07c4c840e82cd1276eec46",
        ("g0n4", "phi-csv"):
            "d3b0da5a7fbc2f7d715ff7b9de5c636a84b33b2dc26731fd223a6d47c5e33bd1",
        ("g0n4", "phi-json"):
            "1fbb95efa29394db27b04d5af7cbee2d28765b8d9d1b1970bc0665a8ea07c5c5",
        ("g0n4", "distance"):
            "ea9c1cf270439542a443b9819c5a7268179f63e9823279e6e53cbf33f8d99886",
        ("g0n4", "verify-arcs"):
            "79e9e22617f3bc61b8861a34d0517cce61b0b2d23c55965be8f1a952dc9963ae",
        ("g0n4", "verify-arcs-summary"):
            "22fa647a6fdb3a1241ae5e8e4a09d06e2479b63d707a1038dc948c3c3e5e31e1",
    }

    @pytest.mark.parametrize("config,command", [
        (c, k) for c in GOLDEN_CONFIGS for k in GOLDEN_COMMANDS])
    def test_output_digest(self, tmp_path, config, command):
        assert golden_cli_digest(tmp_path, config, command) == self.GOLDEN[
            config, command]
