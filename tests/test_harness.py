"""Tests for the experiment harness and the CLI."""

import hashlib
import json
import math
import random
import re
import subprocess
import sys
from itertools import permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teichspace import cli, curves, harness, metrics, pants_trig, surface
from teichspace.coords import FNPoint, build_marking, phi_gamma
from teichspace.curves import length_table
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
from teichspace.metrics import arc_of, thurston_of
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
    """The sampler written out: a fresh ``random.Random`` per point, keyed by
    the point's block of 64, read after the draws of the points before it
    in that block."""
    m64 = 2 ** 64 - 1
    if not 0 <= index <= m64:
        raise DomainError(f"sample index must lie in [0, 2**64), got {index}")
    draw = random.Random((cfg.seed & m64) << 64 | index // 64).random
    ncurves = 3 * cfg.g - 3 + cfg.n
    for _ in range(index % 64 * 2 * ncurves):
        draw()
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
        "block edges": [62, 63, 64, 65, 127, 128, LAST - 63, LAST - 62, LAST],
        "back within a block": [70, 71, 72, 66, 67, 127, 64],
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
            assert x == reference_sample_point(cfg, index)
            assert point_hex(x) == point_hex(reference_sample_point(cfg, index))
            assert point_hex(x) == point_hex(sample_point(cfg, index))
            for vector in (x.lengths, x.twists, x.boundary):
                assert type(vector) is tuple
                assert all(type(v) is float for v in vector)

    @pytest.mark.parametrize("bad", [-1, 2 ** 64])
    def test_bad_index_raises_after_earlier_points(self, bad):
        cfg = cfg_12()
        points = sample_points(cfg, [0, 1, bad, 2])
        assert point_hex(next(points)) == point_hex(reference_sample_point(cfg, 0))
        assert point_hex(next(points)) == point_hex(reference_sample_point(cfg, 1))
        with pytest.raises(DomainError, match=r"must lie in \[0, 2\*\*64\), got "
                           + re.escape(str(bad))):
            next(points)

    # The config takes a negative or NaN boundary entry (JSON's NaN literal
    # included); the sampler raises FNPoint's own error at its first point,
    # after that point's index check.
    @pytest.mark.parametrize("entry", ["-1.0", "NaN"])
    def test_bad_boundary_raises_at_first_point(self, entry):
        cfg = ExperimentConfig.from_json(
            '{"g": 1, "n": 2, "boundary": [1.5, %s], "samples": 3}' % entry)
        with pytest.raises(DomainError) as want:
            FNPoint(1, 2, [1.0, 1.0], [0.0, 0.0], cfg.boundary)
        assert str(want.value) == f"boundary lengths must be nonnegative, got {float(entry)!r}"
        for indices in ([0, 1], [5], [2 ** 64 - 1, 0]):
            with pytest.raises(DomainError) as err:
                next(sample_points(cfg, indices))
            assert str(err.value) == str(want.value)
        with pytest.raises(DomainError, match=r"must lie in \[0, 2\*\*64\), got -1$"):
            next(sample_points(cfg, [-1, 0]))

    # Only the surface, the counts and the boundary are checked once per
    # call: a cuff or twist that is not finite still raises at its own point.
    @pytest.mark.parametrize("draw,message", [
        (8, "cuff lengths must be positive, got nan"),
        (11, "twists must be finite, got nan"),
    ])
    def test_every_point_checks_its_cuffs_and_twists(self, monkeypatch, draw,
                                                     message):
        cfg = cfg_12()
        want = [reference_sample_point(cfg, i) for i in (0, 1)]

        class Spoiled(random.Random):
            # Draw number ``draw`` (from 0) is NaN; point 2 of the (1, 2)
            # config reads draws 8 and 9 for its cuffs, 10 and 11 for its
            # twists.
            taken = 0

            def random(self):
                self.taken += 1
                return math.nan if self.taken == draw + 1 else super().random()

        monkeypatch.setattr(harness, "random", SimpleNamespace(Random=Spoiled))
        points = sample_points(cfg, range(4))
        assert [next(points), next(points)] == want
        with pytest.raises(DomainError, match=re.escape(message) + "$"):
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
    # of every point at seeds 0, 7, -1, 2**64 - 1 and indices 0, 1, 2**64 - 1
    # (the last point of the last block of 64), with the default ranges and
    # boundary 1.0.
    GOLDEN = {
        (1, 6): "2fdf08d7a32bd9a82ec84aff7b8af03be0e2248db0c48271d5f92b3d69ef8048",
        (2, 2): "0923aece51a24f6300e524c73df5a8e14bacf4099feeed925931ae0701930fe3",
        (0, 4): "51d6eac3be8fde04382cb7d5e81d4a461126ef32e0c075bac8e979f1618c5e3d",
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
            "0x1.92e96e42fd2a1p+1", "0x1.785e8b78e58e8p-1", "0x1.762e05fc881ddp+1",
            "0x1.09a91b63b2794p+1", "0x1.d800287c34bddp+1"]
        assert [v.hex() for v in x.twists] == [
            "0x1.3f79ff03a0b5ep+0", "-0x1.69a70da04a740p-4", "0x1.7611bed60aa96p+0",
            "-0x1.7ca95e7c0ed08p-2", "0x1.cb32482b1617cp+0"]

    def test_seed_taken_mod_2_to_64(self):
        cfg = cfg_12(seed=-1)
        assert sample_point(cfg, 5) == sample_point(cfg_12(seed=2 ** 64 - 1), 5)

    def test_negative_index_raises(self):
        with pytest.raises(DomainError, match=r"must lie in \[0, 2\*\*64\)"):
            sample_point(cfg_12(), -1)

    def test_index_past_64_bits_raises(self):
        # The sampler's domain is the 64-bit indices; 2**64 lies past its
        # last block.
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


def verify_arcs_reference(pairs, m, constants=None):
    """The arc check with each arc length through its checked entry point,
    every arc of ``x1`` before those of ``x2``, and each neighbourhood
    curve named through ``m.slot_assignment`` and measured through
    ``m.slot_length``, independently of ``m.arc_forms``; ``constants`` are
    the first point's gap constants unless given."""
    constants = constants or gap_constants(pairs[0][0].boundary)
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
    # makes 157 of these 300 pairs fail.
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
        assert len(failing) == 157
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

    def test_points_must_fit_the_marking(self):
        cfg = ExperimentConfig(g=0, n=4, boundary=(0.5, 1.0, 1.5, 2.0), seed=2)
        x1, x2 = sample_point(cfg, 0), sample_point(cfg, 1)
        m = build_marking(1, 2)
        message = "point on (0,4) does not fit the marking of (1,2)"
        with pytest.raises(DomainError) as table_err:
            length_table(x1, m, 2)
        assert str(table_err.value) == message
        with pytest.raises(DomainError) as err:
            next(verify_arcs([(x1, x2)], m))
        witness = {"x1": x1.to_dict(), "x2": x2.to_dict()}
        assert err.value.witness == witness
        assert str(err.value) == message + "\nwitness: " + json.dumps(witness)
        # The second point of a pair is checked too.
        y = sample_point(cfg_12(), 0)
        with pytest.raises(DomainError, match=re.escape(message)):
            next(verify_arcs([(y, x2)], m))

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


G1N6 = ExperimentConfig(g=1, n=6, boundary=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75),
                        seed=7)


def stream_outcome(reports):
    """The reports a stream yields before it stops, and the error it stops
    with (``None`` at its end)."""
    got = []
    try:
        for r in reports:
            got.append(r)
    except DomainError as err:
        return got, err
    return got, None


def summary_of(report):
    """The summary-only form of a full report."""
    if not report["all_passed"]:
        return report
    return {"checked": report["checked"], "passed": report["passed"],
            "all_passed": True}


class TestVerifyArcsBlocks:
    """Pairs are evaluated 32 at a time, and a block with a failure is taken
    again pair by pair: either way the reports and errors are the
    reference's, on either side of every block edge."""

    @staticmethod
    def pairs(count):
        points = list(sample_points(G1N6, range(2 * count)))
        return list(zip(points[::2], points[1::2]))

    @pytest.mark.parametrize("count", [1, 31, 32, 33, 65])
    @pytest.mark.parametrize("summary_only", [False, True])
    @pytest.mark.parametrize("failing", [False, True])
    def test_counts_around_the_block_size(self, count, summary_only, failing,
                                          monkeypatch):
        pairs, m = self.pairs(count), G1N6.marking()
        constants = None
        if failing:
            # Fails about half of the pairs (see TestVerifyArcs.FAILING).
            constants = TestVerifyArcs.FAILING
            monkeypatch.setattr(harness, "gap_constants", lambda b: constants)
        want = list(verify_arcs_reference(pairs, m, constants))
        if summary_only:
            want = [summary_of(r) for r in want]
        assert list(verify_arcs(iter(pairs), m, summary_only=summary_only)) == want

    @pytest.mark.parametrize("bad,message", [
        # Cuff 5 bounds four arcs' neighbourhoods; cosh(1500/2) overflows.
        (lambda x1, x2: (FNPoint(g=1, n=6, lengths=x1.lengths[:5] + (1500.0,),
                                 twists=x1.twists, boundary=x1.boundary), x2),
         None),
        (lambda x1, x2: (x1, sample_point(ExperimentConfig(
            g=0, n=4, boundary=(0.5, 1.0, 1.5, 2.0), seed=2), 0)),
         "point on (0,4) does not fit the marking of (1,6)"),
        (lambda x1, x2: (FNPoint(g=1, n=6, lengths=x1.lengths, twists=x1.twists,
                                 boundary=(1.0,) * 6), x2),
         "arc check needs equal boundary lengths"),
    ], ids=["cuff-1500", "fit", "boundary"])
    def test_failure_in_mid_block(self, bad, message):
        pairs, m = self.pairs(40), G1N6.marking()
        pairs[17] = bad(*pairs[17])
        got, err = stream_outcome(verify_arcs(iter(pairs), m))
        assert got == list(verify_arcs_reference(pairs[:17], m))
        if message is None:
            want, ref = stream_outcome(verify_arcs_reference(pairs, m))
            assert len(want) == 17
            message = str(ref).split("\nwitness: ")[0]
        x1, x2 = pairs[17]
        witness = {"x1": x1.to_dict(), "x2": x2.to_dict()}
        assert err.witness == witness
        assert str(err) == message + "\nwitness: " + json.dumps(witness)

    def test_unread_cuff_overflow_yields_every_pair(self):
        # No arc reads cuff 0: the block is taken again pair by pair, and
        # every pair has its lengths.
        pairs, m = self.pairs(40), G1N6.marking()
        x1, x2 = pairs[17]
        pairs[17] = (FNPoint(g=1, n=6, lengths=(1500.0,) + x1.lengths[1:],
                             twists=x1.twists, boundary=x1.boundary), x2)
        assert list(verify_arcs(iter(pairs), m)) == list(
            verify_arcs_reference(pairs, m))

    def test_error_taking_a_pair_follows_the_pairs_before_it(self):
        # Point 41 lies outside the sampler's domain: pair 20 cannot be taken.
        points = sample_points(G1N6, [*range(41), 2 ** 64])
        got, err = stream_outcome(verify_arcs(zip(points, points), G1N6.marking()))
        assert got == list(verify_arcs_reference(self.pairs(20), G1N6.marking()))
        assert str(err) == f"sample index must lie in [0, 2**64), got {2 ** 64}"
        assert not hasattr(err, "witness")


def tie_constant(best, ratio):
    """A constant ``c`` with ``c * ratio == best`` exactly, found within four
    ulps of ``best / ratio``, or ``best / ratio`` when none ties."""
    c = up = down = best / ratio
    candidates = [c]
    for _ in range(4):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, 0.0)
        candidates += [up, down]
    return next((k for k in candidates if k * ratio == best), c)


@st.composite
def arc_check_pairs(draw):
    """A marking, a pair on it with boundaries in ``[1e-3, 30]``, cuffs in
    ``[1e-3, 40]`` and twists to 50 in size, and which checked arc to tie
    (none if negative)."""
    m = build_marking(*draw(st.sampled_from([(0, 3), (1, 1), (0, 4), (1, 6), (3, 2)])))
    boundary = draw(st.lists(st.floats(1e-3, 30.0), min_size=m.nboundary,
                             max_size=m.nboundary))

    def values(lo, hi):
        return draw(st.lists(st.floats(lo, hi), min_size=m.ncurves,
                             max_size=m.ncurves))

    x1, x2 = (FNPoint(g=m.genus, n=m.nboundary, lengths=values(1e-3, 40.0),
                      twists=values(-50.0, 50.0), boundary=boundary)
              for _ in range(2))
    return m, x1, x2, draw(st.integers(-1, 6))


class TestVerifyArcsPasses:
    """The counting pass, which gives ``checked`` and ``passed``, and the
    row pass, which gives each written arc's verdict, agree."""

    @given(case=arc_check_pairs())
    @settings(max_examples=200, deadline=None)
    def test_summary_counts_match_the_full_rows(self, case):
        m, x1, x2, tie = case
        c = gap_constants(x1.boundary).c
        checked = [r for r in next(verify_arcs([(x1, x2)], m))["arcs"] if r["checked"]]
        if tie >= 0 and checked:
            # A constant that puts one arc's bound exactly on its best curve
            # ratio, where ">=" and ">" part; others pass or fail by it.
            row = checked[tie % len(checked)]
            c = tie_constant(row["max_curve_ratio"], row["ratio"])
        constants = SimpleNamespace(c=c, c_between=c, c_self=c, gap=-math.log(c))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "gap_constants", lambda b: constants)
            full = next(verify_arcs([(x1, x2)], m))
            summary = next(verify_arcs([(x1, x2)], m, summary_only=True))
        rows = [r for r in full["arcs"] if r["checked"]]
        assert full["checked"] == len(rows)
        assert full["passed"] == sum(r["passed"] for r in rows)
        assert full["all_passed"] == (full["passed"] == full["checked"])
        assert {k: summary[k] for k in ("checked", "passed", "all_passed")} == {
            k: full[k] for k in ("checked", "passed", "all_passed")}
        # A pair is written in the summary stream exactly when it fails.
        assert (summary == full) == (not full["all_passed"])


class TestVerifyArcsTrigCount:
    """A count that does not depend on the machine: the ``math.cosh`` and
    ``math.sinh`` calls per pair of :func:`verify_arcs` on the
    verify-arcs-g1n6 config (seed 7), counted as a run of 33 pairs less a
    run of 1 pair, so the terms taken once per run (the gap constants) and
    the first pair's own terms cancel; a run before both takes the hexagon
    forms' boundary terms, which are cached.  The 32 pairs between are one
    block.  Taking every hexagon term per point took 42 (26 ``cosh``, 16
    ``sinh``); a pair takes ``cosh(l/2)`` of its two points' six cuffs
    only: 12."""

    def test_verify_arcs_g1n6_pairs(self, monkeypatch):
        cfg = ExperimentConfig.from_json(json.dumps(
            {"g": 1, "n": 6, "boundary": [0.5, 0.75, 1.0, 1.25, 1.5, 1.75],
             "depth": 2, "samples": 5000, "seed": 7}))
        m = cfg.marking()
        calls = []

        def run(count):
            points = list(sample_points(cfg, range(2 * count)))
            calls.clear()
            assert len(list(verify_arcs(zip(points[::2], points[1::2]), m,
                                        summary_only=True))) == count
            return calls.count("cosh"), calls.count("sinh")

        def counted(name):
            f = getattr(math, name)
            return lambda v: calls.append(name) or f(v)

        counting = SimpleNamespace(**{**vars(math), "cosh": counted("cosh"),
                                      "sinh": counted("sinh")})
        for module in (curves, harness, pants_trig):
            monkeypatch.setattr(module, "math", counting)
        run(1)
        (cosh33, sinh33), (cosh1, sinh1) = run(33), run(1)
        assert (cosh33 - cosh1, sinh33 - sinh1) == (12 * 32, 0)


def profiled_count(tmp_path, config, argv, counted):
    """The profiler events ``(frame, event, arg)`` of one CLI call on
    ``config`` for which ``counted`` is true."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += counted(frame, event, arg)

    sys.setprofile(profile)
    try:
        cli.main([argv[0], "--config", str(cfg_path), *argv[1:],
                  "--out", str(tmp_path / "out")])
    finally:
        sys.setprofile(None)
    return calls


class TestSamplerSeedCount:
    """A count that does not depend on the machine: the MT19937 seedings
    (``_random.Random.seed`` calls, seen as profiler ``c_call`` events) of
    one CLI call on a benchmark config.  Seeding before every point took
    10 001 and 17 (one per point and one to construct the generator); a run
    of consecutive indices now takes one per block of 64."""

    @staticmethod
    def seedings(tmp_path, config, argv):
        return profiled_count(
            tmp_path, config, argv, lambda frame, event, arg: event == "c_call"
            and getattr(arg, "__qualname__", None) == "Random.seed")

    def test_verify_arcs_g1n6(self, tmp_path):
        config = {"g": 1, "n": 6, "boundary": [0.5, 0.75, 1.0, 1.25, 1.5, 1.75],
                  "depth": 2, "samples": 5000, "seed": 7}
        assert self.seedings(tmp_path, config, ["verify-arcs", "--summary-only"]) == 157

    def test_compare_g3n2(self, tmp_path):
        config = {"g": 3, "n": 2, "boundary": [1.0, 1.5], "depth": 3,
                  "samples": 8, "seed": 7}
        assert self.seedings(tmp_path, config, ["compare", "--format", "csv"]) == 1


class TestArcBlockCount:
    """A count that does not depend on the machine: the calls of the block
    form :func:`~teichspace.pants_trig._block` (profiler ``call`` events of
    its code) of one CLI call on the verify-arcs-g1n6 config.  Evaluating
    each point's arcs on its own took 10 000
    :func:`~teichspace.curves.hexagon_lengths` calls; the 5000 pairs now
    take one call per block of 32."""

    def test_verify_arcs_g1n6(self, tmp_path):
        config = {"g": 1, "n": 6, "boundary": [0.5, 0.75, 1.0, 1.25, 1.5, 1.75],
                  "depth": 2, "samples": 5000, "seed": 7}
        code = pants_trig._block.__code__
        assert profiled_count(
            tmp_path, config, ["verify-arcs", "--summary-only"],
            lambda frame, event, arg: event == "call" and frame.f_code is code) == 157


class TestPointCheckCount:
    """A count that does not depend on the machine: the ``FNPoint.__init__``
    calls (profiler ``call`` events of its code) of one CLI call.  Checking
    the surface, the counts and the boundary at every sampled point took
    10 000 on the verify-arcs-g1n6 config, and at every ray point 12 on a
    (2, 2) ``phi-experiment`` (1 sampled point and 11 ray points); the
    sampler now checks them at its first point only, and a ray point only
    its moved twist."""

    @staticmethod
    def checks(tmp_path, config, argv):
        code = FNPoint.__init__.__code__
        return profiled_count(
            tmp_path, config, argv,
            lambda frame, event, arg: event == "call" and frame.f_code is code)

    def test_verify_arcs_g1n6(self, tmp_path):
        config = {"g": 1, "n": 6, "boundary": [0.5, 0.75, 1.0, 1.25, 1.5, 1.75],
                  "depth": 2, "samples": 5000, "seed": 7}
        assert self.checks(tmp_path, config, ["verify-arcs", "--summary-only"]) == 1

    def test_phi_experiment_g2n2(self, tmp_path):
        config = {"g": 2, "n": 2, "boundary": [1.0, 1.5], "depth": 2,
                  "samples": 3, "seed": 7}
        assert self.checks(tmp_path, config, ["phi-experiment"]) == 1


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

    def test_gap_constants_once_per_boundary(self, monkeypatch):
        calls = []
        gap_constants = harness.gap_constants
        monkeypatch.setattr(harness, "gap_constants",
                            lambda b: calls.append(b) or gap_constants(b))
        harness._gap.cache_clear()
        try:
            for boundary in ((1.0, 1.0), (1.0, 1.25), (1.0, 1.0)):
                cfg = cfg_12(boundary=boundary)
                rows = [compare_metrics(sample_point(cfg, 2 * i),
                                        sample_point(cfg, 2 * i + 1),
                                        cfg.marking(), 1) for i in range(3)]
                assert {row["gap_constant"] for row in rows} == {
                    gap_constants(boundary).gap}
        finally:
            harness._gap.cache_clear()
        assert calls == [(1.0, 1.0), (1.0, 1.25)]

    def test_gap_error_is_raised_by_every_row(self):
        # sinh(l/2)^2 of a boundary of 1e-200 underflows: the gap constant
        # fails, and each row names its own pair.
        cfg = cfg_12(boundary=(1e-200, 1.0))
        m = cfg.marking()
        for i in range(2):
            x1, x2 = sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1)
            with pytest.raises(DomainError, match="got 1e-200") as err:
                compare_metrics(x1, x2, m, 1)
            assert err.value.witness == {"x1": x1.to_dict(), "x2": x2.to_dict()}

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

    def test_first_row_lower_ends_are_positive_zero(self):
        # At equal points the two log-ratio bounds are 0.0 and -0.0, and the
        # lower end keeps the first: step 0 writes 0.0, never -0.0.
        cfg = cfg_12()
        rep = phi_experiment(sample_point(cfg, 0), cfg.marking(), curve_index=1,
                             step=0.5, count=2, depth=1, ceiling=None)
        first = rep["rows"][0]
        for key in ("teich_bordered_lo", "teich_punctured_lo"):
            assert (first[key], math.copysign(1.0, first[key])) == (0.0, 1.0)

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


def report_reference(samples, m, depth, metric):
    """``b_bound``, ``pairs`` and ``worst_pair`` of the report as a loop of
    the estimators over tables that evaluate every image from scratch."""
    d1_of = arc_of if metric == "arc" else thurston_of
    tables = [length_table(x, m, depth) for x in samples]
    images = [length_table(phi_gamma(x), m, depth) for x in samples]
    b_bound, worst, pairs = None, [], 0
    for i, j in permutations(range(len(samples)), 2):
        d = abs(thurston_of(images[i], images[j]).value
                - d1_of(tables[i], tables[j]).value)
        pairs += 1
        if b_bound is None or d > b_bound:
            b_bound, worst = d, [i, j]
    return {"b_bound": b_bound, "pairs": pairs, "worst_pair": worst}


def report_outcome(f, *args):
    """The three reference fields of ``f(*args)``, or the type and text
    (with its witness) of the DomainError it raises."""
    try:
        rep = f(*args)
    except DomainError as err:
        return type(err).__name__, str(err)
    return {k: rep[k] for k in ("b_bound", "pairs", "worst_pair")}


class TestAlmostIsometryReport:
    @pytest.mark.parametrize("metric", ["arc", "thurston"])
    @pytest.mark.parametrize("g,n,boundary", [
        (0, 3, (0.5, 1.0, 2.0)), (1, 1, (0.8,)), (0, 4, (0.5, 1.0, 1.5, 2.0)),
        (1, 2, (1.0, 1.5)), (2, 2, (1.0, 1.5)), (3, 2, (1.0, 1.5)),
        (1, 6, (0.5, 0.75, 1.0, 1.25, 1.5, 1.75))])
    def test_matches_reference_loop(self, metric, g, n, boundary):
        for seed, depth in ((0, 0), (3, 2), (7, 3)):
            cfg = ExperimentConfig(g=g, n=n, boundary=boundary, seed=seed,
                                   twist_range=(-50.0, 50.0))
            m = cfg.marking()
            samples = list(sample_points(cfg, range(5)))
            got = report_outcome(almost_isometry_report, samples, m, depth, metric)
            # The pants alone has no essential curve to compare.
            assert isinstance(got, dict) == (m.ncurves > 0)
            assert got == report_outcome(report_reference, samples, m, depth,
                                         metric)

    @pytest.mark.parametrize("metric", ["arc", "thurston"])
    @pytest.mark.parametrize("case", ["cusp first", "cusp everywhere",
                                      "other boundary later", "long cuff later"])
    def test_first_error_matches_reference_loop(self, metric, case):
        cfg = ExperimentConfig(g=2, n=2, boundary=(1.0, 1.5), seed=4)
        m = cfg.marking()
        samples = list(sample_points(cfg, range(4)))

        def rebound(x, boundary, lengths=None):
            return FNPoint(x.g, x.n, lengths or x.lengths, x.twists, boundary)

        if case == "cusp first":
            samples[0] = rebound(samples[0], (0.0, 1.5))
        elif case == "cusp everywhere":
            samples = [rebound(x, (1.0, 0.0)) for x in samples]
        elif case == "other boundary later":
            samples[2] = rebound(samples[2], (1.0, 2.0))
        else:
            samples[3] = rebound(samples[3], (1.0, 1.5), [1550.0] * m.ncurves)
        got = report_outcome(almost_isometry_report, samples, m, 2, metric)
        assert got == report_outcome(report_reference, samples, m, 2, metric)
        if case == "cusp everywhere" and metric == "thurston":
            assert isinstance(got, dict)
        else:
            assert got[0] == "DomainError"

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
    # Five of its six dual orbits read a boundary.
    "g1n6": ExperimentConfig(g=1, n=6, boundary=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75),
                             seed=3, depth=2, samples=3),
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
    # fields.  The g1n6 digests were recorded before the punctured images'
    # tables were derived from their bordered tables.  Every digest that
    # reads a sampled point other than point 0 was re-recorded when the
    # sampler went from one stream per point to one per block of 64; the
    # phi digests read point 0 only and kept their bytes.  The compare, phi
    # and distance digests were re-recorded when the quasiconformal
    # interval's lower end became half the larger curve-ratio estimate of
    # the two directions; the report and verify-arcs digests kept theirs.
    # Eleven compare, phi and distance digests were re-recorded when the
    # upper end and its width became one closed form per class, which moved
    # only teich_hi, teich_*_hi, teich_diff_hi and witness_max_log_width,
    # each by at most 1 ulp.
    GOLDEN = {
        ("g2n2", "compare-csv"):
            "de161781dc3545d18e299c51a1a1acc634ecca6974031a5436afc0373de6b307",
        ("g2n2", "compare-json"):
            "71fba6ca0ce6b81baf3fc33d395bc8b30e2c450ace7f638ecc256766d5ea46cf",
        ("g2n2", "report-arc"):
            "3d977cf91a0fc819585cbd897db700f6b2f40c3ef69267f1b0a167aa44e8b304",
        ("g2n2", "report-thurston"):
            "5c94f5ceb63406482358713c2168f4fefefa28559b9eabe3d6d74d6fc213f3d2",
        ("g2n2", "phi-csv"):
            "c6129dda0406b007d476b68e79a235373157b1c9f3308e486f6cbb0fc0a4e900",
        ("g2n2", "phi-json"):
            "7db2bf03bf030c416ede15abc348a54650b256f22a5cedf017bdcd728c631c61",
        ("g2n2", "distance"):
            "4f8d5efd9f3d1e6c9e79a2c1bbf62ae97b2373fbfa8c98bffbb3b8c3f3071f68",
        ("g2n2", "verify-arcs"):
            "d3db00eefd8698c93b9cf734e8d9ba8ed58bc0b47c841cd54458f2959b18e035",
        ("g2n2", "verify-arcs-summary"):
            "b65ae221649bd8736d6ae970a02c85b729b3287795a75d6e7fe2a2b8238b8ff6",
        ("g1n1", "compare-csv"):
            "f65c847547912cb2e0ee3d08851a8bcdb82906c06f3ae3ea61d96154fcc6104e",
        ("g1n1", "compare-json"):
            "cfd0c867f770939a04c3602a65f528df274ec9672d010e096962020aeb151abc",
        ("g1n1", "report-arc"):
            "2efd5f5943a4ed9738cced7069e159323039df069444755fec8606b7c8d9e6f3",
        ("g1n1", "report-thurston"):
            "03cf6f56e47c5e1b16d22558a5a519e8ed8f57b3ccc7cb09b7d0710a51b20a1d",
        ("g1n1", "phi-csv"):
            "bf55d7cd4896c0efd8aec2a7c7ed5d6923bcb8419fadcc513699504cca6e1955",
        ("g1n1", "phi-json"):
            "f055147708a81827c19dd2efe0733ea2b03b7aebe2c2d79f869bf190756d869f",
        ("g1n1", "distance"):
            "628c63460d8ca28f39c0dab58960238835c61466e5d2f4085fdecea8f9bf24fb",
        ("g1n1", "verify-arcs"):
            "b06ffba7b83a4f3766dabaa5c7b62ce7696e02298c94fce8ab5a4ef8cff8f77b",
        ("g1n1", "verify-arcs-summary"):
            "12f59aca303a0e99219e5c68f2e3f85f9dddbbc674f3f3f9a5ca87c564a89580",
        ("g0n4", "compare-csv"):
            "3a4827ceb310e5f1e04d1f9baaccd1ed8cb1419320099b3629bcf9504e99d53b",
        ("g0n4", "compare-json"):
            "dc6a7e08d7ee4c7aa77ef1c2528cc798a77bc6eef57e18cc3e04189458e5e8c3",
        ("g0n4", "report-arc"):
            "50bc60b259a29172093e40e9385e3aec77b97b05f7dfefa4cde88b50d275a182",
        ("g0n4", "report-thurston"):
            "33d4f3c9fca0530d4387f82ff082f529e51366b6becb3014e11d3747b282044d",
        ("g0n4", "phi-csv"):
            "5b55f5662fe999c276cf04e7700029df3beb938383c41028e0a2775862bf52ec",
        ("g0n4", "phi-json"):
            "36fc8a712292a448e85309a8a6776acfba6da804cf15c87f748cae1bce3dd21f",
        ("g0n4", "distance"):
            "f54f66d85591ee1c42dc25cfec8ebbf6afb311c1ef234f4faf2b6a237bc23c3c",
        ("g0n4", "verify-arcs"):
            "d6a8a62f8385f1fef9863033e9753c2b1b7f0323e4856f9e1b2cbcc9117a1653",
        ("g0n4", "verify-arcs-summary"):
            "e1c817c9575ad814f27b4e128ac6695b433f639c9c3a39c56d56a6e38e8ded52",
        ("g1n6", "report-arc"):
            "351c3639791271215b05d7ff618aa6fec7cbda37ef961d5a87b30c0e576a288e",
        ("g1n6", "report-thurston"):
            "ab41a7ef70e1a0862a47f360a9910d733660f62bf05488ee7f49ca24d64c1232",
        ("g1n6", "phi-json"):
            "ec2bb0df860927f83ffd2bf86724e004c6ac26c83516ffd5677afbe89bf55dc9",
    }

    @pytest.mark.parametrize("config,command", list(GOLDEN))
    def test_output_digest(self, tmp_path, config, command):
        assert golden_cli_digest(tmp_path, config, command) == self.GOLDEN[
            config, command]
