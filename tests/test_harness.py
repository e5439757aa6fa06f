"""Tests for the experiment harness and the CLI."""

import argparse
import json
import math
import subprocess
import sys

import numpy as np
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
    verify_arc_construction,
    verify_arcs,
)
from teichspace.pants_trig import DomainError


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
        args = argparse.Namespace(config=str(path), seed=3, depth=1,
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

    @pytest.mark.parametrize("g,n", [(1, 6), (2, 2), (3, 2), (0, 4)])
    def test_matches_numpy_generator_bit_for_bit(self, g, n):
        # The reference is the generator sample_point replaced; its lengths
        # are math.exp of numpy's uniforms, since numpy's exp kernel depends
        # on the CPU.  Indices of 2**64 and beyond give more entropy words
        # than the pool holds.
        seeds = [*range(300), 2 ** 32, 2 ** 63, 2 ** 64 - 1, -1, -12345,
                 2 ** 70 + 3]
        indices = [0, 1, 9, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64,
                   2 ** 100 + 17]
        ranges = np.random.default_rng(g * 10 + n)
        for seed in seeds:
            lo, hi = np.sort(np.exp(ranges.uniform(math.log(1e-4), math.log(40), 2)))
            t_lo = ranges.uniform(-100, 100)
            cfg = ExperimentConfig(
                g=g, n=n, boundary=(1.0,) * n, seed=seed,
                length_range=(lo, hi),
                twist_range=(t_lo, t_lo + ranges.uniform(0, 200)))
            for index in indices[:3] if 0 < seed < 300 else indices:
                rng = np.random.default_rng([seed & (2 ** 64 - 1), index])
                logs = rng.uniform(math.log(lo), math.log(hi), 3 * g - 3 + n)
                lengths = [math.exp(v) for v in logs.tolist()]
                twists = rng.uniform(*cfg.twist_range, 3 * g - 3 + n)
                x = sample_point(cfg, index)
                assert [v.hex() for v in x.lengths] == [v.hex() for v in lengths]
                assert [v.hex() for v in x.twists] == [v.hex() for v in twists.tolist()]

    def test_negative_index_raises(self):
        with pytest.raises(DomainError, match="nonnegative"):
            sample_point(cfg_12(), -1)


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


class TestVerifyArcs:
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
                             step=0.5, count=4, depth=1)
        first = rep["rows"][0]
        assert first["difference"] == 0.0
        assert first["d_th_bordered"] == 0.0

    def test_difference_bounded_and_reported(self):
        cfg = cfg_12()
        m = cfg.marking()
        rep = phi_experiment(sample_point(cfg, 0), m, curve_index=1,
                             step=0.5, count=6, depth=2)
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
            phi_experiment(px, m, depth=1)


class TestAlmostIsometryReport:
    def test_repeated_sample_zero_distortion(self):
        cfg = cfg_12()
        m = cfg.marking()
        x = sample_point(cfg, 0)
        rep = almost_isometry_report([x, x], m, 1)
        assert rep.b_bound == 0.0
        assert rep.a_bound == 0.0
        assert rep.worst_pair == (0, 1)

    def test_finite_on_samples(self):
        cfg = cfg_12(samples=4)
        m = cfg.marking()
        samples = [sample_point(cfg, i) for i in range(4)]
        rep = almost_isometry_report(samples, m, 1)
        assert rep.pairs == 12
        assert math.isfinite(rep.b_bound) and rep.b_bound >= 0

    def test_metric_selector(self):
        cfg = cfg_12()
        m = cfg.marking()
        samples = [sample_point(cfg, i) for i in range(2)]
        arc = almost_isometry_report(samples, m, 1, metric="arc")
        thu = almost_isometry_report(samples, m, 1, metric="thurston")
        assert arc.metric == "arc" and thu.metric == "thurston"
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
        phi_experiment(sample_point(cfg, 0), cfg.marking(), count=3, depth=1)


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
        length_table = metrics.length_table
        monkeypatch.setattr(metrics, "length_table",
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
        # A None entry makes every import of numpy raise ImportError.
        code = ("import sys\n"
                "sys.modules['numpy'] = None\n"
                "import teichspace\n"
                "from teichspace import cli\n"
                f"for argv in {runs!r}:\n"
                "    cli.main(argv)\n")
        subprocess.run([sys.executable, "-c", code], check=True)

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
