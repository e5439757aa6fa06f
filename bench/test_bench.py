"""Tests of the benchmark itself: tracer coverage, trace transparency and
the output checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from probe import Sampler
from teichspace import cli
from teichspace.harness import ExperimentConfig, sample_point
from tracer import TARGETS, Tracer
from workloads import WORKLOADS

# Tiny versions of the workloads: same surface and subcommand, few samples.
TINY = {"compare-g3n2": 2, "report-g2n2": 3, "verify-arcs-g1n6": 20}


def tiny(name, tmp_path, seed=3):
    w = WORKLOADS[name]
    cfg = ExperimentConfig.from_json(
        json.dumps(dict(w.config, seed=seed, samples=TINY[name])))
    path = tmp_path / "config.json"
    path.write_text(cfg.to_json())
    return w, cfg, str(path)


def run_cli(w, config_path, out_path):
    cli.main(w.argv(config_path, str(out_path)))
    return out_path.read_text()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrapper_counts_match_profiler(name, tmp_path):
    w, _, config_path = tiny(name, tmp_path)
    codes = {}
    for modname, funcname, _ in TARGETS:
        fn = getattr(sys.modules["teichspace." + modname], funcname)
        codes[fn.__code__] = f"{modname}.{funcname}"
    seen = dict.fromkeys(codes.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            seen[codes[frame.f_code]] += 1

    with Tracer("test") as tracer:
        sys.setprofile(profile)
        try:
            run_cli(w, config_path, tmp_path / "out")
        finally:
            sys.setprofile(None)
    traced = {name: e["calls"] for name, e in tracer.summary().items()}
    assert {k: v for k, v in seen.items() if v} == traced
    assert sum(traced.values()) > 0


def test_uninstall_restores_every_binding():
    before = {mod: dict(vars(mod)) for name, mod in sys.modules.items()
              if name.startswith("teichspace")}
    with Tracer("test"):
        assert cli.thurston_lower is not before[cli]["thurston_lower"]
    for mod, attrs in before.items():
        for attr, value in attrs.items():
            assert vars(mod)[attr] is value


def child(config_path, out_path, result_path, trace, w):
    cmd = [sys.executable, os.path.join(run.BENCH, "child.py"), str(result_path),
           str(trace), str(result_path) + ".spans", config_path, "--",
           *w.argv(config_path, str(out_path))]
    subprocess.run(cmd, env=run.child_env(), check=True, timeout=120)
    return out_path.read_bytes(), json.loads(result_path.read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_output_and_counts_repeat(name, tmp_path):
    w, _, config_path = tiny(name, tmp_path)
    plain, _ = child(config_path, tmp_path / "a", tmp_path / "a.json", 0, w)
    traced1, r1 = child(config_path, tmp_path / "b", tmp_path / "b.json", 1, w)
    traced2, r2 = child(config_path, tmp_path / "c", tmp_path / "c.json", 1, w)
    assert plain == traced1 == traced2
    assert all(r["probe_s"] > 0 and r["setup_probe_s"] > 0 for r in (r1, r2))
    counts = [{k: (e["calls"], e.get("distinct")) for k, e in r["trace"].items()}
              for r in (r1, r2)]
    assert counts[0] == counts[1]


def test_sampler_times_units_and_stops():
    sampler = Sampler().start()
    unit = sampler.finish(sampler.done, 3)
    assert unit > 0 and not sampler._thread.is_alive()


def test_scaling_cancels_a_uniformly_slower_host():
    fast = {"main_s": 2.0, "probe_s": 0.010, "setup_s": 0.2, "setup_probe_s": 0.008}
    slow = {k: 1.5 * v for k, v in fast.items()}
    assert run.throughput([fast], 10) == pytest.approx(run.throughput([slow], 10))
    assert run.scaled_setup(fast, "setup_s") == pytest.approx(run.scaled_setup(slow, "setup_s"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_real_output(name, tmp_path):
    w, cfg, config_path = tiny(name, tmp_path)
    assert w.check(run_cli(w, config_path, tmp_path / "out"), cfg) == {}


def test_compare_check_flags_the_bad_row(tmp_path):
    w, cfg, config_path = tiny("compare-g3n2", tmp_path)
    lines = run_cli(w, config_path, tmp_path / "out").splitlines()
    cells = lines[2].split(",")
    cells[7] = "mu0@9:9:9:9:9:9:9:9"  # d_th_witness outside the family
    cells[1] = str(float(cells[0]) - 1e-6)  # d_a below d_th
    lines[2] = ",".join(cells)
    bad = w.check("\n".join(lines), cfg)
    assert list(bad) == [1]
    assert "d_th_witness" in bad[1] and "d_a" in bad[1]
    assert set(w.check("\n".join(lines[:2]), cfg)) == {1}


def test_report_check_recomputes_b_bound(tmp_path):
    w, cfg, config_path = tiny("report-g2n2", tmp_path)
    payload = json.loads(run_cli(w, config_path, tmp_path / "out"))
    payload["report"]["b_bound"] *= 1 + 1e-9
    payload["report"]["new_field"] = "later versions may add keys"
    bad = w.check(json.dumps(payload), cfg)
    assert len(bad) == w.items(cfg) and "recomputed" in bad[0]


def test_verify_arcs_check_counts_failed_pairs(tmp_path):
    w, cfg, config_path = tiny("verify-arcs-g1n6", tmp_path)
    payload = json.loads(run_cli(w, config_path, tmp_path / "out"))
    x1, x2 = sample_point(cfg, 2 * 7), sample_point(cfg, 2 * 7 + 1)
    payload["passed"] -= 1
    payload["pass_rate"] = payload["passed"] / payload["checked"]
    assert len(w.check(json.dumps(payload), cfg)) == cfg.samples
    payload["failures"] = [{"x1": json.loads(x1.to_json()),
                            "x2": json.loads(x2.to_json())}]
    assert w.check(json.dumps(payload), cfg) == {7: "arc check failed"}
    del payload["pairs"]
    assert len(w.check(json.dumps(payload), cfg)) == cfg.samples


def test_raising_invocation_counts_all_items_and_prints_witness(tmp_path, capsys):
    w, cfg, _ = tiny("verify-arcs-g1n6", tmp_path)
    book = run.Run(w, cfg, seed=3)
    good = book.account({"error": {"type": "HolonomyError", "message": "boom",
                                   "traceback": "..."}})
    assert not good and book.attempted == book.failed == cfg.samples
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("WITNESS"))
    witness = json.loads(line[len("WITNESS "):])
    assert witness["workload"] == w.name and witness["seed"] == 3
    assert "HolonomyError: boom" in witness["exception"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = os.path.join(run.ROOT, "BENCHMARK.json")
    if os.path.exists(spec):
        shutil.copy(spec, tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "compare-g3n2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
