"""Benchmark of the teichspace CLI: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload compare-g3n2 --seed 7 --seconds 35 --trace 0

A run repeats one CLI invocation, each in a fresh process
(``bench/child.py``), until ``--seconds`` have passed.  Every invocation of
a run gets the same config, made from ``--seed``.  The first output is
checked item by item outside the timed region; later outputs must be
byte-identical to it.

With ``--trace 0`` the run reports the end-to-end metrics: ``items_per_s``
over all its invocations, and the medians of ``setup_s`` and
``peak_rss_mb``.  Times are scaled to a fixed host speed.  The set-up and
the CLI call run single-threaded and are timed by the CPU time of their
thread, while a thread of the host-speed probe (``bench/probe.py``) takes
turns with them on the same CPU; a time is multiplied by
``probe.REFERENCE_S`` over the CPU time of one probe unit beside it.

With ``--trace 1`` the run alternates untraced and traced invocations and
reports the per-layer metrics from the traced ones;
``trace.overhead_frac`` compares the two.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Raw samples and span files go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from probe import REFERENCE_S, SETUP_REFERENCE_S

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# Fewest invocations per run: untraced, and each of untraced and traced
# when tracing (they alternate).
MIN_INVOCATIONS = 3
MIN_TRACED = 2
# Set-up-only processes per run, on top of the set-up of every invocation.
SETUP_RUNS = 5
INVOCATION_TIMEOUT_S = 45

# Traced layers: metric prefix -> which of calls / self_s / distinct_frac.
LAYERS = {
    "surface.holonomy": ("calls", "self_s", "distinct_frac"),
    "surface.curve_length": ("calls", "self_s"),
    "curves.family_lengths": ("calls", "self_s", "distinct_frac"),
    "curves.enumerate_curves": ("calls", "self_s"),
    "curves.arc_length_formula": ("calls", "self_s"),
    "curves.pants_neighborhood_boundaries": ("calls", "self_s"),
    "pants_trig.orthogeodesic_between": ("calls", "self_s"),
    "pants_trig.orthogeodesic_self": ("calls", "self_s"),
    "pants_trig.gap_constants": ("calls", "self_s", "distinct_frac"),
    "metrics.thurston_lower": ("calls", "self_s"),
    "metrics.arc_lower": ("calls", "self_s"),
    "metrics.teich_interval_report": ("calls", "self_s"),
    "harness.sample_point": ("calls", "self_s"),
    "harness.compare_metrics": ("self_s",),
    "harness.verify_arc_construction": ("self_s",),
    "harness.almost_isometry_report": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s", "distinct_frac": "frac"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def invoke(workload, config_path, out_dir, k, trace):
    """One CLI invocation in a fresh process; returns its result dict, with
    ``error`` set when it raised, crashed or timed out."""
    out_path = os.path.join(out_dir, f"out-{k}")
    result_path = os.path.join(out_dir, f"result-{k}.json")
    spans_path = os.path.join(out_dir, "spans.csv")
    for path in (out_path, result_path):
        if os.path.exists(path):
            os.remove(path)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), result_path,
           str(trace), spans_path, config_path, "--",
           *workload.argv(config_path, out_path)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": {"type": "Timeout", "message": f"over {INVOCATION_TIMEOUT_S} s"}}
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return {"error": {"type": f"exit {proc.returncode}",
                          "message": proc.stderr.strip()[-2000:]}}
    if result["error"] is None:
        if proc.returncode != 0:
            result["error"] = {"type": f"exit {proc.returncode}",
                               "message": proc.stderr.strip()[-2000:]}
        else:
            with open(out_path, "rb") as fh:
                result["output"] = fh.read()
            result["output_bytes"] = len(result["output"])
    return result


def set_up(config_path, out_dir):
    """Set-up alone in a fresh process; returns its timings, or ``None``."""
    result_path = os.path.join(out_dir, "setup.json")
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), result_path, "0",
           os.devnull, config_path, "--"]
    try:
        subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                       check=True, timeout=INVOCATION_TIMEOUT_S)
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (subprocess.SubprocessError, OSError, ValueError):
        return None


def witness(workload, seed, item, error) -> None:
    line = "WITNESS " + json.dumps({"workload": workload, "seed": seed,
                                    "item": item, "exception": error})
    print(line)
    print(line, file=sys.stderr)


class Run:
    """The invocations of one run and the accounting of their items."""

    def __init__(self, workload, cfg, seed):
        self.workload, self.cfg, self.seed = workload, cfg, seed
        self.items = workload.items(cfg)
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.reference_bad = {}
        self.replayed = False

    def account(self, result) -> bool:
        """Check one invocation's output; return whether it completed."""
        self.attempted += self.items
        error = result.get("error")
        if error is not None:
            self.failed += self.items
            if not self.replayed:
                self.replayed = True
                # Replay only what raised; a hang or a crash is not redone here.
                item, exc = (self.workload.replay(self.cfg) if "traceback" in error
                             else (None, None))
                witness(self.workload.name, self.seed, item,
                        exc or f"{error['type']}: {error['message']}")
            return False
        output = result["output"]
        if self.reference is None:
            self.reference = output
            self.reference_bad = self.workload.check(output.decode("utf-8"), self.cfg)
            for item, reason in sorted(self.reference_bad.items())[:5]:
                witness(self.workload.name, self.seed, item, f"check: {reason}")
        if output != self.reference:
            self.failed += self.items
            witness(self.workload.name, self.seed, None,
                    "output differs from the first invocation of the run")
        else:
            self.failed += len(self.reference_bad)
        return True


def median(values):
    return statistics.median(values) if values else 0.0


def scaled_setup(r, key):
    """A set-up time of invocation ``r`` at the reference host speed; the
    probe thread beside the set-up times the host."""
    return r[key] * SETUP_REFERENCE_S / r["setup_probe_s"]


def scale(r):
    """The factor that brings a time of invocation ``r``'s CLI call to the
    reference host speed; the probe thread beside the call times the host."""
    return REFERENCE_S / r["probe_s"]


def throughput(results, items):
    """Items per CPU second of the CLI call over all ``results``, at the
    reference host speed."""
    seconds = sum(r["main_s"] * scale(r) for r in results)
    return items * len(results) / seconds if seconds else 0.0


def run(workload, seed, seconds, trace, out_dir):
    cfg = workload.make_config(seed)
    config_path = os.path.join(out_dir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(cfg.to_json())
    # The first set-up fills the bytecode cache; the others are samples.
    setups = []
    for _ in range(1 + SETUP_RUNS):
        result = set_up(config_path, out_dir)
        if result is None:
            break
        setups.append(result)
    setups = setups[1:]
    book = Run(workload, cfg, seed)
    plain, traced = [], []
    need = 2 * MIN_TRACED if trace else MIN_INVOCATIONS
    start = time.perf_counter()
    k = 0
    while True:
        is_traced = bool(trace) and k % 2 == 1
        t0 = time.perf_counter()
        result = invoke(workload, config_path, out_dir, k, int(is_traced))
        took = time.perf_counter() - t0
        if book.account(result):
            (traced if is_traced else plain).append(result)
        k += 1
        elapsed = time.perf_counter() - start
        # Stop before an invocation that would overrun the run; a run whose
        # invocations hang stops at twice its length.
        if elapsed + took > seconds and (k >= need or elapsed > 2 * seconds):
            break
    for r in plain + traced:
        r.pop("output")
    with open(os.path.join(out_dir, "samples.json"), "w", encoding="utf-8") as fh:
        json.dump({"setups": setups, "plain": plain, "traced": traced}, fh, indent=1)

    if not trace:
        metrics = {
            "setup_s": (median([scaled_setup(r, "setup_s") for r in setups + plain]), "s"),
            "items_per_s": (throughput(plain, book.items), "1/s"),
            "peak_rss_mb": (median([r["rss_kb"] / 1024 for r in plain]), "MB"),
        }
        return book, metrics, len(plain)
    counts = [{name: (e["calls"], e.get("distinct")) for name, e in r["trace"].items()}
              for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        book.failed += book.items
        witness(workload.name, seed, None, "traced call counts differ between invocations")
    return book, layer_metrics(traced, plain, setups, book.items), len(traced)


def layer_metrics(traced, plain, setups, items):
    """Per-layer metrics: counts from the first traced invocation (they
    agree across invocations), times as medians over the traced ones at the
    reference host speed.  ``host.*`` show the host's own speed: the CPU
    time of one probe unit beside the call, and the throughput before
    scaling."""
    first = traced[0]["trace"] if traced else {}
    out = {}
    for prefix, kinds in LAYERS.items():
        calls = first.get(prefix, {}).get("calls", 0)
        for kind in kinds:
            if kind == "calls":
                value = calls
            elif kind == "self_s":
                value = median([r["trace"].get(prefix, {}).get("self_s", 0.0) * scale(r)
                                for r in traced])
            else:
                value = first[prefix]["distinct"] / calls if calls else 0.0
            out[f"{prefix}.{kind}"] = (value, UNITS[kind])
    out["surface.holonomy.calls_per_item"] = (
        out["surface.holonomy.calls"][0] / items, "calls/item")
    out["cli.output_bytes"] = (traced[0]["output_bytes"] if traced else 0, "B")
    both = setups + traced + plain
    out["setup.import_s"] = (median([scaled_setup(r, "import_s") for r in both]), "s")
    out["setup.marking_s"] = (median([scaled_setup(r, "marking_s") for r in both]), "s")
    traced_rate = throughput(traced, items)
    overhead = throughput(plain, items) / traced_rate - 1.0 if traced_rate else 0.0
    out["trace.overhead_frac"] = (overhead, "frac")
    out["host.probe_s"] = (median([r["probe_s"] for r in traced + plain]), "s")
    seconds = sum(r["main_s"] for r in plain)
    out["host.unscaled_items_per_s"] = (items * len(plain) / seconds if seconds else 0.0,
                                        "1/s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so that the running child is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "teichspace", "cli.py")):
        print(f"no teichspace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(ROOT, ".bench_out",
                           f"{workload.name}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)

    book, metrics, samples = run(workload, args.seed, args.seconds, args.trace, out_dir)
    failed_frac = book.failed / book.attempted
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"invocations {samples}  items/invocation {book.items}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(f"  {'failed_frac':44s} {failed_frac:14.6g} frac "
          f"({book.failed} of {book.attempted} items)")
    print(f"  output check: {'PASS' if book.failed == 0 else 'FAIL'}")
    summary = {
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
