"""One CLI invocation in a fresh process, timed from the inside.

Usage::

    python3 bench/child.py RESULT_JSON TRACE SPANS_CSV CONFIG_JSON -- [CLI_ARGS...]

Times the set-up (importing ``teichspace``, parsing the config, building
the marking) and the call of ``teichspace.cli.main(CLI_ARGS)``, then writes
the timings, the peak resident memory and, when TRACE is 1, the per-layer
span summary to RESULT_JSON.  Without CLI_ARGS only the set-up runs.  An
exception from the CLI is recorded in the result and makes the exit code 1.

The process is pinned to one CPU, and a thread of the host-speed probe
(``probe.py``) runs beside the set-up and again beside the call.  Set-up
and call are timed by the CPU time of the main thread (``setup_s``,
``main_s``), and so are the spans when tracing; ``setup_probe_s`` and
``probe_s`` are the CPU time of one probe unit beside each.
"""

import json
import os
import resource
import sys
import time
import traceback

from probe import Sampler

# Fewest probe units that end beside the set-up and beside the call.
SETUP_PROBES = 10
CALL_PROBES = 5
# How long each thread runs before the other takes its turn: long enough
# that the turns cost the call little, short against the host's drift.
SWITCH_S = 0.02


def main(argv) -> int:
    result_path, trace, spans_path, config_path = argv[:4]
    cli_args = argv[argv.index("--") + 1:]
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.setswitchinterval(SWITCH_S)

    sampler = Sampler(matrices=False).start()
    since = sampler.done
    w0, t0 = time.perf_counter(), time.thread_time()
    from teichspace import cli
    from teichspace.harness import ExperimentConfig
    from teichspace.surface import build_marking
    t1 = time.thread_time()
    with open(config_path, encoding="utf-8") as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    build_marking(cfg.g, cfg.n)
    t2 = time.thread_time()
    result = {"import_s": t1 - t0, "marking_s": t2 - t1, "setup_s": t2 - t0,
              "setup_wall_s": time.perf_counter() - w0,
              "setup_probe_s": sampler.finish(since, SETUP_PROBES), "error": None}

    if cli_args:
        tracer = None
        if trace == "1":
            from tracer import Tracer
            tracer = Tracer(run_id=f"{cfg.seed}-{time.time_ns()}").install()
        sampler = Sampler().start()
        since = sampler.done
        w3, t3 = time.perf_counter(), time.thread_time()
        try:
            if tracer is None:
                cli.main(cli_args)
            else:
                tracer.root(cli.main, cli_args)
        except Exception as exc:  # reported to the benchmark as a failed run
            result["error"] = {"type": type(exc).__name__, "message": str(exc),
                               "traceback": traceback.format_exc()}
        result["main_s"] = time.thread_time() - t3
        result["main_wall_s"] = time.perf_counter() - w3
        result["probe_s"] = sampler.finish(since, CALL_PROBES)
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary()
            tracer.write_spans(spans_path)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if result["error"] is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
