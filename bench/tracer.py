"""Span tracer that wraps teichspace's public functions from outside.

A public function is often bound in several modules (``holonomy`` lives in
``surface`` and is imported into ``curves``; the estimators are imported
into ``metrics``, ``harness`` and ``cli``).  :meth:`Tracer.install` finds
every binding of each traced function in every loaded ``teichspace``
module and replaces it with one shared wrapper, so a call is seen whichever
name it goes through.  Module-internal calls go through the module's
globals and are seen too.

Spans are ``(name, start_ns, end_ns, parent)`` tuples kept in memory; the
times are the CPU time of the calling thread, so that a probe thread
taking turns with it (``probe.py``) does not count.  The run id is the
same for every span of one process.  Self time of a span is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time


def _point_key(args, kwargs):
    fn = args[0] if args else kwargs["fn"]
    return (fn.lengths, fn.twists, fn.boundary)


def _boundary_key(args, kwargs):
    return tuple(args[0] if args else kwargs["boundary_lengths"])


# (defining module, function name, key for the distinct-input ratio or None)
TARGETS = (
    ("pants_trig", "orthogeodesic_between", None),
    ("pants_trig", "orthogeodesic_self", None),
    ("pants_trig", "gap_constants", _boundary_key),
    ("surface", "holonomy", _point_key),
    ("surface", "curve_length", None),
    ("curves", "enumerate_curves", None),
    ("curves", "family_lengths", _point_key),
    ("curves", "arc_length_formula", None),
    ("curves", "pants_neighborhood_boundaries", None),
    ("metrics", "thurston_lower", None),
    ("metrics", "arc_lower", None),
    ("metrics", "teich_interval_report", None),
    ("harness", "sample_point", None),
    ("harness", "compare_metrics", None),
    ("harness", "verify_arc_construction", None),
    ("harness", "almost_isometry_report", None),
)

ROOT = "cli.main"


class Tracer:
    """Records spans for the traced functions while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.distinct = {}
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, key):
        spans, stack, clock = self.spans, self._stack, time.thread_time_ns
        seen = self.distinct.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(key(args, kwargs))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()

        wrapper.__traced__ = fn
        return wrapper

    def install(self) -> "Tracer":
        """Wrap every binding of every target in the loaded modules."""
        modules = [mod for modname, mod in sorted(sys.modules.items())
                   if modname == "teichspace" or modname.startswith("teichspace.")]
        for modname, funcname, key in TARGETS:
            orig = getattr(sys.modules["teichspace." + modname], funcname)
            wrapper = self._wrap(f"{modname}.{funcname}", orig, key)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, orig))
        return self

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def root(self, fn, *args):
        """Call ``fn(*args)`` inside the root span of the run."""
        return self._wrap(ROOT, fn, None)(*args)

    def summary(self) -> dict:
        """Per-name ``calls``, ``self_s`` and ``distinct`` (where keyed)."""
        calls, total, child = {}, {}, {}
        for name, start, end, parent in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0) + dur
        out = {}
        for name in calls:
            entry = {"calls": calls[name],
                     "self_s": (total[name] - child.get(name, 0)) * 1e-9}
            if name in self.distinct:
                entry["distinct"] = len(self.distinct[name])
            out[name] = entry
        return out

    def write_spans(self, path: str) -> None:
        """Write spans as CSV: run id, span id, parent id, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{self.run_id},{idx},{parent},{name},{start},{end}\n")
