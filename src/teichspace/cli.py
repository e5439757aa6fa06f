"""Command-line interface for the experiment harness.

Subcommands: ``constants``, ``distance``, ``compare``, ``verify-arcs``,
``phi-experiment``, ``report``.  Experiments are configured by a JSON file
whose fields match :class:`teichspace.harness.ExperimentConfig`; ``--seed``
and ``--depth`` override the config.  Identical configurations produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import asymptotics, pants_trig
from .coords import FNPoint, build_marking
from .harness import (
    COMPARE_COLUMNS,
    ExperimentConfig,
    almost_isometry_report,
    compare_metrics,
    csv_line,
    PHI_COLUMNS,
    phi_experiment,
    sample_point,
    verify_arcs,
)
from .metrics import _tables, arc_of, teich_of, thurston_of
# Bound only because the benchmark's tracer test reads cli.thurston_lower.
from .metrics import thurston_lower  # noqa: F401


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _config_echo(cfg: ExperimentConfig) -> dict:
    # Reports embed the configuration that produced them, except the output
    # path: identical experiments must serialize to identical bytes
    # regardless of where they are written.
    return {**cfg.to_dict(), "out": None}


def _load_config(args) -> ExperimentConfig:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = ExperimentConfig.from_json(fh.read())
    else:
        raise SystemExit("this subcommand needs --config <json path>")
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.depth is not None:
        overrides["depth"] = args.depth
    if args.format is not None:
        overrides["format"] = args.format
    if args.out is not None:
        overrides["out"] = args.out
    return dataclasses.replace(cfg, **overrides)


def _cmd_constants(args) -> None:
    boundary = [float(v) for v in args.boundary.split(",") if v]
    between = pants_trig.between_arc_constants(boundary)
    gaps = pants_trig.gap_constants(boundary)
    eps = args.eps
    try:
        truncation = asymptotics.cusp_truncation_constant(eps, args.cusps)
    except pants_trig.DomainError as err:
        truncation = None
        truncation_note = str(err)
    else:
        truncation_note = None
    try:
        dilation = asymptotics.bmms_dilation([eps] * args.cusps)
    except pants_trig.DomainError as err:
        dilation, dilation_note = None, str(err)
    else:
        dilation_note = None
    payload = {
        "boundary": boundary,
        "between_arcs": {
            "lam": between.lam, "threshold": between.threshold,
            "arc_floor": between.arc_floor, "curve_cap": between.curve_cap,
            "ratio_const": between.ratio_const},
        "self_arc_const": gaps.c_self,
        "comparison": {"c": gaps.c, "gap": gaps.gap},
        "eps": eps,
        "cusps": args.cusps,
        "cusp_radius": asymptotics.cusp_radius(eps) if 0 < eps <= 1 else None,
        "cusp_truncation": truncation,
        "cusp_truncation_note": truncation_note,
        "bmms_dilation": dilation,
        "bmms_dilation_note": dilation_note,
        "bounds": asymptotics.comparison_bounds(args.cusps),
        "nielsen_k_infinity": asymptotics.nielsen_k_infinity(max(boundary)),
    }
    _emit(json.dumps(payload, indent=2), args.out)


def _read_point(path: str) -> FNPoint:
    with open(path, "r", encoding="utf-8") as fh:
        return FNPoint.from_json(fh.read())


def _cmd_distance(args) -> None:
    x1, x2 = _read_point(args.x1), _read_point(args.x2)
    m = build_marking(x1.g, x1.n)
    depth = args.depth if args.depth is not None else 2
    t1, t2 = _tables(x1, x2, m, depth)
    payload = {"d_th": thurston_of(t1, t2).to_dict()}
    if all(x1.boundary):
        payload["d_a"] = arc_of(t1, t2).to_dict()
    payload["teich"] = teich_of(t1, t2).to_dict()
    _emit(json.dumps(payload, indent=2), args.out)


def _paired_samples(cfg: ExperimentConfig):
    for i in range(cfg.samples):
        yield sample_point(cfg, 2 * i), sample_point(cfg, 2 * i + 1)


def _cmd_compare(args) -> None:
    cfg = _load_config(args)
    m = cfg.marking()
    rows = [compare_metrics(x1, x2, m, cfg.depth)
            for x1, x2 in _paired_samples(cfg)]
    if cfg.format == "csv":
        lines = [",".join(COMPARE_COLUMNS)]
        lines += [csv_line(r, COMPARE_COLUMNS) for r in rows]
        _emit("\n".join(lines), cfg.out)
    else:
        _emit(json.dumps({"config": _config_echo(cfg), "rows": rows},
                         indent=2), cfg.out)


def _cmd_verify_arcs(args) -> None:
    cfg = _load_config(args)
    m = cfg.marking()
    pairs = checked = passed = 0
    failures, reports = [], []
    for r in verify_arcs(_paired_samples(cfg), m):
        pairs += 1
        checked += r["checked"]
        passed += r["passed"]
        if not r["all_passed"]:
            failures.append(r)
        if not args.summary_only:
            reports.append(r)
    payload = {
        "config": _config_echo(cfg),
        "pairs": pairs,
        "checked": checked,
        "passed": passed,
        "pass_rate": 1.0 if checked == 0 else passed / checked,
        "failures": failures,
    }
    if not args.summary_only:
        payload["reports"] = reports
    _emit(json.dumps(payload, indent=2), cfg.out)


def _cmd_phi_experiment(args) -> None:
    cfg = _load_config(args)
    m = cfg.marking()
    x = sample_point(cfg, 0)
    report = phi_experiment(x, m, curve_index=args.ray_curve,
                            step=args.ray_step, count=args.ray_count,
                            depth=cfg.depth, ceiling=args.ceiling)
    if cfg.format == "csv":
        lines = [",".join(PHI_COLUMNS)]
        lines += [csv_line(r, PHI_COLUMNS) for r in report["rows"]]
        lines.append(f"# max_difference,{report['max_difference']:.17g}")
        _emit("\n".join(lines), cfg.out)
    else:
        _emit(json.dumps(report, indent=2), cfg.out)


def _cmd_report(args) -> None:
    cfg = _load_config(args)
    m = cfg.marking()
    samples = [sample_point(cfg, i) for i in range(cfg.samples)]
    rep = almost_isometry_report(samples, m, cfg.depth, metric=args.metric)
    payload = {"config": _config_echo(cfg),
               "report": rep.to_dict()}
    _emit(json.dumps(payload, indent=2), cfg.out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="teichspace",
        description="Numerics for Teichmueller spaces of bordered surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--out", default=None)

    p = sub.add_parser("constants", help="dump closed-form constants as JSON")
    p.add_argument("--boundary", required=True,
                   help="comma-separated boundary lengths")
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--cusps", type=int, default=1)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("distance", help="metric estimates between two points")
    p.add_argument("--x1", required=True, help="FN point JSON path")
    p.add_argument("--x2", required=True, help="FN point JSON path")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_distance)

    p = sub.add_parser("compare", help="metric comparison rows over sampled pairs")
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("verify-arcs", help="constructive arc/curve check")
    common(p)
    p.add_argument("--summary-only", action="store_true")
    p.set_defaults(func=_cmd_verify_arcs)

    p = sub.add_parser("phi-experiment", help="twist-ray comparison under "
                                              "forgetting boundary lengths")
    common(p)
    p.add_argument("--ray-curve", type=int, default=0)
    p.add_argument("--ray-step", type=float, default=0.5)
    p.add_argument("--ray-count", type=int, default=11)
    p.add_argument("--ceiling", type=float, default=None)
    p.set_defaults(func=_cmd_phi_experiment)

    p = sub.add_parser("report", help="almost-isometry distortion report")
    common(p)
    p.add_argument("--metric", choices=("arc", "thurston"), default="arc")
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
