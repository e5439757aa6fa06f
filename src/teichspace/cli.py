"""Command-line interface for the experiment harness.

Subcommands: ``constants``, ``distance``, ``compare``, ``verify-arcs``,
``phi-experiment``, ``report``.  Experiments are configured by a JSON file
whose fields match :class:`teichspace.harness.ExperimentConfig`; the flags
``--seed``, ``--out`` and, where read, ``--depth`` and ``--format`` override
it.  Identical configurations produce byte-identical output files.

One table, ``_COMMANDS``, holds every subcommand's flags with their types or
choices, defaults and help, and ``_parse`` reads ``argv`` against it in one
pass.  Flags are given as ``--flag value`` or ``--flag=value`` and by their
exact names only: a prefix such as ``--conf`` is an unrecognized argument.
``-h``/``--help`` prints the flags and exits 0; a usage error prints the
usage line and ``<prog>: error: <message>`` to standard error and exits 2.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import re
import sys
from types import SimpleNamespace

from . import asymptotics, pants_trig
from .coords import FNPoint, build_marking
from .curves import length_table
from .harness import (
    COMPARE_COLUMNS,
    ExperimentConfig,
    almost_isometry_report,
    compare_metrics,
    csv_line,
    PHI_COLUMNS,
    phi_experiment,
    sample_point,
    sample_points,
    verify_arcs,
)
from .metrics import arc_of, teich_of, thurston_of
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
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = ExperimentConfig.from_json(fh.read())
    # Only the flags the subcommand defines are in ``args``.
    overrides = {k: v for k, v in vars(args).items()
                 if k in ("seed", "depth", "format", "out") and v is not None}
    return dataclasses.replace(cfg, **overrides)


def _cmd_constants(args) -> None:
    eps = args.eps
    if not math.isfinite(eps):
        raise pants_trig.DomainError(f"--eps must be finite, got {eps!r}")
    if args.cusps < 1:
        raise pants_trig.DomainError(
            f"--cusps must be at least 1, got {args.cusps!r}")
    boundary = []
    for v in filter(None, args.boundary.split(",")):
        try:
            boundary.append(float(v))
        except ValueError:
            raise pants_trig.DomainError(
                f"--boundary entries must be numbers, got {v!r}") from None
    between = pants_trig.between_arc_constants(boundary)
    gaps = pants_trig.gap_constants(boundary)
    try:
        truncation = asymptotics.cusp_truncation_constant(eps, args.cusps)
    except pants_trig.DomainError as err:
        truncation = None
        truncation_note = str(err)
    else:
        truncation_note = None
    try:
        dilation = asymptotics.bmms_dilation(itertools.repeat(eps, args.cusps))
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
    t1, t2 = length_table(x1, m, args.depth), length_table(x2, m, args.depth)
    payload = {"d_th": thurston_of(t1, t2).to_dict()}
    if t1.arcs:
        payload["d_a"] = arc_of(t1, t2).to_dict()
    payload["teich"] = teich_of(t1, t2).to_dict()
    _emit(json.dumps(payload, indent=2), args.out)


def _paired_samples(cfg: ExperimentConfig):
    # Points 2i and 2i + 1 form pair i; zip draws them in turn, lazily.
    points = sample_points(cfg, range(2 * cfg.samples))
    return zip(points, points)


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
    samples = list(sample_points(cfg, range(cfg.samples)))
    rep = almost_isometry_report(samples, m, cfg.depth, metric=args.metric)
    payload = {"config": _config_echo(cfg), "report": rep}
    _emit(json.dumps(payload, indent=2), cfg.out)


# Every subcommand maps to its handler, its help line and its flags in the
# order help lists them.  Every flag maps to its kind (``int``, ``float``,
# ``str``, a tuple of choices, or ``bool`` for a switch), its default
# (``_REQUIRED`` for none) and its help.
_REQUIRED = object()
_CONFIG = {"--config": (str, _REQUIRED, "experiment config JSON path"),
           "--seed": (int, None, "override the config's seed")}
_DEPTH = {"--depth": (int, None, "override the config's depth")}
_FORMAT = {"--format": (("csv", "json"), None, "override the config's format")}
_CONFIG_OUT = {"--out": (str, None, "override the config's output path")}
_OUT = {"--out": (str, None, "output path (default: standard output)")}

_COMMANDS = {
    "constants": (_cmd_constants, "dump closed-form constants as JSON", {
        "--boundary": (str, _REQUIRED, "comma-separated boundary lengths"),
        "--eps": (float, 1e-4, "horocycle length"),
        "--cusps": (int, 1, "number of cusps"),
        **_OUT}),
    "distance": (_cmd_distance, "metric estimates between two points", {
        "--x1": (str, _REQUIRED, "FN point JSON path"),
        "--x2": (str, _REQUIRED, "FN point JSON path"),
        "--depth": (int, 2, "curve family depth"),
        **_OUT}),
    "compare": (_cmd_compare, "metric comparison rows over sampled pairs",
                {**_CONFIG, **_DEPTH, **_FORMAT, **_CONFIG_OUT}),
    "verify-arcs": (_cmd_verify_arcs, "constructive arc/curve check", {
        **_CONFIG, **_CONFIG_OUT,
        "--summary-only": (bool, False, "leave out the per-pair reports")}),
    "phi-experiment": (
        _cmd_phi_experiment,
        "twist-ray comparison under forgetting boundary lengths", {
            **_CONFIG, **_DEPTH, **_FORMAT, **_CONFIG_OUT,
            "--ray-curve": (int, 0, "index of the cuff whose twist moves"),
            "--ray-step": (float, 0.5, "twist added per ray point"),
            "--ray-count": (int, 11, "number of ray points"),
            "--ceiling": (float, None, "fail if a difference exceeds it")}),
    "report": (_cmd_report, "almost-isometry distortion report", {
        **_CONFIG, **_DEPTH, **_CONFIG_OUT,
        "--metric": (("arc", "thurston"), "arc", "metric of the report")}),
}


def _invocation(flag: str, kind) -> str:
    if kind is bool:
        return flag
    if isinstance(kind, tuple):
        return f"{flag} {{{','.join(kind)}}}"
    return f"{flag} {flag[2:].upper().replace('-', '_')}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: teichspace [-h] {{{','.join(_COMMANDS)}}} ..."
    words = ["usage: teichspace", command, "[-h]"]
    for flag, (kind, default, _) in _COMMANDS[command][2].items():
        word = _invocation(flag, kind)
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _help(command: str | None):
    if command is None:
        lines = ["Numerics for Teichmueller spaces of bordered surfaces", "",
                 "subcommands:"]
        lines += [f"  {name:16s}{entry[1]}" for name, entry in _COMMANDS.items()]
    else:
        lines = [_COMMANDS[command][1], "", "options:",
                 f"  {'-h, --help':24s}show this help and exit"]
        for flag, (kind, default, text) in _COMMANDS[command][2].items():
            if default is _REQUIRED:
                text += " (required)"
            elif default is not None and kind is not bool:
                text += f" (default: {default})"
            lines.append(f"  {_invocation(flag, kind):24s}{text}")
    sys.stdout.write("\n".join([_usage(command), "", *lines, ""]))
    raise SystemExit(0)


def _fail(command: str | None, message: str):
    prog = "teichspace" if command is None else f"teichspace {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _invalid_choice(value: str, choices) -> str:
    return (f"invalid choice: {value!r} "
            f"(choose from {', '.join(map(repr, choices))})")


def _is_value(token: str) -> bool:
    # A token after a flag is its value unless it looks like a flag itself;
    # negative numbers are values.
    return (not token.startswith("-") or token == "-" or " " in token
            or re.fullmatch(r"-\d+|-\d*\.\d+", token) is not None)


def _parse(argv):
    """Return the handler of ``argv``'s subcommand and its flags.

    Flags are given as ``--flag value`` or ``--flag=value``, by their exact
    names; the namespace holds every flag of the subcommand under its name
    with ``_`` for ``-``.  ``-h``/``--help`` prints help and exits 0; a usage
    error prints the usage and the error to standard error and exits 2.
    """
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, *tokens = argv
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        _fail(None, "argument command: " + _invalid_choice(command, _COMMANDS))
    handler, _, flags = _COMMANDS[command]
    values = {flag: default for flag, (_, default, _) in flags.items()}
    unknown = []
    tokens = iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        flag, explicit, value = token.partition("=")
        if flag not in flags:
            unknown.append(token)
            continue
        kind = flags[flag][0]
        if kind is bool:
            if explicit:
                _fail(command, f"argument {flag}: ignored explicit argument "
                               f"{value!r}")
            values[flag] = True
            continue
        if not explicit:
            value = next(tokens, None)
            if value is None or not _is_value(value):
                _fail(command, f"argument {flag}: expected one argument")
        if isinstance(kind, tuple):
            if value not in kind:
                _fail(command, f"argument {flag}: "
                               + _invalid_choice(value, kind))
        elif kind is not str:
            try:
                value = kind(value)
            except ValueError:
                _fail(command, f"argument {flag}: invalid {kind.__name__} "
                               f"value: {value!r}")
        values[flag] = value
    missing = [flag for flag, value in values.items() if value is _REQUIRED]
    if missing:
        _fail(command, "the following arguments are required: "
                       + ", ".join(missing))
    if unknown:
        _fail(command, "unrecognized arguments: " + " ".join(unknown))
    return handler, SimpleNamespace(
        **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def main(argv=None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else argv)
    handler(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
