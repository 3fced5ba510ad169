"""Command-line front end: single evaluations, figure sweeps, agreement checks.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (a
quadrature that misses its tolerance, or an estimate outside [0, 1]), 4
agreement check failed in `compare`.  A key-value config file (FDCELL_CONFIG
or --config) supplies defaults; flags override it.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from dataclasses import fields, replace

from .model import EstimateRangeError, NetworkParams, Scenario
from .quadrature import QuadratureConfig, QuadratureError
from .closedform import REQUIREMENTS, applicable
from .simulate import SimConfig, SimMode
from .sweep import (
    PRESETS,
    VARIABLES,
    ConfigError,
    SweepRow,
    SweepSpec,
    build_preset,
    compare_report,
    make_grid,
    rows_from_csv,
    rows_to_csv,
    rows_to_jsonl,
    run_sweep,
    sweep_rows,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_COMPARE = 4

CONFIG_ENV = "FDCELL_CONFIG"

# Config keys: each field of the settings classes under its own name, or the
# name of its flag where that differs, cast to the type of its default.
_ALIASES = {"lam": "lambda", "p_b": "pb", "p_u": "pu"}
_KEYS = {_ALIASES.get(f.name, f.name): (f.name, type(f.default))
         for cls in (NetworkParams, SimConfig, QuadratureConfig)
         for f in fields(cls)}
_KEYS.update(rate=("rate", float), out=("out", str))
# what a preset fixes itself, so their flags are rejected with --preset
_PRESET_FIXED = tuple(f.name for f in fields(NetworkParams)) + (
    "rate", "variable", "grid", "li_levels", "scenarios")
# the setting each swept variable's grid replaces, so its flag is rejected;
# a bs_power sweep keeps --pb, which sets the p_u/p_b ratio
_SWEPT = {"rate": "rate", "density": "lam", "residual_li": "sigma_l2"}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_CONFIG
    try:
        defaults = _load_config(args.config)
        return args.handler(args, defaults)
    except (EstimateRangeError, QuadratureError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: building it costs
    more than a cheap query, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="fdcell",
        description="Downlink outage of full-duplex cellular networks.")
    parser.add_argument("--config", help="key-value config file "
                        f"(default: ${CONFIG_ENV})")
    sub = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--lambda", dest="lam", type=float, help="BS/user density")
    params.add_argument("--alpha1", type=float, help="BS-user path-loss exponent")
    params.add_argument("--alpha2", type=float, help="user-user path-loss exponent")
    params.add_argument("--pb", dest="p_b", type=float, help="BS transmit power")
    params.add_argument("--pu", dest="p_u", type=float, help="user transmit power")
    params.add_argument("--sigma-n2", dest="sigma_n2", type=float, help="noise power")
    params.add_argument("--sigma-l2", dest="sigma_l2", type=float,
                        help="residual loop-interference gain")
    params.add_argument("--mu", type=float,
                        help="fading rate; scales the noise and loop terms")

    mc = argparse.ArgumentParser(add_help=False)
    mc.add_argument("--trials", type=int, help="Monte Carlo trials")
    mc.add_argument("--seed", type=int, help="RNG seed")
    mc.add_argument("--mode", choices=[m.value for m in SimMode],
                    help="uplink realization mode")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file (stdout when absent)")
    out.add_argument("--jsonl", action="store_true",
                     help="write JSON lines instead of CSV")

    p = sub.add_parser("analytic", parents=[params, out],
                       help="one analytic outage value")
    p.add_argument("--scenario", required=True,
                   choices=[s.value for s in Scenario])
    p.add_argument("--rate", type=float, help="target rate, bits per channel use")
    p.add_argument("--method", choices=["general", "closed"], default="general")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("simulate", parents=[params, mc, out],
                       help="one Monte Carlo outage estimate")
    p.add_argument("--scenario", required=True,
                   choices=[s.value for s in Scenario])
    p.add_argument("--rate", type=float, help="target rate, bits per channel use")
    p.add_argument("--workers", type=int, default=1,
                   help="threads over blocks of trials, same result for any count")
    p.set_defaults(handler=_cmd_estimate)

    p = sub.add_parser("sweep", parents=[params, mc, out],
                       help="reproduce a figure preset or a custom sweep")
    p.add_argument("--preset", choices=PRESETS)
    p.add_argument("--variable", choices=VARIABLES)
    p.add_argument("--grid", help="lo:hi:steps[:log|linear] or comma list")
    p.add_argument("--scenarios", help="comma list of scenarios (default all)")
    p.add_argument("--li-levels", dest="li_levels",
                   help="comma list of sigma_l2 levels for two-node runs")
    p.add_argument("--methods",
                   help="comma subset of analytic,closed-form,mc "
                        "(default analytic; also narrows presets)")
    p.add_argument("--rate", type=float,
                   help="fixed target rate for non-rate sweeps")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("compare", help="score analytic vs mc rows of a sweep file")
    p.add_argument("--in", dest="infile", required=True, help="sweep CSV file")
    p.add_argument("--max-flagged-frac", type=float, default=0.01,
                   help="acceptable fraction of pairs with z > 3")
    p.set_defaults(handler=_cmd_compare)
    return parser


def _load_config(path: str | None) -> dict:
    """Parse `key = value` lines; '-' and '_' in keys are interchangeable."""
    path = path or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    values: dict = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                key = key.strip().replace("-", "_")
                val = val.strip()
                if key not in _KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                dest, cast = _KEYS[key]
                try:
                    values[dest] = cast(val)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: "
                                      f"{exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _setting(name: str, args, defaults: dict):
    """A setting from its flag, else its config key, else None."""
    flag = getattr(args, name, None)
    return flag if flag is not None else defaults.get(name)


def _settings(cls, args, defaults: dict):
    """cls with each field from _setting, else cls's own default."""
    kwargs = {}
    for f in fields(cls):
        value = _setting(f.name, args, defaults)
        if value is not None:
            # the --mode flag arrives as a string, all else already cast
            kwargs[f.name] = type(f.default)(value)
    return cls(**kwargs)


def _rate(args, defaults: dict) -> float:
    rate = _setting("rate", args, defaults)
    if rate is None:
        raise ConfigError("a target rate is required (--rate or config file)")
    return rate


def _emit_rows(rows: list[SweepRow], args, defaults: dict) -> None:
    """Write rows to --out, or to stdout."""
    text = rows_to_jsonl(rows) if args.jsonl else rows_to_csv(rows)
    out = _setting("out", args, defaults)
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _cmd_estimate(args, defaults: dict) -> int:
    """One outage by the command's route: the single row of a one-point rate
    sweep."""
    if args.command == "simulate":
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        method, config = "mc", {"sim": _settings(SimConfig, args, defaults)}
    else:
        method = "closed-form" if args.method == "closed" else "analytic"
        config = {"quad": _settings(QuadratureConfig, args, defaults)}
    spec = SweepSpec("rate", (_rate(args, defaults),),
                     scenarios=(Scenario(args.scenario),), methods=(method,),
                     fixed=_settings(NetworkParams, args, defaults), **config)
    if method == "closed-form" and not applicable(spec.fixed):
        raise ConfigError(f"closed form needs {REQUIREMENTS}")
    _emit_rows(sweep_rows(spec, workers=getattr(args, "workers", 1)), args,
               defaults)
    return EXIT_OK


def _parse_grid(text: str) -> tuple[float, ...]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise ConfigError("grid must be lo:hi:steps[:log|linear]")
        spacing = parts[3] if len(parts) == 4 else "linear"
        return make_grid(float(parts[0]), float(parts[1]), int(parts[2]), spacing)
    return tuple(float(v) for v in text.split(","))


def _cmd_sweep(args, defaults: dict) -> int:
    sim = _settings(SimConfig, args, defaults)
    quad = _settings(QuadratureConfig, args, defaults)
    methods = tuple(m.strip() for m in args.methods.split(",")) \
        if args.methods else None
    if args.preset:
        fixed = [name for name in _PRESET_FIXED
                 if getattr(args, name) is not None]
        if fixed:
            raise ConfigError("--preset fixes its own settings; drop " + ", ".join(
                "--" + _ALIASES.get(n, n).replace("_", "-") for n in fixed))
        (spec,) = build_preset(args.preset, sim, quad)
        if methods:
            spec = replace(spec, methods=methods)
    else:
        if not args.variable or not args.grid:
            raise ConfigError("custom sweeps need --variable and --grid "
                              "(or use --preset)")
        scenarios = tuple(Scenario(s.strip()) for s in (
            args.scenarios or "two-node,three-node,half-duplex").split(","))
        li = tuple(float(v) for v in args.li_levels.split(",")) \
            if args.li_levels else ()
        spec = SweepSpec(variable=args.variable, grid=_parse_grid(args.grid),
                         scenarios=scenarios, li_levels=li,
                         fixed=_settings(NetworkParams, args, defaults),
                         methods=methods or ("analytic",),
                         rate=_rate(args, defaults) if args.variable != "rate"
                         else 0.0,
                         sim=sim, quad=quad)
        swept = _SWEPT.get(args.variable)
        if swept and getattr(args, swept) is not None:
            raise ConfigError(f"--variable {args.variable} sweeps that setting; "
                              "drop --" + _ALIASES.get(swept, swept).replace("_", "-"))
    _emit_rows(run_sweep(spec), args, defaults)
    return EXIT_OK


def _cmd_compare(args, defaults: dict) -> int:
    if not 0.0 <= args.max_flagged_frac <= 1.0:
        raise ConfigError("--max-flagged-frac must be in [0, 1], got "
                          f"{args.max_flagged_frac}")
    try:
        with open(args.infile) as fh:
            rows = rows_from_csv(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read {args.infile}: {exc}") from exc
    report = compare_report(rows)
    if report.notice:
        print(report.notice, file=sys.stderr)
        return EXIT_CONFIG
    for p in report.pairs:
        mark = "  FLAG" if p.flagged else ""
        print(f"{p.scenario} {p.variable}={p.value:.10g} sigma_l2={p.sigma_l2:.10g}"
              f" analytic={p.analytic:.6f} mc={p.mc:.6f} z={p.z:.2f}{mark}")
    print(f"pairs={report.n_pairs} flagged={report.n_flagged} "
          f"max_z={report.max_z:.2f}")
    if report.flagged_fraction > args.max_flagged_frac:
        print(f"agreement check failed: {report.flagged_fraction:.1%} of pairs "
              f"flagged (allowed {args.max_flagged_frac:.1%})", file=sys.stderr)
        return EXIT_COMPARE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
