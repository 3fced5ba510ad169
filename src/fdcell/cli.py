"""Command-line front end: single evaluations, figure sweeps, agreement checks.

Exit codes: 0 success, 2 configuration error, 3 quadrature failure,
4 agreement check failed in `compare`.  A key-value config file (FDCELL_CONFIG
or --config) supplies defaults; flags override it.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

from .model import NetworkParams, Scenario
from .quadrature import QuadratureConfig, QuadratureError
from .simulate import SimConfig, SimMode, estimate_outage
from .sweep import (
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
)
from . import analytic, closedform

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_QUADRATURE = 3
EXIT_COMPARE = 4

CONFIG_ENV = "FDCELL_CONFIG"

_PARAM_KEYS = {
    "lambda": ("lam", float),
    "alpha1": ("alpha1", float),
    "alpha2": ("alpha2", float),
    "pb": ("p_b", float),
    "pu": ("p_u", float),
    "sigma_n2": ("sigma_n2", float),
    "sigma_l2": ("sigma_l2", float),
    "mu": ("mu", float),
}
_SIM_KEYS = {
    "trials": ("trials", int),
    "seed": ("seed", int),
    "mode": ("mode", str),
    "window_factor": ("window_factor", float),
}
_QUAD_KEYS = {
    "rel_tol_inner": ("rel_tol_inner", float),
    "rel_tol_outer": ("rel_tol_outer", float),
    "tail_cut": ("tail_cut", float),
    "max_subdivisions": ("max_subdivisions", int),
}
_OTHER_KEYS = {"rate": float, "out": str}


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
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QuadratureError as exc:
        print(f"quadrature failure: {exc} "
              f"(achieved {exc.achieved:g}, requested {exc.requested:g})",
              file=sys.stderr)
        return EXIT_QUADRATURE


def _build_parser() -> argparse.ArgumentParser:
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
    params.add_argument("--mu", type=float, help="fading rate (simulator only)")

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
    p.set_defaults(handler=_cmd_analytic)

    p = sub.add_parser("simulate", parents=[params, mc, out],
                       help="one Monte Carlo outage estimate")
    p.add_argument("--scenario", required=True,
                   choices=[s.value for s in Scenario])
    p.add_argument("--rate", type=float, help="target rate, bits per channel use")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel trial workers (result is identical)")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("sweep", parents=[params, mc, out],
                       help="reproduce a figure preset or a custom sweep")
    p.add_argument("--preset", choices=["fig2", "fig3", "fig4", "fig5"])
    p.add_argument("--variable", choices=["bs_power", "rate", "residual_li",
                                          "density"])
    p.add_argument("--grid", help="lo:hi:steps[:log|linear] or comma list")
    p.add_argument("--scenarios", help="comma list of scenarios",
                   default="two-node,three-node,half-duplex")
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
    known = {**_PARAM_KEYS, **_SIM_KEYS, **_QUAD_KEYS}
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
                if key in known:
                    dest, cast = known[key]
                    values[dest] = cast(val)
                elif key in _OTHER_KEYS:
                    values[key] = _OTHER_KEYS[key](val)
                else:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    return values


def _network_params(args, defaults: dict) -> NetworkParams:
    kwargs = {}
    for dest, _ in _PARAM_KEYS.values():
        flag = getattr(args, dest, None)
        if flag is not None:
            kwargs[dest] = flag
        elif dest in defaults:
            kwargs[dest] = defaults[dest]
    return NetworkParams(**kwargs)


def _sim_config(args, defaults: dict) -> SimConfig:
    kwargs = {}
    for dest, _ in _SIM_KEYS.values():
        flag = getattr(args, dest, None)
        if flag is not None:
            kwargs[dest] = flag
        elif dest in defaults:
            kwargs[dest] = defaults[dest]
    if "mode" in kwargs:
        kwargs["mode"] = SimMode(kwargs["mode"])
    return SimConfig(**kwargs)


def _quad_config(defaults: dict) -> QuadratureConfig:
    kwargs = {dest: defaults[dest] for dest, _ in _QUAD_KEYS.values()
              if dest in defaults}
    return QuadratureConfig(**kwargs)


def _rate(args, defaults: dict) -> float:
    if getattr(args, "rate", None) is not None:
        return args.rate
    if "rate" in defaults:
        return defaults["rate"]
    raise ConfigError("a target rate is required (--rate or config file)")


def _emit_rows(rows: list[SweepRow], args, defaults: dict,
               suffix: str = "") -> None:
    """Write rows to --out, with `suffix` inserted before its extension, or
    to stdout."""
    text = rows_to_jsonl(rows) if args.jsonl else rows_to_csv(rows)
    out = getattr(args, "out", None) or defaults.get("out")
    if not out:
        sys.stdout.write(text)
        return
    stem, dot, ext = out.rpartition(".")
    with open(f"{stem}{suffix}.{ext}" if dot else out + suffix, "w") as fh:
        fh.write(text)


def _cmd_analytic(args, defaults: dict) -> int:
    params = _network_params(args, defaults)
    quad = _quad_config(defaults)
    rate = _rate(args, defaults)
    scenario = Scenario(args.scenario)
    if args.method == "closed":
        if not closedform.applicable(params):
            raise ConfigError("closed form needs alpha1=alpha2=4, p_b=p_u, "
                              "sigma_n2=0 and mu=1")
        est = closedform.outage(scenario, params, rate, quad)
    else:
        est = analytic.outage(scenario, params, rate, quad)
    row = SweepRow(scenario.value, est.method.value, "rate", rate,
                   params.sigma_l2 if scenario is Scenario.TWO_NODE_FD else 0.0,
                   est.value, None, 0.0)
    _emit_rows([row], args, defaults)
    return EXIT_OK


def _cmd_simulate(args, defaults: dict) -> int:
    params = _network_params(args, defaults)
    sim = _sim_config(args, defaults)
    rate = _rate(args, defaults)
    scenario = Scenario(args.scenario)
    est = estimate_outage(params, scenario, rate, sim, workers=args.workers)
    row = SweepRow(scenario.value, est.method.value, "rate", rate,
                   params.sigma_l2 if scenario is Scenario.TWO_NODE_FD else 0.0,
                   est.value, est.stderr, 0.0)
    _emit_rows([row], args, defaults)
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
    sim = _sim_config(args, defaults)
    quad = _quad_config(defaults)
    methods = tuple(m.strip() for m in args.methods.split(",")) \
        if args.methods else None
    if args.preset:
        specs = build_preset(args.preset, sim, quad)
        if methods:
            specs = [replace(s, methods=methods) for s in specs]
    else:
        if not args.variable or not args.grid:
            raise ConfigError("custom sweeps need --variable and --grid "
                              "(or use --preset)")
        scenarios = tuple(Scenario(s.strip())
                          for s in args.scenarios.split(","))
        li = tuple(float(v) for v in args.li_levels.split(",")) \
            if args.li_levels else (0.0,)
        spec = SweepSpec(variable=args.variable, grid=_parse_grid(args.grid),
                         scenarios=scenarios, li_levels=li,
                         fixed=_network_params(args, defaults),
                         methods=methods or ("analytic",),
                         rate=_rate(args, defaults) if args.variable != "rate"
                         else 0.0,
                         sim=sim, quad=quad)
        specs = [spec]
    multi = len(specs) > 1
    for spec in specs:
        # one file per fixed-rate curve when a preset has several
        _emit_rows(run_sweep(spec), args, defaults,
                   suffix=f"_R{spec.rate:g}" if multi else "")
    return EXIT_OK


def _cmd_compare(args, defaults: dict) -> int:
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
