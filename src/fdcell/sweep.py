"""Parameter sweeps producing plot-ready tables, and analytic-vs-MC agreement.

A sweep enumerates (scenario x method x grid point x loop-interference level)
and emits one row per combination with a fixed CSV schema:

    scenario,method,variable,value,sigma_l2,outage,mc_stderr,elapsed_ms

Rows are ordered by (scenario, method, grid index, sigma_l2) regardless of
how the work was scheduled, and all value columns are rendered with 10
significant digits so files round-trip exactly.  elapsed_ms is wall time and
is the one column excluded from rerun-identity guarantees.
"""

from __future__ import annotations

import io
import json
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analytic, closedform
from .model import Method, NetworkParams, Scenario
from .quadrature import QuadratureConfig
from .simulate import SimConfig, estimate_outage, simulate_sinr

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SweepRow",
    "CSV_HEADER",
    "make_grid",
    "run_sweep",
    "PairAgreement",
    "AgreementReport",
    "compare_report",
    "rows_to_csv",
    "rows_from_csv",
    "rows_to_jsonl",
    "PRESETS",
    "build_preset",
]

log = logging.getLogger(__name__)

VARIABLES = ("bs_power", "rate", "residual_li", "density")
METHOD_NAMES = tuple(m.value for m in Method)

CSV_HEADER = "scenario,method,variable,value,sigma_l2,outage,mc_stderr,elapsed_ms"


class ConfigError(ValueError):
    """Invalid sweep or CLI configuration, reported before any computation."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which variable moves, over which grid, for which scenarios
    and methods.

    li_levels applies residual loop-interference levels to two-node runs
    only; empty, it means the single level fixed.sigma_l2.  rate is the fixed
    target rate when the swept variable is not the rate itself.  bs_power
    sweeps scale p_b to the grid value and p_u with it, preserving the
    configured p_u/p_b ratio.
    """

    variable: str
    grid: tuple[float, ...]
    scenarios: tuple[Scenario, ...] = (Scenario.TWO_NODE_FD,
                                       Scenario.THREE_NODE_FD,
                                       Scenario.HALF_DUPLEX)
    li_levels: tuple[float, ...] = ()
    fixed: NetworkParams = NetworkParams()
    methods: tuple[str, ...] = ("analytic",)
    rate: float = 0.1
    sim: SimConfig = SimConfig()
    quad: QuadratureConfig = QuadratureConfig()

    def __post_init__(self) -> None:
        if self.variable not in VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.variable!r}; "
                              f"expected one of {VARIABLES}")
        if not self.grid:
            raise ConfigError("sweep grid must not be empty")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        if not self.scenarios:
            raise ConfigError("at least one scenario is required")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}; expected subset of "
                                  f"{METHOD_NAMES}")
        if any(li < 0 for li in self.li_levels):
            raise ConfigError("li_levels must be >= 0")
        if self.rate < 0:
            raise ConfigError("rate must be >= 0")
        if self.variable == "rate" and any(v < 0 for v in self.grid):
            raise ConfigError("rate grid must be >= 0")
        if self.variable in ("bs_power", "density") and any(v <= 0 for v in self.grid):
            raise ConfigError(f"{self.variable} grid must be > 0")
        if self.variable == "residual_li" and any(v < 0 for v in self.grid):
            raise ConfigError("residual_li grid must be >= 0")


@dataclass(frozen=True)
class SweepRow:
    """One sweep result; mc_stderr is None for the analytic methods."""

    scenario: str
    method: str
    variable: str
    value: float
    sigma_l2: float
    outage: float
    mc_stderr: float | None
    elapsed_ms: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.outage <= 1.0:
            raise ValueError(f"outage {self.outage} outside [0, 1]")


def make_grid(lo: float, hi: float, steps: int, spacing: str = "linear") -> tuple[float, ...]:
    """Strictly increasing grid of `steps` points from lo to hi inclusive."""
    if steps < 1:
        raise ConfigError("grid needs at least one point")
    if steps == 1:
        return (float(lo),)
    if not hi > lo:
        raise ConfigError("grid upper bound must exceed lower bound")
    if spacing == "linear":
        return tuple(np.linspace(lo, hi, steps))
    if spacing == "log":
        if lo <= 0:
            raise ConfigError("log grids need a positive lower bound")
        return tuple(np.geomspace(lo, hi, steps))
    raise ConfigError(f"unknown grid spacing {spacing!r}; use linear or log")


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every (scenario x method x grid point x LI level) combination.

    Monte Carlo runs one simulation per sweep, whose blocks are drawn once
    for all the scenarios, and rescales each scenario's per-trial SINR parts
    at every grid point and LI level, whatever the swept variable: no swept
    parameter changes a realization.  The simulation's time is spread evenly
    over all of the sweep's Monte Carlo rows.
    """
    points = {s: _grid_points(spec, s) for s in spec.scenarios}
    parts, mc_ms = {}, 0.0
    if Method.MONTE_CARLO.value in spec.methods:
        t0 = time.perf_counter()
        parts = simulate_sinr(spec.fixed, spec.scenarios, spec.sim)
        mc_ms = (time.perf_counter() - t0) * 1e3 / sum(
            len(points[s]) for s in spec.scenarios)
    rows: list[SweepRow] = []
    for scenario in spec.scenarios:
        for method in spec.methods:
            shared_ms = mc_ms if method == Method.MONTE_CARLO.value else 0.0
            rows.extend(_run_method(spec, scenario, method, points[scenario],
                                    parts.get(scenario), shared_ms))
    order = {s.value: i for i, s in enumerate(Scenario)}
    grid_index = {v: i for i, v in enumerate(spec.grid)}
    rows.sort(key=lambda r: (order[r.scenario], r.method,
                             grid_index[r.value], r.sigma_l2))
    return rows


def _grid_points(spec: SweepSpec, scenario: Scenario) -> list[tuple[float, float]]:
    """(grid value, sigma_l2) of each of a scenario's rows; sigma_l2 is 0 off
    two-node, where loop interference does not arise."""
    if scenario is not Scenario.TWO_NODE_FD:
        return [(value, 0.0) for value in spec.grid]
    if spec.variable == "residual_li":
        return [(value, value) for value in spec.grid]
    return [(value, li) for li in spec.li_levels or (spec.fixed.sigma_l2,)
            for value in spec.grid]


def _params_at(spec: SweepSpec, value: float, li: float):
    """(params, rate) at one grid value and sigma_l2."""
    p = spec.fixed.replace(sigma_l2=li)
    if spec.variable == "bs_power":
        p = p.replace(p_b=value, p_u=p.p_u * value / p.p_b)
    elif spec.variable == "density":
        p = p.replace(lam=value)
    return p, value if spec.variable == "rate" else spec.rate


def _run_method(spec: SweepSpec, scenario: Scenario, method: str,
                points: list[tuple[float, float]], parts: np.ndarray | None,
                shared_ms: float) -> list[SweepRow]:
    """A scenario's rows by one method; Monte Carlo rescales `parts`, and
    each row's elapsed_ms includes `shared_ms`."""
    rows: list[SweepRow] = []
    for value, li in points:
        params, rate = _params_at(spec, value, li)
        t0 = time.perf_counter()
        if method == Method.ANALYTIC_GENERAL.value:
            est = analytic.outage(scenario, params, rate, spec.quad)
        elif method == Method.ANALYTIC_CLOSED_FORM.value:
            if not closedform.applicable(params):
                log.info("closed form not applicable for %s at %s=%g "
                         "(needs %s); skipped", scenario.value, spec.variable,
                         value, closedform.REQUIREMENTS)
                continue
            est = closedform.outage(scenario, params, rate, spec.quad)
        else:
            est = estimate_outage(params, scenario, rate, spec.sim, parts=parts)
        ms = shared_ms + (time.perf_counter() - t0) * 1e3
        stderr = est.stderr if est.method is Method.MONTE_CARLO else None
        rows.append(SweepRow(scenario.value, method, spec.variable, value,
                             li, est.value, stderr, ms))
    return rows


# ---------------------------------------------------------------------------
# agreement report


@dataclass(frozen=True)
class PairAgreement:
    scenario: str
    variable: str
    value: float
    sigma_l2: float
    analytic: float
    mc: float
    stderr: float
    z: float

    @property
    def flagged(self) -> bool:
        return self.z > 3.0


@dataclass
class AgreementReport:
    pairs: list[PairAgreement] = field(default_factory=list)
    notice: str | None = None

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def n_flagged(self) -> int:
        return sum(1 for p in self.pairs if p.flagged)

    @property
    def flagged_fraction(self) -> float:
        return self.n_flagged / self.n_pairs if self.pairs else 0.0

    @property
    def max_z(self) -> float:
        return max((p.z for p in self.pairs), default=0.0)


def compare_report(rows: list[SweepRow]) -> AgreementReport:
    """Pair analytic and Monte Carlo rows at identical grid coordinates and
    score each pair by |analytic - mc| / stderr, flagging scores above 3."""
    analytic_rows: dict[tuple, SweepRow] = {}
    mc_rows: dict[tuple, SweepRow] = {}
    for r in rows:
        key = (r.scenario, r.variable, r.value, r.sigma_l2)
        if r.method == Method.ANALYTIC_GENERAL.value:
            analytic_rows[key] = r
        elif r.method == Method.MONTE_CARLO.value:
            mc_rows[key] = r
    report = AgreementReport()
    for key in sorted(set(analytic_rows) & set(mc_rows),
                      key=lambda k: (k[0], k[1], k[2], k[3])):
        a, m = analytic_rows[key], mc_rows[key]
        diff = abs(a.outage - m.outage)
        stderr = m.mc_stderr or 0.0
        if stderr > 0:
            z = diff / stderr
        else:
            z = 0.0 if diff == 0.0 else math.inf
        report.pairs.append(PairAgreement(*key, a.outage, m.outage, stderr, z))
    if not report.pairs:
        report.notice = "no matchable analytic/mc pairs in the given rows"
    return report


# ---------------------------------------------------------------------------
# serialization

def _fmt(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.10g}"


def rows_to_csv(rows: list[SweepRow]) -> str:
    buf = io.StringIO()
    buf.write(CSV_HEADER + "\n")
    for r in rows:
        buf.write(",".join((r.scenario, r.method, r.variable, _fmt(r.value),
                            _fmt(r.sigma_l2), _fmt(r.outage), _fmt(r.mc_stderr),
                            _fmt(r.elapsed_ms))) + "\n")
    return buf.getvalue()


def rows_from_csv(text: str) -> list[SweepRow]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"expected header {CSV_HEADER!r}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 8:
            raise ConfigError(f"malformed row: {ln!r}")
        scenario, method, variable, value, sl, outage, stderr, ms = parts
        rows.append(SweepRow(scenario, method, variable, float(value), float(sl),
                             float(outage), float(stderr) if stderr else None,
                             float(ms)))
    return rows


def rows_to_jsonl(rows: list[SweepRow]) -> str:
    out = []
    for r in rows:
        out.append(json.dumps({
            "scenario": r.scenario, "method": r.method, "variable": r.variable,
            "value": float(_fmt(r.value)), "sigma_l2": float(_fmt(r.sigma_l2)),
            "outage": float(_fmt(r.outage)),
            "mc_stderr": None if r.mc_stderr is None else float(_fmt(r.mc_stderr)),
            "elapsed_ms": float(_fmt(r.elapsed_ms)),
        }))
    return "\n".join(out) + "\n" if out else ""


# ---------------------------------------------------------------------------
# figure presets

_ALL = (Scenario.TWO_NODE_FD, Scenario.THREE_NODE_FD, Scenario.HALF_DUPLEX)


def _fig2(sim: SimConfig, quad: QuadratureConfig) -> list[SweepSpec]:
    """Outage vs BS power at unit noise: P_b = P_u over a log grid."""
    return [SweepSpec(variable="bs_power", grid=make_grid(1e-2, 1e4, 13, "log"),
                      scenarios=_ALL, li_levels=(0.0, 1e-3),
                      fixed=NetworkParams(sigma_n2=1.0),
                      methods=("analytic", "mc"), rate=0.1, sim=sim, quad=quad)]


def _fig3(sim: SimConfig, quad: QuadratureConfig) -> list[SweepSpec]:
    """Outage vs target rate, interference-limited."""
    return [SweepSpec(variable="rate", grid=make_grid(0.0, 4.0, 41),
                      scenarios=_ALL, li_levels=(0.0, 1e-5, 1e-3),
                      fixed=NetworkParams(),
                      methods=("analytic", "closed-form", "mc"),
                      sim=sim, quad=quad)]


def _fig4(sim: SimConfig, quad: QuadratureConfig) -> list[SweepSpec]:
    """Two-node outage vs residual loop gain, one sweep per target rate.

    The per-curve rates {0.5, 1, 2} are this package's documented choice; the
    swept grid spans the regime where the loop residual goes from negligible
    to dominant.
    """
    return [SweepSpec(variable="residual_li", grid=make_grid(1e-6, 1e-1, 11, "log"),
                      scenarios=(Scenario.TWO_NODE_FD,),
                      fixed=NetworkParams(),
                      methods=("analytic", "closed-form", "mc"),
                      rate=rate, sim=sim, quad=quad)
            for rate in (0.5, 1.0, 2.0)]


def _fig5(sim: SimConfig, quad: QuadratureConfig) -> list[SweepSpec]:
    """Outage vs network density at a low target rate, interference-limited."""
    return [SweepSpec(variable="density", grid=make_grid(1e-4, 1e-2, 9, "log"),
                      scenarios=_ALL, li_levels=(0.0, 1e-3, 1e-1),
                      fixed=NetworkParams(),
                      methods=("analytic", "closed-form", "mc"),
                      rate=0.1, sim=sim, quad=quad)]


PRESETS = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}


def build_preset(name: str, sim: SimConfig | None = None,
                 quad: QuadratureConfig | None = None) -> list[SweepSpec]:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of "
                          f"{sorted(PRESETS)}")
    return PRESETS[name](sim or SimConfig(), quad or QuadratureConfig())
