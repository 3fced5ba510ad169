"""Parameter sweeps producing plot-ready tables, and analytic-vs-MC agreement.

A sweep enumerates (scenario x method x grid point x loop-interference level)
and emits one row per combination.  The columns of the fixed CSV schema, and
the keys of a JSON line in the same order, are the fields of SweepRow:

    scenario,method,variable,value,sigma_l2,outage,mc_stderr,elapsed_ms

Rows come in the order (scenario, method, grid value, sigma_l2), whatever
the order of the spec's entries, and all value columns are rendered with 10
significant digits so files round-trip exactly.  elapsed_ms is wall time and
is the one column excluded from rerun-identity guarantees.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import operator
import sys
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import analytic, closedform
from .model import Method, NetworkParams, Scenario, threshold_from_rate
from .quadrature import QuadratureConfig, inner_integral_memo
from .simulate import SimConfig, estimate_outage, simulate_sinr

__all__ = [
    "ConfigError",
    "SweepSpec",
    "SweepRow",
    "CSV_HEADER",
    "make_grid",
    "run_sweep",
    "sweep_rows",
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


class ConfigError(ValueError):
    """Invalid sweep or CLI configuration, reported before any computation."""


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: which variable moves, over which grid, for which scenarios
    and methods.

    li_levels applies residual loop-interference levels to two-node runs
    only, and is rejected where no row reads it (sigma_l2 swept, or no
    two-node scenario); empty, it means the single level fixed.sigma_l2.
    rate is the fixed target rate when the swept variable is not the rate
    itself.  bs_power sweeps set p_b to the grid value and p_u to it times
    p_u/p_b, so equal powers stay equal: at any accepted grid value, no
    swept variable changes whether closedform.applicable holds.

    plan, worked out once here, holds (scenario, rows) per scenario and
    (grid value, sigma_l2, params, rate) per row, both in output order, with
    sigma_l2 0 and params at fixed.sigma_l2 off two-node; it builds each
    distinct model once, so a bad density or loop level fails before any row.
    """

    variable: str
    grid: tuple[float, ...]
    scenarios: tuple[Scenario, ...] = tuple(Scenario)
    li_levels: tuple[float, ...] = ()
    fixed: NetworkParams = NetworkParams()
    methods: tuple[str, ...] = ("analytic",)
    rate: float = 0.1
    sim: SimConfig = SimConfig()
    quad: QuadratureConfig = QuadratureConfig()
    plan: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.variable not in VARIABLES:
            raise ConfigError(f"unknown sweep variable {self.variable!r}; "
                              f"expected one of {VARIABLES}")
        if not self.grid:
            raise ConfigError("sweep grid must not be empty")
        if not all(a < b for a, b in zip(self.grid, self.grid[1:])):
            raise ConfigError("sweep grid must be strictly increasing")
        if not self.scenarios:
            raise ConfigError("at least one scenario is required")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}; expected subset of "
                                  f"{METHOD_NAMES}")
        for name in ("scenarios", "methods", "li_levels"):
            entries = getattr(self, name)
            if len(set(entries)) != len(entries):
                raise ConfigError(f"{name} must not repeat an entry")
        has_two_node = Scenario.TWO_NODE_FD in self.scenarios
        if self.li_levels and (self.variable == "residual_li" or not has_two_node):
            raise ConfigError("li_levels apply to two-node rows at a fixed "
                              "sigma_l2; no row of this sweep reads them")
        if self.variable == "residual_li" and not has_two_node:
            raise ConfigError("a residual_li sweep needs the two-node scenario, "
                              "the only one whose rows read sigma_l2")
        if not self.rate >= 0:
            raise ConfigError("rate must be >= 0")
        if not math.isfinite(self.rate):
            raise ConfigError(f"rate must be finite, got {self.rate}")
        if not all(map(math.isfinite, self.grid)):
            raise ConfigError(f"{self.variable} grid must be finite")
        # p_b times p_u/p_b can round back to p_b where p_b is subnormal, or
        # the smallest normal and p_u/p_b one ulp below 1 (a tie)
        if self.variable == "bs_power" and self.grid[0] <= sys.float_info.min:
            raise ConfigError(f"bs_power grid must be > {sys.float_info.min:g}, "
                              "the smallest normal double")
        elif self.variable == "rate" and not all(v >= 0 for v in self.grid):
            raise ConfigError("rate grid must be >= 0")
        plan, model = [], functools.cache(self._model)
        for scenario in (s for s in Scenario if s in self.scenarios):
            rows, two_node = [], scenario is Scenario.TWO_NODE_FD
            for value in self.grid:
                for li in ((self.fixed.sigma_l2,) if not two_node
                           else (value,) if self.variable == "residual_li"
                           else sorted(self.li_levels or (self.fixed.sigma_l2,))):
                    rows.append((value, li if two_node else 0.0, model(value, li),
                                 value if self.variable == "rate" else self.rate))
            plan.append((scenario, tuple(rows)))
        object.__setattr__(self, "plan", tuple(plan))

    def _model(self, value: float, sigma_l2: float) -> NetworkParams:
        """The model at one grid value and its own sigma_l2, fixed itself
        when nothing differs."""
        changes = {} if sigma_l2 == self.fixed.sigma_l2 else {"sigma_l2": sigma_l2}
        if self.variable == "bs_power":
            changes.update(p_b=value, p_u=value * (self.fixed.p_u / self.fixed.p_b))
        elif self.variable == "density":
            changes["lam"] = value
        try:
            return self.fixed.replace(**changes) if changes else self.fixed
        except ValueError as exc:
            raise ConfigError(f"{self.variable} = {value:g}, sigma_l2 = "
                              f"{sigma_l2:g}: {exc}") from exc


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
        if not math.isfinite(self.value):
            raise ValueError(f"value {self.value} is not finite")
        # written so that NaN fails them too
        if not 0.0 <= self.sigma_l2 < math.inf:
            raise ValueError(f"sigma_l2 {self.sigma_l2} is not finite and >= 0")
        if self.mc_stderr is not None and not 0.0 <= self.mc_stderr < math.inf:
            raise ValueError(f"mc_stderr {self.mc_stderr} is not finite and >= 0")


_COLUMNS = tuple(f.name for f in fields(SweepRow))
CSV_HEADER = ",".join(_COLUMNS)
_values = operator.attrgetter(*_COLUMNS)
# how each column is read back, by its field's annotation: only mc_stderr
# may be an empty cell
_READ = {"str": str, "float": float,
         "float | None": lambda cell: float(cell) if cell else None}
_CASTS = tuple(_READ[f.type] for f in fields(SweepRow))


def make_grid(lo: float, hi: float, steps: int, spacing: str = "linear") -> tuple[float, ...]:
    """Strictly increasing grid of `steps` points from lo to hi inclusive."""
    if steps < 1:
        raise ConfigError("grid needs at least one point")
    if spacing not in ("linear", "log"):
        raise ConfigError(f"unknown grid spacing {spacing!r}; use linear or log")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid bounds must be finite, got {lo:g} and {hi:g}")
    if spacing == "log" and lo <= 0:
        raise ConfigError("log grids need a positive lower bound")
    if steps == 1:
        return (float(lo),)
    if not hi > lo:
        raise ConfigError("grid upper bound must exceed lower bound")
    space = np.linspace if spacing == "linear" else np.geomspace
    return tuple(space(lo, hi, steps))


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every (scenario x method x grid point x LI level)
    combination: the rows of :func:`sweep_rows`, on one thread."""
    return sweep_rows(spec)


def sweep_rows(spec: SweepSpec, workers: int = 1) -> list[SweepRow]:
    """The rows of spec.plan in output order, each timed over its own
    estimate, and for general analytic rows with scipy already loaded.
    Closed-form rows are dropped, with one INFO line, when the closed form
    does not apply to spec.fixed, and so (see SweepSpec) to any row; when
    no other method is left, a ConfigError names the closed form's
    requirements before any work.

    Monte Carlo draws one simulation per sweep for all the scenarios, over
    `workers`, when a Monte Carlo row's threshold is neither 0 nor inf (such
    rows are 0 or 1 without a trial).  Each Monte Carlo row rescales its
    scenario's per-trial SINR parts, since no swept parameter changes a
    realization, and takes an even share of the draw's time.  Two-node
    analytic and closed-form rows, the only ones with inner integrals, share
    them in one :func:`fdcell.quadrature.inner_integral_memo`: each runs
    once per sweep for every loop level of its grid point, and for the
    closed form, or the general route at alpha1 = alpha2 and equal powers,
    every density too.  One DEBUG line states how many were computed and
    reused, the misses and hits of the memo's cache_info(): 0 and 0 when no
    row has inner integrals."""
    general, closed, mc = (m.value for m in Method)
    methods = sorted(spec.methods)
    if closed in methods and not closedform.applicable(spec.fixed):
        methods.remove(closed)
        if not methods:
            raise ConfigError(f"closed form needs {closedform.REQUIREMENTS}")
        log.info("closed form not applicable (needs %s); closed-form rows "
                 "skipped", closedform.REQUIREMENTS)
    parts, mc_ms = {}, 0.0
    if mc in methods and any(0.0 < threshold_from_rate(rate, scenario) < math.inf
                             for scenario, points in spec.plan for *_, rate in points):
        t0 = time.perf_counter()
        parts = simulate_sinr(spec.fixed, spec.scenarios, spec.sim, workers)
        mc_ms = (time.perf_counter() - t0) * 1e3 / sum(len(p) for _, p in spec.plan)
    if general in methods:
        analytic._hyp2f1()
    rows: list[SweepRow] = []
    with inner_integral_memo() as memo:
        for (scenario, points), method in itertools.product(spec.plan, methods):
            mc_row = method == mc
            for value, li, params, rate in points:
                t0 = time.perf_counter()
                if mc_row:
                    est = estimate_outage(params, scenario, rate, spec.sim,
                                          parts=parts.get(scenario))
                else:
                    est = (analytic if method == general else closedform).outage(
                        scenario, params, rate, spec.quad)
                ms = (time.perf_counter() - t0) * 1e3 + (mc_ms if mc_row else 0.0)
                rows.append(SweepRow(scenario.value, method, spec.variable, value, li,
                                     est.value, est.stderr if mc_row else None, ms))
    hits, misses = memo.cache_info()[:2]
    log.debug("%d rows: %d inner integrals computed, %d reused", len(rows),
              misses, hits)
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
    score each pair by |analytic - mc| / stderr, flagging scores above 3.
    A repeated analytic or mc row is a ConfigError: it could hide a flagged pair."""
    general, mc = Method.ANALYTIC_GENERAL.value, Method.MONTE_CARLO.value
    by_key: dict[tuple, SweepRow] = {}
    for r in rows:
        key = (r.scenario, r.variable, r.value, r.sigma_l2, r.method)
        if key in by_key and r.method in (general, mc):
            raise ConfigError(f"repeated {r.method} row at scenario={r.scenario} "
                              f"{r.variable}={r.value:.10g} sigma_l2={r.sigma_l2:.10g}")
        by_key[key] = r
    report = AgreementReport()
    for *coords, method in sorted(by_key):
        if method != mc or (*coords, general) not in by_key:
            continue
        a, m = by_key[(*coords, general)], by_key[(*coords, mc)]
        diff = abs(a.outage - m.outage)
        stderr = m.mc_stderr or 0.0
        z = diff / stderr if stderr > 0 else (math.inf if diff else 0.0)
        report.pairs.append(PairAgreement(*coords, a.outage, m.outage, stderr, z))
    if not report.pairs:
        report.notice = "no matchable analytic/mc pairs in the given rows"
    return report


# ---------------------------------------------------------------------------
# serialization

def _cell(x: str | float | None) -> str:
    """A CSV cell: text as it is, a number to 10 significant digits, None
    empty."""
    if x is None:
        return ""
    return x if isinstance(x, str) else f"{x:.10g}"


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER]
    lines.extend(",".join([_cell(v) for v in _values(r)]) for r in rows)
    return "\n".join(lines) + "\n"


def rows_from_csv(text: str) -> list[SweepRow]:
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != CSV_HEADER:
        raise ConfigError(f"expected header {CSV_HEADER!r}")
    rows = []
    for n, ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) != len(_COLUMNS):
            raise ConfigError(f"line {n}: malformed row: {ln!r}")
        try:
            rows.append(SweepRow(*[cast(cell) for cast, cell in zip(_CASTS, cells)]))
        except ValueError as exc:
            raise ConfigError(f"line {n}: {exc}") from exc
    return rows


def rows_to_jsonl(rows: list[SweepRow]) -> str:
    """One JSON object per row, keyed by column, holding the values that its
    CSV row reads back as."""
    lines = []
    for r in rows:
        record = {c: cast(_cell(v))
                  for c, cast, v in zip(_COLUMNS, _CASTS, _values(r))}
        lines.append(json.dumps(record) + "\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# figure presets: each name's one sweep, which build_preset gives the caller's
# Monte Carlo and quadrature settings

PRESETS: dict[str, SweepSpec] = {
    # outage vs BS power at unit noise: P_b = P_u over a log grid
    "fig2": SweepSpec("bs_power", make_grid(1e-2, 1e4, 13, "log"),
                      li_levels=(0.0, 1e-3), fixed=NetworkParams(sigma_n2=1.0),
                      methods=("analytic", "mc")),
    # outage vs target rate, interference-limited
    "fig3": SweepSpec("rate", make_grid(0.0, 4.0, 41),
                      li_levels=(0.0, 1e-5, 1e-3),
                      methods=("analytic", "closed-form", "mc")),
    # two-node outage vs residual loop gain at each target rate: the rates
    # {0.5, 1, 2} are this package's documented choice, and the loop levels
    # span the regime where the loop residual goes from negligible to
    # dominant.  One table, the rate in value and the loop gain in sigma_l2
    "fig4": SweepSpec("rate", (0.5, 1.0, 2.0),
                      li_levels=make_grid(1e-6, 1e-1, 11, "log"),
                      scenarios=(Scenario.TWO_NODE_FD,),
                      methods=("analytic", "closed-form", "mc")),
    # outage vs network density at a low target rate, interference-limited
    "fig5": SweepSpec("density", make_grid(1e-4, 1e-2, 9, "log"),
                      li_levels=(0.0, 1e-3, 1e-1),
                      methods=("analytic", "closed-form", "mc")),
}


def build_preset(name: str, sim: SimConfig | None = None,
                 quad: QuadratureConfig | None = None) -> list[SweepSpec]:
    """The preset's one sweep at the given settings, as a one-element list:
    callers that take a preset's sweep by [0] keep working."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of "
                          f"{sorted(PRESETS)}")
    return [replace(PRESETS[name], sim=sim or SimConfig(),
                    quad=quad or QuadratureConfig())]
