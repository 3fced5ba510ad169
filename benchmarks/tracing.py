"""In-memory tracing of the calls into each fdcell layer, from outside the
program.

`install` replaces every binding of each traced function -- module globals of
every loaded ``fdcell`` module and the values of module-level dicts such as
``sweep._ANALYTIC_FN`` -- with a timing wrapper.  Patching only the defining
module would miss the names that other modules imported, and those calls would
record zero without any error.

Calls of the per-outage-evaluation functions get one span each (name, start,
end, parent span, row or query id).  Hot functions -- quadrature.integrate, the
interference kernels and the per-trial sampling and SINR functions -- get only
aggregate counts and times per enclosing span.  A call's self time is its
duration minus the time of the traced calls made inside it.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict

# (qualified name, hot): the functions the per-layer metrics are made from
TRACED = (
    ("cli.main", False),
    ("sweep.run_sweep", False),
    ("sweep.rows_to_csv", False),
    ("analytic.two_node_outage", False),
    ("analytic.three_node_outage", False),
    ("analytic.half_duplex_outage", False),
    ("closedform.two_node_outage", False),
    ("simulate.simulate_sinr", False),
    ("simulate.estimate_outage", False),
    ("analytic.bs_interference_laplace", True),
    ("analytic.uplink_laplace_full", True),
    ("analytic.uplink_laplace_excluded", True),
    ("closedform.uplink_kernel", True),
    ("closedform.bs_kernel", True),
    ("simulate.sample_realization", True),
    ("simulate.sinr_of_realization", True),
    ("quadrature.integrate", True),
)

# calls that produce one outage row each; in a sweep they start a new row id
ROW_FUNCTIONS = {"analytic.two_node_outage", "analytic.three_node_outage",
                 "analytic.half_duplex_outage", "closedform.two_node_outage",
                 "simulate.estimate_outage"}


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.frames: list[list[float]] = []   # [child time] per open call
        self.span_stack: list[int] = []       # ids of the open spans
        self.spans: list[tuple] = []          # (id, name, start, end, parent, op)
        self.aggregates: dict[tuple, list] = defaultdict(lambda: [0, 0.0])
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.resampled = 0                    # zero-BS redraws of sampled trials
        self.sweep_rows = 0                   # rows returned by run_sweep
        self.op: int | None = None            # current row or query id
        self.auto_rows = False                # sweeps: row functions set op
        self._next_row = 0

    def wrap(self, name: str, fn, hot: bool):
        frames, clock = self.frames, self.clock
        calls, self_s, aggregates, span_stack = (self.calls, self.self_s,
                                                 self.aggregates, self.span_stack)
        is_row = name in ROW_FUNCTIONS

        def finish(start: float, frame: list[float]) -> float:
            dur = clock() - start
            frames.pop()
            if frames:
                frames[-1][0] += dur
            calls[name] += 1
            self_s[name] += dur - frame[0]
            return dur

        def hot_call(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(name, exc)
                raise
            finally:
                dur = finish(start, frame)
                agg = aggregates[(name, span_stack[-1] if span_stack else None)]
                agg[0] += 1
                agg[1] += dur
            if name == "simulate.sample_realization":
                self.resampled += result.resampled
            return result

        def span_call(*args, **kwargs):
            if is_row and self.auto_rows:
                self.op = self._next_row
                self._next_row += 1
            span_id = len(self.spans)
            self.spans.append(None)
            parent = span_stack[-1] if span_stack else None
            span_stack.append(span_id)
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(name, exc)
                raise
            finally:
                finish(start, frame)
                span_stack.pop()
                self.spans[span_id] = (span_id, name, start, clock(), parent, self.op)
            if name == "sweep.run_sweep":
                self.sweep_rows += len(result)
            return result

        traced = hot_call if hot else span_call
        traced.__wrapped__ = fn
        return traced

    def _count_error(self, name: str, exc: Exception) -> None:
        # an exception crosses every enclosing wrapper; count it where raised
        if not getattr(exc, "_bench_counted", False):
            self.errors[name] += 1
            try:
                exc._bench_counted = True
            except AttributeError:
                pass

    def durations_ms(self, name: str) -> list[float]:
        return [(s[3] - s[2]) * 1e3 for s in self.spans if s is not None and s[1] == name]

    def write(self, path: str) -> None:
        """Write spans and per-span aggregates as JSON lines."""
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "start", "end", "parent", "op"), s))) + "\n")
            for (name, parent), (count, total) in self.aggregates.items():
                fh.write(json.dumps({"aggregate": name, "parent": parent,
                                     "calls": count, "total_s": total}) + "\n")


def install(tracer: Tracer) -> None:
    """Rebind every traced fdcell function, at every site that holds it."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "fdcell" or n.startswith("fdcell."))]
    for name, hot in TRACED:
        module_name, attr = name.split(".")
        original = getattr(sys.modules.get("fdcell." + module_name), attr, None)
        if original is None:
            continue  # function no longer exists: its metrics read zero
        wrapper = tracer.wrap(name, original, hot)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
        for module in modules:
            for value in vars(module).values():
                if value is original or (isinstance(value, dict) and any(
                        v is original for v in value.values())):
                    raise RuntimeError(f"{name} still bound unwrapped in {module.__name__}")


def per_layer(tracer: Tracer, mc_rows: int, quad_ops: int,
              mc_z: list[float]) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    mc_rows: Monte Carlo rows emitted; quad_ops: analytic and closed-form
    rows, or point queries; mc_z: |z| of each Monte Carlo row against its
    analytic reference.
    """
    c, s = tracer.calls, tracer.self_s
    m: dict[str, float] = {}
    m["quadrature.integrate.calls"] = c["quadrature.integrate"]
    m["quadrature.integrate.calls_per_row"] = (
        c["quadrature.integrate"] / quad_ops if quad_ops else 0.0)
    m["quadrature.integrate.self_s"] = s["quadrature.integrate"]
    m["quadrature.errors"] = tracer.errors["quadrature.integrate"]
    for fn in ("two_node_outage", "three_node_outage", "half_duplex_outage"):
        name = "analytic." + fn
        m[name + ".calls"] = c[name]
        m[name + ".self_s"] = s[name]
        durations = tracer.durations_ms(name)
        m[name + ".p50_ms"] = statistics.median(durations) if durations else 0.0
    for fn in ("bs_interference_laplace", "uplink_laplace_full", "uplink_laplace_excluded"):
        m[f"analytic.{fn}.calls"] = c["analytic." + fn]
        m[f"analytic.{fn}.self_s"] = s["analytic." + fn]
    for fn in ("two_node_outage", "uplink_kernel"):
        m[f"closedform.{fn}.calls"] = c["closedform." + fn]
        m[f"closedform.{fn}.self_s"] = s["closedform." + fn]
    m["closedform.bs_kernel.calls"] = c["closedform.bs_kernel"]
    for fn in ("simulate_sinr", "sample_realization", "sinr_of_realization",
               "estimate_outage"):
        m[f"simulate.{fn}.calls"] = c["simulate." + fn]
        m[f"simulate.{fn}.self_s"] = s["simulate." + fn]
    trials = c["simulate.sample_realization"]
    sim_s = sum(tracer.durations_ms("simulate.simulate_sinr")) / 1e3
    m["simulate.trials_per_s"] = trials / sim_s if sim_s else 0.0
    m["simulate.trials_per_row"] = trials / mc_rows if mc_rows else 0.0
    m["simulate.resampled"] = tracer.resampled
    m["simulate.mc_max_z"] = max(mc_z, default=0.0)
    m["simulate.mc_flagged_frac"] = (
        sum(z > 3.0 for z in mc_z) / len(mc_z) if mc_z else 0.0)
    m["sweep.run_sweep.calls"] = c["sweep.run_sweep"]
    m["sweep.run_sweep.self_s"] = s["sweep.run_sweep"]
    m["sweep.rows"] = tracer.sweep_rows
    m["sweep.rows_to_csv.self_s"] = s["sweep.rows_to_csv"]
    m["cli.main.calls"] = c["cli.main"]
    m["cli.main.self_s"] = s["cli.main"]
    return m
