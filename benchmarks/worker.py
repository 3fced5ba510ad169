"""Passes of one benchmark workload, in a fresh single-threaded process.

Started by run.py; not meant to be run by hand.  It imports fdcell from the
checkout's src/, builds the workload's inputs, prints the monotonic time at
which the first timed call can be made (the end of set-up), then runs passes
of the workload until --seconds is used up (at least one pass), checks every
output row or query against benchmarks/references.json, and prints one JSON
line with the measurements as its last line of output.

A pass is a list of requests: one sweep for the sweep workloads, one query
each for point-queries.  Calibration samples, fixed work in this file that no
change to fdcell can touch, are taken around and during every request, so
that its time can be scaled to the reference machine speed (see Meter).

Workloads (one pass takes 2-5 s, point-queries 20-25 s, on a 2-core Xeon VM
at commit c03e374):

rate-sweep-analytic  fig3 preset through sweep.run_sweep, methods analytic
                     and closed-form, at rates 0.5, 1.5, 2.5 and 3.5 of its
                     41-point grid.  Quadrature-bound.
rate-sweep-mc        fig3 preset through sweep.run_sweep, method mc, all 41
                     rates, matched mode, window_factor 30, 2000 trials per
                     curve, Monte Carlo seed = the benchmark seed.  One
                     simulation per curve shared across the rates.
density-sweep        `fdcell sweep` through fdcell.cli.main on the fig5
                     preset's curves at densities 1e-4, 1e-3 and 1e-2, all
                     three methods, 1000 trials, window 12, CSV to a
                     temporary file.  One simulation per density point.
point-queries        closed loop, one client: 66 single
                     `fdcell analytic --method general` calls through
                     fdcell.cli.main, 22 per scenario, drawn from the
                     reference pool block chosen by the seed, in seeded order.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("rate-sweep-analytic", "rate-sweep-mc", "density-sweep", "point-queries")
ABS_TOL = 1e-7        # analytic and closed-form rows: rel_tol_outer, absolute
MC_Z_FAIL = 5.0       # Monte Carlo rows: |z| against the analytic reference
# trials per Monte Carlo curve or grid point, full and tiny (self-test) sizes
TRIALS = {"rate-sweep-mc": {"full": 2000, "tiny": 300},
          "density-sweep": {"full": 1000, "tiny": 300}}
RATE_INDEX = {"full": (5, 15, 25, 35),          # rates 0.5, 1.5, 2.5, 3.5 of fig3
              "tiny": (5, 20, 40)}              # rates 0.5, 2, 4
DENSITY_INDEX = (0, 4, 8)                       # densities 1e-4, 1e-3, 1e-2 of fig5

# Calibration.  The speed of this shared machine changes by up to 1.8x from
# one second to the next, and all code slows down together, so request times
# are scaled by (reference time / current time) of a fixed piece of work timed
# around and during each request (see Meter).  "scalar" work is float arithmetic in a Python
# loop, like the adaptive quadrature; "vector" work is sampling and array
# arithmetic, like the Monte Carlo trials.  Each workload is calibrated with
# the kind of work it mostly does.  The reference times are the medians on a
# 2-core Intel Xeon VM; scaled times are seconds at that machine's speed.
CALIBRATION_REF_S = {"scalar": 0.0065, "vector": 0.0090}
CALIBRATION_KINDS = {"rate-sweep-analytic": ("scalar",),
                     "rate-sweep-mc": ("vector",),
                     "density-sweep": ("scalar", "vector"),
                     "point-queries": ("scalar",)}
SAMPLE_EVERY_S = 0.25


def _scalar_work() -> float:
    s = 0.0
    for i in range(1, 25000):
        x = i * 1e-4
        s += math.exp(-x) * x ** 1.5 / (1.0 + x * x)
    return s


def _vector_work() -> float:
    import numpy as np
    rng = np.random.default_rng(12345)
    s = 0.0
    for _ in range(60):
        a = rng.random(3000)
        b = rng.exponential(size=3000)
        s += float(np.sum(b / (np.hypot(a, a[::-1]) + 1.0) ** 4))
    return s


_WORK = {"scalar": _scalar_work, "vector": _vector_work}


def calibrate(kinds: tuple[str, ...], repeats: int = 3) -> float:
    """Seconds the given kinds of fixed work take now, each the median of
    `repeats` timings (so that one preemption does not count)."""
    total = 0.0
    for kind in kinds:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _WORK[kind]()
            times.append(time.perf_counter() - t0)
        total += statistics.median(times)
    return total


def row_key(scenario, method, variable, value, sigma_l2) -> str:
    return f"{scenario}|{method}|{variable}|{float(value):.10g}|{float(sigma_l2):.10g}"


def expected_keys(spec) -> list[str]:
    keys = []
    for scenario in spec.scenarios:
        levels = spec.li_levels if scenario.value == "two-node" else (0.0,)
        for method in spec.methods:
            for li in levels:
                for value in spec.grid:
                    keys.append(row_key(scenario.value, method, spec.variable, value, li))
    return keys


class Checker:
    """Checks output rows against the stored references and keeps the counts.

    inject shifts one reference before checking ("analytic": one analytic
    reference by 1e-3; "mc": the reference of one Monte Carlo row by 10 of its
    standard errors), so the self-test can show that the check fires.
    """

    def __init__(self, refs: dict, trials: int, inject: str = "none"):
        self.rows = dict(refs["rows"])
        self.header = refs["csv_header"]
        self.trials = trials
        self.inject = inject
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.mc_column: list[str] = []
        self.mc_z: list[float] = []
        self.quad_ops = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(what)

    def check_value(self, key: str, method: str, outage: float, ref_key: str) -> None:
        ref = self.rows.get(ref_key)
        if ref is None:
            return self.fail(f"{key}: no reference")
        if method == "mc":
            sigma = math.sqrt(ref * (1.0 - ref) / self.trials)
            if self.inject == "mc" and 0.0 < ref < 1.0:
                self.inject = "done"
                ref += -10.0 * sigma if ref > 0.5 else 10.0 * sigma
            if sigma > 0:
                z = abs(outage - ref) / sigma
            else:
                z = 0.0 if outage == ref else math.inf
            self.mc_z.append(z)
            if z > MC_Z_FAIL:
                self.fail(f"{key}: mc {outage} vs analytic {ref}, |z| = {z:.2f}")
            return
        self.quad_ops += 1
        if self.inject == "analytic" and method == "analytic":
            self.inject = "done"
            ref += 1e-3
        if abs(outage - ref) > ABS_TOL:
            self.fail(f"{key}: {outage!r} vs reference {ref!r}")

    def check_sweep_csv(self, text: str | None, expected: list[str]) -> None:
        """One operation per expected row; a missing, extra or malformed row,
        a wrong header or no output at all fails."""
        self.attempted += len(expected)
        lines = (text or "").splitlines()
        if not lines or lines[0] != self.header:
            self.failed += len(expected)
            self.failures.append("no output" if text is None else
                                 f"CSV header {lines[0] if lines else ''!r}")
            return
        seen: dict[str, tuple] = {}
        for line in lines[1:]:
            parts = line.split(",")
            if len(parts) != 8:
                self.attempted += 1
                self.fail(f"malformed row {line!r}")
                continue
            scenario, method, variable, value, sl, outage = parts[:6]
            key = row_key(scenario, method, variable, value, sl)
            seen[key] = (method, float(outage), outage)
        for key in expected:
            if key not in seen:
                self.fail(f"{key}: missing")
                continue
            method, outage, text_outage = seen.pop(key)
            if method == "mc":
                self.mc_column.append(text_outage)
            scenario, _, variable, value, sl = key.split("|")
            self.check_value(key, method, outage, row_key(
                scenario, "analytic" if method == "mc" else method, variable, value, sl))
        for key in seen:
            self.attempted += 1
            self.fail(f"{key}: unexpected row")

    def check_query(self, query: dict, result) -> None:
        self.attempted += 1
        self.quad_ops += 1
        key = f"query {query['scenario']} R={query['rate']!r}"
        if result is None:
            return self.fail(f"{key}: raised")
        rc, text = result
        lines = text.splitlines()
        if rc != 0:
            return self.fail(f"{key}: exit code {rc}")
        if len(lines) != 2 or lines[0] != self.header:
            return self.fail(f"{key}: output {text!r}")
        outage = float(lines[1].split(",")[5])
        if abs(outage - query["outage"]) > ABS_TOL:
            self.fail(f"{key}: {outage!r} vs reference {query['outage']!r}")


def build_workload(name: str, size: str, seed: int, refs: dict, workdir: str):
    """Return (requests, finish, sizes): each request is a callable doing one
    timed piece of work; finish(outputs, checker) checks one pass's outputs
    (None for a request that raised); sizes describes the input."""
    from fdcell import cli, sweep
    from fdcell.simulate import SimConfig, SimMode

    if name in ("rate-sweep-analytic", "rate-sweep-mc"):
        mc = name == "rate-sweep-mc"
        sim = SimConfig(trials=TRIALS[name][size], window_factor=30.0, seed=seed,
                        mode=SimMode.MATCHED) if mc else None
        spec = sweep.build_preset("fig3", sim=sim)[0]
        grid = spec.grid
        if size == "tiny" or not mc:
            grid = tuple(grid[i] for i in RATE_INDEX[size])
        spec = replace(spec, grid=grid,
                       methods=("mc",) if mc else ("analytic", "closed-form"))
        expected = expected_keys(spec)

        def sweep_request():
            return sweep.rows_to_csv(sweep.run_sweep(spec))

        def finish(outputs, checker):
            checker.check_sweep_csv(outputs[0], expected)
        return [sweep_request], finish, {"rows": len(expected), "rates": len(grid),
                                         "trials": sim.trials if mc else 0}

    if name == "density-sweep":
        trials = TRIALS[name][size]
        spec = sweep.build_preset("fig5")[0]
        spec = replace(spec, grid=tuple(spec.grid[i] for i in DENSITY_INDEX))
        out = os.path.join(workdir, "fig5.csv")
        argv = ["sweep", "--trials", str(trials), "--seed", str(seed), "--out", out,
                "--variable", "density",
                "--grid", ",".join(repr(float(v)) for v in spec.grid),
                "--scenarios", ",".join(s.value for s in spec.scenarios),
                "--li-levels", ",".join(repr(float(v)) for v in spec.li_levels),
                "--methods", ",".join(spec.methods), "--rate", repr(float(spec.rate))]
        expected = expected_keys(spec)

        def cli_request():
            return cli.main(argv)

        def finish(outputs, checker):
            rc, text = outputs[0], None
            if rc == 0 and os.path.exists(out):
                with open(out) as fh:
                    text = fh.read()
                os.remove(out)
            elif rc is not None:
                checker.failures.append(f"fdcell sweep exit code {rc}")
            checker.check_sweep_csv(text, expected)
        return [cli_request], finish, {"rows": len(expected), "densities": len(spec.grid),
                                       "trials": trials}

    if name == "point-queries":
        blocks = refs["query_blocks"]
        queries = list(blocks[seed % len(blocks)])
        if size == "tiny":
            queries = [next(q for q in queries if q["scenario"] == s)
                       for s in ("two-node", "three-node", "half-duplex")]
        random.Random(seed).shuffle(queries)
        # The powers go in through a config file: cli._network_params looks
        # the --pb/--pu flags up as p_b/p_u, but argparse stores them as pb/pu,
        # so those two flags are silently ignored.
        requests = []
        for i, q in enumerate(queries):
            config = os.path.join(workdir, f"query{i}.conf")
            with open(config, "w") as fh:
                fh.write(f"pb = 1\npu = {q['pu']!r}\n")
            argv = ["--config", config, "analytic", "--scenario", q["scenario"],
                    "--method", "general", "--rate", repr(q["rate"]),
                    "--alpha1", repr(q["alpha1"]), "--alpha2", repr(q["alpha2"]),
                    "--sigma-n2", repr(q["sigma_n2"]), "--sigma-l2", repr(q["sigma_l2"])]

            def query_request(i=i, argv=argv):
                # closed loop: the next query is sent when this one returns
                if TRACER is not None:
                    TRACER.op = i
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(argv)
                return rc, buf.getvalue()
            requests.append(query_request)

        def finish(outputs, checker):
            for query, result in zip(queries, outputs):
                checker.check_query(query, result)
        return requests, finish, {"queries": len(queries), "block": seed % len(blocks)}

    raise SystemExit(f"unknown workload {name!r}")


class Meter:
    """Times requests and scales each to the reference machine speed.

    A calibration sample is taken between consecutive requests and, from a
    timer signal, every sample_every_s seconds while one runs, because the
    machine's speed can change within a second.  A request's time is split
    at the samples; each piece is scaled by the reference time over the mean
    of the two samples around it, and the samples' own time is left out.
    """

    def __init__(self, kinds: tuple[str, ...], sample_every_s: float):
        self.kinds = kinds
        self.ref = sum(CALIBRATION_REF_S[k] for k in kinds)
        self.sample_every_s = sample_every_s
        self.samples: list[tuple[float, float, float]] = []  # start, end, seconds
        self.count = 0

    def sample(self, *_signal_args, repeats: int = 1) -> None:
        t0 = time.perf_counter()
        c = calibrate(self.kinds, repeats)
        self.samples.append((t0, time.perf_counter(), c))
        self.count += 1

    def begin(self) -> None:
        """Start a pass: the first request is measured from a fresh sample."""
        self.samples = []
        self.sample(repeats=3)

    def run(self, request):
        """(output, raw seconds, scaled seconds); output is None if it raised.
        Runs right after begin() or the previous request."""
        first = len(self.samples) - 1
        if self.sample_every_s:
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.sample_every_s, self.sample_every_s)
        try:
            output = request()
        except Exception as exc:  # every operation of the request fails
            output = None
            print(f"request raised {type(exc).__name__}: {exc}", file=sys.stderr)
        finally:
            if self.sample_every_s:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        end = time.perf_counter()
        self.sample(repeats=3)
        samples = self.samples[first:]
        raw = scaled = 0.0
        for (_, seg_start, c0), (next_start, _, c1) in zip(samples, samples[1:]):
            seg = min(next_start, end) - seg_start
            raw += seg
            scaled += seg * self.ref / ((c0 + c1) / 2.0)
        return output, raw, scaled


def run_passes(requests, finish, checker, meter: Meter, seconds: float) -> dict:
    """Run passes until the next one would end after `seconds` (at least one).
    Returns raw and speed-scaled times of every request and pass."""
    end = time.monotonic() + seconds
    raw_ms, scaled_ms, pass_raw_s, pass_scaled_s, mc_columns = [], [], [], [], []
    while True:
        started = time.monotonic()
        outputs, pass_raw, pass_scaled = [], 0.0, 0.0
        meter.begin()
        for request in requests:
            output, raw, scaled = meter.run(request)
            outputs.append(output)
            raw_ms.append(raw * 1e3)
            scaled_ms.append(scaled * 1e3)
            pass_raw += raw
            pass_scaled += scaled
        pass_raw_s.append(pass_raw)
        pass_scaled_s.append(pass_scaled)
        checker.mc_column = []
        finish(outputs, checker)
        mc_columns.append(checker.mc_column)
        if time.monotonic() + (time.monotonic() - started) > end:
            break
    return {"latencies_raw_ms": raw_ms, "latencies_ms": scaled_ms,
            "pass_raw_s": pass_raw_s, "pass_s": pass_scaled_s,
            "speed": sum(pass_scaled_s) / sum(pass_raw_s),
            "calibration_samples": meter.count, "mc_columns": mc_columns}


TRACER = None


def main() -> int:
    global TRACER
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--seconds", type=float, default=0.0,
                    help="measure passes for this long (0: one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject", choices=("none", "analytic", "mc"), default="none")
    args = ap.parse_args()
    kinds = CALIBRATION_KINDS[args.workload]

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import fdcell
    import numpy as np
    import scipy
    from fdcell import cli, sweep  # noqa: F401  (import cost is part of set-up)
    if not os.path.abspath(fdcell.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"fdcell imported from {fdcell.__file__}, not from the checkout")
    if args.trace:
        sys.path.insert(0, HERE)
        import tracing
        TRACER = tracing.Tracer()
        TRACER.auto_rows = args.workload != "point-queries"
        tracing.install(TRACER)
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        requests, finish, sizes = build_workload(args.workload, args.size, args.seed,
                                                 refs, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        checker = Checker(refs, TRIALS.get(args.workload, {}).get(args.size, 1),
                          args.inject)
        # in a traced pass the samples would count as time of the traced calls
        meter = Meter(kinds, 0.0 if args.trace else SAMPLE_EVERY_S)
        c0 = time.process_time()
        result = run_passes(requests, finish, checker, meter, args.seconds)
        cpu_s = time.process_time() - c0

    result.update({
        "ready": ready,
        "cpu_s": cpu_s,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failures": checker.failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fdcell_file": fdcell.__file__,
        "sizes": sizes,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
    })
    if TRACER is not None:
        result["per_layer"] = tracing.per_layer(
            TRACER, len(checker.mc_column), checker.quad_ops, checker.mc_z)
        trace_file = os.path.join(out_dir, f"trace-{args.workload}-{args.size}-"
                                           f"seed{args.seed}.jsonl")
        TRACER.write(trace_file)
        result["trace_file"] = os.path.relpath(trace_file, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
