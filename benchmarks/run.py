"""fdcell benchmark: end-to-end metrics per workload, checked outputs, and a
traced run that times the calls into each layer.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmarks/run.py --self-test
    python3 benchmarks/run.py            # every workload in turn, seed 1

Workloads (see worker.py for their sizes): rate-sweep-analytic,
rate-sweep-mc, density-sweep, point-queries.

A run starts one fresh single-threaded worker process (BLAS and OpenMP
thread variables set to 1) that sets up, then repeats passes of the workload
while the next one is expected to end within --seconds (at least one pass).
Four more processes only set up, for setup_s.  Every time below but setup_s
is scaled to the speed of the reference machine by calibration work timed
around and during each request (see worker.Meter); the raw times are kept in
benchmarks/out/.

  setup_s        process start until the first timed call can be made:
                 interpreter, `import fdcell` with numpy and scipy, building
                 the specs or queries (median of 5 set-ups)
  wall_s         time of one pass's complete output (checked afterwards),
                 median over passes
  query_p50_ms   median latency of one request: a point query (timed around
                 cli.main), or a whole sweep pass, whose user waits for all
                 its rows
  query_tail_ms  the highest percentile with at least 10 requests beyond it,
                 or a quarter of the requests when there are fewer than 40
  peak_rss_mb    peak resident memory of the worker process

With --trace 1 untraced passes run for half of --seconds, then one traced
pass in another process, and the per-layer metrics of tracing.per_layer are
reported, with trace.wall_s and trace.overhead_s (traced pass minus the
median untraced pass).

An operation fails on an exception, a nonzero exit code, a wrong CSV header,
a missing row, an analytic or closed-form value more than 1e-7 from its
reference, or a Monte Carlo value more than 5 standard errors from the
analytic reference.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("rate-sweep-analytic", "rate-sweep-mc", "density-sweep", "point-queries")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0     # every run ends well inside 180 s
UNITS = {"setup_s": "s", "wall_s": "s", "query_p50_ms": "ms", "query_tail_ms": "ms",
         "peak_rss_mb": "MB"}
_deadline = time.monotonic() + HARD_LIMIT_S   # reset for each workload run


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, *extra: str) -> dict:
    """Run one worker process; return its result with setup_s added."""
    env = {k: v for k, v in os.environ.items() if k != "FDCELL_CONFIG"}
    env.update({v: "1" for v in THREAD_VARS})
    budget = _deadline - time.monotonic()
    if budget <= 0:
        raise BenchError("out of time")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *extra]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {HARD_LIMIT_S:g} s limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - t0
    return result


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least 10
    samples beyond it, or a quarter of the samples when there are fewer than
    40 (the upper quartile of a sweep run's passes)."""
    xs = sorted(latencies)
    beyond = min(10, len(xs) // 4)
    return xs[len(xs) - 1 - beyond], 100.0 * (len(xs) - beyond) / len(xs)


def loadavg() -> list[str] | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def context(first: dict, loadavg_start: list[str] | None) -> dict:
    """Run context: machine, load, versions, commit and input sizes."""
    commit = None
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and lines and os.path.samefile(lines[0], ROOT):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "loadavg_start": loadavg_start,
            "loadavg_end": loadavg(),
            "versions": first["versions"],
            "git_commit": commit,
            "sizes": first["sizes"],
            "fdcell_file": first["fdcell_file"]}


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], dict]:
    """Passes for --seconds in one worker, then extra set-ups."""
    first = worker(workload, seed, "--seconds", str(seconds))
    runs = [first]
    while len(runs) < SETUP_SAMPLES:
        runs.append(worker(workload, seed, "--setup-only"))
    setups = [r["setup_s"] for r in runs]
    lat = first["latencies_ms"]
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(first["pass_s"]),
        "query_p50_ms": statistics.median(lat),
        "query_tail_ms": tail_ms,
        "peak_rss_mb": first["peak_rss_mb"],
    }
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "setups_s": setups,
             "wall_s": f"median of {len(first['pass_s'])} passes",
             "query_tail_ms": f"p{tail_pct:.1f} of {len(lat)} requests"}
    report = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}
    return report, [first], notes


def measure_traced(workload: str, seed: int, seconds: int) -> tuple[dict, list[dict], dict]:
    """Untraced passes for half of --seconds, then one traced pass."""
    plain = worker(workload, seed, "--seconds", str(seconds / 2))
    traced = worker(workload, seed, "--trace", "1")
    layer = dict(traced["per_layer"])
    layer["trace.wall_s"] = traced["pass_s"][0]
    layer["trace.overhead_s"] = traced["pass_s"][0] - statistics.median(plain["pass_s"])
    report = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    return report, [plain, traced], {"trace_file": traced.get("trace_file")}


def layer_unit(name: str) -> str:
    if name.endswith("_s") and not name.endswith("per_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return {"simulate.trials_per_s": "1/s", "simulate.mc_max_z": "z",
            "simulate.mc_flagged_frac": "ratio",
            "quadrature.integrate.calls_per_row": "calls/row",
            "simulate.trials_per_row": "trials/row"}.get(name, "count")


def run(workload: str, args) -> dict:
    """Measure one workload, print its report and return its result object."""
    global _deadline
    _deadline = time.monotonic() + HARD_LIMIT_S
    loadavg_start = loadavg()
    if args.trace:
        metrics, passes, notes = measure_traced(workload, args.seed, args.seconds)
    else:
        metrics, passes, notes = measure(workload, args.seed, args.seconds)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    columns = [c for p in passes for c in p["mc_columns"]]
    reproducible = all(c == columns[0] for c in columns)
    correct = failed == 0 and attempted > 0 and reproducible
    ctx = context(passes[0], loadavg_start)

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {sum(len(p['pass_s']) for p in passes)}  sizes {json.dumps(ctx['sizes'])}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<10} {note}")
    print(f"  {'failed_frac':<40} {failed / max(attempted, 1):>14.6g} "
          f"{'ratio':<10} {failed} of {attempted} operations failed")
    if not reproducible:
        print("  Monte Carlo outage columns differ between passes of the same seed")
    for p in passes:
        for what in p["failures"]:
            print(f"  FAILED: {what}")
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": attempted,
              "failed": failed, "reproducible": reproducible, "metrics": metrics,
              "notes": notes, "context": ctx,
              "workers": [{k: p[k] for k in ("setup_s", "speed", "pass_s", "pass_raw_s",
                                             "latencies_ms", "latencies_raw_ms",
                                             "calibration_samples", "cpu_s", "attempted",
                                             "failed", "failures", "peak_rss_mb")}
                          for p in passes]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"result-{workload}-seed{args.seed}-"
                                        f"trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("context " + json.dumps(ctx), flush=True)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# per-layer call pattern each workload must show (self-test, tiny inputs)
SIMULATE_CALLS = ("simulate.simulate_sinr.calls", "simulate.sample_realization.calls",
                  "simulate.sinr_of_realization.calls", "simulate.estimate_outage.calls")
QUAD_CALLS = ("quadrature.integrate.calls", "analytic.two_node_outage.calls",
              "analytic.three_node_outage.calls", "analytic.half_duplex_outage.calls",
              "analytic.bs_interference_laplace.calls",
              "analytic.uplink_laplace_full.calls",
              "analytic.uplink_laplace_excluded.calls")
CLOSED_CALLS = ("closedform.two_node_outage.calls", "closedform.uplink_kernel.calls",
                "closedform.bs_kernel.calls")
SWEEP_CALLS = ("sweep.run_sweep.calls", "sweep.rows")
CALL_PATTERN = {
    "rate-sweep-analytic": {"nonzero": QUAD_CALLS + CLOSED_CALLS + SWEEP_CALLS,
                            "zero": SIMULATE_CALLS + ("cli.main.calls",)},
    "rate-sweep-mc": {"nonzero": SIMULATE_CALLS + SWEEP_CALLS,
                      "zero": QUAD_CALLS + CLOSED_CALLS + ("cli.main.calls",)},
    "density-sweep": {"nonzero": QUAD_CALLS + CLOSED_CALLS + SIMULATE_CALLS
                      + SWEEP_CALLS + ("cli.main.calls",), "zero": ()},
    "point-queries": {"nonzero": QUAD_CALLS + ("cli.main.calls",),
                      "zero": SIMULATE_CALLS + CLOSED_CALLS + SWEEP_CALLS},
}


def self_test() -> int:
    """Check the harness itself on tiny inputs: call pattern per workload,
    fault injection, same-seed reproducibility and a second seed."""
    results = []

    def check(what: str, ok: bool, result: dict | None = None) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
        if not ok and result:
            for failure in result["failures"]:
                print(f"      {failure}")

    seed_a, seed_b = 1, 2
    tiny = ("--size", "tiny")
    first = {}
    for w in WORKLOADS:
        r = first[w] = worker(w, seed_a, *tiny, "--trace", "1")
        check(f"{w}: traced tiny run, {r['attempted']} operations, none failed",
              r["attempted"] > 0 and r["failed"] == 0, r)
        layer = r["per_layer"]
        bad = [m for m in CALL_PATTERN[w]["nonzero"] if not layer[m] > 0]
        bad += [m for m in CALL_PATTERN[w]["zero"] if layer[m] != 0]
        check(f"{w}: call pattern" + (f" violated by {bad}" if bad else ""), not bad)

    for w, inject in (("rate-sweep-analytic", "analytic"), ("rate-sweep-mc", "mc")):
        r = worker(w, seed_a, *tiny, "--inject", inject)
        check(f"{w}: shifted {inject} reference fails {r['failed']} of "
              f"{r['attempted']} operations", r["failed"] > 0)

    for w in ("rate-sweep-mc", "density-sweep"):
        again = worker(w, seed_a, *tiny)
        check(f"{w}: same seed gives identical Monte Carlo outages",
              bool(again["mc_columns"][0])
              and again["mc_columns"][0] == first[w]["mc_columns"][0])
        other = worker(w, seed_b, *tiny)
        check(f"{w}: seed {seed_b} passes the check",
              other["attempted"] > 0 and other["failed"] == 0, other)
        check(f"{w}: seed {seed_b} draws other samples",
              other["mc_columns"][0] != first[w]["mc_columns"][0])
    other = worker("point-queries", seed_b, *tiny)
    check(f"point-queries: seed {seed_b} passes the check",
          other["attempted"] > 0 and other["failed"] == 0, other)
    print(f"self-test: {sum(results)} of {len(results)} checks passed")
    return 0 if all(results) else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all",
                    help="one workload, or all of them in turn (default)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fdcell", "__init__.py")):
        print(f"benchmarks/run.py: no fdcell source under {ROOT}/src", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(HERE, "references.json")):
        print("benchmarks/run.py: benchmarks/references.json is missing; "
              "regenerate it with python3 benchmarks/make_references.py", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        ap.error("--seed must be in [0, 2**64)")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    try:
        if args.self_test:
            return self_test()
        if args.workload != "all":
            result = run(args.workload, args)
        else:
            results = {w: run(w, args) for w in WORKLOADS}
            result = {"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{w}.{k}": m for w, r in results.items()
                                  for k, m in r["metrics"].items()}}
        print(json.dumps(result))
        return 0
    except BenchError as exc:
        print(f"benchmarks/run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
