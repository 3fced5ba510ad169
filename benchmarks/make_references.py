"""Regenerate benchmarks/references.json: the outage values every benchmark
run is checked against.

Run from the repository root, at the commit whose values are the reference:

    python3 benchmarks/make_references.py

It evaluates, with the default QuadratureConfig,
  * the fig3 preset (all 41 rates) and the fig5 preset, methods analytic and
    closed-form, through fdcell.sweep.run_sweep;
  * a pool of point queries for the point-queries workload: BLOCKS blocks,
    each a Latin hypercube of QUERIES_PER_SCENARIO parameter points per
    scenario over the model's domain, evaluated by the general analytic route.
    All blocks of a scenario share one assignment of points to Latin-hypercube
    cells and differ in where each point sits inside its cell.  A block's
    parameters thus differ in every coordinate from another block's while
    its spread of costs stays the same, so runs with different seeds measure
    the same workload.
Monte Carlo rows are checked against the analytic values, so none are stored.
Takes about 8 minutes on one core.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from fdcell import analytic, sweep  # noqa: E402
from fdcell.model import NetworkParams, Scenario  # noqa: E402

OUT = os.path.join(ROOT, "benchmarks", "references.json")
MASTER_SEED = 20261017
BLOCKS = 16
QUERIES_PER_SCENARIO = 22
SCENARIOS = ("two-node", "three-node", "half-duplex")
# the model's domain for point queries: alpha in [2.5, 6], p_u in 10^[-2, 1]
# with p_b = 1, sigma_n2 in 10^[-6, -2], sigma_l2 in 10^[-6, -1], R in [0.05, 4]
RANGES = (("alpha1", 2.5, 6.0, False), ("alpha2", 2.5, 6.0, False),
          ("pu", -2.0, 1.0, True), ("sigma_n2", -6.0, -2.0, True),
          ("sigma_l2", -6.0, -1.0, True), ("rate", 0.05, 4.0, False))
ANALYTIC_FN = {"two-node": analytic.two_node_outage,
               "three-node": analytic.three_node_outage,
               "half-duplex": analytic.half_duplex_outage}


def row_key(scenario, method, variable, value, sigma_l2) -> str:
    return f"{scenario}|{method}|{variable}|{value:.10g}|{sigma_l2:.10g}"


def preset_refs(name: str) -> dict[str, float]:
    spec = replace(sweep.build_preset(name)[0], methods=("analytic", "closed-form"))
    return {row_key(r.scenario, r.method, r.variable, r.value, r.sigma_l2): r.outage
            for r in sweep.run_sweep(spec)}


def query_block(block: int) -> list[dict]:
    queries = []
    n, d = QUERIES_PER_SCENARIO, len(RANGES)
    for s_idx, scenario in enumerate(SCENARIOS):
        cell_rng = np.random.default_rng([MASTER_SEED, s_idx])
        cells = np.column_stack([cell_rng.permutation(n) for _ in range(d)])
        offsets = np.random.default_rng([MASTER_SEED, s_idx, block]).random((n, d))
        for u in (cells + offsets) / n:
            q = {"scenario": scenario}
            for (name, lo, hi, log10), x in zip(RANGES, u):
                v = lo + (hi - lo) * float(x)
                q[name] = 10.0 ** v if log10 else v
            params = NetworkParams(alpha1=q["alpha1"], alpha2=q["alpha2"], p_b=1.0,
                                   p_u=q["pu"], sigma_n2=q["sigma_n2"],
                                   sigma_l2=q["sigma_l2"])
            q["outage"] = ANALYTIC_FN[scenario](params, q["rate"]).value
            queries.append(q)
    return queries


def main() -> None:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    t0 = time.perf_counter()
    refs = {"generated_by": "python3 benchmarks/make_references.py",
            "commit": commit,
            "csv_header": sweep.CSV_HEADER,
            "rows": {**preset_refs("fig3"), **preset_refs("fig5")},
            "query_blocks": []}
    print(f"presets done in {time.perf_counter() - t0:.1f} s", flush=True)
    for b in range(BLOCKS):
        refs["query_blocks"].append(query_block(b))
        print(f"block {b} done at {time.perf_counter() - t0:.1f} s", flush=True)
    with open(OUT, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
