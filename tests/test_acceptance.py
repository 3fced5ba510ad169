"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo pieces use
a fixed seed so every value here is reproducible bit for bit.
"""

import math
import time

import numpy as np
import pytest

from fdcell import analytic, closedform
from fdcell.model import NetworkParams, Scenario, nearest_bs_distance_pdf, threshold_from_rate
from fdcell.quadrature import QuadratureConfig
from fdcell.simulate import SimConfig, estimate_outage
from fdcell.sweep import build_preset, compare_report, run_sweep

QUAD = QuadratureConfig()
ACCEPT_SEED = 1
TRIALS = 100_000


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    state = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"criterion {criterion}: {state}{suffix}")
    return ok


@pytest.fixture(scope="module")
def fig3():
    """Full rate sweep (41 rates, all scenarios, three LI levels) with
    analytic, closed-form and 1e5-trial Monte Carlo columns.

    The window is the default's: the interference beyond each trial's
    last drawn point counts by its mean, so a wider window changes the
    estimates by a few hundredths of a stderr and adds only sampling time.
    """
    spec = build_preset("fig3", SimConfig(trials=TRIALS, seed=ACCEPT_SEED,
                                          window_factor=8.0))[0]
    t0 = time.perf_counter()
    rows = run_sweep(spec)
    elapsed = time.perf_counter() - t0
    return rows, elapsed


def test_criterion_1_closed_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for rate in (0.1, 0.5, 1.0, 2.0, 4.0):
        for lam in (1e-4, 1e-3, 1e-2):
            for sl in (0.0, 1e-3):
                p = NetworkParams(lam=lam, sigma_l2=sl)
                general = analytic.two_node_outage(p, rate, QUAD).value
                closed = closedform.two_node_outage(rate, lam, sl, QUAD).value
                worst = max(worst, abs(general - closed))
            general = analytic.three_node_outage(NetworkParams(lam=lam),
                                                 rate, QUAD).value
            worst = max(worst, abs(general - closedform.three_node_outage(rate).value))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    assert report("1 (closed-form/general equivalence)", ok,
                  f"max |diff| = {worst:.2e}, {elapsed:.1f} s")


def test_criterion_2_analytic_mc_agreement(fig3):
    rows, elapsed = fig3
    rep = compare_report(rows)
    expected_pairs = 41 * 5  # two-node x3 LI levels + three-node + half-duplex
    ok = (rep.n_pairs == expected_pairs
          and rep.flagged_fraction <= 0.01
          and elapsed < 600.0)
    assert report("2 (analytic-MC agreement on the rate sweep)", ok,
                  f"{rep.n_flagged}/{rep.n_pairs} flagged, max z = "
                  f"{rep.max_z:.2f}, sweep took {elapsed:.0f} s")


def test_criterion_3_three_node_spot_values():
    # direct arithmetic of the closed form; the same expressions evaluated
    # with float64 give the frozen references
    ref1 = 1.0 - 1.0 / (1.0 + math.atan(1.0) + math.pi / 2.0)
    st3 = math.sqrt(3.0)
    ref2 = 1.0 - 1.0 / (1.0 + st3 * (math.atan(st3) + math.pi / 2.0))
    assert ref1 == pytest.approx(0.7020434891594469, abs=1e-15)
    assert ref2 == pytest.approx(0.8193151527359096, abs=1e-15)
    v1 = closedform.three_node_outage(1.0).value
    v2 = closedform.three_node_outage(2.0).value
    ok = abs(v1 - ref1) <= 1e-5 and abs(v2 - ref2) <= 1e-5
    assert report("3 (three-node closed-form spot values)", ok,
                  f"outage(1) = {v1:.7f}, outage(2) = {v2:.7f}")


def test_criterion_4_density_independence():
    rate = 1.0
    spread = 0.0
    for fn, params in (
            (analytic.two_node_outage, lambda lam: NetworkParams(lam=lam)),
            (analytic.three_node_outage, lambda lam: NetworkParams(lam=lam)),
            (analytic.half_duplex_outage, lambda lam: NetworkParams(lam=lam))):
        values = [fn(params(lam), rate, QUAD).value
                  for lam in (1e-4, 1e-3, 1e-2)]
        spread = max(spread, max(values) - min(values))
    ok = spread < 1e-3
    assert report("4 (density independence at zero noise)", ok,
                  f"max spread = {spread:.2e}")


def _bracket_sign_change(diff_fn, lo, hi, steps=200):
    grid = np.linspace(lo, hi, steps)
    signs = np.sign([diff_fn(r) for r in grid])
    idx = np.nonzero(signs[:-1] != signs[1:])[0]
    return [float(grid[i]) for i in idx]


def test_criterion_5_rate_crossings():
    hd_vs_two = _bracket_sign_change(
        lambda r: closedform.half_duplex_outage(r).value
        - closedform.two_node_outage(r, 1e-3, 0.0, QUAD).value, 0.3, 1.0)
    hd_vs_three = _bracket_sign_change(
        lambda r: closedform.half_duplex_outage(r).value
        - closedform.three_node_outage(r).value, 1.0, 2.5)
    ok = (len(hd_vs_two) == 1 and 0.5 <= hd_vs_two[0] <= 0.7
          and len(hd_vs_three) == 1 and 1.5 <= hd_vs_three[0] <= 1.9)
    assert report("5 (half-duplex crossing points)", ok,
                  f"vs two-node at R = {hd_vs_two}, "
                  f"vs three-node at R = {hd_vs_three}")


def test_criterion_6_loop_interference_anchor():
    p = NetworkParams(sigma_l2=1e-3)
    value = analytic.two_node_outage(p, 0.5, QUAD).value
    ok = 0.75 <= value <= 0.85
    assert report("6 (80% outage anchor at R=0.5, sigma_l2=1e-3)", ok,
                  f"outage = {value:.4f}")


def test_criterion_7_power_monotonicity_and_floor():
    rate = 0.1
    grid = np.geomspace(1e-2, 1e4, 13)
    curves = {
        "two-node sl=0": (analytic.two_node_outage, 0.0),
        "two-node sl=1e-3": (analytic.two_node_outage, 1e-3),
        "three-node": (analytic.three_node_outage, 0.0),
        "half-duplex": (analytic.half_duplex_outage, 0.0),
    }
    monotone = True
    floor_gap = 0.0
    for name, (fn, sl) in curves.items():
        values = [fn(NetworkParams(sigma_n2=1.0, p_b=pb, p_u=pb, sigma_l2=sl),
                     rate, QUAD).value for pb in grid]
        monotone &= all(b <= a + 1e-9 for a, b in zip(values, values[1:]))
        floor = fn(NetworkParams(sigma_l2=sl), rate, QUAD).value
        floor_gap = max(floor_gap, abs(values[-1] - floor))
    floor_ok = floor_gap <= 1e-3
    ok = monotone and floor_ok
    report("7 (outage vs power: monotone + floor within 1e-3 at P_b=1e4)", ok,
           f"monotone = {monotone}, gap to zero-noise value at top of grid = "
           f"{floor_gap:.3f}")
    assert monotone
    assert floor_ok, (
        f"the zero-noise floor is NOT reached within 1e-3 by P_b = 1e4 at the "
        f"default density 1e-3 (gap {floor_gap:.3f}); convergence scales as "
        f"1/P_b and needs P_b ~ 1e7 at these parameter scales")


def test_criterion_8_density_helps_under_loop_interference():
    rate = 0.1
    grid = np.geomspace(1e-4, 1e-2, 9)
    ok = True
    detail = []
    for sl in (1e-3, 1e-1):
        values = [analytic.two_node_outage(
            NetworkParams(lam=lam, sigma_l2=sl), rate, QUAD).value
            for lam in grid]
        strictly_decreasing = all(b < a for a, b in zip(values, values[1:]))
        ok &= strictly_decreasing
        detail.append(f"sl={sl:g}: {values[0]:.4f} -> {values[-1]:.4f}")
    assert report("8 (denser networks mitigate loop interference)", ok,
                  "; ".join(detail))


def test_criterion_9_property_suite(fig3):
    rows, _ = fig3
    checks: dict[str, bool] = {}

    grid = (0.0, 0.1, 0.5, 1.0, 2.0, 4.0)
    checks["threshold monotone"] = all(
        threshold_from_rate(a, s) < threshold_from_rate(b, s)
        for s in Scenario for a, b in zip(grid, grid[1:]))
    checks["hd threshold dominates"] = all(
        threshold_from_rate(r, Scenario.HALF_DUPLEX)
        > threshold_from_rate(r, Scenario.TWO_NODE_FD) for r in grid[1:])

    laplace_ok = True
    for r in (1.0, 10.0, 40.0):
        x = r * math.sqrt(NetworkParams().lam * math.pi)
        for t in (0.1, 1.0, 10.0):
            values = (analytic.bs_interference_laplace(x, t, NetworkParams()),
                      analytic.uplink_laplace_full(x, t, NetworkParams()),
                      analytic.uplink_laplace_excluded(x, t, NetworkParams(), QUAD))
            laplace_ok &= all(0.0 < v <= 1.0 for v in values)
            laplace_ok &= values[2] >= values[1]
    checks["laplace transforms in (0,1], exclusion ordering"] = laplace_ok

    by_curve: dict[tuple, list] = {}
    for row in rows:
        if row.method == "analytic":
            by_curve.setdefault((row.scenario, row.sigma_l2), []).append(
                (row.value, row.outage))
    rate_monotone = True
    for curve in by_curve.values():
        curve.sort()
        rate_monotone &= all(b[1] >= a[1] - 1e-6
                             for a, b in zip(curve, curve[1:]))
        rate_monotone &= curve[0][1] == 0.0
    checks["outage nondecreasing in rate, zero at R=0"] = rate_monotone

    li_monotone = True
    for rate in (0.5, 1.0, 2.0):
        values = [analytic.two_node_outage(NetworkParams(sigma_l2=sl), rate,
                                           QUAD).value
                  for sl in (0.0, 1e-5, 1e-4, 1e-3)]
        li_monotone &= all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
    checks["outage nondecreasing in loop gain"] = li_monotone

    norm_ok = True
    from scipy import integrate as sp_integrate

    for lam in (1e-4, 1e-3, 1e-2):
        total, _ = sp_integrate.quad(nearest_bs_distance_pdf, 0.0, np.inf,
                                     args=(lam,))
        norm_ok &= abs(total - 1.0) < 1e-10
    checks["distance pdf normalization"] = norm_ok

    sim = SimConfig(trials=4000, seed=ACCEPT_SEED)
    serial = estimate_outage(NetworkParams(), Scenario.TWO_NODE_FD, 1.0, sim)
    threaded = estimate_outage(NetworkParams(), Scenario.TWO_NODE_FD, 1.0, sim,
                               workers=3)
    checks["mc determinism under parallelism"] = serial.value == threaded.value

    mc_rows = {(r.scenario, r.value, r.sigma_l2): r for r in rows
               if r.method == "mc"}
    analytic_rows = {(r.scenario, r.value, r.sigma_l2): r for r in rows
                     if r.method == "analytic"}
    grid_ok = True
    for key, mc in mc_rows.items():
        scenario, rate, sl = key
        if rate not in (0.5, 1.0, 2.0):
            continue
        diff = abs(mc.outage - analytic_rows[key].outage)
        grid_ok &= diff <= 3.0 * mc.mc_stderr
    checks["matched MC within 3 stderr on the (R, sigma_l2) grid"] = grid_ok

    base = estimate_outage(NetworkParams(), Scenario.THREE_NODE_FD, 1.0,
                           SimConfig(trials=TRIALS, seed=ACCEPT_SEED))
    wide = estimate_outage(NetworkParams(), Scenario.THREE_NODE_FD, 1.0,
                           SimConfig(trials=TRIALS, seed=ACCEPT_SEED,
                                     window_factor=24.0))
    window_shift = abs(wide.value - base.value)
    checks["window doubling shifts less than one stderr"] = \
        window_shift < base.stderr

    ok = all(checks.values())
    assert report("9 (module property suite)", ok,
                  "; ".join(f"{k}: {'ok' if v else 'FAIL'}"
                            for k, v in checks.items()))
