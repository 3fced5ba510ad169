import json
import logging
import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from fdcell import analytic, closedform, simulate, sweep
from fdcell.model import NetworkParams, Scenario
from fdcell.quadrature import QuadratureConfig
from fdcell.simulate import BLOCK, SimConfig, estimate_outage
from fdcell.sweep import (
    CSV_HEADER,
    PRESETS,
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

SMALL_SIM = SimConfig(trials=1500, seed=13)

# per swept variable: a grid, and the NetworkParams changes and target rate
# at one of its values (two-node rows also take their sigma_l2 column)
MC_SWEEPS = {
    "rate": ((0.0, 0.5, 1.0), lambda v: ({}, v)),
    "density": ((1e-4, 1e-3, 1e-2), lambda v: ({"lam": v}, 0.5)),
    "bs_power": ((1.0, 10.0), lambda v: ({"p_b": v, "p_u": v}, 0.5)),
    "residual_li": ((1e-4, 1e-2), lambda v: ({}, 0.5)),
}


def small_rate_spec(**overrides):
    kwargs = dict(variable="rate", grid=make_grid(0.0, 1.0, 3),
                  methods=("analytic", "closed-form", "mc"),
                  li_levels=(0.0, 1e-3), sim=SMALL_SIM)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSpecValidation:
    def test_empty_scenarios(self):
        with pytest.raises(ConfigError):
            small_rate_spec(scenarios=())

    def test_unknown_variable(self):
        with pytest.raises(ConfigError):
            small_rate_spec(variable="frequency")

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError):
            small_rate_spec(grid=(0.0, 1.0, 1.0))
        with pytest.raises(ConfigError):
            small_rate_spec(grid=())

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            small_rate_spec(methods=("analytic", "magic"))

    def test_negative_li(self):
        with pytest.raises(ConfigError):
            small_rate_spec(li_levels=(-1e-3,))

    def test_positive_grids(self):
        with pytest.raises(ConfigError):
            SweepSpec(variable="density", grid=(0.0, 1e-3))

    def test_empty_methods(self):
        with pytest.raises(ConfigError, match="method"):
            small_rate_spec(methods=())

    @pytest.mark.parametrize("variable, grid", [
        ("rate", (-1.0, 0.0)), ("residual_li", (-1e-3, 1e-3)),
        ("bs_power", (-1.0, 1.0)),
    ])
    def test_negative_grids(self, variable, grid):
        with pytest.raises(ConfigError, match="grid must be"):
            SweepSpec(variable=variable, grid=grid)

    @pytest.mark.parametrize("rate", [-0.1, math.nan])
    def test_bad_fixed_rate(self, rate):
        with pytest.raises(ConfigError, match="rate must be >= 0"):
            SweepSpec(variable="density", grid=(1e-3,), rate=rate)

    @pytest.mark.parametrize("variable, grid, rate", [
        ("density", (1e-3,), math.inf), ("rate", (0.5, math.inf), 0.1),
        ("rate", (math.inf,), 0.1)])
    def test_infinite_rate(self, variable, grid, rate):
        with pytest.raises(ConfigError, match="must be finite"):
            SweepSpec(variable=variable, grid=grid, rate=rate)

    @pytest.mark.parametrize("variable", ["rate", "density", "bs_power",
                                          "residual_li"])
    @pytest.mark.parametrize("grid", [(0.5, math.nan), (math.nan,),
                                      (math.nan, 0.5)])
    def test_nan_in_grid(self, variable, grid):
        with pytest.raises(ConfigError, match="grid"):
            SweepSpec(variable=variable, grid=grid)

    @pytest.mark.parametrize("overrides", [
        {"variable": "residual_li", "grid": (1e-4, 1e-2)},
        {"scenarios": (Scenario.THREE_NODE_FD,)},
        {"scenarios": (Scenario.THREE_NODE_FD, Scenario.HALF_DUPLEX)},
    ])
    def test_li_levels_no_row_reads(self, overrides):
        # a swept sigma_l2, or no two-node scenario, would ignore them
        with pytest.raises(ConfigError, match="li_levels"):
            small_rate_spec(**overrides)
        small_rate_spec(**overrides, li_levels=())

    def test_model_bound_names_the_point(self):
        # p_u = 1e10 * 1e300 overflows: the row's model fails its bounds
        # when the spec is made, not when the row runs
        with pytest.raises(ConfigError, match=r"bs_power = 1e\+300, sigma_l2 = "
                           r"0: p_u must be finite"):
            SweepSpec("bs_power", (1.0, 1e300), scenarios=(Scenario.THREE_NODE_FD,),
                      fixed=NetworkParams(p_u=1e10))

    def test_nan_li_level(self):
        with pytest.raises(ConfigError, match="li_levels"):
            small_rate_spec(li_levels=(0.0, math.nan))

    @pytest.mark.parametrize("field, entries", [
        ("scenarios", (Scenario.THREE_NODE_FD, Scenario.THREE_NODE_FD)),
        ("methods", ("analytic", "mc", "analytic")),
        ("li_levels", (0.0, 1e-3, 0.0)),
    ])
    def test_repeated_entry(self, field, entries):
        # a repeat would emit its rows twice
        with pytest.raises(ConfigError, match=f"{field} must not repeat"):
            small_rate_spec(**{field: entries})


class TestMakeGrid:
    def test_linear(self):
        assert make_grid(0.0, 4.0, 41)[0] == 0.0
        assert make_grid(0.0, 4.0, 41)[-1] == 4.0
        assert len(make_grid(0.0, 4.0, 41)) == 41

    def test_log(self):
        g = make_grid(1e-4, 1e-2, 9, "log")
        assert g[0] == pytest.approx(1e-4) and g[-1] == pytest.approx(1e-2)
        ratios = [b / a for a, b in zip(g, g[1:])]
        assert all(r == pytest.approx(ratios[0]) for r in ratios)

    def test_single_point(self):
        assert make_grid(2.0, 1.0, 1) == (2.0,)
        with pytest.raises(ConfigError, match="at least one point"):
            make_grid(0.0, 1.0, 0)

    def test_errors(self):
        with pytest.raises(ConfigError):
            make_grid(1.0, 0.0, 5)
        with pytest.raises(ConfigError):
            make_grid(0.0, 1.0, 5, "log")
        with pytest.raises(ConfigError):
            make_grid(0.0, 1.0, 5, "cubic")

    @pytest.mark.parametrize("steps", [1, 3])
    @pytest.mark.parametrize("lo, hi, spacing, message", [
        (0.0, 1.0, "bogus", "unknown grid spacing"),
        (0.0, math.inf, "linear", "must be finite"),
        (-math.inf, 1.0, "linear", "must be finite"),
        (math.nan, 1.0, "log", "must be finite"),
    ])
    def test_checks_hold_for_every_step_count(self, steps, lo, hi, spacing,
                                              message):
        with pytest.raises(ConfigError, match=message):
            make_grid(lo, hi, steps, spacing)


class TestRunSweep:
    def test_row_inventory_and_order(self):
        rows = run_sweep(small_rate_spec())
        # two-node carries both LI levels, the others one row per grid point
        per_method = 3 * 2 + 3 + 3
        assert len(rows) == 3 * per_method
        keys = [(r.scenario, r.method, r.value, r.sigma_l2) for r in rows]
        assert keys == sorted(keys, key=lambda k: (
            ["two-node", "three-node", "half-duplex"].index(k[0]),
            k[1], k[2], k[3]))

    def test_order_of_spec_entries_is_irrelevant(self):
        # rows come in output order whatever the order of the spec's entries
        shuffled = small_rate_spec(
            scenarios=(Scenario.HALF_DUPLEX, Scenario.TWO_NODE_FD,
                       Scenario.THREE_NODE_FD),
            methods=("mc", "analytic", "closed-form"), li_levels=(1e-3, 0.0))
        rows, ordered = run_sweep(shuffled), run_sweep(small_rate_spec())
        assert [(r.scenario, r.method, r.value, r.sigma_l2, r.outage,
                 r.mc_stderr) for r in rows] == \
               [(r.scenario, r.method, r.value, r.sigma_l2, r.outage,
                 r.mc_stderr) for r in ordered]

    def test_deterministic_rerun(self):
        spec = small_rate_spec()
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert [(r.scenario, r.method, r.value, r.sigma_l2, r.outage, r.mc_stderr)
                for r in a] == \
               [(r.scenario, r.method, r.value, r.sigma_l2, r.outage, r.mc_stderr)
                for r in b]

    def test_closed_form_skipped_with_notice(self, caplog):
        spec = small_rate_spec(fixed=NetworkParams(sigma_n2=1.0),
                               methods=("analytic", "closed-form"))
        with caplog.at_level(logging.INFO, logger="fdcell.sweep"):
            rows = run_sweep(spec)
        assert not any(r.method == "closed-form" for r in rows)
        assert any("closed form not applicable" in m
                   and closedform.REQUIREMENTS in m for m in caplog.messages)

    def test_closed_form_decided_once(self, caplog):
        # fig2 has noise: one notice for the sweep, not one per row
        spec = replace(build_preset("fig2")[0], methods=("analytic", "closed-form"))
        with caplog.at_level(logging.INFO, logger="fdcell.sweep"):
            rows = run_sweep(spec)
        assert len(rows) == 52 and {r.method for r in rows} == {"analytic"}
        assert sum("closed form not applicable" in m
                   for m in caplog.messages) == 1

    @pytest.mark.parametrize("variable", sweep.VARIABLES)
    @pytest.mark.parametrize("p_b, p_u, sigma_n2", [
        (1.0, 1.0, 0.0), (3.0, 3.0, 0.0), (0.1, 0.1, 0.0), (7e-5, 7e-5, 0.0),
        # p_u/p_b one ulp above and one below 1
        (1.0, math.nextafter(1.0, 2.0), 0.0), (1.0, math.nextafter(1.0, 0.0), 0.0),
        (3.0, math.nextafter(3.0, 4.0), 0.0), (3.0, math.nextafter(3.0, 0.0), 0.0),
        (3.0, 3.0, 1.0),
    ])
    def test_closed_form_applies_to_every_row_or_none(self, variable, p_b,
                                                       p_u, sigma_n2):
        # what sweep_rows decides once, of spec.fixed, holds for every row
        fixed = NetworkParams(p_b=p_b, p_u=p_u, sigma_n2=sigma_n2)
        rng = np.random.default_rng(7)
        grid = tuple(sorted({*make_grid(1e-2, 1e4, 13, "log"),
                             *10.0 ** rng.uniform(-3.0, 4.0, 30),
                             # the smallest bs_power accepted
                             math.nextafter(sys.float_info.min, 1.0)}))
        spec = SweepSpec(variable, grid, fixed=fixed, methods=("closed-form",),
                         li_levels=() if variable == "residual_li" else (0.0, 1e-3))
        models = [params for _, rows in spec.plan for _, _, params, _ in rows]
        assert {closedform.applicable(p) for p in models} == \
            {closedform.applicable(fixed)}

    @pytest.mark.parametrize("low", [
        5e-324, math.nextafter(sys.float_info.min, 0.0), sys.float_info.min])
    def test_subnormal_bs_power_is_rejected(self, low):
        # at these p_b, p_b*(p_u/p_b) rounds back to p_b for p_u/p_b one ulp
        # below 1, so a row would take the closed form that fixed does not
        fixed = NetworkParams(p_u=math.nextafter(1.0, 0.0))
        assert low * (fixed.p_u / fixed.p_b) == low
        with pytest.raises(ConfigError, match=r"bs_power grid must be > 2\.22507e-308"):
            SweepSpec("bs_power", (low, 1.0), fixed=fixed, methods=("closed-form",))

    @pytest.mark.parametrize("variable", list(MC_SWEEPS))
    def test_mc_rate_rows_share_samples(self, variable):
        # every row of the one shared simulation equals a direct estimate
        grid, point = MC_SWEEPS[variable]
        fixed = NetworkParams(sigma_n2=1e-6)
        # a swept sigma_l2 takes no li_levels
        li = () if variable == "residual_li" else (0.0, 1e-3)
        rows = run_sweep(small_rate_spec(variable=variable, grid=grid,
                                         methods=("mc",), fixed=fixed, rate=0.5,
                                         li_levels=li))
        # two-node has one row per LI level unless sigma_l2 is swept itself
        per_point = 3 if variable == "residual_li" else 4
        assert len(rows) == len(grid) * per_point
        for r in rows:
            changes, rate = point(r.value)
            params = fixed.replace(**changes)
            if r.scenario == Scenario.TWO_NODE_FD.value:
                params = params.replace(sigma_l2=r.sigma_l2)
            direct = estimate_outage(params, Scenario(r.scenario), rate, SMALL_SIM)
            assert (r.outage, r.mc_stderr) == (direct.value, direct.stderr)

    def test_one_simulation_per_sweep(self, monkeypatch):
        calls = []
        sample = simulate.sample_realization

        def counting(*args):
            calls.append(next(a for a in args if isinstance(a, tuple)))
            return sample(*args)

        monkeypatch.setattr(simulate, "sample_realization", counting)
        sim = SimConfig(trials=100, seed=13)
        spec = SweepSpec(variable="density", grid=make_grid(1e-4, 1e-2, 3, "log"),
                         li_levels=(0.0, 1e-3), methods=("mc",), sim=sim)
        rows = run_sweep(spec)
        assert len(rows) == 3 * 4
        blocks = -(-sim.trials // BLOCK)
        assert calls == [spec.scenarios] * blocks
        # the simulation's time is shared by all the sweep's rows
        assert all(r.elapsed_ms > 0 for r in rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_rows_draws_once(self, monkeypatch, workers):
        # a direct sweep_rows call draws the sweep's one simulation itself,
        # over its workers, for all 45 Monte Carlo rows of fig5
        calls = []
        draw = sweep.simulate_sinr

        def counting(params, scenarios, sim, workers=1):
            calls.append((params, scenarios, sim, workers))
            return draw(params, scenarios, sim, workers)

        monkeypatch.setattr(sweep, "simulate_sinr", counting)
        (spec,) = build_preset("fig5", SimConfig(trials=200, seed=13))
        rows = sweep_rows(spec, workers=workers)
        assert sum(r.method == "mc" for r in rows) == 45
        assert calls == [(spec.fixed, spec.scenarios, spec.sim, workers)]

    def test_default_li_level_is_fixed_sigma_l2(self):
        # without li_levels the two-node rows use the configured loop gain
        spec = SweepSpec(variable="rate", grid=(1.0,),
                         scenarios=(Scenario.TWO_NODE_FD,),
                         fixed=NetworkParams(sigma_l2=1e-3))
        (row,) = run_sweep(spec)
        assert row.sigma_l2 == 1e-3
        assert row.outage == pytest.approx(0.8895, abs=1e-4)

    def test_density_sweep_moves_lambda(self):
        spec = SweepSpec(variable="density", grid=make_grid(1e-4, 1e-2, 3, "log"),
                         scenarios=(Scenario.TWO_NODE_FD,),
                         li_levels=(1e-3,), methods=("analytic",), rate=0.1)
        rows = run_sweep(spec)
        outages = [r.outage for r in rows]
        assert len(rows) == 3
        assert outages == sorted(outages, reverse=True)

    def test_density_sweep_leaves_three_node_flat(self):
        spec = SweepSpec(variable="density", grid=make_grid(1e-4, 1e-2, 5, "log"),
                         scenarios=(Scenario.THREE_NODE_FD,),
                         methods=("analytic",), rate=0.1)
        outages = [r.outage for r in run_sweep(spec)]
        assert max(outages) - min(outages) < 1e-3

    def test_bs_power_sweep_preserves_ratio(self):
        spec = SweepSpec(variable="bs_power", grid=(1.0, 10.0),
                         scenarios=(Scenario.THREE_NODE_FD,),
                         fixed=NetworkParams(sigma_n2=1.0),
                         methods=("analytic",), rate=0.1)
        rows = run_sweep(spec)
        assert rows[0].outage > rows[1].outage


def analytic_spec(name: str) -> SweepSpec:
    """A preset's sweep with its analytic and closed-form columns only."""
    return replace(build_preset(name)[0], methods=("analytic", "closed-form"))


def fig3_request() -> SweepSpec:
    """fig3 at rates 0.5, 1.5, 2.5 and 3.5, analytic and closed form."""
    return replace(analytic_spec("fig3"), grid=(0.5, 1.5, 2.5, 3.5))


def memo_counts(caplog, spec):
    """(computed, reused) from sweep_rows' DEBUG line, which it logs once."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="fdcell.sweep"):
        rows = sweep_rows(spec)
    (record,) = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert record.args[0] == len(rows)
    return record.args[1:]


class TestInnerIntegralMemo:
    """A sweep computes each two-node inner integral once and shares it
    across its rows; single route calls store nothing."""

    @pytest.mark.parametrize("name", ["fig3", "fig4", "fig5"])
    def test_preset_rows_equal_single_route_calls(self, name):
        spec = analytic_spec(name)
        rows = run_sweep(spec)
        assert rows
        for r in rows:
            changes = {"sigma_l2": r.sigma_l2}
            if spec.variable == "density":
                changes["lam"] = r.value
            params = spec.fixed.replace(**changes)
            rate = r.value if spec.variable == "rate" else spec.rate
            route = analytic if r.method == "analytic" else closedform
            direct = route.outage(Scenario(r.scenario), params, rate, spec.quad)
            assert r.outage == direct.value, r

    def test_each_sweep_computes_its_own(self, monkeypatch):
        # the memo lives for one sweep: a rerun evaluates every kernel node
        # again, for both routes.  One two-node point keeps its few inner
        # integrals in the memo's bound
        nodes = []

        def counting(route_kernel):
            def kernel(t, *args):
                nodes.append(np.size(t))
                return route_kernel(t, *args)
            return kernel

        monkeypatch.setattr(closedform, "arccot", counting(closedform.arccot))
        monkeypatch.setattr(analytic, "tail_integral",
                            counting(analytic.tail_integral))
        spec = replace(fig3_request(), grid=(1.5,),
                       scenarios=(Scenario.TWO_NODE_FD,))
        first = sweep_rows(spec)
        counts = [len(nodes), sum(nodes)]
        second = sweep_rows(spec)
        assert counts[0] > 0
        assert [len(nodes), sum(nodes)] == [2 * counts[0], 2 * counts[1]]
        assert [r.outage for r in first] == [r.outage for r in second]

    def test_half_of_the_fig3_request_is_reused(self, caplog, monkeypatch):
        calls, exclusion_average = [], analytic.exclusion_average

        def counting(kappa, s, cfg, *args):
            calls.append(kappa)
            return exclusion_average(kappa, s, cfg, *args)

        for module in (analytic, closedform):
            monkeypatch.setattr(module, "exclusion_average", counting)
        computed, reused = memo_counts(caplog, fig3_request())
        assert computed + reused == len(calls)
        assert reused >= len(calls) / 2

    def test_one_debug_line_per_sweep(self, caplog):
        # a sweep without two-node inner integrals states its zeros
        spec = SweepSpec("rate", (0.5, 1.0), scenarios=(Scenario.THREE_NODE_FD,))
        assert memo_counts(caplog, spec) == (0, 0)
        assert "inner integrals computed" in caplog.text

    @pytest.mark.parametrize("scenario", [Scenario.TWO_NODE_FD,
                                          Scenario.THREE_NODE_FD])
    @pytest.mark.parametrize("method", ["analytic", "mc"])
    def test_one_point_spec_builds_no_params(self, monkeypatch, scenario,
                                              method):
        # the CLI's single estimate: its rows use the spec's own model
        fixed = NetworkParams(sigma_l2=1e-3, sigma_n2=1e-6)
        built = []
        check = NetworkParams.__post_init__
        monkeypatch.setattr(NetworkParams, "__post_init__",
                            lambda self: built.append(check(self)))
        spec = SweepSpec("rate", (0.5,), scenarios=(scenario,), fixed=fixed,
                         methods=(method,), sim=SimConfig(trials=64, seed=1))
        (row,) = sweep_rows(spec)
        assert built == []
        assert row.sigma_l2 == (1e-3 if scenario is Scenario.TWO_NODE_FD
                                else 0.0)

    def test_each_model_built_once(self, monkeypatch):
        # fig5 with all three methods: at most one model per (density,
        # sigma_l2) point, built with the spec, and none per method or row
        built = []
        check = NetworkParams.__post_init__
        monkeypatch.setattr(NetworkParams, "__post_init__",
                            lambda self: built.append(check(self)))
        (spec,) = build_preset("fig5", SimConfig(trials=64, seed=1))
        planned = len(built)
        rows = sweep_rows(spec)
        assert len(rows) == 3 * 45
        # one per (density, sigma_l2): the other scenarios' rows share the
        # two-node model at fixed.sigma_l2 = 0
        assert planned == len(spec.grid) * len(spec.li_levels) == 27
        assert len(built) == planned

    def test_plan_is_not_an_argument(self):
        spec = SweepSpec("rate", (0.5, 1.0), scenarios=(Scenario.HALF_DUPLEX,))
        assert spec.plan == ((Scenario.HALF_DUPLEX,
                              ((0.5, 0.0, spec.fixed, 0.5),
                               (1.0, 0.0, spec.fixed, 1.0))),)
        assert spec == replace(spec) and "plan" not in repr(spec)
        with pytest.raises(TypeError):
            SweepSpec("rate", (0.5,), plan=())

    @pytest.mark.parametrize("scenarios, methods, counts", [
        ((Scenario.THREE_NODE_FD, Scenario.HALF_DUPLEX),
         ("analytic", "closed-form"), (0, 0)),
        (tuple(Scenario), ("mc",), (0, 0)),
        ((Scenario.TWO_NODE_FD,), ("closed-form",), (4, 0)),
        ((Scenario.TWO_NODE_FD,), ("analytic", "mc"), (4, 0)),
    ], ids=["no-two-node", "mc-only", "two-node-closed-form", "two-node-analytic"])
    def test_memo_counts_only_inner_integrals(self, caplog, scenarios, methods,
                                              counts):
        # every sweep opens the memo, and only two-node analytic and
        # closed-form rows run inner integrals, two per rate here: any other
        # sweep computes and reuses none
        spec = SweepSpec("rate", (0.5, 1.0), scenarios=scenarios,
                         methods=methods, sim=SimConfig(trials=64, seed=1))
        assert memo_counts(caplog, spec) == counts

    def test_closed_form_shares_inner_integrals_across_densities(self, caplog):
        # its inner scales x^2*sqrt(T) do not depend on the density, so all
        # of fig5 computes what its first density alone does
        spec = replace(build_preset("fig5")[0], methods=("closed-form",))
        first = replace(spec, grid=spec.grid[:1])
        assert memo_counts(caplog, spec)[0] == memo_counts(caplog, first)[0] == 4


class TestCompareReport:
    def row(self, method, outage, stderr=None, value=1.0):
        return SweepRow("two-node", method, "rate", value, 0.0, outage,
                        stderr, 0.0)

    def test_identical_values_unflagged(self):
        rep = compare_report([self.row("analytic", 0.70),
                              self.row("mc", 0.70, 0.01)])
        assert rep.n_pairs == 1 and rep.pairs[0].z == 0.0
        assert not rep.pairs[0].flagged

    def test_four_sigma_flagged(self):
        rep = compare_report([self.row("analytic", 0.70),
                              self.row("mc", 0.74, 0.01)])
        assert rep.pairs[0].z == pytest.approx(4.0)
        assert rep.pairs[0].flagged and rep.n_flagged == 1

    def test_zero_stderr_handling(self):
        rep = compare_report([self.row("analytic", 0.0),
                              self.row("mc", 0.0, 0.0)])
        assert rep.pairs[0].z == 0.0
        rep = compare_report([self.row("analytic", 0.1),
                              self.row("mc", 0.0, 0.0)])
        assert rep.pairs[0].z == math.inf

    def test_empty_notice(self):
        rep = compare_report([self.row("analytic", 0.70)])
        assert rep.n_pairs == 0 and rep.notice

    @pytest.mark.parametrize("method", ["analytic", "mc"])
    def test_repeated_row_is_an_error(self, method):
        # whichever copy were kept, the other could hide a flagged pair
        rows = [self.row("analytic", 0.70), self.row("mc", 0.70, 0.01),
                self.row(method, 0.10, 0.01)]
        with pytest.raises(ConfigError, match=f"repeated {method} row at "
                           "scenario=two-node rate=1 sigma_l2=0"):
            compare_report(rows)


class TestSerialization:
    def test_csv_round_trip_is_identity(self):
        rows = run_sweep(small_rate_spec(methods=("analytic", "mc")))
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == CSV_HEADER
        parsed = rows_from_csv(text)
        assert rows_to_csv(parsed) == text

    def test_csv_rejects_other_headers(self):
        with pytest.raises(ConfigError):
            rows_from_csv("a,b\n1,2\n")

    def test_columns_are_pinned(self):
        # the fixed schema: reordering or renaming SweepRow's fields fails
        columns = ["scenario", "method", "variable", "value", "sigma_l2",
                   "outage", "mc_stderr", "elapsed_ms"]
        assert CSV_HEADER == ",".join(columns)
        rows = [SweepRow("two-node", "mc", "rate", 1.0, 1e-3, 0.25, 0.01, 2.5),
                SweepRow("half-duplex", "analytic", "rate", 1.0, 0.0, 0.5,
                         None, 0.0)]
        assert rows_to_csv(rows) == (
            CSV_HEADER + "\n"
            "two-node,mc,rate,1,0.001,0.25,0.01,2.5\n"
            "half-duplex,analytic,rate,1,0,0.5,,0\n")
        records = [json.loads(ln) for ln in rows_to_jsonl(rows).splitlines()]
        assert [list(rec) for rec in records] == [columns, columns]
        assert list(records[1].values()) == [
            "half-duplex", "analytic", "rate", 1.0, 0.0, 0.5, None, 0.0]

    @pytest.mark.parametrize("row", [
        "two-node,analytic,rate,1,0,0.5,",          # a cell short
        "two-node,analytic,rate,1,0,0.5,,0,9",      # a cell over
    ])
    def test_csv_rejects_malformed_rows(self, row):
        with pytest.raises(ConfigError, match="malformed row"):
            rows_from_csv(CSV_HEADER + "\n" + row + "\n")

    @pytest.mark.parametrize("row", [
        "two-node,analytic,rate,1,0,1.5,,0",        # outage above 1
        "two-node,analytic,rate,1,0,0.5,,",         # only mc_stderr may be empty
        "two-node,analytic,rate,nan,0,0.5,,0",      # value not finite
        "two-node,analytic,rate,inf,0,0.5,,0",
        "two-node,analytic,rate,1,-0.001,0.5,,0",   # sigma_l2 below 0
        "two-node,analytic,rate,1,nan,0.5,,0",
        "two-node,analytic,rate,1,inf,0.5,,0",
        "two-node,mc,rate,1,0,0.5,-0.01,0",         # mc_stderr below 0
        "two-node,mc,rate,1,0,0.5,nan,0",
        "two-node,mc,rate,1,0,0.5,inf,0",
    ])
    def test_csv_rejects_bad_values(self, row):
        with pytest.raises(ValueError):
            rows_from_csv(CSV_HEADER + "\n" + row + "\n")

    def test_jsonl(self):
        rows = run_sweep(small_rate_spec(methods=("analytic",),
                                         scenarios=(Scenario.HALF_DUPLEX,),
                                         li_levels=()))
        lines = rows_to_jsonl(rows).splitlines()
        assert len(lines) == len(rows)
        rec = json.loads(lines[0])
        assert rec["scenario"] == "half-duplex" and rec["mc_stderr"] is None


class TestPresets:
    def test_known_presets(self):
        assert sorted(PRESETS) == ["fig2", "fig3", "fig4", "fig5"]
        for name in PRESETS:
            assert len(build_preset(name, SMALL_SIM)) == 1

    def test_fig3_shape(self):
        spec = build_preset("fig3", SMALL_SIM)[0]
        assert spec.variable == "rate" and len(spec.grid) == 41
        assert spec.grid[0] == 0.0 and spec.grid[-1] == 4.0
        assert spec.li_levels == (0.0, 1e-5, 1e-3)
        assert spec.fixed.sigma_n2 == 0.0

    def test_fig2_bakes_noise(self):
        spec = build_preset("fig2", SMALL_SIM)[0]
        assert spec.fixed.sigma_n2 == 1.0 and spec.rate == 0.1
        assert spec.variable == "bs_power"

    def test_fig4_one_rate_sweep(self):
        (spec,) = build_preset("fig4", SMALL_SIM)
        assert spec.variable == "rate" and spec.grid == (0.5, 1.0, 2.0)
        assert spec.li_levels == make_grid(1e-6, 1e-1, 11, "log")
        assert spec.scenarios == (Scenario.TWO_NODE_FD,)
        assert spec.methods == ("analytic", "closed-form", "mc")

    def test_fig4_rows_equal_one_loop_sweep_per_rate(self):
        # the one table holds the rows of a residual_li sweep at each rate,
        # the rate in value and the loop gain in sigma_l2, with the same
        # outage and stderr: both draw one simulation at spec.fixed
        sim = SimConfig(trials=256, seed=3)
        (spec,) = build_preset("fig4", sim)
        table = {(r.method, r.value, r.sigma_l2): (r.outage, r.mc_stderr)
                 for r in run_sweep(spec)}
        per_rate = {}
        for rate in (0.5, 1.0, 2.0):
            for r in run_sweep(SweepSpec(
                    "residual_li", make_grid(1e-6, 1e-1, 11, "log"),
                    scenarios=(Scenario.TWO_NODE_FD,), rate=rate,
                    methods=("analytic", "closed-form", "mc"), sim=sim)):
                per_rate[(r.method, rate, r.value)] = (r.outage, r.mc_stderr)
        assert len(table) == 3 * 3 * 11
        assert table == per_rate

    def test_fig5_density(self):
        spec = build_preset("fig5", SMALL_SIM)[0]
        assert spec.variable == "density" and spec.rate == 0.1
        assert 1e-1 in spec.li_levels

    def test_settings_reach_the_spec(self):
        quad = QuadratureConfig(rel_tol_outer=1e-6)
        for name, stored in PRESETS.items():
            (spec,) = build_preset(name, SMALL_SIM, quad)
            assert spec.sim == SMALL_SIM and spec.quad == quad
            assert spec == replace(stored, sim=SMALL_SIM, quad=quad)
            # the stored presets keep the default settings
            assert stored.sim == SimConfig() and stored.quad == QuadratureConfig()
            assert build_preset(name) == [stored]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            build_preset("fig9")
