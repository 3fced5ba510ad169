import json
import logging
import os
import subprocess
import sys

import pytest

import fdcell
from fdcell import analytic, cli, closedform, sweep
from fdcell.cli import (
    EXIT_COMPARE,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from fdcell.model import Method, NetworkParams, OutageEstimate, Scenario
from fdcell.simulate import SimConfig, SimMode
from fdcell.quadrature import Integral
from fdcell.sweep import CSV_HEADER, SweepSpec, rows_from_csv, rows_to_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def values(text):
    """CSV lines without their last cell, elapsed_ms: it is wall time, the
    one column that differs on a rerun."""
    return [ln.rsplit(",", 1)[0] for ln in text.splitlines()]


class TestAnalyticCommand:
    def test_basic(self, capsys):
        code, out, _ = run(capsys, "analytic", "--scenario", "three-node",
                           "--rate", "1")
        assert code == EXIT_OK
        assert out.splitlines()[0] == CSV_HEADER
        row = rows_from_csv(out)[0]
        assert row.outage == pytest.approx(0.7020434892, abs=1e-9)

    def test_closed_method(self, capsys):
        code, out, _ = run(capsys, "analytic", "--scenario", "two-node",
                           "--rate", "1", "--method", "closed",
                           "--sigma-l2", "1e-3")
        assert code == EXIT_OK
        assert rows_from_csv(out)[0].method == "closed-form"

    def test_closed_precondition_violation(self, capsys, caplog):
        with caplog.at_level(logging.INFO):
            code, _, err = run(capsys, "analytic", "--scenario", "two-node",
                               "--rate", "1", "--method", "closed",
                               "--sigma-n2", "1")
        assert code == EXIT_CONFIG
        assert "closed form" in err and closedform.REQUIREMENTS in err
        # one line, and no row loop's notice that the row was skipped
        assert len(err.splitlines()) == 1 and not caplog.records

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "analytic", "--scenario", "three-node",
                             "--rate", "1", "--out", str(out_file))
        assert code == EXIT_CONFIG and not out
        assert len(err.splitlines()) == 1 and "cannot write" in err
        assert str(out_file) in err

    def test_out_of_range_estimate_is_numerical_failure(self, capsys,
                                                        monkeypatch):
        # an outage outside [0, 1] after validation exits 3, not 2
        monkeypatch.setattr(analytic, "integrate",
                            lambda *args, **kw: Integral(-0.5, 0.0, 21))
        code, out, err = run(capsys, "analytic", "--scenario", "half-duplex",
                             "--rate", "1")
        assert code == EXIT_NUMERICAL
        assert not out and "numerical failure" in err
        code, _, err = run(capsys, "analytic", "--scenario", "half-duplex",
                           "--rate", "1", "--alpha1", "1.5")
        assert code == EXIT_CONFIG and "configuration error" in err

    def test_row_records_its_wall_time(self, capsys):
        code, out, _ = run(capsys, "analytic", "--scenario", "two-node",
                           "--rate", "1", "--sigma-l2", "1e-3", "--alpha1", "3",
                           "--pu", "0.5")
        assert code == EXIT_OK
        cells = out.splitlines()[1].split(",")
        # the seven cells before elapsed_ms are as they were when it was 0
        assert cells[:7] == ["two-node", "analytic", "rate", "1", "0.001",
                             "0.7480302736", ""]
        assert float(cells[7]) > 0

    def test_missing_rate(self, capsys):
        code, _, err = run(capsys, "analytic", "--scenario", "two-node")
        assert code == EXIT_CONFIG
        assert "rate" in err

    def test_bad_param_value(self, capsys):
        code, _, err = run(capsys, "analytic", "--scenario", "two-node",
                           "--rate", "1", "--alpha1", "1.5")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command,scenario,rate", [
        ("analytic", "two-node", "2000"),
        ("analytic", "half-duplex", "600"),
        ("simulate", "three-node", "2000"),
    ])
    def test_huge_rate_is_certain_outage(self, capsys, command, scenario, rate):
        # 2^R - 1 overflows beyond R = 1024 (512 half-duplex): T = inf
        trials = ("--trials", "200") if command == "simulate" else ()
        code, out, err = run(capsys, command, "--scenario", scenario,
                             "--rate", rate, *trials)
        assert code == EXIT_OK, err
        assert rows_from_csv(out)[0].outage == 1.0

    @pytest.mark.parametrize("command, rate", [
        ("analytic", "nan"), ("simulate", "nan"),
        ("analytic", "inf"), ("simulate", "inf"),
    ], ids=["analytic", "simulate", "analytic-inf", "simulate-inf"])
    def test_nan_rate_is_configuration_error(self, capsys, command, rate):
        # an infinite rate used to print "value": Infinity, which is not JSON
        code, out, err = run(capsys, command, "--scenario", "two-node",
                             "--rate", rate, "--jsonl")
        assert code == EXIT_CONFIG
        assert not out and "configuration error" in err
        if rate == "inf":
            assert "must be finite" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("simulate", "--sigma-l2", "nan"), ("analytic", "--sigma-l2", "nan"),
        ("analytic", "--alpha1", "inf"), ("analytic", "--mu", "inf"),
        ("analytic", "--pu", "inf"),
    ])
    def test_non_finite_param_is_configuration_error(self, capsys, command,
                                                     flag, value):
        # unchecked, a NaN loop gain gave outage 0 and exit 0, and inf gave
        # exit 3 or a traceback
        trials = ("--trials", "100") if command == "simulate" else ()
        code, out, err = run(capsys, command, "--scenario", "two-node",
                             "--rate", "1", *trials, flag, value)
        assert code == EXIT_CONFIG
        assert not out and "configuration error" in err


class TestSimulateCommand:
    def test_deterministic(self, capsys):
        argv = ("simulate", "--scenario", "half-duplex", "--rate", "1",
                "--trials", "1000", "--seed", "5")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert values(out1) == values(out2)
        row = rows_from_csv(out1)[0]
        assert row.method == "mc" and row.mc_stderr > 0

    @pytest.mark.parametrize("scenario, rate, outage", [
        ("two-node", "0", 0.0), ("three-node", "0", 0.0),
        ("half-duplex", "0", 0.0), ("half-duplex", "600", 1.0)])
    def test_certain_outcome_draws_nothing(self, capsys, monkeypatch, scenario,
                                           rate, outage):
        # a threshold of 0 or inf (half-duplex doubles the rate past 1024
        # bits) decides the outage without a trial
        def spy(*args, **kwargs):
            raise AssertionError("simulate_sinr ran")

        monkeypatch.setattr(sweep, "simulate_sinr", spy)
        code, out, err = run(capsys, "simulate", "--scenario", scenario,
                             "--rate", rate)
        assert code == EXIT_OK, err
        (row,) = rows_from_csv(out)
        assert (row.outage, row.mc_stderr) == (outage, 0.0)


    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_workers_below_one(self, capsys, workers):
        code, out, err = run(capsys, "simulate", "--scenario", "half-duplex",
                             "--rate", "1", "--trials", "100",
                             "--workers", workers)
        assert code == EXIT_CONFIG
        assert not out and "--workers" in err


class TestSweepCommand:
    def test_custom_sweep_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, "sweep", "--variable", "rate",
                         "--grid", "0:1:3", "--methods", "analytic",
                         "--scenarios", "three-node", "--out", str(out_file))
        assert code == EXIT_OK
        rows = rows_from_csv(out_file.read_text())
        assert len(rows) == 3
        assert {r.scenario for r in rows} == {"three-node"}

    def test_rerun_identical_values(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ("sweep", "--variable", "rate", "--grid", "0:2:5",
                "--methods", "analytic,mc", "--scenarios", "half-duplex",
                "--trials", "800", "--seed", "4")
        assert run(capsys, *argv, "--out", str(a))[0] == EXIT_OK
        assert run(capsys, *argv, "--out", str(b))[0] == EXIT_OK
        assert values(a.read_text()) == values(b.read_text())

    def test_jsonl_flag(self, capsys):
        code, out, _ = run(capsys, "sweep", "--variable", "rate",
                           "--grid", "0:1:2", "--methods", "analytic",
                           "--scenarios", "half-duplex", "--jsonl")
        assert code == EXIT_OK
        assert out.lstrip().startswith("{")

    def test_grid_comma_list(self, capsys):
        code, out, _ = run(capsys, "sweep", "--variable", "rate",
                           "--grid", "0.5,1.5", "--methods", "analytic",
                           "--scenarios", "three-node")
        assert code == EXIT_OK
        assert len(rows_from_csv(out)) == 2

    def test_tiny_density_sweep(self, capsys):
        code, out, err = run(capsys, "sweep", "--variable", "density",
                             "--grid", "1e-200,1e-3", "--methods", "analytic",
                             "--rate", "1")
        assert code == EXIT_OK, err
        rows = rows_from_csv(out)
        assert len(rows) == 6
        for tiny, ref in zip(rows[::2], rows[1::2]):
            assert (tiny.value, ref.value) == (1e-200, 1e-3)
            assert tiny.outage == ref.outage

    @pytest.mark.parametrize("variable, grid, li", [
        ("rate", "0,1", "0,inf"), ("density", "1e-3,inf", "0"),
        ("bs_power", "1,inf", "0"), ("rate", "0:inf:3", "0"),
        ("rate", "1,inf", "0")])
    def test_infinite_value_fails_before_simulating(self, capsys, monkeypatch,
                                                   variable, grid, li):
        def spy(*args, **kwargs):
            raise AssertionError("simulate_sinr ran")

        monkeypatch.setattr(sweep, "simulate_sinr", spy)
        code, out, err = run(capsys, "sweep", "--variable", variable,
                             "--grid", grid, "--li-levels", li, "--rate", "1",
                             "--methods", "analytic,mc", "--trials", "20000")
        assert code == EXIT_CONFIG and not out
        assert "must be finite" in err

    @pytest.mark.parametrize("grid", ["0:1", "0:1:3:log:x"])
    def test_grid_with_wrong_field_count(self, capsys, grid):
        code, out, err = run(capsys, "sweep", "--variable", "rate",
                             "--grid", grid)
        assert code == EXIT_CONFIG and not out
        assert "lo:hi:steps" in err

    @pytest.mark.parametrize("flags, field", [
        (("--scenarios", "three-node,three-node", "--methods",
          "analytic,analytic"), "scenarios"),
        (("--methods", "analytic,analytic"), "methods"),
        (("--scenarios", "two-node", "--li-levels", "0,0"), "li_levels"),
    ])
    def test_repeated_entry_exits_2(self, capsys, flags, field):
        code, out, err = run(capsys, "sweep", "--variable", "rate",
                             "--grid", "0.5,1", *flags)
        assert code == EXIT_CONFIG and not out
        assert f"{field} must not repeat" in err

    def test_missing_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--variable", "rate")
        assert code == EXIT_CONFIG

    def test_unknown_scenario(self, capsys):
        code, _, err = run(capsys, "sweep", "--variable", "rate",
                           "--grid", "0:1:2", "--scenarios", "three-node,four-node")
        assert code == EXIT_CONFIG
        assert "four-node" in err

    def test_fig4_to_stdout(self, capsys):
        # one table: three rates in value, eleven loop gains in sigma_l2
        code, out, err = run(capsys, "sweep", "--preset", "fig4",
                             "--methods", "analytic,closed-form")
        assert code == EXIT_OK, err
        rows = rows_from_csv(out)
        for method in ("analytic", "closed-form"):
            mine = [r for r in rows if r.method == method]
            assert len(mine) == 33
            assert {r.value for r in mine} == {0.5, 1.0, 2.0}
            assert all(r.variable == "rate" and r.scenario == "two-node"
                       for r in mine)
            assert len({r.sigma_l2 for r in mine}) == 11

    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    def test_fig4_writes_the_one_out_path(self, capsys, tmp_path, by_config):
        # the path as given, with no suffix before a dot in a directory name
        out_file = tmp_path / "d.v1" / "fig4"
        out_file.parent.mkdir()
        argv = ["sweep", "--preset", "fig4", "--methods", "closed-form"]
        if by_config:
            conf = tmp_path / "fd.conf"
            conf.write_text(f"out = {out_file}\n")
            argv = ["--config", str(conf), *argv]
        else:
            argv += ["--out", str(out_file)]
        code, out, err = run(capsys, *argv)
        assert code == EXIT_OK and not out, err
        assert [p.name for p in out_file.parent.iterdir()] == ["fig4"]
        assert len(rows_from_csv(out_file.read_text())) == 33

    @pytest.mark.parametrize("flags", [
        ("--variable", "residual_li", "--grid", "1e-4,1e-2",
         "--scenarios", "two-node", "--rate", "1"),
        ("--variable", "rate", "--grid", "0.5,1", "--scenarios", "three-node"),
    ], ids=["swept-sigma-l2", "no-two-node"])
    def test_li_levels_no_row_reads_exit_2(self, capsys, flags):
        code, out, err = run(capsys, "sweep", *flags, "--li-levels", "0,0.5")
        assert code == EXIT_CONFIG and not out
        assert "li_levels" in err

    def test_sigma_l2_flag_sets_custom_sweep_level(self, capsys):
        base = ("sweep", "--variable", "rate", "--grid", "1,2",
                "--scenarios", "two-node")
        code, by_flag, _ = run(capsys, *base, "--sigma-l2", "1e-3")
        assert code == EXIT_OK
        _, by_level, _ = run(capsys, *base, "--li-levels", "1e-3")
        assert values(by_flag) == values(by_level)
        assert {r.sigma_l2 for r in rows_from_csv(by_flag)} == {1e-3}

    def test_preset_methods_narrowing(self, capsys):
        code, out, _ = run(capsys, "sweep", "--preset", "fig3",
                           "--methods", "closed-form")
        assert code == EXIT_OK
        rows = rows_from_csv(out)
        assert {r.method for r in rows} == {"closed-form"}
        assert len({r.value for r in rows}) == 41


    @pytest.mark.parametrize("flags, named", [
        (("--lambda", "5", "--alpha1", "1.5", "--rate", "3"),
         ("--lambda", "--alpha1", "--rate")),
        (("--pb", "2", "--pu", "2", "--sigma-n2", "1", "--sigma-l2", "1",
          "--mu", "2", "--alpha2", "3"),
         ("--pb", "--pu", "--sigma-n2", "--sigma-l2", "--mu", "--alpha2")),
        (("--variable", "rate", "--grid", "0:1:2", "--li-levels", "0"),
         ("--variable", "--grid", "--li-levels")),
        (("--scenarios", "two-node"), ("--scenarios",)),
    ])
    def test_preset_rejects_flags_it_fixes(self, capsys, flags, named):
        code, out, err = run(capsys, "sweep", "--preset", "fig3",
                             "--methods", "closed-form", *flags)
        assert code == EXIT_CONFIG
        assert not out
        for flag in named:
            assert flag in err

    @pytest.mark.parametrize("variable, flag, key", [
        ("rate", "--rate", "rate"),
        ("density", "--lambda", "lambda"),
        ("residual_li", "--sigma-l2", "sigma_l2"),
    ], ids=["rate", "density", "residual_li"])
    def test_sweep_rejects_its_swept_flag(self, capsys, tmp_path, variable,
                                          flag, key):
        base = ("sweep", "--variable", variable, "--grid", "0.5:1:3",
                "--scenarios", "three-node")
        if variable != "rate":
            base += ("--rate", "1")
        code, out, err = run(capsys, *base, flag, "5")
        assert code == EXIT_CONFIG and not out
        assert flag in err
        # the same setting from the config file stays a default, unused by
        # the sweep
        conf = tmp_path / "fd.conf"
        conf.write_text(f"{key} = 5\n")
        code, by_conf, err = run(capsys, "--config", str(conf), *base)
        assert code == EXIT_OK, err
        _, plain, _ = run(capsys, *base)
        assert values(by_conf) == values(plain)

    def test_power_sweep_keeps_pb(self, capsys):
        # --pb sets the p_u/p_b ratio of a bs_power sweep, which is kept
        # exactly: equal powers keep every closed-form row
        code, out, err = run(capsys, "sweep", "--variable", "bs_power",
                             "--grid", "1e-2:1e4:13:log", "--pb", "3", "--pu",
                             "3", "--methods", "analytic,closed-form",
                             "--rate", "0.1")
        assert code == EXIT_OK, err
        rows = rows_from_csv(out)
        assert sum(r.method == "closed-form" for r in rows) == 39
        assert len(rows) == 78

    def test_power_sweep_rejects_subnormal_pb(self, capsys):
        code, out, err = run(capsys, "sweep", "--variable", "bs_power",
                             "--grid", "5e-324,1", "--pu", "0.9",
                             "--methods", "closed-form", "--rate", "0.1")
        assert code == EXIT_CONFIG and not out
        assert "bs_power grid must be > 2.22507e-308" in err

    def test_preset_takes_model_keys_as_defaults(self, capsys, tmp_path):
        # a config file only supplies defaults, which a preset overrides
        conf = tmp_path / "fd.conf"
        conf.write_text("lambda = 5\nalpha1 = 1.5\nrate = 3\n")
        base = ("sweep", "--preset", "fig3", "--methods", "closed-form")
        code, by_conf, err = run(capsys, "--config", str(conf), *base)
        assert code == EXIT_OK, err
        _, plain, _ = run(capsys, *base)
        assert values(by_conf) == values(plain)


# the method of a sweep row for each single-estimate command line
ESTIMATES = [(("analytic",), "analytic"),
             (("analytic", "--method", "closed"), "closed-form"),
             (("simulate", "--trials", "2000", "--seed", "3"), "mc")]


class TestEstimateIsOnePointSweep:
    @pytest.mark.parametrize("scenario", [s.value for s in Scenario])
    @pytest.mark.parametrize("command, method", ESTIMATES,
                             ids=["general", "closed", "mc"])
    def test_row_matches_run_sweep(self, capsys, command, method, scenario):
        code, out, err = run(capsys, *command, "--scenario", scenario,
                             "--rate", "0.7", "--sigma-l2", "1e-3")
        assert code == EXIT_OK, err
        spec = SweepSpec("rate", (0.7,), scenarios=(Scenario(scenario),),
                         methods=(method,),
                         fixed=NetworkParams(sigma_l2=1e-3),
                         sim=SimConfig(trials=2000, seed=3))
        (row,) = sweep.run_sweep(spec)
        assert values(out) == values(rows_to_csv([row]))
        # only two-node rows carry the loop gain
        assert row.sigma_l2 == (1e-3 if scenario == "two-node" else 0.0)


# inputs at the edges of the valid domain: a flag, or a config file line
DOMAIN_EDGES = {
    "alpha1-near-2": "--alpha1=2.0000001",
    "alpha2-near-2": "--alpha2=2.0000001",
    "alpha1-500": "--alpha1=500",
    "alpha1-1e6": "--alpha1=1e6",
    "pu-1e300": "--pu=1e300",
    "pu-1e-300": "--pu=1e-300",
    "pb-1e300": "--pb=1e300",
    "pb-1e-300": "--pb=1e-300",
    "rate-1e-300": "--rate=1e-300",
    "rate-2000": "--rate=2000",
    "lambda-1e-320": "--lambda=1e-320",
    "window-1e200": "window_factor = 1e200",
}
# every route and scenario at each edge, but Monte Carlo at large alpha1
DOMAIN_CASES = [(command, scenario.value, edge)
                for command in ("analytic", "simulate") for scenario in Scenario
                for edge in DOMAIN_EDGES
                if command == "analytic" or edge not in ("alpha1-500", "alpha1-1e6")]


class TestDomainEdges:
    """Each input of DOMAIN_EDGES alone, on top of rate 1 and the default
    model, by every route and scenario gives an outage in [0, 1] or exits 2
    or 3 with one line: it never exits 1, and warns of nothing.

    DOMAIN_CASES leaves out Monte Carlo at alpha1 = 500 and 1e6: at 500 it
    warns of overflow in u0 ** -a1 and gives NaN (exit 3) but at half-duplex,
    and at 1e6 it gives NaN and exits 3 at every scenario, a fault recorded
    as a FOUND in CHANGES.md."""

    @pytest.mark.parametrize("command, scenario, edge", DOMAIN_CASES)
    def test_value_or_exit_2_or_3(self, capsys, tmp_path, command, scenario,
                                  edge):
        argv = [command, "--scenario", scenario, "--rate", "1"]
        if command == "simulate":
            argv += ["--trials", "64"]
        if DOMAIN_EDGES[edge].startswith("--"):
            argv.append(DOMAIN_EDGES[edge])
        else:
            conf = tmp_path / "fd.conf"
            conf.write_text(DOMAIN_EDGES[edge] + "\n")
            argv = ["--config", str(conf)] + argv
        code, out, err = run(capsys, *argv)
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), err
        if code == EXIT_OK:
            (row,) = rows_from_csv(out)
            assert 0.0 <= row.outage <= 1.0
        else:
            assert not out and len(err.splitlines()) == 1

    @pytest.mark.parametrize("flags", [
        ("--alpha1=100", "--alpha2=3", "--pu=1e-12", "--rate=1e-12"),
        ("--alpha1=50", "--alpha2=2.05", "--pu=1e-6", "--rate=1e-12",
         "--sigma-l2=1e-3")])
    def test_far_apart_inner_scales_give_a_value(self, capsys, flags):
        # one inner call's scales span hundreds of e-folds; on one shared
        # interval their quadrature missed its tolerance and exited 3
        code, out, err = run(capsys, "analytic", "--scenario", "two-node",
                             *flags)
        assert code == EXIT_OK, err
        (row,) = rows_from_csv(out)
        assert 0.0 <= row.outage <= 1.0


class TestCompareCommand:
    HEADER = CSV_HEADER + "\n"

    def write(self, tmp_path, body):
        path = tmp_path / "rows.csv"
        path.write_text(self.HEADER + body)
        return str(path)

    def test_agreeing_pairs(self, capsys, tmp_path):
        path = self.write(tmp_path,
                          "two-node,analytic,rate,1,0,0.70,,1\n"
                          "two-node,mc,rate,1,0,0.71,0.01,1\n")
        code, out, _ = run(capsys, "compare", "--in", path)
        assert code == EXIT_OK
        assert "pairs=1 flagged=0" in out

    def test_flagged_pair_fails(self, capsys, tmp_path):
        path = self.write(tmp_path,
                          "two-node,analytic,rate,1,0,0.70,,1\n"
                          "two-node,mc,rate,1,0,0.74,0.01,1\n")
        code, out, err = run(capsys, "compare", "--in", path)
        assert code == EXIT_COMPARE
        assert "FLAG" in out and "agreement check failed" in err

    def test_repeated_row_exits_2(self, capsys, tmp_path):
        # the mc row at z = 60 is not hidden by the agreeing one after it
        path = self.write(tmp_path,
                          "three-node,analytic,rate,1,0,0.70,,1\n"
                          "three-node,mc,rate,1,0,0.10,0.01,1\n"
                          "three-node,mc,rate,1,0,0.70,0.01,1\n")
        code, out, err = run(capsys, "compare", "--in", path)
        assert code == EXIT_CONFIG and not out
        assert "repeated mc row at scenario=three-node rate=1 sigma_l2=0" in err

    @pytest.mark.parametrize("mc_row", [
        "three-node,mc,rate,1,0,0.10,inf,1",       # once scored z = 0.00
        "three-node,mc,rate,1,0,0.10,-0.01,1",     # once scored z = inf
        "three-node,mc,rate,nan,0,0.10,0.01,1",    # once dropped unpaired
    ])
    def test_bad_row_exits_2(self, capsys, tmp_path, mc_row):
        path = self.write(tmp_path, "three-node,analytic,rate,1,0,0.70,,1\n"
                          + mc_row + "\n")
        code, out, err = run(capsys, "compare", "--in", path)
        assert code == EXIT_CONFIG and not out
        assert "configuration error" in err

    def test_no_pairs(self, capsys, tmp_path):
        path = self.write(tmp_path, "two-node,analytic,rate,1,0,0.70,,1\n")
        code, _, err = run(capsys, "compare", "--in", path)
        assert code == EXIT_CONFIG
        assert "no matchable" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "compare", "--in", str(tmp_path / "nope.csv"))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("frac, code", [("0.01", EXIT_COMPARE),
                                            ("1", EXIT_OK), ("nan", EXIT_CONFIG),
                                            ("-0.1", EXIT_CONFIG),
                                            ("1.5", EXIT_CONFIG)])
    def test_max_flagged_frac_range(self, capsys, tmp_path, frac, code):
        # z = 40: a NaN bound would let it pass, a negative one fail anything
        path = self.write(tmp_path,
                          "two-node,analytic,rate,1,0,0.30,,1\n"
                          "two-node,mc,rate,1,0,0.70,0.01,1\n")
        got, _, err = run(capsys, "compare", "--in", path,
                          "--max-flagged-frac", frac)
        assert got == code
        if code == EXIT_CONFIG:
            assert "--max-flagged-frac" in err


def test_no_command_exits_2(capsys):
    code, out, err = run(capsys)
    assert code == EXIT_CONFIG and not out and "usage" in err


class TestConfigFile:
    def test_line_without_equals_names_its_line(self, capsys, tmp_path):
        conf = tmp_path / "fd.conf"
        conf.write_text("rate = 1\nlambda 1e-3\n")
        code, out, err = run(capsys, "--config", str(conf), "analytic",
                             "--scenario", "three-node")
        assert code == EXIT_CONFIG and not out
        assert f"{conf}:2: expected key = value" in err

    def test_unreadable_config(self, capsys, tmp_path):
        # a directory cannot be opened as a file
        code, out, err = run(capsys, "--config", str(tmp_path), "analytic",
                             "--scenario", "three-node", "--rate", "1")
        assert code == EXIT_CONFIG and not out
        assert "cannot read config file" in err

    def test_defaults_and_override(self, capsys, tmp_path, monkeypatch):
        conf = tmp_path / "fd.conf"
        conf.write_text("# defaults\nlambda = 1e-2\nrate = 0.5\n")
        monkeypatch.setenv("FDCELL_CONFIG", str(conf))
        code, out, _ = run(capsys, "analytic", "--scenario", "three-node")
        assert code == EXIT_OK
        assert rows_from_csv(out)[0].value == 0.5
        # flag overrides the file
        code, out, _ = run(capsys, "analytic", "--scenario", "three-node",
                           "--rate", "1")
        assert rows_from_csv(out)[0].value == 1.0

    def test_unknown_key(self, capsys, tmp_path):
        conf = tmp_path / "fd.conf"
        conf.write_text("bandwidth = 20\n")
        code, _, err = run(capsys, "--config", str(conf), "analytic",
                           "--scenario", "three-node", "--rate", "1")
        assert code == EXIT_CONFIG
        assert "unknown key" in err

    @pytest.mark.parametrize("flag, key", [("--pu", "pu"), ("--pb", "pb")])
    def test_power_flag_matches_config_key(self, capsys, tmp_path, flag, key):
        conf = tmp_path / "fd.conf"
        conf.write_text(f"{key} = 0.1\n")
        base = ("analytic", "--scenario", "three-node", "--rate", "1")
        code, by_key, _ = run(capsys, "--config", str(conf), *base)
        assert code == EXIT_OK
        code, by_flag, _ = run(capsys, *base, flag, "0.1")
        assert code == EXIT_OK
        assert values(by_flag) == values(by_key)
        _, default, _ = run(capsys, *base)
        assert values(by_flag) != values(default)

    def test_reused_parser_keeps_calls_independent(self, capsys, tmp_path):
        # the parser is built once per process; neither a flag nor a config
        # file of one call may leak into the next
        assert cli._build_parser() is cli._build_parser()
        base = ("analytic", "--scenario", "three-node", "--rate", "1")
        default = analytic.three_node_outage(NetworkParams(), 1.0).value
        code, low, _ = run(capsys, *base, "--pu", "0.3")
        assert code == EXIT_OK
        assert rows_from_csv(low)[0].outage != pytest.approx(default, rel=1e-6)
        code, out, _ = run(capsys, *base)
        assert code == EXIT_OK
        assert rows_from_csv(out)[0].outage == pytest.approx(default, rel=1e-9)
        conf = tmp_path / "fd.conf"
        conf.write_text("pu = 0.3\n")
        code, by_key, _ = run(capsys, "--config", str(conf), *base)
        assert code == EXIT_OK and values(by_key) == values(low)
        code, again, _ = run(capsys, *base)
        assert code == EXIT_OK and values(again) == values(out)

    def test_quad_settings_via_config(self, capsys, tmp_path):
        conf = tmp_path / "fd.conf"
        conf.write_text("rel_tol_outer = 1e-5\n")
        code, out, _ = run(capsys, "--config", str(conf), "analytic",
                           "--scenario", "three-node", "--rate", "1")
        assert code == EXIT_OK


# key as written -> (settings object, field, value written, value parsed);
# '-' and '_' are interchangeable in keys
CONFIG_KEYS = [
    ("lambda", "params", "lam", "0.02", 0.02),
    ("alpha1", "params", "alpha1", "3.5", 3.5),
    ("alpha2", "params", "alpha2", "3", 3.0),
    ("pb", "params", "p_b", "2", 2.0),
    ("pu", "params", "p_u", "0.5", 0.5),
    ("sigma-n2", "params", "sigma_n2", "1e-3", 1e-3),
    ("sigma_l2", "params", "sigma_l2", "1e-4", 1e-4),
    ("mu", "params", "mu", "2", 2.0),
    ("trials", "sim", "trials", "320", 320),
    ("seed", "sim", "seed", "7", 7),
    ("mode", "sim", "mode", "physical", SimMode.PHYSICAL),
    ("window-factor", "sim", "window_factor", "20", 20.0),
    ("rel-tol-outer", "quad", "rel_tol_outer", "1e-6", 1e-6),
    ("rate", "rate", None, "0.75", 0.75),
]


class TestConfigKeys:
    def test_every_key_reaches_its_field(self, capsys, tmp_path, monkeypatch):
        keys = {k.replace("-", "_") for k, *_ in CONFIG_KEYS} | {"out"}
        assert keys == set("lambda alpha1 alpha2 pb pu sigma_n2 sigma_l2 mu "
                           "trials seed mode window_factor rel_tol_outer "
                           "rate out".split())
        assert len(keys) == len(cli._KEYS) == 15
        out = tmp_path / "row.csv"
        conf = tmp_path / "fd.conf"
        conf.write_text("".join(f"{k} = {text}\n"
                                for k, _, _, text, _ in CONFIG_KEYS)
                        + f"out = {out}\n")
        seen = {}

        def general(scenario, params, rate, quad):
            seen.update(params=params, quad=quad, rate=rate)
            return OutageEstimate(0.5, Method.ANALYTIC_GENERAL)

        def mc(params, scenario, rate, sim, workers=1, parts=None):
            seen.update(sim=sim)
            return OutageEstimate(0.5, Method.MONTE_CARLO, 0.01)

        # both commands' rows come from the sweep's row loop
        monkeypatch.setattr(analytic, "outage", general)
        monkeypatch.setattr(sweep, "estimate_outage", mc)
        for command in ("analytic", "simulate"):
            code, stdout, err = run(capsys, "--config", str(conf), command,
                                    "--scenario", "two-node")
            assert code == EXIT_OK, err
            assert not stdout
            row = rows_from_csv(out.read_text())[0]
            assert (row.value, row.sigma_l2) == (0.75, 1e-4)
        for key, where, name, _, parsed in CONFIG_KEYS:
            got = seen[where] if name is None else getattr(seen[where], name)
            assert got == parsed and type(got) is type(parsed), key

    @pytest.mark.parametrize("key", ["lam", "p_b", "p_u"])
    def test_field_names_of_aliased_keys_are_unknown(self, capsys, tmp_path,
                                                     key):
        conf = tmp_path / "fd.conf"
        conf.write_text(f"{key} = 0.5\n")
        code, out, err = run(capsys, "--config", str(conf), "analytic",
                             "--scenario", "three-node", "--rate", "1")
        assert code == EXIT_CONFIG
        assert not out and "unknown key" in err

    @pytest.mark.parametrize("key, value", [("rel_tol_inner", "1e-10"),
                                            ("tail_cut", "1e-10"),
                                            ("max_subdivisions", "150")])
    def test_derived_quadrature_budgets_are_unknown(self, capsys, tmp_path,
                                                    key, value):
        # the budgets follow from rel_tol_outer and the subdivision cap is
        # fixed: none has a key of its own
        conf = tmp_path / "fd.conf"
        conf.write_text(f"{key} = {value}\n")
        code, out, err = run(capsys, "--config", str(conf), "analytic",
                             "--scenario", "three-node", "--rate", "1")
        assert code == EXIT_CONFIG
        assert not out and "unknown key" in err

    @pytest.mark.parametrize("tol", ["1e-14", "1e-320"])
    def test_tiny_tolerance_names_its_key(self, capsys, tmp_path, tol):
        # below 100 eps the inner tolerance is under the double epsilon,
        # which no two-node integral meets; far below, ln(1/tail_cut) could
        # overflow, making the outer interval [0, inf].  Both are refused
        # before any work, also on a route with no inner integral
        conf = tmp_path / "fd.conf"
        conf.write_text(f"rel_tol_outer = {tol}\n")
        code, out, err = run(capsys, "--config", str(conf), "analytic",
                             "--scenario", "three-node", "--rate", "1")
        assert code == EXIT_CONFIG and not out
        assert err.startswith("configuration error: rel_tol_outer must be")

    def test_bad_mode_fails_every_command(self, capsys, tmp_path):
        conf = tmp_path / "fd.conf"
        conf.write_text("mode = bogus\n")
        code, out, err = run(capsys, "--config", str(conf), "analytic",
                             "--scenario", "three-node", "--rate", "1")
        assert code == EXIT_CONFIG
        assert not out and "configuration error" in err

    @pytest.mark.parametrize("key, value", [("trials", "1e5"), ("mode", "bogus")])
    def test_bad_value_names_its_line(self, capsys, tmp_path, key, value):
        conf = tmp_path / "fd.conf"
        conf.write_text(f"# defaults\nrate = 1\n{key} = {value}\n")
        code, out, err = run(capsys, "--config", str(conf), "simulate",
                             "--scenario", "three-node")
        assert code == EXIT_CONFIG and not out
        assert err.startswith(f"configuration error: {conf}:3: "
                              f"bad value for {key}: ")


# Only the general analytic route needs scipy.special; every other command
# runs without importing it.  Each case runs in a fresh interpreter, since
# this one has imported it already.
_SCIPY_PROBE = """
import json, sys
from fdcell import cli
argv = json.loads(sys.argv[1])
try:
    code = cli.main(argv) if argv is not None else None
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, "scipy.special" in sys.modules]))
"""


class TestScipyLoadedOnDemand:
    def run_fresh(self, argv):
        """The probe's stdout lines: the command's output, then its exit
        code and whether scipy.special was loaded."""
        src = os.path.dirname(os.path.dirname(fdcell.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop(cli.CONFIG_ENV, None)
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_PROBE, json.dumps(argv)],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def probe(self, argv):
        return json.loads(self.run_fresh(argv)[-1])

    @pytest.mark.parametrize("argv, code", [
        (None, None),
        (["--help"], EXIT_OK),
        (["simulate", "--scenario", "two-node", "--rate", "1",
          "--trials", "300", "--sigma-l2", "1e-3"], EXIT_OK),
        (["sweep", "--variable", "rate", "--grid", "0:2:3", "--methods", "mc",
          "--li-levels", "0,1e-3", "--trials", "300"], EXIT_OK),
        (["analytic", "--scenario", "three-node"], EXIT_CONFIG),
    ], ids=["import", "help", "simulate", "mc-sweep", "config-error"])
    def test_not_loaded(self, argv, code):
        assert self.probe(argv) == [code, False]

    def test_not_loaded_by_compare(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(CSV_HEADER + "\n"
                        "two-node,analytic,rate,1,0,0.70,,1\n"
                        "two-node,mc,rate,1,0,0.71,0.01,1\n")
        assert self.probe(["compare", "--in", str(path)]) == [EXIT_OK, False]

    def test_loaded_by_the_analytic_route(self):
        assert self.probe(["analytic", "--scenario", "three-node",
                           "--rate", "1"]) == [EXIT_OK, True]

    def test_first_row_excludes_the_import(self):
        # scipy is loaded before the row's clock starts, so a process's
        # first general row times its estimate, about 1 ms, not the import
        *csv, last = self.run_fresh(["analytic", "--scenario", "two-node",
                                     "--rate", "1", "--sigma-l2", "1e-3"])
        (row,) = rows_from_csv("\n".join(csv))
        assert json.loads(last) == [EXIT_OK, True]
        assert row.elapsed_ms < 50.0
