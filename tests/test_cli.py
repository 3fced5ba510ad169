import pytest

from fdcell import analytic, cli, closedform
from fdcell.cli import (
    EXIT_COMPARE,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)
from fdcell.model import Method, NetworkParams, OutageEstimate
from fdcell.simulate import SimMode
from fdcell.quadrature import Integral
from fdcell.sweep import CSV_HEADER, rows_from_csv


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_closed_precondition_violation(self, capsys):
        code, _, err = run(capsys, "analytic", "--scenario", "two-node",
                           "--rate", "1", "--method", "closed",
                           "--sigma-n2", "1")
        assert code == EXIT_CONFIG
        assert "closed form" in err and closedform.REQUIREMENTS in err

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

    @pytest.mark.parametrize("command", ["analytic", "simulate"])
    def test_nan_rate_is_configuration_error(self, capsys, command):
        code, out, err = run(capsys, command, "--scenario", "two-node",
                             "--rate", "nan")
        assert code == EXIT_CONFIG
        assert not out and "configuration error" in err


class TestSimulateCommand:
    def test_deterministic(self, capsys):
        argv = ("simulate", "--scenario", "half-duplex", "--rate", "1",
                "--trials", "1000", "--seed", "5")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        row = rows_from_csv(out1)[0]
        assert row.method == "mc" and row.mc_stderr > 0


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
        strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
        assert strip(a.read_text()) == strip(b.read_text())

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

    def test_missing_grid(self, capsys):
        code, _, err = run(capsys, "sweep", "--variable", "rate")
        assert code == EXIT_CONFIG

    def test_unknown_scenario(self, capsys):
        code, _, err = run(capsys, "sweep", "--variable", "rate",
                           "--grid", "0:1:2", "--scenarios", "three-node,four-node")
        assert code == EXIT_CONFIG
        assert "four-node" in err

    @pytest.mark.parametrize("out_name, ext", [("fig4.csv", ".csv"),
                                               ("d.v1/fig4", "")],
                             ids=["csv", "dotted-dir"])
    def test_fig4_writes_one_file_per_rate(self, capsys, tmp_path, out_name, ext):
        out_file = tmp_path / out_name
        out_file.parent.mkdir(exist_ok=True)
        code, _, _ = run(capsys, "sweep", "--preset", "fig4",
                         "--methods", "closed-form", "--out", str(out_file))
        assert code == EXIT_OK
        produced = sorted(p.name for p in out_file.parent.iterdir())
        assert produced == [f"fig4_R{r}{ext}" for r in ("0.5", "1", "2")]

    def test_sigma_l2_flag_sets_custom_sweep_level(self, capsys):
        base = ("sweep", "--variable", "rate", "--grid", "1,2",
                "--scenarios", "two-node")
        code, by_flag, _ = run(capsys, *base, "--sigma-l2", "1e-3")
        assert code == EXIT_OK
        _, by_level, _ = run(capsys, *base, "--li-levels", "1e-3")
        strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
        assert strip(by_flag) == strip(by_level)
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

    def test_preset_takes_model_keys_as_defaults(self, capsys, tmp_path):
        # a config file only supplies defaults, which a preset overrides
        conf = tmp_path / "fd.conf"
        conf.write_text("lambda = 5\nalpha1 = 1.5\nrate = 3\n")
        base = ("sweep", "--preset", "fig3", "--methods", "closed-form")
        code, by_conf, err = run(capsys, "--config", str(conf), *base)
        assert code == EXIT_OK, err
        _, plain, _ = run(capsys, *base)
        strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.splitlines()]
        assert strip(by_conf) == strip(plain)


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

    def test_no_pairs(self, capsys, tmp_path):
        path = self.write(tmp_path, "two-node,analytic,rate,1,0,0.70,,1\n")
        code, _, err = run(capsys, "compare", "--in", path)
        assert code == EXIT_CONFIG
        assert "no matchable" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "compare", "--in", str(tmp_path / "nope.csv"))
        assert code == EXIT_CONFIG


class TestConfigFile:
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
        assert by_flag == by_key
        _, default, _ = run(capsys, *base)
        assert by_flag != default

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
        assert code == EXIT_OK and by_key == low
        code, again, _ = run(capsys, *base)
        assert code == EXIT_OK and again == out

    def test_quad_settings_via_config(self, capsys, tmp_path):
        conf = tmp_path / "fd.conf"
        conf.write_text("rel_tol_outer = 1e-5\nmax_subdivisions = 100\n")
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
    ("rel_tol_inner", "quad", "rel_tol_inner", "1e-10", 1e-10),
    ("rel-tol-outer", "quad", "rel_tol_outer", "1e-6", 1e-6),
    ("tail_cut", "quad", "tail_cut", "1e-11", 1e-11),
    ("max-subdivisions", "quad", "max_subdivisions", "150", 150),
    ("rate", "rate", None, "0.75", 0.75),
]


class TestConfigKeys:
    def test_every_key_reaches_its_field(self, capsys, tmp_path, monkeypatch):
        keys = {k.replace("-", "_") for k, *_ in CONFIG_KEYS} | {"out"}
        assert keys == set("lambda alpha1 alpha2 pb pu sigma_n2 sigma_l2 mu "
                           "trials seed mode window_factor rel_tol_inner "
                           "rel_tol_outer tail_cut max_subdivisions rate "
                           "out".split())
        out = tmp_path / "row.csv"
        conf = tmp_path / "fd.conf"
        conf.write_text("".join(f"{k} = {text}\n"
                                for k, _, _, text, _ in CONFIG_KEYS)
                        + f"out = {out}\n")
        seen = {}

        def general(scenario, params, rate, quad):
            seen.update(params=params, quad=quad, rate=rate)
            return OutageEstimate(0.5, Method.ANALYTIC_GENERAL)

        def mc(params, scenario, rate, sim, workers=1):
            seen.update(sim=sim)
            return OutageEstimate(0.5, Method.MONTE_CARLO, 0.01)

        monkeypatch.setattr(analytic, "outage", general)
        monkeypatch.setattr(cli, "estimate_outage", mc)
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

    def test_bad_mode_fails_every_command(self, capsys, tmp_path):
        conf = tmp_path / "fd.conf"
        conf.write_text("mode = bogus\n")
        code, out, err = run(capsys, "--config", str(conf), "analytic",
                             "--scenario", "three-node", "--rate", "1")
        assert code == EXIT_CONFIG
        assert not out and "configuration error" in err
