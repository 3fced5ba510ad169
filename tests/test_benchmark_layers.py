"""The benchmark tracer finds every layer it times.

benchmarks/tracing.py wraps fdcell functions by qualified name and skips a
name that no longer resolves, so a renamed layer would only read zero in the
benchmark.  This checks each name against the package directly, that the
tracer's wrapper can read what a traced sampling call returns, and that a
tiny run of each workload's requests calls every function that the
benchmark's self-test requires of it, and none that it forbids.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_benchmark_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_benchmark_module("tracing")


def traced_names() -> list[str]:
    return [name for name, _hot in load_tracing().TRACED]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module_name, attr = name.split(".")
    module = importlib.import_module("fdcell." + module_name)
    assert callable(getattr(module, attr, None)), f"fdcell.{name} is not a callable"


def test_traced_sampling_reports_resampled(monkeypatch):
    # the wrapper adds result.resampled of every sample_realization call
    from fdcell import simulate
    from fdcell.model import NetworkParams, Scenario

    tracer = load_tracing().Tracer()
    name = "simulate.sample_realization"
    monkeypatch.setattr(simulate, "sample_realization",
                        tracer.wrap(name, simulate.sample_realization, hot=True))
    sim = simulate.SimConfig(trials=2 * simulate.BLOCK, seed=1)
    simulate.simulate_sinr(NetworkParams(), (Scenario.TWO_NODE_FD,), sim)
    assert tracer.calls[name] == 2 and not tracer.errors
    assert tracer.resampled == 0


def pattern_functions(workload: str, which: str) -> list[str]:
    """The traced functions among a workload's "nonzero" or "zero" metrics
    of the self-test's call pattern; counts such as sweep.rows are left
    out."""
    metrics = load_benchmark_module("run").CALL_PATTERN[workload][which]
    traced = set(traced_names())
    return [m.removesuffix(".calls") for m in metrics
            if m.removesuffix(".calls") in traced]


def trace_calls(monkeypatch, names: list[str]):
    """A tracer of `names`, wrapping every binding of each that an fdcell
    module holds, as tracing.install does, so that a call through an
    imported name counts too."""
    import fdcell.cli  # noqa: F401  (loads every fdcell module)

    tracing = load_tracing()
    tracer = tracing.Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and n.startswith("fdcell.")]
    for name, hot in tracing.TRACED:
        if name not in names:
            continue
        module_name, attr = name.split(".")
        original = getattr(importlib.import_module("fdcell." + module_name), attr)
        wrapper = tracer.wrap(name, original, hot)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    return tracer


def check_call_pattern(tracer, required: list[str], banned: list[str]) -> None:
    assert required
    assert [n for n in required if not tracer.calls[n]] == [] and not tracer.errors
    assert [n for n in banned if tracer.calls[n]] == []


def test_rate_sweep_calls_each_required_transform(monkeypatch):
    from dataclasses import replace

    from fdcell import sweep

    required = [n for n in pattern_functions("rate-sweep-analytic", "nonzero")
                if n.split(".")[0] in ("analytic", "closedform")]
    tracer = trace_calls(monkeypatch, required)
    spec = replace(sweep.build_preset("fig3")[0], grid=(1.0,),
                   methods=("analytic", "closed-form"))
    sweep.run_sweep(spec)
    check_call_pattern(tracer, required, [])


def test_mc_rate_sweep_calls_each_required_simulate_layer(monkeypatch):
    from dataclasses import replace

    from fdcell import simulate, sweep

    required = [n for n in pattern_functions("rate-sweep-mc", "nonzero")
                if n.startswith("simulate.")]
    banned = [n for n in pattern_functions("rate-sweep-mc", "zero")
              if n.split(".")[0] in ("quadrature", "analytic", "closedform")]
    assert "quadrature.integrate" in banned
    tracer = trace_calls(monkeypatch, required + banned)
    spec = replace(sweep.build_preset("fig3")[0], grid=(1.0,), methods=("mc",),
                   sim=simulate.SimConfig(trials=2 * simulate.BLOCK, seed=1))
    sweep.run_sweep(spec)
    check_call_pattern(tracer, required, banned)


def test_point_queries_call_only_the_general_route(monkeypatch, capsys):
    # one query per scenario, off the closed-form case as the stored ones are
    from fdcell import cli

    required = pattern_functions("point-queries", "nonzero")
    banned = pattern_functions("point-queries", "zero")
    assert "sweep.run_sweep" in banned and "cli.main" in required
    tracer = trace_calls(monkeypatch, required + banned)
    for scenario in ("two-node", "three-node", "half-duplex"):
        assert cli.main(["analytic", "--method", "general", "--scenario",
                         scenario, "--rate", "0.5", "--alpha1", "3.5",
                         "--pu", "0.5", "--sigma-n2", "1e-9",
                         "--sigma-l2", "1e-3"]) == 0
    check_call_pattern(tracer, required, banned)


def test_density_sweep_calls_every_layer(monkeypatch, tmp_path):
    from fdcell import cli

    required = pattern_functions("density-sweep", "nonzero")
    tracer = trace_calls(monkeypatch, required)
    out = tmp_path / "fig5.csv"
    assert cli.main(["sweep", "--trials", "32", "--seed", "1", "--out",
                     str(out), "--variable", "density", "--grid", "1e-3",
                     "--li-levels", "0,1e-3", "--methods",
                     "analytic,closed-form,mc", "--rate", "0.1"]) == 0
    check_call_pattern(tracer, required, [])
    assert len(out.read_text().splitlines()) == 1 + 3 * 4
