"""The benchmark tracer finds every layer it times.

benchmarks/tracing.py wraps fdcell functions by qualified name and skips a
name that no longer resolves, so a renamed layer would only read zero in the
benchmark.  This checks each name against the package directly, that the
tracer's wrapper can read what a traced sampling call returns, and that
small analytic and Monte Carlo sweeps call every function that the
benchmark's self-test requires of the rate-sweep-analytic and rate-sweep-mc
workloads.
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


def test_rate_sweep_calls_each_required_transform(monkeypatch):
    from dataclasses import replace

    from fdcell import analytic, closedform, sweep

    tracing = load_tracing()
    hot = dict(tracing.TRACED)
    pattern = load_benchmark_module("run").CALL_PATTERN["rate-sweep-analytic"]
    modules = {"analytic": analytic, "closedform": closedform}
    names = [metric.removesuffix(".calls") for metric in pattern["nonzero"]
             if metric.split(".")[0] in modules]
    assert names
    tracer = tracing.Tracer()
    for name in names:
        module_name, attr = name.split(".")
        module = modules[module_name]
        monkeypatch.setattr(module, attr,
                            tracer.wrap(name, getattr(module, attr), hot[name]))
    spec = replace(sweep.build_preset("fig3")[0], grid=(1.0,),
                   methods=("analytic", "closed-form"))
    sweep.run_sweep(spec)
    assert [n for n in names if not tracer.calls[n]] == [] and not tracer.errors


def test_mc_rate_sweep_calls_each_required_simulate_layer(monkeypatch):
    # every binding an fdcell module holds is wrapped, as tracing.install
    # does, so that a call through an imported name counts too
    from dataclasses import replace

    from fdcell import simulate, sweep

    tracing = load_tracing()
    pattern = load_benchmark_module("run").CALL_PATTERN["rate-sweep-mc"]
    required = [metric.removesuffix(".calls") for metric in pattern["nonzero"]
                if metric.startswith("simulate.")]
    banned = [metric.removesuffix(".calls") for metric in pattern["zero"]
              if metric.split(".")[0] in ("quadrature", "analytic", "closedform")]
    assert required and "quadrature.integrate" in banned
    tracer = tracing.Tracer()
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and n.startswith("fdcell.")]
    for name, hot in tracing.TRACED:
        if name not in required + banned:
            continue
        module_name, attr = name.split(".")
        original = getattr(importlib.import_module("fdcell." + module_name), attr)
        wrapper = tracer.wrap(name, original, hot)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)
    spec = replace(sweep.build_preset("fig3")[0], grid=(1.0,), methods=("mc",),
                   sim=simulate.SimConfig(trials=2 * simulate.BLOCK, seed=1))
    sweep.run_sweep(spec)
    assert [n for n in required if not tracer.calls[n]] == [] and not tracer.errors
    assert [n for n in banned if tracer.calls[n]] == []
