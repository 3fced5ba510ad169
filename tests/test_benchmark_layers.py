"""The benchmark tracer finds every layer it times.

benchmarks/tracing.py wraps fdcell functions by qualified name and skips a
name that no longer resolves, so a renamed layer would only read zero in the
benchmark.  This checks each name against the package directly, and that the
tracer's wrapper can read what a traced sampling call returns.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    simulate.simulate_sinr(NetworkParams(), Scenario.TWO_NODE_FD, sim)
    assert tracer.calls[name] == 2 and not tracer.errors
    assert tracer.resampled == 0
