"""The benchmark tracer finds every layer it times.

benchmarks/tracing.py wraps fdcell functions by qualified name and skips a
name that no longer resolves, so a renamed layer would only read zero in the
benchmark.  This checks each name against the package directly.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def traced_names() -> list[str]:
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [name for name, _hot in module.TRACED]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_resolves(name):
    module_name, attr = name.split(".")
    module = importlib.import_module("fdcell." + module_name)
    assert callable(getattr(module, attr, None)), f"fdcell.{name} is not a callable"
