"""The benchmark tracer's layer list still names real functions.

``perfbench/tracer.py`` wraps the layer entry points it lists in
``LAYER_SPANS`` by module-level name.  Renaming or deleting one of them
breaks every traced benchmark run with an ``AttributeError``; this test
reports it without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[2] / "perfbench" / "tracer.py"


def _layer_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_SPANS


@pytest.mark.parametrize("module_name,attr,span", _layer_spans())
def test_layer_span_resolves_to_a_callable(module_name, attr, span):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{attr} ({span})"
