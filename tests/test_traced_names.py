"""The benchmark's tracer wraps ``secnet`` functions by name; a name that
vanishes is only reported absent there, so this guards the names here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, module, attr",
                         [w[:3] for w in _load_tracer().WRAPS])
def test_traced_name_resolves(name, module, attr):
    holder = importlib.import_module(module)
    for part in attr.split("."):
        holder = getattr(holder, part)
    assert callable(holder), name
