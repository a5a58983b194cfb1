"""Every layer that `bench/tracer.py` wraps by name resolves in ustlocal.

`Tracer.install()` looks each (module, attribute) of its `LAYERS` up with
getattr, so deleting or renaming a traced function would make
`bench/run.py --trace 1` crash; this test catches that first.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _timed, _counts in tracer.LAYERS]


@pytest.mark.parametrize("module, attr", _layers())
def test_traced_layer_resolves(module, attr):
    obj = importlib.import_module("ustlocal." + module)
    for name in attr.split("."):
        obj = getattr(obj, name)
    assert callable(obj)
