"""Every function the benchmark's tracer wraps resolves on the package.

``bench/tracer.py`` names its targets as (module, attribute path) pairs;
a rename in ``src/`` that leaves one dangling would otherwise surface only
in a traced benchmark run.  The list is read from the file, so nothing
under ``bench/`` is imported as a package.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).parent.parent / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module,path", _targets())
def test_traced_target_resolves(module, path):
    obj = importlib.import_module("multicurve." + module)
    for attr in path.split("."):
        assert hasattr(obj, attr), f"multicurve.{module}.{path}: no {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj)
