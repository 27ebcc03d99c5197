"""What the benchmark reads off the package still resolves and passes.

``bench/tracer.py`` names its targets as (module, attribute path) pairs;
a rename in ``src/`` that leaves one dangling would otherwise surface only
in a traced benchmark run.  ``bench/workloads.py`` checks each job on the
objects the package returns (``f_vector``, ``cells_of_dim``,
``boundary_cells``, ``is_connected``, ``faces_of_dim``), so a reshaped
object would otherwise fail only a benchmark run.  Both files are loaded
from their paths, so nothing under ``bench/`` is imported as a package.
"""

import importlib
import importlib.util
import pathlib

import pytest

import multicurve as mc

BENCH = pathlib.Path(__file__).parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        "bench_" + name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,path", _load("tracer").TARGETS)
def test_traced_target_resolves(module, path):
    obj = importlib.import_module("multicurve." + module)
    for attr in path.split("."):
        assert hasattr(obj, attr), f"multicurve.{module}.{path}: no {attr!r}"
        obj = getattr(obj, attr)
    assert callable(obj)


@pytest.mark.parametrize("make", ["relative_job", "lattice_job",
                                  "cone_report_job"])
def test_lattice_job_checks_pass(make):
    importlib.import_module("multicurve.cli")  # as bench/run.py loads it
    job = getattr(_load("workloads"), make)(mc, make, "flower:5", "flower:5")
    assert job.check(job.run()) is None
