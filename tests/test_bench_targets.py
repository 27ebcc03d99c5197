"""What the benchmark reads off the package still resolves and passes.

``bench/tracer.py`` names its targets as (module, attribute path) pairs;
a rename in ``src/`` that leaves one dangling would otherwise surface only
in a traced benchmark run.  ``bench/workloads.py`` checks each job on the
objects the package returns (``f_vector``, ``cells_of_dim``,
``boundary_cells``, ``is_connected``, ``faces_of_dim``), so a reshaped
object would otherwise fail only a benchmark run.  Its generator checks
run here too: ``generators_job`` followed by ``tracing_job``, on flower:5
and on random:12:0 (trees of up to four bells), check that each generator
is admissible, distinct, of its stated degree, indecomposable by brute
force and one strand cycle.  Both files are loaded from their paths, so
nothing under ``bench/`` is imported as a package.
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


@pytest.mark.parametrize("source", ["flower:5", "random:12:0"])
def test_generator_job_checks_pass(source):
    importlib.import_module("multicurve.cli")  # as bench/run.py loads it
    workloads = _load("workloads")
    tri, shared = mc.load(source), {"generators": []}
    for job in (workloads.generators_job(mc, "generators", source, tri,
                                         shared),
                workloads.tracing_job(mc, "tracing", tri, shared, 1)):
        assert job.check(job.run()) is None
