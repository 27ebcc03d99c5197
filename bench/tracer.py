"""Outside-in span recorder for the traced benchmark run.

Each public function listed in ``TARGETS`` is wrapped by rebinding it in
every loaded ``multicurve`` module that holds the original object (``cli``
and ``polytope`` import names directly, and the package re-exports them),
and ``PolytopeComplex.homology`` is wrapped on the class.  A span is
``[name, start, end, parent, job, sizes, error]``; spans stay in memory
and are written out once at the end.  Sizes come only from a wrapped call's
arguments and return value.  Nothing in the package itself changes.
"""

import functools
import sys
import time
from collections import defaultdict

# (module, attribute path); a span is named <module>.<function>
TARGETS = [
    ("linalg", "smith_normal_form_diagonal"),
    ("linalg", "homology_from_boundaries"),
    ("linalg", "integer_rank"),
    ("polytope", "PolytopeComplex.homology"),
    ("polytope", "sphere_certificate"),
    ("polytope", "cone_face_lattice"),
    ("polytope", "relative_complex"),
    ("polytope", "mutation_transfer"),
    ("barbell", "enumerate_barbell_trees"),
    ("barbell", "is_indecomposable"),
    ("coloring", "enumerate_admissible"),
    ("tracing", "trace_components"),
    ("tracing", "strip_peripheral"),
    ("quadric", "equivariance_check"),
    ("quadric", "quadric_point"),
    ("quadric", "evaluate_F"),
    ("quadric", "fricke_verify"),
    ("quadric", "tau_matrix"),
    ("quadric", "eta_matrix"),
    ("gitstab", "classify_partition"),
    ("gitstab", "polystable_splits"),
    ("gitstab", "toric_polytope"),
    ("triangulation", "load"),
    ("triangulation", "flip"),
    ("cli", "main"),
]


def span_name(module_name, path):
    return module_name + "." + path.rsplit(".", 1)[-1]


def _boundary_sizes(args, _kwargs, _result):
    boundaries, num_cells = args[0], args[1]
    entries = sum(len(m) * len(m[0]) for m in boundaries.values() if m)
    return {"chain_cells": sum(num_cells), "boundary_entries": entries}


# Sizes read from arguments and return values, keyed by span name.
SIZERS = {
    "linalg.homology_from_boundaries": _boundary_sizes,
    "polytope.homology": lambda a, k, r: {"cells": len(a[0].cells)},
    "polytope.sphere_certificate": lambda a, k, r: {"granted": int(r.granted)},
    "polytope.cone_face_lattice": lambda a, k, r: {"faces": len(r.faces),
                                                   "rays": len(r.rays)},
    "polytope.relative_complex": lambda a, k, r: {"kept_cells": len(r.cells)},
    "barbell.enumerate_barbell_trees": lambda a, k, r: {
        "generators": len(r), "simple": sum(1 for b in r if b.simple)},
    "barbell.is_indecomposable": lambda a, k, r: {"hit": int(bool(r))},
    "coloring.enumerate_admissible": lambda a, k, r: {"colorings": len(r)},
    "tracing.trace_components": lambda a, k, r: {"components": len(r)},
}


class Tracer:
    """In-memory span recorder; ``active`` gates recording."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.active = False
        self._restore = []

    def _wrap(self, name, fn):
        sizer = SIZERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, clock(), None,
                    self.stack[-1] if self.stack else None, self.job,
                    None, False]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = clock()
                self.stack.pop()
            if sizer is not None:
                span[5] = sizer(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every target in every loaded multicurve module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "multicurve"
                                         or n.startswith("multicurve."))]
        for module_name, path in TARGETS:
            name = span_name(module_name, path)
            owner = sys.modules["multicurve." + module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._restore.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def open_job(self, label):
        """Start the root span of one job."""
        self.job = len(self.spans)
        self.spans.append(["job:" + label, time.perf_counter(), None, None,
                           self.job, None, False])
        self.stack = [self.job]

    def close_job(self, failed):
        span = self.spans[self.job]
        span[2] = time.perf_counter()
        span[6] = failed
        self.stack = []


def self_times(spans):
    """Span duration minus the duration of its direct child spans."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] is not None:
            child[span[3]] += span[2] - span[1]
    return [s[2] - s[1] - c for s, c in zip(spans, child)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) from the recorded spans."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    errors = defaultdict(int)
    sizes = defaultdict(int)
    faces_under_relative = 0
    for i, span in enumerate(spans):
        name = span[0]
        calls[name] += 1
        self_s[name] += selfs[i]
        errors[name] += int(span[6])
        for key, value in (span[5] or {}).items():
            sizes[name + ":" + key] += value
        if (name == "polytope.cone_face_lattice" and span[3] is not None
                and spans[span[3]][0] == "polytope.relative_complex"):
            faces_under_relative += (span[5] or {}).get("faces", 0)

    out = {}
    for module_name, path in TARGETS:
        name = span_name(module_name, path)
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".self_s"] = (self_s[name], "s")
        out[name + ".errors"] = (errors[name], "count")
    chain = sizes["linalg.homology_from_boundaries:chain_cells"]
    kept = sizes["polytope.relative_complex:kept_cells"]
    generators = sizes["barbell.enumerate_barbell_trees:generators"]
    out.update({
        "linalg.chain_cells": (chain, "count"),
        "linalg.boundary_entries": (
            sizes["linalg.homology_from_boundaries:boundary_entries"],
            "count"),
        "linalg.chain_cells_per_cell": (
            _ratio(chain, sizes["polytope.homology:cells"]), "ratio"),
        "polytope.certificates_granted": (
            sizes["polytope.sphere_certificate:granted"], "count"),
        "polytope.faces": (sizes["polytope.cone_face_lattice:faces"],
                           "count"),
        "polytope.rays": (sizes["polytope.cone_face_lattice:rays"], "count"),
        "polytope.kept_cells": (kept, "count"),
        "polytope.kept_per_face": (_ratio(kept, faces_under_relative),
                                   "ratio"),
        "barbell.generators": (generators, "count"),
        "barbell.simple_generators": (
            sizes["barbell.enumerate_barbell_trees:simple"], "count"),
        "barbell.s_per_generator": (
            _ratio(self_s["barbell.enumerate_barbell_trees"], generators),
            "s"),
        "barbell.oracle_hit_frac": (
            _ratio(sizes["barbell.is_indecomposable:hit"],
                   calls["barbell.is_indecomposable"]), "ratio"),
        "coloring.admissible_colorings": (
            sizes["coloring.enumerate_admissible:colorings"], "count"),
        "tracing.components": (
            sizes["tracing.trace_components:components"], "count"),
    })
    return out
