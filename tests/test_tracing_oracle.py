"""The corner-count strand tracer against the port-matching oracle."""

import random

import pytest
from conftest import FIXTURES
from oracles import port_matching_components, table_trace

import multicurve as mc


SURFACES = [*FIXTURES, "flower:3",
            *(f"random:{t}:{s}" for t in range(2, 13, 2) for s in range(3))]


def _colorings(tri, seed):
    """Every generator, then 10 seeded sums of generators and peripheral
    loops."""
    gens = [b.coloring.values for b in mc.enumerate_barbell_trees(tri)]
    parts = gens + [p.values for p in mc.peripheral_colorings(tri)]
    rng = random.Random(seed)
    sums = []
    for _ in range(10):
        total = [0] * tri.num_edges
        for part in rng.choices(parts, k=rng.randint(2, 5)):
            total = [a + b for a, b in zip(total, part)]
        sums.append(tuple(total))
    return gens + sums


def _check_against_oracle(tri, seed):
    for values in _colorings(tri, seed):
        comps = mc.trace_components(tri, values)
        oracle = port_matching_components(tri, values)
        assert [(c.cycle, c.coloring, c.peripheral) for c in comps] == \
            [(c.cycle, c.coloring, c.peripheral) for c in oracle]
        stripped = list(values)
        counts = [0] * tri.punctures
        for c in oracle:
            if c.peripheral is not None:
                counts[c.peripheral] += 1
                stripped = [a - b for a, b in zip(stripped, c.coloring.values)]
        assert mc.strip_peripheral(tri, values) == \
            (mc.Coloring(tri, stripped), counts)


@pytest.mark.parametrize("name", SURFACES)
def test_matches_port_matching(name):
    _check_against_oracle(mc.fixture(name), name)


def test_flower5_flips_match_port_matching():
    tri = mc.flower(5)
    flips = 0
    for e in range(tri.num_edges):
        try:
            flipped = mc.flip(tri, e)
        except mc.errors.FlipOnFoldedEdge:
            continue
        _check_against_oracle(flipped, e)
        flips += 1
    assert flips == 5


@pytest.mark.parametrize("name", [*FIXTURES, "flower:3",
                                  *(f"random:8:{s}" for s in range(5))])
def test_peripheral_tags_match_table(name):
    """Every generator, every g + a_i, and the seeded sums."""
    tri = mc.fixture(name)
    loops = [p.values for p in mc.peripheral_colorings(tri)]
    colorings = _colorings(tri, name)
    for g in mc.enumerate_barbell_trees(tri):
        colorings += [tuple(map(sum, zip(g.coloring.values, loop)))
                      for loop in loops]
    for values in colorings:
        assert list(mc.tracing._trace(tri, values)) == \
            table_trace(tri, values)


@pytest.mark.parametrize("name, values", [
    ("ex11", (0, 1, 1)), ("flower:5", (0, 0, 0, 0, 2, 1, 2, 1, 0))])
def test_turns_at_one_puncture_but_not_peripheral(name, values):
    """These curves turn only at corners of one puncture, yet are not the
    loop around it: the tag needs the counts, not the turns."""
    tri = mc.fixture(name)
    u = mc.corner_coords(tri, values)
    (p,) = {tri.corner_vertex[c] for c, x in enumerate(u) if x}
    (comp,) = mc.trace_components(tri, values)
    assert comp.peripheral is None
    assert comp.coloring.values != mc.peripheral_colorings(tri)[p].values
