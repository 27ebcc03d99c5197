"""The corner-count strand tracer against the port-matching oracle."""

import itertools
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


def _oracle_strip(tri, oracle):
    """strip_peripheral's result, from the port-matching components."""
    stripped = [0] * tri.num_edges
    counts = [0] * tri.punctures
    for c in oracle:
        if c.peripheral is None:
            stripped = [a + b for a, b in zip(stripped, c.coloring.values)]
        else:
            counts[c.peripheral] += 1
    return mc.Coloring(tri, stripped), counts


def _check_against_oracle(tri, seed):
    for values in _colorings(tri, seed):
        comps = mc.trace_components(tri, values)
        oracle = port_matching_components(tri, values)
        assert [(c.cycle, c.coloring, c.peripheral) for c in comps] == \
            [(c.cycle, c.coloring, c.peripheral) for c in oracle]
        assert mc.strip_peripheral(tri, values) == _oracle_strip(tri, oracle)


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


@pytest.mark.parametrize("name", ["flower:5",
                                  *(f"random:8:{s}" for s in range(5))])
def test_strip_loop_multiples_on_two_punctures(name):
    """g + k_p a_p + k_q a_q for every generator g, with k_p, k_q in
    {0, 1, 3}: corner minima count the copies the port matching finds,
    valence-1 punctures inside folded triangles (flower:5) included."""
    tri = mc.fixture(name)
    loops = [p.values for p in mc.peripheral_colorings(tri)]
    n = tri.punctures
    for i, g in enumerate(mc.enumerate_barbell_trees(tri)):
        lp, lq = loops[i % n], loops[(i + 1) % n]
        for kp, kq in itertools.product((0, 1, 3), repeat=2):
            values = [a + kp * x + kq * y
                      for a, x, y in zip(g.coloring.values, lp, lq)]
            stripped, counts = mc.strip_peripheral(tri, values)
            assert (stripped, counts) == _oracle_strip(
                tri, port_matching_components(tri, values))
            assert counts[i % n] >= kp and counts[(i + 1) % n] >= kq


@pytest.mark.parametrize("name, max_degree", [("n4ex", 8), ("n4ex2", 10)])
def test_one_empty_corner_means_no_copy(name, max_degree):
    """A puncture whose corners are all crossed but one holds no copy of
    its loop; the empty corner takes every position around it."""
    tri = mc.fixture(name)
    seen = set()
    for values in mc.coloring.admissible_values(tri, max_degree):
        u = mc.corner_coords(tri, values)
        stripped, counts = mc.strip_peripheral(tri, values)
        for p, corners in enumerate(tri.vertices):
            empty = [i for i, c in enumerate(corners) if not u[c]]
            if len(empty) == 1:
                assert counts[p] == 0
                assert (stripped, counts) == _oracle_strip(
                    tri, port_matching_components(tri, values))
                seen.add((p, empty[0]))
    assert seen == {(p, i) for p, corners in enumerate(tri.vertices)
                    for i in range(len(corners))}


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
