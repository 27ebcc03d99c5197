from collections import Counter

import pytest
from conftest import FIXTURES
from oracles import (
    in_rational_cone,
    side_cycles,
    subset_scan_barbell_trees,
    triangle_check_indecomposables,
)

import multicurve as mc
from multicurve import errors
from multicurve.barbell import _adjacency, _cycles

SCAN_NAMES = [*FIXTURES, "flower:3", "flower:6", "flower:7",
              *(f"random:{t}:{s}" for t in (2, 4, 6, 8, 10) for s in range(10))]


class TestEnumeration:
    def test_ex11(self):
        barbells = mc.enumerate_barbell_trees(mc.fixture("ex11"))
        assert len(barbells) == 3
        assert all(b.degree == 2 for b in barbells)
        assert all(b.simple and b.num_bells == 1 for b in barbells)
        assert sorted(b.coloring.values for b in barbells) == \
            [(0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_n4ex(self):
        barbells = mc.enumerate_barbell_trees(mc.fixture("n4ex"))
        assert len(barbells) == 7
        assert Counter(b.degree for b in barbells) == {3: 4, 4: 3}
        assert all(b.simple for b in barbells)

    def test_n4ex2(self):
        barbells = mc.enumerate_barbell_trees(mc.fixture("n4ex2"))
        assert len(barbells) == 8
        assert Counter(b.degree for b in barbells) == {2: 2, 4: 4, 6: 2}
        with_chain = [b for b in barbells if b.chain_edges]
        assert len(with_chain) == 2
        assert all(b.num_bells == 2 and b.degree == 6 for b in with_chain)

    def test_flower5_degrees(self):
        barbells = mc.enumerate_barbell_trees(mc.flower(5))
        assert len(barbells) == 15
        assert Counter(b.degree for b in barbells) == \
            {1: 4, 6: 2, 8: 4, 11: 4, 14: 1}

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_flower_count_law(self, n):
        barbells = mc.enumerate_barbell_trees(mc.flower(n))
        assert len(barbells) == 2 ** (n - 1) - 1
        assert sum(b.simple for b in barbells) == n * (n - 1) // 2

    def test_colorings_admissible_and_canonical(self, any_fixture):
        tri = any_fixture
        barbells = mc.enumerate_barbell_trees(tri)
        keys = [(b.degree, b.coloring.values) for b in barbells]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for b in barbells:
            assert mc.is_admissible(tri, b.coloring)

    @pytest.mark.parametrize("name", SCAN_NAMES)
    def test_simple_subset(self, name):
        # values, simple flag, bells and chain edges, in order, against
        # the subset scan, which tells simple barbells by chain degrees
        tri = mc.fixture(name)
        assert barbell_keys(mc.enumerate_simple(tri)) == barbell_keys(
            b for b in subset_scan_barbell_trees(tri) if b.simple)

    def test_barbell_vertex_types(self, any_fixture):
        # allowed color multisets at every dual vertex (a triangle, whose
        # sides are its dual edges), loops twice
        tri = any_fixture
        allowed = {(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 1, 2),
                   (2, 2, 2), (0, 0, 2)}
        for b in mc.enumerate_barbell_trees(tri):
            v = b.coloring.values
            for t, sides in enumerate(tri.side_edges):
                colors = sorted(v[e] for e in sides)
                assert tuple(colors) in allowed, (v, t, colors)


def barbell_keys(barbells):
    return [(b.coloring.values, b.simple, b.bells, b.chain_edges)
            for b in barbells]


class TestEnumeratorMatchesSubsetScan:
    @pytest.mark.parametrize("name", SCAN_NAMES)
    def test_same_barbells(self, name):
        tri = mc.fixture(name)
        assert barbell_keys(mc.enumerate_barbell_trees(tri)) == \
            barbell_keys(subset_scan_barbell_trees(tri))

    def test_large_random_surface(self):
        # the subset scan takes minutes here, so the trees are pinned by
        # their count per number of bells, not only by their total (4163
        # on random:16:0)
        for name, surface, per_bells in [
                ("random:16:0", (1, 8),
                 {1: 34, 2: 498, 3: 1391, 4: 1495, 5: 653, 6: 92}),
                ("random:12:3", (1, 6),
                 {1: 19, 2: 145, 3: 221, 4: 116, 5: 18})]:
            tri = mc.fixture(name)
            assert (tri.genus, tri.punctures) == surface
            assert Counter(b.num_bells for b in mc.enumerate_barbell_trees(
                tri)) == per_bells


class TestCyclesMatchSideCycles:
    @pytest.mark.parametrize("name", [*SCAN_NAMES, "random:12:0"])
    def test_same_cycles(self, name):
        # each cycle once, with its triangle mask, against the subsets of
        # the side lists that meet every triangle 0 or 2 times
        tri = mc.fixture(name)
        assert sorted(_cycles(tri, _adjacency(tri))) == sorted(
            (edges, sum(1 << t for t in verts), tuple(sorted(verts)))
            for edges, verts in side_cycles(tri))


class TestIndecomposability:
    def test_barbells_indecomposable(self, any_fixture):
        tri = any_fixture
        for b in mc.enumerate_barbell_trees(tri):
            assert mc.is_indecomposable(tri, b.coloring)

    def test_all_twos_decomposable_on_ex11(self):
        tri = mc.fixture("ex11")
        assert not mc.is_indecomposable(tri, (2, 2, 2))

    def test_doubled_sum_decomposable(self):
        # c_12 + c_23 + c_13 halves into an integral coloring, so the sum
        # of two copies of anything it dominates decomposes
        tri = mc.flower(5)
        barbells = mc.enumerate_barbell_trees(tri)
        deg6 = [b.coloring.values for b in barbells if b.degree == 6]
        deg8 = [b.coloring.values for b in barbells if b.degree == 8]
        trio = [deg6[0]] + deg8[:2]
        total = tuple(sum(x) for x in zip(*trio))
        assert not mc.is_indecomposable(tri, total)

    def test_zero_coloring_error(self):
        tri = mc.fixture("ex11")
        with pytest.raises(errors.ZeroColoring):
            mc.is_indecomposable(tri, (0, 0, 0))

    def test_oracle_equivalence_small(self, any_fixture):
        tri = any_fixture
        values = {b.coloring.values
                  for b in mc.enumerate_barbell_trees(tri)}
        for c in mc.enumerate_admissible(tri, 8):
            if not any(c.values):
                continue
            assert mc.is_indecomposable(tri, c) == (c.values in values)


def split_search_indecomposables(tri, max_degree):
    return {c.values for c in mc.enumerate_admissible(tri, max_degree)
            if any(c.values) and mc.is_indecomposable(tri, c)}


class TestIndecomposables:
    def test_fixtures(self, any_fixture):
        assert set(mc.indecomposables(any_fixture, 8)) == \
            split_search_indecomposables(any_fixture, 8)

    @pytest.mark.parametrize("name, depth", [
        ("flower:5", 12), *((f"random:6:{s}", 8) for s in range(4))])
    def test_larger_surfaces(self, name, depth):
        tri = mc.fixture(name)
        assert set(mc.indecomposables(tri, depth)) == \
            split_search_indecomposables(tri, depth)

    @pytest.mark.parametrize("name, depth", [
        *((name, 10) for name in FIXTURES), ("flower:6", 10),
        ("flower:7", 10), ("random:8:3", 12), ("random:8:4", 12)])
    def test_matches_triangle_check_sieve(self, name, depth):
        tri = mc.fixture(name)
        assert mc.indecomposables(tri, depth) == \
            triangle_check_indecomposables(tri, depth)

    def test_lexicographic_and_nonzero(self, any_fixture):
        found = mc.indecomposables(any_fixture, 8)
        assert found == sorted(set(found))
        assert all(any(v) for v in found)

    @pytest.mark.parametrize("name", ["random:6:2", "random:6:3",
                                      "random:8:0"])
    def test_sorted_though_found_in_walk_order(self, name):
        # on these surfaces the walk order keeps the generators in an
        # order other than the lexicographic one
        tri = mc.fixture(name)
        found = mc.indecomposables(tri, 8)
        assert found == sorted(set(found))
        walk = mc.coloring.walk_order(tri)
        assert sorted(found, key=lambda v: [v[e] for e in walk]) != found


class TestMonoidGeneration:
    def test_zero_generated(self):
        tri = mc.fixture("ex11")
        assert mc.monoid_generates(tri, [], (0, 0, 0))

    def test_ex11_degree_bound(self):
        tri = mc.fixture("ex11")
        gens = mc.enumerate_barbell_trees(tri)
        for c in mc.enumerate_admissible(tri, 12):
            assert mc.monoid_generates(tri, gens, c)

    def test_flower5_peripherals(self):
        tri = mc.flower(5)
        gens = mc.enumerate_barbell_trees(tri)
        for p in mc.peripheral_colorings(tri):
            assert mc.monoid_generates(tri, gens, p)

    def test_negative_case(self):
        tri = mc.fixture("ex11")
        gens = [b for b in mc.enumerate_barbell_trees(tri)
                if b.coloring.values != (1, 1, 0)]
        assert not mc.monoid_generates(tri, gens, (1, 1, 0))


class TestRationalCone:
    def test_barbells_in_simple_span(self, any_fixture):
        tri = any_fixture
        barbells = mc.enumerate_barbell_trees(tri)
        simple = [b for b in barbells if b.simple]
        for b in barbells:
            assert in_rational_cone(simple, b.coloring)

    def test_outside_cone(self):
        tri = mc.fixture("ex11")
        simple = mc.enumerate_simple(tri)
        # (2,0,0) is not admissible, hence not in the cone
        assert not in_rational_cone(simple, (2, 0, 0))

    def test_flower5_redundancy_identities(self):
        # the four branching generators are half the sum of a pair-triangle
        tri = mc.flower(5)
        barbells = mc.enumerate_barbell_trees(tri)
        by_degree = {}
        for b in barbells:
            by_degree.setdefault(b.degree, []).append(b.coloring.values)
        deg11 = {tuple(v) for v in by_degree[11]}
        from itertools import combinations
        found = 0
        for trio in combinations(by_degree[6] + by_degree[8], 3):
            s = tuple(sum(x) for x in zip(*trio))
            if all(x % 2 == 0 for x in s) and \
                    tuple(x // 2 for x in s) in deg11:
                found += 1
        assert found == 4
