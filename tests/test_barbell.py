from collections import Counter

import pytest

import multicurve as mc
from multicurve import errors


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

    def test_simple_subset(self, any_fixture):
        tri = any_fixture
        all_trees = mc.enumerate_barbell_trees(tri)
        simple = mc.enumerate_simple(tri)
        assert [b.coloring.values for b in simple] == \
            [b.coloring.values for b in all_trees if b.simple]

    def test_barbell_vertex_types(self, any_fixture):
        # allowed color multisets at every dual vertex, loops twice
        tri = any_fixture
        dual = mc.dual_graph(tri)
        allowed = {(0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 1, 2),
                   (2, 2, 2), (0, 0, 2)}
        for b in mc.enumerate_barbell_trees(tri):
            v = b.coloring.values
            for t in range(dual.num_vertices):
                colors = []
                for i, (x, y) in enumerate(dual.edges):
                    if x == t:
                        colors.append(v[i])
                    if y == t:
                        colors.append(v[i])
                assert tuple(sorted(colors)) in allowed, (v, t, colors)


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
            assert mc.in_rational_cone(simple, b.coloring)

    def test_outside_cone(self):
        tri = mc.fixture("ex11")
        simple = mc.enumerate_simple(tri)
        # (2,0,0) is not admissible, hence not in the cone
        assert not mc.in_rational_cone(simple, (2, 0, 0))

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
