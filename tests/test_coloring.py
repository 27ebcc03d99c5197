import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicurve as mc
from multicurve import errors

from conftest import FIXTURES, random_admissible, triangle_side_colors
from oracles import endpoint_peripheral_values, index_order_admissible


class TestAdmissibility:
    def test_all_twos_everywhere(self, any_fixture):
        tri = any_fixture
        assert mc.is_admissible(tri, [2] * tri.num_edges)

    def test_zero(self, any_fixture):
        tri = any_fixture
        assert mc.is_admissible(tri, [0] * tri.num_edges)

    def test_single_one_fails_parity(self, any_fixture):
        tri = any_fixture
        for e in range(tri.num_edges):
            v = [0] * tri.num_edges
            v[e] = 1
            # a lone odd edge forces an odd triangle total somewhere,
            # except when the edge bounds only folded triangles that
            # double it; that never happens since folded sides pair with
            # their own triangle only on the alpha edge
            s1, s2 = tri.edges[e]
            if s1 // 3 == s2 // 3:
                continue  # doubled side: contributes twice, parity even
            assert not mc.is_admissible(tri, v)

    def test_folded_triangle_rules(self):
        tri = mc.flower(4)
        alpha = next(e for e, (a, b) in enumerate(tri.edges)
                     if a // 3 == b // 3)
        t = tri.edges[alpha][0] // 3
        beta = next(e for e in tri.side_edges[t] if e != alpha)

        def coloring(v_alpha, v_beta):
            v = [0] * tri.num_edges
            v[alpha], v[beta] = v_alpha, v_beta
            return v

        # peripheral loop inside the petal: (1, 0)
        assert triangle_side_colors(
            tri, tuple(coloring(1, 0)), t).count(1) == 2
        adm = mc.is_admissible
        # 2 | v_beta
        assert not adm(tri, coloring(1, 1))
        # v_beta <= 2 v_alpha (the substituted triangle inequality)
        assert not adm(tri, coloring(1, 4))
        # beta edge feeds the inner triangle too, so give it due color
        v = coloring(1, 2)
        assert triangle_side_colors(tri, tuple(v), t) in \
            ((1, 1, 2), (1, 2, 1), (2, 1, 1))

    def test_length_mismatch(self):
        tri = mc.fixture("ex11")
        with pytest.raises(errors.LengthMismatch):
            mc.is_admissible(tri, [0, 0])

    def test_cross_triangulation_rejected(self):
        c = mc.Coloring(mc.fixture("ex11"), (2, 2, 2))
        with pytest.raises(errors.TriangulationMismatch):
            mc.degree(mc.fixture("flower:3"), c)

    @pytest.mark.parametrize("call", [
        mc.Coloring, mc.is_admissible, mc.degree, mc.corner_coords])
    def test_length_mismatch_reads_the_same_everywhere(self, call):
        # raw entries pass through the one conversion, Coloring
        tri = mc.fixture("n4ex")
        with pytest.raises(errors.LengthMismatch,
                           match="^coloring has 2 entries, triangulation "
                                 "has 6 edges$"):
            call(tri, [0, 0])

    def test_other_triangulation_refused(self):
        ex11, flower3 = mc.fixture("ex11"), mc.fixture("flower:3")
        c = mc.Coloring(ex11, (2, 2, 2))
        with pytest.raises(errors.TriangulationMismatch):
            mc.coloring.require_admissible(flower3, c)
        with pytest.raises(errors.TriangulationMismatch):
            c + mc.Coloring(flower3, (2, 2, 2))
        assert (c + c).values == (4, 4, 4)

    def test_negative_entries_construct_but_are_not_admissible(self):
        # a Coloring is an integer vector; admissibility is checked on use
        tri = mc.fixture("ex11")
        c = mc.Coloring(tri, (-2, 2, 2))
        assert c.values == (-2, 2, 2)
        assert not mc.is_admissible(tri, c)
        with pytest.raises(errors.NotAdmissible):
            mc.degree(tri, c)


class TestExactEntries:
    """Entries pass through operator.index: inexact ones raise TypeError
    instead of being truncated to ints."""

    def test_floats_raise(self):
        tri = mc.fixture("ex11")
        with pytest.raises(TypeError):
            mc.is_admissible(tri, [0.5, 0.5, 0.5])
        with pytest.raises(TypeError):
            mc.degree(tri, [2.7, 2.2, 2.9])
        with pytest.raises(TypeError):
            mc.Coloring(tri, [1.5] * 3)
        with pytest.raises(TypeError):
            mc.from_corners(tri, [0.5] * 6)

    def test_numpy_integers_accepted(self):
        np = pytest.importorskip("numpy")
        tri = mc.fixture("ex11")
        v = np.array([2, 2, 2], dtype=np.int64)
        assert mc.is_admissible(tri, v) and mc.degree(tri, v) == 6
        c = mc.Coloring(tri, v)
        assert c.values == (2, 2, 2)
        assert {type(x) for x in c.values} == {int}
        assert mc.from_corners(tri, np.ones(6, dtype=np.int64)) == c

    def test_negative_entry_rejected(self, any_fixture):
        # require_admissible has no sign pass of its own: the triangle
        # inequalities reject a negative side
        tri = any_fixture
        for e in range(tri.num_edges):
            v = [2] * tri.num_edges
            v[e] = -2
            assert not mc.is_admissible(tri, v)


class TestCornerCoords:
    def test_422_triangle(self):
        # triangle with side colors (4,2,2): corner opposite the 4-side is
        # 0, the two corners adjacent to it are 2
        tri = mc.fixture("ex11")
        u = mc.corner_coords(tri, (4, 2, 2))
        assert sorted(u[:3]) == [0, 2, 2]
        # corner k is opposite side k
        assert u[0] == 0 and u[1] == 2 and u[2] == 2

    def test_zero(self, any_fixture):
        tri = any_fixture
        u = mc.corner_coords(tri, [0] * tri.num_edges)
        assert set(u) == {0}

    def test_folded_tip(self):
        tri = mc.flower(4)
        alpha = next(e for e, (a, b) in enumerate(tri.edges)
                     if a // 3 == b // 3)
        v = [0] * tri.num_edges
        v[alpha] = 1
        u = mc.corner_coords(tri, v)
        t = tri.edges[alpha][0] // 3
        corners = u[3 * t: 3 * t + 3]
        assert sorted(corners) == [0, 0, 1]
        # the tip corner is the one between the two doubled slots, i.e.
        # opposite the single beta side
        beta_slot = next(k for k in range(3)
                         if tri.gluing[3 * t + k] // 3 != t)
        assert u[3 * t + beta_slot] == 1

    def test_not_admissible(self):
        tri = mc.fixture("ex11")
        with pytest.raises(errors.NotAdmissible):
            mc.corner_coords(tri, (1, 0, 0))

    def test_degree_equals_corner_sum(self, any_fixture, rng):
        # each edge has two slots and each triangle's corners sum to half
        # its side colors, so the corner total reproduces the degree
        tri = any_fixture
        for _ in range(10):
            c = random_admissible(rng, tri)
            assert mc.degree(tri, c) == sum(mc.corner_coords(tri, c))


class TestFromCorners:
    def test_round_trip(self, any_fixture, rng):
        tri = any_fixture
        for _ in range(10):
            c = random_admissible(rng, tri)
            u = mc.corner_coords(tri, c)
            assert mc.from_corners(tri, u).values == c.values

    def test_zero(self, any_fixture):
        tri = any_fixture
        assert mc.from_corners(tri, [0] * 3 * tri.triangle_count).values \
            == (0,) * tri.num_edges

    def test_single_corner_unbalanced(self, any_fixture):
        # a lone corner in an unfolded triangle unbalances its adjacent
        # edges (the tip corner of a folded triangle is the exception:
        # it sits on both sides of the doubled edge)
        tri = any_fixture
        t = next(t for t in range(tri.triangle_count)
                 if not tri.is_folded(t))
        u = [0] * (3 * tri.triangle_count)
        u[3 * t] = 1
        with pytest.raises(errors.EdgeBalanceViolated):
            mc.from_corners(tri, u)

    def test_folded_tip_corner_is_balanced(self):
        tri = mc.flower(4)
        t = tri.folded_triangles()[0]
        beta_slot = next(k for k in range(3)
                         if tri.gluing[3 * t + k] // 3 != t)
        u = [0] * (3 * tri.triangle_count)
        u[3 * t + beta_slot] = 1   # tip corner, opposite the single side
        v = mc.from_corners(tri, u)
        assert sum(v.values) == 1  # the peripheral petal loop

    def test_balanced_vectors_admissible(self, any_fixture, rng):
        # from_corners output is admissible whenever it exists
        tri = any_fixture
        for _ in range(20):
            u = [rng.randrange(3) for _ in range(3 * tri.triangle_count)]
            try:
                v = mc.from_corners(tri, u)
            except errors.EdgeBalanceViolated:
                continue
            assert mc.is_admissible(tri, v)
            assert mc.corner_coords(tri, v) == tuple(u)


class TestInterior:
    def test_all_twos_interior(self, any_fixture):
        tri = any_fixture
        assert mc.is_interior(tri, [2] * tri.num_edges)

    def test_zero_not_interior(self, any_fixture):
        tri = any_fixture
        assert not mc.is_interior(tri, [0] * tri.num_edges)

    def test_generators_not_interior(self, any_fixture):
        # generators sit on proper faces: some corner coordinate vanishes
        tri = any_fixture
        for b in mc.enumerate_barbell_trees(tri):
            if b.simple:
                assert not mc.is_interior(tri, b.coloring)


class TestPeripheral:
    def test_ex11_all_twos(self):
        tri = mc.fixture("ex11")
        (p,) = mc.peripheral_colorings(tri)
        assert p.values == (2, 2, 2)
        assert mc.is_interior(tri, p)

    def test_flower_unit_vectors(self):
        tri = mc.flower(5)
        doubled = [e for e, (a, b) in enumerate(tri.edges)
                   if a // 3 == b // 3]
        perips = mc.peripheral_colorings(tri)
        units = [p.values for p in perips if sum(p.values) == 1]
        assert len(units) == 4
        assert {v.index(1) for v in units} == set(doubled)

    def test_sum_is_all_twos(self, any_fixture):
        tri = any_fixture
        total = [0] * tri.num_edges
        for p in mc.peripheral_colorings(tri):
            assert mc.is_admissible(tri, p)
            total = [a + b for a, b in zip(total, p.values)]
        assert total == [2] * tri.num_edges

    @pytest.mark.parametrize("name", [
        *FIXTURES, "flower:3", *(f"random:8:{s}" for s in range(5))])
    def test_corners_list_the_edge_ends(self, name):
        tri = mc.fixture(name)
        assert mc.coloring.peripheral_values(tri) == \
            endpoint_peripheral_values(tri)


class TestAdmissibleValues:
    SURFACES = [*((name, 8) for name in FIXTURES), ("flower:6", 8),
                *((f"random:8:{s}", 8) for s in range(3))]

    @pytest.mark.parametrize("name, depth", SURFACES)
    def test_same_set_as_index_order(self, name, depth):
        tri = mc.fixture(name)
        walked = list(mc.coloring.admissible_values(tri, depth))
        assert len(walked) == len(set(walked))
        assert set(walked) == set(index_order_admissible(tri, depth))

    @pytest.mark.parametrize("name, depth", SURFACES)
    def test_lexicographic_in_walk_order(self, name, depth):
        tri = mc.fixture(name)
        order = mc.coloring.walk_order(tri)
        assert sorted(order) == list(range(tri.num_edges))
        walked = [tuple(v[e] for e in order)
                  for v in mc.coloring.admissible_values(tri, depth)]
        assert all(a < b for a, b in zip(walked, walked[1:]))

    def test_flower6_walk_order(self):
        # from the first petal the walk alternates between the inner
        # triangle it touches and the next petal
        tri = mc.flower(6)
        assert mc.coloring.walk_order(tri) == \
            [0, 1, 2, 10, 3, 4, 11, 5, 6, 8, 7, 9]


class TestDegrees:
    def test_n4ex_degrees(self):
        # four peripheral loops of degree 3, three pair curves of degree 4
        tri = mc.fixture("n4ex")
        perips = mc.peripheral_colorings(tri)
        assert [mc.degree(tri, p) for p in perips] == [3, 3, 3, 3]
        degrees = sorted(b.degree for b in mc.enumerate_barbell_trees(tri))
        assert degrees == [3, 3, 3, 3, 4, 4, 4]

    def test_n4ex2_degrees(self):
        tri = mc.fixture("n4ex2")
        assert sorted(mc.degree(tri, p)
                      for p in mc.peripheral_colorings(tri)) == [2, 2, 4, 4]
        degrees = sorted(b.degree for b in mc.enumerate_barbell_trees(tri))
        assert degrees == [2, 2, 4, 4, 4, 4, 6, 6]

    def test_relative_degree_of_peripherals_is_zero(self, any_fixture):
        tri = any_fixture
        for p in mc.peripheral_colorings(tri):
            assert mc.relative_degree(tri, p) == 0

    def test_relative_degree_of_generators(self, any_fixture):
        # no barbell generator coloring is peripheral-free-reducible
        # unless it is itself peripheral
        tri = any_fixture
        perips = {p.values for p in mc.peripheral_colorings(tri)}
        for b in mc.enumerate_barbell_trees(tri):
            expected = 0 if b.coloring.values in perips else b.degree
            assert mc.relative_degree(tri, b.coloring) == expected

    def test_additivity_with_peripheral(self):
        tri = mc.flower(5)
        a0 = mc.peripheral_colorings(tri)[0]
        c = next(b.coloring for b in mc.enumerate_barbell_trees(tri)
                 if b.degree == 8)
        combined = mc.geometric_sum(tri, a0, c)
        assert mc.relative_degree(tri, combined) == 8


class TestSerialization:
    def test_tagged_with_fixture_name(self):
        tri = mc.fixture("ex11")
        c = mc.Coloring(tri, (2, 2, 2))
        data = c.to_json_dict(fixture_name="ex11")
        assert data == {"triangulation": "ex11", "coloring": [2, 2, 2]}

    def test_tagged_with_gluing_hash(self):
        tri = mc.fixture("n4ex")
        c = mc.Coloring(tri, (0,) * 6)
        data = c.to_json_dict()
        assert data["triangulation"] == tri.gluing_hash()
        assert mc.fixture("n4ex").gluing_hash() == data["triangulation"]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_monoid_closure(seed1, seed2):
    tri = mc.fixture("n4ex2")
    c1 = random_admissible(random.Random(seed1), tri)
    c2 = random_admissible(random.Random(seed2), tri)
    assert mc.is_admissible(tri, c1 + c2)
