import json
import random

import pytest

import multicurve as mc
from multicurve import errors
from multicurve.triangulation import canonical_form, connected

from conftest import (
    is_loop,
    num_loops,
    random_triangulation,
    side_triangles,
)


class TestBuild:
    def test_ex11_counts(self):
        tri = mc.fixture("ex11")
        assert (tri.genus, tri.punctures) == (1, 1)
        assert tri.num_edges == 3
        assert len(tri.vertices) == 1
        assert len(tri.vertices[0]) == 6

    def test_minimal_three_punctured_sphere(self):
        tri = mc.build(2, [((0, 0), (1, 0)), ((0, 1), (1, 2)),
                           ((0, 2), (1, 1))])
        assert (tri.genus, tri.punctures) == (0, 3)
        assert tri.num_edges == 3

    def test_edge_count_identity(self, any_fixture):
        tri = any_fixture
        assert tri.num_edges == 3 * (2 * tri.genus + tri.punctures - 2)
        assert tri.triangle_count == 2 * (2 * tri.genus + tri.punctures - 2)
        assert 3 * tri.triangle_count == 6 * (2 * tri.genus
                                              + tri.punctures - 2)

    def test_euler_characteristic(self, any_fixture):
        tri = any_fixture
        chi = len(tri.vertices) - tri.num_edges + tri.triangle_count
        assert chi == 2 - 2 * tri.genus

    def test_slot_glued_to_itself(self):
        with pytest.raises(errors.SlotGluedToItself):
            mc.build(2, [((0, 0), (0, 0)), ((0, 1), (1, 0)),
                         ((0, 2), (1, 1)), ((1, 2), (0, 0))])

    def test_not_involution(self):
        with pytest.raises(errors.GluingNotInvolution):
            mc.build(2, [((0, 0), (1, 0)), ((0, 0), (1, 1)),
                         ((0, 1), (1, 2))])

    @pytest.mark.parametrize("slot,message", [
        ((0, 3), r"side index 3 not in 0\.\.2"),
        (6, r"slot out of range in pair \(6, \(1, 0\)\)"),
    ], ids=["side-index-3", "slot-6"])
    def test_slot_outside_the_triangles(self, slot, message):
        with pytest.raises(errors.GluingNotInvolution, match=message):
            mc.build(2, [(slot, (1, 0)), ((0, 1), (1, 2)), ((0, 2), (1, 1))])

    def test_unglued_slot(self):
        with pytest.raises(errors.GluingNotInvolution):
            mc.build(2, [((0, 0), (1, 0)), ((0, 1), (1, 1))])

    def test_disconnected(self):
        pairs = [((0, k), (1, k)) for k in range(3)]
        pairs += [((2, k), (3, k)) for k in range(3)]
        with pytest.raises(errors.DisconnectedSurface):
            mc.build(4, pairs)

    def test_two_spheres_disconnected(self):
        # two tetrahedron boundaries: V - E + T = 4, refused as two pieces
        pairs = mc.fixture("n4ex").to_json_dict()["gluing"]
        pairs += [[(t + 4, k), (u + 4, m)] for (t, k), (u, m) in pairs]
        with pytest.raises(errors.DisconnectedSurface):
            mc.build(8, pairs)

    @pytest.mark.parametrize("triangles", [0, -2])
    def test_fewer_than_two_triangles(self, triangles):
        with pytest.raises(errors.EulerCharacteristicInvalid):
            mc.build(triangles, [])

    @pytest.mark.parametrize("triangles", range(2, 13, 2))
    def test_random_pairings(self, triangles):
        # a connected gluing is a surface with 2g + n = 2 + T/2; only a
        # disconnected one is refused
        rng = random.Random(triangles)
        for _ in range(100):
            slots = list(range(3 * triangles))
            rng.shuffle(slots)
            pairs = list(zip(slots[::2], slots[1::2]))
            whole = connected(range(triangles),
                              [(a // 3, b // 3) for a, b in pairs])
            try:
                tri = mc.build(triangles, pairs)
            except errors.DisconnectedSurface:
                assert not whole
                continue
            assert whole
            chi = len(tri.vertices) - tri.num_edges + triangles
            assert chi % 2 == 0 and chi <= 2
            assert chi == 2 - 2 * tri.genus
            assert 2 * tri.genus + tri.punctures == 2 + triangles // 2

    def test_canonical_edge_order_sorted(self, any_fixture):
        edges = any_fixture.edges
        assert edges == tuple(sorted(edges))

    def test_random_surfaces_validate(self):
        rng = random.Random(7)
        for triangles in (2, 4, 6):
            for _ in range(10):
                tri = random_triangulation(rng, triangles)
                chi = (len(tri.vertices) - tri.num_edges
                       + tri.triangle_count)
                assert chi == 2 - 2 * tri.genus
                assert tri.num_edges == 3 * (2 * tri.genus
                                             + tri.punctures - 2)

    @pytest.mark.parametrize("triangles,seed", [(2, 0), (6, 3), (12, 0)])
    def test_random_fixture_is_seeded_draw(self, triangles, seed):
        assert mc.fixture(f"random:{triangles}:{seed}") == \
            random_triangulation(random.Random(seed), triangles)

    def test_random_draws_are_capped(self, monkeypatch):
        # a build that refuses every gluing ends the redraws at the cap
        calls = []

        def refuse(triangles, pairs):
            calls.append(pairs)
            raise errors.DisconnectedSurface("refused")

        monkeypatch.setattr(mc.triangulation, "build", refuse)
        with pytest.raises(errors.TriangulationError, match="draws"):
            random_triangulation(random.Random(0), 4)
        assert len(calls) == mc.triangulation.RANDOM_DRAWS


class TestDualGraph:
    # the dual graph as read off side_edges, independently of dual_edges
    def test_ex11_theta_graph(self):
        tri = mc.fixture("ex11")
        assert tri.triangle_count == 2
        assert side_triangles(tri) == [(0, 1), (0, 1), (0, 1)]

    def test_n4ex_is_k4(self):
        tri = mc.fixture("n4ex")
        assert tri.triangle_count == 4
        assert sorted(side_triangles(tri)) == [(0, 1), (0, 2), (0, 3),
                                               (1, 2), (1, 3), (2, 3)]

    def test_flower4_loops_on_star(self):
        tri = mc.flower(4)
        assert num_loops(tri) == 3
        non_loops = [e for e in side_triangles(tri) if e[0] != e[1]]
        center = set(non_loops[0]) & set(non_loops[1]) & set(non_loops[2])
        assert len(center) == 1  # three leaves hang off one center

    def test_always_trivalent(self, any_fixture):
        degrees = [0] * any_fixture.triangle_count
        for a, b in side_triangles(any_fixture):
            degrees[a] += 1
            degrees[b] += 1
        assert all(d == 3 for d in degrees)

    @pytest.mark.parametrize("name", [
        "ex11", "n4ex", "n4ex2", "flower:3", "flower:5", "random:8:0",
        "random:10:2", "random:12:3"])
    def test_dual_edges_are_the_side_triangles(self, name):
        tri = mc.fixture(name)
        flips = [mc.flip(tri, e) for e in range(tri.num_edges)
                 if not is_loop(tri, e)]
        for t in [tri, *flips]:
            assert t.dual_edges == tuple(side_triangles(t))


class TestFlower:
    @pytest.mark.parametrize("n,edges,folded,triangles", [
        (4, 6, 3, 4),
        (5, 9, 4, 6),
        (6, 12, 5, 8),
        (7, 15, 6, 10),
    ])
    def test_counts(self, n, edges, folded, triangles):
        tri = mc.flower(n)
        assert (tri.genus, tri.punctures) == (0, n)
        assert tri.num_edges == edges
        assert len(tri.folded_triangles()) == folded
        assert tri.triangle_count == triangles
        assert num_loops(tri) == n - 1

    def test_requires_at_least_4(self):
        with pytest.raises(errors.FlowerRequiresNAtLeast4):
            mc.flower(3)


class TestFlip:
    def test_preserves_counts(self):
        tri = mc.fixture("n4ex")
        flipped = mc.flip(tri, 0)
        assert (flipped.genus, flipped.punctures) == (tri.genus,
                                                      tri.punctures)
        assert flipped.num_edges == tri.num_edges
        assert flipped.triangle_count == tri.triangle_count

    def test_n4ex_flips_to_n4ex2(self):
        tri = mc.fixture("n4ex")
        other = mc.fixture("n4ex2")
        for e in range(tri.num_edges):
            assert mc.is_isomorphic(mc.flip(tri, e), other)

    def test_side_edge_table_follows_the_gluing(self, any_fixture):
        # the table is built once per triangulation; a flip builds a new one
        for tri in [any_fixture] + [mc.flip(any_fixture, e) for e, (s1, s2)
                                    in enumerate(any_fixture.edges)
                                    if s1 // 3 != s2 // 3]:
            assert [len(sides) for sides in tri.side_edges] == \
                [3] * tri.triangle_count
            for t, sides in enumerate(tri.side_edges):
                for k, e in enumerate(sides):
                    s, p = 3 * t + k, tri.gluing[3 * t + k]
                    assert tri.edges[e] == (min(s, p), max(s, p))

    def test_double_flip_isomorphic(self, any_fixture):
        tri = any_fixture
        for e in range(tri.num_edges):
            s1, s2 = tri.edges[e]
            if s1 // 3 == s2 // 3:
                continue
            assert mc.is_isomorphic(mc.flip(mc.flip(tri, e), e), tri)

    @pytest.mark.parametrize("name", [
        "ex11", "n4ex", "n4ex2", *(f"flower:{n}" for n in range(4, 8)),
        *(f"random:{t}:{s}" for t in (6, 8) for s in range(10))])
    def test_flips_stay_connected(self, name):
        # flip itself runs no connectivity check
        tri = mc.fixture(name)
        for e, (s1, s2) in enumerate(tri.edges):
            if s1 // 3 != s2 // 3:
                flipped = mc.flip(tri, e)
                assert connected(
                    range(flipped.triangle_count),
                    [(a // 3, b // 3) for a, b in flipped.edges])

    def test_folded_edge_rejected(self):
        tri = mc.flower(5)
        doubled = next(e for e, (a, b) in enumerate(tri.edges)
                       if a // 3 == b // 3)
        with pytest.raises(errors.FlipOnFoldedEdge):
            mc.flip(tri, doubled)

    def test_flip_on_self_glued_square_allowed(self):
        # ex11: every square has repeated outer sides; flips stay legal
        tri = mc.fixture("ex11")
        for e in range(3):
            flipped = mc.flip(tri, e)
            assert (flipped.genus, flipped.punctures) == (1, 1)


class TestIsomorphism:
    def test_self_isomorphic(self, any_fixture):
        assert mc.is_isomorphic(any_fixture, any_fixture)

    def test_relabeled_isomorphic(self):
        tri = mc.fixture("n4ex")
        perm = [2, 0, 3, 1]
        pairs = []
        for s, p in enumerate(tri.gluing):
            if s < p:
                pairs.append(((perm[s // 3], s % 3), (perm[p // 3], p % 3)))
        relabeled = mc.build(4, pairs)
        assert mc.is_isomorphic(tri, relabeled)
        assert canonical_form(tri) == canonical_form(relabeled)

    def test_distinguishes(self):
        assert not mc.is_isomorphic(mc.fixture("n4ex"), mc.fixture("n4ex2"))
        assert not mc.is_isomorphic(mc.fixture("n4ex"), mc.flower(4))

    def test_triangle_counts_differ(self):
        assert not mc.is_isomorphic(mc.fixture("ex11"), mc.fixture("n4ex"))


class TestJson:
    def test_round_trip(self, any_fixture):
        tri = any_fixture
        text = json.dumps(tri.to_json_dict())
        again = mc.load(text)
        assert again == tri
        assert again is not tri and hash(again) == hash(tri)
        assert len({tri, again}) == 1

    def test_named_fixtures_load(self):
        for name in ("ex11", "n4ex", "n4ex2", "flower:4", "flower:6"):
            assert mc.load(name).num_edges > 0

    def test_flower3_fixture_is_three_punctured_sphere(self):
        tri = mc.fixture("flower:3")
        assert (tri.genus, tri.punctures) == (0, 3)
        assert len(tri.folded_triangles()) == 2
