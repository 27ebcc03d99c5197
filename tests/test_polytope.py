import random
from collections import Counter
from types import SimpleNamespace

import pytest
from conftest import (
    FIXTURES,
    RP2_TRIANGLES,
    random_triangulation,
    simplicial_cells,
)
from oracles import (
    num_simplices,
    order_complex_homology,
    rank_face_lattice,
    rank_relative_complex,
)

import multicurve as mc
from multicurve import errors
from multicurve import polytope
from multicurve.polytope import PolytopeComplex

def path_complex(edges):
    """1-complex from a list of vertex-pair edges, for counterexamples."""
    cells = {}
    facets = {}
    for a, b in edges:
        for v in (a, b):
            cells[("v", v)] = 0
            facets[("v", v)] = frozenset()
        key = ("e", a, b)
        cells[key] = 1
        facets[key] = frozenset({("v", a), ("v", b)})
    return PolytopeComplex(cells, facets)


def polygon_2cell(*cycles):
    """One 2-cell whose boundary is the given vertex cycles."""
    cells = {}
    facets = {}
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            cells[(a,)] = cells[(b,)] = 0
            facets[(a,)] = facets[(b,)] = frozenset()
            cells[(a, b)] = 1
            facets[(a, b)] = frozenset({(a,), (b,)})
    facets["disk"] = frozenset(k for k in cells if len(k) == 2)
    cells["disk"] = 2
    return cells, facets


def random_surfaces(count):
    """Seeded random four-triangle surfaces, one per seed 0..count-1."""
    return [random_triangulation(random.Random(seed), 4)
            for seed in range(count)]


def legal_flips(tri):
    return [e for e, (s1, s2) in enumerate(tri.edges) if s1 // 3 != s2 // 3]


def betti(cpx):
    return [b for b, _ in cpx.homology()]


def assert_sphere_shape(cpx, d):
    """What a d-sphere needs short of homology: dimension d, connected,
    every (d-1)-cell in exactly two d-cells, Euler characteristic
    1 + (-1)^d."""
    fv = cpx.f_vector()
    assert len(fv) == d + 1
    assert cpx.is_connected()
    cofaces = Counter(r for c in cpx.cells_of_dim(d) for r in cpx.facets[c])
    assert all(cofaces[r] == 2 for r in cpx.cells_of_dim(d - 1))
    assert sum((-1) ** k * c for k, c in enumerate(fv)) == 1 + (-1) ** d


def assert_matches_rank_oracle(tri):
    lat = mc.cone_face_lattice(tri)
    faces, face_dim, _face_corners = rank_face_lattice(lat)
    assert lat.faces == faces
    assert lat.face_dim == face_dim


def assert_relative_matches_rank_oracle(tri):
    cpx = mc.relative_complex(tri)
    cells, facets = rank_relative_complex(tri, mc.cone_face_lattice(tri))
    assert cpx.cells == cells
    assert cpx.facets == facets


# the surfaces on which the lattice and the relative complex are checked
# against the rank oracle: flips of flower:5 and seeded random surfaces
FLOWER5_FLIPS = legal_flips(mc.fixture("flower:5"))
RANDOM_SURFACES = [(4, s) for s in range(6)] + [(6, s) for s in range(3)]

# two seeded surfaces random:<T>:<seed> for each (g, n) with T <= 6 other
# than (0, 3), where T = 2(2g + n - 2), and one each for (1, 4) and (0, 6)
# at T = 8
SPHERE_TABLE = [
    ("random:2:12", (1, 1)), ("random:2:13", (1, 1)),
    ("random:4:2", (0, 4)), ("random:4:8", (0, 4)),
    ("random:4:0", (1, 2)), ("random:4:1", (1, 2)),
    ("random:6:2", (0, 5)), ("random:6:6", (0, 5)),
    ("random:6:0", (1, 3)), ("random:6:1", (1, 3)),
    ("random:6:14", (2, 1)), ("random:6:32", (2, 1)),
    ("random:8:0", (1, 4)), ("random:8:3", (0, 6)),
]


class TestConeFaceLattice:
    def test_ex11_lattice(self):
        lat = mc.cone_face_lattice(mc.fixture("ex11"))
        assert len(lat.rays) == 3
        assert lat.dimension == 3
        assert len(lat.faces_of_dim(1)) == 3
        assert len(lat.faces_of_dim(2)) == 3
        assert len(lat.faces_of_dim(3)) == 1
        for face in lat.faces_of_dim(2):
            assert len(face) == 2

    def test_full_dimensional(self, any_fixture):
        tri = any_fixture
        lat = mc.cone_face_lattice(tri)
        assert lat.dimension == tri.num_edges

    def test_proper_faces_have_vanishing_corner(self, any_fixture):
        lat = mc.cone_face_lattice(any_fixture)
        full = lat.faces[-1]
        for face in lat.faces:
            if face != full:
                assert any(face <= cand for cand in lat.candidates)

    def test_no_rays_empty_lattice(self):
        lat = mc.ConeFaceLattice([], [])
        assert lat.faces == []
        assert lat.dimension == 0

    def test_grading_checked_against_ray_rank(self):
        # one corner positive on every ray: two faces, graded dimension 1
        rays = mc.cone_face_lattice(mc.fixture("ex11")).rays
        with pytest.raises(ValueError, match="rank 3 of the rays"):
            mc.ConeFaceLattice(rays, [(1,)] * len(rays))

    def test_grading_matches_rank_oracle(self, any_fixture):
        assert_matches_rank_oracle(any_fixture)

    @pytest.mark.parametrize("e", FLOWER5_FLIPS)
    def test_grading_on_flower5_flips(self, e):
        assert_matches_rank_oracle(mc.flip(mc.fixture("flower:5"), e))

    @pytest.mark.parametrize("triangles,seed", RANDOM_SURFACES)
    def test_grading_on_random_surfaces(self, triangles, seed):
        assert_matches_rank_oracle(
            random_triangulation(random.Random(seed), triangles))


class TestRelativeComplex:
    @pytest.mark.parametrize("name,fvec", [
        ("ex11", (3, 3)),
        ("n4ex", (3, 3)),
        ("n4ex2", (4, 4)),
    ])
    def test_circle_fixtures(self, name, fvec):
        cpx = mc.relative_complex(mc.fixture(name))
        assert cpx.f_vector() == fvec
        assert [b for b, _ in cpx.homology()] == [1, 1]

    def test_flower5(self):
        cpx = mc.relative_complex(mc.flower(5))
        assert cpx.f_vector() == (6, 13, 13, 6)
        hom = cpx.homology()
        assert [b for b, _ in hom] == [1, 0, 0, 1]
        assert all(not tors for _, tors in hom)
        euler = sum((-1) ** d * c for d, c in enumerate(cpx.f_vector()))
        assert euler == 0

    def test_three_punctured_sphere_empty(self):
        with pytest.raises(errors.EmptyRelativeComplex):
            mc.relative_complex(mc.fixture("flower:3"))

    def test_flower6_five_sphere_structure(self):
        # the boundary of a 6-polytope: vertices are the 10 pair curves,
        # Euler characteristic vanishes, every 4-cell lies in exactly two
        # of the nine 5-cells, and the cellular homology is that of S^5
        cpx = mc.relative_complex(mc.flower(6))
        assert cpx.f_vector()[0] == 10
        assert_sphere_shape(cpx, 5)
        assert cpx.homology() == [(1, []), (0, []), (0, []), (0, []),
                                  (0, []), (1, [])]
        assert mc.sphere_certificate(cpx, 5).granted

    def test_flower7_seven_sphere(self):
        cpx = mc.relative_complex(mc.flower(7))
        assert cpx.f_vector() == (15, 75, 192, 291, 276, 165, 60, 12)
        cert = mc.sphere_certificate(cpx, 7)
        assert cert.granted
        assert cert.betti == (1, 0, 0, 0, 0, 0, 0, 1)

    def test_flower8_nine_sphere_shape(self):
        # 28 rays and 5,694 cells
        cpx = mc.relative_complex(mc.flower(8))
        assert cpx.f_vector() == (21, 140, 483, 1017, 1406, 1317, 840, 358,
                                  97, 15)
        assert_sphere_shape(cpx, 9)
        cert = mc.sphere_certificate(cpx, 9)
        assert cert.granted
        assert cert.betti == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1)

    @pytest.mark.slow
    def test_genus2_two_punctured_nine_sphere(self):
        # the (2, 2) surface random:8:4: 53,854 cells
        tri = mc.fixture("random:8:4")
        assert (tri.genus, tri.punctures) == (2, 2)
        cpx = mc.relative_complex(tri)
        assert (cpx.dimension, len(cpx)) == (9, 53854)
        cert = mc.sphere_certificate(cpx, 9)
        assert cert.granted
        assert cert.betti == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1)

    @pytest.mark.parametrize("name", [
        "flower:6", "random:6:0", "random:6:1", "random:6:2"])
    def test_cell_keys_print_by_content(self, name):
        # cells of one dimension are ordered by str(key), which must not
        # depend on how the key's set was built
        cpx = mc.relative_complex(mc.fixture(name))
        assert all(str(k) == str(frozenset(sorted(k))) for k in cpx.cells)

    def test_depth_checked_against_ray_rank(self, monkeypatch):
        # the walk reads only the corners; rays all on one line leave the
        # depth of a top cell above the rank of its rays
        rays, corner_vectors = polytope._cone_rays(mc.fixture("n4ex"))
        line = [SimpleNamespace(values=rays[0].values) for _ in rays]
        monkeypatch.setattr(polytope, "_cone_rays",
                            lambda tri: (line, corner_vectors))
        with pytest.raises(ValueError, match="rank 1 of its rays"):
            mc.relative_complex(mc.fixture("n4ex"))

    def test_closed_under_faces(self, any_fixture):
        cpx = mc.relative_complex(any_fixture)
        for cell, facets in cpx.facets.items():
            for f in facets:
                assert cpx.cells.get(f) == cpx.cells[cell] - 1
                assert f < cell

    def test_euler_matches_homology(self, any_fixture):
        cpx = mc.relative_complex(any_fixture)
        euler_f = sum((-1) ** d * c for d, c in enumerate(cpx.f_vector()))
        euler_h = sum((-1) ** d * b for d, (b, _t)
                      in enumerate(cpx.homology()))
        assert euler_f == euler_h


class TestRelativeMatchesRankOracle:
    """The through-face filter and the facets read off the candidates give
    the complex of the vanishing-corner filter and pairwise covers."""

    def test_fixtures(self, any_fixture):
        assert_relative_matches_rank_oracle(any_fixture)

    @pytest.mark.parametrize("e", FLOWER5_FLIPS)
    def test_flower5_flips(self, e):
        assert_relative_matches_rank_oracle(mc.flip(mc.fixture("flower:5"), e))

    @pytest.mark.parametrize("triangles,seed", RANDOM_SURFACES)
    def test_random_surfaces(self, triangles, seed):
        assert_relative_matches_rank_oracle(
            random_triangulation(random.Random(seed), triangles))


class TestSphereTheoremTable:
    """The relative complex is S^d with d = 6g - 7 + 2n on the seeded
    surfaces of SPHERE_TABLE, and on one legal flip of each."""

    @pytest.mark.parametrize("flipped", [False, True], ids=["base", "flip"])
    @pytest.mark.parametrize("name,gn", SPHERE_TABLE,
                             ids=[name for name, _gn in SPHERE_TABLE])
    def test_sphere_of_predicted_dimension(self, name, gn, flipped):
        tri = mc.fixture(name)
        assert (tri.genus, tri.punctures) == gn
        if flipped:
            tri = mc.flip(tri, legal_flips(tri)[0])
        g, n = gn
        d = 6 * g - 7 + 2 * n
        cpx = mc.relative_complex(tri)
        assert_sphere_shape(cpx, d)
        assert mc.sphere_certificate(cpx, d).granted


class TestHomologyEngine:
    def test_projective_plane_torsion(self):
        # homology of the projective plane must come out (Z, Z/2, 0)
        cpx = PolytopeComplex(*simplicial_cells(RP2_TRIANGLES))
        hom = cpx.homology()
        assert hom[0] == (1, [])
        assert hom[1] == (0, [2])
        assert hom[2] == (0, [])

    def test_circle(self):
        cpx = path_complex([(0, 1), (1, 2), (2, 0)])
        assert [b for b, _ in cpx.homology()] == [1, 1]

    def test_empty_complex(self):
        cpx = PolytopeComplex({}, {})
        with pytest.raises(errors.EmptyComplex):
            cpx.homology()


class TestCellularMatchesOrderComplex:
    """Cellular homology against the order-complex oracle (tests/oracles.py),
    on complexes whose subdivision has at most about 1000 simplices."""

    def test_fixtures(self, any_fixture):
        cpx = mc.relative_complex(any_fixture)
        assert cpx.homology() == order_complex_homology(cpx)

    @pytest.mark.parametrize("poset", [
        simplicial_cells(RP2_TRIANGLES),
        simplicial_cells([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 2, 3)]),
        simplicial_cells([(0, 1, 2), (2, 3, 4)]),
        polygon_2cell([0, 1, 2, 3, 4]),
        polygon_2cell([0, 1]),
    ], ids=["rp2", "tetrahedron", "bowtie", "pentagon", "digon"])
    def test_hand_built(self, poset):
        cpx = PolytopeComplex(*poset)
        assert cpx.homology() == order_complex_homology(cpx)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 0)],
        [(0, 1), (1, 2), (2, 0), (0, 3)],
        [(0, 1), (1, 0), (2, 3), (3, 2)],
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
    ], ids=["circle", "dangling", "two-circles", "figure-eight"])
    def test_path_complexes(self, edges):
        cpx = path_complex(edges)
        assert cpx.homology() == order_complex_homology(cpx)

    def test_random_surfaces(self):
        compared = set()
        for tri in random_surfaces(6):
            cpx = mc.relative_complex(tri)
            if num_simplices(cpx) <= 1000:
                assert cpx.homology() == order_complex_homology(cpx)
                compared.add(tri.genus)
        assert compared == {0, 1}


class TestNonRegularPoset:
    """Posets that are not the face poset of a regular CW complex."""

    def test_loop_edge(self):
        cpx = PolytopeComplex({"v": 0, "loop": 1},
                              {"v": frozenset(), "loop": frozenset({"v"})})
        with pytest.raises(ValueError, match="edge 'loop' has 1 vertices"):
            cpx.homology()

    def test_dangling_edge_in_boundary(self):
        cells, facets = polygon_2cell([0, 1, 2])
        cells[(3,)], facets[(3,)] = 0, frozenset()
        cells[(0, 3)], facets[(0, 3)] = 1, frozenset({(0,), (3,)})
        facets["disk"] |= {(0, 3)}
        with pytest.raises(ValueError, match="of 2-cell 'disk' lies in"):
            PolytopeComplex(cells, facets).homology()

    def test_non_orientable_boundary(self):
        cells, facets = simplicial_cells(RP2_TRIANGLES)
        facets["ball"] = frozenset(k for k in cells if len(k) == 3)
        cells["ball"] = 3
        with pytest.raises(ValueError, match="'ball' is not orientable"):
            PolytopeComplex(cells, facets).homology()

    def test_disconnected_boundary(self):
        cpx = PolytopeComplex(*polygon_2cell([0, 1, 2], [3, 4, 5]))
        with pytest.raises(ValueError, match="of 2-cell 'disk' is not reach"):
            cpx.homology()

    def test_cell_without_facets(self):
        cpx = PolytopeComplex({"v": 0, "blob": 2},
                              {"v": frozenset(), "blob": frozenset()})
        with pytest.raises(ValueError, match="2-cell 'blob' has no facets"):
            cpx.homology()

    def test_facet_of_wrong_dimension(self):
        cells, facets = polygon_2cell([0, 1, 2])
        facets["disk"] |= {(0,)}
        with pytest.raises(ValueError, match=r"facet \(0,\) of 2-cell 'disk' "
                                             "has dimension 0, not 1"):
            PolytopeComplex(cells, facets).homology()


class TestSphereCertificate:
    def test_fixture_circles(self):
        for name in ("ex11", "n4ex", "n4ex2"):
            cert = mc.sphere_certificate(
                mc.relative_complex(mc.fixture(name)), 1)
            assert cert.granted
            assert "certified 1-sphere" in cert.statement

    def test_flower5_homology_sphere(self):
        cert = mc.sphere_certificate(mc.relative_complex(mc.flower(5)), 3)
        assert cert.granted
        assert cert.connected and cert.pseudomanifold
        assert "homology 3-sphere" in cert.statement
        assert "homeomorphism is not certified" in cert.statement

    def test_dangling_edge_fails_pseudomanifold(self):
        cpx = path_complex([(0, 1), (1, 2), (2, 0), (0, 3)])
        cert = mc.sphere_certificate(cpx, 1)
        assert not cert.pseudomanifold
        assert not cert.granted

    def test_disconnected_fails(self):
        cpx = path_complex([(0, 1), (1, 0), (2, 3), (3, 2)])
        cert = mc.sphere_certificate(cpx, 1)
        assert not cert.connected

    def test_wrong_dimension_fails(self):
        cpx = mc.relative_complex(mc.fixture("ex11"))
        assert not mc.sphere_certificate(cpx, 2).granted

    def test_empty_raises(self):
        with pytest.raises(errors.EmptyComplex):
            mc.sphere_certificate(PolytopeComplex({}, {}), 1)


class TestMutationTransfer:
    def test_symmetric_square(self):
        # the symmetric case of the exchange rule: all four square sides
        # colored 1 (realized by two peripheral loops around the opposite
        # punctures), diagonal 0, so the new diagonal gets max(2,2) - 0
        tri = mc.fixture("n4ex")
        from multicurve.triangulation import flip_square_sides
        perips = mc.peripheral_colorings(tri)
        e = next(i for i in range(6)
                 if set(tri.edge_endpoints(i)) == {0, 1})
        v = perips[2] + perips[3]
        a, c, b, d = flip_square_sides(tri, e)
        assert [v.values[i] for i in (a, b, c, d)] == [1, 1, 1, 1]
        assert v.values[e] == 0
        v_flip = mc.mutation_transfer(tri, e, v)
        assert v_flip.values[e] == 2
        assert all(v_flip.values[i] == v.values[i]
                   for i in range(6) if i != e)

    def test_peripheral_to_peripheral(self):
        tri = mc.fixture("n4ex")
        for e in range(tri.num_edges):
            flipped = mc.flip(tri, e)
            target = sorted(p.values
                            for p in mc.peripheral_colorings(flipped))
            moved = sorted(mc.mutation_transfer(tri, e, p).values
                           for p in mc.peripheral_colorings(tri))
            assert moved == target

    def test_degree_change_three_to_four(self):
        tri = mc.fixture("n4ex")
        flipped = mc.flip(tri, 0)
        degrees = sorted(
            mc.degree(flipped, mc.mutation_transfer(tri, 0, p))
            for p in mc.peripheral_colorings(tri))
        assert degrees == [2, 2, 4, 4]

    def test_involutive(self, any_fixture, rng):
        from conftest import random_admissible
        tri = any_fixture
        for e in range(tri.num_edges):
            s1, s2 = tri.edges[e]
            if s1 // 3 == s2 // 3:
                continue
            flipped = mc.flip(tri, e)
            for _ in range(5):
                c = random_admissible(rng, tri)
                over = mc.mutation_transfer(tri, e, c)
                back = mc.mutation_transfer(flipped, e, over)
                assert back.values == c.values

    def test_bijection_on_bounded_colorings(self):
        tri = mc.fixture("ex11")
        flipped = mc.flip(tri, 0)
        image = set()
        for c in mc.enumerate_admissible(tri, 6):
            image.add(mc.mutation_transfer(tri, 0, c).values)
        # images are pairwise distinct and all admissible on the target
        assert len(image) == len(mc.enumerate_admissible(tri, 6))
        for v in image:
            assert mc.is_admissible(flipped, v)

    @pytest.mark.parametrize("tri", random_surfaces(6),
                             ids=[f"seed{i}" for i in range(6)])
    def test_random_surface_flips(self, tri):
        colorings = mc.enumerate_admissible(tri, 6)
        before = betti(mc.relative_complex(tri))
        for e in legal_flips(tri):
            flipped = mc.flip(tri, e)
            assert betti(mc.relative_complex(flipped)) == before
            images = [mc.mutation_transfer(tri, e, c) for c in colorings]
            assert len({v.values for v in images}) == len(colorings)
            assert [mc.mutation_transfer(flipped, e, v).values
                    for v in images] == [c.values for c in colorings]

    def test_betti_invariant_under_flips(self, any_fixture):
        tri = any_fixture
        before = [b for b, _ in mc.relative_complex(tri).homology()]
        for e in range(tri.num_edges):
            s1, s2 = tri.edges[e]
            if s1 // 3 == s2 // 3:
                continue
            after = [b for b, _ in
                     mc.relative_complex(mc.flip(tri, e)).homology()]
            assert after == before

    def test_illegal_flip(self):
        tri = mc.flower(5)
        doubled = next(e for e, (a, b) in enumerate(tri.edges)
                       if a // 3 == b // 3)
        with pytest.raises(errors.FlipIllegal):
            mc.mutation_transfer(tri, doubled, [0] * tri.num_edges)


class TestLeadingTermIdentities:
    """Degree data of the two square triangulations, at the coloring level.

    The boundary relations force the leading colorings to match: on the
    tetrahedron the three pair curves sum to the four peripheral loops;
    after the flip the two degree-4 non-peripheral generators sum to the
    two degree-4 peripheral loops, and the degree-6 pair sums to all four
    peripherals.  This pins down the degree bookkeeping of the extra
    generator produced by the flip.
    """

    def test_n4ex_product_identity(self):
        tri = mc.fixture("n4ex")
        cs = [b.coloring.values for b in mc.enumerate_barbell_trees(tri)
              if b.degree == 4]
        total_c = tuple(sum(x) for x in zip(*cs))
        total_a = tuple(sum(x) for x in zip(
            *(p.values for p in mc.peripheral_colorings(tri))))
        assert total_c == total_a

    def test_n4ex2_boundary_identities(self):
        tri = mc.fixture("n4ex2")
        perips = {p.values for p in mc.peripheral_colorings(tri)}
        barbells = mc.enumerate_barbell_trees(tri)
        deg4_non_perip = [b.coloring.values for b in barbells
                          if b.degree == 4 and b.coloring.values not in perips]
        deg4_perip = [v for v in perips if sum(v) == 4]
        deg6 = [b.coloring.values for b in barbells if b.degree == 6]
        assert len(deg4_non_perip) == 2 and len(deg4_perip) == 2
        assert tuple(sum(x) for x in zip(*deg4_non_perip)) == \
            tuple(sum(x) for x in zip(*deg4_perip))
        assert tuple(sum(x) for x in zip(*deg6)) == \
            tuple(sum(x) for x in zip(*perips))


class TestFaceSliceConversion:
    def test_vertices_carry_ray_labels(self):
        # a vertex of the slice is a cone ray, labelled by its coloring
        for name in FIXTURES:
            tri = mc.fixture(name)
            cpx = mc.relative_complex(tri)
            rays = [b.coloring.values for b in mc.enumerate_simple(tri)]
            assert set(cpx.labels) == set(cpx.cells_of_dim(0))
            for v in cpx.cells_of_dim(0):
                (i,) = v
                assert cpx.labels[v] == [list(rays[i])]
