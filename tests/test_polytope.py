import random
import tracemalloc
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import pytest
from conftest import (
    FIXTURES,
    RP2_TRIANGLES,
    boundary_columns,
    edge_endpoints,
    keyed_view,
    random_triangulation,
    simplicial_cells,
)
from oracles import (
    closure_face_lattice,
    corner_masks,
    corner_row_rays,
    corner_vectors,
    faces_by_dimension,
    keyed_complex,
    mask_of,
    num_simplices,
    order_complex_homology,
    rank_face_lattice,
    rank_relative_complex,
    walk_relative_complex,
)

import multicurve as mc
from multicurve import errors, linalg
from multicurve import polytope
from multicurve.linalg import homology_from_boundaries, integer_rank

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
    return keyed_complex(cells, facets)


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


# the theta graph: vertices u, v and three edges a, b, c on both
THETA = ({"u": 0, "v": 0, "a": 1, "b": 1, "c": 1},
         {"a": ["u", "v"], "b": ["u", "v"], "c": ["u", "v"]})


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
    _faces, face_dim, _face_corners = rank_face_lattice(lat)
    assert lat.faces_by_dim == faces_by_dimension(
        {mask_of(f): d for f, d in face_dim.items()})


def assert_matches_closure_oracle(tri):
    lat = mc.cone_face_lattice(tri)
    _faces, face_dim = closure_face_lattice(lat.rays,
                                            corner_vectors(lat.rays))
    by_dim = faces_by_dimension(face_dim)
    assert lat.faces_by_dim == by_dim
    assert lat.faces == [f for faces in by_dim for f in faces]
    for d in range(-1, lat.dimension + 2):
        assert lat.faces_of_dim(d) == (by_dim[d] if 0 <= d < len(by_dim)
                                       else [])


def assert_relative_matches_rank_oracle(tri):
    cpx = mc.relative_complex(tri)
    cells, facets = rank_relative_complex(tri, mc.cone_face_lattice(tri))
    keyed_cells, keyed_facets = keyed_view(cpx)
    assert keyed_cells == cells
    assert keyed_facets == facets


def assert_matches_walk_oracle(tri):
    cpx = mc.relative_complex(tri)
    walked = walk_relative_complex(tri)
    assert cpx.order == walked.order
    assert cpx.cells == walked.cells
    assert cpx.facets == walked.facets
    assert cpx.labels == walked.labels


def proper_ray_subsets(name):
    """Each non-empty proper subset of a surface's rays, with its candidate
    facets read off its corner vectors as ``_cone_rays`` does and whether
    its rank is E, the number of edges."""
    rays = polytope._cone_rays(mc.fixture(name))[0]
    for k in range(1, len(rays)):
        for subset in map(list, combinations(rays, k)):
            yield (subset, corner_masks(corner_vectors(subset)),
                   integer_rank([r.values for r in subset])
                   == len(rays[0].values))


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
            assert face.bit_count() == 2

    def test_full_dimensional(self, any_fixture):
        tri = any_fixture
        lat = mc.cone_face_lattice(tri)
        assert lat.dimension == tri.num_edges

    def test_proper_faces_have_vanishing_corner(self, any_fixture):
        lat = mc.cone_face_lattice(any_fixture)
        vectors = corner_vectors(lat.rays)
        assert lat.faces_by_dim[-1] == [(1 << len(lat.rays)) - 1]
        for faces in lat.faces_by_dim[:-1]:
            for face in faces:
                rays = [i for i in range(len(lat.rays)) if face >> i & 1]
                assert any(all(vectors[i][theta] == 0 for i in rays)
                           for theta in range(len(vectors[0])))

    @pytest.mark.parametrize("name", [
        "n4ex", "n4ex2", "flower:4", "random:4:0", "random:4:1"])
    def test_rays_match_corner_row_oracle(self, name):
        # vertex enumeration on the corner rows shares no cycle listing
        # with the rays read off the one- and two-bell barbells
        tri = mc.fixture(name)
        assert tri.num_edges == 6
        rays = [r.values for r in polytope._cone_rays(tri)[0]]
        assert len(set(rays)) == len(rays)
        assert set(rays) == corner_row_rays(tri)

    def test_no_rays_empty_lattice(self):
        lat = mc.ConeFaceLattice([], [])
        assert lat.faces == []
        assert lat.dimension == 0

    def test_grading_checked_against_ray_rank(self):
        # one corner positive on every ray: two faces, graded dimension 1
        rays = mc.cone_face_lattice(mc.fixture("ex11")).rays
        with pytest.raises(ValueError,
                           match="apex codimension is 1, not E = 3"):
            mc.ConeFaceLattice(rays, [0])

    @pytest.mark.parametrize("name", ["n4ex", "n4ex2"])
    def test_rays_below_rank_e_refused(self, name):
        # the sweep reads only the candidate facets, so a ray set of rank
        # below E spans no full-dimensional cone and its grading falls short
        for subset, masks, full_rank in proper_ray_subsets(name):
            if full_rank:
                mc.ConeFaceLattice(subset, masks)
            else:
                with pytest.raises(ValueError, match="apex codimension"):
                    mc.ConeFaceLattice(subset, masks)

    @pytest.mark.parametrize("name", FIXTURES + ["flower:6"])
    def test_no_elimination(self, name, monkeypatch):
        monkeypatch.setattr(linalg, "_pivots", refuse)
        tri = mc.fixture(name)
        assert mc.cone_face_lattice(tri).dimension == tri.num_edges

    def test_grading_matches_rank_oracle(self, any_fixture):
        assert_matches_rank_oracle(any_fixture)

    @pytest.mark.parametrize("e", FLOWER5_FLIPS)
    def test_grading_on_flower5_flips(self, e):
        assert_matches_rank_oracle(mc.flip(mc.fixture("flower:5"), e))

    @pytest.mark.parametrize("triangles,seed", RANDOM_SURFACES)
    def test_grading_on_random_surfaces(self, triangles, seed):
        assert_matches_rank_oracle(
            random_triangulation(random.Random(seed), triangles))


class TestGradingAgainstClosure:
    # flower:6 with one flip into each of its other neighbour classes, the
    # flower:6 inputs of the lattice benchmark, flower:5 with its flips,
    # and random:8:0, whose rays split into blocks of 24, 1, 1 and 1
    @pytest.mark.parametrize("base,e", [
        ("flower:6", None), ("flower:6", 0), ("flower:6", 4),
        ("flower:6", 6), ("flower:5", None),
        *(("flower:5", e) for e in FLOWER5_FLIPS), ("random:8:0", None)])
    def test_flowers_and_flips(self, base, e):
        tri = mc.fixture(base)
        assert_matches_closure_oracle(tri if e is None else mc.flip(tri, e))

    @pytest.mark.parametrize("triangles,seed", RANDOM_SURFACES)
    def test_random_surfaces(self, triangles, seed):
        assert_matches_closure_oracle(
            random_triangulation(random.Random(seed), triangles))


class TestBlockProduct:
    def test_direct_sum_of_two_fixture_cones(self):
        # n4ex's rays form one block of 7, flower:4's blocks of 3, 1, 1, 1:
        # the direct sum has two blocks of more than one ray
        a = mc.cone_face_lattice(mc.fixture("n4ex"))
        b = mc.cone_face_lattice(mc.fixture("flower:4"))
        pad_a, pad_b = len(a.rays[0].values), len(b.rays[0].values)
        rays = ([SimpleNamespace(values=r.values + (0,) * pad_b)
                 for r in a.rays]
                + [SimpleNamespace(values=(0,) * pad_a + r.values)
                   for r in b.rays])
        vec_a, vec_b = corner_vectors(a.rays), corner_vectors(b.rays)
        zeros_a, zeros_b = (0,) * len(vec_a[0]), (0,) * len(vec_b[0])
        vectors = ([u + zeros_b for u in vec_a]
                   + [zeros_a + u for u in vec_b])
        lat = mc.ConeFaceLattice(rays, corner_masks(vectors))
        _faces, face_dim = closure_face_lattice(rays, vectors)
        assert lat.faces_by_dim == faces_by_dimension(face_dim)
        f_a = [len(fs) for fs in a.faces_by_dim]
        f_b = [len(fs) for fs in b.faces_by_dim]
        assert [len(fs) for fs in lat.faces_by_dim] == [
            sum(f_a[i] * f_b[k - i] for i in range(len(f_a))
                if 0 <= k - i < len(f_b))
            for k in range(len(f_a) + len(f_b) - 1)]
        assert len(lat.faces) == 106 * 64 == 6784


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

    @pytest.mark.parametrize("corners,kept", [
        ([[1, 2]], [[0b0010, 0b0100, 0b1000], [0b0110, 0b1100]]),
        ([[1, 2], [0, 3]], [[0b0010, 0b1000]]),
    ], ids=["ray0", "rays0and2"])
    def test_square_cone_corner_rule(self, corners, kept, monkeypatch):
        # the cone over a square, facets {0,1}, {1,2}, {2,3}, {3,0}: a
        # puncture at the corners of the two facets missing ray 0 keeps the
        # faces avoiding ray 0, and one more at those missing ray 2 keeps
        # the two vertices avoiding both; the lists run by cell dimension
        rays = [SimpleNamespace(values=v) for v in
                [(0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]]
        facets = [0b0011, 0b0110, 0b1100, 0b1001]
        monkeypatch.setattr(polytope, "_cone_rays",
                            lambda tri: (rays, facets))
        cpx = mc.relative_complex(
            SimpleNamespace(vertices=corners, punctures=len(corners)))
        assert [[cpx.order[c] for c in cpx.cells_of_dim(d)]
                for d in range(cpx.dimension + 1)] == kept

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

    def test_genus2_two_punctured_nine_sphere(self):
        # the (2, 2) surface random:8:4: 53,854 cells
        tri = mc.fixture("random:8:4")
        assert (tri.genus, tri.punctures) == (2, 2)
        cpx = mc.relative_complex(tri)
        assert (cpx.dimension, len(cpx)) == (9, 53854)
        cert = mc.sphere_certificate(cpx, 9)
        assert cert.granted
        assert cert.betti == (1, 0, 0, 0, 0, 0, 0, 0, 0, 1)

    @pytest.mark.slow
    def test_genus2_three_punctured_eleven_sphere(self):
        # the (2, 3) surface random:10:0: 418,184 cells
        tri = mc.fixture("random:10:0")
        assert (tri.genus, tri.punctures) == (2, 3)
        cpx = mc.relative_complex(tri)
        assert cpx.f_vector() == (113, 1643, 10031, 33970, 71855, 100776,
                                  96553, 63835, 28906, 8712, 1634, 156)
        cert = mc.sphere_certificate(cpx, 11)
        assert cert.granted
        assert cert.betti == (1,) + (0,) * 10 + (1,)

    @pytest.mark.parametrize("name", [
        "flower:6", "random:6:0", "random:6:1", "random:6:2"])
    def test_cell_keys_print_by_content(self, name):
        # a cell's key is its int ray mask, and the cells of one dimension
        # are numbered by increasing mask, so the numbering is a function
        # of content alone
        cpx = mc.relative_complex(mc.fixture(name))
        assert all(type(k) is int for k in cpx.order)
        for d in range(cpx.dimension + 1):
            masks = [cpx.order[c] for c in cpx.cells_of_dim(d)]
            assert masks == sorted(masks)

    def test_depth_checked_against_ray_rank(self, monkeypatch):
        # the sweep reads only the corners; rays all on one line leave the
        # graded dimension above the rank of the rays
        rays, corner_rays = polytope._cone_rays(mc.fixture("n4ex"))
        line = [SimpleNamespace(values=rays[0].values) for _ in rays]
        monkeypatch.setattr(polytope, "_cone_rays",
                            lambda tri: (line, corner_rays))
        with pytest.raises(ValueError, match="rays' rank is 1, not E = 6"):
            mc.relative_complex(mc.fixture("n4ex"))

    @pytest.mark.parametrize("name", ["n4ex", "n4ex2"])
    def test_rays_below_rank_e_refused(self, name, monkeypatch):
        # the roots are taken at codimension n, which only the rank of the
        # rays bounds, so a set of rank below E is refused
        tri = mc.fixture(name)
        for subset, masks, full_rank in proper_ray_subsets(name):
            monkeypatch.setattr(polytope, "_cone_rays",
                                lambda tri, cone=(subset, masks): cone)
            if full_rank:
                mc.relative_complex(tri)
            else:
                with pytest.raises(ValueError):
                    mc.relative_complex(tri)

    def test_roots_checked_against_e(self, monkeypatch):
        # with one puncture's corners skipped, the roots lie one
        # codimension above the n they are given, so the apex lands at E + 1
        tri = mc.fixture("n4ex")
        cone = polytope._cone_rays(tri)
        monkeypatch.setattr(polytope, "_cone_rays", lambda tri: cone)
        skipped = SimpleNamespace(vertices=tri.vertices[:-1],
                                  punctures=tri.punctures, genus=tri.genus)
        with pytest.raises(ValueError,
                           match="apex codimension is 7, not E = 6"):
            mc.relative_complex(skipped)

    def test_closed_under_faces(self, any_fixture):
        cells, facets = keyed_view(mc.relative_complex(any_fixture))
        for cell, fs in facets.items():
            for f in fs:
                assert cells.get(f) == cells[cell] - 1
                assert f & cell == f != cell

    def test_euler_matches_homology(self, any_fixture):
        cpx = mc.relative_complex(any_fixture)
        euler_f = sum((-1) ** d * c for d, c in enumerate(cpx.f_vector()))
        euler_h = sum((-1) ** d * b for d, (b, _t)
                      in enumerate(cpx.homology()))
        assert euler_f == euler_h


class TestCornerRoots:
    """The roots of the one sweep, the maximal ANDs of one candidate facet
    per puncture, are the top cells, each of cone codimension n."""

    @pytest.mark.parametrize(
        "name", FIXTURES + [name for name, _gn in SPHERE_TABLE])
    def test_roots_are_the_top_cells(self, name, monkeypatch):
        tri = mc.fixture(name)
        seen = []
        sweep = polytope._graded_sweep
        monkeypatch.setattr(polytope, "_graded_sweep", lambda roots, cuts:
                            seen.append(dict(roots)) or sweep(roots, cuts))
        cpx = mc.relative_complex(tri)
        (roots,) = seen
        assert set(roots.values()) == {tri.punctures}
        assert cpx.dimension == 6 * tri.genus - 7 + 2 * tri.punctures
        assert sorted(roots) == [cpx.order[c]
                                 for c in cpx.cells_of_dim(cpx.dimension)]


class TestRelativeMatchesRankOracle:
    """The corner rule and the facets read off the candidates give the
    complex of the vanishing-corner filter and pairwise covers."""

    def test_fixtures(self, any_fixture):
        assert_relative_matches_rank_oracle(any_fixture)

    @pytest.mark.parametrize("e", FLOWER5_FLIPS)
    def test_flower5_flips(self, e):
        assert_relative_matches_rank_oracle(mc.flip(mc.fixture("flower:5"), e))

    @pytest.mark.parametrize("triangles,seed", RANDOM_SURFACES)
    def test_random_surfaces(self, triangles, seed):
        assert_relative_matches_rank_oracle(
            random_triangulation(random.Random(seed), triangles))


class TestSweepMatchesWalk:
    """The one sweep of ``relative_complex`` from the corner-rule roots
    gives the complex of the corner-side cover-counting walk, which drops
    the faces holding a through-face: cells, facets, labels and order."""

    def test_fixtures(self, any_fixture):
        assert_matches_walk_oracle(any_fixture)

    @pytest.mark.parametrize("n", [6, 7])
    def test_flowers(self, n):
        assert_matches_walk_oracle(mc.flower(n))

    @pytest.mark.parametrize("base,e", [
        *(("flower:5", e) for e in FLOWER5_FLIPS),
        ("flower:6", 0), ("flower:6", 4), ("flower:6", 6)])
    def test_flower_flips(self, base, e):
        assert_matches_walk_oracle(mc.flip(mc.fixture(base), e))

    @pytest.mark.parametrize("flipped", [False, True], ids=["base", "flip"])
    @pytest.mark.parametrize("name", [name for name, _gn in SPHERE_TABLE])
    def test_sphere_table(self, name, flipped):
        tri = mc.fixture(name)
        if flipped:
            tri = mc.flip(tri, legal_flips(tri)[0])
        assert_matches_walk_oracle(tri)


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
        cpx = keyed_complex(*simplicial_cells(RP2_TRIANGLES))
        hom = cpx.homology()
        assert hom[0] == (1, [])
        assert hom[1] == (0, [2])
        assert hom[2] == (0, [])

    def test_circle(self):
        cpx = path_complex([(0, 1), (1, 2), (2, 0)])
        assert [b for b, _ in cpx.homology()] == [1, 1]

    def test_empty_complex(self):
        cpx = keyed_complex({}, {})
        with pytest.raises(errors.EmptyComplex):
            cpx.homology()


def surface(name, flipped):
    tri = mc.fixture(name)
    return mc.flip(tri, legal_flips(tri)[0]) if flipped else tri


def sphere_homology(d):
    return [((k == 0) + (k == d), []) for k in range(d + 1)]


class TestCollapse:
    """The relative complex, one top cell removed, collapses to a vertex,
    so ``homology`` reads S^d off the collapse; a poset that does not
    collapse falls back to the Smith form."""

    @pytest.mark.parametrize("flipped", [False, True], ids=["base", "flip"])
    @pytest.mark.parametrize(
        "name", FIXTURES + [name for name, _gn in SPHERE_TABLE])
    def test_collapse_matches_smith(self, name, flipped):
        cpx = mc.relative_complex(surface(name, flipped))
        assert cpx._collapses()
        assert cpx.homology() == homology_from_boundaries(
            boundary_columns(cpx), list(cpx.f_vector()))

    @pytest.mark.parametrize("flipped", [False, True], ids=["base", "flip"])
    @pytest.mark.parametrize(
        "name", FIXTURES + [name for name, _gn in SPHERE_TABLE])
    def test_no_smith_form_on_spheres(self, name, flipped, monkeypatch):
        monkeypatch.setattr(polytope, "homology_from_boundaries", refuse)
        tri = surface(name, flipped)
        d = 6 * tri.genus - 7 + 2 * tri.punctures
        cpx = mc.relative_complex(tri)
        assert cpx.homology() == sphere_homology(d)
        assert mc.sphere_certificate(cpx, d).granted

    def test_zero_and_one_spheres(self, monkeypatch):
        monkeypatch.setattr(polytope, "homology_from_boundaries", refuse)
        points = keyed_complex({"a": 0, "b": 0}, {})
        assert points.homology() == sphere_homology(0) == [(2, [])]
        circle = path_complex([(0, 1), (1, 2), (2, 0)])
        assert circle.homology() == sphere_homology(1)

    @pytest.mark.parametrize("keys,facets", [
        ([[0, 1], []], [[], []]),
        ([[0, 1, 2], [3, 4, 5], []], [[], [], [], [0, 1], [1, 2], [0, 2]]),
    ], ids=["two-points", "triangle"])
    def test_empty_top_dimension(self, keys, facets):
        # the last cell is not top-dimensional: the collapse gives the
        # sphere of its dimension, zeros above it
        cpx = polytope.PolytopeComplex(keys, facets, {})
        assert cpx._collapses()
        assert cpx.homology() == homology_from_boundaries(
            boundary_columns(cpx), list(cpx.f_vector()))

    def test_signs_before_the_collapse(self):
        # the cone over RP^2 (apex 9) and one more 3-cell on the RP^2
        # triangles: every facet one dimension down, two vertices per edge
        # and each ridge of a cell in two of its facets, and it collapses,
        # yet it is no regular CW complex (H_2 = Z/2); only the sign pass
        # refuses it
        cells, facets = {}, {}
        for t in RP2_TRIANGLES:
            for k in range(1, 5):
                for f in combinations((*sorted(t), 9), k):
                    cells[f] = k - 1
                    facets[f] = frozenset(combinations(f, k - 1)) - {()}
        cells[(99,)] = 3
        facets[(99,)] = frozenset(tuple(sorted(t)) for t in RP2_TRIANGLES)
        assert order_complex_homology(cells, facets)[2] == (0, [2])
        cpx = keyed_complex(cells, facets)
        assert cpx.order[-1] == (99,)
        for c, fs in enumerate(cpx.facets):
            assert all(cpx.cells[f] == cpx.cells[c] - 1 for f in fs)
            if cpx.cells[c] == 1:
                assert len(fs) == 2
            elif cpx.cells[c] > 1:
                ridges = Counter(r for f in fs for r in cpx.facets[f])
                assert set(ridges.values()) == {2}
        assert cpx._collapses()
        message = r"3-cell \(99,\) is not orientable across ridge \(1, 2\)"
        with pytest.raises(ValueError, match=message):
            cpx.homology()
        with pytest.raises(ValueError, match=message):
            mc.sphere_certificate(cpx, 3)

    @pytest.mark.parametrize("poset,hom", [
        (simplicial_cells(RP2_TRIANGLES), [(1, []), (0, [2]), (0, [])]),
        (polygon_2cell([0, 1, 2, 3, 4]), [(1, []), (0, []), (0, [])]),
        (simplicial_cells([(0, 1, 2), (2, 3, 4)]),
         [(1, []), (0, []), (0, [])]),
        (simplicial_cells([(0, 1, 3), (0, 1, 4), (1, 2, 3), (2, 3, 4)]),
         [(1, []), (1, []), (0, [])]),
    ], ids=["rp2", "pentagon", "bowtie", "annulus"])
    def test_other_posets_fall_back_to_smith(self, poset, hom, monkeypatch):
        calls = []
        monkeypatch.setattr(polytope, "homology_from_boundaries",
                            lambda *args: calls.append(args)
                            or homology_from_boundaries(*args))
        cpx = keyed_complex(*poset)
        assert not cpx._collapses()
        assert cpx.homology() == hom
        assert len(calls) == 1

    def test_a_face_is_free_only_below_a_free_cell(self):
        # not regular, so ``homology`` refuses it, where the diamond rule
        # makes the check true; the last 2-cell removed, the disk t0 goes
        # with e0, and then v0's one edge e1 still bounds the disk t1
        cpx = keyed_complex(
            {"v0": 0, "e0": 1, "e1": 1, "t0": 2, "t1": 2, "t2": 2},
            {"e0": ["v0"], "e1": ["v0"], "t0": ["e0"], "t1": ["e1"],
             "t2": ["e0"]})
        assert not cpx._collapses()


def refuse(*args):
    raise AssertionError("the Smith form was called")


class TestCellularMatchesOrderComplex:
    """Cellular homology against the order-complex oracle (tests/oracles.py),
    on complexes whose subdivision has at most about 1000 simplices."""

    def test_fixtures(self, any_fixture):
        cpx = mc.relative_complex(any_fixture)
        assert cpx.homology() == order_complex_homology(*keyed_view(cpx))

    @pytest.mark.parametrize("poset", [
        simplicial_cells(RP2_TRIANGLES),
        simplicial_cells([(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 2, 3)]),
        simplicial_cells([(0, 1, 2), (2, 3, 4)]),
        polygon_2cell([0, 1, 2, 3, 4]),
        polygon_2cell([0, 1]),
    ], ids=["rp2", "tetrahedron", "bowtie", "pentagon", "digon"])
    def test_hand_built(self, poset):
        cpx = keyed_complex(*poset)
        assert keyed_view(cpx) == poset
        assert cpx.homology() == order_complex_homology(*keyed_view(cpx))

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 0)],
        [(0, 1), (1, 2), (2, 0), (0, 3)],
        [(0, 1), (1, 0), (2, 3), (3, 2)],
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
    ], ids=["circle", "dangling", "two-circles", "figure-eight"])
    def test_path_complexes(self, edges):
        cpx = path_complex(edges)
        assert cpx.homology() == order_complex_homology(*keyed_view(cpx))

    def test_random_surfaces(self):
        compared = set()
        for tri in random_surfaces(6):
            cpx = mc.relative_complex(tri)
            poset = keyed_view(cpx)
            if num_simplices(*poset) <= 1000:
                assert cpx.homology() == order_complex_homology(*poset)
                compared.add(tri.genus)
        assert compared == {0, 1}


class TestNonRegularPoset:
    """Posets that are not the face poset of a regular CW complex."""

    def test_loop_edge(self):
        cpx = keyed_complex({"v": 0, "loop": 1},
                            {"v": frozenset(), "loop": frozenset({"v"})})
        with pytest.raises(ValueError, match="edge 'loop' has 1 vertices"):
            cpx.homology()

    def test_dangling_edge_in_boundary(self):
        cells, facets = polygon_2cell([0, 1, 2])
        cells[(3,)], facets[(3,)] = 0, frozenset()
        cells[(0, 3)], facets[(0, 3)] = 1, frozenset({(0,), (3,)})
        facets["disk"] |= {(0, 3)}
        with pytest.raises(ValueError, match="of 2-cell 'disk' lies in"):
            keyed_complex(cells, facets).homology()

    def test_non_orientable_boundary(self):
        cells, facets = simplicial_cells(RP2_TRIANGLES)
        facets["ball"] = frozenset(k for k in cells if len(k) == 3)
        cells["ball"] = 3
        with pytest.raises(ValueError, match="'ball' is not orientable"):
            keyed_complex(cells, facets).homology()

    def test_disconnected_boundary(self):
        cpx = keyed_complex(*polygon_2cell([0, 1, 2], [3, 4, 5]))
        with pytest.raises(ValueError, match="of 2-cell 'disk' is not reach"):
            cpx.homology()

    def test_cell_without_facets(self):
        cpx = keyed_complex({"v": 0, "blob": 2},
                            {"v": frozenset(), "blob": frozenset()})
        with pytest.raises(ValueError, match="2-cell 'blob' has no facets"):
            cpx.homology()

    def test_facet_that_is_not_a_cell(self):
        with pytest.raises(ValueError, match="facet 'z' is not a cell"):
            keyed_complex({"a": 0, "b": 0, "e": 1},
                          {"a": [], "b": [], "e": ["a", "z"]})

    def test_facets_of_a_key_that_is_not_a_cell(self):
        with pytest.raises(ValueError, match="'x' is not a cell"):
            keyed_complex({"a": 0, "b": 0, "e": 1},
                          {"e": ["a", "b"], "x": ["a"]})

    def test_label_of_a_key_that_is_not_a_cell(self):
        with pytest.raises(ValueError, match="'b' is not a cell"):
            keyed_complex({"a": 0}, {}, {"b": [1]})

    def test_cell_without_a_facets_entry_has_none(self):
        assert keyed_complex({"a": 0}, {}).homology() == [(1, [])]
        with pytest.raises(ValueError, match="edge 'e' has 0 vertices"):
            keyed_complex({"a": 0, "e": 1}, {}).homology()
        with pytest.raises(ValueError, match="2-cell 'blob' has no facets"):
            keyed_complex({"v": 0, "blob": 2}, {"v": []}).homology()

    def test_facet_of_wrong_dimension(self):
        cells, facets = polygon_2cell([0, 1, 2])
        facets["disk"] |= {(0,)}
        with pytest.raises(ValueError, match=r"facet \(0,\) of 2-cell 'disk' "
                                             "has dimension 0, not 1"):
            keyed_complex(cells, facets).homology()

    def test_loop_edge_listing_its_vertex_twice(self):
        # a loop's boundary is 0, so it would pass as an edge with two
        # vertices, collapse and be granted as S^1 were it not refused
        cpx = polytope.PolytopeComplex([[0], [1]], [[], [0, 0]], {})
        assert cpx._collapses()
        message = r"facets of 1-cell \(0,\) do not strictly increase at \(\)"
        with pytest.raises(ValueError, match=message):
            cpx.homology()
        with pytest.raises(ValueError, match=message):
            mc.sphere_certificate(cpx, 1)

    @pytest.mark.parametrize("disk,at", [
        ([3, 3, 4, 5], "ab"), ([5, 4, 3], "ac"), ([3, 5, 4], "ac")],
        ids=["repeated", "decreasing", "unsorted"])
    def test_facets_that_do_not_strictly_increase(self, disk, at):
        # the triangle a, b, c with edges ab, ac, bc and the disk D on them
        keys = [["a", "b", "c"], ["ab", "ac", "bc"], ["D"]]
        facets = [[], [], [], [0, 1], [0, 2], [1, 2]]
        ordered = polytope.PolytopeComplex(keys, facets + [[3, 4, 5]], {})
        assert ordered.homology() == [(1, []), (0, []), (0, [])]
        cpx = polytope.PolytopeComplex(keys, facets + [disk], {})
        with pytest.raises(ValueError, match=f"facets of 2-cell 'D' do not "
                                             f"strictly increase at '{at}'"):
            cpx.homology()

    def test_ray_mask_keys_named_by_ray_ids(self):
        # int keys are ray masks: mask 2 is ray 1 and mask 7 rays 0, 1, 2,
        # where cell numbers would read 1 and 5
        cpx = keyed_complex({1: 0, 2: 0, 4: 0, 3: 1, 5: 1, 7: 2},
                            {3: [1, 2], 5: [1, 4], 7: [3, 5]})
        with pytest.raises(ValueError, match=r"ridge \(1,\) of 2-cell "
                                             r"\(0, 1, 2\) lies in 1 of"):
            cpx.homology()
        with pytest.raises(ValueError, match=r"facet \(3,\) is not a cell"):
            keyed_complex({1: 0, 2: 0, 3: 1}, {3: [1, 2, 8]})


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

    def test_theta_graph_fails_pseudomanifold(self):
        # each vertex lies in three edges, not two
        cert = mc.sphere_certificate(keyed_complex(*THETA), 1)
        assert not cert.pseudomanifold
        assert not cert.granted

    def test_ridge_in_three_facets_refused(self):
        # a disk on the three edges of the theta graph: its ridge u lies in
        # three of its facets, so the poset is not regular CW
        cells, facets = THETA
        cpx = keyed_complex({**cells, "D": 2},
                            {**facets, "D": ["a", "b", "c"]})
        message = "ridge 'u' of 2-cell 'D' lies in 3 of its facets, not 2"
        with pytest.raises(ValueError, match=message):
            cpx.homology()

    def test_solid_triangle_is_no_pseudomanifold_of_dimension_one(self):
        # its edges make a circle, but a 2-cell sits on them
        cpx = keyed_complex(*simplicial_cells([(0, 1, 2)]))
        cert = mc.sphere_certificate(cpx, 1)
        assert not cert.pseudomanifold
        assert not cert.granted

    def test_torsion_alone_refuses(self):
        cert = polytope.SphereCertificate(3, True, True, True, (1, 0, 0, 1),
                                          False)
        assert not cert.granted
        assert cert.statement == "certificate refused"

    def test_disconnected_fails(self):
        cpx = path_complex([(0, 1), (1, 0), (2, 3), (3, 2)])
        cert = mc.sphere_certificate(cpx, 1)
        assert not cert.connected
        assert not cert.granted

    def test_two_points_are_the_zero_sphere(self):
        points = keyed_complex({"a": 0, "b": 0},
                               {"a": frozenset(), "b": frozenset()})
        cert = mc.sphere_certificate(points, 0)
        assert not cert.connected
        assert cert.granted
        assert cert.statement == "certified 0-sphere"
        assert not mc.sphere_certificate(points, 1).granted

    def test_wrong_dimension_fails(self):
        cpx = mc.relative_complex(mc.fixture("ex11"))
        assert not mc.sphere_certificate(cpx, 2).granted

    def test_empty_raises(self):
        with pytest.raises(errors.EmptyComplex):
            mc.sphere_certificate(keyed_complex({}, {}), 1)

    def test_dimension_above_the_complex_is_refused_in_small_memory(self):
        cpx = mc.relative_complex(mc.fixture("ex11"))
        cpx.homology()          # cached, so only the comparison is traced
        tracemalloc.start()
        try:
            cert = mc.sphere_certificate(cpx, 10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not cert.homology_matches and not cert.granted
        assert peak < 1 << 20
        assert not mc.sphere_certificate(cpx, 10 ** 12).granted


class TestCellNumbering:
    """The one numbering of ``PolytopeComplex``: cells by dimension and then
    by key, facets as increasing numbers one dimension down, and the
    per-dimension ``start`` offsets."""

    HAND_BUILT = {
        "rp2": simplicial_cells(RP2_TRIANGLES),
        "gap": ({"v": 0, "blob": 2}, {"v": frozenset(), "blob": frozenset()}),
        "points": ({"a": 0, "b": 0}, {"a": frozenset(), "b": frozenset()}),
    }

    def test_index_is_the_json_id(self, any_fixture):
        cpx = mc.relative_complex(any_fixture)
        cells = cpx.to_json_dict()["cells"]
        assert [c["id"] for c in cells] == list(range(len(cpx)))
        for c, cell in enumerate(cells):
            assert cell["dim"] == cpx.cells[c]
            assert cell["boundary"] == cpx.facets[c]

    @pytest.mark.parametrize("name", ["rp2", *FIXTURES])
    def test_facets_increase_one_dimension_down(self, name):
        cpx = (keyed_complex(*self.HAND_BUILT[name]) if name == "rp2"
               else mc.relative_complex(mc.fixture(name)))
        for c, facets in enumerate(cpx.facets):
            assert facets == sorted(set(facets))
            assert all(cpx.cells[f] == cpx.cells[c] - 1 for f in facets)

    @pytest.mark.parametrize("name", HAND_BUILT)
    def test_slices_match_a_scan(self, name):
        cpx = keyed_complex(*self.HAND_BUILT[name])
        assert keyed_view(cpx) == self.HAND_BUILT[name]
        for d in range(-1, cpx.dimension + 2):
            assert list(cpx.cells_of_dim(d)) == [c for c in range(len(cpx))
                                                 if cpx.cells[c] == d]
        counts = Counter(cpx.cells)
        assert cpx.f_vector() == tuple(counts[d]
                                       for d in range(cpx.dimension + 1))
        assert cpx.dimension == max(counts)

    def test_fixture_slices(self, any_fixture):
        cpx = mc.relative_complex(any_fixture)
        assert not cpx.cells_of_dim(-1)
        assert not cpx.cells_of_dim(cpx.dimension + 1)
        assert [c for d in range(cpx.dimension + 1)
                for c in cpx.cells_of_dim(d)] == list(range(len(cpx)))
        keys = [(cpx.cells[c], cpx.order[c]) for c in range(len(cpx))]
        assert keys == sorted(keys)
        for c, facets in enumerate(cpx.facets):
            assert all(a < b for a, b in zip(facets, facets[1:]))
            assert all(cpx.cells[f] == cpx.cells[c] - 1 for f in facets)
        assert set(cpx.labels) == set(cpx.cells_of_dim(0))

    def test_empty(self):
        cpx = keyed_complex({}, {})
        assert cpx.f_vector() == ()
        assert cpx.dimension == -1
        assert not cpx.cells_of_dim(-1) and not cpx.cells_of_dim(0)

    @pytest.mark.parametrize("name", ["rp2", "points", "two-circles",
                                      *FIXTURES])
    def test_certificate_reads_connectivity_off_b0(self, name):
        # the union-find of is_connected cross-checks the b_0 reading
        if name in self.HAND_BUILT:
            cpx = keyed_complex(*self.HAND_BUILT[name])
        elif name == "two-circles":
            cpx = path_complex([(0, 1), (1, 0), (2, 3), (3, 2)])
        else:
            cpx = mc.relative_complex(mc.fixture(name))
        cert = mc.sphere_certificate(cpx, cpx.dimension)
        assert cert.connected == cpx.is_connected()
        assert cert.connected == (name not in ("points", "two-circles"))


class TestMutationTransfer:
    def test_symmetric_square(self):
        # the symmetric case of the exchange rule: all four square sides
        # colored 1 (realized by two peripheral loops around the opposite
        # punctures), diagonal 0, so the new diagonal gets max(2,2) - 0
        tri = mc.fixture("n4ex")
        from multicurve.triangulation import flip_square_sides
        perips = mc.peripheral_colorings(tri)
        e = next(i for i in range(6)
                 if set(edge_endpoints(tri, i)) == {0, 1})
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
                i = cpx.order[v].bit_length() - 1
                assert cpx.order[v] == 1 << i
                assert cpx.labels[v] == [list(rays[i])]
