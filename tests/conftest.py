import random
import resource
from fractions import Fraction

import pytest

import multicurve as mc
from multicurve.exactnum import GaussianRational
from multicurve.quadric import random_ratio
from multicurve.triangulation import (  # noqa: F401
    random_triangulation,
    slot_id,
    slot_pair,
)

# a search that grows memory ends in MemoryError at 3 GiB of address space,
# which the hang guard of pyproject.toml cannot catch
_SOFT, _HARD = resource.getrlimit(resource.RLIMIT_AS)
if _SOFT == resource.RLIM_INFINITY or _SOFT > 3 << 30:
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, _HARD))

FIXTURES = ["ex11", "n4ex", "n4ex2", "flower:4", "flower:5"]

# the 6-vertex triangulation of the real projective plane
RP2_TRIANGLES = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                 (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


@pytest.fixture(params=FIXTURES)
def any_fixture(request):
    return mc.fixture(request.param)


def triangle_side_colors(tri, values, t):
    """Colors seen by slots 0,1,2 of triangle t (doubled sides repeat)."""
    return tuple(values[e] for e in tri.side_edges[t])


def edge_endpoints(tri, e):
    """Vertex indices of the two endpoints of edge e (may coincide)."""
    t, k = slot_pair(tri.edges[e][0])
    return (tri.corner_vertex[slot_id(t, (k + 1) % 3)],
            tri.corner_vertex[slot_id(t, (k + 2) % 3)])


def side_triangles(tri):
    """Each edge's two triangles, read off tri.side_edges: the triangles
    whose side list holds the edge, twice for a folded side."""
    ends = [[] for _ in range(tri.num_edges)]
    for t, sides in enumerate(tri.side_edges):
        for e in sides:
            ends[e].append(t)
    return [tuple(ts) for ts in ends]


def is_loop(tri, e):
    a, b = side_triangles(tri)[e]
    return a == b


def num_loops(tri):
    return sum(is_loop(tri, e) for e in range(tri.num_edges))


def random_admissible(rng, tri, max_degree=8):
    """Random admissible coloring: a sum of random barbell generators."""
    gens = mc.enumerate_barbell_trees(tri)
    values = [0] * tri.num_edges
    budget = max_degree
    while budget > 0:
        g = rng.choice(gens)
        if g.degree > budget:
            break
        values = [a + b for a, b in zip(values, g.coloring.values)]
        budget -= g.degree
    return mc.Coloring(tri, values)


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_gaussian_point(rng, span=6):
    """Projective point with Gaussian-rational coordinates."""
    while True:
        x1, x2 = (GaussianRational(Fraction(*random_ratio(rng, span)),
                                   Fraction(*random_ratio(rng, span)))
                  for _ in range(2))
        if x1 != 0 or x2 != 0:
            return mc.ProjectivePoint(x1, x2)


def conjugate_point(p):
    return mc.ProjectivePoint(p.x1.conjugate(), p.x2.conjugate())


def simplicial_cells(triangles):
    """Face poset (cells, facets) of a 2-dimensional simplicial complex."""
    cells = {}
    facets = {}
    for t in map(tuple, map(sorted, triangles)):
        edges = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
        for v in t:
            cells[(v,)] = 0
            facets[(v,)] = frozenset()
        for e in edges:
            cells[e] = 1
            facets[e] = frozenset({(e[0],), (e[1],)})
        cells[t] = 2
        facets[t] = frozenset(edges)
    return cells, facets


def boundary_columns(cpx):
    """The cellular boundary maps of ``cpx`` for k = 1..top, each as the
    column dicts {facet number: sign} of its k-cells, from its incidences."""
    incidence = cpx._incidences()
    return {k: [incidence[c] for c in cpx.cells_of_dim(k)]
            for k in range(1, cpx.dimension + 1)}


def keyed_view(cpx):
    """({key: dimension}, {key: frozenset of facet keys}) of a polytope
    complex, its numbered cells read back through ``order``."""
    key = cpx.order
    return ({key[c]: d for c, d in enumerate(cpx.cells)},
            {key[c]: frozenset(key[f] for f in facets)
             for c, facets in enumerate(cpx.facets)})
