import random

import pytest

import multicurve as mc
from multicurve.triangulation import random_triangulation  # noqa: F401

FIXTURES = ["ex11", "n4ex", "n4ex2", "flower:4", "flower:5"]

# the 6-vertex triangulation of the real projective plane
RP2_TRIANGLES = [(0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
                 (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)]


@pytest.fixture(params=FIXTURES)
def any_fixture(request):
    return mc.fixture(request.param)


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


def projectively_equal(m, n, tol=0):
    """(A, e) of m and n agree up to one common nonzero scalar."""
    u = [*m.a[0], *m.a[1], m.e]
    v = [*n.a[0], *n.a[1], n.e]
    scale = max(map(abs, u)) * max(map(abs, v))
    return scale != 0 and all(
        abs(u[i] * v[j] - u[j] * v[i]) <= tol * scale
        for i in range(5) for j in range(i + 1, 5))


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
