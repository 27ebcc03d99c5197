"""Slow independent oracles for cross-checking the package's fast paths.

``order_complex_homology`` computes the integral homology of a face poset
through its order complex (barycentric subdivision): a k-simplex is a chain
of k+1 cells ordered by strict containment, with the simplicial boundary.
It needs no orientation of the cells, so it checks the cellular homology of
``PolytopeComplex.homology`` independently.  The chain count grows fast
(716 simplices for the 38 cells of the flower:5 relative complex), so keep
it to small complexes.

``rank_face_lattice`` rebuilds a cone face lattice with the dimension of
each face taken as the rational rank of its rays, which checks the graded
dimensions of ``ConeFaceLattice`` with linear algebra.
"""

from multicurve.linalg import homology_from_boundaries, integer_rank


def order_complex_chains(cpx):
    """All chains of the face poset of ``cpx``, grouped by length - 1."""
    above = {k: [] for k in cpx.order}
    for k in cpx.order:
        for b in cpx.contains[k]:
            above[b].append(k)
    chains = {0: [(k,) for k in cpx.order]}
    level = 0
    while chains[level]:
        chains[level + 1] = [chain + (k,) for chain in chains[level]
                             for k in above[chain[-1]]]
        level += 1
    del chains[level]
    return chains


def order_complex_homology(cpx):
    """(betti, torsion) per dimension 0..cpx.dimension, via the order
    complex."""
    chains = order_complex_chains(cpx)
    top = max(chains)
    index = {k: {c: i for i, c in enumerate(chains[k])} for k in chains}
    boundaries = {}
    for k in range(1, top + 1):
        rows = [[0] * len(chains[k]) for _ in range(len(chains[k - 1]))]
        for j, chain in enumerate(chains[k]):
            for drop in range(len(chain)):
                face = chain[:drop] + chain[drop + 1:]
                rows[index[k - 1][face]][j] = (-1) ** drop
        boundaries[k] = rows
    result = homology_from_boundaries(
        boundaries, [len(chains[k]) for k in range(top + 1)])
    while len(result) < cpx.dimension + 1:
        result.append((0, []))
    return result


def num_simplices(cpx):
    return sum(len(c) for c in order_complex_chains(cpx).values())


def rank_face_lattice(lattice):
    """(faces, face_dim, face_corners) of a cone face lattice, rebuilt
    independently: faces by folding in one candidate facet at a time,
    dimensions as the rank of each face's rays, and vanishing corners as
    those zero on every ray of the face."""
    vectors = lattice.corner_vectors
    rays = range(len(lattice.rays))
    corners = range(len(vectors[0]))
    faces = {frozenset(rays)}
    for theta in corners:
        zero = frozenset(i for i in rays if vectors[i][theta] == 0)
        faces |= {face & zero for face in faces}
    faces = sorted(faces, key=lambda f: (len(f), sorted(f)))
    face_dim = {f: integer_rank([lattice.rays[i].values for i in f])
                for f in faces}
    face_corners = {f: frozenset(theta for theta in corners
                                 if all(vectors[i][theta] == 0 for i in f))
                    for f in faces}
    return faces, face_dim, face_corners
