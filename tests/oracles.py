"""Slow independent oracles for cross-checking the package's fast paths.

``order_complex_homology`` computes the integral homology of a face poset
through its order complex (barycentric subdivision): a k-simplex is a chain
of k+1 cells ordered by strict containment, with the simplicial boundary.
It needs no orientation of the cells, so it checks the cellular homology of
``PolytopeComplex.homology`` independently.  The chain count grows fast
(716 simplices for the 38 cells of the flower:5 relative complex), so keep
it to small complexes.
"""

from multicurve.linalg import homology_from_boundaries


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
