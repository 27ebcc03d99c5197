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
``rank_relative_complex`` rebuilds the relative complex from it with the
vanishing-corner filter and covers found by pairwise inclusion, which
checks the through-face filter and the facets of ``relative_complex``.

``in_rational_cone`` decides membership in the rational cone of the simple
barbell colorings by an exact phase-one simplex (``rational_feasible``),
which checks the generators independently of the lattice.

``dense_smith_diagonal`` is the dense Smith normal form that scans the
whole matrix for the pivot of least absolute value at every step; it checks
the sparse elimination behind ``smith_normal_form_diagonal``.  Keep it to a
few hundred rows.

``subset_scan_barbell_trees`` is the exhaustive barbell enumeration: for
every set of vertex-disjoint bells it tries every subset of the other
non-loop dual edges as the 2-colored chain, and keeps the subsets whose
non-bell vertices have degree 2 or 3 and which become a tree once each bell
is contracted, and it tells simple barbells by counting chain degrees.  It
shares only the cycle and bell-set listing with ``enumerate_barbell_trees``,
so it checks the Steiner-tree growth and its ``simple`` flag.  It
costs 2^|E| per bell set, so keep it to about ten triangles.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd

from multicurve import Coloring, corner_coords, peripheral_colorings
from multicurve.barbell import (
    _cycles,
    _disjoint_bell_sets,
    _to_barbell,
    connected,
)
from multicurve.triangulation import DualGraph
from multicurve.linalg import homology_from_boundaries, integer_rank


def order_complex_chains(cpx):
    """All chains of the face poset of ``cpx``, grouped by length - 1."""
    below = {}
    above = {k: [] for k in cpx.order}
    for k in cpx.order:
        below[k] = set(cpx.facets[k]).union(*(below[f] for f in cpx.facets[k]))
        for b in below[k]:
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


def rank_relative_complex(tri, lattice):
    """(cells, facets) of the relative complex of ``tri``, rebuilt from
    ``rank_face_lattice``: a face is kept iff every peripheral vector is
    positive on one of its vanishing corners, and the facets of a kept face
    are the kept faces inside it one dimension down."""
    faces, face_dim, face_corners = rank_face_lattice(lattice)
    peripheral_u = [corner_coords(tri, p) for p in peripheral_colorings(tri)]
    kept = [f for f in faces if face_dim[f] >= 1 and all(
        any(u[theta] > 0 for theta in face_corners[f]) for u in peripheral_u)]
    cells = {f: face_dim[f] - 1 for f in kept}
    facets = {f: frozenset(g for g in kept
                           if g < f and face_dim[g] == face_dim[f] - 1)
              for f in kept}
    return cells, facets


def subset_scan_barbell_trees(tri):
    """All barbell trees of ``tri`` by scanning every chain subset, in the
    canonical (degree, coloring) order."""
    dual = DualGraph(tri)
    cycles = _cycles(dual)
    nedges = len(dual.edges)
    loops = {i for i in range(nedges) if dual.is_loop(i)}
    results = []
    for bell_ids in _disjoint_bell_sets(cycles):
        bells = [cycles[i] for i in bell_ids]
        bell_edges = set().union(*(b[0] for b in bells))
        bell_vertices = set().union(*(b[1] for b in bells))
        candidates = [i for i in range(nedges)
                      if i not in bell_edges and i not in loops]
        for size in range(len(candidates) + 1):
            for chain in combinations(candidates, size):
                if _valid_tree(dual, bells, bell_vertices, chain):
                    barbell = _to_barbell(tri, dual, bells, chain)
                    barbell.simple = _is_simple(dual, bells, bell_vertices,
                                                chain)
                    results.append(barbell)
    results.sort(key=lambda b: (b.degree, b.coloring.values))
    return results


def _is_simple(dual, bells, bell_vertices, chain):
    """One bell with no chain, or two bells joined by a chain whose
    non-bell vertices all have degree 2."""
    if len(bells) == 1:
        return not chain
    if len(bells) != 2:
        return False
    counts = Counter(v for i in chain for v in dual.edges[i]
                     if v not in bell_vertices)
    return all(d == 2 for d in counts.values())


def _valid_tree(dual, bells, bell_vertices, chain):
    degree = {}
    for i in chain:
        a, b = dual.edges[i]
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    steiner = set()
    for v, d in degree.items():
        # a bell vertex has one non-bell edge, so only others are checked
        if v not in bell_vertices:
            if d not in (2, 3):
                return False
            steiner.add(v)
    # contraction of the bells must be a tree
    if len(chain) != len(bells) + len(steiner) - 1:
        return False
    return connected([b[1] for b in bells] + [{v} for v in steiner],
                     [dual.edges[i] for i in chain])


def rational_feasible(columns, target):
    """Exact feasibility of ``sum_j x_j * columns[j] = target`` with x >= 0.

    Phase-one simplex over Fractions.  ``columns`` is a list of integer
    vectors, ``target`` an integer vector of the same length.  Returns
    True iff a nonnegative rational solution exists.
    """
    m = len(target)
    n = len(columns)
    if all(t == 0 for t in target):
        return True
    # tableau rows: [A | I | b], minimizing sum of artificials
    rows = []
    b = [Fraction(t) for t in target]
    for i in range(m):
        if b[i] < 0:
            row = [Fraction(-columns[j][i]) for j in range(n)]
            bi = -b[i]
        else:
            row = [Fraction(columns[j][i]) for j in range(n)]
            bi = b[i]
        rows.append(row + [Fraction(int(i == k)) for k in range(m)] + [bi])
    basis = [n + i for i in range(m)]
    total = n + m

    def objective_row():
        # cost of artificials is 1, others 0; reduced costs
        obj = [Fraction(0)] * (total + 1)
        for i in range(m):
            if basis[i] >= n:
                for j in range(total + 1):
                    obj[j] += rows[i][j]
        return obj

    while True:
        obj = objective_row()
        enter = None
        for j in range(total):  # Bland's rule: smallest entering index
            if obj[j] > 0 and j not in basis:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rows[i][total] / rows[i][enter]
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            break  # cannot happen in phase one; defensive
        pv = rows[leave][enter]
        rows[leave] = [x / pv for x in rows[leave]]
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[leave])]
        basis[leave] = enter

    residual = sum(rows[i][total] for i in range(m) if basis[i] >= n)
    return residual == 0


def in_rational_cone(simple_barbells, v):
    """Exact LP feasibility: is v a nonnegative rational combination of the
    simple barbell colorings?"""
    columns = [list(b.coloring.values) for b in simple_barbells]
    return rational_feasible(columns, list(v.values if isinstance(v, Coloring)
                                           else v))


def dense_smith_diagonal(rows):
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the list of nonzero invariant factors d_1 | d_2 | ... (all
    positive).  Only the diagonal is computed; the unimodular transforms
    are not tracked.
    """
    mat = [list(map(int, row)) for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    diag = []
    top = 0
    while top < m and top < n:
        # find pivot of smallest absolute value
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = mat[i][j]
                if v != 0 and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row in mat:
            row[top], row[bj] = row[bj], row[top]
        # clear row and column; restart if a reduction creates a smaller entry
        while True:
            pivot = mat[top][top]
            done = True
            for i in range(top + 1, m):
                if mat[i][top] != 0:
                    q = mat[i][top] // pivot
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][top] != 0:
                        # remainder is smaller than pivot; swap it up
                        mat[top], mat[i] = mat[i], mat[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(top + 1, n):
                if mat[top][j] != 0:
                    q = mat[top][j] // pivot
                    for row in mat:
                        row[j] -= q * row[top]
                    if mat[top][j] != 0:
                        for row in mat:
                            row[top], row[j] = row[j], row[top]
                        done = False
                        break
            if done:
                break
        diag.append(abs(mat[top][top]))
        top += 1
    # enforce divisibility d_k | d_{k+1}
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            a, b = diag[k], diag[k + 1]
            if b % a != 0:
                g = gcd(a, b)
                diag[k], diag[k + 1] = g, a * b // g
                changed = True
    return diag
