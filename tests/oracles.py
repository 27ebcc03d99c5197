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
dimensions of ``ConeFaceLattice`` with linear algebra.  Its faces are
frozensets of ray ids, while the lattice's faces and the cell keys of
``relative_complex`` are int ray masks, so they are compared by content.
``rank_relative_complex`` rebuilds the relative complex from it with the
vanishing-corner filter and covers found by pairwise inclusion, and hands
back its cells and facets keyed by ray mask; it checks the corner rule
and the facets of ``relative_complex``.
``closure_face_lattice`` is the two-pass build on int ray masks: it folds
the candidate facets from the corner vectors it is given (``corner_vectors``
of the rays, by ``corner_coords``), closes them under intersection level by
level, then grades the faces, sorted by (ray count, mask), from the apex
up, a face's dimension one more than the largest among its intersections
with the candidates; it sees no blocks and no ``_cone_rays`` masks, so it
checks the block-by-block sweep and product of ``ConeFaceLattice`` face for
face.  ``faces_by_dimension`` files either oracle's faces as
``ConeFaceLattice.faces_by_dim`` does, by dimension and then by mask.

``walk_relative_complex`` walks the kept faces of the relative complex up
from the apex, one cover at a time, on the corner side: the covers of a
face F are the faces H_r spanned by F and one more ray r that every ray of
H_r - F spans, found by cutting F's corner mask by r's zero set.  It sees
no roots and shares only the rays with ``relative_complex`` (its corner
tables come from ``corner_coords``, its through-faces from the peripheral
colorings), which takes its cells by the corner rule, in one sweep down
from the maximal ANDs of one candidate facet per puncture, so it checks
the cells, facets, labels and order of that sweep against the
through-face definition.

``keyed_complex`` numbers a poset given by keys, as the hand-built
complexes of the tests and the walk give it, by sorting its cells by
(dimension, key), and hands the numbered cells to ``PolytopeComplex``; the
package numbers the cells of ``relative_complex`` by dimension and mask
as its sweep files them, so the walk checks that filing order against a
sort.

``in_rational_cone`` decides membership in the rational cone of the simple
barbell colorings by an exact phase-one simplex (``rational_feasible``),
which checks the generators independently of the lattice.

``corner_row_rays`` finds the extremal rays of the coloring cone by vertex
enumeration on its doubled corner rows: every E - 1 distinct rows with a
one-dimensional null space give a primitive vector, kept when it or its
negative is nonnegative on every row and doubled when not admissible.  It
sees no dual graph, cycles or barbells, so it checks the rays of
``_cone_rays`` independently.  It tries every (E - 1)-subset of the rows,
so keep it to E = 6.

``dense_smith_diagonal`` is the dense Smith normal form that scans the
whole matrix for the pivot of least absolute value at every step; it checks
the sparse elimination behind ``smith_normal_form_diagonal``.  Keep it to a
few hundred rows.

``subset_scan_barbell_trees`` is the exhaustive barbell enumeration: for
every set of vertex-disjoint bells it tries every subset of the other
non-loop dual edges as the 2-colored chain, and keeps the subsets whose
non-bell vertices have degree 2 or 3 and which become a tree once each bell
is contracted; it raises ``ValueError`` if a tree's ``simple`` flag is not
what counting its chain degrees says.  It reads each edge's two triangles
off ``side_edges`` (``conftest.side_triangles``), not ``dual_edges``, lists
the bells by ``side_cycles`` and the bell sets by its own recursion
(``_disjoint_bell_sets``), and imports nothing from ``barbell`` but
``BarbellTree``, so it checks the cycle search, the bell-set stack and the
mask path search of ``barbell._barbells`` and the ``simple`` property.  It
costs 2^|E| per bell set, so keep it to about ten triangles.

``side_cycles`` lists the simple cycles of the dual graph as the connected
edge subsets in which every triangle meets 0 or 2 edge-ends, a loop
counting twice, again read off ``side_triangles``; it checks
``barbell._cycles``.

``fricke_traces`` and ``fricke_cubic`` evaluate the negative traces of
three 2x2 matrices and the Fricke cubic of the four-punctured sphere by
plain ring arithmetic on the entries (Fraction, int, complex or numpy
arrays alike), with no denominators cleared and no determinant check; they
check ``quadric.fricke_trace_coordinates``, ``fricke_verify`` and
``z_relation_verify`` value for value on Fraction maps, as numerators over
L = (D1 D2 D3)^3 on integer maps, and bit for bit on float maps.

``fraction_param_sweep`` and ``fraction_fricke_sweep`` are the exact
``param check`` and ``param fricke`` sweeps on ``Fraction`` values, drawn
by their own Fraction samplers (``fraction_rational``, ``fraction_point``,
``fraction_mobius``: two ``randint`` calls per rational, zeros redrawn);
their failure counts and the generator state they leave check the
integer-representative sweeps of ``cli`` and the integer draws of
``quadric`` behind them.

``port_matching_components`` traces strand cycles by first matching every
strand end (port) inside every triangle in one dictionary, then walking
the matching; it checks the corner-count stepping of
``trace_components``.  Both it and ``table_trace`` tag a cycle peripheral
at p by looking its counts up in a table of the loops a_p, each counting
the edge-ends at p (``endpoint_peripheral_values``); this checks the
first-corner test of ``tracing._trace`` and the corner listing of
``coloring.peripheral_edges``.

``index_order_admissible`` is the depth-first search over admissible
colorings that assigns the edges in index order, and
``triangle_check_indecomposables`` is the sieve on it that tests every
c - g against the triangle conditions; they check the triangle-walk order
of ``admissible_values`` and the set lookup of ``indecomposables``.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul

from conftest import edge_endpoints, is_loop, side_triangles

from multicurve import (
    BarbellTree,
    Coloring,
    MobiusMap,
    ProjectivePoint,
    TracedComponent,
    conic_from_beta,
    corner_coords,
    equivariance_check,
    evaluate_F,
    fricke_verify,
    gamma_involution,
    is_admissible,
    peripheral_colorings,
    quadric_point,
    tracing,
)
from multicurve.coloring import (
    checkable_triangles,
    require_admissible,
    triangles_ok,
)
from multicurve.errors import EmptyRelativeComplex
from multicurve.polytope import PolytopeComplex, _cone_rays, _named
from multicurve.triangulation import connected, slot_id
from multicurve.linalg import homology_from_boundaries, integer_rank
from multicurve.quadric import quadric_identity_residuals


def _bits(mask):
    """Positions of the set bits of ``mask``, in increasing order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _zeros(values):
    """Bitmask of the zero entries of ``values``."""
    return sum(1 << i for i, x in enumerate(values) if x == 0)


def corner_vectors(rays):
    """The corner vector of each ray (a Coloring), by ``corner_coords``."""
    return [corner_coords(ray.tri, ray) for ray in rays]


def corner_masks(vectors):
    """For each corner, the mask of the rays whose corner vector is zero
    there: the candidate facets."""
    return [_zeros(col) for col in zip(*vectors)]


def _rays_on(corner_rays, corners, full):
    """Ray mask of the face cut out by a corner mask: the rays vanishing on
    every corner in it (all rays for no corner)."""
    rays = full
    while corners and rays:
        low = corners & -corners
        rays &= corner_rays[low.bit_length() - 1]
        corners ^= low
    return rays


def keyed_complex(cells, facets, labels=None):
    """``PolytopeComplex`` of a poset given by keys: ``cells`` (key ->
    dimension), ``facets`` (key -> the keys one dimension lower that it
    covers, none if absent) and vertex ``labels`` (key -> label).

    The cells are numbered by (dimension, key), so the keys of one
    dimension must be mutually orderable.  Raises ``ValueError`` naming the
    key when a key of ``facets`` or ``labels``, or a facet, is not a cell.
    """
    order = sorted(cells, key=lambda k: (cells[k], k))
    number = {k: c for c, k in enumerate(order)}
    keys = [[] for _ in range(cells[order[-1]] + 1 if order else 0)]
    for k in order:
        keys[cells[k]].append(k)
    numbered = [[] for _ in order]
    try:
        for k, fs in facets.items():
            numbered[number[k]] = sorted(number[f] for f in fs)
        labels = {number[k]: v for k, v in (labels or {}).items()}
    except KeyError as err:
        name = _named(err.args[0])
        raise ValueError(f"key or facet {name!r} is not a cell") from None
    return PolytopeComplex(keys, numbered, labels)


def mask_of(ray_ids):
    """Int ray mask (bit i = ray i) of a collection of ray ids."""
    return sum(1 << i for i in ray_ids)


def order_complex_chains(cells, facets):
    """All chains of the face poset with ``cells`` (key -> dimension) and
    ``facets`` (key -> facet keys), grouped by length - 1."""
    order = sorted(cells, key=cells.get)    # facets before their cofaces
    below = {}
    above = {k: [] for k in order}
    for k in order:
        below[k] = set(facets[k]).union(*(below[f] for f in facets[k]))
        for b in below[k]:
            above[b].append(k)
    chains = {0: [(k,) for k in order]}
    level = 0
    while chains[level]:
        chains[level + 1] = [chain + (k,) for chain in chains[level]
                             for k in above[chain[-1]]]
        level += 1
    del chains[level]
    return chains


def order_complex_homology(cells, facets):
    """(betti, torsion) per dimension 0..top of a keyed face poset, via the
    order complex."""
    chains = order_complex_chains(cells, facets)
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
    while len(result) < max(cells.values()) + 1:
        result.append((0, []))
    return result


def num_simplices(cells, facets):
    return sum(len(c) for c in order_complex_chains(cells, facets).values())


def rank_face_lattice(lattice):
    """(faces, face_dim, face_corners) of a cone face lattice, rebuilt
    independently: faces by folding in one candidate facet at a time,
    dimensions as the rank of each face's rays, and vanishing corners as
    those zero on every ray of the face."""
    vectors = corner_vectors(lattice.rays)
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


def faces_by_dimension(face_dim):
    """The faces of a {face: dimension} map, one mask-sorted list per
    dimension 0..top."""
    grouped = [[] for _ in range(max(face_dim.values(), default=0) + 1)]
    for face, d in face_dim.items():
        grouped[d].append(face)
    return [sorted(faces) for faces in grouped]


def closure_face_lattice(rays, vectors):
    """(faces, face_dim) of the cone with these rays and corner vectors:
    the faces as int ray masks in (ray count, mask) order, each graded by
    the intersections below it."""
    if not rays:
        return [], {}
    candidates = set(corner_masks(vectors))
    faces = {(1 << len(rays)) - 1}
    frontier = list(faces)
    while frontier:
        new = []
        for face in frontier:
            for cand in candidates:
                inter = face & cand
                if inter not in faces:
                    faces.add(inter)
                    new.append(inter)
        frontier = new
    order = sorted(faces, key=lambda f: (f.bit_count(), f))
    # Graded lattice: every facet of F is F & C for a candidate C not
    # containing F, and every other such F & C lies in a facet of F.
    dims = {}
    for face in order:
        dims[face] = 1 + max((dims[face & cand] for cand in candidates
                              if face & cand != face), default=-1)
    return order, dims


def rank_relative_complex(tri, lattice):
    """(cells, facets) of the relative complex of ``tri``, rebuilt from
    ``rank_face_lattice``: a face is kept iff every peripheral vector is
    positive on one of its vanishing corners, and the facets of a kept face
    are the kept faces inside it one dimension down.  Both are keyed by
    ray mask, as ``relative_complex`` keys its cells."""
    faces, face_dim, face_corners = rank_face_lattice(lattice)
    peripheral_u = [corner_coords(tri, p) for p in peripheral_colorings(tri)]
    kept = [f for f in faces if face_dim[f] >= 1 and all(
        any(u[theta] > 0 for theta in face_corners[f]) for u in peripheral_u)]
    cells = {mask_of(f): face_dim[f] - 1 for f in kept}
    facets = {mask_of(f): frozenset(
        mask_of(g) for g in kept if g < f and face_dim[g] == face_dim[f] - 1)
        for f in kept}
    return cells, facets


def walk_relative_complex(tri):
    """Union of the slice-polytope faces avoiding every peripheral vector.

    The through-face of a peripheral vector p is the smallest face holding
    it, and a face holds p iff it contains p's through-face, so the kept
    faces, those containing none of the n through-faces, form a down-set.
    It is walked up from the apex: of the faces H_r spanned by a face F and
    one more ray r, the covers of F are those that every ray of H_r - F
    spans (the minimal ones).  A kept cover's facets are the faces it was
    reached from and its depth is its cone dimension, checked against the
    rank of one top cell's rays.  Empty exactly for (g,n) = (0,3).
    """
    if (tri.genus, tri.punctures) == (0, 3):
        raise EmptyRelativeComplex(
            "the relative complex of the three-punctured sphere is empty")
    rays = _cone_rays(tri)[0]
    vectors = corner_vectors(rays)
    # each ray's mask of vanishing corners, each corner's of vanishing rays
    ray_zero = [_zeros(u) for u in vectors]
    corner_rays = corner_masks(vectors)
    full = (1 << len(rays)) - 1
    through = [_rays_on(corner_rays, _zeros(corner_coords(tri, p)), full)
               for p in peripheral_colorings(tri)]
    corners = {0: (1 << len(corner_rays)) - 1}     # ray mask -> corner mask
    ray_masks = {}                  # corner mask -> ray mask, many rays share
    depth = {0: 0}
    facets = {0: []}
    level = [0]
    while level:
        reached = []
        for face in level:
            hits = {}                       # H_r -> (rays giving it, corners)
            for r in _bits(full & ~face):
                z = corners[face] & ray_zero[r]
                h = ray_masks.get(z)
                if h is None:
                    h = ray_masks[z] = _rays_on(corner_rays, z, full)
                hits[h] = (hits[h][0] + 1 if h in hits else 1, z)
            for h, (count, z) in hits.items():
                if count != (h & ~face).bit_count() or any(
                        h & t == t for t in through):
                    continue
                if h not in depth:
                    depth[h] = depth[face] + 1
                    corners[h] = z
                    facets[h] = []
                    reached.append(h)
                facets[h].append(face)
        level = reached
    del depth[0]
    if not depth:
        raise EmptyRelativeComplex(
            f"relative complex of (g,n)=({tri.genus},{tri.punctures}) "
            "came out empty")
    top = max(depth, key=depth.get)
    rank = integer_rank([rays[i].values for i in _bits(top)])
    if rank != depth[top]:
        raise ValueError(f"walked depth {depth[top]} of a top cell differs "
                         f"from the rank {rank} of its rays")
    return keyed_complex(
        {h: d - 1 for h, d in depth.items()},
        {h: [f for f in facets[h] if f] for h in depth},
        {h: [list(rays[i].values) for i in _bits(h)]
         for h, d in depth.items() if d == 1})


def subset_scan_barbell_trees(tri):
    """All barbell trees of ``tri`` by scanning every chain subset, in the
    canonical (degree, coloring) order."""
    nedges = tri.num_edges
    ends = side_triangles(tri)
    cycles = side_cycles(tri)
    loops = {i for i in range(nedges) if is_loop(tri, i)}
    results = []
    for bell_ids in _disjoint_bell_sets(cycles):
        bells = [cycles[i] for i in bell_ids]
        bell_edges = set().union(*(b[0] for b in bells))
        bell_vertices = set().union(*(b[1] for b in bells))
        candidates = [i for i in range(nedges)
                      if i not in bell_edges and i not in loops]
        for size in range(len(candidates) + 1):
            for chain in combinations(candidates, size):
                if _valid_tree(ends, bells, bell_vertices, chain):
                    tree = _to_barbell(tri, bells, chain)
                    if tree.simple != _is_simple(ends, bells, bell_vertices,
                                                 chain):
                        raise ValueError(f"{tree}: simple flag disagrees "
                                         f"with chain degrees {chain}")
                    results.append(tree)
    results.sort(key=lambda b: (b.degree, b.coloring.values))
    return results


def side_cycles(tri):
    """Every simple cycle of the dual graph as (edge ids, triangles): the
    connected edge subsets in which each triangle meets 0 or 2 edge-ends,
    a loop counting twice.  Edges are decided in id order, and a triangle
    is checked once its last edge is decided."""
    ends = side_triangles(tri)
    last = {t: e for e, ts in enumerate(ends) for t in ts}
    degree = [0] * tri.triangle_count
    found = []

    def rec(e, chosen):
        if e == len(ends):
            verts = frozenset(t for i in chosen for t in ends[i])
            if chosen and connected(verts, [ends[i] for i in chosen]):
                found.append((tuple(chosen), verts))
            return
        for take in (0, 1):
            for t in ends[e]:
                degree[t] += take
            if all(degree[t] in (0, 2) if last[t] == e else degree[t] <= 2
                   for t in ends[e]):
                rec(e + 1, chosen + [e] * take)
            for t in ends[e]:
                degree[t] -= take

    rec(0, [])
    return found


def _disjoint_bell_sets(cycles):
    """Nonempty subsets of pairwise vertex-disjoint cycles."""
    result = []

    def rec(start, chosen, used_vertices):
        for i in range(start, len(cycles)):
            _edges, verts = cycles[i]
            if used_vertices & verts:
                continue
            picked = chosen + [i]
            result.append(picked)
            rec(i + 1, picked, used_vertices | verts)

    rec(0, [], set())
    return result


def _to_barbell(tri, bells, chain):
    values = [0] * tri.num_edges
    for edges, _verts in bells:
        for i in edges:
            values[i] = 1
    for i in chain:
        values[i] = 2
    return BarbellTree([b[0] for b in bells], chain, Coloring(tri, values))


def _is_simple(ends, bells, bell_vertices, chain):
    """One bell with no chain, or two bells joined by a chain whose
    non-bell vertices all have degree 2."""
    if len(bells) == 1:
        return not chain
    if len(bells) != 2:
        return False
    counts = Counter(v for i in chain for v in ends[i]
                     if v not in bell_vertices)
    return all(d == 2 for d in counts.values())


def _valid_tree(ends, bells, bell_vertices, chain):
    degree = {}
    for i in chain:
        a, b = ends[i]
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
    # each bell's vertices are joined to its least one
    return connected(bell_vertices | steiner,
                     [(min(b[1]), v) for b in bells for v in b[1]]
                     + [ends[i] for i in chain])


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


def corner_row_rays(tri):
    """Minimal admissible points on the extremal rays of the coloring cone,
    by vertex enumeration: of the distinct doubled corner rows (2 u_theta =
    b + c - a on a triangle with sides a, b, c), every E - 1 of them with a
    one-dimensional null space give a ray if a primitive null vector or its
    negative meets every row nonnegatively; it is doubled when not
    admissible (an odd triangle sum)."""
    nedges = tri.num_edges
    rows = set()
    for sides in tri.side_edges:
        for k in range(3):
            row = [0] * nedges
            row[sides[k]] -= 1
            row[sides[k - 1]] += 1
            row[sides[k - 2]] += 1
            rows.add(tuple(row))
    rays = set()
    for subset in combinations(sorted(rows), nedges - 1):
        null = _null_vector(subset, nedges)
        if null is None:
            continue
        for v in (null, [-x for x in null]):
            if all(sum(map(mul, row, v)) >= 0 for row in rows):
                rays.add(tuple(v) if is_admissible(tri, v)
                         else tuple(2 * x for x in v))
    return rays


def _null_vector(rows, ncols):
    """The primitive integer spanning vector of the null space of ``rows``
    when it is one-dimensional, else None (Gauss-Jordan over Fractions)."""
    rows = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][col]),
                 None)
        if r is None:
            continue
        i = len(pivots)
        rows[i], rows[r] = rows[r], rows[i]
        rows[i] = [x / rows[i][col] for x in rows[i]]
        for j in range(len(rows)):
            if j != i and rows[j][col]:
                f = rows[j][col]
                rows[j] = [x - f * y for x, y in zip(rows[j], rows[i])]
        pivots.append(col)
    if len(pivots) != ncols - 1:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    v = [Fraction(c == free) for c in range(ncols)]
    for i, col in enumerate(pivots):
        v[col] = -rows[i][free]
    ints = [int(x * lcm(*(y.denominator for y in v))) for x in v]
    return [x // gcd(*ints) for x in ints]


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


def _point_index(tri, values, slot, e, pos_from_source):
    """Edge-point index of the point at ``pos_from_source`` on a slot
    carrying edge e.

    The canonical origin of an edge is the source of its lower slot, which
    the orientation-reversing gluing identifies with the target of the
    higher slot.
    """
    if slot == tri.edges[e][0]:
        return e, pos_from_source
    return e, values[e] - 1 - pos_from_source


def _arcs(tri, values):
    """Port-to-port matching of strand ends inside all triangles.

    A port is ((edge, point), slot): the end of the strand through that
    point on the side of the given slot.
    """
    u = corner_coords(tri, values)
    match = {}
    for t, sides in enumerate(tri.side_edges):
        for k in range(3):
            a = slot_id(t, (k + 1) % 3)   # corner at target of a
            b = slot_id(t, (k + 2) % 3)   # corner at source of b
            ea, eb = sides[(k + 1) % 3], sides[(k + 2) % 3]
            for c in range(1, u[slot_id(t, k)] + 1):
                na = _point_index(tri, values, a, ea, values[ea] - c)
                nb = _point_index(tri, values, b, eb, c - 1)
                match[(na, a)] = (nb, b)
                match[(nb, b)] = (na, a)
    return match


def port_matching_components(tri, v):
    """The strand cycles of an admissible coloring, in the order and form
    of ``trace_components``, by walking the port matching."""
    values = require_admissible(tri, v)
    match = _arcs(tri, values)
    peripherals = {p: i for i, p in
                   enumerate(endpoint_peripheral_values(tri))}

    nodes = [(e, i) for e in range(tri.num_edges) for i in range(values[e])]
    seen = set()
    components = []
    for start in nodes:
        if start in seen:
            continue
        cycle = []
        node = start
        slot = tri.edges[start[0]][0]
        while True:
            seen.add(node)
            cycle.append(node)
            node2, slot2 = match[(node, slot)]
            # cross edge at node2: continue through its other slot
            lo, hi = tri.edges[node2[0]]
            slot = hi if slot2 == lo else lo
            node = node2
            if node == start and slot == tri.edges[start[0]][0]:
                break
        counts = [0] * tri.num_edges
        for e, _i in cycle:
            counts[e] += 1
        comp_coloring = Coloring(tri, counts)
        components.append(TracedComponent(
            cycle, comp_coloring, peripherals.get(comp_coloring.values)))
    return components


def endpoint_peripheral_values(tri):
    """Value tuples of the loops a_p: a_p crosses each edge once per
    endpoint at p."""
    vectors = [[0] * tri.num_edges for _ in range(tri.punctures)]
    for e in range(tri.num_edges):
        for p in edge_endpoints(tri, e):
            vectors[p][e] += 1
    return [tuple(values) for values in vectors]


def table_trace(tri, values):
    """(cycle, counts, peripheral) of each strand cycle of
    ``tracing._trace``, tagged by looking the counts up in
    ``endpoint_peripheral_values``."""
    table = {loop: p for p, loop in
             enumerate(endpoint_peripheral_values(tri))}
    return [(cycle, counts, table.get(counts))
            for cycle, counts, _tag in tracing._trace(tri, values)]


def index_order_admissible(tri, max_degree):
    """Admissible value tuples of degree <= max_degree, in lexicographic
    order, by a depth-first search over the edges in index order."""
    nedges = tri.num_edges
    ready = checkable_triangles(tri, range(nedges))
    values = [0] * nedges

    def rec(e, budget):
        if e == nedges:
            yield tuple(values)
            return
        for x in range(budget + 1):
            values[e] = x
            if triangles_ok(ready[e], values):
                yield from rec(e + 1, budget - x)
        values[e] = 0

    return rec(0, max_degree)


def triangle_check_indecomposables(tri, max_degree):
    """The sieve over ``index_order_admissible``: c is kept unless c - g
    passes the triangle conditions for some g kept before it."""
    found = []
    for v in index_order_admissible(tri, max_degree):
        if any(v) and not any(
                triangles_ok(tri.side_edges, [a - b for a, b in zip(v, g)])
                for g in found):
            found.append(v)
    return found


def _mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h),
            (c * e + d * g, c * f + d * h))


def _trace(m):
    return m[0][0] + m[1][1]


def fricke_traces(b1, b2, b3):
    """(a1..a4, c12, c23, c13) = minus the traces of B_1, B_2, B_3,
    B_1 B_2 B_3, B_1 B_2, B_2 B_3 and B_1 B_3."""
    a = [-_trace(b) for b in (b1, b2, b3)]
    a.append(-_trace(_mul(_mul(b1, b2), b3)))
    return a, (-_trace(_mul(b1, b2)), -_trace(_mul(b2, b3)),
               -_trace(_mul(b1, b3)))


def fricke_cubic(a, c12, c23, c13):
    """|c12 c23 c13 - (c12^2 + c23^2 + c13^2 + f_{12|34} c12
    + f_{23|14} c23 + f_{13|24} c13 + f)|, term for term as written."""
    a1, a2, a3, a4 = a
    f_12_34 = a1 * a2 + a3 * a4
    f_23_14 = a2 * a3 + a1 * a4
    f_13_24 = a1 * a3 + a2 * a4
    f = a1 * a2 * a3 * a4 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 - 4
    lhs = c12 * c23 * c13
    rhs = (c12 * c12 + c23 * c23 + c13 * c13
           + f_12_34 * c12 + f_23_14 * c23 + f_13_24 * c13 + f)
    return abs(lhs - rhs)


def fraction_rational(rng, span, nonzero=False):
    while True:
        x = Fraction(rng.randint(-span, span), rng.randint(1, span))
        if x or not nonzero:
            return x


def fraction_point(rng):
    while True:
        x1, x2 = fraction_rational(rng, 6), fraction_rational(rng, 6)
        if x1 or x2:
            return ProjectivePoint(x1, x2)


def fraction_mobius(rng, span=4):
    a = fraction_rational(rng, span, nonzero=True)
    b, c = fraction_rational(rng, span), fraction_rational(rng, span)
    return MobiusMap(((a, b), (c, (1 + b * c) / a)))


def fraction_param_sweep(samples, rng):
    """Failed identities of the exact ``param check`` sweep on Fractions."""
    failures = 0
    for _ in range(samples):
        p, pt = fraction_point(rng), fraction_point(rng)
        rho = fraction_mobius(rng)
        cp = conic_from_beta(fraction_rational(rng, 6, nonzero=True))
        if not equivariance_check(rho, p, pt, cp):
            failures += 1
        det_r, tr_r = quadric_identity_residuals(quadric_point(p, pt, cp), cp)
        if det_r != 0 or tr_r != 0:
            failures += 1
        pts, cps = [p, pt], [cp]
        t_last = fraction_rational(rng, 6)
        f0 = evaluate_F(pts, cps, t_last)
        pts2, cps2 = gamma_involution(1, pts, cps)
        if evaluate_F(pts2, cps2, t_last) != f0:
            failures += 1
    return failures


def fraction_fricke_sweep(samples, rng):
    """Fraction map triples of the exact ``param fricke`` sweep off the
    Fricke cubic."""
    return sum(fricke_verify(*(fraction_mobius(rng) for _ in range(3))) != 0
               for _ in range(samples))
