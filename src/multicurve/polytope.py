"""Face lattice of the coloring cone and the boundary polytope complexes.

The closure of the coloring cone in R^E is cut out by the corner
functionals u_theta >= 0, so its faces are exactly the zero sets of corner
subsets.  A face is an int bitmask of the extremal rays (simple barbell
colorings) it contains, bit i = ray i.  The cone lattice files its faces
by dimension and then by mask value, and a relative-complex cell keeps its
ray mask as its key.  Both face families are swept by ``_graded_sweep``
(Kaibel-Pfetsch 2002) from their top faces down by the candidate facets
{rays with u_theta = 0}; the cone lattice is the product of its ray
blocks' lattices (Ziegler 1995), codimensions adding.  The cone is
full-dimensional and pointed in R^E, E the number of edges (the all-twos
coloring has every corner coordinate 1, folded triangles included, and
colorings are non-negative), so every grading of its faces reaches the
apex at codimension E (Ziegler 1995, sec. 2.1), which each sweep checks.
Slicing by the degree hyperplane turns a cone face of dimension k into a
polytope cell of dimension k-1.  Each dimension is sorted by mask, and a
polytope complex numbers its cells in that filing order, holding
dimensions, facets and labels by number: its homology columns, JSON ids
and exported vertices.

The relative complex K keeps the faces holding no peripheral through-face
t_p, the smallest face holding the peripheral vector a_p.  By the corner
rule, F holds no t_p iff for every puncture p a candidate facet of a
corner at p holds F.  For u_theta(a_p) is 1 at the corners of p and 0
elsewhere: such a candidate misses a_p; if there is none, every u_theta at
p is positive inside F, so a point x there scaled to be >= 1 at each of
them has x - a_p in the cone, and F, holding x = a_p + (x - a_p), holds
a_p.  By the structure theory K is a sphere, certified here by
pseudomanifold + integral homology, connectivity read off b_0 (a homology
sphere for d >= 3, genuine homeomorphism in dimensions <= 2).  The
homology is cellular, with the +-1 incidences of a regular CW complex read
off the facets alone, and taken by collapse where K collapses, one top
cell removed, to a vertex (``PolytopeComplex.homology``).
"""

from collections import Counter, deque
from itertools import accumulate

from .barbell import _barbells, _bits
from .coloring import (
    Coloring,
    corners_unchecked,
    is_admissible,
    require_admissible,
)
from .errors import EmptyComplex, EmptyRelativeComplex
from .linalg import homology_from_boundaries, integer_rank
from .triangulation import connected, flip, flip_square_sides


class ConeFaceLattice:
    """Faces of the coloring cone, int masks of their extremal rays (bit i =
    ray i), filed in ``faces_by_dim`` by dimension and then by mask value,
    built from the rays and candidate facets ``corner_rays`` of
    ``_cone_rays``."""

    def __init__(self, rays, corner_rays):
        self.rays = list(rays)                 # Coloring objects
        self.faces_by_dim = [[]]               # dimension -> ray masks
        if self.rays:
            self.faces_by_dim = _block_product(self.rays, corner_rays)

    @property
    def faces(self):                           # a new list, by dimension
        return [f for fs in self.faces_by_dim for f in fs]

    @property
    def dimension(self):
        return len(self.faces_by_dim) - 1

    def faces_of_dim(self, d):
        return list(self.faces_by_dim[d]) if 0 <= d <= self.dimension else []

    def __repr__(self):
        return (f"ConeFaceLattice(rays={len(self.rays)}, "
                f"faces={sum(map(len, self.faces_by_dim))}, "
                f"dim={self.dimension})")


def _block_product(rays, corner_rays):
    """Ray masks of the cone's faces, one sorted list per dimension, apex
    first: the product over the ray blocks of the candidate facets
    ``corner_rays``, rays sharing a block when a candidate misses both, the
    apex checked at codimension E."""
    full = (1 << len(rays)) - 1
    candidates = set(corner_rays)
    blocks = []                                # disjoint ray masks
    for miss in {full & ~cand for cand in candidates}:
        for block in [b for b in blocks if b & miss]:
            blocks.remove(block)
            miss |= block
        blocks.append(miss)
    product = [[full & ~sum(blocks)]]          # codimension -> ray masks
    for block in sorted(blocks, key=int.bit_count):  # small ones first
        grades = _graded_sweep({block: 0}, {c & block for c in candidates})
        merged = [[] for _ in range(len(product) + len(grades) - 1)]
        for c, fs in enumerate(product):
            for e, gs in enumerate(grades):    # a product adds codimensions
                merged[c + e].extend(f | g for f in fs for g in gs)
        product = merged
    _check_edges(rays, "apex codimension", len(product) - 1)
    for fs in product:
        fs.sort()                              # in place: no sorted copies
    return product[::-1]


def _check_edges(rays, what, value):
    """``value``, the cone's ``what``, checked against E, a ray's length."""
    edges = len(rays[0].values)
    if value != edges:
        raise ValueError(f"{what} is {value}, not E = {edges}")


def _graded_sweep(roots, cuts):
    """The masks reached from ``roots`` (mask -> codimension) by ``& cut``,
    one list per codimension.

    Masks are swept by decreasing bit count: a proper h = F & C has fewer
    bits than F, so its codimension, one more than the largest among the
    masks covering it, is final before h is cut; a root below another root
    is raised the same way.  The cost is masks reached times cuts.
    """
    codim = dict(roots)
    buckets = [[] for _ in range(max(map(int.bit_count, roots)) + 1)]
    for root in roots:                         # by bit count
        buckets[root.bit_count()].append(root)
    for bucket in reversed(buckets):
        for mask in bucket:
            below = codim[mask] + 1
            for cut in cuts:
                h = mask & cut
                if h == mask:
                    continue
                seen = codim.get(h)
                if seen is None:
                    codim[h] = below
                    buckets[h.bit_count()].append(h)
                elif below > seen:
                    codim[h] = below
    grades = [[] for _ in range(max(codim.values()) + 1)]
    for mask, c in codim.items():
        grades[c].append(mask)
    return grades


def _named(key):
    """A cell key as messages print it: an int ray mask as its ray ids."""
    return _bits(key) if isinstance(key, int) else key


def _cone_rays(tri):
    """Extremal rays of the coloring cone, the value tuples of
    ``_barbells`` stopped at two bells (admissible by construction; no
    barbell tree is built and no set of three bells is listed), and the
    candidate facets: for each corner theta, the mask of the rays with
    u_theta = 0."""
    rays = [Coloring(tri, values)
            for values, _bells, _chain in _barbells(tri, 2)]
    columns = zip(*(corners_unchecked(tri, r.values) for r in rays))
    return rays, [sum(1 << i for i, u in enumerate(col) if u == 0)
                  for col in columns]


def cone_face_lattice(tri):
    return ConeFaceLattice(*_cone_rays(tri))


class PolytopeComplex:
    """Ranked face poset of a polytope complex, stored as its Hasse diagram.

    Built from cells already numbered: ``keys``, one sorted key list per
    dimension 0..top, numbers them in that order, ``facets`` gives each its
    facet numbers, strictly increasing, refused by ``homology()`` otherwise,
    and ``labels`` maps numbers to labels (the ray colorings of vertices).
    So nothing is sorted or looked up here; a poset that is not regular CW
    is refused by ``homology()`` too.  Cell c has key ``order[c]`` and
    dimension ``cells[c]``, and c is its homology column, JSON id and
    exported vertex; ``cells_of_dim(d)`` runs from ``start[d]``.  Error
    messages name a cell by its key, an int key (a ray mask) as its sorted
    ray ids, so mask 5 reads (0, 2).
    """

    def __init__(self, keys, facets, labels):
        self.order = [k for ks in keys for k in ks]
        self.cells = [d for d, ks in enumerate(keys) for _ in ks]
        self.facets = facets
        self.labels = labels
        self.start = [0, *accumulate(map(len, keys))]
        self.dimension = len(keys) - 1
        self._homology = None

    def __len__(self):
        return len(self.cells)

    def cells_of_dim(self, d):
        if not 0 <= d <= self.dimension:
            return range(0)
        return range(self.start[d], self.start[d + 1])

    def boundary_cells(self, c):
        """Immediate (codimension-1) faces of a cell."""
        return self.facets[c]

    def f_vector(self):
        return tuple(b - a for a, b in zip(self.start, self.start[1:]))

    def is_connected(self):
        return bool(self.cells) and connected(
            range(len(self.cells)),
            ((c, f) for c, facets in enumerate(self.facets) for f in facets))

    # -- cellular homology from the face poset ------------------------------

    def _incidences(self):
        """Incidence numbers [c:f] = +-1, one dict {f: sign} per cell c.

        Cells are oriented dimension by dimension: an edge runs from its
        first vertex to its second; a k-cell (k >= 2) gives its first facet
        +1 and crosses each ridge r from a facet f to the other facet g with
        the diamond rule [c:g] = -[c:f][f:r][g:r], so the boundary of a
        boundary vanishes.  Raises ``ValueError`` naming the cell by its key
        when the poset is not that of a regular CW complex.
        """
        def key(c):
            return _named(self.order[c])
        incidence = []
        for c, k in enumerate(self.cells):
            facets = self.facets[c]
            owners, last = {}, -1              # ridge -> facets holding it
            for f in facets:
                if self.cells[f] != k - 1:
                    raise ValueError(
                        f"facet {key(f)!r} of {k}-cell {key(c)!r} has "
                        f"dimension {self.cells[f]}, not {k - 1}")
                if f <= last:
                    raise ValueError(f"facets of {k}-cell {key(c)!r} do not "
                                     f"strictly increase at {key(f)!r}")
                last = f
                for r in incidence[f]:
                    owners.setdefault(r, []).append(f)
            if k == 1 and len(facets) != 2:
                raise ValueError(
                    f"edge {key(c)!r} has {len(facets)} vertices, not 2")
            if k >= 2 and not facets:
                raise ValueError(f"{k}-cell {key(c)!r} has no facets")
            for r, fs in owners.items():
                if len(fs) != 2:
                    raise ValueError(
                        f"ridge {key(r)!r} of {k}-cell {key(c)!r} lies in "
                        f"{len(fs)} of its facets, not 2")
            signs = dict(zip(facets, (1, -1) if k == 1 else (1,)))
            stack = list(signs)
            while stack:
                f = stack.pop()
                for r, sign_fr in incidence[f].items():
                    a, b = owners[r]
                    g = b if a == f else a
                    sign = -signs[f] * sign_fr * incidence[g][r]
                    if g not in signs:
                        signs[g] = sign
                        stack.append(g)
                    elif signs[g] != sign:
                        raise ValueError(f"{k}-cell {key(c)!r} is not "
                                         f"orientable across ridge {key(r)!r}")
            if len(signs) != len(facets):      # facets are distinct
                f = next(f for f in facets if f not in signs)
                raise ValueError(f"facet {key(f)!r} of {k}-cell {key(c)!r}"
                                 " is not reached across its ridges")
            incidence.append(signs)
        return incidence

    def _collapses(self):
        """Whether elementary collapses take the complex, its last cell (with
        no coface) removed, down to one cell: a FIFO queue holds the faces a
        with one alive coface b, and (a, b) goes when b has none itself.  A
        cell keeps the count and XOR of its alive cofaces' numbers; a removed
        coface XORs itself out (x ^ x = 0), so b is xor[a]."""
        alive = [0] * len(self.cells)          # alive cofaces; -1: removed
        xor = [0] * len(self.cells)            # XOR of the alive cofaces
        for c, facets in enumerate(self.facets):
            for f in facets:
                alive[f] += 1
                xor[f] ^= c
        queue = deque()

        def remove(c):
            alive[c] = -1
            for f in self.facets[c]:
                alive[f] -= 1
                xor[f] ^= c
                if alive[f] == 1:
                    queue.append(f)
        remove(len(self.cells) - 1)
        while queue:
            a = queue.popleft()
            if alive[a] == 1 and alive[xor[a]] == 0:
                remove(xor[a])
                remove(a)
        return alive.count(-1) == len(alive) - 1   # all but one removed

    def homology(self):
        """Integral cellular homology, one (betti, torsion) pair per
        dimension 0..top.

        The chain groups are spanned by the cells and the boundary map of
        dimension k is given by its columns, the incidence dicts {facet: sign}
        of ``_incidences`` of the k-cells, which first checks that the poset is
        that of a regular CW complex.  When ``_collapses`` holds, it is that of
        S^d, d the dimension of the removed last cell s, padded with zeros to
        the top: each removed pair (a, b) has [b:a] = +-1, so it splits the
        acyclic summand Z.b -> Z.a off the chain complex, and K - s has the
        homology of a point.  The exact sequence of (K, K - s), whose relative
        chains are Z.s in dimension d as s has no coface, gives b_d = 1,
        b_0 = 1 + [d = 0] and nothing else.  Otherwise the Smith form of the
        boundary maps gives it.  Computed once per complex (complexes are not
        mutated after construction); every call returns a fresh copy.
        """
        if not self.cells:
            raise EmptyComplex("homology of an empty complex")
        if self._homology is None:
            incidence = self._incidences()
            d = self.cells[-1]
            self._homology = (
                [((k == 0) + (k == d), []) for k in range(self.dimension + 1)]
                if self._collapses() else homology_from_boundaries(
                    {k: [incidence[c] for c in self.cells_of_dim(k)]
                     for k in range(1, self.dimension + 1)},
                    list(self.f_vector())))
        return [(b, list(tors)) for b, tors in self._homology]

    def to_json_dict(self):
        cells = []
        for c, k in enumerate(self.cells):
            cell = {"id": c, "dim": k, "boundary": self.facets[c]}
            if c in self.labels:
                cell["rays"] = self.labels[c]
            cells.append(cell)
        return {"dimension": self.dimension, "f_vector": list(self.f_vector()),
                "cells": cells}


def relative_complex(tri):
    """Union of the slice-polytope faces avoiding every peripheral vector.

    The through-face t_p of the peripheral vector a_p is the smallest face
    holding it, and a face holds a_p iff it contains t_p, so the kept faces,
    those containing none of the n through-faces, form a down-set.  By the
    corner rule (module docstring) a face is kept iff each puncture has a
    corner whose candidate facet, one ray mask per corner from ``_cone_rays``,
    holds it.  So the maximal kept faces, the roots, are the maximal ANDs of
    one candidate per puncture, and one sweep by the candidates reaches the
    rest.  Each root is taken as a top cell of cone codimension n (K is pure of
    dimension E - 1 - n), which only the rank of the rays bounds, so the rank
    and the apex's codimension are checked against E.  The apex dropped, a face
    of codimension c is a cell of dimension E - c - 1.  The cells of a
    dimension are numbered by mask, so a cell's facets, its intersections with
    the candidates one dimension down, are looked up in that dimension alone.
    Empty exactly for (g,n) = (0,3), whose one root is the apex.
    """
    rays, corner_rays = _cone_rays(tri)
    roots = [(1 << len(rays)) - 1]
    for corners in tri.vertices:               # one candidate per puncture
        cut = sorted({r & corner_rays[c] for r in roots for c in corners},
                     key=int.bit_count, reverse=True)
        roots = []
        for h in cut:                          # masks above h came first
            if all(h & r != h for r in roots):
                roots.append(h)
    cands = set(corner_rays)
    grades = _graded_sweep(dict.fromkeys(roots, tri.punctures), cands)
    _check_edges(rays, "apex codimension", len(grades) - 1)
    _check_edges(rays, "rays' rank", integer_rank([r.values for r in rays]))
    keys = grades[tri.punctures:-1][::-1]      # by dimension, apex dropped
    if not keys:
        raise EmptyRelativeComplex(
            f"relative complex of (g,n)=({tri.genus},{tri.punctures}) "
            "came out empty")
    for hs in keys:
        hs.sort()
    facets, below = [], {}                     # below: one dimension down
    for hs in keys:
        facets.extend(sorted(below[f] for f in {h & c for c in cands}
                             if f in below) for h in hs)
        below = {h: c for c, h in enumerate(hs, len(facets) - len(hs))}
    return PolytopeComplex(
        keys, facets,
        {c: [list(rays[h.bit_length() - 1].values)]
         for c, h in enumerate(keys[0])})


class SphereCertificate:
    """Result of the three sphere checks on a polytope complex."""

    def __init__(self, dim, connected, pseudomanifold, homology_matches,
                 betti, torsion_free):
        self.dim = dim
        self.connected = connected
        self.pseudomanifold = pseudomanifold
        self.homology_matches = homology_matches
        self.betti = tuple(betti)
        self.torsion_free = torsion_free

    @property
    def granted(self):
        # the S^d homology fixes b_0: one component for d >= 1, two points
        # for d = 0, so connectivity needs no term of its own
        return (self.pseudomanifold and self.homology_matches
                and self.torsion_free)

    @property
    def statement(self):
        if not self.granted:
            return "certificate refused"
        if self.dim >= 3:
            return (f"certified homology {self.dim}-sphere (connectivity + "
                    "pseudomanifold + integral homology); homeomorphism is "
                    "not certified in dimension >= 3")
        return f"certified {self.dim}-sphere"

    def to_json_dict(self):
        return {
            "dim": self.dim,
            "connected": self.connected,
            "pseudomanifold": self.pseudomanifold,
            "homology_matches_sphere": self.homology_matches,
            "betti": list(self.betti),
            "torsion_free": self.torsion_free,
            "granted": self.granted,
            "statement": self.statement,
        }


def sphere_certificate(cpx, d):
    """Connectivity, pseudomanifold and S^d-homology checks; connectivity
    is read from b_0."""
    pseudo = cpx.dimension == d
    if pseudo:
        cofaces = Counter(f for c in cpx.cells_of_dim(d)
                          for f in cpx.facets[c])
        pseudo = all(cofaces[r] == 2 for r in cpx.cells_of_dim(d - 1))
    hom = cpx.homology()
    betti = [b for b, _tors in hom]
    torsion_free = all(not tors for _b, tors in hom)
    # S^d has b_0 = 1 + [d = 0], b_d = 1 and no other homology; a d above
    # the complex's dimension is refused without a d-long list
    matches = 0 <= d <= cpx.dimension and betti == [
        (i == 0) + (i == d) for i in range(len(betti))]
    return SphereCertificate(d, betti[0] == 1, pseudo, matches, betti,
                             torsion_free)


def mutation_transfer(tri, e, v):
    """Carry an admissible coloring across the flip at edge e.

    Off the flipped edge the coloring is unchanged (edge indices are
    preserved by ``flip``); on it the tropical exchange rule
    ``v_e' = max(v_a + v_c, v_b + v_d) - v_e`` applies, with (a,c) and
    (b,d) the two pairs of opposite sides of the square.  The map is a
    bijection onto the flipped triangulation's admissible colorings and is
    its own inverse across the reverse flip.
    """
    values = list(require_admissible(tri, v))
    a, c, b, d = flip_square_sides(tri, e)
    flipped = flip(tri, e)
    values[e] = max(values[a] + values[c], values[b] + values[d]) - values[e]
    out = Coloring(flipped, values)
    if not is_admissible(flipped, out):
        raise ValueError("transfer produced an inadmissible coloring")
    return out
