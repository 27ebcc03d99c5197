"""Face lattice of the coloring cone and the boundary polytope complexes.

The closure of the coloring cone in R^E is cut out by the corner
functionals u_theta >= 0, so its faces are exactly the zero sets of corner
subsets.  A face is an int bitmask of the extremal rays (simple barbell
colorings) it contains, or of the corners vanishing on it.  The cone
lattice files its faces, ray masks (bit i = ray i), by dimension and then
by mask value, and a relative-complex cell keeps its ray mask as its key.
Both face families come from one graded sweep (``_graded_sweep``,
Kaibel-Pfetsch 2002).  The cone lattice sweeps ray masks cut by the
candidate facets {rays with u_theta = 0} block by block: rays share a
block when some candidate misses both, so the lattice is the product of
the blocks' lattices (Ziegler 1995), codimensions adding.  A face's
dimension is the apex's codimension minus its own, and the rational rank
of all the rays checks the top dimension once.  Slicing by the degree
hyperplane turns a cone face of dimension k into a polytope cell of
dimension k-1.  A polytope complex numbers its cells once, by dimension
and then by key, and holds dimensions, facets and labels by number, the
one handle behind homology columns, JSON ids and exported vertices.

The relative complex keeps the faces containing no peripheral through-face
(the smallest face holding a peripheral vector), a down-set swept on the
corner side from the apex without the full lattice or the cuts of rays
that are through-faces themselves.  By the structure theory it is a
sphere, certified here by pseudomanifold + integral homology,
connectivity read off b_0 (a homology sphere for d >= 3, genuine
homeomorphism in dimensions <= 2).  The homology is cellular, with the +-1
incidences of a regular CW complex read off the facets alone.
"""

from bisect import bisect_left
from collections import Counter

from .barbell import enumerate_simple
from .coloring import (
    Coloring,
    corners_unchecked,
    is_admissible,
    peripheral_values,
    require_admissible,
)
from .errors import EmptyComplex, EmptyRelativeComplex
from .linalg import homology_from_boundaries, integer_rank
from .triangulation import connected, flip, flip_square_sides


class ConeFaceLattice:
    """Faces of the coloring cone, int masks of their extremal rays (bit i =
    ray i), filed in ``faces_by_dim`` by dimension and then by mask value."""

    def __init__(self, rays, corner_vectors):
        self.rays = list(rays)                 # Coloring objects
        self.corner_vectors = [tuple(u) for u in corner_vectors]
        self.faces_by_dim = [[]]               # dimension -> ray masks
        if not self.rays:
            return
        candidates = {_zeros(col) for col in zip(*self.corner_vectors)}
        full = (1 << len(self.rays)) - 1
        blocks = []                            # disjoint ray masks
        for miss in {full & ~cand for cand in candidates}:
            for block in [b for b in blocks if b & miss]:
                blocks.remove(block)
                miss |= block
            blocks.append(miss)
        product = [[full & ~sum(blocks)]]      # codimension -> ray masks
        for block in sorted(blocks, key=int.bit_count):  # small ones first
            part = _graded_sweep(block, {c & block for c in candidates},
                                 lambda face: True)
            grades = [[] for _ in range(max(part.values()) + 1)]
            for g, e in part.items():
                grades[e].append(g)
            del part                           # lower the merge's peak
            merged = [[] for _ in range(len(product) + len(grades) - 1)]
            for c, fs in enumerate(product):
                for e, gs in enumerate(grades):  # a product adds codimensions
                    merged[c + e].extend(f | g for f in fs for g in gs)
            product = merged
        for fs in product:
            fs.sort()                          # in place: no sorted copies
        self.faces_by_dim = product[::-1]
        rank = integer_rank([ray.values for ray in self.rays])
        if rank != self.dimension:
            raise ValueError(f"graded dimension {self.dimension} differs "
                             f"from the rank {rank} of the rays")

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


def _graded_sweep(top, cuts, keep):
    """Codimension of every mask reached from ``top`` by ``& cut``, cutting
    on only from the masks that ``keep`` accepts (``top`` is not asked).

    Masks are swept by decreasing bit count: a proper h = F & C has fewer
    bits than F, so its codimension, one more than the largest among the
    masks covering it, is final before h is cut.  A rejected mask gets the
    bucket count as a sentinel codimension, above every real one.  The
    cost is masks reached times cuts, hence blocks and skipped cuts.
    """
    codim = {top: 0}
    buckets = [[] for _ in range(top.bit_count())] + [[top]]  # by bit count
    for bucket in reversed(buckets):
        for mask in bucket:
            below = codim[mask] + 1
            for cut in cuts:
                h = mask & cut
                if h == mask:
                    continue
                seen = codim.get(h)
                if seen is None:
                    if keep(h):
                        codim[h] = below
                        buckets[h.bit_count()].append(h)
                    else:
                        codim[h] = len(buckets)
                elif below > seen:
                    codim[h] = below
    return codim


def _named(key):
    """A cell key as messages print it: an int ray mask as its ray ids."""
    return (tuple(i for i in range(key.bit_length()) if key >> i & 1)
            if isinstance(key, int) else key)


def _zeros(values):
    """Bitmask of the zero entries of ``values``."""
    return sum(1 << i for i, x in enumerate(values) if x == 0)


def _rays_on(corner_rays, corners, full):
    """Ray mask of the face cut out by a corner mask: the rays vanishing on
    every corner in it (all rays for no corner)."""
    rays = full
    while corners and rays:
        low = corners & -corners
        rays &= corner_rays[low.bit_length() - 1]
        corners ^= low
    return rays


def _cone_rays(tri):
    """Extremal rays of the coloring cone and their corner vectors (the
    enumerated rays are admissible by construction)."""
    rays = [b.coloring for b in enumerate_simple(tri)]
    return rays, [corners_unchecked(tri, r.values) for r in rays]


def cone_face_lattice(tri):
    return ConeFaceLattice(*_cone_rays(tri))


class PolytopeComplex:
    """Ranked face poset of a polytope complex, stored as its Hasse diagram.

    Built from ``cells`` (key -> dimension), ``facets`` (key -> the keys
    one dimension lower that it covers, none if absent) and vertex
    ``labels`` (ray colorings for cone complexes), all keyed by cells.
    The cells are numbered once, by dimension and then by key, so keys of
    one dimension must be mutually orderable; from then on cell c has
    dimension ``cells[c]``, facets ``facets[c]`` (increasing), label
    ``labels[c]`` and key ``order[c]``, and c is its homology column, JSON
    id and exported vertex.  ``cells_of_dim(d)`` runs from ``start[d]``.
    Error messages name a cell by its key, an int key (a ray mask) as its
    sorted ray ids, so mask 5 reads (0, 2).
    """

    def __init__(self, cells, facets, labels=None):
        self.order = sorted(cells, key=lambda k: (cells[k], k))
        number = {k: c for c, k in enumerate(self.order)}
        self.facets = [[] for _ in self.order]
        try:
            for k, fs in facets.items():
                self.facets[number[k]] = sorted(number[f] for f in fs)
            self.labels = {number[k]: v for k, v in (labels or {}).items()}
        except KeyError as err:
            name = _named(err.args[0])
            raise ValueError(f"key or facet {name!r} is not a cell") from None
        self.cells = [cells[k] for k in self.order]
        self.start = [bisect_left(self.cells, d)
                      for d in range(self.cells[-1] + 2 if self.cells else 1)]
        self.dimension = len(self.start) - 2
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
            [{c} for c in range(len(self.cells))],
            [(c, f) for c, facets in enumerate(self.facets) for f in facets])

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
            for f in facets:
                if self.cells[f] != k - 1:
                    raise ValueError(
                        f"facet {key(f)!r} of {k}-cell {key(c)!r} has "
                        f"dimension {self.cells[f]}, not {k - 1}")
            if k == 1 and len(facets) != 2:
                raise ValueError(
                    f"edge {key(c)!r} has {len(facets)} vertices, not 2")
            if k >= 2 and not facets:
                raise ValueError(f"{k}-cell {key(c)!r} has no facets")
            owners = {}
            for f in facets:
                for r in incidence[f]:
                    owners.setdefault(r, []).append(f)
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
                    g = owners[r][1] if owners[r][0] == f else owners[r][0]
                    sign = -signs[f] * sign_fr * incidence[g][r]
                    if g not in signs:
                        signs[g] = sign
                        stack.append(g)
                    elif signs[g] != sign:
                        raise ValueError(f"{k}-cell {key(c)!r} is not "
                                         f"orientable across ridge {key(r)!r}")
            for f in facets:
                if f not in signs:
                    raise ValueError(f"facet {key(f)!r} of {k}-cell {key(c)!r}"
                                     " is not reached across its ridges")
            incidence.append(signs)
        return incidence

    def homology(self):
        """Integral cellular homology, one (betti, torsion) pair per
        dimension 0..top.

        The chain groups are spanned by the cells and the boundary map of
        dimension k is given by its columns, the incidence dicts
        {facet: sign} of ``_incidences`` of the k-cells.  Computed once per
        complex (complexes are not mutated after construction); every call
        returns a fresh copy.
        """
        if not self.cells:
            raise EmptyComplex("homology of an empty complex")
        if self._homology is None:
            incidence = self._incidences()
            self._homology = homology_from_boundaries(
                {k: [incidence[c] for c in self.cells_of_dim(k)]
                 for k in range(1, self.dimension + 1)},
                list(self.f_vector()))
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

    The through-face of a peripheral vector p is the smallest face holding
    it, and a face holds p iff it contains p's through-face, so the kept
    faces, those containing none of the n through-faces, form a down-set.
    They are swept on the corner side, from the apex (every corner) down:
    cutting a face's corner mask by a ray's zero set gives the corner mask
    of the face it spans with that ray, so the codimension of the sweep is
    the cone dimension, checked against the rank of one top cell's rays.
    A ray that is a through-face itself is no cut: a chain of joins from
    the apex to a kept face joins rays of that face only.  A kept cell's
    facets are its intersections with the candidate facets one dimension
    down.  Empty exactly for (g,n) = (0,3), where every ray is a
    through-face.
    """
    rays, corner_vectors = _cone_rays(tri)
    corner_rays = [_zeros(col) for col in zip(*corner_vectors)]
    full = (1 << len(rays)) - 1
    through = [_rays_on(corner_rays, _zeros(corners_unchecked(tri, a)), full)
               for a in peripheral_values(tri)]
    ray_mask = {}               # kept corner mask -> ray mask of its face

    def keep(corners):
        face = _rays_on(corner_rays, corners, full)
        if any(face & t == t for t in through):
            return False
        ray_mask[corners] = face
        return True

    depth = _graded_sweep((1 << len(corner_rays)) - 1,
                          {_zeros(u) for i, u in enumerate(corner_vectors)
                           if 1 << i not in through}, keep)
    cells = {ray_mask[z]: d - 1 for z, d in depth.items() if z in ray_mask}
    if not cells:
        raise EmptyRelativeComplex(
            f"relative complex of (g,n)=({tri.genus},{tri.punctures}) "
            "came out empty")
    top = max(cells, key=cells.get)
    rank = integer_rank([r.values for i, r in enumerate(rays) if top >> i & 1])
    if rank != cells[top] + 1:
        raise ValueError(f"walked depth {cells[top] + 1} of a top cell "
                         f"differs from the rank {rank} of its rays")
    cands = set(corner_rays)
    return PolytopeComplex(
        cells,
        {h: [f for f in {h & c for c in cands} if cells.get(f) == d - 1]
         for h, d in cells.items()},
        {h: [list(rays[h.bit_length() - 1].values)]
         for h, d in cells.items() if d == 0})


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
    if not cpx.cells:
        raise EmptyComplex("no cells to certify")
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
