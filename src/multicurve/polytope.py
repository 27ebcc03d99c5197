"""Face lattice of the coloring cone and the boundary polytope complexes.

The closure of the coloring cone in R^E is cut out by the corner
functionals u_theta >= 0, so its faces are exactly the zero sets of corner
subsets.  A face is an int bitmask of the extremal rays (simple barbell
colorings) it contains, with the bitmask of its vanishing corners beside it
where needed; the public keys are frozensets of ray ids built in sorted
order, so they print by content alone.  The lattice is the closure of the
candidate facets {rays with u_theta = 0} under intersection, graded by rank
(Kaibel-Pfetsch 2002): a face's dimension is one more than the largest
dimension of its intersections with the candidates not containing it, and
the rational rank of all the rays checks the top dimension once.  Slicing
by the degree hyperplane turns a cone face of dimension k into a polytope
cell of dimension k-1; a polytope complex stores each cell's facets.

The relative complex keeps the faces containing no peripheral through-face
(the smallest face holding a peripheral vector), a down-set walked upward
from the apex without the full lattice.  By the structure theory it is a
sphere, certified here by connectivity + pseudomanifold + integral homology
(a homology sphere certificate for d >= 3, genuine homeomorphism in
dimensions <= 2).  The homology is cellular, with the +-1 incidences of a
regular CW complex read off the facets alone.
"""

from collections import Counter

from .barbell import connected, enumerate_simple
from .coloring import (
    Coloring,
    corner_coords,
    is_admissible,
    peripheral_colorings,
    require_admissible,
)
from .errors import EmptyComplex, EmptyRelativeComplex, NotAdmissible
from .linalg import homology_from_boundaries, integer_rank
from .triangulation import flip, flip_square_sides


class ConeFaceLattice:
    """Faces of the coloring cone, each a set of extremal rays."""

    def __init__(self, rays, corner_vectors):
        self.rays = list(rays)                 # Coloring objects
        self.corner_vectors = [tuple(u) for u in corner_vectors]
        self.faces = []                        # list of frozenset(ray ids)
        self.candidates = set()                # distinct candidate facets
        self.face_dim = {}                     # rayset -> integer dimension
        self._build()

    def _build(self):
        if not self.rays:
            return
        candidates = {_zeros(col) for col in zip(*self.corner_vectors)}
        faces = {(1 << len(self.rays)) - 1}
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
        order = sorted(faces, key=lambda f: (f.bit_count(), _bits(f)))
        # Graded lattice: every facet of F is F & C for a candidate C not
        # containing F, and every other such F & C lies in a facet of F.
        dims = {}
        for face in order:
            dims[face] = 1 + max((dims[face & cand] for cand in candidates
                                  if face & cand != face), default=-1)
        self.faces = [frozenset(_bits(f)) for f in order]
        self.face_dim = {key: dims[f] for key, f in zip(self.faces, order)}
        self.candidates = {frozenset(_bits(c)) for c in candidates}
        rank = integer_rank([ray.values for ray in self.rays])
        if rank != self.dimension:
            raise ValueError(f"graded dimension {self.dimension} differs "
                             f"from the rank {rank} of the rays")

    @property
    def dimension(self):
        return self.face_dim[self.faces[-1]] if self.faces else 0

    def faces_of_dim(self, d):
        return [f for f in self.faces if self.face_dim[f] == d]

    def __repr__(self):
        return (f"ConeFaceLattice(rays={len(self.rays)}, "
                f"faces={len(self.faces)}, dim={self.dimension})")


def _bits(mask):
    """Positions of the set bits of ``mask``, in increasing order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


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
    """Extremal rays of the coloring cone and their corner vectors."""
    rays = [b.coloring for b in enumerate_simple(tri)]
    return rays, [corner_coords(tri, r) for r in rays]


def cone_face_lattice(tri):
    return ConeFaceLattice(*_cone_rays(tri))


class PolytopeComplex:
    """Ranked face poset of a polytope complex, stored as its Hasse diagram.

    ``cells`` maps cell key -> dimension; ``facets`` maps cell key -> its
    facets, the frozenset of cells one dimension lower that it covers.
    Vertex labels live in ``labels`` (ray colorings for cone complexes).
    """

    def __init__(self, cells, facets, labels=None):
        self.cells = dict(cells)
        self.facets = {k: frozenset(v) for k, v in facets.items()}
        self.labels = labels or {}
        self.order = sorted(self.cells, key=lambda k: (self.cells[k], str(k)))
        self._homology = None

    @property
    def dimension(self):
        return max(self.cells.values()) if self.cells else -1

    def __len__(self):
        return len(self.cells)

    def cells_of_dim(self, d):
        return [k for k in self.order if self.cells[k] == d]

    def boundary_cells(self, key):
        """Immediate (codimension-1) faces of a cell."""
        return self.facets[key]

    def f_vector(self):
        if not self.cells:
            return ()
        counts = [0] * (self.dimension + 1)
        for d in self.cells.values():
            counts[d] += 1
        return tuple(counts)

    def is_connected(self):
        return bool(self.cells) and connected(
            [{k} for k in self.cells],
            [(k, f) for k, facets in self.facets.items() for f in facets])

    # -- cellular homology from the face poset ------------------------------

    def _incidences(self):
        """Incidence numbers [c:f] = +-1 of every cell on its facets.

        Cells are oriented dimension by dimension: an edge runs from its
        first vertex to its second; a k-cell (k >= 2) gives its first facet
        +1 and crosses each ridge r from a facet f to the other facet g with
        the diamond rule [c:g] = -[c:f][f:r][g:r], so the boundary of a
        boundary vanishes.  Raises ``ValueError`` naming the cell when the
        poset is not that of a regular CW complex.
        """
        rank = {k: i for i, k in enumerate(self.order)}
        incidence = {}
        for c in self.order:
            k = self.cells[c]
            facets = sorted(self.facets[c], key=rank.__getitem__)
            for f in facets:
                if self.cells[f] != k - 1:
                    raise ValueError(f"facet {f!r} of {k}-cell {c!r} has "
                                     f"dimension {self.cells[f]}, not {k - 1}")
            if k == 1 and len(facets) != 2:
                raise ValueError(
                    f"edge {c!r} has {len(facets)} vertices, not 2")
            if k >= 2 and not facets:
                raise ValueError(f"{k}-cell {c!r} has no facets")
            owners = {}
            for f in facets:
                for r in incidence[f]:
                    owners.setdefault(r, []).append(f)
            for r, fs in owners.items():
                if len(fs) != 2:
                    raise ValueError(f"ridge {r!r} of {k}-cell {c!r} lies "
                                     f"in {len(fs)} of its facets, not 2")
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
                        raise ValueError(f"{k}-cell {c!r} is not orientable "
                                         f"across ridge {r!r}")
            for f in facets:
                if f not in signs:
                    raise ValueError(f"facet {f!r} of {k}-cell {c!r} is not "
                                     "reached across its ridges")
            incidence[c] = signs
        return incidence

    def homology(self):
        """Integral cellular homology, one (betti, torsion) pair per
        dimension 0..top.

        The chain groups are spanned by the cells and the boundary maps
        carry the incidence numbers of ``_incidences``, as one sparse row
        {k-cell index: sign} per (k-1)-cell.  Computed once per
        complex (complexes are not mutated after construction); every call
        returns a fresh copy of the result.
        """
        if not self.cells:
            raise EmptyComplex("homology of an empty complex")
        if self._homology is None:
            incidence = self._incidences()
            num_cells = [0] * (self.dimension + 1)
            index = {}
            for c in self.order:
                index[c] = num_cells[self.cells[c]]
                num_cells[self.cells[c]] += 1
            boundaries = {k: [{} for _ in range(num_cells[k - 1])]
                          for k in range(1, len(num_cells))}
            for c in self.order:
                for f, sign in incidence[c].items():
                    boundaries[self.cells[c]][index[f]][index[c]] = sign
            self._homology = homology_from_boundaries(boundaries, num_cells)
        return [(b, list(tors)) for b, tors in self._homology]

    def to_json_dict(self):
        keys = self.order
        ids = {k: i for i, k in enumerate(keys)}
        cells = []
        for k in keys:
            cell = {"id": ids[k], "dim": self.cells[k],
                    "boundary": sorted(ids[f] for f in self.facets[k])}
            if k in self.labels:
                cell["rays"] = self.labels[k]
            cells.append(cell)
        return {"dimension": self.dimension, "f_vector": list(self.f_vector()),
                "cells": cells}


def relative_complex(tri):
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
    rays, corner_vectors = _cone_rays(tri)
    # each ray's mask of vanishing corners, each corner's of vanishing rays
    ray_zero = [_zeros(u) for u in corner_vectors]
    corner_rays = [_zeros(col) for col in zip(*corner_vectors)]
    full = (1 << len(rays)) - 1
    through = [_rays_on(corner_rays, _zeros(corner_coords(tri, p)), full)
               for p in peripheral_colorings(tri)]
    corners = {0: (1 << len(corner_rays)) - 1}     # ray mask -> corner mask
    depth = {0: 0}
    facets = {0: []}
    level = [0]
    while level:
        reached = []
        for face in level:
            hits = {}                       # H_r -> (rays giving it, corners)
            for r in _bits(full & ~face):
                z = corners[face] & ray_zero[r]
                h = _rays_on(corner_rays, z, full)
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
    keys = {h: frozenset(_bits(h)) for h in depth}
    top = max(depth, key=depth.get)
    rank = integer_rank([rays[i].values for i in _bits(top)])
    if rank != depth[top]:
        raise ValueError(f"walked depth {depth[top]} of a top cell differs "
                         f"from the rank {rank} of its rays")
    return PolytopeComplex(
        {keys[h]: d - 1 for h, d in depth.items()},
        {keys[h]: [keys[f] for f in facets[h] if f] for h in depth},
        {keys[h]: [list(rays[i].values) for i in _bits(h)]
         for h, d in depth.items() if d == 1})


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
        return (self.connected and self.pseudomanifold
                and self.homology_matches and self.torsion_free)

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
    """Connectivity, pseudomanifold and S^d-homology checks."""
    if not cpx.cells:
        raise EmptyComplex("no cells to certify")
    connected = cpx.is_connected()
    pseudo = cpx.dimension == d
    if pseudo:
        cofaces = Counter(f for c in cpx.cells_of_dim(d)
                          for f in cpx.facets[c])
        pseudo = all(cofaces[r] == 2 for r in cpx.cells_of_dim(d - 1))
    hom = cpx.homology()
    betti = [b for b, _tors in hom]
    torsion_free = all(not tors for _b, tors in hom)
    if d == 0:
        expected = [2]
    else:
        expected = [1] + [0] * (d - 1) + [1]
    matches = betti[:d + 1] == expected and all(
        b == 0 for b in betti[d + 1:])
    return SphereCertificate(d, connected, pseudo, matches, betti,
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
        raise NotAdmissible("transfer produced an inadmissible coloring")
    return out
