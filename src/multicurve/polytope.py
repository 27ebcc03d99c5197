"""Face lattice of the coloring cone and the boundary polytope complexes.

The closure of the coloring cone in R^E is cut out by the corner
functionals u_theta >= 0, so its faces are exactly the zero sets of corner
subsets.  Faces are represented by the set of extremal rays (simple barbell
colorings) they contain; the lattice is the closure of the candidate facets
{rays with u_theta = 0} under intersection.  Slicing by the degree
hyperplane turns a cone face of dimension k into a polytope cell of
dimension k-1.

The relative complex keeps the faces whose closures miss every peripheral
ray; by the structure theory it is a sphere, which is certified here by
connectivity + pseudomanifold + integral homology (a homology sphere
certificate for d >= 3, genuine homeomorphism in dimensions <= 2).  The
cells are polytopes, so the homology is cellular, with the +-1 incidence
numbers of a regular CW complex read off the face poset alone.
"""

from .barbell import connected, enumerate_simple
from .coloring import (
    Coloring,
    corner_coords,
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
        self.face_corners = {}                 # rayset -> vanishing corners
        self.face_dim = {}                     # rayset -> integer dimension
        self._build()

    def _build(self):
        nrays = len(self.rays)
        if nrays == 0:
            return
        ncorners = len(self.corner_vectors[0])
        full = frozenset(range(nrays))
        candidates = []
        for theta in range(ncorners):
            candidates.append(frozenset(
                i for i in range(nrays)
                if self.corner_vectors[i][theta] == 0))
        faces = {full}
        frontier = [full]
        while frontier:
            new = []
            for face in frontier:
                for cand in candidates:
                    inter = face & cand
                    if inter not in faces:
                        faces.add(inter)
                        new.append(inter)
            frontier = new
        self.faces = sorted(faces, key=lambda f: (len(f), sorted(f)))
        for face in self.faces:
            self.face_corners[face] = frozenset(
                theta for theta in range(ncorners)
                if all(self.corner_vectors[i][theta] == 0 for i in face))
            self.face_dim[face] = integer_rank(
                [self.rays[i].values for i in face])

    @property
    def dimension(self):
        if not self.faces:
            return 0
        return self.face_dim[self.faces[-1]]

    def faces_of_dim(self, d):
        return [f for f in self.faces if self.face_dim[f] == d]

    def __repr__(self):
        return (f"ConeFaceLattice(rays={len(self.rays)}, "
                f"faces={len(self.faces)}, dim={self.dimension})")


def cone_face_lattice(tri):
    simple = enumerate_simple(tri)
    rays = [b.coloring for b in simple]
    corner_vectors = [corner_coords(tri, r) for r in rays]
    return ConeFaceLattice(rays, corner_vectors)


class PolytopeComplex:
    """Ranked face poset of a polytope complex.

    ``cells`` maps cell key -> dimension; ``contains`` maps cell key ->
    frozenset of strictly contained cell keys.  Vertex labels live in
    ``labels`` (for complexes from cone lattices these are ray colorings).
    """

    def __init__(self, cells, contains, labels=None):
        self.cells = dict(cells)
        self.contains = {k: frozenset(v) for k, v in contains.items()}
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
        d = self.cells[key]
        return [k for k in self.contains[key] if self.cells[k] == d - 1]

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
            [(k, b) for k, below in self.contains.items() for b in below])

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
            facets = sorted(self.boundary_cells(c), key=rank.__getitem__)
            if k == 1 and len(facets) != 2:
                raise ValueError(
                    f"edge {c!r} has {len(facets)} vertices, not 2")
            if k >= 2 and not facets:
                raise ValueError(f"{k}-cell {c!r} has no facets")
            owners = {r: [] for r in self.contains[c]
                      if self.cells[r] == k - 2}
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
        carry the incidence numbers of ``_incidences``.  Computed once per
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
            boundaries = {k: [[0] * num_cells[k]
                              for _ in range(num_cells[k - 1])]
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
                    "boundary": sorted(ids[b] for b in
                                       self.boundary_cells(k))}
            if k in self.labels:
                cell["rays"] = self.labels[k]
            cells.append(cell)
        return {"dimension": self.dimension, "f_vector": list(self.f_vector()),
                "cells": cells}


def complex_from_cone_faces(lattice, keep):
    """Polytope complex of the degree-1 slice of the kept cone faces.

    ``keep`` lists raysets (faces of the lattice); faces of dimension 0
    (the apex) are dropped, and a cone face of dimension k becomes a cell
    of dimension k-1.
    """
    cells = {}
    contains = {}
    labels = {}
    kept = [f for f in keep if lattice.face_dim[f] >= 1]
    for face in kept:
        cells[face] = lattice.face_dim[face] - 1
        contains[face] = frozenset(
            g for g in kept if g < face)
        if lattice.face_dim[face] == 1:
            labels[face] = [list(lattice.rays[i].values) for i in sorted(face)]
    return PolytopeComplex(cells, contains, labels)


def relative_complex(tri):
    """Union of the slice-polytope faces avoiding every peripheral vector.

    A peripheral vector lies in a face iff every corner functional in the
    face's maximal vanishing set kills it; kept faces must exclude all n
    peripheral vectors.  Empty exactly for (g,n) = (0,3).
    """
    if (tri.genus, tri.punctures) == (0, 3):
        raise EmptyRelativeComplex(
            "the relative complex of the three-punctured sphere is empty")
    lattice = cone_face_lattice(tri)
    peripheral_u = [corner_coords(tri, p) for p in peripheral_colorings(tri)]
    keep = []
    for face in lattice.faces:
        corners = lattice.face_corners[face]
        if all(any(u[theta] > 0 for theta in corners) for u in peripheral_u):
            keep.append(face)
    cpx = complex_from_cone_faces(lattice, keep)
    if not cpx.cells:
        raise EmptyRelativeComplex(
            f"relative complex of (g,n)=({tri.genus},{tri.punctures}) "
            "came out empty")
    return cpx


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
        top_cells = cpx.cells_of_dim(d)
        for ridge in cpx.cells_of_dim(d - 1):
            cofaces = sum(1 for c in top_cells if ridge in cpx.contains[c])
            if cofaces != 2:
                pseudo = False
                break
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
    from .coloring import is_admissible
    if not is_admissible(flipped, out):
        raise NotAdmissible("transfer produced an inadmissible coloring")
    return out
