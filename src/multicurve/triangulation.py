"""Ideal triangulations of punctured surfaces as gluing data on side slots.

A triangulation of the closed surface underlying Sigma_{g,n} is stored as a
fixed-point-free involution on the 3T side slots of T triangles.  Slot k of
triangle t has id ``3*t + k``; within each triangle the slots are ordered
counterclockwise and every gluing identifies two slots reversing the induced
boundary orientation, so the glued surface is always oriented.  Edges,
vertices (= punctures), corners, genus and puncture count are derived.

Conventions used throughout the package:

* slot (t, k) runs from triangle-vertex c_k to c_{k+1} (indices mod 3);
* corner (t, k) lies between slots (t, k+1) and (t, k+2), opposite slot
  (t, k), and sits at triangle-vertex c_{k+2};
* corner ids reuse slot numbering: corner k of triangle t is ``3*t + k``.

Folded triangles (two slots glued to each other) need no special casing in
this representation.
"""

import json
import random

from .errors import (
    DisconnectedSurface,
    EulerCharacteristicInvalid,
    FlipOnFoldedEdge,
    FlowerRequiresNAtLeast4,
    GluingNotInvolution,
    IndexOutOfRange,
    NotTrivalent,
    SlotGluedToItself,
    TriangulationError,
)


def slot_id(t, k):
    return 3 * t + k


def slot_pair(s):
    return s // 3, s % 3


class Triangulation:
    """Immutable validated triangulation; use :func:`build` to construct."""

    __slots__ = ("triangle_count", "gluing", "edges", "edge_index",
                 "side_edges", "vertices", "corner_vertex", "genus",
                 "punctures", "_hash")

    def __init__(self, triangle_count, gluing, edges):
        self.triangle_count = triangle_count
        self.gluing = tuple(gluing)
        self.edges = tuple(edges)
        self.edge_index = {pair: i for i, pair in enumerate(self.edges)}
        # side_edges[t]: edge indices carried by slots 0,1,2 of triangle t
        self.side_edges = tuple(
            tuple(self.edge_of_slot(slot_id(t, k)) for k in range(3))
            for t in range(triangle_count))
        self.vertices, self.corner_vertex = self._vertex_orbits()
        n = len(self.vertices)
        m = triangle_count // 2  # = 2g + n - 2
        chi = n - m
        if chi % 2 != 0 or (2 - chi) < 0:
            raise EulerCharacteristicInvalid(
                f"V-E+T = {n}-{len(self.edges)}+{triangle_count} = {chi} "
                "is not 2-2g for any g >= 0")
        self.genus = (2 - chi) // 2
        self.punctures = n
        if n < 1 or 2 * self.genus + n < 3:
            raise EulerCharacteristicInvalid(
                f"(g,n)=({self.genus},{n}) is not a punctured surface "
                "with 2g+n >= 3")
        self._hash = hash((triangle_count, self.gluing))

    # -- derived structure ------------------------------------------------

    def _vertex_orbits(self):
        """Corner orbits of the walk-around-a-vertex rotation."""
        ncorners = 3 * self.triangle_count
        seen = [False] * ncorners
        orbits = []
        corner_vertex = [-1] * ncorners
        for start in range(ncorners):
            if seen[start]:
                continue
            orbit = []
            c = start
            while not seen[c]:
                seen[c] = True
                orbit.append(c)
                corner_vertex[c] = len(orbits)
                t, k = slot_pair(c)
                partner = self.gluing[slot_id(t, (k + 2) % 3)]
                t2, k2 = slot_pair(partner)
                c = slot_id(t2, (k2 + 2) % 3)
            orbits.append(tuple(orbit))
        return tuple(orbits), tuple(corner_vertex)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def corners(self):
        return range(3 * self.triangle_count)

    def edge_of_slot(self, s):
        partner = self.gluing[s]
        return self.edge_index[(min(s, partner), max(s, partner))]

    def is_folded(self, t):
        pairs = [self.gluing[slot_id(t, k)] // 3 for k in range(3)]
        return pairs.count(t) >= 2

    def folded_triangles(self):
        return [t for t in range(self.triangle_count) if self.is_folded(t)]

    def edge_endpoints(self, e):
        """Vertex indices of the two endpoints of edge e (may coincide)."""
        s = self.edges[e][0]
        t, k = slot_pair(s)
        a = self.corner_vertex[slot_id(t, (k + 1) % 3)]
        b = self.corner_vertex[slot_id(t, (k + 2) % 3)]
        return a, b

    def corners_at_vertex(self, v):
        return self.vertices[v]

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.triangle_count == other.triangle_count
                and self.gluing == other.gluing
                and self.edges == other.edges)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"Triangulation(T={self.triangle_count}, g={self.genus}, "
                f"n={self.punctures}, E={self.num_edges})")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        pairs = sorted({(min(s, p), max(s, p))
                        for s, p in enumerate(self.gluing)})
        return {
            "triangles": self.triangle_count,
            "gluing": [[list(slot_pair(a)), list(slot_pair(b))]
                       for a, b in pairs],
        }

    def gluing_hash(self):
        import hashlib
        data = json.dumps(self.to_json_dict(), sort_keys=True)
        return hashlib.sha256(data.encode()).hexdigest()[:12]


def build(triangle_count, gluing_pairs):
    """Validate gluing data and derive the triangulation.

    ``gluing_pairs`` lists pairs of slots, each slot either a flat id in
    ``range(3*triangle_count)`` or a ``(triangle, side)`` pair.  Edges are
    ordered lexicographically by (min slot, max slot); this canonical order
    indexes every coloring downstream.
    """
    nslots = 3 * triangle_count
    gluing = [-1] * nslots

    def flat(s):
        if isinstance(s, int):
            return s
        t, k = s
        if not 0 <= k <= 2:
            raise GluingNotInvolution(f"side index {k} not in 0..2")
        return slot_id(t, k)

    for a, b in gluing_pairs:
        fa, fb = flat(a), flat(b)
        if not (0 <= fa < nslots and 0 <= fb < nslots):
            raise GluingNotInvolution(f"slot out of range in pair {(a, b)}")
        if fa == fb:
            raise SlotGluedToItself(f"slot {fa} glued to itself")
        for f, g in ((fa, fb), (fb, fa)):
            if gluing[f] not in (-1, g):
                raise GluingNotInvolution(f"slot {f} glued twice")
            gluing[f] = g
    if any(p == -1 for p in gluing):
        missing = [s for s, p in enumerate(gluing) if p == -1]
        raise GluingNotInvolution(f"unglued slots {missing}")

    edges = sorted({(min(s, p), max(s, p)) for s, p in enumerate(gluing)})
    tri = Triangulation(triangle_count, gluing, edges)
    _check_connected(tri)
    return tri


def _check_connected(tri):
    if tri.triangle_count == 0:
        raise EulerCharacteristicInvalid("no triangles")
    seen = {0}
    stack = [0]
    while stack:
        t = stack.pop()
        for k in range(3):
            t2 = tri.gluing[slot_id(t, k)] // 3
            if t2 not in seen:
                seen.add(t2)
                stack.append(t2)
    if len(seen) != tri.triangle_count:
        raise DisconnectedSurface(
            f"only {len(seen)} of {tri.triangle_count} triangles reachable")


class DualGraph:
    """Trivalent multigraph dual to a triangulation.

    Vertices are triangle indices; edge i joins the triangles on the two
    sides of edge i of the triangulation (a loop for a folded doubled side).
    """

    __slots__ = ("num_vertices", "edges")

    def __init__(self, tri):
        self.num_vertices = tri.triangle_count
        ends = []
        for a, b in tri.edges:
            ta, tb = a // 3, b // 3
            ends.append((min(ta, tb), max(ta, tb)))
        self.edges = tuple(ends)
        degrees = [0] * self.num_vertices
        for a, b in self.edges:
            degrees[a] += 1
            degrees[b] += 1
        if any(d != 3 for d in degrees):
            raise NotTrivalent(f"degrees {degrees}")

    def is_loop(self, i):
        a, b = self.edges[i]
        return a == b

    def num_loops(self):
        return sum(1 for i in range(len(self.edges)) if self.is_loop(i))


def dual_graph(tri):
    return DualGraph(tri)


def flower(n):
    """Genus-zero flower triangulation with n punctures (n >= 4).

    Puncture p_i (i < n) sits inside a disk bounded by beta_i, with the arc
    alpha_i doubled inside it as a folded triangle; the (n-1)-gon with sides
    beta_1..beta_{n-1} is fan-triangulated.  Slot layout: folded triangle
    i-1 has beta_i at slot 0 and the doubled alpha_i at slots 1,2.
    """
    if n < 4:
        raise FlowerRequiresNAtLeast4(f"flower needs n >= 4, got {n}")
    pairs = []
    for i in range(n - 1):  # folded triangles 0..n-2
        pairs.append(((i, 1), (i, 2)))
    # inner fan: triangle n-1+j (j = 0..n-4) has slots
    #   0: beta_1 if j == 0 else diagonal d_j
    #   1: beta_{j+2}
    #   2: beta_{n-1} if j == n-4 else diagonal d_{j+1}
    first_inner = n - 1
    pairs.append(((0, 0), (first_inner, 0)))        # beta_1
    for j in range(n - 3):
        pairs.append(((j + 1, 0), (first_inner + j, 1)))  # beta_{j+2}
    pairs.append(((n - 2, 0), (first_inner + n - 4, 2)))  # beta_{n-1}
    for j in range(n - 4):
        pairs.append(((first_inner + j, 2), (first_inner + j + 1, 0)))
    return build(2 * (n - 2), pairs)


def _diagonal_slots(tri, e):
    """(triangle, side) of both slots of edge e, checked to be flippable."""
    if not 0 <= e < tri.num_edges:
        raise IndexOutOfRange(f"edge {e} not in 0..{tri.num_edges - 1}")
    s1, s2 = tri.edges[e]
    t1, p = slot_pair(s1)
    t2, q = slot_pair(s2)
    if t1 == t2:
        raise FlipOnFoldedEdge(f"edge {e} is a doubled side of triangle {t1}")
    return (t1, p), (t2, q)


def flip(tri, e):
    """Replace the diagonal e of its square by the other diagonal.

    The returned triangulation keeps the edge numbering of ``tri``: the new
    diagonal occupies index e and every other edge keeps its index (its slot
    pair may move within the square).  Legal whenever the two triangle
    instances adjacent to e are distinct; flipping the doubled side of a
    folded triangle raises FlipOnFoldedEdge.
    """
    (t1, p), (t2, q) = _diagonal_slots(tri, e)
    s1, s2 = tri.edges[e]
    x1 = slot_id(t1, (p + 1) % 3)
    y1 = slot_id(t1, (p + 2) % 3)
    x2 = slot_id(t2, (q + 1) % 3)
    y2 = slot_id(t2, (q + 2) % 3)
    # contents of the four outer sides move to these slots
    relocate = {x1: slot_id(t2, (q + 2) % 3),
                y1: slot_id(t1, (p + 1) % 3),
                x2: slot_id(t1, (p + 2) % 3),
                y2: slot_id(t2, (q + 1) % 3)}

    def new_slot(s):
        return relocate.get(s, s)

    gluing = [-1] * (3 * tri.triangle_count)
    gluing[s1], gluing[s2] = s2, s1  # the new diagonal reuses e's slots
    for a, b in tri.edges:
        if (a, b) == (s1, s2):
            continue
        na, nb = new_slot(a), new_slot(b)
        gluing[na], gluing[nb] = nb, na

    edges = []
    for i, (a, b) in enumerate(tri.edges):
        if i == e:
            edges.append((min(s1, s2), max(s1, s2)))
        else:
            na, nb = new_slot(a), new_slot(b)
            edges.append((min(na, nb), max(na, nb)))
    flipped = Triangulation(tri.triangle_count, gluing, edges)
    _check_connected(flipped)
    return flipped


def flip_square_sides(tri, e):
    """Edge indices (a, c, b, d) of the square around diagonal e.

    (a, c) and (b, d) are the two pairs of opposite sides; a, b lie in one
    triangle instance adjacent to e and c, d in the other, matching the
    labeling used by the coloring transfer rule
    ``v_e' = max(v_a + v_c, v_b + v_d) - v_e``.
    """
    (t1, p), (t2, q) = _diagonal_slots(tri, e)
    ab, cd = tri.side_edges[t1], tri.side_edges[t2]
    return ab[(p + 1) % 3], cd[(q + 1) % 3], ab[(p + 2) % 3], cd[(q + 2) % 3]


# ---------------------------------------------------------------------------
# isomorphism


def canonical_form(tri):
    """Canonical gluing signature, invariant under relabeling triangles and
    rotating their slots (orientation-preserving isomorphism)."""
    best = None
    for t0 in range(tri.triangle_count):
        for r0 in range(3):
            sig = _bfs_signature(tri, t0, r0)
            if best is None or sig < best:
                best = sig
    return best


def _bfs_signature(tri, t0, r0):
    label = {t0: 0}       # triangle -> new index
    rot = {t0: r0}        # slot k of triangle t becomes slot (k - rot) % 3
    order = [t0]
    head = 0
    sig = []
    while head < len(order):
        t = order[head]
        head += 1
        for j in range(3):
            s = slot_id(t, (j + rot[t]) % 3)
            t2, k2 = slot_pair(tri.gluing[s])
            if t2 not in label:
                label[t2] = len(order)
                rot[t2] = k2  # entry slot becomes slot 0
                order.append(t2)
            sig.append((label[t2], (k2 - rot[t2]) % 3))
    return tuple(sig)


def is_isomorphic(tri1, tri2):
    if tri1.triangle_count != tri2.triangle_count:
        return False
    return canonical_form(tri1) == canonical_form(tri2)


# ---------------------------------------------------------------------------
# named fixtures and JSON


def _ex11():
    # once-punctured torus: two triangles glued side-for-side
    return build(2, [((0, k), (1, k)) for k in range(3)])


def _n4ex():
    # boundary of the tetrahedron; dual graph is K4
    return build(4, [((0, 0), (2, 2)), ((0, 1), (3, 2)), ((0, 2), (1, 0)),
                     ((1, 1), (3, 1)), ((1, 2), (2, 0)), ((2, 1), (3, 0))])


def _n4ex2():
    # tetrahedron with one diagonal flipped; dual graph is a 4-cycle with
    # two doubled opposite sides
    return build(4, [((0, 0), (3, 2)), ((0, 1), (3, 1)), ((0, 2), (1, 0)),
                     ((1, 1), (2, 0)), ((1, 2), (2, 2)), ((2, 1), (3, 0))])


def _three_punctured_sphere():
    # two folded triangles sharing their single sides: the degenerate
    # (g,n)=(0,3) petal gluing (the flower construction itself needs n>=4)
    return build(2, [((0, 1), (0, 2)), ((1, 1), (1, 2)), ((0, 0), (1, 0))])


def random_triangulation(rng, triangles):
    """Random connected oriented surface from a random slot pairing of an
    even number of triangles, redrawn until it is a valid surface."""
    if triangles < 2 or triangles % 2:
        raise TriangulationError(
            f"a random surface needs an even number T >= 2 of triangles, "
            f"got {triangles}")
    while True:
        slots = list(range(3 * triangles))
        rng.shuffle(slots)
        pairs = [(slots[2 * i], slots[2 * i + 1])
                 for i in range(len(slots) // 2)]
        try:
            return build(triangles, pairs)
        except TriangulationError:
            continue


def fixture(name):
    """Named triangulations: ex11, n4ex, n4ex2, flower:<n>, and
    random:<T>:<seed> (``random_triangulation(random.Random(seed), T)``).
    """
    if name == "ex11":
        return _ex11()
    if name == "n4ex":
        return _n4ex()
    if name == "n4ex2":
        return _n4ex2()
    if name.startswith("flower:"):
        size = name.split(":", 1)[1]
        try:
            n = int(size)
        except ValueError:
            raise TriangulationError(
                f"flower:<n> needs an integer n, got {size!r}") from None
        if n == 3:
            return _three_punctured_sphere()
        return flower(n)
    if name.startswith("random:"):
        try:
            triangles, seed = (int(x) for x in name.split(":")[1:])
        except ValueError:
            raise TriangulationError(
                f"random:<T>:<seed> needs integers T and seed, got "
                f"{name!r}") from None
        return random_triangulation(random.Random(seed), triangles)
    raise KeyError(f"unknown fixture {name!r}")


FIXTURE_NAMES = ("ex11", "n4ex", "n4ex2", "flower:4", "flower:5")


def from_json_dict(data):
    """Build from ``{"triangles": T, "gluing": [[[t, s], [t', s']], ...]}``.

    Data of any other shape raises TriangulationError.
    """
    try:
        count = data["triangles"]
        pairs = [(tuple(a), tuple(b)) for a, b in data["gluing"]]
    except (KeyError, TypeError, ValueError):
        pairs = None
    if pairs is None or not (
            isinstance(count, int) and 2 * len(pairs) == 3 * count
            and all(len(s) == 2 and all(isinstance(x, int) for x in s)
                    for pair in pairs for s in pair)):
        raise TriangulationError(
            "malformed gluing data: need an integer triangle count T and "
            "3T/2 pairs of [triangle, side] slots")
    return build(count, pairs)


def load(source):
    """Load a triangulation from a fixture name, JSON path, or JSON text.

    Text that does not parse as JSON raises TriangulationError; a path
    that cannot be read raises the OSError from ``open``.
    """
    try:
        return fixture(source)
    except KeyError:
        pass
    try:
        if source.strip().startswith("{"):
            data = json.loads(source)
        else:
            with open(source) as fh:
                data = json.load(fh)
    except ValueError as err:  # includes JSONDecodeError, UnicodeDecodeError
        raise TriangulationError(f"malformed JSON: {err}") from None
    return from_json_dict(data)
