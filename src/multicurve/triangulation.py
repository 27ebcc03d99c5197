"""Ideal triangulations of punctured surfaces as gluing data on side slots.

A triangulation of the closed surface underlying Sigma_{g,n} is stored as a
fixed-point-free involution on the 3T side slots of T triangles.  Slot k of
triangle t has id ``3*t + k``; within each triangle the slots are ordered
counterclockwise and every gluing identifies two slots reversing the induced
boundary orientation, so the glued surface is always oriented.  Edges,
the trivalent dual graph (edge i joins the triangles on its two sides, a
loop for a folded doubled side), vertices (= punctures), corners, genus
and puncture count are derived.

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
    SlotGluedToItself,
    TriangulationError,
)

RANDOM_DRAWS = 1000  # over 9 in 10 gluings are connected; tests need <= 3


def slot_id(t, k):
    return 3 * t + k


def slot_pair(s):
    return s // 3, s % 3


class Triangulation:
    """Immutable triangulation derived from gluing data.

    Construct with :func:`build`, which validates the data once; a flip
    keeps it valid, so the constructor only derives: it checks nothing.
    """

    __slots__ = ("triangle_count", "gluing", "edges", "side_edges",
                 "dual_edges", "vertices", "corner_vertex", "genus",
                 "punctures")

    def __init__(self, triangle_count, gluing, edges):
        self.triangle_count = triangle_count
        self.gluing = tuple(gluing)
        self.edges = tuple(edges)
        slot_edge = [0] * (3 * triangle_count)
        for i, (a, b) in enumerate(self.edges):
            slot_edge[a] = slot_edge[b] = i
        # side_edges[t]: edge indices carried by slots 0,1,2 of triangle t
        self.side_edges = tuple(tuple(slot_edge[s:s + 3])
                                for s in range(0, len(slot_edge), 3))
        # dual_edges[i]: the triangles on the two sides of edge i; its slots
        # come in order, a < b, so its triangles do too
        self.dual_edges = tuple((a // 3, b // 3) for a, b in self.edges)
        self.vertices, self.corner_vertex = self._vertex_orbits()
        self.punctures = len(self.vertices)
        # V - E + T = 2 - 2g with E = 3T/2 on a connected surface
        self.genus = (2 - self.punctures + triangle_count // 2) // 2

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

    def is_folded(self, t):
        pairs = [self.gluing[slot_id(t, k)] // 3 for k in range(3)]
        return pairs.count(t) >= 2

    def folded_triangles(self):
        return [t for t in range(self.triangle_count) if self.is_folded(t)]

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.triangle_count == other.triangle_count
                and self.gluing == other.gluing
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.triangle_count, self.gluing))

    def __repr__(self):
        return (f"Triangulation(T={self.triangle_count}, g={self.genus}, "
                f"n={self.punctures}, E={self.num_edges})")

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        pairs = sorted(self.edges)
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

    The one validation, in order: every slot glued to one other slot,
    T >= 2, a connected surface.  Then 2g + n = 2 + T/2 >= 3 follows.
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
    missing = [s for s, p in enumerate(gluing) if p == -1]
    if missing:
        raise GluingNotInvolution(f"unglued slots {missing}")

    if triangle_count < 2:
        raise EulerCharacteristicInvalid(
            f"a surface with 2g+n >= 3 needs T >= 2 triangles, "
            f"got {triangle_count}")
    edges = [(s, p) for s, p in enumerate(gluing) if s < p]  # sorted
    tri = Triangulation(triangle_count, gluing, edges)
    if not connected(range(triangle_count), tri.dual_edges):
        raise DisconnectedSurface(
            f"the gluing of {triangle_count} triangles is not connected")
    return tri


def connected(nodes, edges):
    """Whether ``edges``, pairs of ``nodes``, join all the nodes: a
    union-find with path halving."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in parent}) <= 1


def flower(n):
    """Genus-zero flower triangulation with n punctures (n >= 4).

    Puncture p_i (i < n) sits inside a disk bounded by beta_i, with the arc
    alpha_i doubled inside it as a folded triangle; the (n-1)-gon with sides
    beta_1..beta_{n-1} is fan-triangulated.  Slot layout: folded triangle
    i-1 has beta_i at slot 0 and the doubled alpha_i at slots 1,2.
    """
    if n < 4:
        raise FlowerRequiresNAtLeast4(f"flower needs n >= 4, got {n}")
    pairs = [((i, 1), (i, 2)) for i in range(n - 1)]  # folded 0..n-2
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
    x1 = slot_id(t1, (p + 1) % 3)
    y1 = slot_id(t1, (p + 2) % 3)
    x2 = slot_id(t2, (q + 1) % 3)
    y2 = slot_id(t2, (q + 2) % 3)
    # contents of the four outer sides move to these slots; the new
    # diagonal keeps e's slots.  Nothing needs re-checking: the slots stay
    # paired, T is kept, and with t1 and t2 merged the gluing joins the
    # same triangles as before while the new diagonal joins t1 to t2.
    relocate = {x1: y2, y1: x1, x2: y1, y2: x2}
    gluing = [-1] * (3 * tri.triangle_count)
    edges = []
    for a, b in tri.edges:
        na, nb = relocate.get(a, a), relocate.get(b, b)
        gluing[na], gluing[nb] = nb, na
        edges.append((min(na, nb), max(na, nb)))
    return Triangulation(tri.triangle_count, gluing, edges)


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
    return min(_bfs_signature(tri, t0, r0)
               for t0 in range(tri.triangle_count) for r0 in range(3))


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


# named gluings: the triangle count T and the slot pairs given to ``build``
_GLUINGS = {
    # once-punctured torus: two triangles glued side-for-side
    "ex11": (2, [((0, k), (1, k)) for k in range(3)]),
    # boundary of the tetrahedron; dual graph is K4
    "n4ex": (4, [((0, 0), (2, 2)), ((0, 1), (3, 2)), ((0, 2), (1, 0)),
                 ((1, 1), (3, 1)), ((1, 2), (2, 0)), ((2, 1), (3, 0))]),
    # tetrahedron with one diagonal flipped; dual graph is a 4-cycle with
    # two doubled opposite sides
    "n4ex2": (4, [((0, 0), (3, 2)), ((0, 1), (3, 1)), ((0, 2), (1, 0)),
                  ((1, 1), (2, 0)), ((1, 2), (2, 2)), ((2, 1), (3, 0))]),
    # two folded triangles sharing their single sides: the degenerate
    # (g,n)=(0,3) petal gluing (the flower construction itself needs n>=4)
    "flower:3": (2, [((0, 1), (0, 2)), ((1, 1), (1, 2)), ((0, 0), (1, 0))]),
}


def random_triangulation(rng, triangles):
    """Random connected oriented surface from a random slot pairing of an
    even number of triangles, redrawn until the gluing is connected, at
    most ``RANDOM_DRAWS`` times (TriangulationError beyond)."""
    if triangles < 2 or triangles % 2:
        raise TriangulationError(
            f"a random surface needs an even number T >= 2 of triangles, "
            f"got {triangles}")
    for _ in range(RANDOM_DRAWS):
        slots = list(range(3 * triangles))
        rng.shuffle(slots)
        pairs = [(slots[2 * i], slots[2 * i + 1])
                 for i in range(len(slots) // 2)]
        try:
            return build(triangles, pairs)
        except TriangulationError:
            continue
    raise TriangulationError(
        f"no valid gluing of {triangles} triangles in {RANDOM_DRAWS} draws")


def fixture(name):
    """Named triangulations: ex11, n4ex, n4ex2, flower:<n>, and
    random:<T>:<seed> (``random_triangulation(random.Random(seed), T)``).
    """
    if name in _GLUINGS:
        return build(*_GLUINGS[name])
    if name.startswith("flower:"):
        size = name.split(":", 1)[1]
        try:
            n = int(size)
        except ValueError:
            raise TriangulationError(
                f"flower:<n> needs an integer n, got {size!r}") from None
        return build(*_GLUINGS["flower:3"]) if n == 3 else flower(n)
    if name.startswith("random:"):
        try:
            triangles, seed = (int(x) for x in name.split(":")[1:])
        except ValueError:
            raise TriangulationError(
                f"random:<T>:<seed> needs integers T and seed, got "
                f"{name!r}") from None
        return random_triangulation(random.Random(seed), triangles)
    raise KeyError(f"unknown fixture {name!r}")


def from_json_dict(data):
    """Build from ``{"triangles": T, "gluing": [[[t, s], [t', s']], ...]}``.

    Any other shape, JSON booleans for integers too, raises TriangulationError.
    """
    try:
        count = data["triangles"]
        pairs = [(tuple(a), tuple(b)) for a, b in data["gluing"]]
    except (KeyError, TypeError, ValueError):
        pairs = None
    if pairs is None or not (
            type(count) is int and 2 * len(pairs) == 3 * count
            and all(len(s) == 2 and all(type(x) is int for x in s)
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
