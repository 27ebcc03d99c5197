"""Admissible edge colorings: the integer coordinates of multicurves.

A coloring assigns an integer to every edge of a triangulation, in its
canonical edge order; ``Coloring`` is the one conversion of raw entries.
It is admissible when every triangle sees an even total and the three side
colors satisfy the triangle inequalities (so no entry is negative); folded
triangles read their doubled side twice, which reduces the conditions to
``2 | v_beta`` and ``v_beta <= 2 v_alpha``.

``admissible_values`` lists the admissible colorings up to a degree by a
depth-first search that assigns the edges in triangle-walk order
(``walk_order``), so the tuples come lexicographically ordered in the
walk-order coordinates, not in the canonical ones.

A coloring is admissible iff its corner coordinates u_theta are
non-negative integers, and every u_theta is 1 on the all-twos coloring
sum_p a_p.  So the interior colorings (``is_interior``: every u_theta >= 1)
are exactly sum_p a_p + M, M the admissible ones: the monoid ring of M is
Gorenstein, its canonical module generated in degree 2E (Bruns-Herzog 1993,
Thm 6.3.5).  This is log Calabi-Yau for the monoid, the toric shadow of the
paper's claim, not the claim itself.

All arithmetic is over Python ints (arbitrary precision).
"""

import operator

from .errors import (
    EdgeBalanceViolated,
    LengthMismatch,
    NotAdmissible,
    TriangulationMismatch,
)
from .triangulation import slot_id, slot_pair


class Coloring:
    """Exact integer vector bound to a triangulation: the one conversion of
    raw entries (``operator.index``, else TypeError; then the length, else
    LengthMismatch).  Admissibility is checked where it is used."""

    __slots__ = ("tri", "values")

    def __init__(self, tri, values):
        values = tuple(map(operator.index, values))
        if len(values) != tri.num_edges:
            raise LengthMismatch(
                f"coloring has {len(values)} entries, triangulation has "
                f"{tri.num_edges} edges")
        self.tri = tri
        self.values = values

    def __eq__(self, other):
        return (isinstance(other, Coloring) and self.tri == other.tri
                and self.values == other.values)

    def __hash__(self):
        return hash((self.tri, self.values))

    def __repr__(self):
        return f"Coloring{self.values}"

    def __add__(self, other):
        if not isinstance(other, Coloring):
            return NotImplemented
        if other.tri != self.tri:
            raise TriangulationMismatch(
                "colorings bound to different triangulations")
        return Coloring(self.tri, map(operator.add, self.values, other.values))

    def to_json_dict(self, fixture_name=None):
        tag = fixture_name if fixture_name else self.tri.gluing_hash()
        return {"triangulation": tag, "coloring": list(self.values)}


def triangles_ok(triangles, values):
    """Parity and triangle inequalities on each side-index triple.

    ``triangles`` lists the edge indices carried by the three sides of each
    triangle to check; ``values`` is indexed by edge.
    """
    for i, j, k in triangles:
        a = values[i]
        b = values[j]
        c = values[k]
        if (a + b + c) % 2 or a > b + c or b > a + c or c > a + b:
            return False
    return True


def walk_order(tri):
    """Edges in triangle-walk order, for searches that assign edges one
    at a time.

    Repeatedly take the triangle with the most sides already ordered (ties
    to the lowest index) and append its new sides in slot order, so every
    triangle becomes checkable soon after its first side is assigned.
    """
    order = []
    todo = list(tri.side_edges)
    while todo:
        sides = max(todo, key=lambda ss: sum(e in order for e in ss))
        todo.remove(sides)
        order += [e for e in dict.fromkeys(sides) if e not in order]
    return order


def checkable_triangles(tri, order):
    """Side triples grouped by the position in ``order`` of their last
    side: a search assigning edges in that order checks entry i once
    order[0..i] are assigned."""
    position = {e: i for i, e in enumerate(order)}
    ready = [[] for _ in order]
    for sides in tri.side_edges:
        ready[max(position[e] for e in sides)].append(sides)
    return ready


def is_admissible(tri, v):
    try:
        require_admissible(tri, v)
    except NotAdmissible:
        return False
    return True


def require_admissible(tri, v):
    """The values of v, a Coloring bound to tri (else
    TriangulationMismatch) or raw entries given to ``Coloring``, once every
    triangle passes ``triangles_ok`` (else NotAdmissible)."""
    if not isinstance(v, Coloring):
        v = Coloring(tri, v)
    elif v.tri != tri:
        raise TriangulationMismatch(
            "coloring is bound to a different triangulation")
    # no sign pass: x <= y + z and y <= x + z give z >= 0 on every side
    if not triangles_ok(tri.side_edges, v.values):
        raise NotAdmissible(f"coloring {v.values} is not admissible")
    return v.values


def corner_coords(tri, v):
    """Corner vector u with u_theta = (v_e + v_e' - v_e'')/2.

    Corner theta = (t, k) lies between the sides at slots k+1 and k+2 and
    opposite the side at slot k.  Entries are indexed by corner id 3t+k.
    """
    return corners_unchecked(tri, require_admissible(tri, v))


def corners_unchecked(tri, values):
    """corner_coords of values already known to be admissible."""
    u = []
    for i, j, k in tri.side_edges:
        a, b, c = values[i], values[j], values[k]
        h = (a + b + c) // 2  # exact: admissible sums are even
        u += (h - a, h - b, h - c)
    return tuple(u)


def from_corners(tri, u):
    """Invert corner_coords on balanced nonnegative corner vectors.

    Each edge must see the same sum of adjacent corner values from both of
    its slots (L_e(u) = 0); otherwise EdgeBalanceViolated is raised.
    """
    u = tuple(map(operator.index, u))
    if len(u) != 3 * tri.triangle_count:
        raise LengthMismatch(
            f"expected {3 * tri.triangle_count} corners, got {len(u)}")
    if min(u, default=0) < 0:
        raise EdgeBalanceViolated("negative corner values")
    values = [None] * tri.num_edges

    def side_sum(s):
        t, k = slot_pair(s)
        # slot k serves corners k+1 and k+2 of its triangle
        return u[slot_id(t, (k + 1) % 3)] + u[slot_id(t, (k + 2) % 3)]

    for e, (s1, s2) in enumerate(tri.edges):
        v1, v2 = side_sum(s1), side_sum(s2)
        if v1 != v2:
            raise EdgeBalanceViolated(
                f"edge {e}: corner sums {v1} != {v2}")
        values[e] = v1
    return Coloring(tri, values)


def is_interior(tri, v):
    """True iff the coloring lies in the interior of the coloring cone,
    i.e. every corner coordinate is strictly positive."""
    return all(x > 0 for x in corner_coords(tri, v))


def peripheral_edges(tri, p):
    """The edges the small loop a_p around puncture p crosses, once per
    crossing.

    a_p crosses each edge once per edge-end at p.  Corner (t, k) sits at
    the source of slot (t, k+2), and every edge-end at p is the source of
    one slot, so the corners at p list each edge-end once: O(valence).
    """
    side_edges = tri.side_edges
    return [side_edges[c // 3][(c + 2) % 3] for c in tri.vertices[p]]


def peripheral_colorings(tri):
    """Colorings of the small loops around each puncture; their sum is the
    all-twos vector."""
    loops = []
    for p in range(tri.punctures):
        loop = [0] * tri.num_edges
        for e in peripheral_edges(tri, p):
            loop[e] += 1
        loops.append(Coloring(tri, loop))
    return loops


def degree(tri, v):
    """Total geometric intersection number with the triangulation's edges."""
    return sum(require_admissible(tri, v))


def admissible_values(tri, max_degree):
    """Yield the value tuples of all admissible colorings with degree <=
    max_degree.  A depth-first search assigns the edges in ``walk_order``
    (-1 while unassigned) and checks a triangle as soon as all three of its
    sides are assigned, so the tuples come in lexicographic order of their
    walk-order coordinates: a linear extension of the componentwise order.
    """
    order = walk_order(tri)
    ready = checkable_triangles(tri, order)
    nedges = len(order)
    values = [-1] * nedges
    budget = [max_degree] * (nedges + 1)  # degree left for positions i on
    i = 0
    while i >= 0:
        if i == nedges:
            yield tuple(values)
            i -= 1
            continue
        e = order[i]
        values[e] += 1
        if values[e] > budget[i]:
            values[e] = -1
            i -= 1
        elif triangles_ok(ready[i], values):
            budget[i + 1] = budget[i] - values[e]
            i += 1


def enumerate_admissible(tri, max_degree):
    """admissible_values as Colorings, in the same order."""
    return [Coloring(tri, v) for v in admissible_values(tri, max_degree)]
