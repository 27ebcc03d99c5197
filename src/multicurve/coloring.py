"""Admissible edge colorings: the integer coordinates of multicurves.

A coloring assigns a nonnegative integer to every edge of a triangulation,
in the triangulation's canonical edge order.  It is admissible when every
triangle sees an even total and the three side colors satisfy the triangle
inequalities; folded triangles read their doubled side twice, which reduces
the conditions to ``2 | v_beta`` and ``v_beta <= 2 v_alpha``.

All arithmetic is over Python ints (arbitrary precision).
"""

import json

from .errors import (
    EdgeBalanceViolated,
    LengthMismatch,
    NotAdmissible,
    TriangulationMismatch,
)
from .triangulation import slot_id, slot_pair


class Coloring:
    """Integer vector bound to a specific triangulation."""

    __slots__ = ("tri", "values")

    def __init__(self, tri, values):
        values = tuple(int(v) for v in values)
        if len(values) != tri.num_edges:
            raise LengthMismatch(
                f"coloring has {len(values)} entries, triangulation has "
                f"{tri.num_edges} edges")
        if any(v < 0 for v in values):
            raise NotAdmissible("negative entries")
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
        bind_same(self, other)
        return Coloring(self.tri, tuple(a + b for a, b in
                                        zip(self.values, other.values)))

    def to_json_dict(self, fixture_name=None):
        tag = fixture_name if fixture_name else self.tri.gluing_hash()
        return {"triangulation": tag, "coloring": list(self.values)}

    def to_json(self, fixture_name=None):
        return json.dumps(self.to_json_dict(fixture_name), sort_keys=True)


def as_values(tri, v):
    """Accept a Coloring or raw sequence; return a checked tuple."""
    if isinstance(v, Coloring):
        if v.tri != tri:
            raise TriangulationMismatch(
                "coloring is bound to a different triangulation")
        return v.values
    values = tuple(int(x) for x in v)
    if len(values) != tri.num_edges:
        raise LengthMismatch(
            f"expected {tri.num_edges} entries, got {len(values)}")
    return values


def bind_same(c1, c2):
    if c1.tri != c2.tri:
        raise TriangulationMismatch(
            "colorings bound to different triangulations")


def triangle_side_colors(tri, values, t):
    """Colors seen by slots 0,1,2 of triangle t (doubled sides repeat)."""
    return tuple(values[e] for e in tri.triangle_edges(t))


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


def checkable_triangles(tri):
    """Side triples grouped by the largest edge index they touch.

    Entry e lists the triangles whose sides are all assigned once edges
    0..e are: a search assigning edges in index order checks them there.
    """
    ready = [[] for _ in range(tri.num_edges)]
    for t in range(tri.triangle_count):
        sides = tri.triangle_edges(t)
        ready[max(sides)].append(sides)
    return ready


def is_admissible(tri, v):
    values = as_values(tri, v)
    if any(x < 0 for x in values):
        return False
    return triangles_ok(
        [tri.triangle_edges(t) for t in range(tri.triangle_count)], values)


def require_admissible(tri, v):
    values = as_values(tri, v)
    if not is_admissible(tri, values):
        raise NotAdmissible(f"coloring {values} is not admissible")
    return values


def corner_coords(tri, v):
    """Corner vector u with u_theta = (v_e + v_e' - v_e'')/2.

    Corner theta = (t, k) lies between the sides at slots k+1 and k+2 and
    opposite the side at slot k.  Entries are indexed by corner id 3t+k.
    """
    values = require_admissible(tri, v)
    u = []
    for t in range(tri.triangle_count):
        side = triangle_side_colors(tri, values, t)
        for k in range(3):
            u.append((side[(k + 1) % 3] + side[(k + 2) % 3] - side[k]) // 2)
    return tuple(u)


def from_corners(tri, u):
    """Invert corner_coords on balanced nonnegative corner vectors.

    Each edge must see the same sum of adjacent corner values from both of
    its slots (L_e(u) = 0); otherwise EdgeBalanceViolated is raised.
    """
    u = tuple(int(x) for x in u)
    if len(u) != 3 * tri.triangle_count:
        raise LengthMismatch(
            f"expected {3 * tri.triangle_count} corners, got {len(u)}")
    if any(x < 0 for x in u):
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


def peripheral_colorings(tri):
    """Colorings of the small loops around each puncture.

    The loop around p_i crosses every edge once per endpoint at p_i, so
    v(a_i)_e counts edge-ends of e at vertex i; their sum over i is the
    all-twos vector.
    """
    result = []
    for i in range(tri.punctures):
        values = [0] * tri.num_edges
        for e in range(tri.num_edges):
            a, b = tri.edge_endpoints(e)
            values[e] = (a == i) + (b == i)
        result.append(Coloring(tri, values))
    return result


def degree(tri, v):
    """Total geometric intersection number with the triangulation's edges."""
    return sum(require_admissible(tri, v))


def relative_degree(tri, v):
    """Degree after stripping all peripheral components."""
    from .tracing import strip_peripheral
    stripped, _counts = strip_peripheral(tri, v)
    return sum(stripped.values)


def enumerate_admissible(tri, max_degree):
    """All admissible colorings with degree <= max_degree, in lexicographic
    order.  Recursive with per-triangle pruning: a triangle is checked as
    soon as all three of its sides are assigned."""
    nedges = tri.num_edges
    ready = checkable_triangles(tri)
    out = []
    values = [0] * nedges

    def rec(e, budget):
        if e == nedges:
            out.append(Coloring(tri, values))
            return
        for x in range(budget + 1):
            values[e] = x
            if triangles_ok(ready[e], values):
                rec(e + 1, budget - x)
        values[e] = 0

    rec(0, max_degree)
    return out
