"""Reconstructing the multicurve behind an admissible coloring.

Place v_e points on edge e, indexed by distance from the edge's canonical
first endpoint (the source vertex of its lower slot; the gluing identifies
the indexings on both triangle sides).  Inside each triangle, the c-th point
from a corner on one adjacent side connects to the c-th point from that
corner on the other adjacent side, for c = 1..u_theta.  The resulting arcs
close up into strand cycles: the components of the multicurve.

The tracer steps through these arcs with the corner counts u alone.  A
strand sits at (slot s = 3t+k, j), j counting points from the source of
slot s; slot k meets corner k+1 at its source and corner k+2 at its
target.  If j < u[3t + (k+1)%3], the arc turns at the source corner and
leaves through slot k+2 at index v(k+2) - 1 - j; otherwise it turns at the
target corner and leaves through slot k+1 at index v(k) - 1 - j.  Crossing
to ``gluing[out]`` reverses the index to v(e) - 1 - index, which gives j
back after a source turn and j + u[3t+k] - u[3t + (k+1)%3] after a target
turn.  The point (e, i) is j on the lower slot of e and v(e) - 1 - j on
the upper one.

Stripping traces nothing: the k-th innermost arcs at p's corners close up
into a copy of the loop a_p iff every corner of p carries k arcs or more.
"""

from .coloring import (
    Coloring,
    corners_unchecked,
    peripheral_edges,
    require_admissible,
)


class TracedComponent:
    """One strand cycle: crossings, its own coloring, peripheral tag."""

    __slots__ = ("cycle", "coloring", "peripheral")

    def __init__(self, cycle, coloring, peripheral):
        self.cycle = tuple(cycle)
        self.coloring = coloring
        self.peripheral = peripheral  # puncture index or None

    @property
    def length(self):
        return len(self.cycle)

    def __repr__(self):
        tag = f", peripheral at p{self.peripheral}" \
            if self.peripheral is not None else ""
        return f"TracedComponent(length={self.length}{tag})"

    def to_json_dict(self):
        return {
            "coloring": list(self.coloring.values),
            "length": self.length,
            "peripheral": self.peripheral,
        }


def _trace(tri, values):
    """Yield (cycle, counts, peripheral) for each strand cycle of the
    admissible ``values``, by the step rule of the module docstring.

    A cycle starts at its lowest (edge, point) crossing, on the edge's
    lower slot, so cycles come in order of that crossing; the search for
    starts ends with the last unvisited crossing.
    """
    u = corners_unchecked(tri, values)
    gluing = tri.gluing
    slot_edge = [e for sides in tri.side_edges for e in sides]
    seen = [[False] * v for v in values]
    unvisited = sum(values)
    for e0, (lo, _hi) in enumerate(tri.edges):
        for i0 in range(values[e0]):
            if seen[e0][i0]:
                continue
            # a_p turns only at corners of p, so the one puncture whose
            # loop this cycle can be is that of its first turning corner
            k = lo % 3
            source = lo - k + (k + 1) % 3
            p = tri.corner_vertex[
                source if i0 < u[source] else lo - k + (k + 2) % 3]
            cycle = []
            counts = [0] * len(values)
            s, j = lo, i0
            while True:
                k = s % 3
                t3 = s - k
                e = slot_edge[s]
                i = j if s < gluing[s] else values[e] - 1 - j
                seen[e][i] = True
                cycle.append((e, i))
                counts[e] += 1
                source = t3 + (k + 1) % 3
                if j >= u[source]:
                    j += u[s] - u[source]
                    s = gluing[source]
                else:
                    s = gluing[t3 + (k + 2) % 3]
                if s == lo and j == i0:
                    break
            # turning only at corners of p is not enough (ex11's (0, 1, 1)
            # does), so the counts are compared with a_p itself
            peripheral = None
            if len(cycle) == len(tri.vertices[p]):
                left = counts.copy()
                for e in peripheral_edges(tri, p):
                    left[e] -= 1
                if not any(left):
                    peripheral = p
            yield cycle, tuple(counts), peripheral
            unvisited -= len(cycle)
            if not unvisited:
                return


def trace_components(tri, v):
    """Decompose an admissible coloring into its strand cycles.

    Deterministic: components are reported by their lowest (edge, point)
    crossing, traversal starting through that edge's lower slot.
    """
    values = require_admissible(tri, v)
    return [TracedComponent(cycle, Coloring(tri, counts), peripheral)
            for cycle, counts, peripheral in _trace(tri, values)]


def strip_peripheral(tri, v):
    """Remove all peripheral components; return (coloring, counts).

    counts[i] is the number of parallel copies of the loop around puncture
    p_i that were removed: the least corner coordinate at p_i, read off
    without tracing (module docstring).
    """
    values = require_admissible(tri, v)
    u = corners_unchecked(tri, values)
    stripped = list(values)
    counts = [min([u[c] for c in corners]) for corners in tri.vertices]
    for p, k in enumerate(counts):
        if k:
            for e in peripheral_edges(tri, p):
                stripped[e] -= k
    return Coloring(tri, stripped), counts


def relative_degree(tri, v):
    """Degree after stripping all peripheral components."""
    stripped, _counts = strip_peripheral(tri, v)
    return sum(stripped.values)


def geometric_sum(tri, v, w):
    """Coloring of the geometric sum of the two underlying multicurves.

    This is plain coordinatewise addition; the sign the skein product
    attaches to the leading term is out of scope here.
    """
    values = require_admissible(tri, v)
    other = require_admissible(tri, w)
    return Coloring(tri, [a + b for a, b in zip(values, other)])
