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
"""

from .coloring import (
    Coloring,
    corners_unchecked,
    peripheral_values,
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
    lower slot, so cycles come in order of that crossing.
    """
    u = corners_unchecked(tri, values)
    gluing = tri.gluing
    slot_edge = [e for sides in tri.side_edges for e in sides]
    # the loop a_p crosses the edges once per corner at p, so only a cycle
    # of that length can be peripheral; the loops are built at the first one
    valences = {len(corners) for corners in tri.vertices}
    peripherals = None
    seen = [[False] * v for v in values]
    for e0, (lo, _hi) in enumerate(tri.edges):
        for i0 in range(values[e0]):
            if seen[e0][i0]:
                continue
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
            counts = tuple(counts)
            peripheral = None
            if len(cycle) in valences:
                if peripherals is None:
                    peripherals = {
                        p: i for i, p in enumerate(peripheral_values(tri))}
                peripheral = peripherals.get(counts)
            yield cycle, counts, peripheral


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
    p_i that were removed.  One trace pass finds every component, so
    subtracting its peripheral ones leaves none behind.
    """
    values = require_admissible(tri, v)
    stripped = list(values)
    counts = [0] * tri.punctures
    for _cycle, part, peripheral in _trace(tri, values):
        if peripheral is not None:
            counts[peripheral] += 1
            stripped = [a - b for a, b in zip(stripped, part)]
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
