"""Reconstructing the multicurve behind an admissible coloring.

Place v_e points on edge e, indexed by distance from the edge's canonical
first endpoint (the source vertex of its lower slot; the gluing identifies
the indexings on both triangle sides).  Inside each triangle, the c-th point
from a corner on one adjacent side connects to the c-th point from that
corner on the other adjacent side, for c = 1..u_theta.  The resulting arcs
close up into strand cycles: the components of the multicurve.
"""

from .coloring import (
    Coloring,
    corner_coords,
    peripheral_colorings,
    require_admissible,
)
from .triangulation import slot_id


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


def _point_index(tri, values, slot, e, pos_from_source):
    """Edge-point index of the point at ``pos_from_source`` on a slot
    carrying edge e.

    The canonical origin of an edge is the source of its lower slot, which
    the orientation-reversing gluing identifies with the target of the
    higher slot.
    """
    if slot == tri.edges[e][0]:
        return e, pos_from_source
    return e, values[e] - 1 - pos_from_source


def _arcs(tri, values):
    """Port-to-port matching of strand ends inside all triangles.

    A port is ((edge, point), slot): the end of the strand through that
    point on the side of the given slot.
    """
    u = corner_coords(tri, values)
    match = {}
    for t, sides in enumerate(tri.side_edges):
        for k in range(3):
            a = slot_id(t, (k + 1) % 3)   # corner at target of a
            b = slot_id(t, (k + 2) % 3)   # corner at source of b
            ea, eb = sides[(k + 1) % 3], sides[(k + 2) % 3]
            for c in range(1, u[slot_id(t, k)] + 1):
                na = _point_index(tri, values, a, ea, values[ea] - c)
                nb = _point_index(tri, values, b, eb, c - 1)
                match[(na, a)] = (nb, b)
                match[(nb, b)] = (na, a)
    return match


def trace_components(tri, v):
    """Decompose an admissible coloring into its strand cycles.

    Deterministic: components are reported by their lowest (edge, point)
    crossing, traversal starting through that edge's lower slot.
    """
    values = require_admissible(tri, v)
    match = _arcs(tri, values)
    peripherals = {p.values: i for i, p in enumerate(peripheral_colorings(tri))}

    nodes = [(e, i) for e in range(tri.num_edges) for i in range(values[e])]
    seen = set()
    components = []
    for start in nodes:
        if start in seen:
            continue
        cycle = []
        node = start
        slot = tri.edges[start[0]][0]
        while True:
            seen.add(node)
            cycle.append(node)
            node2, slot2 = match[(node, slot)]
            # cross edge at node2: continue through its other slot
            lo, hi = tri.edges[node2[0]]
            slot = hi if slot2 == lo else lo
            node = node2
            if node == start and slot == tri.edges[start[0]][0]:
                break
        counts = [0] * tri.num_edges
        for e, _i in cycle:
            counts[e] += 1
        comp_coloring = Coloring(tri, counts)
        components.append(TracedComponent(
            cycle, comp_coloring, peripherals.get(comp_coloring.values)))
    return components


def strip_peripheral(tri, v):
    """Remove all peripheral components; return (coloring, counts).

    counts[i] is the number of parallel copies of the loop around puncture
    p_i that were removed.  One trace pass finds every component, so
    subtracting its peripheral ones leaves none behind.
    """
    values = require_admissible(tri, v)
    counts = [0] * tri.punctures
    for comp in trace_components(tri, values):
        if comp.peripheral is not None:
            counts[comp.peripheral] += 1
            values = tuple(a - b for a, b in
                           zip(values, comp.coloring.values))
    return Coloring(tri, values), counts


def geometric_sum(tri, v, w):
    """Coloring of the geometric sum of the two underlying multicurves.

    This is plain coordinatewise addition; the sign the skein product
    attaches to the leading term is out of scope here.
    """
    values = require_admissible(tri, v)
    other = require_admissible(tri, w)
    return Coloring(tri, [a + b for a, b in zip(values, other)])
