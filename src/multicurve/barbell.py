"""Generators of the coloring monoid via colored subgraphs of the dual graph.

An indecomposable coloring is supported on a "barbell tree": a connected
subgraph of the trivalent dual graph (the triangles, joined by edge i at
``tri.dual_edges[i]``) whose 1-colored edges form disjoint cycles (bells),
whose 2-colored edges are never loops, and which becomes a tree when every
bell is collapsed to a point.  Allowed color triples at a vertex are
(2,2,2), (2,2,0), (2,1,1), (2,2x1), (0,1,1), (0,2x1), (0,0,0).

Enumeration follows that structure, in one producer, ``_barbells``.  The
bells are the simple cycles of ``_cycles``, each with its triangles as a
bit mask, and one stack lists their pairwise vertex-disjoint sets B;
stopped at two bells, it yields the simple barbells that span the coloring
cone and visits no larger set.  With each bell contracted to a point, the
2-colored chains of B are exactly the trees whose leaves are all bells,
i.e. the inclusion-minimal Steiner trees of the bells.  They are grown path
by path from bell 0, on the dual graph itself, with vertex sets as bit
masks: a path starts at the first bell of B not yet joined, holding all of
it, and may leave it from any of its triangles.  A step onto a triangle of
another bell of B takes that whole bell, which may again be left from any
of its triangles; a step onto the tree joins the path to it, and a step
back into the path (a dual loop among them) is not taken.  A held bell
thus acts as one contracted point, and its own edges and chords, which
stay inside the path, are never stepped along.  A tree splits uniquely
into these paths, so each is emitted once; the dual graph is connected, so
every set gets a tree.

``indecomposables`` checks this up to a degree by a sieve: a nonzero
admissible c decomposes iff c - g is admissible for an indecomposable g
of lower degree (a split c = a + b has one with g <= a, and c - g =
(a - g) + b).  Both g and c - g lie componentwise below c, and
``admissible_values`` yields in an order that extends the componentwise
one, so both come before c.  One pass keeps the set of tuples yielded so
far and decides c by looking up c - g for each g kept before it: c - g is
in the set iff it is admissible, and a c - g with a negative entry never
is.  The kept tuples are returned sorted.  ``is_indecomposable``
(exhaustive split search) and ``monoid_generates`` check both by brute
force.
"""

from operator import sub

from .coloring import (
    Coloring,
    admissible_values,
    checkable_triangles,
    require_admissible,
    triangles_ok,
)
from .errors import ZeroColoring


class BarbellTree:
    """Bells (1-colored cycles) plus connecting 2-colored edges."""

    __slots__ = ("bells", "chain_edges", "coloring")

    def __init__(self, bells, chain_edges, coloring):
        self.bells = tuple(sorted(tuple(sorted(b)) for b in bells))
        self.chain_edges = tuple(sorted(chain_edges))
        self.coloring = coloring

    @property
    def degree(self):
        return sum(self.coloring.values)

    @property
    def num_bells(self):
        return len(self.bells)

    @property
    def simple(self):
        return self.num_bells <= 2

    def __repr__(self):
        kind = "simple " if self.simple else ""
        return (f"BarbellTree({kind}bells={self.num_bells}, "
                f"degree={self.degree})")

    def to_json_dict(self):
        return {
            "coloring": list(self.coloring.values),
            "degree": self.degree,
            "simple": self.simple,
            "bells": self.num_bells,
        }


def _bits(mask):
    """The set bits of an int mask, in increasing order."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def _adjacency(tri):
    """(edge id, other triangle) pairs of each triangle, loops twice."""
    adjacency = [[] for _ in range(tri.triangle_count)]
    for i, (a, b) in enumerate(tri.dual_edges):
        adjacency[a].append((i, b))
        adjacency[b].append((i, a))
    return adjacency


def _cycles(tri, adjacency):
    """Every simple cycle of the dual multigraph as (edge ids, triangle
    mask, triangles).  One stack per least triangle (the root) walks up with
    edge and triangle masks and closes on any untaken edge back to the root:
    loops too; a cycle's two directions share one edge mask."""
    found = {}
    for root in range(tri.triangle_count):
        stack = [(root, 0, 1 << root)]
        while stack:
            vertex, edges, verts = stack.pop()
            for i, nxt in adjacency[vertex]:
                if edges >> i & 1:
                    continue
                if nxt == root:
                    found[edges | 1 << i] = verts
                elif nxt > root and not verts >> nxt & 1:
                    stack.append((nxt, edges | 1 << i, verts | 1 << nxt))
    return [(_bits(edges), verts, _bits(verts))
            for edges, verts in found.items()]


def _barbells(tri, max_bells=None):
    """(values, bells, chain) of every barbell tree of at most ``max_bells``
    bells (all when None), sorted by (degree, values); a bell is its edge
    ids.  One stack lists the disjoint bell sets, and one grows each set's
    trees as the module docstring says.  A search state is the tree's
    triangle mask, the open path's, the triangles the path may leave from
    and the chain so far; an empty path means the last one has joined."""
    adjacency = _adjacency(tri)
    cycles = _cycles(tri, adjacency)
    found = []
    sets = [(k, [bell], bell[1]) for k, bell in enumerate(cycles, 1)]
    while sets:
        k, bells, used = sets.pop()
        if max_bells is None or len(bells) < max_bells:
            sets += [(j, bells + [bell], used | bell[1])
                     for j, bell in enumerate(cycles[k:], k + 1)
                     if not used & bell[1]]
        edge_ids = tuple([bell[0] for bell in bells])
        ones = [0] * tri.num_edges
        for i in sum(edge_ids, ()):
            ones[i] = 1
        stack = [(bells[0][1], 0, (), ())]
        while stack:
            tree, path, leave, chain = stack.pop()
            if not path:
                rest = [bell for bell in bells if not tree & bell[1]]
                if not rest:
                    values = ones[:]
                    for i in chain:
                        values[i] = 2
                    found.append((tuple(values), edge_ids, chain))
                    continue
                _edges, path, leave = rest[0]
            for v in leave:
                for i, w in adjacency[v]:
                    if tree >> w & 1:
                        stack.append((tree | path, 0, (), chain + (i,)))
                    elif not path >> w & 1:
                        mask, exits = 1 << w, (w,)
                        if used & mask:        # a bell of the set: all of it
                            _edges, mask, exits = next(
                                bell for bell in bells if bell[1] & mask)
                        stack.append((tree, path | mask, exits, chain + (i,)))
    found.sort(key=lambda f: (sum(f[0]), f[0]))
    return found


def enumerate_barbell_trees(tri):
    """All barbell trees embedded in the trivalent dual graph of ``tri``,
    in canonical order (degree, then coloring lexicographically): every
    tree of ``_barbells``."""
    return [BarbellTree(bells, chain, Coloring(tri, values))
            for values, bells, chain in _barbells(tri)]


def enumerate_simple(tri):
    """The barbell trees of one or two bells, in the same order: those of
    ``_barbells`` stopped at two bells, so no larger bell set is listed."""
    return [BarbellTree(bells, chain, Coloring(tri, values))
            for values, bells, chain in _barbells(tri, 2)]


def indecomposables(tri, max_degree):
    """Indecomposable value tuples of degree <= max_degree, in
    lexicographic order: the sieve of the module docstring."""
    seen = set()
    found = []
    for v in admissible_values(tri, max_degree):
        if any(v) and not any(tuple(map(sub, v, g)) in seen for g in found):
            found.append(v)
        seen.add(v)
    return sorted(found)


# ---------------------------------------------------------------------------
# brute-force oracles


def is_indecomposable(tri, v):
    """Search every componentwise split v = v' + v'' for admissible parts.

    Exhaustive (with per-triangle pruning), so usable as an independent
    oracle for the enumeration above.
    """
    values = require_admissible(tri, v)
    if all(x == 0 for x in values):
        raise ZeroColoring("zero coloring has no decomposition status")

    nedges = tri.num_edges
    ready = checkable_triangles(tri, range(nedges))
    part = [0] * nedges
    rest = [0] * nedges

    def rec(e):
        if e == nedges:
            return any(part) and any(rest)  # nontrivial split found
        for x in range(values[e] + 1):
            part[e] = x
            rest[e] = values[e] - x
            if triangles_ok(ready[e], part) and triangles_ok(ready[e], rest):
                if rec(e + 1):
                    return True
        part[e] = rest[e] = 0
        return False

    return not rec(0)


def monoid_generates(tri, generators, v):
    """True iff v is a nonnegative integer combination of the generators.

    Bounded-depth exact search: every generator has positive degree, so
    the remaining degree strictly decreases.  Failures are memoized.
    """
    values = require_admissible(tri, v)
    gens = []
    for g in generators:
        gv = g.coloring.values if isinstance(g, BarbellTree) else \
            require_admissible(tri, g)
        if any(gv):
            gens.append(gv)
    dead = set()

    def rec(target):
        if not any(target):
            return True
        if target in dead:
            return False
        for g in gens:
            if all(a >= b for a, b in zip(target, g)):
                if rec(tuple(a - b for a, b in zip(target, g))):
                    return True
        dead.add(target)
        return False

    return rec(values)

