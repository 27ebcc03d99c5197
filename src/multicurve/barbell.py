"""Generators of the coloring monoid via colored subgraphs of the dual graph.

An indecomposable coloring is supported on a "barbell tree": a connected
subgraph of the trivalent dual graph (the triangles, joined by edge i at
``tri.dual_edges[i]``) whose 1-colored edges form disjoint cycles (bells),
whose 2-colored edges are never loops, and which becomes a tree when every
bell is collapsed to a point.  Allowed color triples at a vertex are
(2,2,2), (2,2,0), (2,1,1), (2,2x1), (0,1,1), (0,2x1), (0,0,0).

Enumeration follows that structure.  The bells are the simple cycles, taken
in pairwise vertex-disjoint sets B.  In G/B, the dual graph with each bell
contracted to a node and dual loops and intra-bell chords dropped, the
2-colored chains are exactly the trees whose leaves are all bells, i.e. the
inclusion-minimal Steiner trees of the bell nodes.  The simple barbells
(one or two bells, spanning the coloring cone) come from
``_simple_barbells`` alone: a cycle C is 1 on C, and a disjoint pair gets a
tree per simple path from C1 to C2 with inner vertices off both, from one
depth-first search on the dual graph.  It builds no G/B and visits no set
of three or more bells, so its work grows with the pairs and their paths,
not with the bell sets of every size.  Larger trees are grown path by
path: start at bell 0, and join each bell not yet reached by every simple
path to the tree whose inner nodes avoid it.  A tree splits uniquely into
these paths, so each is emitted once; G/B is connected, so no branch is
empty.

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

from itertools import combinations
from operator import add, sub

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

    __slots__ = ("bells", "chain_edges", "coloring", "simple")

    def __init__(self, bells, chain_edges, coloring, simple):
        self.bells = tuple(sorted(tuple(sorted(b)) for b in bells))
        self.chain_edges = tuple(sorted(chain_edges))
        self.coloring = coloring
        self.simple = simple

    @property
    def degree(self):
        return sum(self.coloring.values)

    @property
    def num_bells(self):
        return len(self.bells)

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


def _adjacency(tri):
    """(edge id, other triangle) pairs of each triangle; no dual loops."""
    adjacency = [[] for _ in range(tri.triangle_count)]
    for i, (a, b) in enumerate(tri.dual_edges):
        if a != b:
            adjacency[a].append((i, b))
            adjacency[b].append((i, a))
    return adjacency


def _cycles(tri):
    """All simple cycles of the dual multigraph of ``tri``, as edge-id sets.

    Loops are 1-edge cycles and parallel pairs 2-edge cycles.  Each cycle
    also records its vertex set.
    """
    adjacency = _adjacency(tri)
    loops = [(frozenset([i]), frozenset([a]))
             for i, (a, b) in enumerate(tri.dual_edges) if a == b]
    found = {}
    for root in range(tri.triangle_count):
        # cycles whose minimum vertex is root
        stack = [(root, [], {root})]
        while stack:
            vertex, path_edges, visited = stack.pop()
            for eid, nxt in adjacency[vertex]:
                if eid in path_edges:
                    continue
                if nxt == root and path_edges:
                    key = frozenset(path_edges + [eid])
                    found.setdefault(key, frozenset(visited))
                elif nxt not in visited and nxt > root:
                    stack.append((nxt, path_edges + [eid],
                                  visited | {nxt}))
    cycles = loops + sorted(found.items(), key=lambda kv: sorted(kv[0]))
    return [(set(edges), set(verts)) for edges, verts in cycles]


def _disjoint_bell_sets(cycles):
    """Nonempty subsets of pairwise vertex-disjoint cycles."""
    result = []

    def rec(start, chosen, used_vertices):
        for i in range(start, len(cycles)):
            edges, verts = cycles[i]
            if used_vertices & verts:
                continue
            picked = chosen + [i]
            result.append(picked)
            rec(i + 1, picked, used_vertices | verts)

    rec(0, [], set())
    return result


def enumerate_barbell_trees(tri):
    """All barbell trees embedded in the trivalent dual graph of ``tri``.

    Returns BarbellTree objects in canonical order (degree, then coloring
    lexicographically); Steiner trees are grown for 3+ bells only.
    """
    cycles = _cycles(tri)
    results = [_to_barbell(tri, bells, chain)
               for _values, bells, chain in _simple_barbells(tri, cycles)]
    for bell_ids in _disjoint_bell_sets(cycles):
        if len(bell_ids) < 3:
            continue
        bells = [cycles[i] for i in bell_ids]
        # G/B: bell j is node -1-j; its edges and chords and the dual loops
        # become self-loops and drop out
        node = list(range(tri.triangle_count))
        for j, (_edges, verts) in enumerate(bells):
            for v in verts:
                node[v] = -1 - j
        adjacency = {}
        for i, (a, b) in enumerate(tri.dual_edges):
            a, b = node[a], node[b]
            if a != b:
                adjacency.setdefault(a, []).append((i, b))
                adjacency.setdefault(b, []).append((i, a))
        for chain in _steiner_trees(adjacency, [-1 - j for j in
                                                range(len(bells))]):
            results.append(_to_barbell(tri, bells, chain))
    results.sort(key=lambda b: (b.degree, b.coloring.values))
    return results


def _simple_barbells(tri, cycles):
    """(values, bells, chain) of every barbell of one or two bells, sorted
    by (degree, values).  A pair's search keeps the vertices a path may
    not enter as a bit mask, C1 and the path so far; it ends on C2."""
    adjacency = _adjacency(tri)
    masks = [sum(1 << v for v in verts) for _edges, verts in cycles]
    found = [(tuple(int(i in c[0]) for i in range(tri.num_edges)), (c,), ())
             for c in cycles]
    for j, k in combinations(range(len(cycles)), 2):
        if masks[j] & masks[k]:
            continue
        ones = list(map(add, found[j][0], found[k][0]))
        stack = [(v, (), masks[j]) for v in cycles[j][1]]
        while stack:
            v, chain, seen = stack.pop()
            if masks[k] >> v & 1:
                values = ones[:]
                for i in chain:
                    values[i] = 2
                found.append((tuple(values), (cycles[j], cycles[k]), chain))
                continue
            seen |= 1 << v
            stack += [(w, chain + (i,), seen) for i, w in adjacency[v]
                      if not seen >> w & 1]
    found.sort(key=lambda f: (sum(f[0]), f[0]))
    return found


def _steiner_trees(adjacency, terminals):
    """Edge lists of the trees whose leaves are all terminals, each once.

    The tree starts at terminals[0]; the first terminal not yet in it is
    joined by each simple path whose inner nodes avoid the tree.
    """
    def join(tree, edges):
        rest = [t for t in terminals if t not in tree]
        if not rest:
            yield edges
        else:
            yield from walk(tree, edges, [rest[0]])

    def walk(tree, edges, path):
        for i, w in adjacency.get(path[-1], ()):
            if w in tree:
                yield from join(tree.union(path), edges + [i])
            elif w not in path:
                yield from walk(tree, edges + [i], path + [w])

    return join({terminals[0]}, [])


def _to_barbell(tri, bells, chain):
    values = [0] * tri.num_edges
    for edges, _verts in bells:
        for i in edges:
            values[i] = 1
    for i in chain:
        values[i] = 2
    return BarbellTree([b[0] for b in bells], chain,
                       Coloring(tri, values), len(bells) <= 2)


def enumerate_simple(tri):
    """The barbell trees of one or two bells, from ``_simple_barbells``."""
    return [_to_barbell(tri, bells, chain)
            for _values, bells, chain in _simple_barbells(tri, _cycles(tri))]


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

