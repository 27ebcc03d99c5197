"""Generators of the coloring monoid via colored subgraphs of the dual graph.

An indecomposable coloring is supported on a "barbell tree": a connected
subgraph of the trivalent dual graph whose 1-colored edges form disjoint
cycles (bells), whose 2-colored edges are never loops, and which becomes a
tree when every bell is collapsed to a point.  Allowed color triples at a
vertex are (2,2,2), (2,2,0), (2,1,1), (2,2x1), (0,1,1), (0,2x1), (0,0,0).

Enumeration follows that structure: enumerate bells (cycles), pick pairwise
vertex-disjoint subsets, then connect them with 2-colored edge sets whose
contraction is a tree.  Brute-force indecomposability and monoid-membership
oracles are provided to check the enumeration independently.
"""

from itertools import combinations

from .coloring import (
    Coloring,
    checkable_triangles,
    require_admissible,
    triangles_ok,
)
from .errors import ZeroColoring
from .linalg import rational_feasible
from .triangulation import DualGraph


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


def _cycles(dual):
    """All simple cycles of the dual multigraph, as edge-id frozensets.

    Loops are 1-edge cycles and parallel pairs 2-edge cycles.  Each cycle
    also records its vertex set.
    """
    adjacency = [[] for _ in range(dual.num_vertices)]
    loops = []
    for i, (a, b) in enumerate(dual.edges):
        if a == b:
            loops.append((frozenset([i]), frozenset([a])))
        else:
            adjacency[a].append((i, b))
            adjacency[b].append((i, a))

    found = {}
    for root in range(dual.num_vertices):
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


def connected(vertex_sets, edge_ends):
    """Union-find connectivity of a hypergraph: vertex groups + edges."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent.setdefault(x, x)
        parent.setdefault(y, y)
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for group in vertex_sets:
        group = list(group)
        for v in group:
            parent.setdefault(v, v)
        for v in group[1:]:
            union(group[0], v)
    for a, b in edge_ends:
        union(a, b)
    roots = {find(x) for x in parent}
    return len(roots) <= 1


def enumerate_barbell_trees(tri):
    """All barbell trees embedded in the trivalent dual graph of ``tri``.

    Returns BarbellTree objects in canonical order (degree, then coloring
    lexicographically).
    """
    dual = DualGraph(tri)
    cycles = _cycles(dual)
    nedges = len(dual.edges)
    loops = {i for i in range(nedges) if dual.is_loop(i)}

    results = []
    for bell_ids in _disjoint_bell_sets(cycles):
        bells = [cycles[i] for i in bell_ids]
        bell_edges = set().union(*(b[0] for b in bells))
        bell_vertices = set().union(*(b[1] for b in bells))
        candidates = [i for i in range(nedges)
                      if i not in bell_edges and i not in loops]
        for size in range(len(candidates) + 1):
            for chain in combinations(candidates, size):
                if _valid_tree(dual, bells, bell_vertices, chain):
                    results.append(_to_barbell(
                        tri, dual, bells, bell_vertices, chain))
    results.sort(key=lambda b: (b.degree, b.coloring.values))
    return results


def _valid_tree(dual, bells, bell_vertices, chain):
    degree = {}
    for i in chain:
        a, b = dual.edges[i]
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    steiner = set()
    for v, d in degree.items():
        # a bell vertex has one non-bell edge, so only others are checked
        if v not in bell_vertices:
            if d not in (2, 3):
                return False
            steiner.add(v)
    # contraction of the bells must be a tree
    if len(chain) != len(bells) + len(steiner) - 1:
        return False
    return connected([b[1] for b in bells] + [{v} for v in steiner],
                     [dual.edges[i] for i in chain])


def _to_barbell(tri, dual, bells, bell_vertices, chain):
    values = [0] * len(dual.edges)
    for edges, _verts in bells:
        for i in edges:
            values[i] = 1
    for i in chain:
        values[i] = 2
    if len(bells) == 1:
        simple = len(chain) == 0
    elif len(bells) == 2:
        counts = {}
        for i in chain:
            for v in dual.edges[i]:
                if v not in bell_vertices:
                    counts[v] = counts.get(v, 0) + 1
        simple = all(d == 2 for d in counts.values())
    else:
        simple = False
    return BarbellTree([b[0] for b in bells], chain,
                       Coloring(tri, values), simple)


def enumerate_simple(tri):
    return [b for b in enumerate_barbell_trees(tri) if b.simple]


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
    ready = checkable_triangles(tri)
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


def in_rational_cone(simple_barbells, v):
    """Exact LP feasibility: is v a nonnegative rational combination of the
    simple barbell colorings?"""
    columns = [list(b.coloring.values) for b in simple_barbells]
    return rational_feasible(columns, list(v.values if isinstance(v, Coloring)
                                           else v))
