"""Presentation-only exports of polytope complexes.

JSON carries the honest combinatorial poset.  The OFF and SVG writers need
coordinates, which the complex does not have: a deterministic spring
embedding supplies them for display, and both formats carry an explicit
non-metric disclaimer.  Neither participates in golden comparisons.
"""

import json
import math


def complex_to_json(cpx):
    return json.dumps(cpx.to_json_dict(), sort_keys=True,
                      separators=(",", ":")) + "\n"


def _spring_layout(cpx, dim):
    """Deterministic force layout of the 0-cells in R^dim.

    Vertices start on a golden-angle spiral (2d) or sphere (3d) in
    canonical cell order, then relax along the 1-cells.  Purely cosmetic.
    Vertex v sits at ``pos[v]``, its cell number: the 0-cells come first.
    """
    n = len(cpx.cells_of_dim(0))
    pos = []
    golden = math.pi * (3 - math.sqrt(5))
    for i in range(n):
        if dim == 2:
            r = math.sqrt((i + 0.5) / n)
            pos.append([r * math.cos(golden * i), r * math.sin(golden * i)])
        else:
            z = 1 - 2 * (i + 0.5) / n
            r = math.sqrt(max(0.0, 1 - z * z))
            pos.append([r * math.cos(golden * i), r * math.sin(golden * i), z])
    springs = [cpx.facets[e] for e in cpx.cells_of_dim(1)
               if len(cpx.facets[e]) == 2]
    for _ in range(300):
        force = [[0.0] * dim for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                delta = [pos[i][k] - pos[j][k] for k in range(dim)]
                d2 = sum(x * x for x in delta) + 1e-9
                rep = 0.05 / d2
                for k in range(dim):
                    force[i][k] += rep * delta[k]
                    force[j][k] -= rep * delta[k]
        for i, j in springs:
            delta = [pos[i][k] - pos[j][k] for k in range(dim)]
            d = math.sqrt(sum(x * x for x in delta)) + 1e-9
            pull = 0.2 * (d - 1.0) / d
            for k in range(dim):
                force[i][k] -= pull * delta[k]
                force[j][k] += pull * delta[k]
        for i in range(n):
            for k in range(dim):
                pos[i][k] += max(-0.1, min(0.1, force[i][k]))
    return pos


def _polygon_cycle(cpx, face):
    """Vertices of a 2-cell in cyclic order along its boundary edges.

    The cycle starts at the lowest-numbered vertex and steps first to its
    lower neighbour, so it depends on the poset alone.
    """
    adjacency = {}
    for e in cpx.facets[face]:
        if len(cpx.facets[e]) != 2:
            return None
        a, b = cpx.facets[e]
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    if any(len(nbrs) != 2 for nbrs in adjacency.values()):
        return None
    start = min(adjacency)
    cycle = [start]
    prev, cur = start, min(adjacency[start])
    while cur != start:
        cycle.append(cur)
        a, b = adjacency[cur]
        prev, cur = cur, b if a == prev else a
    return cycle


def complex_to_off(cpx):
    """OFF file of the 2-skeleton (for 3-dimensional complexes)."""
    pos = _spring_layout(cpx, 3)
    faces = [cycle for f in cpx.cells_of_dim(2)
             if (cycle := _polygon_cycle(cpx, f))]
    lines = ["OFF",
             "# non-metric spring embedding, display only",
             f"{len(pos)} {len(faces)} 0"]
    for p in pos:
        lines.append(" ".join(f"{x:.6f}" for x in p))
    for face in faces:
        lines.append(str(len(face)) + " " + " ".join(map(str, face)))
    return "\n".join(lines) + "\n"


def complex_to_svg(cpx):
    """SVG drawing of the 1-skeleton (for 1- and 2-dimensional complexes)."""
    pos = _spring_layout(cpx, 2)
    scale, margin = 160.0, 40.0

    def xy(p):
        return (margin + scale * (p[0] + 1.2), margin + scale * (p[1] + 1.2))

    width = height = int(2 * margin + 2.4 * scale)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             "<!-- non-metric spring embedding, display only -->"]
    for e in cpx.cells_of_dim(1):
        ends = cpx.facets[e]
        if len(ends) == 2:
            (x1, y1), (x2, y2) = xy(pos[ends[0]]), xy(pos[ends[1]])
            parts.append(f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" '
                         f'y2="{y2:.1f}" stroke="black" stroke-width="1.5"/>')
    for p in pos:
        x, y = xy(p)
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="crimson"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
