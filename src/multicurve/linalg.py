"""Exact integer linear algebra: one sparse Smith-form elimination.

Everything here works over Python ints (and fractions.Fraction for the
rank), so results are exact; numpy is deliberately not used.  A matrix is
held as a dict of sparse rows plus a column index, which suits cellular
boundary maps: their entries are +-1 and each column holds only the few
facets of one cell, so the 53,854-cell complex of a genus-2 surface with
two punctures is in reach.  ``integer_rank`` cross-checks the dimension of
a face lattice or a relative complex against the rank of its rays;
``smith_normal_form_diagonal`` feeds ``homology_from_boundaries``.  The
elimination follows Kaczynski-Mischaikow-Mrozek, Computational Homology
(2004), ch. 3-4: take the sparsest column and its smallest entry as pivot.
"""

from heapq import heapify, heappop, heappush
from math import gcd


def _pivots(rows):
    """Absolute pivots of a sparse Smith-form elimination of ``rows``.

    ``rows`` is an iterable of rows, each a sequence or a {column: entry}
    dict.  The pivot column is the one with fewest entries, the pivot its
    entry of least absolute value (the shorter row on a tie).  The other
    rows subtract floor-quotient multiples of the pivot row, then the pivot
    row is reduced modulo the pivot by column operations, which touch no
    other row once the column is clear; a nonzero remainder either way
    becomes the new pivot.  When both are clear, |pivot| is recorded and
    its row and column are dropped.  Each restart shrinks |pivot|, so this
    ends for ints and for rationals (all multiples of one 1/L).
    """
    mat, cols = {}, {}
    for i, row in enumerate(rows):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        mat[i] = {j: x for j, x in items if x}
        for j in mat[i]:
            cols.setdefault(j, set()).add(i)
    heap = [(len(rs), j) for j, rs in cols.items()]
    heapify(heap)
    pivots = []
    while heap:
        size, first = heappop(heap)
        if not size or len(cols.get(first, ())) != size:
            continue                        # stale entry or emptied column
        j = first
        while True:
            i = min(cols[j], key=lambda r: (abs(mat[r][j]), len(mat[r])))
            p, prow = mat[i][j], mat[i]
            for r in [r for r in cols[j] if r != i]:
                q, row = mat[r][j] // p, mat[r]
                for k, x in prow.items():
                    y = row.get(k, 0) - q * x
                    if y:
                        row[k] = y
                        cols[k].add(r)
                    else:
                        del row[k]
                        cols[k].discard(r)
                    heappush(heap, (len(cols[k]), k))
            if len(cols[j]) > 1:
                continue
            for k in [k for k in prow if k != j]:
                prow[k] %= p
                if not prow[k]:
                    del prow[k]
                    cols[k].discard(i)
                    heappush(heap, (len(cols[k]), k))
            if len(prow) > 1:
                j = min((k for k in prow if k != j),
                        key=lambda k: abs(prow[k]))
                continue
            pivots.append(abs(p))
            del mat[i], cols[j]
            break
        if first in cols:                   # the pivot moved off it
            heappush(heap, (len(cols[first]), first))
    return pivots


def integer_rank(rows):
    """Rank over Q of a matrix given as an iterable of rows (ints or
    Fractions): the number of pivots of the Smith-form elimination."""
    return len(_pivots(rows))


def smith_normal_form_diagonal(rows):
    """Diagonal of the Smith normal form of an integer matrix.

    ``rows`` are sequences or {column: entry} dicts.  Returns the list of
    nonzero invariant factors d_1 | d_2 | ... (all positive).  Only the
    diagonal is computed; the unimodular transforms are not tracked.
    """
    diag = _pivots(rows)
    # enforce divisibility d_k | d_{k+1}
    changed = True
    while changed:
        changed = False
        for k in range(len(diag) - 1):
            a, b = diag[k], diag[k + 1]
            if b % a != 0:
                g = gcd(a, b)
                diag[k], diag[k + 1] = g, a * b // g
                changed = True
    return diag


def homology_from_boundaries(boundaries, num_cells):
    """Integral homology of a chain complex from its boundary matrices.

    ``boundaries[k]`` is the matrix of the boundary map C_k -> C_{k-1},
    given as a list of rows, one per (k-1)-cell, each a sequence or a
    {k-cell column: entry} dict; ``num_cells[k]`` counts k-cells.
    ``boundaries[0]``, the map to 0, may be left out.  Returns a list of
    (betti, torsion-coefficients) pairs, one per dimension.
    """
    diag = {k: smith_normal_form_diagonal(rows)
            for k, rows in boundaries.items() if rows}
    return [(num_cells[k] - len(diag.get(k, ())) - len(diag.get(k + 1, ())),
             [d for d in diag.get(k + 1, ()) if d > 1])
            for k in range(len(num_cells))]
