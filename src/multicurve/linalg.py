"""Exact integer linear algebra: one sparse Smith-form elimination.

Everything here works over Python ints (and fractions.Fraction for the
rank), so results are exact; numpy is deliberately not used.  A matrix is
given by its columns, which suits cellular boundary maps: their entries
are +-1 and each column holds only the few facets of one cell.  A matrix
and its transpose share rank and invariant factors, so rows do as well.
``integer_rank`` checks the rays of the relative complex against E;
``smith_normal_form_diagonal`` feeds ``homology_from_boundaries``.  The
elimination follows Kaczynski-Mischaikow-Mrozek, Computational Homology
(2004), ch. 3-4: take the columns sparsest first, each with its smallest
entry as pivot.
"""

from math import gcd


def _pivots(columns):
    """Absolute pivots of a sparse Smith-form elimination.

    ``columns`` are sequences or {row: entry} dicts, read once into sparse
    rows and column sets.  Columns are taken fewest starting entries first,
    each again until it is empty, since a pivot may move off it.  The pivot
    is the column's entry of least absolute value (the shorter row on a
    tie).  The other rows subtract floor-quotient multiples of the pivot
    row, then the pivot row is reduced modulo the pivot by column
    operations, which touch no other row once the column is clear; a
    nonzero remainder either way becomes the new pivot.  When both are
    clear, |pivot| is recorded and its row and column are dropped.  Each
    restart shrinks |pivot|, so this ends for ints and for rationals (all
    multiples of one 1/L).
    """
    mat, cols = {}, {}
    for j, col in enumerate(columns):
        items = col.items() if isinstance(col, dict) else enumerate(col)
        for i, x in items:
            if x:
                mat.setdefault(i, {})[j] = x
                cols.setdefault(j, set()).add(i)
    pivots = []
    for first in sorted(cols, key=lambda j: len(cols[j])):
        j = first
        while cols.get(j):
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
            if len(cols[j]) > 1:
                continue
            for k in [k for k in prow if k != j]:
                prow[k] %= p
                if not prow[k]:
                    del prow[k]
                    cols[k].discard(i)
            if len(prow) > 1:
                j = min((k for k in prow if k != j),
                        key=lambda k: abs(prow[k]))
                continue
            pivots.append(abs(p))
            del mat[i], cols[j]
            j = first                       # the pivot may have moved off it
    return pivots


def integer_rank(columns):
    """Rank over Q of a matrix given by its columns (ints or Fractions),
    or by its rows: the number of pivots of the Smith-form elimination."""
    return len(_pivots(columns))


def smith_normal_form_diagonal(columns):
    """Diagonal of the Smith normal form of an integer matrix.

    ``columns`` are sequences or {row: entry} dicts (rows give the same
    answer).  Returns the list of nonzero invariant factors d_1 | d_2 | ...
    (all positive).  Only the diagonal is computed; the unimodular
    transforms are not tracked.
    """
    diag = _pivots(columns)
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
    given by its columns, one per k-cell, each a sequence or a
    {(k-1)-cell row: entry} dict (or by its rows: the ranks and torsion
    are those of the transpose); ``num_cells[k]`` counts k-cells.
    ``boundaries[0]``, the map to 0, may be left out.  Returns a list of
    (betti, torsion-coefficients) pairs, one per dimension.
    """
    diag = {k: smith_normal_form_diagonal(columns)
            for k, columns in boundaries.items() if columns}
    return [(num_cells[k] - len(diag.get(k, ())) - len(diag.get(k + 1, ())),
             [d for d in diag.get(k + 1, ()) if d > 1])
            for k in range(len(num_cells))]
