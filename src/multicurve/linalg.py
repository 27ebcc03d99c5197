"""Exact integer/rational linear algebra helpers.

Everything here works over Python ints and fractions.Fraction, so results
are exact at the desk scales this package targets (cellular boundary
matrices of at most about a hundred rows, e.g. 61 x 59 for flower:6).
numpy is deliberately not used: the rank and homology computations must be
free of floating error.  ``integer_rank`` runs once per cone face lattice, as
the cross-check of the dimension read off the lattice's grading.
"""

from fractions import Fraction
from math import gcd


def integer_rank(rows):
    """Rank over Q of a matrix given as an iterable of integer rows."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0),
                     None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def smith_normal_form_diagonal(rows):
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the list of nonzero invariant factors d_1 | d_2 | ... (all
    positive).  Only the diagonal is computed; the unimodular transforms
    are not tracked.
    """
    mat = [list(map(int, row)) for row in rows]
    m = len(mat)
    n = len(mat[0]) if m else 0
    diag = []
    top = 0
    while top < m and top < n:
        # find pivot of smallest absolute value
        best = None
        for i in range(top, m):
            for j in range(top, n):
                v = mat[i][j]
                if v != 0 and (best is None or abs(v) < abs(mat[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        mat[top], mat[bi] = mat[bi], mat[top]
        for row in mat:
            row[top], row[bj] = row[bj], row[top]
        # clear row and column; restart if a reduction creates a smaller entry
        while True:
            pivot = mat[top][top]
            done = True
            for i in range(top + 1, m):
                if mat[i][top] != 0:
                    q = mat[i][top] // pivot
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[top])]
                    if mat[i][top] != 0:
                        # remainder is smaller than pivot; swap it up
                        mat[top], mat[i] = mat[i], mat[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(top + 1, n):
                if mat[top][j] != 0:
                    q = mat[top][j] // pivot
                    for row in mat:
                        row[j] -= q * row[top]
                    if mat[top][j] != 0:
                        for row in mat:
                            row[top], row[j] = row[j], row[top]
                        done = False
                        break
            if done:
                break
        diag.append(abs(mat[top][top]))
        top += 1
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

    ``boundaries[k]`` is the matrix of the boundary map C_k -> C_{k-1}
    (rows indexed by (k-1)-cells, columns by k-cells), given as a list of
    rows; ``num_cells[k]`` counts k-cells.  ``boundaries[0]`` is the
    (empty) map to 0.  Returns a list of (betti, torsion-coefficients)
    pairs, one per dimension.
    """
    top = len(num_cells) - 1
    ranks = {}
    torsions = {}
    for k in range(top + 1):
        mat = boundaries.get(k)
        if not mat or num_cells[k] == 0 or (k > 0 and num_cells[k - 1] == 0):
            ranks[k] = 0
            torsions[k] = []
            continue
        diag = smith_normal_form_diagonal(mat)
        ranks[k] = len(diag)
        torsions[k] = [d for d in diag if d > 1]
    result = []
    for k in range(top + 1):
        rank_k = ranks.get(k, 0)
        rank_k1 = ranks.get(k + 1, 0)
        betti = num_cells[k] - rank_k - rank_k1
        result.append((betti, torsions.get(k + 1, [])))
    return result

