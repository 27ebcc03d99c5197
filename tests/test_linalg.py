import random
from fractions import Fraction

import pytest
from conftest import FIXTURES, RP2_TRIANGLES, simplicial_cells
from oracles import dense_smith_diagonal, rational_feasible

import multicurve as mc
from multicurve import polytope
from multicurve.linalg import (
    homology_from_boundaries,
    integer_rank,
    smith_normal_form_diagonal,
)


class TestRank:
    def test_empty(self):
        assert integer_rank([]) == 0

    def test_full_rank(self):
        assert integer_rank([[1, 0, 0], [0, 2, 0], [0, 0, 3]]) == 3

    def test_dependent_rows(self):
        assert integer_rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2

    def test_rectangular(self):
        assert integer_rank([[1, 1], [1, 2], [2, 3]]) == 2


class TestSmith:
    def test_diagonal_divisibility(self):
        diag = smith_normal_form_diagonal([[2, 0], [0, 3]])
        assert diag == [1, 6]

    def test_known_form(self):
        # classical example with invariant factors (1, 2)
        diag = smith_normal_form_diagonal([[2, 4, 4], [-6, 6, 12],
                                           [10, 4, 16]])
        assert diag[0] == 2 and diag[1] == 2 and diag[2] == 156
        assert diag[1] % diag[0] == 0 and diag[2] % diag[1] == 0

    def test_zero_matrix(self):
        assert smith_normal_form_diagonal([[0, 0], [0, 0]]) == []

    def test_torsion_detection(self):
        diag = smith_normal_form_diagonal([[2]])
        assert diag == [2]


class TestHomology:
    def test_circle_chain_complex(self):
        # triangle boundary: three vertices, three edges
        d1 = [[-1, 0, 1], [1, -1, 0], [0, 1, -1]]
        result = homology_from_boundaries({1: d1}, [3, 3])
        assert result == [(1, []), (1, [])]

    def test_point(self):
        result = homology_from_boundaries({}, [1])
        assert result == [(1, [])]


class TestFeasibility:
    def test_trivial_zero(self):
        assert rational_feasible([[1, 0], [0, 1]], [0, 0])

    def test_simple_combination(self):
        assert rational_feasible([[2, 0], [0, 2]], [1, 3])

    def test_needs_fraction(self):
        # 1/2 * (2,2) = (1,1)
        assert rational_feasible([[2, 2]], [1, 1])

    def test_infeasible_sign(self):
        assert not rational_feasible([[1, 0], [0, 1]], [-1, 0])

    def test_infeasible_direction(self):
        assert not rational_feasible([[1, 1]], [1, 2])

    def test_exactness(self):
        # (1/3, 1/7) scale combination that floats would fuzz
        cols = [[3, 0], [0, 7]]
        assert rational_feasible(cols, [1, 1])
        assert not rational_feasible([[3, 1]], [1, 1])


class TestFractionExactness:
    def test_rank_with_fractions(self):
        rows = [[Fraction(1, 3), Fraction(1, 7)],
                [Fraction(2, 3), Fraction(2, 7)]]
        assert integer_rank(rows) == 1


def random_matrices(seed, count=300):
    """Seeded small integer matrices, 0-6 x 1-6, with a zero row and a zero
    column thrown in about half the time."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m, n = rng.randint(0, 6), rng.randint(1, 6)
        mat = [[rng.choice((0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(n)]
               for _ in range(m)]
        if m and rng.random() < 0.5:
            mat[rng.randrange(m)] = [0] * n
            zero = rng.randrange(n)
            for row in mat:
                row[zero] = 0
        out.append(mat)
    return out


def boundary_maps(cpx, monkeypatch):
    """The boundary maps that ``cpx.homology`` hands to the SNF, as
    (row dicts, number of columns)."""
    seen = []

    def record(boundaries, num_cells):
        seen.extend((rows, num_cells[k]) for k, rows in boundaries.items())
        return []

    monkeypatch.setattr(polytope, "homology_from_boundaries", record)
    cpx.homology()
    return seen


class TestSparseMatchesDenseSmith:
    """The sparse elimination against the dense SNF of tests/oracles.py."""

    @pytest.mark.parametrize("seed", range(5))
    def test_random_lists(self, seed):
        for mat in random_matrices(seed):
            assert smith_normal_form_diagonal(mat) == dense_smith_diagonal(mat)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_row_dicts(self, seed):
        for mat in random_matrices(seed):
            rows = [{j: x for j, x in enumerate(row) if x} for row in mat]
            assert (smith_normal_form_diagonal(rows)
                    == dense_smith_diagonal(mat))

    @pytest.mark.parametrize("name", FIXTURES + ["flower:6", "rp2"])
    def test_boundary_maps(self, name, monkeypatch):
        cpx = (polytope.PolytopeComplex(*simplicial_cells(RP2_TRIANGLES))
               if name == "rp2" else mc.relative_complex(mc.fixture(name)))
        maps = boundary_maps(cpx, monkeypatch)
        assert maps
        for rows, n in maps:
            dense = [[row.get(j, 0) for j in range(n)] for row in rows]
            assert (smith_normal_form_diagonal(rows)
                    == dense_smith_diagonal(dense))
