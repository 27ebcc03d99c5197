from fractions import Fraction

import pytest

from multicurve.exactnum import GaussianRational, I, rational_sqrt


class TestArithmetic:
    def test_ring_ops(self):
        z = GaussianRational(Fraction(1, 2), Fraction(1, 3))
        w = GaussianRational(2, -1)
        assert (z + w).re == Fraction(5, 2)
        assert (z * w) == GaussianRational(Fraction(4, 3), Fraction(1, 6))
        assert z - z == 0
        assert -z + z == 0

    def test_division_inverse(self):
        z = GaussianRational(3, 4)
        assert z * (1 / z) == 1
        assert (z / z) == 1
        with pytest.raises(ZeroDivisionError):
            1 / GaussianRational(0, 0)

    def test_conjugate_norm(self):
        z = GaussianRational(3, 4)
        assert z * z.conjugate() == 25
        assert z.conjugate().im == -4

    def test_i_squares_to_minus_one(self):
        assert I * I == -1

    def test_mixed_with_fraction(self):
        z = Fraction(1, 2) + I * Fraction(1, 2)
        assert isinstance(z, GaussianRational)
        assert z * z.conjugate() == Fraction(1, 2)

    def test_reflected_subtraction(self):
        z = GaussianRational(Fraction(1, 2), 3)
        assert 1 - z == GaussianRational(Fraction(1, 2), -3)
        assert Fraction(1, 2) - z == GaussianRational(0, -3)
        assert isinstance(1 - z, GaussianRational)

    def test_complex_conversion(self):
        assert complex(GaussianRational(1, -2)) == 1 - 2j

    def test_equal_to_a_complex(self):
        z = GaussianRational(Fraction(1, 4), -2)
        assert z == complex(z) == 0.25 - 2j
        assert z != 0.25 + 2j

    def test_other_operands_are_not_implemented(self):
        z = GaussianRational(1, 1)
        for op in ("__add__", "__sub__", "__rsub__", "__mul__",
                   "__truediv__", "__rtruediv__"):
            assert getattr(z, op)(1.5) is NotImplemented
        with pytest.raises(TypeError):
            z + "1"

    def test_abs_exact_on_axes(self):
        assert abs(GaussianRational(Fraction(-3, 7), 0)) == Fraction(3, 7)
        assert abs(GaussianRational(0, Fraction(2, 5))) == Fraction(2, 5)


class TestRationalSqrt:
    def test_perfect_squares(self):
        assert rational_sqrt(Fraction(64, 25)) == Fraction(8, 5)
        assert rational_sqrt(4) == 2
        assert rational_sqrt(0) == 0

    def test_imperfect(self):
        assert rational_sqrt(2) is None
        assert rational_sqrt(Fraction(1, 3)) is None

    def test_negative(self):
        assert rational_sqrt(-1) is None
