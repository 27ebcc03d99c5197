"""Exact complex rationals a + b*i with Fraction coefficients.

Just enough arithmetic for the proof-grade checks of the quadric
parametrization: ring operations, division, conjugation, and exact
equality.  Mixed arithmetic with int and Fraction promotes to
GaussianRational.
"""

from fractions import Fraction


def _promoted(op):
    """The operator ``op`` with an int or Fraction ``other`` promoted to a
    GaussianRational; NotImplemented for any other type of operand."""
    def method(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(other)
        elif not isinstance(other, GaussianRational):
            return NotImplemented
        return op(self, other)
    return method


class GaussianRational:
    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    # numbers.Complex-style surface shared with complex/Fraction

    @property
    def real(self):
        return self.re

    @property
    def imag(self):
        return self.im

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    @_promoted
    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    @_promoted
    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    @_promoted
    def __rsub__(self, other):
        return other - self

    @_promoted
    def __mul__(self, other):
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    @_promoted
    def __truediv__(self, other):
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * other.re + self.im * other.im)
                                / norm,
                                (self.im * other.re - self.re * other.im)
                                / norm)

    @_promoted
    def __rtruediv__(self, other):
        return other / self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, complex):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        # exact when the value is real or purely imaginary
        if self.im == 0:
            return abs(self.re)
        if self.re == 0:
            return abs(self.im)
        return abs(complex(self))

    def __repr__(self):
        if self.im == 0:
            return f"{self.re}"
        return f"({self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i)"


I = GaussianRational(0, 1)  # noqa: E741  (the usual name for sqrt(-1))


def rational_sqrt(x):
    """Exact square root of a nonnegative Fraction, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    num = _isqrt_exact(x.numerator)
    den = _isqrt_exact(x.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _isqrt_exact(n):
    from math import isqrt
    r = isqrt(n)
    return r if r * r == n else None
