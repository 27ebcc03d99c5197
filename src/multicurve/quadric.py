"""Trace-parameter conic, the matrix family on P^1 x P^1, and its symmetries.

The fiber of the trace pencil over t != +-2 is identified with P^1 x P^1 by
sending a pair of points (p, q) and a conic point (t, s), t^2 - s^2 = 4, to
the projective pair [A : e] with

    A = [[b2*x2*y1 - b1*x1*y2,  s*x1*y1],
         [-s*x2*y2,             b1*x2*y1 - b2*x1*y2]],   e = x2*y1 - x1*y2,

where b1 = (t+s)/2 and b2 = (t-s)/2.  Then det A = e^2 and tr A = t*e, the
diagonal Moebius action pulls the conjugation action back independently of
(t, s), and the multilinear expression tr(A_1...A_{k}) - t_{k+1} e_1...e_k
cuts out the relative character variety.

Every formula below is written with generic ring arithmetic: it accepts
exact scalars (Fraction, GaussianRational), Python complex, and numpy
arrays (for vectorized sweeps) alike.
"""

from fractions import Fraction

import numpy as np

from .errors import (
    IndexOutOfRange,
    LengthMismatch,
    NotUnitDeterminant,
    TauDegenerate,
    ZeroBeta,
)
from .exactnum import GaussianRational, rational_sqrt

FLOAT_TOL = 1e-12


def _is_exact(x):
    return isinstance(x, (int, Fraction, GaussianRational))


def _is_zero(x, tol=FLOAT_TOL):
    if isinstance(x, np.ndarray):
        return bool(np.all(np.abs(x) <= tol))
    if _is_exact(x):
        return x == 0
    return abs(x) <= tol


# ---------------------------------------------------------------------------
# 2x2 matrices as nested tuples (entries are backend scalars or arrays)


def mat_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h),
            (c * e + d * g, c * f + d * h))


def mat_trace(m):
    return m[0][0] + m[1][1]


def mat_det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat_inv_sl2(m):
    """Inverse of a determinant-1 matrix."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def mat_sub(m, n):
    return tuple(tuple(x - y for x, y in zip(rm, rn))
                 for rm, rn in zip(m, n))


def mat_scale(m, z):
    return tuple(tuple(z * x for x in row) for row in m)


def mat_max_abs(m):
    entries = [m[0][0], m[0][1], m[1][0], m[1][1]]
    if any(isinstance(x, np.ndarray) for x in entries):
        return max(float(np.max(np.abs(x))) for x in entries)
    return max(abs(complex(x)) for x in entries)


# ---------------------------------------------------------------------------
# conic of trace parameters


class ConicPoint:
    """A point (t, s) with t^2 - s^2 = 4, optionally born from beta."""

    __slots__ = ("t", "s", "beta1", "beta2")

    def __init__(self, t, s, beta1=None, beta2=None):
        self.t = t
        self.s = s
        self.beta1 = beta1 if beta1 is not None else (t + s) / 2
        self.beta2 = beta2 if beta2 is not None else (t - s) / 2
        residual = self.t * self.t - self.s * self.s - 4
        if not _is_zero(residual):
            raise ValueError(f"t^2 - s^2 != 4 (residual {residual})")

    @property
    def degenerate(self):
        """Branch points (t, s) = (+-2, 0), where the parametrization
        collapses."""
        return _is_zero(self.s, tol=0 if _is_exact(self.s) else FLOAT_TOL)

    def negate_s(self):
        return ConicPoint(self.t, -self.s, self.beta2, self.beta1)

    def __repr__(self):
        return f"ConicPoint(t={self.t}, s={self.s})"


def conic_from_beta(beta):
    """Rational-friendly parametrization t = beta + 1/beta, s = beta - 1/beta."""
    if _is_zero(beta, tol=0 if _is_exact(beta) else 0.0):
        raise ZeroBeta("beta must be nonzero")
    inv = 1 / beta
    return ConicPoint(beta + inv, beta - inv, beta, inv)


def conic_from_angle_parameter(r):
    """Exact conic point with t real in (-2, 2) from a rational parameter.

    Maps r in Q, r > 0, to t = 2(1-r^2)/(1+r^2) and s = i*y with
    y = 4r/(1+r^2) > 0, all coordinates in Q(i).  This is the exact-backend
    counterpart of choosing t in (-2, 2) with s on the upper imaginary axis.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("need r > 0")
    den = 1 + r * r
    t = Fraction(2) * (1 - r * r) / den
    y = Fraction(4) * r / den
    return ConicPoint(GaussianRational(t), GaussianRational(0, y))


def conic_from_t_elliptic(t):
    """Conic point over real t with |t| < 2: s = i*sqrt(4 - t^2).

    Exact input requires 4 - t^2 to be a rational square (use
    conic_from_angle_parameter to generate such t densely).
    """
    if _is_exact(t):
        t = Fraction(t)
        if abs(t) >= 2:
            raise ValueError("need |t| < 2")
        y = rational_sqrt(4 - t * t)
        if y is None:
            raise ValueError(
                f"4 - t^2 = {4 - t * t} is not a rational square; "
                "use conic_from_angle_parameter")
        return ConicPoint(GaussianRational(t), GaussianRational(0, y))
    t = float(t)
    if abs(t) >= 2:
        raise ValueError("need |t| < 2")
    import math
    return ConicPoint(complex(t), 1j * math.sqrt(4 - t * t))


# ---------------------------------------------------------------------------
# projective points and Moebius maps


class ProjectivePoint:
    """Homogeneous pair [x1 : x2]; equality up to scalar."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1, x2):
        if _is_exact(x1) and _is_exact(x2) and x1 == 0 and x2 == 0:
            raise ValueError("[0 : 0] is not a projective point")
        self.x1 = x1
        self.x2 = x2

    def same_point(self, other, tol=FLOAT_TOL):
        cross = self.x1 * other.x2 - self.x2 * other.x1
        return _is_zero(cross, tol=0 if _is_exact(cross) else tol)

    def negate(self):
        return ProjectivePoint(-self.x1, -self.x2)

    def __repr__(self):
        return f"[{self.x1} : {self.x2}]"


class MobiusMap:
    """Determinant-one 2x2 matrix acting on the projective line."""

    __slots__ = ("m",)

    def __init__(self, m, tol=FLOAT_TOL):
        self.m = tuple(tuple(row) for row in m)
        residual = mat_det(self.m) - 1
        if not _is_zero(residual, tol=0 if _is_exact(residual) else tol):
            raise NotUnitDeterminant(f"det - 1 = {residual}")

    def apply(self, p):
        (a, b), (c, d) = self.m
        return ProjectivePoint(a * p.x1 + b * p.x2, c * p.x1 + d * p.x2)

    def inverse(self):
        return MobiusMap(mat_inv_sl2(self.m))

    def __repr__(self):
        return f"MobiusMap({self.m})"


# ---------------------------------------------------------------------------
# the quadric family


class QuadricPoint:
    """Pair (A, e) up to common scalar with det A = e^2, tr A = t e."""

    __slots__ = ("a", "e")

    def __init__(self, a, e):
        self.a = tuple(tuple(row) for row in a)
        self.e = e

    @property
    def degenerate(self):
        """On the base curve (e = 0), i.e. p = q."""
        return _is_zero(self.e, tol=0 if _is_exact(self.e) else FLOAT_TOL)

    def coords(self):
        return (self.a[0][0], self.a[0][1], self.a[1][0], self.a[1][1],
                self.e)

    def projectively_equal(self, other, tol=FLOAT_TOL):
        mine, theirs = self.coords(), other.coords()
        exact = all(_is_exact(x) for x in mine + theirs)
        for i in range(5):
            for j in range(i + 1, 5):
                cross = mine[i] * theirs[j] - mine[j] * theirs[i]
                if not _is_zero(cross, tol=0 if exact else tol):
                    return False
        return True

    def normalized(self):
        """The honest SL(2) matrix A/e; requires e != 0."""
        if self.degenerate:
            raise ZeroDivisionError("e = 0 on the base curve")
        return mat_scale(self.a, 1 / self.e)

    def __repr__(self):
        return f"QuadricPoint(a={self.a}, e={self.e})"


def quadric_point(p, q, cp):
    """The matrix family evaluated at points p, q and conic point cp."""
    b1, b2, s = cp.beta1, cp.beta2, cp.s
    x1, x2, y1, y2 = p.x1, p.x2, q.x1, q.x2
    a = ((b2 * x2 * y1 - b1 * x1 * y2, s * x1 * y1),
         (-s * x2 * y2, b1 * x2 * y1 - b2 * x1 * y2))
    return QuadricPoint(a, x2 * y1 - x1 * y2)


class EquivarianceReport:
    """Boolean outcome with the worst residual found."""

    def __init__(self, ok, residual):
        self.ok = ok
        self.residual = residual

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"EquivarianceReport(ok={self.ok}, residual={self.residual})"


def equivariance_check(rho, p, q, cp, tol=FLOAT_TOL):
    """Moving the points by a Moebius map conjugates the matrix.

    Checks A(rho p, rho q) = rho A(p, q) rho^{-1} and e(rho p, rho q) =
    e(p, q): exactly over exact scalars; over floats within ``tol``
    relative to the magnitude of the compared matrices (with the linear
    representatives rho*x, rho*y the identities hold on the nose, so no
    projective rescaling enters).
    """
    lhs = quadric_point(rho.apply(p), rho.apply(q), cp)
    base = quadric_point(p, q, cp)
    rhs_a = mat_mul(mat_mul(rho.m, base.a), mat_inv_sl2(rho.m))
    diff = mat_sub(lhs.a, rhs_a)
    e_diff = lhs.e - base.e
    entries = [diff[0][0], diff[0][1], diff[1][0], diff[1][1], e_diff]
    if all(_is_exact(x) for x in entries):
        return EquivarianceReport(all(x == 0 for x in entries), 0)
    scale = max(1.0, mat_max_abs(lhs.a), mat_max_abs(rhs_a))
    residual = max(mat_max_abs(diff),
                   float(np.max(np.abs(e_diff)))) / scale
    return EquivarianceReport(residual <= tol, residual)


def quadric_identity_residuals(qp, cp):
    """(det A - e^2, tr A - t e) for reporting."""
    return (mat_det(qp.a) - qp.e * qp.e, mat_trace(qp.a) - cp.t * qp.e)


def evaluate_F(points, cps, t_last):
    """tr(A_1 ... A_k) - t_last * e_1 ... e_k.

    ``points`` holds 2k projective points (pairs in order), ``cps`` the k
    conic points.  Multi-homogeneous of degree one in each point.
    """
    if len(points) != 2 * len(cps):
        raise LengthMismatch(
            f"{len(points)} points cannot pair with {len(cps)} conic points")
    if not cps:
        raise LengthMismatch("need at least one matrix factor")
    product = None
    e_product = 1
    for i, cp in enumerate(cps):
        qp = quadric_point(points[2 * i], points[2 * i + 1], cp)
        product = qp.a if product is None else mat_mul(product, qp.a)
        e_product = e_product * qp.e
    return mat_trace(product) - t_last * e_product


def gamma_involution(i, points, cps):
    """Swap the i-th point pair and negate s_i (1-based i).

    The swapped pair is returned with representatives (q, -p): the same
    projective points, with the sign arranged so that the matrix A_i, the
    scalar e_i, and hence evaluate_F are invariant on the nose rather than
    up to sign.
    """
    if not 1 <= i <= len(cps):
        raise IndexOutOfRange(f"i = {i} not in 1..{len(cps)}")
    points = list(points)
    cps = list(cps)
    p, q = points[2 * i - 2], points[2 * i - 1]
    points[2 * i - 2] = q
    points[2 * i - 1] = p.negate()
    cps[i - 1] = cps[i - 1].negate_s()
    return points, cps


# ---------------------------------------------------------------------------
# real forms


def tau_matrix(p, t):
    """Real-matrix representative over the twisted conjugation fixed locus.

    For real t with |t| < 2 and s = i*y, y > 0, the pair (p, conj(p)) maps
    to a matrix projectively equal to a real one; this returns that real
    representative together with its (real) e.  Degenerate when p lies on
    the real circle Im(x2 * conj(x1)) = 0, where normalization fails.
    """
    t, y, _exact = _elliptic_y(t)
    x1, x2 = p.x1, p.x2
    w = x2 * x1.conjugate()
    re_w, im_w = w.real, w.imag
    if _is_zero(im_w, tol=0):
        raise TauDegenerate("p lies on the real circle Im(x2 conj(x1)) = 0")
    a = ((t * im_w - y * re_w, y * (x1 * x1.conjugate()).real),
         (-y * (x2 * x2.conjugate()).real, t * im_w + y * re_w))
    return QuadricPoint(a, 2 * im_w)


def eta_matrix(p, t):
    """The unitary determinant-one matrix fixing p and its antipode.

    Normalized on the nose (e = |x1|^2 + |x2|^2 > 0 always), with trace t.
    """
    t, y, exact = _elliptic_y(t)
    if exact:
        cp = ConicPoint(GaussianRational(t), GaussianRational(0, y))
    else:
        cp = ConicPoint(complex(t), 1j * y)
    x1, x2 = p.x1, p.x2
    antipode = ProjectivePoint(x2.conjugate(), -(x1.conjugate()))
    qp = quadric_point(p, antipode, cp)
    return qp.normalized()


def _elliptic_y(t):
    """Normalize an elliptic trace value; returns (t, sqrt(4-t^2), exact)."""
    if isinstance(t, GaussianRational):
        if t.im != 0:
            raise ValueError("t must be real")
        t = t.re
    if _is_exact(t):
        t = Fraction(t)
        if abs(t) >= 2:
            raise ValueError("need |t| < 2")
        y = rational_sqrt(4 - t * t)
        if y is None:
            raise ValueError(
                f"4 - t^2 = {4 - t * t} is not a rational square; "
                "pick t via conic_from_angle_parameter")
        return t, y, True
    import math
    t = float(t)
    if abs(t) >= 2:
        raise ValueError("need |t| < 2")
    return t, math.sqrt(4.0 - t * t), False


# ---------------------------------------------------------------------------
# trace-coordinate identities (negative-trace skein convention)


def _check_sl2(m, tol):
    residual = mat_det(m) - 1
    exact = all(_is_exact(x) for x in
                (m[0][0], m[0][1], m[1][0], m[1][1]))
    if not _is_zero(residual, tol=0 if exact else tol):
        raise NotUnitDeterminant(f"det - 1 = {residual}")
    return exact


def fricke_trace_coordinates(b1, b2, b3, tol=1e-9):
    """Negative traces (a1..a4, c12, c23, c13) of three SL(2) matrices.

    The skein specialization uses the negative trace throughout: a_i is
    -tr(B_i), a_4 is -tr(B_1 B_2 B_3), c_ij is -tr(B_i B_j).  The cubic
    relation below fails under the positive-trace convention.
    """
    mats = [tuple(tuple(row) for row in b) for b in (b1, b2, b3)]
    for m in mats:
        _check_sl2(m, tol)
    m1, m2, m3 = mats
    a = [-mat_trace(m) for m in mats]
    a.append(-mat_trace(mat_mul(mat_mul(m1, m2), m3)))
    c12 = -mat_trace(mat_mul(m1, m2))
    c23 = -mat_trace(mat_mul(m2, m3))
    c13 = -mat_trace(mat_mul(m1, m3))
    return a, (c12, c23, c13)


def fricke_verify(b1, b2, b3, tol=1e-9):
    """Residual of the cubic trace relation of the four-punctured sphere.

    Returns |c12 c23 c13 - (c12^2 + c23^2 + c13^2 + f_{12|34} c12
    + f_{23|14} c23 + f_{13|24} c13 + f)|, which vanishes for unit
    determinant matrices (exactly over exact scalars).
    """
    (a1, a2, a3, a4), (c12, c23, c13) = fricke_trace_coordinates(
        b1, b2, b3, tol)
    f_12_34 = a1 * a2 + a3 * a4
    f_23_14 = a2 * a3 + a1 * a4
    f_13_24 = a1 * a3 + a2 * a4
    f = a1 * a2 * a3 * a4 + a1 * a1 + a2 * a2 + a3 * a3 + a4 * a4 - 4
    lhs = c12 * c23 * c13
    rhs = (c12 * c12 + c23 * c23 + c13 * c13
           + f_12_34 * c12 + f_23_14 * c23 + f_13_24 * c13 + f)
    return abs(lhs - rhs)


def z_relation_verify(b1, b2, b3, tol=1e-9):
    """(z, residual) for the extra generator of the flipped square.

    z is defined by the polynomial c12 c13 - c23 - (a1 a4 + a2 a3); the
    residual re-evaluates the defining identity through independent
    arithmetic order and must vanish.  (The geometric content, namely that
    z completes the degree data of the flipped triangulation, is checked
    at the coloring level elsewhere.)
    """
    (a1, a2, a3, a4), (c12, c23, c13) = fricke_trace_coordinates(
        b1, b2, b3, tol)
    z = c12 * c13 - c23 - (a1 * a4 + a2 * a3)
    residual = abs((z + c23 + a1 * a4 + a2 * a3) - c12 * c13)
    return z, residual


# ---------------------------------------------------------------------------
# sample generators (seeded, deterministic)


def random_rational(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_rational_nonzero(rng, span=6):
    while True:
        x = random_rational(rng, span)
        if x != 0:
            return x


def random_projective_point_exact(rng, span=6):
    while True:
        x1, x2 = random_rational(rng, span), random_rational(rng, span)
        if x1 != 0 or x2 != 0:
            return ProjectivePoint(x1, x2)


def random_mobius_exact(rng, span=4):
    a = random_rational_nonzero(rng, span)
    b = random_rational(rng, span)
    c = random_rational(rng, span)
    d = (1 + b * c) / a
    return MobiusMap(((a, b), (c, d)))


def random_sl2_rational(rng, span=4):
    return random_mobius_exact(rng, span).m


def random_gaussian_point(rng, span=6):
    """Projective point with Gaussian-rational coordinates."""
    while True:
        x1 = GaussianRational(random_rational(rng, span),
                              random_rational(rng, span))
        x2 = GaussianRational(random_rational(rng, span),
                              random_rational(rng, span))
        if x1 != 0 or x2 != 0:
            return ProjectivePoint(x1, x2)


def complex_array(rng_np, n):
    return (rng_np.standard_normal(n) + 1j * rng_np.standard_normal(n))


def float_point_arrays(rng_np, n):
    """Unit-normalized homogeneous pairs (projectively no restriction)."""
    x1, x2 = complex_array(rng_np, n), complex_array(rng_np, n)
    norm = np.sqrt(np.abs(x1) ** 2 + np.abs(x2) ** 2)
    return ProjectivePoint(x1 / norm, x2 / norm)


def float_mobius_arrays(rng_np, n):
    a = complex_array(rng_np, n)
    a = np.where(np.abs(a) < 0.5, a + 1.0, a)
    b = complex_array(rng_np, n)
    c = complex_array(rng_np, n)
    d = (1 + b * c) / a
    return MobiusMap(((a, b), (c, d)), tol=1e-9)


def float_conic_arrays(rng_np, n):
    # moduli kept in [1/2, 2] so the conic identity stays well-conditioned
    radius = rng_np.uniform(0.5, 2.0, n)
    angle = rng_np.uniform(0.0, 2.0 * np.pi, n)
    beta = radius * np.exp(1j * angle)
    return conic_from_beta(beta)
