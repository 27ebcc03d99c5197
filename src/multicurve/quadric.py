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
arrays (for vectorized sweeps) alike.  numpy is imported inside the float
and array branches, and by ``projective_residual`` and ``mat_max_abs`` on
any input; no exact path calls those two, so it stays unloaded.  An SL(2)
element is a ``MobiusMap``, the homogeneous pair (M : D) with det M = D^2:
integer M and D in the exact sweeps, D = 1 for Fraction, complex and numpy
entries.  Projective equality, of points and of pairs (A, e) alike, is the
one test ``projective_residual``.
"""

from fractions import Fraction
from functools import reduce

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


def _ratio(x, y):
    """x / y, kept exact as a Fraction when both are ints."""
    if isinstance(x, int) and isinstance(y, int):
        return Fraction(x, y)
    return x / y


def _is_zero(x, tol=FLOAT_TOL):
    if _is_exact(x):
        return x == 0
    import numpy as np
    return bool(np.all(np.abs(x) <= tol))


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
    """The adjugate: the inverse if det m = 1, det(m) times the inverse
    otherwise (``equivariance_check`` applies it to maps with det M = D^2)."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def mat_sub(m, n):
    return tuple(tuple(x - y for x, y in zip(rm, rn))
                 for rm, rn in zip(m, n))


def mat_scale(m, z):
    (a, b), (c, d) = m
    return ((z * a, z * b), (z * c, z * d))


def mat_max_abs(m):
    """Largest |entry| over the rows of m (scalars or arrays), a float."""
    import numpy as np
    return max(float(np.max(np.abs(x))) for row in m for x in row)


# ---------------------------------------------------------------------------
# conic of trace parameters


class ConicPoint:
    """A point (t : s : h), t^2 - s^2 = 4 h^2, optionally born from beta;
    t, s, beta1, beta2 are stored times h != 0 (h = 1 unless given by ints)."""

    __slots__ = ("t", "s", "beta1", "beta2", "h")

    def __init__(self, t, s, beta1=None, beta2=None, h=1):
        self.t = t
        self.s = s
        self.beta1 = beta1 if beta1 is not None else _ratio(t + s, 2)
        self.beta2 = beta2 if beta2 is not None else _ratio(t - s, 2)
        self.h = h
        if _is_zero(h, tol=0):
            raise ValueError("h = 0 is off the affine conic t^2 - s^2 = 4")
        residual = self.t * self.t - self.s * self.s - 4 * h * h
        if not _is_zero(residual):
            raise ValueError(f"t^2 - s^2 != 4 (residual {residual})")

    @property
    def degenerate(self):
        """Branch points (t, s) = (+-2, 0), where the parametrization
        collapses."""
        return _is_zero(self.s)

    def negate_s(self):
        return ConicPoint(self.t, -self.s, self.beta2, self.beta1, self.h)

    def __repr__(self):
        return f"ConicPoint(t={self.t}, s={self.s})"


def conic_from_beta(beta, den=None):
    """Rational-friendly parametrization t = beta + 1/beta, s = beta - 1/beta;
    with an integer den != 0, beta/den as the integer point (beta1 : beta2 :
    s : h) = (beta^2 : den^2 : beta^2 - den^2 : beta den)."""
    if _is_zero(beta, tol=0):
        raise ZeroBeta("beta must be nonzero")
    if den == 0:
        raise ZeroBeta("den must be nonzero (h = beta den = 0 is off the "
                       "affine conic)")
    if den is not None:
        b2, d2 = beta * beta, den * den
        return ConicPoint(b2 + d2, b2 - d2, b2, d2, beta * den)
    inv = _ratio(1, beta)
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

    Float t may be an array (ValueError if any |t| >= 2); exact t (a real
    GaussianRational included) needs 4 - t^2 to be a rational square (use
    conic_from_angle_parameter to generate such t densely).
    """
    if isinstance(t, GaussianRational):
        if t.im != 0:
            raise ValueError("t must be real")
        t = t.re
    if not _is_exact(t):
        import numpy as np
        t = np.asarray(t, dtype=float)
        if np.any(abs(t) >= 2):
            raise ValueError("need |t| < 2")
        return ConicPoint(t + 0j, 1j * np.sqrt(4 - t * t))
    t = Fraction(t)
    if abs(t) >= 2:
        raise ValueError("need |t| < 2")
    y = rational_sqrt(4 - t * t)
    if y is None:
        raise ValueError(f"4 - t^2 = {4 - t * t} is not a rational square; "
                         "use conic_from_angle_parameter")
    return ConicPoint(GaussianRational(t), GaussianRational(0, y))


# ---------------------------------------------------------------------------
# projective points and Moebius maps


class ProjectivePoint:
    """Homogeneous pair [x1 : x2]."""

    __slots__ = ("x1", "x2")

    def __init__(self, x1, x2):
        if _is_exact(x1) and _is_exact(x2) and x1 == 0 and x2 == 0:
            raise ValueError("[0 : 0] is not a projective point")
        self.x1 = x1
        self.x2 = x2

    def negate(self):
        return ProjectivePoint(-self.x1, -self.x2)

    def __repr__(self):
        return f"[{self.x1} : {self.x2}]"


def projective_residual(u, v):
    """Largest 2x2 minor |u_i v_j - u_j v_i| of two coordinate tuples over
    max |u| max |v|: exactly 0 on proportional exact tuples, rounding-small
    on proportional float ones, and entrywise over float array coordinates.
    """
    import numpy as np
    u, v = (np.array(w, dtype=object if all(map(_is_exact, w)) else None)
            for w in (u, v))
    j, k = np.triu_indices(len(u), 1)
    return (np.abs(u[j] * v[k] - u[k] * v[j]).max(axis=0)
            / np.abs(u).max(axis=0) / np.abs(v).max(axis=0))


class MobiusMap:
    """An SL(2) element as the homogeneous pair (m : den), det m = den^2,
    acting on the projective line; den = 1 unless m holds integers.  The
    determinant is checked here, once (within ``FLOAT_TOL`` for floats)."""

    __slots__ = ("m", "den")

    def __init__(self, m, den=1):
        self.m = tuple(tuple(row) for row in m)
        self.den = den
        residual = mat_det(self.m) - den * den
        if not _is_zero(residual):
            if isinstance(residual, int):
                residual = Fraction(residual, den * den)
            raise NotUnitDeterminant(f"det - 1 = {residual}")

    def apply(self, p):
        (a, b), (c, d) = self.m
        return ProjectivePoint(a * p.x1 + b * p.x2, c * p.x1 + d * p.x2)

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
        return _is_zero(self.e)

    def coords(self):
        return (self.a[0][0], self.a[0][1], self.a[1][0], self.a[1][1],
                self.e)

    def normalized(self):
        """The honest SL(2) matrix A/e; requires e != 0."""
        if self.degenerate:
            raise ZeroDivisionError("e = 0 on the base curve")
        return mat_scale(self.a, _ratio(1, self.e))

    def __repr__(self):
        return f"QuadricPoint(a={self.a}, e={self.e})"


def quadric_point(p, q, cp):
    """The matrix family evaluated at points p, q and conic point cp (A
    and e both times cp.h)."""
    b1, b2, s = cp.beta1, cp.beta2, cp.s
    x1, x2, y1, y2 = p.x1, p.x2, q.x1, q.x2
    a = ((b2 * x2 * y1 - b1 * x1 * y2, s * x1 * y1),
         (-s * x2 * y2, b1 * x2 * y1 - b2 * x1 * y2))
    return QuadricPoint(a, (x2 * y1 - x1 * y2) * cp.h)


class EquivarianceReport:
    """Boolean outcome with the worst residual found."""

    def __init__(self, ok, residual):
        self.ok = ok
        self.residual = residual

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return f"EquivarianceReport(ok={self.ok}, residual={self.residual})"


def equivariance_check(rho, p, q, cp):
    """Moving the points by a Moebius map conjugates the matrix.

    Checks A(M p, M q) = M A(p, q) adj(M) and e(M p, M q) = det(M) e(p, q)
    for rho = M / D, det M = D^2: exactly over exact scalars; over floats
    (D = 1) within ``FLOAT_TOL`` relative to the magnitude of the compared
    matrices (with the linear representatives M x, M y the identities hold
    on the nose, so no projective rescaling enters).  The residual is the
    largest |difference|, over floats divided by that magnitude.
    """
    lhs = quadric_point(rho.apply(p), rho.apply(q), cp)
    base = quadric_point(p, q, cp)
    rhs_a = mat_mul(mat_mul(rho.m, base.a), mat_inv_sl2(rho.m))
    diff = mat_sub(lhs.a, rhs_a)
    e_diff = lhs.e - rho.den * rho.den * base.e
    entries = [diff[0][0], diff[0][1], diff[1][0], diff[1][1], e_diff]
    if all(_is_exact(x) for x in entries):
        ok = all(x == 0 for x in entries)
        return EquivarianceReport(ok, 0 if ok else max(map(abs, entries)))
    scale = max(1.0, mat_max_abs(lhs.a), mat_max_abs(rhs_a))
    residual = mat_max_abs((entries,)) / scale
    return EquivarianceReport(residual <= FLOAT_TOL, residual)


def quadric_identity_residuals(qp, cp):
    """(det A - e^2, tr A h - (t h) e) for reporting."""
    return (mat_det(qp.a) - qp.e * qp.e,
            mat_trace(qp.a) * cp.h - cp.t * qp.e)


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
    cp = conic_from_t_elliptic(t)
    t, y = cp.t.real, cp.s.imag
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
    cp = conic_from_t_elliptic(t)
    x1, x2 = p.x1, p.x2
    antipode = ProjectivePoint(x2.conjugate(), -(x1.conjugate()))
    qp = quadric_point(p, antipode, cp)
    return qp.normalized()


# ---------------------------------------------------------------------------
# trace-coordinate identities (negative-trace skein convention)


def fricke_trace_coordinates(r1, r2, r3):
    """Negative traces (a1..a4, c12, c23, c13) of three ``MobiusMap``s, as
    numerators over one L.

    The skein specialization uses the negative trace throughout: a_i is
    -tr(B_i), a_4 is -tr(B_1 B_2 B_3), c_ij is -tr(B_i B_j).  The cubic
    relation below fails under the positive-trace convention.  The maps
    B_i = M_i / D_i are rescaled to one D = D_1 D_2 D_3 (a map with D_i = D
    is taken as it is), and every trace is returned times L = D^3: the
    traces themselves when D = 1, as for Fraction, complex and numpy maps.
    """
    den = r1.den * r2.den * r3.den
    m1, m2, m3 = (r.m if r.den == den else mat_scale(r.m, den // r.den)
                  for r in (r1, r2, r3))
    m12 = mat_mul(m1, m2)
    a = [-mat_trace(m) for m in (m1, m2, m3, mat_mul(m12, m3))]
    c = [-mat_trace(m) for m in (m12, mat_mul(m2, m3), mat_mul(m1, m3))]
    if den != 1:
        a[:3] = [x * den * den for x in a[:3]]
        c = [x * den for x in c]
    return a, tuple(c)


def _cubic(a1, a2, a3, a4, c12, c23, c13, el):
    """c12 c23 c13 - (c12^2 + c23^2 + c13^2 + f_{12|34} c12 + f_{23|14} c23
    + f_{13|24} c13 + f), the Fricke cubic of the four-punctured sphere, at
    (a, c) / el times el^4 (as written if el = 1)."""
    el2 = el * el
    f_12_34 = a1 * a2 + a3 * a4
    f_23_14 = a2 * a3 + a1 * a4
    f_13_24 = a1 * a3 + a2 * a4
    f = (a1 * a2 * a3 * a4 + el2 * a1 * a1 + el2 * a2 * a2
         + el2 * a3 * a3 + el2 * a4 * a4 - 4 * el2 * el2)
    lhs = el * c12 * c23 * c13
    rhs = (el2 * c12 * c12 + el2 * c23 * c23 + el2 * c13 * c13
           + el * f_12_34 * c12 + el * f_23_14 * c23 + el * f_13_24 * c13 + f)
    return lhs - rhs


def _fricke_scale(a, c):
    """max(1, largest |monomial|) of the Fricke cubic at a = (a1..a4) and
    c = (c12, c23, c13); float rounding in the residual grows with it."""
    import numpy as np
    a1, a2, a3, a4, c12, c23, c13 = map(abs, (*a, *c))
    return reduce(np.maximum, (
        c12 * c23 * c13, c12 * c12, c23 * c23, c13 * c13,
        a1 * a2 * c12, a3 * a4 * c12, a2 * a3 * c23, a1 * a4 * c23,
        a1 * a3 * c13, a2 * a4 * c13, a1 * a2 * a3 * a4,
        a1 * a1, a2 * a2, a3 * a3, a4 * a4), 1)


def fricke_verify(r1, r2, r3):
    """|Fricke cubic| at the trace coordinates of three ``MobiusMap``s,
    times L^4 (L = (D_1 D_2 D_3)^3): it vanishes exactly on exact maps and
    up to rounding on float maps, and is the residual itself when L = 1."""
    a, c = fricke_trace_coordinates(r1, r2, r3)
    return abs(_cubic(*a, *c, (r1.den * r2.den * r3.den) ** 3))


def z_relation_verify(r1, r2, r3):
    """(z L^2, residual L^8) for the extra generator of the flipped square.

    Read as a quadratic in c23, the Fricke cubic has the roots c23 and, by
    Vieta, z = c12 c13 - c23 - (a1 a4 + a2 a3); the residual is |cubic|
    with z in place of c23 and vanishes for unit determinant maps.  On the
    numerators over L, z L^2 is as written with c23 times L, and the cubic
    is evaluated over L^2.  (The geometric content, namely that z completes
    the degree data of the flipped triangulation, is checked at the
    coloring level elsewhere.)
    """
    a, (c12, c23, c13) = fricke_trace_coordinates(r1, r2, r3)
    el = (r1.den * r2.den * r3.den) ** 3
    z = c12 * c13 - el * c23 - (a[0] * a[3] + a[1] * a[2])
    return z, abs(_cubic(*(el * x for x in a), el * c12, z, el * c13,
                         el * el))


# ---------------------------------------------------------------------------
# sample generators (seeded, deterministic)


def random_ratio(rng, span=6, nonzero=False):
    """(num, den) in [-span, span] x [1, span] from two randint calls,
    drawn again while num = 0 if nonzero."""
    while True:
        num, den = rng.randint(-span, span), rng.randint(1, span)
        if num or not nonzero:
            return num, den


def random_point_int(rng):
    """(P, d1 d2) for a point (n1/d1 : n2/d2) != (0 : 0) drawn by
    random_ratio, with P = [n1 d2 : n2 d1] its integer representative."""
    while True:
        (n1, d1), (n2, d2) = random_ratio(rng), random_ratio(rng)
        if n1 or n2:
            return ProjectivePoint(n1 * d2, n2 * d1), d1 * d2


def random_mobius_int(rng, span=4):
    """a = an/ad != 0, b = bn/bd, c = cn/cd drawn by random_ratio and d =
    (1 + bc)/a, as the integer map M / D with D = an ad bd cd."""
    an, ad = random_ratio(rng, span, nonzero=True)
    bn, bd = random_ratio(rng, span)
    cn, cd = random_ratio(rng, span)
    return MobiusMap(((an * an * bd * cd, bn * an * ad * cd),
                      (cn * an * ad * bd, ad * ad * (bd * cd + bn * cn))),
                     an * ad * bd * cd)


def complex_array(rng_np, n):
    return (rng_np.standard_normal(n) + 1j * rng_np.standard_normal(n))


def float_point_arrays(rng_np, n):
    """Unit-normalized homogeneous pairs (projectively no restriction)."""
    import numpy as np
    x1, x2 = complex_array(rng_np, n), complex_array(rng_np, n)
    norm = np.sqrt(np.abs(x1) ** 2 + np.abs(x2) ** 2)
    return ProjectivePoint(x1 / norm, x2 / norm)


def float_mobius_arrays(rng_np, n):
    import numpy as np
    a = complex_array(rng_np, n)
    a = np.where(np.abs(a) < 0.5, a + 1.0, a)
    b = complex_array(rng_np, n)
    c = complex_array(rng_np, n)
    d = (1 + b * c) / a
    return MobiusMap(((a, b), (c, d)))


def float_conic_arrays(rng_np, n):
    import numpy as np
    # moduli kept in [1/2, 2] so the conic identity stays well-conditioned
    radius = rng_np.uniform(0.5, 2.0, n)
    angle = rng_np.uniform(0.0, 2.0 * np.pi, n)
    beta = radius * np.exp(1j * angle)
    return conic_from_beta(beta)
