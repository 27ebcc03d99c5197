"""The quadric trace parametrization and its symmetries, exactly.

Pairs of points on the line parametrize the trace-t slice of the matrix
quadric; the formulas are checked here over exact rationals and the
integer representatives of seeded rational draws (equalities on the nose),
and over a hundred thousand floating samples (residuals near machine
precision).  The demo ends with the Fricke relation of the
four-punctured sphere under the negative-trace convention.
"""

import random
from fractions import Fraction

import numpy as np

import multicurve as mc
from multicurve import quadric as q

# a rational point of the parameter conic t^2 - s^2 = 4
cp = mc.conic_from_beta(Fraction(2))
print(f"beta = 2 gives (t, s) = ({cp.t}, {cp.s});  t^2 - s^2 =",
      cp.t ** 2 - cp.s ** 2)

p0 = mc.ProjectivePoint(Fraction(1), Fraction(0))
p1 = mc.ProjectivePoint(Fraction(0), Fraction(1))
qp = mc.quadric_point(p0, p1, cp)
print("matrix at (infty, 0):", qp.a, " e =", qp.e)
print("det A = e^2:", q.mat_det(qp.a) == qp.e ** 2,
      "| tr A = t e:", q.mat_trace(qp.a) == cp.t * qp.e)

# moving the points by a unit-determinant map conjugates the matrix
rho = mc.MobiusMap(((Fraction(1), Fraction(1)),
                    (Fraction(0), Fraction(1))))
print("equivariance (exact):", bool(mc.equivariance_check(rho, p0, p1, cp)))

rng_np = np.random.default_rng(0)
n = 100000
rep = mc.equivariance_check(q.float_mobius_arrays(rng_np, n),
                            q.float_point_arrays(rng_np, n),
                            q.float_point_arrays(rng_np, n),
                            q.float_conic_arrays(rng_np, n))
print(f"equivariance over {n} float samples: residual {rep.residual:.2e}")

# the invariant section: vanishes on genuine representations, here drawn
# as integer points [n1 d2 : n2 d1] and integer conic points
# (beta1 : beta2 : s : h) = (num^2 : den^2 : num^2 - den^2 : num den)
rng = random.Random(1)
pts, cps, mats = [], [], []
for _ in range(3):
    pa, pb = (q.random_point_int(rng)[0] for _ in range(2))
    c = q.conic_from_beta(*q.random_ratio(rng, nonzero=True))
    qp = mc.quadric_point(pa, pb, c)
    pts += [pa, pb]
    cps.append(c)
    mats.append(q.mat_scale(qp.a, Fraction(1, qp.e)))  # the SL(2) matrix
prod = mats[0]
for m in mats[1:]:
    prod = q.mat_mul(prod, m)
print("\nF on a constructed representation:",
      mc.evaluate_F(pts, cps, q.mat_trace(prod)))

# swapping a point pair while negating s leaves F untouched
t_last = Fraction(*q.random_ratio(rng))
base = mc.evaluate_F(pts, cps, t_last)
pts2, cps2 = mc.gamma_involution(2, pts, cps)
print("F invariant under the pair swap:",
      mc.evaluate_F(pts2, cps2, t_last) == base)

# the real forms: rotation matrices over exact Gaussian rationals
cp_ell = mc.conic_from_angle_parameter(Fraction(1, 3))
p = mc.ProjectivePoint(q.GaussianRational(1, 2), q.GaussianRational(3, -1))
em = mc.eta_matrix(p, cp_ell.t)
adj = ((em[0][0].conjugate(), em[1][0].conjugate()),
       (em[0][1].conjugate(), em[1][1].conjugate()))
print("\neta matrix unitary:", q.mat_mul(em, adj) == ((1, 0), (0, 1)),
      "with trace", q.mat_trace(em))
tq = mc.tau_matrix(p, cp_ell.t)
print("tau matrix real:", all(isinstance(x, Fraction)
                              for row in tq.a for x in row))

# Fricke: the cubic relation among negative traces, exactly zero; on
# integer maps M_i / D_i the residual comes times (D1 D2 D3)^12
one = mc.MobiusMap(((1, 0), (0, 1)))
print("\nFricke residual at the identity:", mc.fricke_verify(one, one, one))
worst = 0
for _ in range(200):
    res = mc.fricke_verify(*(q.random_mobius_int(rng) for _ in range(3)))
    worst = max(worst, res)
print("worst residual over 200 exact integer triples:", worst)
