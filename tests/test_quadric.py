import math
import random
from fractions import Fraction

import numpy as np
import pytest

import multicurve as mc
from multicurve import errors
from multicurve import quadric as q
from multicurve.exactnum import GaussianRational, rational_sqrt


def exact_point(a, b, c=0, d=0):
    if c or d:
        return mc.ProjectivePoint(GaussianRational(a, c),
                                  GaussianRational(b, d))
    return mc.ProjectivePoint(Fraction(a), Fraction(b))


class TestConic:
    def test_beta_one_branch_point(self):
        cp = mc.conic_from_beta(Fraction(1))
        assert (cp.t, cp.s) == (2, 0)
        assert cp.degenerate

    def test_beta_two(self):
        cp = mc.conic_from_beta(Fraction(2))
        assert (cp.t, cp.s) == (Fraction(5, 2), Fraction(3, 2))
        assert cp.t ** 2 - cp.s ** 2 == 4

    def test_beta_imaginary(self):
        cp = mc.conic_from_beta(1j)
        assert abs(cp.t) < 1e-15
        assert abs(cp.s - 2j) < 1e-15
        assert abs(cp.t ** 2 - cp.s ** 2 - 4) < 1e-12

    def test_zero_beta(self):
        with pytest.raises(errors.ZeroBeta):
            mc.conic_from_beta(Fraction(0))

    def test_angle_parameter_exact(self):
        for r in (Fraction(1, 3), Fraction(2), Fraction(5, 7)):
            cp = mc.conic_from_angle_parameter(r)
            assert cp.t * cp.t - cp.s * cp.s == 4
            assert cp.t.im == 0 and cp.s.re == 0 and cp.s.im > 0

    def test_elliptic_floats(self):
        cp = mc.conic_from_t_elliptic(0.75)
        assert abs(cp.t ** 2 - cp.s ** 2 - 4) < 1e-12
        assert cp.s.imag > 0


class TestQuadricPoint:
    def test_diagonal_example(self):
        cp = mc.conic_from_beta(Fraction(2))
        qp = mc.quadric_point(exact_point(1, 0), exact_point(0, 1), cp)
        assert qp.a == ((Fraction(-2), 0), (0, Fraction(-1, 2)))
        assert qp.e == -1
        assert q.mat_trace(qp.a) == cp.t * qp.e

    def test_equal_points_degenerate(self):
        cp = mc.conic_from_beta(Fraction(3))
        p = exact_point(2, 5)
        qp = mc.quadric_point(p, p, cp)
        assert qp.degenerate
        assert q.mat_trace(qp.a) == 0
        assert q.mat_det(qp.a) == 0

    def test_identities_random_exact(self, rng):
        for _ in range(30):
            cp = mc.conic_from_beta(q.random_rational_nonzero(rng))
            p1 = q.random_projective_point_exact(rng)
            p2 = q.random_projective_point_exact(rng)
            qp = mc.quadric_point(p1, p2, cp)
            det_r, tr_r = q.quadric_identity_residuals(qp, cp)
            assert det_r == 0 and tr_r == 0

    def test_identities_float_sweep(self):
        rng_np = np.random.default_rng(5)
        p1 = q.float_point_arrays(rng_np, 2000)
        p2 = q.float_point_arrays(rng_np, 2000)
        cp = q.float_conic_arrays(rng_np, 2000)
        qp = mc.quadric_point(p1, p2, cp)
        det_r, tr_r = q.quadric_identity_residuals(qp, cp)
        assert np.max(np.abs(det_r)) < 1e-12
        assert np.max(np.abs(tr_r)) < 1e-12

    def test_projective_equality(self):
        cp = mc.conic_from_beta(Fraction(2))
        qp1 = mc.quadric_point(exact_point(1, 2), exact_point(3, 1), cp)
        qp2 = mc.quadric_point(exact_point(2, 4), exact_point(3, 1), cp)
        assert qp1.projectively_equal(qp2)
        qp3 = mc.quadric_point(exact_point(1, 3), exact_point(3, 1), cp)
        assert not qp1.projectively_equal(qp3)


class TestEquivariance:
    def test_identity_map(self):
        cp = mc.conic_from_beta(Fraction(2))
        rho = mc.MobiusMap(((Fraction(1), 0), (0, Fraction(1))))
        assert mc.equivariance_check(rho, exact_point(1, 0),
                                     exact_point(0, 1), cp)

    def test_parabolic_example_exact(self):
        rho = mc.MobiusMap(((Fraction(1), Fraction(1)),
                            (Fraction(0), Fraction(1))))
        cp = mc.conic_from_beta(Fraction(2))
        rep = mc.equivariance_check(rho, exact_point(1, 0),
                                    exact_point(0, 1), cp)
        assert rep and rep.residual == 0

    def test_exact_sweep(self):
        rng = random.Random(11)
        for _ in range(100):
            rep = mc.equivariance_check(
                q.random_mobius_exact(rng),
                q.random_projective_point_exact(rng),
                q.random_projective_point_exact(rng),
                mc.conic_from_beta(q.random_rational_nonzero(rng)))
            assert rep and rep.residual == 0

    def test_float_sweep(self):
        rng_np = np.random.default_rng(3)
        n = 5000
        rep = mc.equivariance_check(q.float_mobius_arrays(rng_np, n),
                                    q.float_point_arrays(rng_np, n),
                                    q.float_point_arrays(rng_np, n),
                                    q.float_conic_arrays(rng_np, n))
        assert rep and rep.residual < 1e-12

    def test_pulled_back_action_is_mobius(self, rng):
        # the conjugated matrix fixes exactly the moved points
        for _ in range(20):
            cp = mc.conic_from_beta(q.random_rational_nonzero(rng))
            p1 = q.random_projective_point_exact(rng)
            p2 = q.random_projective_point_exact(rng)
            rho = q.random_mobius_exact(rng)
            base = mc.quadric_point(p1, p2, cp)
            conj = q.mat_mul(q.mat_mul(rho.m, base.a),
                             q.mat_inv_sl2(rho.m))
            for moved in (rho.apply(p1), rho.apply(p2)):
                img = mc.ProjectivePoint(
                    conj[0][0] * moved.x1 + conj[0][1] * moved.x2,
                    conj[1][0] * moved.x1 + conj[1][1] * moved.x2)
                if base.degenerate:
                    continue
                assert img.same_point(moved)


class TestEvaluateF:
    def test_trace_identity_n2(self):
        cp = mc.conic_from_beta(Fraction(2))
        p1, p2 = exact_point(1, 0), exact_point(0, 1)
        assert mc.evaluate_F([p1, p2], [cp], cp.t) == 0

    def test_constructed_representations_vanish(self):
        rng = random.Random(23)
        built = 0
        for _ in range(40):
            k = rng.choice([1, 2, 3, 4])
            pts, cps, mats = [], [], []
            degenerate = False
            for _i in range(k):
                pa = q.random_projective_point_exact(rng)
                pb = q.random_projective_point_exact(rng)
                cp = mc.conic_from_beta(q.random_rational_nonzero(rng))
                qp = mc.quadric_point(pa, pb, cp)
                if qp.degenerate:
                    degenerate = True
                    break
                pts += [pa, pb]
                cps.append(cp)
                mats.append(qp.normalized())
            if degenerate:
                continue
            prod = mats[0]
            for m in mats[1:]:
                prod = q.mat_mul(prod, m)
            assert mc.evaluate_F(pts, cps, q.mat_trace(prod)) == 0
            built += 1
        assert built >= 30

    def test_multihomogeneous(self, rng):
        pts = [q.random_projective_point_exact(rng) for _ in range(4)]
        cps = [mc.conic_from_beta(q.random_rational_nonzero(rng))
               for _ in range(2)]
        t_last = q.random_rational(rng)
        base = mc.evaluate_F(pts, cps, t_last)
        lam = Fraction(7, 3)
        for i in range(4):
            scaled = list(pts)
            scaled[i] = mc.ProjectivePoint(lam * pts[i].x1, lam * pts[i].x2)
            assert mc.evaluate_F(scaled, cps, t_last) == lam * base

    def test_length_mismatch(self):
        cp = mc.conic_from_beta(Fraction(2))
        with pytest.raises(errors.LengthMismatch):
            mc.evaluate_F([exact_point(1, 0)], [cp], Fraction(1))


class TestGammaInvolution:
    def test_invariance_each_factor(self, rng):
        for _ in range(10):
            pts = [q.random_projective_point_exact(rng) for _ in range(6)]
            cps = [mc.conic_from_beta(q.random_rational_nonzero(rng))
                   for _ in range(3)]
            t_last = q.random_rational(rng)
            base = mc.evaluate_F(pts, cps, t_last)
            for i in (1, 2, 3):
                pts2, cps2 = mc.gamma_involution(i, pts, cps)
                assert mc.evaluate_F(pts2, cps2, t_last) == base

    def test_involution_squares_to_identity(self, rng):
        pts = [q.random_projective_point_exact(rng) for _ in range(4)]
        cps = [mc.conic_from_beta(q.random_rational_nonzero(rng))
               for _ in range(2)]
        pts2, cps2 = mc.gamma_involution(1, *mc.gamma_involution(1, pts, cps))
        for before, after in zip(pts, pts2):
            assert before.same_point(after)
        assert cps2[0].s == cps[0].s

    def test_composite_invariance(self, rng):
        pts = [q.random_projective_point_exact(rng) for _ in range(6)]
        cps = [mc.conic_from_beta(q.random_rational_nonzero(rng))
               for _ in range(3)]
        t_last = q.random_rational(rng)
        base = mc.evaluate_F(pts, cps, t_last)
        for i in (1, 2, 3):
            pts, cps = mc.gamma_involution(i, pts, cps)
        assert mc.evaluate_F(pts, cps, t_last) == base

    def test_index_range(self):
        cp = mc.conic_from_beta(Fraction(2))
        pts = [exact_point(1, 0), exact_point(0, 1)]
        with pytest.raises(errors.IndexOutOfRange):
            mc.gamma_involution(2, pts, [cp])


def projectively_equal(m, n, tol=0):
    """(A, e) of m and n agree up to one common nonzero scalar."""
    u = [*m.a[0], *m.a[1], m.e]
    v = [*n.a[0], *n.a[1], n.e]
    scale = max(map(abs, u)) * max(map(abs, v))
    return scale != 0 and all(
        abs(u[i] * v[j] - u[j] * v[i]) <= tol * scale
        for i in range(5) for j in range(i + 1, 5))


def conjugate_point(p):
    return mc.ProjectivePoint(p.x1.conjugate(), p.x2.conjugate())


class TestTau:
    def test_exact_realness_and_identities(self, rng):
        cp = mc.conic_from_angle_parameter(Fraction(1, 3))
        t = cp.t
        y = rational_sqrt(4 - t.re ** 2)
        upper = mc.ConicPoint(t, GaussianRational(0, y))
        lower = mc.ConicPoint(t, GaussianRational(0, -y))
        for _ in range(25):
            p = q.random_gaussian_point(rng)
            try:
                tq = mc.tau_matrix(p, t)
            except errors.TauDegenerate:
                continue
            # tau is the real representative of (p, conj p) at s = +iy
            assert projectively_equal(
                tq, mc.quadric_point(p, conjugate_point(p), upper))
            assert not projectively_equal(
                tq, mc.quadric_point(p, conjugate_point(p), lower))
            for row in tq.a:
                for x in row:
                    assert isinstance(x, Fraction)
            assert q.mat_det(tq.a) == tq.e * tq.e
            assert q.mat_trace(tq.a) == t.re * tq.e
            normalized = tq.normalized()
            assert q.mat_det(normalized) == 1
            assert q.mat_trace(normalized) == t.re

    def test_float_realness_sweep(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            x1, x2 = (complex(*rng.standard_normal(2)) for _ in range(2))
            t = float(rng.uniform(-1.99, 1.99))
            try:
                tq = mc.tau_matrix(mc.ProjectivePoint(x1, x2), t)
            except errors.TauDegenerate:
                continue
            assert all(abs(x.imag) == 0 for row in tq.a for x in row
                       if isinstance(x, complex))
            upper = mc.ConicPoint(complex(t), 1j * math.sqrt(4 - t * t))
            p = mc.ProjectivePoint(x1, x2)
            assert projectively_equal(
                tq, mc.quadric_point(p, conjugate_point(p), upper), 1e-9)
            det_r = q.mat_det(tq.a) - tq.e ** 2
            assert abs(det_r) < 1e-9

    def test_degenerate_on_real_circle(self):
        with pytest.raises(errors.TauDegenerate):
            mc.tau_matrix(exact_point(1, 2), Fraction(6, 5))


class TestEta:
    def test_infinity_rotation(self):
        theta = 1.234
        t = 2 * math.cos(theta / 2)
        em = mc.eta_matrix(mc.ProjectivePoint(1 + 0j, 0j), t)
        expect = complex(math.cos(theta / 2), math.sin(theta / 2))
        assert abs(em[0][0] - expect) < 1e-12
        assert abs(em[1][1] - expect.conjugate()) < 1e-12
        assert abs(em[0][1]) == 0 and abs(em[1][0]) == 0

    def test_exact_unitarity(self, rng):
        cp = mc.conic_from_angle_parameter(Fraction(2, 5))
        t = cp.t
        for _ in range(25):
            p = q.random_gaussian_point(rng)
            em = mc.eta_matrix(p, t)
            assert q.mat_det(em) == 1
            assert q.mat_trace(em) == t.re
            adjoint = ((em[0][0].conjugate(), em[1][0].conjugate()),
                       (em[0][1].conjugate(), em[1][1].conjugate()))
            assert q.mat_mul(em, adjoint) == ((1, 0), (0, 1))

    def test_float_unitarity_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(500):
            x1, x2 = (complex(*rng.standard_normal(2)) for _ in range(2))
            t = float(rng.uniform(-1.99, 1.99))
            em = mc.eta_matrix(mc.ProjectivePoint(x1, x2), t)
            adjoint = ((em[0][0].conjugate(), em[1][0].conjugate()),
                       (em[0][1].conjugate(), em[1][1].conjugate()))
            residual = q.mat_sub(q.mat_mul(em, adjoint), ((1, 0), (0, 1)))
            assert q.mat_max_abs(residual) < 1e-12

    def test_fixes_p_and_antipode(self, rng):
        cp = mc.conic_from_angle_parameter(Fraction(1, 2))
        for _ in range(10):
            p = q.random_gaussian_point(rng)
            em = mc.eta_matrix(p, cp.t)
            antipode = mc.ProjectivePoint(p.x2.conjugate(),
                                          -(p.x1.conjugate()))
            for fixed in (p, antipode):
                img = mc.ProjectivePoint(
                    em[0][0] * fixed.x1 + em[0][1] * fixed.x2,
                    em[1][0] * fixed.x1 + em[1][1] * fixed.x2)
                assert img.same_point(fixed)


class TestFricke:
    def test_identity_matrices_hand_value(self):
        one = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        a, (c12, c23, c13) = q.fricke_trace_coordinates(one, one, one)
        assert a == [Fraction(-2)] * 4
        assert (c12, c23, c13) == (-2, -2, -2)
        # left side -8 equals the expanded right side -8
        assert c12 * c23 * c13 == -8
        assert mc.fricke_verify(one, one, one) == 0

    def test_exact_sweep(self):
        rng = random.Random(41)
        for _ in range(100):
            residual = mc.fricke_verify(q.random_sl2_rational(rng),
                                        q.random_sl2_rational(rng),
                                        q.random_sl2_rational(rng))
            assert residual == 0

    def test_float_sweep(self):
        rng_np = np.random.default_rng(17)

        def sl2(n):
            a = q.complex_array(rng_np, n)
            a = np.where(np.abs(a) < 0.5, a + 1.0, a)
            b = q.complex_array(rng_np, n)
            c = q.complex_array(rng_np, n)
            return ((a, b), (c, (1 + b * c) / a))

        res = mc.fricke_verify(sl2(5000), sl2(5000), sl2(5000))
        assert float(np.max(res)) < 1e-9

    def test_not_unit_determinant(self):
        bad = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
        one = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        with pytest.raises(errors.NotUnitDeterminant):
            mc.fricke_verify(bad, one, one)


class TestZRelation:
    def test_identity_matrices(self):
        one = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        z, residual = mc.z_relation_verify(one, one, one)
        assert z == -2        # 4 - (-2) - (4 + 4)
        assert residual == 0

    def test_exact_sweep_and_fricke_consistency(self):
        rng = random.Random(43)
        for _ in range(50):
            b1, b2, b3 = (q.random_sl2_rational(rng) for _ in range(3))
            z, residual = mc.z_relation_verify(b1, b2, b3)
            assert residual == 0
            assert mc.fricke_verify(b1, b2, b3) == 0
