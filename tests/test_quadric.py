import math
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import conjugate_point, random_gaussian_point
from oracles import (
    fraction_mobius,
    fraction_point,
    fraction_rational,
    fricke_cubic,
    fricke_traces,
)

import multicurve as mc
from multicurve import errors
from multicurve import quadric as q
from multicurve.exactnum import GaussianRational, rational_sqrt


def same_point(p, r):
    return q.projective_residual((p.x1, p.x2), (r.x1, r.x2)) == 0


def exact_point(a, b, c=0, d=0):
    if c or d:
        return mc.ProjectivePoint(GaussianRational(a, c),
                                  GaussianRational(b, d))
    return mc.ProjectivePoint(Fraction(a), Fraction(b))


def fraction_conic(rng):
    return mc.conic_from_beta(fraction_rational(rng, 6, nonzero=True))


class TestConic:
    def test_beta_one_branch_point(self):
        cp = mc.conic_from_beta(Fraction(1))
        assert (cp.t, cp.s) == (2, 0)
        assert cp.degenerate

    def test_beta_two(self):
        cp = mc.conic_from_beta(Fraction(2))
        assert (cp.t, cp.s) == (Fraction(5, 2), Fraction(3, 2))
        assert cp.t ** 2 - cp.s ** 2 == 4

    def test_int_input_stays_exact(self):
        # ints halve and invert as Fractions, never as floats
        cp = mc.conic_from_beta(2)
        assert (cp.t, cp.s, cp.beta2) == (Fraction(5, 2), Fraction(3, 2),
                                          Fraction(1, 2))
        assert all(type(x) is Fraction for x in (cp.t, cp.s, cp.beta2))
        branch = mc.ConicPoint(2, 0)
        assert type(branch.beta1) is Fraction and branch.beta1 == 1
        a = mc.quadric_point(mc.ProjectivePoint(1, 2),
                             mc.ProjectivePoint(3, 1),
                             q.conic_from_beta(2, 3)).normalized()
        assert a[0] == (Fraction(5, 3), Fraction(-1, 2))
        assert all(type(x) is Fraction for row in a for x in row)
        rho = q.MobiusMap(((2, 1), (1, 1)))
        report = mc.equivariance_check(rho, mc.ProjectivePoint(1, 2),
                                       mc.ProjectivePoint(3, 1), cp)
        assert report.ok and type(report.residual) is int

    def test_beta_imaginary(self):
        cp = mc.conic_from_beta(1j)
        assert abs(cp.t) < 1e-15
        assert abs(cp.s - 2j) < 1e-15
        assert abs(cp.t ** 2 - cp.s ** 2 - 4) < 1e-12

    def test_zero_beta(self):
        with pytest.raises(errors.ZeroBeta):
            mc.conic_from_beta(Fraction(0))

    def test_zero_h(self):
        # (3 : 3 : 0) has t^2 - s^2 = 4 h^2 but is off the affine conic
        with pytest.raises(ValueError, match="h = 0"):
            mc.ConicPoint(3, 3, h=0)
        with pytest.raises(errors.ZeroBeta):
            q.conic_from_beta(3, 0)

    def test_angle_parameter_exact(self):
        for r in (Fraction(1, 3), Fraction(2), Fraction(5, 7)):
            cp = mc.conic_from_angle_parameter(r)
            assert cp.t * cp.t - cp.s * cp.s == 4
            assert cp.t.im == 0 and cp.s.re == 0 and cp.s.im > 0

    def test_elliptic_floats(self):
        cp = mc.conic_from_t_elliptic(0.75)
        assert abs(cp.t ** 2 - cp.s ** 2 - 4) < 1e-12
        assert cp.s.imag > 0

    def test_off_the_conic(self):
        with pytest.raises(ValueError,
                           match=r"t\^2 - s\^2 != 4 \(residual 4\)"):
            mc.ConicPoint(3, 1)

    def test_angle_parameter_must_be_positive(self):
        with pytest.raises(ValueError, match="need r > 0"):
            mc.conic_from_angle_parameter(0)

    @pytest.mark.parametrize("t,message", [
        (GaussianRational(1, 1), "t must be real"),
        (Fraction(5, 2), r"need \|t\| < 2"),
        (1, r"4 - t\^2 = 3 is not a rational square"),
    ], ids=["complex", "outside", "not-a-square"])
    def test_elliptic_exact_refused(self, t, message):
        with pytest.raises(ValueError, match=message):
            mc.conic_from_t_elliptic(t)


class TestQuadricPoint:
    def test_zero_zero_is_no_point(self):
        with pytest.raises(ValueError, match=r"\[0 : 0\] is not a projective"):
            mc.ProjectivePoint(0, 0)

    def test_normalized_needs_e(self):
        with pytest.raises(ZeroDivisionError, match="e = 0 on the base curve"):
            q.QuadricPoint(((1, 0), (0, 1)), 0).normalized()

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
            cp = fraction_conic(rng)
            p1 = fraction_point(rng)
            p2 = fraction_point(rng)
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
        assert q.projective_residual(qp1.coords(), qp2.coords()) == 0
        qp3 = mc.quadric_point(exact_point(1, 3), exact_point(3, 1), cp)
        assert q.projective_residual(qp1.coords(), qp3.coords()) != 0


class TestProjectiveResidual:
    def test_exact_tuples(self):
        u = (Fraction(1, 2), 3, GaussianRational(1, 2), 0, -5)
        v = tuple(Fraction(-7, 3) * x for x in u)
        assert q.projective_residual(u, v) == 0
        assert q.projective_residual(u, (*v[:4], v[4] + 1)) != 0
        # integers beyond 64 bits stay exact
        assert q.projective_residual((10 ** 30, 3), (10 ** 31, 30)) == 0
        assert q.projective_residual((10 ** 30, 3), (10 ** 30 + 1, 3)) != 0

    def test_float_arrays_entrywise(self):
        rng = np.random.default_rng(3)
        u = tuple(q.complex_array(rng, 50) for _ in range(5))
        z = q.complex_array(rng, 50)
        v = [x * z for x in u]
        v[2] = v[2] + np.where(np.arange(50) == 7, 1, 0)
        res = q.projective_residual(u, v)
        assert res.shape == (50,)
        assert res[7] > 1e-3 and np.max(np.delete(res, 7)) < 1e-14
        for i in (3, 7):
            one = q.projective_residual([x[i] for x in u], [x[i] for x in v])
            assert one == pytest.approx(res[i], rel=1e-12, abs=1e-15)


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

    def test_exact_residual_is_the_largest_difference(self, monkeypatch):
        # M A(p, q) M in place of M A(p, q) adj(M): the exact check fails
        # and reports the largest |difference| as its residual
        monkeypatch.setattr(q, "mat_inv_sl2", lambda m: m)
        rho = mc.MobiusMap(((Fraction(1), Fraction(1)),
                            (Fraction(0), Fraction(1))))
        rep = mc.equivariance_check(rho, exact_point(1, 0),
                                    exact_point(0, 1),
                                    mc.conic_from_beta(Fraction(2)))
        assert not rep
        assert rep.residual > 0

    def test_exact_sweep(self):
        rng = random.Random(11)
        for _ in range(100):
            rep = mc.equivariance_check(
                fraction_mobius(rng),
                fraction_point(rng),
                fraction_point(rng),
                fraction_conic(rng))
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
            cp = fraction_conic(rng)
            p1 = fraction_point(rng)
            p2 = fraction_point(rng)
            rho = fraction_mobius(rng)
            base = mc.quadric_point(p1, p2, cp)
            conj = q.mat_mul(q.mat_mul(rho.m, base.a),
                             q.mat_inv_sl2(rho.m))
            for moved in (rho.apply(p1), rho.apply(p2)):
                img = mc.ProjectivePoint(
                    conj[0][0] * moved.x1 + conj[0][1] * moved.x2,
                    conj[1][0] * moved.x1 + conj[1][1] * moved.x2)
                if base.degenerate:
                    continue
                assert same_point(img, moved)


class TestEvaluateF:
    def test_needs_a_factor(self):
        with pytest.raises(errors.LengthMismatch,
                           match="need at least one matrix factor"):
            mc.evaluate_F([], [], 1)

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
                pa = fraction_point(rng)
                pb = fraction_point(rng)
                cp = fraction_conic(rng)
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
        pts = [fraction_point(rng) for _ in range(4)]
        cps = [fraction_conic(rng)
               for _ in range(2)]
        t_last = fraction_rational(rng, 6)
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
            pts = [fraction_point(rng) for _ in range(6)]
            cps = [fraction_conic(rng)
                   for _ in range(3)]
            t_last = fraction_rational(rng, 6)
            base = mc.evaluate_F(pts, cps, t_last)
            for i in (1, 2, 3):
                pts2, cps2 = mc.gamma_involution(i, pts, cps)
                assert mc.evaluate_F(pts2, cps2, t_last) == base

    def test_involution_squares_to_identity(self, rng):
        pts = [fraction_point(rng) for _ in range(4)]
        cps = [fraction_conic(rng)
               for _ in range(2)]
        pts2, cps2 = mc.gamma_involution(1, *mc.gamma_involution(1, pts, cps))
        for before, after in zip(pts, pts2):
            assert same_point(before, after)
        assert cps2[0].s == cps[0].s

    def test_composite_invariance(self, rng):
        pts = [fraction_point(rng) for _ in range(6)]
        cps = [fraction_conic(rng)
               for _ in range(3)]
        t_last = fraction_rational(rng, 6)
        base = mc.evaluate_F(pts, cps, t_last)
        for i in (1, 2, 3):
            pts, cps = mc.gamma_involution(i, pts, cps)
        assert mc.evaluate_F(pts, cps, t_last) == base

    def test_index_range(self):
        cp = mc.conic_from_beta(Fraction(2))
        pts = [exact_point(1, 0), exact_point(0, 1)]
        with pytest.raises(errors.IndexOutOfRange):
            mc.gamma_involution(2, pts, [cp])


class TestTau:
    def test_exact_realness_and_identities(self, rng):
        cp = mc.conic_from_angle_parameter(Fraction(1, 3))
        t = cp.t
        y = rational_sqrt(4 - t.re ** 2)
        upper = mc.ConicPoint(t, GaussianRational(0, y))
        lower = mc.ConicPoint(t, GaussianRational(0, -y))
        for _ in range(25):
            p = random_gaussian_point(rng)
            try:
                tq = mc.tau_matrix(p, t)
            except errors.TauDegenerate:
                continue
            # tau is the real representative of (p, conj p) at s = +iy
            assert q.projective_residual(tq.coords(), mc.quadric_point(
                p, conjugate_point(p), upper).coords()) == 0
            assert q.projective_residual(tq.coords(), mc.quadric_point(
                p, conjugate_point(p), lower).coords()) != 0
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
            assert q.projective_residual(tq.coords(), mc.quadric_point(
                p, conjugate_point(p), upper).coords()) <= 1e-9
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
            p = random_gaussian_point(rng)
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

    def test_arrays_match_scalars(self):
        rng = np.random.default_rng(21)
        p = q.float_point_arrays(rng, 50)
        t = rng.uniform(-1.99, 1.99, 50)
        cp = mc.conic_from_t_elliptic(t)
        tq = mc.tau_matrix(p, t)
        em = mc.eta_matrix(p, t)
        for i in range(50):
            pi = mc.ProjectivePoint(complex(p.x1[i]), complex(p.x2[i]))
            ti = float(t[i])
            cpi = mc.conic_from_t_elliptic(ti)
            tqi = mc.tau_matrix(pi, ti)
            emi = mc.eta_matrix(pi, ti)
            for arrays, scalars in (
                    ((cp.t, cp.s, cp.beta1, cp.beta2),
                     (cpi.t, cpi.s, cpi.beta1, cpi.beta2)),
                    (tq.coords(), tqi.coords()),
                    ([x for row in em for x in row],
                     [x for row in emi for x in row])):
                bound = 1e-14 * max(map(abs, scalars))
                for x, y in zip(arrays, scalars):
                    assert abs(x[i] - y) <= bound

    def test_array_outside_the_interval(self):
        # the second entry is out of range, not the first
        with pytest.raises(ValueError, match=r"need \|t\| < 2"):
            mc.conic_from_t_elliptic(np.array([0.5, 2.5]))

    def test_fixes_p_and_antipode(self, rng):
        cp = mc.conic_from_angle_parameter(Fraction(1, 2))
        for _ in range(10):
            p = random_gaussian_point(rng)
            em = mc.eta_matrix(p, cp.t)
            antipode = mc.ProjectivePoint(p.x2.conjugate(),
                                          -(p.x1.conjugate()))
            for fixed in (p, antipode):
                img = mc.ProjectivePoint(
                    em[0][0] * fixed.x1 + em[0][1] * fixed.x2,
                    em[1][0] * fixed.x1 + em[1][1] * fixed.x2)
                assert same_point(img, fixed)


class TestFricke:
    def test_identity_matrices_hand_value(self):
        one = mc.MobiusMap(((Fraction(1), Fraction(0)),
                            (Fraction(0), Fraction(1))))
        a, (c12, c23, c13) = q.fricke_trace_coordinates(one, one, one)
        assert a == [Fraction(-2)] * 4
        assert (c12, c23, c13) == (-2, -2, -2)
        # left side -8 equals the expanded right side -8
        assert c12 * c23 * c13 == -8
        assert mc.fricke_verify(one, one, one) == 0

    def test_exact_sweep(self):
        rng = random.Random(41)
        for _ in range(100):
            residual = mc.fricke_verify(fraction_mobius(rng),
                                        fraction_mobius(rng),
                                        fraction_mobius(rng))
            assert residual == 0

    def test_float_sweep(self):
        rng_np = np.random.default_rng(17)
        maps = [q.float_mobius_arrays(rng_np, 5000) for _ in range(3)]
        res = mc.fricke_verify(*maps)
        assert float(np.max(res)) < 1e-9

    def test_not_unit_determinant(self):
        bad = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1)))
        with pytest.raises(errors.NotUnitDeterminant):
            mc.MobiusMap(bad)


class TestFrickeOracle:
    """The Fricke evaluation against plain ring arithmetic: value for value
    on Fraction maps (D = 1), as numerators over L on integer maps, and bit
    for bit on float maps."""

    MIXED = [((Fraction(1), 0), (0, Fraction(1))),
             ((2, 1), (1, 1)),
             ((Fraction(1, 2), 0), (3, 2)),
             ((Fraction(-2, 3), Fraction(5, 4)),
              (Fraction(1, 6), Fraction(-29, 16)))]

    def triples(self, seed, n):
        rng = random.Random(seed)
        for _ in range(n):
            yield [fraction_mobius(rng) for _ in range(3)]
        for b1 in self.MIXED:
            for b2 in self.MIXED:
                yield [mc.MobiusMap(b1), mc.MobiusMap(b2),
                       fraction_mobius(rng)]

    def integer_triples(self, seed, n):
        rng = random.Random(seed)
        unit = [mc.MobiusMap(((2, 1), (1, 1))),
                mc.MobiusMap(((1, 0), (-3, 1)))]
        for _ in range(n):
            maps = [q.random_mobius_int(rng) for _ in range(3)]
            yield maps
            # D = D_1 and D = D_2: one map is taken as it is
            yield [maps[0], *unit]
            yield [unit[0], maps[1], unit[1]]

    def test_exact_traces_and_residuals(self):
        for maps in self.triples(51, 200):
            a, c = q.fricke_trace_coordinates(*maps)
            assert (a, c) == fricke_traces(*(r.m for r in maps))
            residual = mc.fricke_verify(*maps)
            assert type(residual) is Fraction
            assert residual == fricke_cubic(a, *c) == 0

    def test_exact_residual_off_the_surface(self):
        # the cubic at integer numerators over el is el^4 times the cubic
        # at the Fractions
        rng = random.Random(52)
        nonzero = 0
        for _ in range(300):
            nums = [rng.randint(-36, 36) for _ in range(7)]
            el = rng.randint(1, 36)
            a, c = ([Fraction(x, el) for x in nums[:4]],
                    [Fraction(x, el) for x in nums[4:]])
            residual = fricke_cubic(a, *c)
            assert abs(q._cubic(*nums, el)) == el ** 4 * residual
            nonzero += residual != 0
        assert nonzero > 250

    def test_z_relation(self):
        for maps in self.triples(53, 100):
            a, (c12, c23, c13) = fricke_traces(*(r.m for r in maps))
            z = c12 * c13 - c23 - (a[0] * a[3] + a[1] * a[2])
            assert mc.z_relation_verify(*maps) == (
                z, fricke_cubic(a, c12, z, c13))

    def test_integer_maps(self):
        # traces times L = (D1 D2 D3)^3, the residual times L^4 and
        # (z, residual) times (L^2, L^8), all as ints
        for maps in self.integer_triples(54, 60):
            el = (maps[0].den * maps[1].den * maps[2].den) ** 3
            a, c = fricke_traces(*(q.mat_scale(r.m, Fraction(1, r.den))
                                   for r in maps))
            got_a, got_c = q.fricke_trace_coordinates(*maps)
            assert got_a == [el * x for x in a]
            assert got_c == tuple(el * x for x in c)
            assert all(type(x) is int for x in (*got_a, *got_c))
            residual = mc.fricke_verify(*maps)
            assert type(residual) is int
            assert residual == el ** 4 * fricke_cubic(a, *c) == 0
            c12, c23, c13 = c
            z = c12 * c13 - c23 - (a[0] * a[3] + a[1] * a[2])
            assert mc.z_relation_verify(*maps) == (
                el ** 2 * z, el ** 8 * fricke_cubic(a, c12, z, c13))

    def test_determinant_message(self):
        # det(M / D) - 1, one Fraction for integer M
        for m, den in ((((Fraction(3, 2), 0), (0, 1)), 1),
                       (((3, 0), (0, 2)), 2)):
            with pytest.raises(errors.NotUnitDeterminant, match=r"= 1/2$"):
                mc.MobiusMap(m, den=den)

    @pytest.mark.parametrize("seed", [17, 303])
    def test_float_bit_identical(self, seed):
        rng_np = np.random.default_rng(seed)
        maps = [q.float_mobius_arrays(rng_np, 3000) for _ in range(3)]
        a, c = q.fricke_trace_coordinates(*maps)
        a_ref, c_ref = fricke_traces(*(r.m for r in maps))
        for x, y in zip((*a, *c), (*a_ref, *c_ref)):
            assert np.array_equal(x, y)
        res = mc.fricke_verify(*maps)
        ref = fricke_cubic(a_ref, *c_ref)
        assert res.dtype == ref.dtype
        assert res.tobytes() == ref.tobytes()


class TestZRelation:
    def test_identity_matrices(self):
        one = mc.MobiusMap(((Fraction(1), Fraction(0)),
                            (Fraction(0), Fraction(1))))
        z, residual = mc.z_relation_verify(one, one, one)
        assert z == -2        # 4 - (-2) - (4 + 4)
        assert residual == 0

    def test_exact_sweep_and_fricke_consistency(self):
        rng = random.Random(43)
        for _ in range(50):
            b1, b2, b3 = (fraction_mobius(rng) for _ in range(3))
            z, residual = mc.z_relation_verify(b1, b2, b3)
            assert residual == 0
            assert mc.fricke_verify(b1, b2, b3) == 0


class TestIntegerDraws:
    """The integer draws take the Fraction oracle's random calls and give
    integer representatives of its values."""

    @pytest.mark.parametrize("seed", range(20))
    def test_same_calls_same_values(self, seed):
        # read as Fractions, the integer draws are the oracle's values
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(10):
            assert Fraction(*q.random_ratio(rng)) == fraction_rational(ref, 6)
            assert Fraction(*q.random_ratio(rng, 2, nonzero=True)) == (
                fraction_rational(ref, 2, nonzero=True))
            p, den = q.random_point_int(rng)
            r = fraction_point(ref)
            assert (Fraction(p.x1, den), Fraction(p.x2, den)) == (r.x1, r.x2)
            for span in (4, 3):
                rho = q.random_mobius_int(rng, span)
                assert q.mat_scale(rho.m, Fraction(1, rho.den)) == (
                    fraction_mobius(ref, span).m)
        assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("seed", range(20))
    def test_integer_representatives(self, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(10):
            p, den = q.random_point_int(rng)
            r = fraction_point(ref)
            assert (p.x1, p.x2) == (den * r.x1, den * r.x2)
            rho = q.random_mobius_int(rng)
            assert rho.m == q.mat_scale(fraction_mobius(ref).m, rho.den)
            num, d = q.random_ratio(rng, nonzero=True)
            beta = fraction_rational(ref, 6, nonzero=True)
            cp, want = q.conic_from_beta(num, d), mc.conic_from_beta(beta)
            for x, y in ((cp.t, want.t), (cp.s, want.s),
                         (cp.beta1, want.beta1), (cp.beta2, want.beta2)):
                assert type(x) is int and x == cp.h * y
        assert rng.getstate() == ref.getstate()

    def test_zero_ratio(self):
        # 0/3, and 3/0: its (t : s : h) = (9 : 9 : 0) has t^2 - s^2 = 4 h^2
        # but is off the affine conic t^2 - s^2 = 4
        for num, den in ((0, 3), (3, 0)):
            with pytest.raises(errors.ZeroBeta):
                q.conic_from_beta(num, den)

    def test_integer_quadric_point_is_projectively_equal(self, rng):
        for _ in range(30):
            p, den_p = q.random_point_int(rng)
            pt = fraction_point(rng)
            num, den = q.random_ratio(rng, nonzero=True)
            got = mc.quadric_point(p, pt, q.conic_from_beta(num, den))
            exact = mc.ProjectivePoint(Fraction(p.x1, den_p),
                                       Fraction(p.x2, den_p))
            want = mc.quadric_point(exact, pt,
                                    mc.conic_from_beta(Fraction(num, den)))
            scale = num * den * den_p
            assert got.a == q.mat_scale(want.a, scale)
            assert got.e == scale * want.e

    def test_fricke_verify_on_integer_maps(self, monkeypatch):
        # residual D^12 |cubic|, D = D1 D2 D3, on the cubic and, with a1
        # moved by one, off it
        rng = random.Random(61)
        real = q.fricke_trace_coordinates
        for shift in (0, 1):
            def moved(b1, b2, b3):
                a, c = real(b1, b2, b3)
                den = b1.den * b2.den * b3.den
                return [a[0] + shift * den ** 3, *a[1:]], c

            monkeypatch.setattr(q, "fricke_trace_coordinates", moved)
            for _ in range(50):
                maps = [q.random_mobius_int(rng) for _ in range(3)]
                den = maps[0].den * maps[1].den * maps[2].den
                a, c = fricke_traces(*(q.mat_scale(r.m, Fraction(1, r.den))
                                       for r in maps))
                a[0] += shift
                residual = fricke_cubic(a, *c)
                assert mc.fricke_verify(*maps) == den ** 12 * residual
                assert (residual != 0) == bool(shift)
