"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values are exact combinatorial statements; tolerances and
time budgets are asserted where stated.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
from conftest import conjugate_point

import multicurve as mc
from multicurve import quadric as q
from multicurve.gitstab import Stability, all_partitions


def _report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_1_generator_counts_and_degrees():
    t0 = time.time()
    expected = {
        "ex11": {2: 3},
        "n4ex": {3: 4, 4: 3},
        "n4ex2": {2: 2, 4: 4, 6: 2},
    }
    for name, degrees in expected.items():
        start = time.time()
        barbells = mc.enumerate_barbell_trees(mc.fixture(name))
        assert Counter(b.degree for b in barbells) == degrees, name
        assert time.time() - start < 10

    start = time.time()
    barbells = mc.enumerate_barbell_trees(mc.flower(5))
    counts = Counter(b.degree for b in barbells)
    assert len(barbells) == 15
    assert counts[6] == 2      # the two adjacent-petal pair curves
    assert counts[8] == 4      # the four far pair curves
    assert counts[11] == 4     # the four triple curves
    assert time.time() - start < 10
    _report(f"criterion 1 PASS: generator counts/degrees "
            f"(ex11 3x2, n4ex 4x3+3x4, n4ex2 2+4+2, flower:5 15) "
            f"in {time.time() - t0:.1f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for name in ("ex11", "n4ex", "n4ex2", "flower:4", "flower:5"):
        tri = mc.fixture(name)
        barbell_values = {b.coloring.values
                          for b in mc.enumerate_barbell_trees(tri)}
        for c in mc.enumerate_admissible(tri, 12):
            if not any(c.values):
                continue
            assert mc.is_indecomposable(tri, c) == \
                (c.values in barbell_values), (name, c.values)
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 300
    _report(f"criterion 2 PASS: indecomposable <=> barbell tree for "
            f"{checked} admissible colorings of degree <= 12 "
            f"({elapsed:.1f}s < 5min)")


def test_criterion_3_flower_count_law():
    for n in (4, 5, 6, 7):
        barbells = mc.enumerate_barbell_trees(mc.flower(n))
        assert len(barbells) == 2 ** (n - 1) - 1, n
        assert sum(b.simple for b in barbells) == n * (n - 1) // 2, n
    _report("criterion 3 PASS: |generators| = 2^(n-1)-1 and "
            "|simple| = C(n,2) for n = 4..7")


def test_criterion_4_sphere_certificates():
    t0 = time.time()
    for name, fvec in (("ex11", (3, 3)), ("n4ex", (3, 3)),
                       ("n4ex2", (4, 4))):
        cpx = mc.relative_complex(mc.fixture(name))
        assert cpx.f_vector() == fvec, name
        assert mc.sphere_certificate(cpx, 1).granted, name

    cpx5 = mc.relative_complex(mc.flower(5))
    fvec5 = cpx5.f_vector()
    assert fvec5[0] == 6 and fvec5[3] == 6
    assert sum((-1) ** d * c for d, c in enumerate(fvec5)) == 0
    cert = mc.sphere_certificate(cpx5, 3)
    assert cert.granted and cert.pseudomanifold
    assert [b for b, _ in cpx5.homology()] == [1, 0, 0, 1]

    try:
        mc.relative_complex(mc.fixture("flower:3"))
        raise AssertionError("flower:3 relative complex must be empty")
    except mc.errors.EmptyRelativeComplex:
        pass
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(f"criterion 4 PASS: sphere certificates (3 circles, one "
            f"homology 3-sphere with 6 top cells), flower:3 empty "
            f"({elapsed:.1f}s < 1min)")


def test_criterion_5_mutation_consistency():
    tri = mc.fixture("n4ex")
    other = mc.fixture("n4ex2")
    for e in range(tri.num_edges):
        assert mc.is_isomorphic(mc.flip(tri, e), other)

    flipped = mc.flip(tri, 0)
    before = sorted(p.values for p in mc.peripheral_colorings(tri))
    moved = sorted(mc.mutation_transfer(tri, 0, p).values
                   for p in mc.peripheral_colorings(tri))
    target = sorted(p.values for p in mc.peripheral_colorings(flipped))
    assert moved == target  # a_i -> a_i

    # involutive bijection on a degree-bounded box
    box = mc.enumerate_admissible(tri, 8)
    image = set()
    for c in box:
        over = mc.mutation_transfer(tri, 0, c)
        image.add(over.values)
        assert mc.mutation_transfer(flipped, 0, over).values == c.values
    assert len(image) == len(box)

    betti = [b for b, _ in mc.relative_complex(tri).homology()]
    betti_fl = [b for b, _ in mc.relative_complex(flipped).homology()]
    assert betti == betti_fl == [1, 1]

    degrees = sorted(mc.degree(flipped, mc.mutation_transfer(tri, 0, p))
                     for p in mc.peripheral_colorings(tri))
    assert [sum(v) for v in before] == [3, 3, 3, 3]
    assert degrees == [2, 2, 4, 4]
    _report("criterion 5 PASS: flip(n4ex) iso n4ex2, transfer bijective + "
            "involutive, a_i -> a_i with degrees {3,3,3,3} -> {2,2,4,4}, "
            "Betti numbers preserved")


def test_criterion_6_git_stability():
    t0 = time.time()
    assert mc.classify_partition((1, 1, 1, 1), [{0, 1}, {2}, {3}]) \
        is Stability.STRICTLY_SEMISTABLE
    assert mc.classify_partition(
        (3, 3, 1, 1, 1, 1), [{0, 1}, {2}, {3}, {4}, {5}]) \
        is Stability.UNSTABLE

    # no block containing a symmetric pair => never unstable (m <= 8)
    checked = 0
    for pairs in (2, 3, 4):
        m = 2 * pairs
        partitions = [part for part in all_partitions(m)
                      if not any({2 * i, 2 * i + 1} <= set(block)
                                 for block in part for i in range(pairs))]
        span = range(1, 4) if pairs < 4 else range(1, 3)
        for bs in itertools.product(*(span for _ in range(pairs))):
            a = mc.symmetric_weights(bs)
            for part in partitions:
                assert mc.classify_partition(a, part) \
                    is not Stability.UNSTABLE
                checked += 1
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(f"criterion 6 PASS: classification examples + off-diagonal "
            f"semistability over {checked} (weights, partition) pairs "
            f"({elapsed:.1f}s < 1min)")


def test_criterion_7_parametrization_sweeps():
    t0 = time.time()
    # on the integer representatives M / D, (n1 d2 : n2 d1) and
    # (beta1 : beta2 : s : h) of the drawn rationals
    rng = random.Random(101)
    for _ in range(100):
        p1 = q.random_point_int(rng)[0]
        p2 = q.random_point_int(rng)[0]
        rho = q.random_mobius_int(rng)
        cp = q.conic_from_beta(*q.random_ratio(rng, nonzero=True))
        rep = mc.equivariance_check(rho, p1, p2, cp)
        assert rep and rep.residual == 0
        det_r, tr_r = q.quadric_identity_residuals(
            mc.quadric_point(p1, p2, cp), cp)
        assert det_r == 0 and tr_r == 0

    rng_np = np.random.default_rng(101)
    n = 100000
    pts1 = q.float_point_arrays(rng_np, n)
    pts2 = q.float_point_arrays(rng_np, n)
    rho = q.float_mobius_arrays(rng_np, n)
    cps = q.float_conic_arrays(rng_np, n)
    rep = mc.equivariance_check(rho, pts1, pts2, cps)
    assert rep and rep.residual < 1e-12
    qp = mc.quadric_point(pts1, pts2, cps)
    det_r, tr_r = q.quadric_identity_residuals(qp, cps)
    assert float(np.max(np.abs(det_r))) < 1e-12
    assert float(np.max(np.abs(tr_r))) < 1e-12

    # F invariant under every involution factor
    for _ in range(25):
        pts = [q.random_point_int(rng)[0] for _ in range(6)]
        cps_e = [q.conic_from_beta(*q.random_ratio(rng, nonzero=True))
                 for _ in range(3)]
        t_last = Fraction(*q.random_ratio(rng))
        base = mc.evaluate_F(pts, cps_e, t_last)
        for i in (1, 2, 3):
            pts_i, cps_i = mc.gamma_involution(i, pts, cps_e)
            assert mc.evaluate_F(pts_i, cps_i, t_last) == base

    # tau is the real point (p, conj p, +iy) of the quadric; eta unitary
    eta_res = 0.0
    rng2 = np.random.default_rng(55)
    for _ in range(1000):
        x1, x2 = (complex(*rng2.standard_normal(2)) for _ in range(2))
        p = mc.ProjectivePoint(x1, x2)
        t = float(rng2.uniform(-1.99, 1.99))
        try:
            tq = mc.tau_matrix(p, t)
        except mc.errors.TauDegenerate:
            pass
        else:
            upper = mc.ConicPoint(complex(t), 1j * math.sqrt(4 - t * t))
            assert q.projective_residual(tq.coords(), mc.quadric_point(
                p, conjugate_point(p), upper).coords()) <= 1e-9
        em = mc.eta_matrix(p, t)
        adj = ((em[0][0].conjugate(), em[1][0].conjugate()),
               (em[0][1].conjugate(), em[1][1].conjugate()))
        eta_res = max(eta_res, q.mat_max_abs(
            q.mat_sub(q.mat_mul(em, adj), ((1, 0), (0, 1)))))
    assert eta_res < 1e-12
    elapsed = time.time() - t0
    assert elapsed < 60
    _report(f"criterion 7 PASS: equivariance exact x100 and <1e-12 x1e5, "
            f"quadric identities, F invariance, tau on the +iy branch, "
            f"eta unitary ({elapsed:.1f}s < 1min)")


def test_criterion_8_fricke_relation():
    one = mc.MobiusMap(((Fraction(1), 0), (0, Fraction(1))))
    a, (c12, c23, c13) = q.fricke_trace_coordinates(one, one, one)
    assert c12 * c23 * c13 == -8  # the hand value -8 = -8
    assert mc.fricke_verify(one, one, one) == 0

    # integer maps M_i / D_i: the residual times (D1 D2 D3)^12
    rng = random.Random(303)
    for _ in range(100):
        residual = mc.fricke_verify(q.random_mobius_int(rng),
                                    q.random_mobius_int(rng),
                                    q.random_mobius_int(rng))
        assert residual == 0

    rng_np = np.random.default_rng(303)
    res = mc.fricke_verify(*(q.float_mobius_arrays(rng_np, 10000)
                             for _ in range(3)))
    worst = float(np.max(res))
    assert worst < 1e-9
    _report(f"criterion 8 PASS: Fricke residual exactly 0 on 100 exact "
            f"triples, max {worst:.2e} < 1e-9 on 1e4 float triples, "
            f"identity-matrix value -8 reproduced")
