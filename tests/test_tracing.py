import pytest

import multicurve as mc
from multicurve import errors

from conftest import random_admissible


class TestTraceComponents:
    def test_zero_coloring(self, any_fixture):
        tri = any_fixture
        assert mc.trace_components(tri, [0] * tri.num_edges) == []

    def test_ex11_all_twos_is_the_peripheral_curve(self):
        tri = mc.fixture("ex11")
        comps = mc.trace_components(tri, (2, 2, 2))
        assert len(comps) == 1
        assert comps[0].peripheral == 0
        assert comps[0].length == 6

    def test_flower5_peripheral_traces(self):
        tri = mc.flower(5)
        for i, p in enumerate(mc.peripheral_colorings(tri)):
            comps = mc.trace_components(tri, p)
            assert len(comps) == 1
            assert comps[0].peripheral == i

    def test_partition_property(self, any_fixture, rng):
        tri = any_fixture
        for _ in range(15):
            c = random_admissible(rng, tri)
            comps = mc.trace_components(tri, c)
            total = [0] * tri.num_edges
            for comp in comps:
                assert mc.is_admissible(tri, comp.coloring)
                assert len(mc.trace_components(tri, comp.coloring)) == 1
                total = [a + b for a, b in
                         zip(total, comp.coloring.values)]
            assert tuple(total) == c.values

    def test_determinism(self, any_fixture, rng):
        tri = any_fixture
        c = random_admissible(rng, tri)
        first = mc.trace_components(tri, c)
        second = mc.trace_components(tri, c)
        assert [f.cycle for f in first] == [s.cycle for s in second]

    def test_no_unmatched_strand(self, any_fixture, rng):
        tri = any_fixture
        for _ in range(10):
            c = random_admissible(rng, tri)
            comps = mc.trace_components(tri, c)
            assert sum(comp.length for comp in comps) == sum(c.values)

    def test_not_admissible(self):
        tri = mc.fixture("ex11")
        with pytest.raises(errors.NotAdmissible):
            mc.trace_components(tri, (1, 0, 0))

    def test_corner_positive_implies_peripheral(self, any_fixture, rng):
        # strip_peripheral reads its counts off the corner minima, so the
        # traced components are the check: the tracer tags a cycle by
        # comparing its counts with a_p, which is independent code
        tri = any_fixture
        loops = mc.peripheral_colorings(tri)
        copies = 0
        for _ in range(15):
            c = random_admissible(rng, tri)
            for loop in rng.sample(loops, rng.randint(0, len(loops))):
                c = c + loop
            u = mc.corner_coords(tri, c)
            _, counts = mc.strip_peripheral(tri, c)
            tags = [comp.peripheral for comp in mc.trace_components(tri, c)]
            assert counts == [tags.count(p) for p in range(tri.punctures)]
            for p, corners in enumerate(tri.vertices):
                if all(u[theta] > 0 for theta in corners):
                    assert p in tags
            copies += sum(counts)
        assert copies


class TestStripPeripheral:
    def test_single_peripheral(self, any_fixture):
        tri = any_fixture
        for i, p in enumerate(mc.peripheral_colorings(tri)):
            stripped, counts = mc.strip_peripheral(tri, p)
            assert stripped.values == (0,) * tri.num_edges
            expected = [0] * tri.punctures
            expected[i] = 1
            assert counts == expected

    def test_double_peripheral(self):
        tri = mc.flower(5)
        p = mc.peripheral_colorings(tri)[0]
        doubled = [2 * v for v in p.values]
        stripped, counts = mc.strip_peripheral(tri, doubled)
        assert stripped.values == (0,) * tri.num_edges
        assert counts[0] == 2 and sum(counts) == 2

    def test_non_peripheral_untouched(self):
        tri = mc.fixture("n4ex")
        c = next(b.coloring for b in mc.enumerate_barbell_trees(tri)
                 if b.degree == 4)
        stripped, counts = mc.strip_peripheral(tri, c)
        assert stripped.values == c.values
        assert counts == [0, 0, 0, 0]

    def test_restrip_is_clean(self, any_fixture, rng):
        tri = any_fixture
        for _ in range(10):
            c = random_admissible(rng, tri)
            stripped, _ = mc.strip_peripheral(tri, c)
            again, counts = mc.strip_peripheral(tri, stripped)
            assert again.values == stripped.values
            assert sum(counts) == 0

    def test_degree_drops_exactly_with_counts(self, any_fixture, rng):
        tri = any_fixture
        perip_degrees = [mc.degree(tri, p)
                         for p in mc.peripheral_colorings(tri)]
        for _ in range(10):
            c = random_admissible(rng, tri)
            stripped, counts = mc.strip_peripheral(tri, c)
            removed = sum(k * d for k, d in zip(counts, perip_degrees))
            assert sum(stripped.values) == mc.degree(tri, c) - removed


class TestGeometricSum:
    def test_identity(self, any_fixture, rng):
        tri = any_fixture
        c = random_admissible(rng, tri)
        zero = [0] * tri.num_edges
        assert mc.geometric_sum(tri, c, zero).values == c.values

    def test_commutative(self, any_fixture, rng):
        tri = any_fixture
        c1, c2 = (random_admissible(rng, tri) for _ in range(2))
        assert mc.geometric_sum(tri, c1, c2) == mc.geometric_sum(tri, c2, c1)

    def test_ex11_generators_sum_to_peripheral(self):
        tri = mc.fixture("ex11")
        total = (0, 0, 0)
        for b in mc.enumerate_barbell_trees(tri):
            total = mc.geometric_sum(tri, total, b.coloring).values
        assert total == (2, 2, 2)
        comps = mc.trace_components(tri, total)
        assert len(comps) == 1 and comps[0].peripheral == 0

    def test_mismatch(self):
        tri1, tri2 = mc.fixture("ex11"), mc.fixture("flower:3")
        with pytest.raises(errors.TriangulationMismatch):
            mc.geometric_sum(tri1, (0, 0, 0), mc.Coloring(tri2, (0, 0, 0)))


def test_component_report_json():
    tri = mc.fixture("ex11")
    (comp,) = mc.trace_components(tri, (2, 2, 2))
    assert comp.to_json_dict() == {
        "coloring": [2, 2, 2], "length": 6, "peripheral": 0}
