import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multicurve as mc
from multicurve import errors
from multicurve.gitstab import Stability, all_partitions


class TestClassify:
    def test_strictly_semistable(self):
        result = mc.classify_partition((1, 1, 1, 1), [{0, 1}, {2}, {3}])
        assert result is Stability.STRICTLY_SEMISTABLE

    def test_unstable_heavy_block(self):
        result = mc.classify_partition((3, 3, 1, 1, 1, 1),
                                       [{0, 1}, {2}, {3}, {4}, {5}])
        assert result is Stability.UNSTABLE

    def test_singletons_stable_for_nondegenerate(self):
        for a in ((1, 1, 1, 1), (2, 3, 4), (1, 1, 2, 2, 3, 3)):
            assert mc.is_nondegenerate(a)
            singletons = [{i} for i in range(len(a))]
            assert mc.classify_partition(a, singletons) is Stability.STABLE

    def test_bad_partition(self):
        with pytest.raises(errors.BadPartition):
            mc.classify_partition((1, 1, 1), [{0}, {1}])
        with pytest.raises(errors.BadPartition):
            mc.classify_partition((1, 1, 1), [{0, 1}, {1, 2}])
        with pytest.raises(errors.BadPartition):
            mc.classify_partition((1, 1, 1), [{0, 1, 2}, set()])

    def test_float_weights_raise(self):
        # truncated to (1, 1, 1) they would read Stable
        with pytest.raises(TypeError):
            mc.classify_partition([1.5, 1.9, 1.2], [[0], [1], [2]])

    def test_float_block_indices_raise(self):
        # truncated to blocks 0, 1, 2 they would read Stable
        with pytest.raises(TypeError):
            mc.classify_partition([1, 1, 1], [[0.7], [1.2], [2.9]])

    def test_numpy_integers_pass(self):
        a = np.array([1, 1, 1, 1], dtype=np.int64)
        blocks = [np.array([0, 1]), [np.int64(2)], [3]]
        assert (mc.classify_partition(a, blocks)
                is Stability.STRICTLY_SEMISTABLE)
        assert mc.polystable_splits(a) == mc.polystable_splits((1, 1, 1, 1))

    def test_coarsening_keeps_unstable(self):
        # merging the violating block with anything keeps it violating
        a = (3, 3, 1, 1, 1, 1)
        base = [{0, 1}, {2}, {3}, {4}, {5}]
        assert mc.classify_partition(a, base) is Stability.UNSTABLE
        merged = [{0, 1, 2}, {3}, {4}, {5}]
        assert mc.classify_partition(a, merged) is Stability.UNSTABLE
        merged2 = [{0, 1, 2, 3}, {4, 5}]
        assert mc.classify_partition(a, merged2) is Stability.UNSTABLE


class TestNondegenerate:
    def test_examples(self):
        assert not mc.is_nondegenerate((5, 1, 1, 1))
        assert not mc.is_nondegenerate((2, 1, 1))  # equality is degenerate
        assert mc.is_nondegenerate((1, 1, 1, 1))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=2, max_size=5))
    def test_symmetric_always_nondegenerate(self, b):
        assert mc.is_nondegenerate(mc.symmetric_weights(b))

    def test_symmetric_weights_refuse_floats(self):
        # truncated, 1.5 would read as the pair (1, 1)
        assert mc.symmetric_weights([np.int64(3), 2]) == (3, 3, 2, 2)
        with pytest.raises(TypeError):
            mc.symmetric_weights([1.5, 2])


class TestPolystableSplits:
    def test_four_ones(self):
        splits = mc.polystable_splits((1, 1, 1, 1))
        assert splits == [((0, 1), (2, 3)), ((0, 2), (1, 3)),
                          ((0, 3), (1, 2))]

    def test_odd_total_empty(self):
        assert mc.polystable_splits((1, 1, 1)) == []

    def test_float_weights_raise(self):
        # truncated to (1, 1, 1, 1) they would give its three splits
        with pytest.raises(TypeError):
            mc.polystable_splits([1.5, 1.5, 1.9, 1.2])

    def test_exhaustive_against_brute_force(self):
        a = (3, 3, 1, 1, 1, 1)
        splits = mc.polystable_splits(a)
        total = sum(a)
        for block, other in splits:
            assert sum(a[i] for i in block) == total // 2
            assert set(block) | set(other) == set(range(6))
        # brute force count over subsets containing index 0
        from itertools import combinations
        count = 0
        for size in range(6):
            for rest in combinations(range(1, 6), size):
                block = (0,) + rest
                if len(block) < 6 and sum(a[i] for i in block) == total // 2:
                    count += 1
        assert len(splits) == count


class TestToricPolytope:
    def test_dominant_pair_box(self):
        tp = mc.toric_polytope((3, 3, 1, 1, 1, 1))
        assert tp.pair_index == 0
        assert tp.surviving_indices == (2, 3, 4, 5)
        assert tp.bounds == (1, 1, 1, 1)

    def test_no_dominant_pair(self):
        with pytest.raises(errors.ToricHypothesisFails):
            mc.toric_polytope((1, 1, 1, 1))

    def test_not_symmetric(self):
        with pytest.raises(errors.ToricHypothesisFails):
            mc.toric_polytope((3, 2, 1, 1))

    def test_second_example(self):
        tp = mc.toric_polytope((7, 7, 1, 1, 2, 2))
        assert tp.pair_index == 0
        assert tp.bounds == (1, 1, 2, 2)


class TestOffDiagonalSemistability:
    """Partitions without a full symmetric pair are never unstable."""

    @pytest.mark.parametrize("pairs", [2, 3])
    def test_exhaustive(self, pairs):
        m = 2 * pairs
        import itertools
        for bs in itertools.product(*(range(1, 4) for _ in range(pairs))):
            a = mc.symmetric_weights(bs)
            for partition in all_partitions(m):
                if any({2 * i, 2 * i + 1} <= set(block)
                       for block in partition for i in range(pairs)):
                    continue
                result = mc.classify_partition(a, partition)
                assert result is not Stability.UNSTABLE, (a, partition)
