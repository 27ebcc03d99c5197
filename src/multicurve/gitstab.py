"""Stability bookkeeping for weighted point configurations on the line.

A configuration of m points on the projective line with positive integer
weights a_1..a_m is classified through its coincidence partition: a block
whose weight exceeds that of its complement destabilizes, equality gives a
strictly semistable configuration, and strict minority everywhere is
stable.  Only this combinatorial layer is implemented; the quotient
varieties themselves are out of scope, except for the explicit box-slice
moment polytope available when one symmetric weight pair dominates.
"""

import operator
from enum import Enum
from itertools import combinations

from .errors import BadPartition, BadWeights, ToricHypothesisFails


class Stability(Enum):
    STABLE = "Stable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "Unstable"

    def __str__(self):
        return self.value


def _check_weights(a):
    a = tuple(map(operator.index, a))
    if len(a) < 3:
        raise BadWeights("need at least 3 weights")
    if any(x <= 0 for x in a):
        raise BadWeights("weights must be positive")
    return a


def _check_partition(m, blocks):
    blocks = [frozenset(map(operator.index, block)) for block in blocks]
    if any(not block for block in blocks):
        raise BadPartition("empty block")
    if sorted(i for block in blocks for i in block) != list(range(m)):
        raise BadPartition(f"blocks do not partition range({m})")
    return blocks


def classify_partition(a, blocks):
    """Stability class of a coincidence partition (0-based blocks)."""
    a = _check_weights(a)
    blocks = _check_partition(len(a), blocks)
    total = sum(a)
    tie = False
    for block in blocks:
        s = sum(a[i] for i in block)
        if 2 * s > total:
            return Stability.UNSTABLE
        if 2 * s == total:
            tie = True
    return Stability.STRICTLY_SEMISTABLE if tie else Stability.STABLE


def is_nondegenerate(a):
    """Every weight strictly below the sum of the others."""
    a = _check_weights(a)
    total = sum(a)
    return all(2 * x < total for x in a)


def is_symmetric(a):
    a = _check_weights(a)
    return len(a) % 2 == 0 and all(a[2 * i] == a[2 * i + 1]
                                   for i in range(len(a) // 2))


def symmetric_weights(b):
    """Expand pair weights (b_1..b_k) to (b_1,b_1,...,b_k,b_k)."""
    return tuple(x for x in map(operator.index, b) for _ in range(2))


def polystable_splits(a):
    """Unordered 2-block partitions with equal weight on both sides.

    Returned in canonical order, each split as a pair of sorted index
    tuples with the block containing index 0 first.
    """
    a = _check_weights(a)
    total = sum(a)
    if total % 2 != 0:
        return []
    m = len(a)
    half = total // 2
    splits = []
    for size in range(m - 1):                  # the other side is never empty
        for rest in combinations(range(1, m), size):
            block = (0,) + rest
            if sum(a[i] for i in block) == half:
                other = tuple(i for i in range(m) if i not in block)
                splits.append((block, other))
    splits.sort()
    return splits


def all_partitions(m):
    """Every set partition of range(m) (restricted growth enumeration)."""
    if m == 0:
        yield []
        return

    def rec(i, blocks):
        if i == m:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [[0]])


class ToricPolytope:
    """Half-space data for the box slice { -a_i <= x_i <= a_i, sum x = 0 }."""

    def __init__(self, pair_index, surviving_indices, bounds):
        self.pair_index = pair_index            # dominant pair (0-based)
        self.surviving_indices = tuple(surviving_indices)
        self.bounds = tuple(bounds)

    def to_json_dict(self):
        return {
            "dominant_pair": self.pair_index,
            "surviving_indices": list(self.surviving_indices),
            "bounds": [{"index": i, "low": -b, "high": b}
                       for i, b in zip(self.surviving_indices, self.bounds)],
            "hyperplane": "sum of coordinates = 0",
            "empty_divisor_pair": self.pair_index,
        }


def toric_polytope(a):
    """Moment polytope when one symmetric pair outweighs all the others.

    Requires a symmetric with b_{i0} > sum of the other b_j for some
    (necessarily unique) pair i0; the corresponding diagonal divisor is
    empty and the quotient is the toric variety of the returned box slice.
    """
    a = _check_weights(a)
    if not is_symmetric(a):
        raise ToricHypothesisFails("weights are not symmetric")
    b = [a[2 * i] for i in range(len(a) // 2)]
    total = sum(b)
    dominant = [i for i, x in enumerate(b) if 2 * x > total]
    if not dominant:
        raise ToricHypothesisFails(
            "no pair weight exceeds the sum of the others")
    i0 = dominant[0]
    surviving = [j for j in range(len(a)) if j // 2 != i0]
    return ToricPolytope(i0, surviving, [a[j] for j in surviving])
