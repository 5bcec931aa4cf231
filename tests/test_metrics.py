"""Entropy and NMI: hand-computed values and invariances."""

import math

import numpy as np
import pytest

from simpair import (
    Partition,
    build_communities,
    nmi,
    partition_stats,
)
from simpair.metrics import entropy, joint_entropy

from pairlists import columns


def brute_joint_entropy(x, y):
    """Reference: enumerate cells with a plain dict, sum in natural order."""
    cells = {}
    for a, b in zip(x, y):
        cells[(a, b)] = cells.get((a, b), 0) + 1
    n = len(x)
    return -sum((c / n) * math.log2(c / n) for c in cells.values())


class TestEntropy:
    def test_single_community(self):
        assert entropy(np.zeros(6, dtype=int)) == 0.0

    def test_uniform_binary_split(self):
        assert entropy(np.array([0, 0, 1, 1])) == pytest.approx(1.0, abs=1e-12)

    def test_one_three_split(self):
        want = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert entropy(np.array([0, 1, 1, 1])) == pytest.approx(want, abs=1e-12)
        assert entropy(np.array([0, 1, 1, 1])) == pytest.approx(0.811278, abs=1e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            entropy(np.array([], dtype=int))


class TestJointEntropy:
    def test_identical_partitions(self):
        x = np.array([0, 0, 1, 2, 2])
        assert joint_entropy(x, x) == entropy(x)

    def test_refinement_collapses_cells(self):
        y = np.array([0, 0, 1, 1])
        x = np.array([0, 1, 2, 2])  # refines y
        assert joint_entropy(x, y) == pytest.approx(entropy(x), abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            x = rng.integers(0, 5, size=n)
            y = rng.integers(0, 5, size=n)
            assert joint_entropy(x, y) == pytest.approx(
                brute_joint_entropy(x.tolist(), y.tolist()), abs=1e-12)

    def test_rejects_mismatched_node_sets(self):
        with pytest.raises(ValueError):
            joint_entropy(np.array([0, 1]), np.array([0, 1, 2]))


class TestNmi:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.integers(0, 6, size=int(rng.integers(2, 50)))
            if len(set(x.tolist())) > 1:
                assert nmi(x, x) == 1.0

    def test_refinement_value(self):
        y = np.array([0, 0, 1, 1])       # sizes {2, 2}
        x = np.array([0, 1, 2, 2])       # sizes {1, 1, 2}
        # (1 + 1.5 - 1.5) / ((1 + 1.5) / 2) = 0.8
        assert nmi(x, y) == pytest.approx(0.8, abs=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            x = rng.integers(0, 7, size=n)
            y = rng.integers(0, 4, size=n)
            assert nmi(x, y) == nmi(y, x)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 60))
            x = rng.integers(0, 7, size=n)
            y = rng.integers(0, 4, size=n)
            v = nmi(x, y)
            assert 0.0 <= v <= 1.0 + 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 5, size=40)
        y = rng.integers(0, 5, size=40)
        perm = rng.permutation(5)
        assert nmi(perm[x], y) == nmi(x, y)
        assert nmi(x, perm[y]) == nmi(x, y)

    def test_log_base_independence(self):
        def nmi_natural_log(x, y):
            def h(labels):
                n = len(labels)
                counts = {}
                for v in labels:
                    counts[v] = counts.get(v, 0) + 1
                return -sum((c / n) * math.log(c / n) for c in counts.values())

            def hj(a, b):
                n = len(a)
                cells = {}
                for pair in zip(a, b):
                    cells[pair] = cells.get(pair, 0) + 1
                return -sum((c / n) * math.log(c / n) for c in cells.values())

            hx, hy = h(x), h(y)
            if hx == 0 and hy == 0:
                return 1.0
            return (hx + hy - hj(x, y)) / ((hx + hy) / 2)

        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.integers(0, 5, size=30).tolist()
            y = rng.integers(0, 3, size=30).tolist()
            assert nmi(np.array(x), np.array(y)) == pytest.approx(
                nmi_natural_log(x, y), abs=1e-12)

    def test_both_trivial_partitions_compare_as_identical(self):
        x = np.zeros(5, dtype=int)
        assert nmi(x, x) == 1.0

    def test_one_trivial_partition_shares_no_information(self):
        x = np.zeros(6, dtype=int)
        y = np.array([0, 0, 1, 1, 2, 2])
        assert nmi(x, y) == 0.0

    def test_independent_partitions_near_zero(self):
        rng = np.random.default_rng(6)
        vals = []
        for _ in range(10):
            x = rng.permutation(np.repeat([0, 1], 500))
            y = rng.permutation(np.repeat([0, 1], 500))
            vals.append(nmi(x, y))
        assert max(vals) <= 0.1

    def test_accepts_partition_objects(self):
        p = Partition(labels=np.array([0, 0, 1, 1]), level="core")
        assert nmi(p, p) == 1.0


class TestPartitionStats:
    def test_empty_result(self):
        stats = partition_stats(build_communities(columns([]), 5))
        assert stats["cores"] == 0
        assert stats["reals"] == 5
        assert stats["tides"] == 0
        assert stats["core_sizes"]["min"] is None
        assert stats["real_sizes"]["histogram"] == {1: 5}

    def test_real_count_bounded_by_cores_plus_unassigned(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 15))
            pairs = []
            for _ in range(int(rng.integers(0, 2 * n))):
                a = int(rng.integers(n))
                b = int(rng.integers(n - 1))
                b += b >= a
                pairs.append((a, b, 0.5))
            stats = partition_stats(build_communities(columns(pairs), n))
            assert stats["reals"] <= stats["cores"] + stats["unassigned"]

    def test_size_summary(self):
        pairs = columns([(0, 1, 0.9), (2, 1, 0.8), (3, 4, 0.7)])
        stats = partition_stats(build_communities(pairs, 6))
        assert stats["core_sizes"] == {
            "min": 2, "max": 3, "mean": 2.5, "histogram": {2: 1, 3: 1}}
        assert stats["unassigned"] == 1
