"""Community growth against a naive set-bookkeeping re-implementation."""

import numpy as np
import pytest

from simpair import (
    CORE,
    REAL,
    CitationMatrix,
    Partition,
    build_communities,
    extract_partition,
    partition_stats,
    renormalize,
)

from pairlists import columns, rows

# Golden ten-pair example: two mutual top pairs, two joiners per side,
# and one bridge; nodes are 1..10 with 0 never mentioned.
TEN_PAIRS = columns([
    (2, 3, 0.4988),
    (3, 2, 0.4988),
    (5, 10, 0.3311),
    (10, 5, 0.3311),
    (1, 2, 0.2211),
    (6, 9, 0.2209),
    (9, 5, 0.2109),
    (8, 10, 0.1667),
    (4, 8, 0.1521),
    (7, 1, 0.1456),
])
# the same pairs on a dense 0..9 universe, so every node is mentioned
SHIFTED = (TEN_PAIRS[0] - 1, TEN_PAIRS[1] - 1, TEN_PAIRS[2])


def naive_build(pairs, n_nodes):
    """Reference: explicit lists of sets, no union-find, no labels.

    Returns (core member lists, real member sets, tide count, unassigned).
    """
    cores = []            # list of ordered member lists
    real_groups = []      # list of sets of core indices
    tides = 0
    for selector, selected, _sim in pairs:
        ca = next((k for k, c in enumerate(cores) if selector in c), None)
        cb = next((k for k, c in enumerate(cores) if selected in c), None)
        if ca is None and cb is None:
            cores.append([selector, selected])
            real_groups.append({len(cores) - 1})
        elif ca is not None and cb is None:
            cores[ca].append(selected)
        elif ca is None and cb is not None:
            cores[cb].append(selector)
        elif ca == cb:
            pass
        else:
            tides += 1
            ga = next(g for g in real_groups if ca in g)
            gb = next(g for g in real_groups if cb in g)
            if ga is not gb:
                real_groups.remove(gb)
                ga |= gb
    assigned = {v for c in cores for v in c}
    reals = [set().union(*(set(cores[k]) for k in g)) for g in real_groups]
    unassigned = set(range(n_nodes)) - assigned
    return cores, reals, tides, unassigned


def matches_naive(got, pairs, n_nodes) -> bool:
    """Whether a built result agrees with ``naive_build`` on the same pair
    columns: core member order, real member sets, tide count and unassigned
    nodes."""
    cores, reals, tides, unassigned = naive_build(rows(pairs), n_nodes)
    return (got.member_lists(CORE) == cores
            and sorted(map(sorted, got.member_lists(REAL))) == sorted(map(sorted, reals))
            and len(got.tides) == tides
            and set(got.unassigned.tolist()) == unassigned)


def random_pairs(rng, n_nodes, n_pairs):
    """Ranked pair columns of random pairs, with few distinct similarities."""
    pairs = []
    for _ in range(n_pairs):
        a = int(rng.integers(n_nodes))
        b = int(rng.integers(n_nodes - 1))
        if b >= a:
            b += 1
        pairs.append((a, b, float(rng.integers(1, 6)) / 10))
    return columns(sorted(pairs, key=lambda p: (-p[2], p[0], p[1])))


class TestGoldenTenPairs:
    def test_cores(self):
        r = build_communities(TEN_PAIRS, 11)
        assert r.member_lists(CORE) == [[2, 3, 1, 7], [5, 10, 8, 4], [6, 9]]

    def test_single_tide(self):
        r = build_communities(TEN_PAIRS, 11)
        assert len(r.tides) == 1
        selector, selected, core_a, core_b = r.tides[0].tolist()
        assert (selector, selected) == (9, 5)
        assert {core_a, core_b} == {1, 2}

    def test_reals(self):
        r = build_communities(TEN_PAIRS, 11)
        assert r.member_lists(REAL) == [[2, 3, 1, 7], [5, 10, 8, 4, 6, 9]]

    def test_counts(self):
        stats = partition_stats(build_communities(SHIFTED, 10))
        assert stats["cores"] == 3
        assert stats["reals"] == 2
        assert stats["tides"] == 1
        assert stats["unassigned"] == 0


class TestBuildCommunities:
    def test_empty_pairs_all_singletons(self):
        r = build_communities(columns([]), 3)
        assert len(r.real) == 0
        assert len(r.tides) == 0
        assert r.unassigned.tolist() == [0, 1, 2]
        assert partition_stats(r)["reals"] == 3

    def test_duplicate_reverse_pair_is_noop(self):
        r = build_communities(columns([(0, 1, 0.9), (1, 0, 0.9)]), 2)
        assert len(r.real) == 1
        assert r.member_lists(CORE) == [[0, 1]]

    def test_repeat_tides_counted_as_events(self):
        pairs = columns([
            (0, 1, 0.9),
            (2, 3, 0.8),
            (0, 2, 0.7),
            (1, 3, 0.6),  # same two cores again
        ])
        r = build_communities(pairs, 4)
        assert len(r.tides) == 2
        assert r.tide_merges == 1
        stats = partition_stats(r)
        assert stats["tides"] == 2
        assert stats["tide_events"] == 2
        assert stats["tide_merges"] == 1

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            build_communities(columns([(0, 5, 0.5)]), 3)

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError, match="itself"):
            build_communities(columns([(1, 2, 0.9), (0, 0, 0.5)]), 3)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(100)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            pairs = random_pairs(rng, n, int(rng.integers(0, 3 * n)))
            assert matches_naive(build_communities(pairs, n), pairs, n)

    def test_tie_block_shuffle_keeps_real_partition(self):
        def co_membership(part):
            return part.labels[:, None] == part.labels[None, :]

        rng = np.random.default_rng(200)
        for _ in range(40):
            n = 10
            pairs = random_pairs(rng, n, 14)  # few distinct sims: many ties
            baseline = extract_partition(build_communities(pairs, n), REAL)
            # shuffle within blocks of equal similarity
            blocks = {}
            for p in rows(pairs):
                blocks.setdefault(p.similarity, []).append(p)
            for block in blocks.values():
                rng.shuffle(block)
            shuffled = columns(p for sim in sorted(blocks, reverse=True)
                               for p in blocks[sim])
            permuted = extract_partition(build_communities(shuffled, n), REAL)
            assert np.array_equal(co_membership(baseline), co_membership(permuted))

    def test_real_count_identity(self):
        rng = np.random.default_rng(300)
        for _ in range(50):
            n = int(rng.integers(2, 15))
            r = build_communities(random_pairs(rng, n, n), n)
            assert len(r.member_lists(REAL)) == len(r.real) - r.tide_merges


class TestExtractPartition:
    def test_core_level_of_golden_example(self):
        part = extract_partition(build_communities(SHIFTED, 10), CORE)
        assert part.n_communities == 3

    def test_real_level_of_golden_example(self):
        part = extract_partition(build_communities(SHIFTED, 10), REAL)
        assert part.n_communities == 2

    def test_empty_result_gives_distinct_labels(self):
        part = extract_partition(build_communities(columns([]), 4), CORE)
        assert sorted(part.labels) == [0, 1, 2, 3]

    def test_partition_is_total_and_dense(self):
        rng = np.random.default_rng(400)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            r = build_communities(random_pairs(rng, n, n // 2), n)
            for level in (CORE, REAL):
                labels = extract_partition(r, level).labels
                assert len(labels) == n
                assert set(labels) == set(range(labels.max() + 1))


class TestRenormalize:
    def test_identity_partition_keeps_matrix(self):
        m = CitationMatrix.from_dense([[0, 2, 1], [3, 0, 0], [1, 1, 4]])
        p = Partition(labels=np.array([0, 1, 2]))
        assert np.array_equal(renormalize(m, p).to_dense(), m.to_dense())

    def test_single_label_collapses_to_total(self):
        m = CitationMatrix.from_dense([[0, 2, 1], [3, 0, 0], [1, 1, 4]])
        p = Partition(labels=np.array([0, 0, 0]))
        coarse = renormalize(m, p)
        assert coarse.to_dense().tolist() == [[12]]

    def test_block_sums(self):
        m = CitationMatrix.from_dense([
            [0, 1, 2, 3],
            [4, 0, 5, 6],
            [7, 8, 0, 9],
            [1, 1, 1, 0],
        ])
        p = Partition(labels=np.array([0, 0, 1, 1]))
        coarse = renormalize(m, p).to_dense()
        assert coarse.tolist() == [[5, 16], [17, 10]]

    def test_mass_conservation(self):
        rng = np.random.default_rng(500)
        dense = rng.integers(0, 10, size=(12, 12))
        m = CitationMatrix.from_dense(dense)
        labels = rng.integers(0, 4, size=12)
        labels[0] = 0  # keep label 0 in use so labels stay dense
        p = Partition(labels=np.unique(labels, return_inverse=True)[1])
        assert renormalize(m, p).total_citations == m.total_citations
