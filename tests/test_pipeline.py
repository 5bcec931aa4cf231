"""End-to-end detection pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simpair import (
    CitationMatrix,
    Strategy,
    detect,
    detect_from_pairs,
)
from simpair.pipeline import Level

from pairlists import columns
from test_similarity_properties import DIGEST_STRATEGIES, SEEDS, citation_matrices


@pytest.fixture()
def two_cliques():
    dense = np.zeros((6, 6), dtype=int)
    for block in ((0, 1, 2), (3, 4, 5)):
        for i in block:
            for j in block:
                if i != j:
                    dense[i, j] = 5
    return CitationMatrix.from_dense(dense)


class TestDetect:
    def test_blocks_become_real_communities(self, two_cliques):
        d = detect(two_cliques, Strategy("max"))
        groups = {tuple(sorted(np.flatnonzero(d.real.labels == lbl)))
                  for lbl in range(d.real.n_communities)}
        assert groups == {(0, 1, 2), (3, 4, 5)}

    def test_zero_citation_node_stays_singleton(self):
        dense = np.zeros((4, 4), dtype=int)
        dense[0, 1] = dense[1, 0] = 2
        dense[0, 2] = dense[1, 2] = 1  # shared target ties 0 and 1 together
        d = detect(CitationMatrix.from_dense(dense), Strategy("max"))
        assert 3 in d.result.unassigned.tolist()
        assert d.real.labels[3] not in (d.real.labels[0], d.real.labels[1])

    def test_provenance_records_strategy(self, two_cliques):
        d = detect(two_cliques, Strategy("psim", topn=2), seed=5)
        assert d.provenance["strategy"] == {"kind": "psim", "topn": 2}
        assert d.provenance["seed"] == 5
        assert d.provenance["levels"] == 1

    def test_rejects_negative_levels(self, two_cliques):
        with pytest.raises(ValueError):
            detect(two_cliques, Strategy("max"), levels=-1)

    def test_single_node_matrix(self):
        d = detect(CitationMatrix.from_dense([[0]]), Strategy("max"))
        assert d.real.labels.tolist() == [0]
        assert d.result.unassigned.tolist() == [0]


class TestDetectFromPairs:
    def test_matches_build_on_same_pairs(self):
        d = detect_from_pairs(columns([(0, 1, 0.9), (2, 1, 0.8)]), 4)
        assert d.core.labels.tolist() == [0, 0, 0, 1]
        assert d.level_stats[0]["unassigned"] == 1

    def test_records_pairs_provenance(self):
        d = detect_from_pairs(columns([(0, 1, 0.5)]), 2)
        assert d.provenance["strategy"] == {"kind": "pairs"}

    def test_pair_order_does_not_matter(self):
        given = [(0, 1, 0.1), (2, 3, 0.2), (1, 2, 0.9)]
        ranked = [given[2], given[1], given[0]]
        for pairs in (given, ranked):
            d = detect_from_pairs(columns(pairs), 4)
            assert d.core.labels.tolist() == [0, 0, 0, 0]
            assert list(d.pairs) == ranked

    def test_ties_keep_their_given_order(self):
        a, b = (0, 1, 0.5), (2, 3, 0.5)
        assert list(detect_from_pairs(columns([a, b]), 4).pairs) == [a, b]
        assert list(detect_from_pairs(columns([b, a]), 4).pairs) == [b, a]

    @pytest.mark.parametrize("kind", ["max", "psim"])
    def test_detect_pairs_replay_the_first_level(self, two_cliques, kind):
        d = detect(two_cliques, Strategy(kind), seed=3)
        replay = detect_from_pairs(columns(d.pairs), two_cliques.n_nodes)
        assert np.array_equal(replay.core.labels, d.core.labels)
        assert np.array_equal(replay.real.labels, d.real.labels)
        assert replay.level_stats[0] == d.level_stats[0]


def assert_same_level(got: Level, want: Level) -> None:
    """Every array of two levels is equal, and so are their stats."""
    for name in ("core", "real", "members", "tides"):
        assert np.array_equal(getattr(got.result, name), getattr(want.result, name)), name
    assert got.result.n_nodes == want.result.n_nodes
    for got_col, want_col in zip(got.pairs, want.pairs, strict=True):
        assert np.array_equal(got_col, want_col)
    assert np.array_equal(got.core.labels, want.core.labels)
    assert np.array_equal(got.real.labels, want.real.labels)
    assert got.stats == want.stats


def coarser(labels: np.ndarray, finer: np.ndarray) -> bool:
    """Whether each community of ``finer`` lies inside one of ``labels``."""
    of_finer = np.empty(finer.max(initial=-1) + 1, dtype=labels.dtype)
    of_finer[finer] = labels
    return np.array_equal(of_finer[finer], labels)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(citation_matrices(), st.sampled_from(DIGEST_STRATEGIES), SEEDS)
def test_each_level_of_a_fixpoint_is_the_last_of_a_shorter_run(m, strategy, seed):
    """``detect(levels=0).levels[k - 1]`` is ``detect(levels=k).levels[-1]``
    for every k run, and a replay of the first level's pairs gives it back."""
    fixpoint = detect(m, strategy, seed, levels=0)
    assert len(fixpoint.levels) == fixpoint.provenance["levels_run"]
    for k, want in enumerate(fixpoint.levels, 1):
        shorter = detect(m, strategy, seed, levels=k)
        assert len(shorter.levels) == k
        assert_same_level(shorter.levels[-1], want)
    # each level's nodes are the reals of the level below it, over the original nodes
    for below, level in zip(fixpoint.levels, fixpoint.levels[1:]):
        assert level.result.n_nodes == below.real.n_communities
        assert coarser(level.core.labels, below.real.labels)
        assert coarser(level.real.labels, level.core.labels)
    first = fixpoint.levels[0]
    assert_same_level(detect_from_pairs(first.pairs, m.n_nodes).levels[0], first)
