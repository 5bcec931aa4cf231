"""Selection laws checked by property tests over random similarity matrices."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from simpair import SimilarityMatrix, Strategy, select_many, select_pairs
from simpair import selection
from simpair.selection import _deletion_keys
from simpair.io import pairs_to_tsv

from pairlists import rows

SEEDS = st.integers(0, 2**63)
# few distinct levels, zeros included, so ties and zero rows are common
LEVELS = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)


@st.composite
def similarities(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    upper = np.triu(draw(arrays(np.float64, (n, n), elements=LEVELS)), 1)
    return SimilarityMatrix(values=upper + upper.T)


def top_candidates(s, i, topn):
    """Row i's top-n other nodes by similarity, ties to lower ids."""
    others = [j for j in range(s.n_nodes) if j != i]
    return sorted(others, key=lambda j: (-s.values[i, j], j))[:topn]


# derandomized, so the suite stays a deterministic gate
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(similarities(), SEEDS, st.sampled_from([None, 1, 2, 3]))
def test_psim_picks_positive_partner_never_self(s, seed, topn):
    pairs = select_pairs(s, Strategy("psim", topn=topn), seed)
    for p in rows(pairs):
        assert p.selector != p.selected
        assert p.similarity > 0.0
        assert p.similarity == s.values[p.selector, p.selected]
        if topn is not None:
            assert p.selected in top_candidates(s, p.selector, topn)
    eligible = {i for i in range(s.n_nodes)
                if sum(s.values[i, j] for j in top_candidates(s, i, topn or s.n_nodes)) > 0}
    assert sorted(pairs[0].tolist()) == sorted(eligible)


@PROPERTY
@given(similarities())
def test_max_picks_every_positive_row_maximum(s):
    selector, selected, sim = select_pairs(s, Strategy("max"))
    assert (selector != selected).all()
    assert (sim > 0.0).all()
    got = set(zip(selector.tolist(), selected.tolist()))
    want = {(i, j) for i in range(s.n_nodes) for j in range(s.n_nodes)
            if i != j and s.values[i, j] > 0.0 and s.values[i, j] == s.values[i].max()}
    assert got == want


@PROPERTY
@given(similarities(), SEEDS)
def test_uniform_never_picks_self(s, seed):
    selector, selected, _ = select_pairs(s, Strategy("p"), seed)
    assert sorted(selector.tolist()) == list(range(s.n_nodes))
    assert (selector != selected).all()
    assert ((0 <= selected) & (selected < s.n_nodes)).all()


@PROPERTY
@given(similarities(), SEEDS, st.floats(0.0, 1.0))
def test_deletion_hides_floor_fraction_never_diagonal(s, seed, d):
    n = s.n_nodes
    k = math.floor(d * (n - 1))
    deleted = _deletion_keys(seed, n, k)(slice(0, n))
    for i, hidden in enumerate(deleted):
        assert len(set(hidden.tolist())) == k
        assert i not in hidden
    visible = [[j for j in range(n) if j != i and j not in deleted[i]] for i in range(n)]
    want = {(i, j) for i in range(n) for j in visible[i]
            if s.values[i, j] > 0.0 and s.values[i, j] == max(s.values[i, c] for c in visible[i])}
    selector, selected, _ = select_pairs(s, Strategy("max", deletion=d), seed)
    assert set(zip(selector.tolist(), selected.tolist())) == want


@PROPERTY
@given(similarities(), SEEDS, st.sampled_from(["psim", "p"]))
def test_mixed_boundaries_are_byte_identical(s, seed, kind):
    def tsv(strategy):
        return pairs_to_tsv(rows(select_pairs(s, strategy, seed)))

    assert tsv(Strategy("mixed", mix_p=0.0, mix_kind=kind)) == tsv(Strategy("max"))
    assert tsv(Strategy("mixed", mix_p=1.0, mix_kind=kind)) == tsv(Strategy(kind))


STRATEGIES = [Strategy("max"), Strategy("psim"), Strategy("psim", topn=2), Strategy("p"),
              Strategy("max", deletion=0.5),
              Strategy("mixed", mix_p=0.5, mix_kind="psim"),
              Strategy("mixed", mix_p=0.5, mix_kind="p")]


@PROPERTY
@given(similarities(), SEEDS, st.sampled_from(STRATEGIES))
def test_selection_is_deterministic_per_seed(s, seed, strategy):
    assert rows(select_pairs(s, strategy, seed)) == rows(select_pairs(s, strategy, seed))


@PROPERTY
@given(similarities(), st.lists(st.tuples(st.sampled_from(STRATEGIES), SEEDS), max_size=6),
       st.integers(1, 5))
def test_select_many_equals_one_job_at_a_time(s, jobs, block_rows):
    with mock.patch.object(selection, "BLOCK_ROWS", block_rows):
        assert ([rows(pairs) for pairs in select_many(s, jobs)]
                == [rows(select_pairs(s, st_, seed)) for st_, seed in jobs])


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda st_: str(st_.describe()))
def test_row_blocks_do_not_change_the_draw(monkeypatch, strategy):
    rng = np.random.default_rng(40)
    upper = np.triu(np.round(rng.random((37, 37)), 1), 1)
    s = SimilarityMatrix(values=upper + upper.T)
    whole = rows(select_pairs(s, strategy, seed=3))
    monkeypatch.setattr(selection, "BLOCK_ROWS", 5)
    assert rows(select_pairs(s, strategy, seed=3)) == whole
