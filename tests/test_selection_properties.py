"""Selection laws checked by property tests over random similarity matrices."""

import hashlib
import itertools
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from simpair import (CORE, REAL, CitationMatrix, SimilarityMatrix, Strategy, build_communities,
                     build_similarity_matrix, extract_partition, select_many, select_pairs)
from simpair import selection
from simpair.selection import _walk_steps
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
    """Each row's partners are the visible entries of one positive value v;
    every entry above v, and every entry at v left out, was hidden, and at
    most floor(d * (N - 1)) are."""
    n = s.n_nodes
    k = math.floor(d * (n - 1))
    dense = s.values.toarray()
    selector, selected, sim = select_pairs(s, Strategy("max", deletion=d), seed)
    for i in range(n):
        row = np.delete(dense[i], i)
        partners = selected[selector == i]
        assert i not in partners
        if not len(partners):
            assert np.count_nonzero(row) <= k
            continue
        v = dense[i, partners[0]]
        assert v > 0.0 and (sim[selector == i] == v).all()
        assert (dense[i, partners] == v).all()
        assert np.count_nonzero(row > v) + np.count_nonzero(row == v) - len(partners) <= k


def deletion_law(values: np.ndarray, k: int) -> list[dict]:
    """Per row, the exact probability of each emitted partner set when the
    row hides each k-subset of its other columns with equal chance."""
    n = len(values)
    law = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        outcomes = Counter()
        for hidden in itertools.combinations(others, k):
            visible = [j for j in others if j not in hidden]
            best = max((values[i, j] for j in visible), default=0.0)
            outcomes[frozenset(j for j in visible if best > 0.0 and values[i, j] == best)] += 1
        total = math.comb(n - 1, k)
        law.append({out: count / total for out, count in outcomes.items()})
    return law


def chi_square(observed: list[Counter], law: list[dict], runs: int) -> tuple[float, int]:
    """Pearson statistic and degrees of freedom over every row; outcomes
    expected fewer than 5 times are pooled, per row."""
    stat, dof = 0.0, 0
    for counts, probs in zip(observed, law):
        assert set(counts) <= set(probs)  # no impossible partner set
        cells, pooled = [], [0.0, 0]
        for out, prob in probs.items():
            if prob * runs >= 5:
                cells.append((prob * runs, counts[out]))
            else:
                pooled[0] += prob * runs
                pooled[1] += counts[out]
        if pooled[0]:
            cells.append(tuple(pooled))
        stat += sum((o - e) ** 2 / e for e, o in cells)
        dof += len(cells) - 1
    return stat, dof


# 9 nodes: exact ties at the top of rows, inside rows and at zero, and a
# zero row; rounded to steps of 0.25
TIED = np.array([
    [0.0, 0.5, 0.5, 0.25, 0.0, 0.25, 0.5, 0.0, 0.0],
    [0.5, 0.0, 0.75, 0.75, 0.25, 0.0, 0.0, 0.0, 0.0],
    [0.5, 0.75, 0.0, 0.25, 0.25, 0.0, 0.75, 0.0, 0.0],
    [0.25, 0.75, 0.25, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
    [0.0, 0.25, 0.25, 0.5, 0.0, 0.0, 0.0, 0.25, 0.0],
    [0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.25, 0.25, 0.0],
    [0.5, 0.0, 0.75, 0.0, 0.0, 0.25, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.25, 0.25, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
])


@pytest.mark.parametrize("d, block_rows", [(0.3, 4), (0.5, 9), (0.8, 2)])
def test_deletion_partner_sets_follow_the_exact_law(monkeypatch, record_property, d, block_rows):
    """Sampled partner sets at seeds 0-1999 against an enumeration of every hidden set."""
    runs = 2000
    k = math.floor(d * 8)
    monkeypatch.setattr(selection, "BLOCK_ROWS", block_rows)
    s = SimilarityMatrix(values=TIED)
    observed = [Counter() for _ in range(9)]
    for selector, selected, _ in select_many(s, [(Strategy("max", deletion=d), seed)
                                                 for seed in range(runs)]):
        for i in range(9):
            observed[i][frozenset(selected[selector == i].tolist())] += 1
    stat, dof = chi_square(observed, deletion_law(TIED, k), runs)
    p_value = stats.chi2.sf(stat, dof)
    record_property("chi2_p_value", p_value)
    print(f"d={d}: chi2={stat:.1f} on {dof} dof, p={p_value:.3f}")
    assert p_value > 1e-3, (stat, dof, p_value)


@pytest.mark.parametrize("n, k", [(9, 4), (9, 8), (40, 30)])
def test_walk_length_follows_the_closed_form(record_property, n, k):
    """T, the hidden entries before the first visible one, has
    P(T >= t) = C(n-1-t, k-t) / C(n-1, k)."""
    steps = np.concatenate([_walk_steps(seed, n, k) for seed in range(20_000 // n)])
    survival = [math.comb(n - 1 - t, k - t) / math.comb(n - 1, k) for t in range(k + 1)] + [0.0]
    pmf = {t: survival[t] - survival[t + 1] for t in range(k + 1) if survival[t] > survival[t + 1]}
    stat, dof = chi_square([Counter(steps.tolist())], [pmf], len(steps))
    p_value = stats.chi2.sf(stat, dof) if dof else 1.0  # one outcome: T = k always
    record_property("chi2_p_value", p_value)
    assert p_value > 1e-3, (stat, dof, p_value)


@PROPERTY
@given(similarities(), SEEDS, st.sampled_from(["psim", "p"]))
def test_mixed_boundaries_are_byte_identical(s, seed, kind):
    def tsv(strategy):
        return pairs_to_tsv(select_pairs(s, strategy, seed))

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


def pair_bytes(pairs) -> list[bytes]:
    return [col.tobytes() for col in pairs]


@PROPERTY
@given(similarities(), SEEDS, st.sampled_from(STRATEGIES))
def test_window_constructions_give_identical_pairs(s, seed, strategy):
    """Every window built by argpartition (ROUNDS = 0) or by argmax rounds."""
    def pairs(rounds):
        with mock.patch.object(selection, "ROUNDS", rounds):
            return pair_bytes(select_pairs(s, strategy, seed))

    assert pairs(0) == pairs(10**9)


@pytest.mark.parametrize("strategy", STRATEGIES + [Strategy("max", deletion=d)
                                                   for d in (0.3, 0.8, 1.0)],
                         ids=lambda st_: str(st_.describe()))
def test_window_constructions_give_identical_pairs_on_ties(monkeypatch, strategy):
    s = SimilarityMatrix(values=TIED)
    monkeypatch.setattr(selection, "BLOCK_ROWS", 4)
    for seed in range(50):
        monkeypatch.setattr(selection, "ROUNDS", 0)
        wide = pair_bytes(select_pairs(s, strategy, seed))
        monkeypatch.setattr(selection, "ROUNDS", 10**9)
        assert pair_bytes(select_pairs(s, strategy, seed)) == wide


@PROPERTY
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 12)), elements=LEVELS),
       st.data())
def test_window_is_each_rows_largest_entries_in_order(vals, data):
    """Argmax rounds against a full sort, largest first, ties by position, with
    the block left as it was; argpartition holds the same values, and may
    end on any of the entries tied with its last one."""
    steps = [np.array(data.draw(st.lists(st.integers(0, vals.shape[1]), min_size=len(vals),
                                         max_size=len(vals))))
             for _ in range(data.draw(st.integers(1, 3)))]
    block = vals.copy()
    order = np.lexsort((np.broadcast_to(np.arange(vals.shape[1]), vals.shape), -vals), axis=1)
    with mock.patch.object(selection, "ROUNDS", 10**9):
        pos, top = selection._window(block, steps)
    assert np.array_equal(pos, order[:, :pos.shape[1]])
    assert np.array_equal(top, np.take_along_axis(vals, pos, axis=1))
    assert np.array_equal(block, vals)
    with mock.patch.object(selection, "ROUNDS", 0):
        wide_pos, wide_top = selection._window(block, steps)
    assert np.array_equal(wide_top, top)
    assert np.array_equal(wide_top, np.take_along_axis(vals, wide_pos, axis=1))
    settled = top > top[:, -1:]  # the entries before the last tie group
    assert np.array_equal(wide_pos[settled], pos[settled])


@st.composite
def rounded_similarities(draw, max_n=80):
    """Up to ``max_n`` nodes at a drawn density, rounded to one decimal, so
    rows tie at and around any top-n cut."""
    n = draw(st.integers(2, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.random((n, n)) < draw(st.floats(0.05, 1.0))
    upper = np.triu(np.round(rng.random((n, n)), 1) * dense, 1)
    return SimilarityMatrix(values=upper + upper.T)


# psim draws over whole rows and over top-n windows, next to a deletion walk
# deep enough that the pass shares one wide argpartition window
PASS_JOBS = ([Strategy("psim")] + [Strategy("psim", topn=t) for t in (1, 2, 9, 30)]
             + [Strategy("mixed", mix_p=p, mix_kind="psim") for p in (0.1, 0.5, 0.9)]
             + [Strategy("max", deletion=0.9)])


@PROPERTY
@given(rounded_similarities(), SEEDS, st.sampled_from([7, 128]))
def test_one_pass_equals_each_job_alone(s, seed, block_rows):
    jobs = [(strategy, seed) for strategy in PASS_JOBS]
    with mock.patch.object(selection, "BLOCK_ROWS", block_rows):
        assert ([pair_bytes(pairs) for pairs in select_many(s, jobs)]
                == [pair_bytes(select_pairs(s, strategy, seed)) for strategy, seed in jobs])


@PROPERTY
@given(st.integers(1, 8), st.integers(1, 300), st.integers(0, 2**32 - 1),
       st.sampled_from([0, 10**9]), st.data())
def test_cut_picks_equal_the_masked_row(rows, cols, seed, rounds, data):
    """Top-n draws read from any window, narrow or wide, by either construction,
    against the whole row masked to its top n, ties to the lower position."""
    rng = np.random.default_rng(seed)
    vals = np.round(rng.random((rows, cols)) * 0.3, 1)  # 0.0 to 0.3: long tie groups
    depth = data.draw(st.integers(0, cols - 1))
    with mock.patch.object(selection, "ROUNDS", rounds):
        window = selection._window(vals, [np.full(rows, depth)])
        assume(window[1].shape[1])
        topn = data.draw(st.integers(1, window[1].shape[1]))
        u = rng.random(rows)
        got = selection._cut_picks(vals, window, np.arange(rows), u, topn)
    nth = -np.sort(-vals, axis=1)[:, topn - 1]
    w = vals.copy()
    w[~selection._top_candidates(w, nth[:, None], topn)] = 0.0
    assert np.array_equal(got, selection._proportional_pick(w, u))


def golden_similarity() -> SimilarityMatrix:
    """64 nodes in chunks of 8 rows: diagonal blocks, isolated nodes, and two
    chunks that store none of their own columns.

    Values are rounded to one decimal, so ties and zeros inside blocks occur.
    """
    rng = np.random.default_rng(2026)
    upper = np.zeros((64, 64))
    for lo, hi in [(0, 5), (5, 12), (12, 15), (15, 24), (48, 50), (51, 57), (58, 64)]:
        upper[lo:hi, lo:hi] = np.triu(np.round(rng.random((hi - lo, hi - lo)), 1), 1)
    # nodes 24-31 are isolated (a chunk storing nothing), as are 50 and 57;
    # rows 32-39 and 40-47 are similar only across the two chunks
    upper[32:40, 40:48] = np.round(rng.random((8, 8)), 1)
    return SimilarityMatrix(values=upper + upper.T)


# sha256 of each strategy's three pair columns (int64, int64, float64 bytes)
# on golden_similarity() with rows in chunks of 8, seed 11, as drawn from
# dense rows (the deletion entries as drawn by the walk down each row's
# largest entries); top-7 is one below the 8 columns that rows 32-47 store
GOLDEN = {
    "{'kind': 'max'}": "6b71d1f035547d5b2840dd8f1cf4c79c4682f5b405e13e1ce9b8a083189389d5",
    "{'kind': 'psim'}": "d7d3beca6c5bbd57e649b183103a6bd79bd65dd08ce356d859746ff837a93cb7",
    "{'kind': 'psim', 'topn': 2}":
        "e8e4dba6ec9cff33b6506ab9810032242718a1a2301425ee94a4c76a8e18b7a9",
    "{'kind': 'p'}": "12bc25dbb3f364f87c88f490d3975fe5988783bddd0edceed29d02ed70ef27cd",
    "{'kind': 'max', 'deletion': 0.5}":
        "843aa6f56cd5bd37d48048abd5be2f3145c8312a38ce99d2166dee7cddec5d71",
    "{'kind': 'mixed', 'mix_p': 0.5, 'mix_kind': 'psim'}":
        "b27d2cd016f05164977de8774a1608ffb1cc44e6efb4411c196a1592d99802b3",
    "{'kind': 'mixed', 'mix_p': 0.5, 'mix_kind': 'p'}":
        "968fda7778a2c40a6fa442218695a47ef2d8d8de8f5622cf55709cfc3bc5966d",
    "{'kind': 'psim', 'topn': 7}":
        "ad948e79b6ba87e49602b7f16d7e8244b12c77f2b117c347de3399c48ce25ae6",
    # 3 of 63 columns hidden per row, most of them absent from the row's block
    "{'kind': 'max', 'deletion': 0.05}":
        "3f12c20ca36407a0226be2f56a7afd46eddce9aabf0bd5df53a5537ca35481d6",
}


def column_digest(pairs) -> str:
    """sha256 of the three pair columns as int64, int64 and float64 bytes."""
    digest = hashlib.sha256()
    for col, dtype in zip(pairs, (np.int64, np.int64, np.float64)):
        digest.update(np.ascontiguousarray(col, dtype=dtype).tobytes())
    return digest.hexdigest()


def golden_digest(strategy: Strategy) -> str:
    return column_digest(select_pairs(golden_similarity(), strategy, seed=11))


@pytest.mark.parametrize("strategy", STRATEGIES + [Strategy("psim", topn=7),
                                                   Strategy("max", deletion=0.05)],
                         ids=lambda st_: str(st_.describe()))
def test_golden_draws_on_a_sparse_input(monkeypatch, strategy):
    monkeypatch.setattr(selection, "BLOCK_ROWS", 8)
    assert golden_digest(strategy) == GOLDEN[str(strategy.describe())]


@pytest.mark.parametrize("mix_p, kind, same_as", [
    (0.0, "psim", "max"), (0.0, "p", "max"), (1.0, "psim", "psim"), (1.0, "p", "p"),
])
def test_golden_mixture_boundaries(monkeypatch, mix_p, kind, same_as):
    monkeypatch.setattr(selection, "BLOCK_ROWS", 8)
    got = golden_digest(Strategy("mixed", mix_p=mix_p, mix_kind=kind))
    assert got == GOLDEN[str(Strategy(same_as).describe())]


def tie_group_similarity() -> SimilarityMatrix:
    """300 nodes, each citing one of nodes 0-5 once: nodes citing the same
    node have similarity 1.0, so each row ties about 49 entries at 1.0."""
    dst = np.random.default_rng(19).integers(6, size=300)
    return build_similarity_matrix(CitationMatrix.from_entries(300, np.arange(300), dst,
                                                               np.ones(300)))


# sha256 of the pair columns on tie_group_similarity() at seed 5: each cut
# falls inside a row's tie group, top-3 inside an argmax-rounds window and
# top-10 and top-30 inside an argpartition one
TIE_GROUP = {
    3: "6cde90ca81c9abb18dfc343978a93dd43d30acaa02fdb09a5290cf3ff54fae69",
    10: "915a1ae5d8dd21415207e7923bbdf47f43a87fee195b64e979ee313c0b99efdb",
    30: "f320708c808cb3e481062c95789c55fbbf689c619143fd6e6f663afed8e9a8ef",
}


@pytest.mark.parametrize("topn", sorted(TIE_GROUP))
@pytest.mark.parametrize("rounds, block_rows", [(0, 128), (10**9, 128), (0, 7), (10**9, 7)])
def test_topn_cut_inside_a_tie_group(monkeypatch, topn, rounds, block_rows):
    monkeypatch.setattr(selection, "ROUNDS", rounds)
    monkeypatch.setattr(selection, "BLOCK_ROWS", block_rows)
    pairs = select_pairs(tie_group_similarity(), Strategy("psim", topn=topn), seed=5)
    assert column_digest(pairs) == TIE_GROUP[topn]


@pytest.mark.parametrize("block_rows", [128, 7])
def test_topn_cuts_share_a_pass_with_walks(monkeypatch, block_rows):
    """Top-n runs alone read windows just wide enough for their cut; in a pass
    with deletion the shared window is far wider."""
    monkeypatch.setattr(selection, "BLOCK_ROWS", block_rows)
    s = tie_group_similarity()
    jobs = [(Strategy("psim", topn=t), 5) for t in sorted(TIE_GROUP)] + [
        (Strategy("max"), 5), (Strategy("max", deletion=0.9), 5),
        (Strategy("mixed", mix_p=0.5, mix_kind="psim"), 5)]
    assert ([pair_bytes(pairs) for pairs in select_many(s, jobs)]
            == [pair_bytes(select_pairs(s, strategy, seed)) for strategy, seed in jobs])


def order_violations(pairs, n_nodes: int) -> int:
    """Pairs (v, w, s) whose s is above the largest similarity w emits."""
    selector, selected, sim = pairs
    best = np.full(n_nodes, -np.inf)
    np.maximum.at(best, selector, sim)
    return int(np.count_nonzero(sim > best[selected]))


# max with nothing hidden, under each of its names
ORDERED = [Strategy("max"), Strategy("max", deletion=0.0),
           Strategy("mixed", mix_p=0.0, mix_kind="psim"),
           Strategy("mixed", mix_p=0.0, mix_kind="p")]


def max_runs(s, seed, others, block_rows) -> list:
    """The pairs of max with nothing hidden at ``seed``: ``select_pairs``', then
    those of each ``ORDERED`` run of one ``select_many`` after ``others``."""
    jobs = others + [(strategy, seed) for strategy in ORDERED]
    with mock.patch.object(selection, "BLOCK_ROWS", block_rows):
        runs = select_many(s, jobs)
    return [select_pairs(s, Strategy("max"), seed)] + runs[len(others):]


@PROPERTY
@given(similarities() | st.just(SimilarityMatrix(values=TIED)), SEEDS,
       st.lists(st.tuples(st.sampled_from(STRATEGIES), SEEDS), max_size=4), st.integers(1, 5))
def test_max_keeps_the_inside_order(s, seed, others, block_rows):
    """The paper's inside order: under max with nothing hidden, w's best
    similarity is at least s(w, v) = s(v, w), so along a chain of selections
    similarity never falls. Ties keep it, since each tied pair is a maximum."""
    for pairs in max_runs(s, seed, others, block_rows):
        assert order_violations(pairs, s.n_nodes) == 0


def test_hidden_columns_break_the_inside_order():
    """Deletion is row-local, so w may not see v while v picks w:
    ``order_violations`` is not zero by construction."""
    s = SimilarityMatrix(values=TIED)
    assert sum(order_violations(select_pairs(s, Strategy("max", deletion=0.3), seed), 9)
               for seed in range(20)) > 0


def tide_gaps(pairs, n_nodes: int) -> tuple[int, int]:
    """How many tides ``pairs`` make, and how many of them differ in
    similarity from the first pair that names their selector."""
    selector, selected, sim = pairs
    pair = np.arange(len(sim))
    first = np.full(n_nodes, len(sim))
    np.minimum.at(first, selector, pair)
    np.minimum.at(first, selected, pair)
    result = build_communities(pairs, n_nodes)
    # a tide: both nodes named by earlier pairs, in different cores
    tide = pair[(first[selector] < pair) & (first[selected] < pair)
                & (result.core[selector] != result.core[selected])]
    assert np.array_equal(result.tides[:, :2], np.column_stack([selector[tide], selected[tide]]))
    return len(tide), int(np.count_nonzero(sim[tide] != sim[first[selector[tide]]]))


# 0-2 and 1-3 found two cores before the tied pairs 2-3 and 3-2 join them
BRIDGE = np.array([[0.0, 0.0, 1.0, 0.0],
                   [0.0, 0.0, 0.0, 1.0],
                   [1.0, 0.0, 0.0, 1.0],
                   [0.0, 1.0, 1.0, 0.0]])


def test_tied_max_pairs_make_tides():
    assert tide_gaps(select_pairs(SimilarityMatrix(values=BRIDGE), Strategy("max")), 4) == (2, 0)


@PROPERTY
@given(similarities() | st.sampled_from([SimilarityMatrix(values=TIED),
                                         SimilarityMatrix(values=BRIDGE)]),
       SEEDS, st.lists(st.tuples(st.sampled_from(STRATEGIES), SEEDS), max_size=4),
       st.integers(1, 5))
def test_max_tides_are_ties(s, seed, others, block_rows):
    """Under max with nothing hidden, a tide's selector v was placed by an
    earlier pair (u, v), and s(u, v) >= s(v, w), v's maximum, which is at
    least s(v, u). So every tide is at its selector's first similarity."""
    for pairs in max_runs(s, seed, others, block_rows):
        assert tide_gaps(pairs, s.n_nodes)[1] == 0


@st.composite
def distinct_similarities(draw, max_n=12):
    """Symmetric S whose positive off-diagonal values are all distinct;
    zeros, which max never picks, may repeat."""
    n = draw(st.integers(2, max_n))
    k = n * (n - 1) // 2
    values = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=k, max_size=k,
                           unique=True))
    zeros = draw(arrays(bool, k))
    upper = np.zeros((n, n))
    upper[np.triu_indices(n, 1)] = np.where(zeros, 0.0, values)
    return SimilarityMatrix(values=upper + upper.T)


@PROPERTY
@given(distinct_similarities(), SEEDS,
       st.lists(st.tuples(st.sampled_from(STRATEGIES), SEEDS), max_size=4), st.integers(1, 5))
def test_max_on_distinct_similarities_has_real_equal_to_core(s, seed, others, block_rows):
    for pairs in max_runs(s, seed, others, block_rows):
        result = build_communities(pairs, s.n_nodes)
        assert len(result.tides) == 0
        assert np.array_equal(extract_partition(result, REAL).labels,
                              extract_partition(result, CORE).labels)
