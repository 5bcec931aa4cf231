"""Selection strategies: determinism, sorting, tie handling, sampling laws."""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse, stats

from simpair import (CitationMatrix, SimilarityMatrix, Strategy, build_similarity_matrix,
                     select_many, select_pairs, selection)
from simpair.io import pairs_to_tsv
from simpair.rng import GATE_STREAM, MASK_STREAM, PARTNER_STREAM, TIE_STREAM, draws, stream
from simpair.selection import (BLOCK_ROWS, _cdf_pick, _hypergeometric_weights,
                               _proportional_pick, _walk_steps)

from pairlists import rows

MAX = Strategy("max")
PSIM = Strategy("psim")
UNIFORM = Strategy("p")


def mixed(p: float, kind: str) -> Strategy:
    return Strategy("mixed", mix_p=p, mix_kind=kind)


def sim_from(values) -> SimilarityMatrix:
    arr = np.asarray(values, dtype=float)
    np.fill_diagonal(arr, 0.0)
    return SimilarityMatrix(values=arr)


def random_similarity(rng, n) -> SimilarityMatrix:
    upper = np.triu(rng.random((n, n)), 1)
    return sim_from(upper + upper.T)


FIVE = sim_from([
    [0.0, 0.1, 0.3, 0.6, 0.0],
    [0.1, 0.0, 0.2, 0.2, 0.5],
    [0.3, 0.2, 0.0, 0.4, 0.1],
    [0.6, 0.2, 0.4, 0.0, 0.3],
    [0.0, 0.5, 0.1, 0.3, 0.0],
])


def assert_sorted(pairs):
    selector, selected, sim = pairs
    keys = list(zip((-sim).tolist(), selector.tolist(), selected.tolist()))
    assert keys == sorted(keys)


def edges(pairs) -> list[tuple[int, int]]:
    """The (selector, selected) of each pair, in rank order."""
    return list(zip(pairs[0].tolist(), pairs[1].tolist()))


def partner_of_zero(s, strategy, seed):
    """The node that node 0 selects in one run."""
    selector, selected, _ = select_pairs(s, strategy, seed)
    return int(selected[selector == 0][0])


class TestSelectMax:
    def test_two_nodes(self):
        s = sim_from([[0.0, 0.3], [0.3, 0.0]])
        assert rows(select_pairs(s, MAX)) == [(0, 1, 0.3), (1, 0, 0.3)]

    def test_tied_maxima_all_emitted(self):
        s = sim_from([
            [0.0, 0.5, 0.5, 0.2],
            [0.5, 0.0, 0.1, 0.1],
            [0.5, 0.1, 0.0, 0.1],
            [0.2, 0.1, 0.1, 0.0],
        ])
        selector, selected, _ = select_pairs(s, MAX)
        assert selected[selector == 0].tolist() == [1, 2]

    def test_max_dominance_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            s = random_similarity(rng, int(rng.integers(2, 14)))
            selector, _, sim = select_pairs(s, MAX)
            emitted = {}
            for i, value in zip(selector.tolist(), sim.tolist()):
                emitted.setdefault(i, value)
            for i, best in emitted.items():
                row_max = max(s.values[i, j] for j in range(s.n_nodes) if j != i)
                assert best == row_max

    def test_all_zero_row_emits_nothing(self):
        s = sim_from([[0.0, 0.0, 0.0], [0.0, 0.0, 0.9], [0.0, 0.9, 0.0]])
        assert set(select_pairs(s, MAX)[0].tolist()) == {1, 2}

    def test_sorted_output(self):
        rng = np.random.default_rng(1)
        assert_sorted(select_pairs(random_similarity(rng, 20), MAX))

    def test_stored_diagonal_of_sparse_values_is_dropped(self):
        s = SimilarityMatrix(values=sparse.csr_array([[1.0, 0.5, 0], [0.5, 0, 0.2], [0, 0.2, 0]]))
        assert (0, 1, 0.5) in rows(select_pairs(s, MAX))
        assert (0, 0, 1.0) not in rows(select_pairs(s, MAX))


class TestRandomDeletion:
    def test_zero_fraction_is_empty(self):
        assert (pairs_to_tsv(select_pairs(FIVE, Strategy("max", deletion=0.0), 9))
                == pairs_to_tsv(select_pairs(FIVE, MAX)))

    def test_full_deletion_silences_everyone(self):
        assert rows(select_pairs(FIVE, Strategy("max", deletion=1.0), 9)) == []

    def test_floor_arithmetic(self):
        # floor(0.7 * 3) = 2 of each row's 3 other columns are hidden, so the
        # partner is one of the row's top 3, and each of them occurs
        s = sim_from([[0.0, 0.6, 0.3, 0.1], [0.6, 0.0, 0.2, 0.5],
                      [0.3, 0.2, 0.0, 0.4], [0.1, 0.5, 0.4, 0.0]])
        ranks = [sorted(range(4), key=lambda j: -s.values[i, j]) for i in range(4)]
        seen = [set() for _ in range(4)]
        for pairs in select_many(s, [(Strategy("max", deletion=0.7), seed)
                                     for seed in range(200)]):
            assert sorted(pairs[0].tolist()) == [0, 1, 2, 3]
            for i, j in zip(*(col.tolist() for col in pairs[:2])):
                seen[i].add(ranks[i].index(j))
        assert seen == [{0, 1, 2}] * 4

    def test_mask_rows_are_independent(self):
        assert not np.array_equal(_walk_steps(1, 50, 25), _walk_steps(2, 50, 25))

    def test_hidden_tie_count_is_hypergeometric(self):
        # rows of m entries drawn from `left` columns, `hidden` of them hidden;
        # one row is at each end of its support, one has a single outcome
        m = np.array([1, 3, 5, 40, 7, 5, 400])
        hidden = np.array([0, 2, 9, 700, 7, 5, 2000])
        left = np.array([4, 3, 12, 1000, 7, 9, 5000])
        w = _hypergeometric_weights(m, hidden, left)
        h = np.arange(w.shape[1])
        for row, want in zip(w, stats.hypergeom.pmf(h, left[:, None], hidden[:, None], m[:, None])):
            np.testing.assert_allclose(row / row.sum(), want, rtol=1e-9, atol=1e-15)

    def test_all_tied_visible_maxima_are_emitted(self):
        # one of node 0's four other columns is hidden, so at least two of
        # its three tied maxima stay visible, and every visible one is emitted
        s = sim_from([[0.0, 0.5, 0.5, 0.5, 0.1], [0.5, 0.0, 0.0, 0.0, 0.0],
                      [0.5, 0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0, 0.0],
                      [0.1, 0.0, 0.0, 0.0, 0.0]])
        sizes = set()
        for pairs in select_many(s, [(Strategy("max", deletion=0.25), seed)
                                     for seed in range(100)]):
            partners = pairs[1][pairs[0] == 0].tolist()
            assert set(partners) <= {1, 2, 3}
            sizes.add(len(partners))
        assert sizes == {2, 3}


class TestSelectPsim:
    def test_two_equal_candidates_split_evenly(self):
        s = sim_from([[0.0, 0.5, 0.5], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
        picks = [partner_of_zero(s, PSIM, seed) for seed in range(10_000)]
        freq = np.bincount(picks, minlength=3) / 10_000
        assert freq[1] == pytest.approx(0.5, abs=0.02)
        assert freq[2] == pytest.approx(0.5, abs=0.02)

    def test_frequencies_proportional_to_similarity(self):
        s = sim_from([[0.0, 0.1, 0.3, 0.6], [0.1, 0.0, 0.0, 0.0],
                      [0.3, 0.0, 0.0, 0.0], [0.6, 0.0, 0.0, 0.0]])
        picks = [partner_of_zero(s, PSIM, seed) for seed in range(10_000)]
        freq = np.bincount(picks, minlength=4) / 10_000
        for j, expected in ((1, 0.1), (2, 0.3), (3, 0.6)):
            assert freq[j] == pytest.approx(expected, abs=0.02)

    def test_zero_mass_node_emits_nothing(self):
        s = sim_from([[0.0, 0.0, 0.0], [0.0, 0.0, 0.4], [0.0, 0.4, 0.0]])
        assert set(select_pairs(s, PSIM, 3)[0].tolist()) == {1, 2}

    def test_topn_one_equals_max_when_tie_free(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            s = random_similarity(rng, 12)
            got = set(edges(select_pairs(s, Strategy("psim", topn=1), seed)))
            want = set(edges(select_pairs(s, MAX)))
            assert got == want

    def test_topn_restricts_candidates(self):
        picks = set()
        for seed in range(200):
            picks.add((0, partner_of_zero(FIVE, Strategy("psim", topn=2), seed)))
        # node 0's top-2 candidates by similarity are 3 (0.6) and 2 (0.3)
        assert picks == {(0, 3), (0, 2)}

    def test_topn_boundary_tie_prefers_lower_id(self):
        s = sim_from([[0.0, 0.4, 0.4, 0.1], [0.4, 0.0, 0.0, 0.0],
                      [0.4, 0.0, 0.0, 0.0], [0.1, 0.0, 0.0, 0.0]])
        picks = {partner_of_zero(s, Strategy("psim", topn=1), seed) for seed in range(50)}
        assert picks == {1}

    def test_draw_near_one_never_picks_trailing_zero(self):
        rng = np.random.default_rng(30)
        weights = rng.random((2000, 6))
        weights[:, -1] = 0.0
        for u in (np.nextafter(1.0, 0.0), 1.0):
            picks = _proportional_pick(weights.copy(), np.full(2000, u))
            assert (picks == 4).all()

    def test_zero_mass_row_has_no_pick(self):
        picks = _proportional_pick(np.zeros((2, 3)), np.array([0.0, 0.5]))
        assert picks.tolist() == [-1, -1]

    def test_exactly_one_pair_per_node(self):
        rng = np.random.default_rng(6)
        s = random_similarity(rng, 15)
        pairs = select_pairs(s, PSIM, 0)
        assert sorted(pairs[0].tolist()) == list(range(15))
        assert_sorted(pairs)


class TestSharedCdf:
    """``_cdf_pick`` searches a block's row cumsum; ``_proportional_pick`` counts copied rows."""

    @pytest.mark.parametrize("width", [1, 2, 7, 8, 9, 1025])
    def test_search_equals_count_on_copied_rows(self, width):
        rng = np.random.default_rng(width)
        vals = np.round(rng.random((40, width)), 1)
        vals[rng.random(vals.shape) < 0.6] = 0.0  # plateaus of zeros between positive entries
        vals[::3, -1] = 0.0  # a trailing zero column
        vals[::7] = 0.0  # rows of total 0
        local = rng.permutation(40)[:30]
        u = rng.random(30)
        u[::3] = np.nextafter(1.0, 0.0)
        u[1::3] = 0.0
        assert np.array_equal(_cdf_pick(np.cumsum(vals, axis=1), local, u),
                              _proportional_pick(vals[local], u))

    def test_draw_one_ulp_below_one_stops_on_the_last_positive_column(self):
        # one ulp below 1, u * total rounds up to total only where total is subnormal
        tiny = np.nextafter(0.0, 1.0)
        vals = np.array([[tiny, 0.0, 2 * tiny, 0.0, 0.0],
                         [0.1, 0.0, 0.3, 0.2, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 0.0]])
        for u in (np.nextafter(1.0, 0.0), 1.0):
            assert u * vals[0].sum() == vals[0].sum()
            uniforms = np.full(3, u)
            assert _cdf_pick(np.cumsum(vals, axis=1), np.arange(3), uniforms).tolist() == [2, 3, -1]
            assert _proportional_pick(vals.copy(), uniforms).tolist() == [2, 3, -1]


class TestSelectRandom:
    def test_two_nodes_deterministic(self):
        s = sim_from([[0.0, 0.7], [0.7, 0.0]])
        assert edges(select_pairs(s, UNIFORM, 123)) == [(0, 1), (1, 0)]

    def test_uniform_frequencies(self):
        s = sim_from(np.full((4, 4), 0.5))
        counts = np.zeros((4, 4))
        for seed in range(12_000):
            selector, selected, _ = select_pairs(s, UNIFORM, seed)
            np.add.at(counts, (selector, selected), 1)
        freq = counts / 12_000
        off_diag = freq[~np.eye(4, dtype=bool)]
        assert np.abs(off_diag - 1 / 3).max() <= 0.02

    def test_length_and_sorting(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            s = random_similarity(rng, 9)
            pairs = select_pairs(s, UNIFORM, seed)
            assert len(pairs[0]) == 9
            assert_sorted(pairs)


class TestSelectMixed:
    def test_p_zero_is_exactly_max(self):
        rng = np.random.default_rng(10)
        s = random_similarity(rng, 25)
        for seed in (0, 99):
            assert rows(select_pairs(s, mixed(0.0, "psim"), seed)) == rows(select_pairs(s, MAX))
            assert rows(select_pairs(s, mixed(0.0, "p"), seed)) == rows(select_pairs(s, MAX))

    def test_p_one_is_exactly_pure_strategy(self):
        rng = np.random.default_rng(12)
        s = random_similarity(rng, 25)
        for seed in (0, 7):
            assert (rows(select_pairs(s, mixed(1.0, "psim"), seed))
                    == rows(select_pairs(s, PSIM, seed)))
            assert (rows(select_pairs(s, mixed(1.0, "p"), seed))
                    == rows(select_pairs(s, UNIFORM, seed)))

    def test_boundary_serializations_are_byte_identical(self):
        rng = np.random.default_rng(13)
        s = random_similarity(rng, 30)
        assert (pairs_to_tsv(select_pairs(s, mixed(0.0, "p"), 5))
                == pairs_to_tsv(select_pairs(s, MAX)))
        assert (pairs_to_tsv(select_pairs(s, mixed(1.0, "p"), 5))
                == pairs_to_tsv(select_pairs(s, UNIFORM, 5)))

    def test_half_mix_uses_max_about_half_the_time(self):
        rng = np.random.default_rng(14)
        s = random_similarity(rng, 50)
        max_partner = dict(edges(select_pairs(s, MAX)))
        n_max = 0
        for seed in range(1_000):
            got = {}
            for i, j in edges(select_pairs(s, mixed(0.5, "p"), seed)):
                got.setdefault(i, j)
            # count nodes whose emitted partner matches their max partner
            n_max += sum(got[i] == max_partner[i] for i in range(50))
        frac = n_max / 50_000
        # uniform picks hit the max partner 1/49 of the time; correct for that
        adjusted = (frac - 0.5 / 49) / (1 - 1 / 49)
        assert adjusted == pytest.approx(0.5, abs=0.03)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        rng = np.random.default_rng(20)
        s = random_similarity(rng, 18)
        for strategy in (Strategy("max"), Strategy("psim"), Strategy("p"),
                         Strategy("psim", topn=3), Strategy("max", deletion=0.4),
                         Strategy("mixed", mix_p=0.3, mix_kind="psim")):
            a = pairs_to_tsv(select_pairs(s, strategy, seed=77))
            b = pairs_to_tsv(select_pairs(s, strategy, seed=77))
            assert a == b

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(21)
        s = random_similarity(rng, 18)
        a = rows(select_pairs(s, PSIM, 1))
        b = rows(select_pairs(s, PSIM, 2))
        assert a != b


class TestStreams:
    @pytest.mark.parametrize("strategy, purposes", [
        (MAX, set()),
        (Strategy("max", deletion=0.5), {MASK_STREAM}),
        (PSIM, {PARTNER_STREAM}),
        (Strategy("psim", topn=2), {PARTNER_STREAM}),
        (UNIFORM, {PARTNER_STREAM}),
        (mixed(0.5, "psim"), {GATE_STREAM, PARTNER_STREAM}),
        (mixed(0.5, "p"), {GATE_STREAM, PARTNER_STREAM}),
    ], ids=["max", "max-deletion", "psim", "psim-topn", "p", "mixed-psim", "mixed-p"])
    def test_each_run_draws_only_the_streams_it_reads(self, monkeypatch, strategy, purposes):
        assert sorted(self.drawn(monkeypatch, FIVE, strategy)) == sorted(
            (4, purpose) for purpose in purposes)

    @pytest.mark.parametrize("seed", [0, 9, 2**40 + 7])
    def test_draws_read_splitmix64_by_position(self, seed):
        mask = 2**64 - 1

        def splitmix64(state: int) -> int:  # the next output; the state steps first
            z = (state + 0x9E3779B97F4A7C15) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            return z ^ (z >> 31)

        assert splitmix64(0) == 0xE220A8397B1DCDAF  # the reference sequence at seed 0
        node = [0, 1, 7, 1000, 2**31 + 5, 1]
        index = [0, 5, 2**31, 3, 1, 0]
        key = int(np.random.SeedSequence([seed, TIE_STREAM]).generate_state(1, np.uint64)[0])
        # draw j of node i is output i * 2**32 + j + 1, from state key + (i * 2**32 + j) * gamma
        want = [(splitmix64((key + ((i << 32) + j) * 0x9E3779B97F4A7C15) & mask) >> 11) * 2.0**-53
                for i, j in zip(node, index)]
        assert draws(seed, TIE_STREAM, node, index).tolist() == want

    def test_deletion_ties_read_only_the_tied_nodes(self, monkeypatch):
        # node 0's first visible entry always ties with a later one; no
        # other row has a tie
        s = sim_from([[0.0, 0.5, 0.5, 0.5], [0.5, 0.0, 0.2, 0.0],
                      [0.5, 0.2, 0.0, 0.1], [0.5, 0.0, 0.1, 0.0]])
        assert sorted(self.drawn(monkeypatch, s, Strategy("max", deletion=0.5))) == [
            (4, MASK_STREAM), (4, TIE_STREAM, 0)]

    def test_max_ties_read_no_stream(self, monkeypatch):
        # rows 0, 2 and 3 tie at their maximum; with nothing hidden no tie is drawn
        s = sim_from([[0.0, 0.5, 0.5, 0.5], [0.5, 0.0, 0.2, 0.0],
                      [0.5, 0.2, 0.0, 0.2], [0.5, 0.0, 0.2, 0.0]])
        assert self.drawn(monkeypatch, s, MAX) == []
        assert edges(select_pairs(s, MAX)) == [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)]

    def test_walks_with_nothing_hidden_share_one_tie_scan_per_block(self, monkeypatch):
        # every row's maximum ties: max, the max rows of mixed runs and a
        # deletion of 0 all read the same tied sets
        values = np.random.default_rng(3).integers(0, 3, (30, 30)) / 4
        values[np.arange(30), (np.arange(30) + 1) % 30] = 1.0
        values[np.arange(30), (np.arange(30) + 7) % 30] = 1.0
        s = sim_from(values)
        jobs = [(MAX, 0), (Strategy("max", deletion=0.0), 1)] + [
            (mixed(0.3, kind), seed) for kind in ("psim", "p") for seed in range(3)]
        want = [select_pairs(s, strategy, seed) for strategy, seed in jobs]
        monkeypatch.setattr(selection, "BLOCK_ROWS", 8)
        scans = []
        max_ties = selection._max_ties

        def counted(vals, window):
            scans.append(len(vals))
            return max_ties(vals, window)

        monkeypatch.setattr(selection, "_max_ties", counted)
        got = select_many(s, jobs)
        assert scans == [8, 8, 8, 6]
        assert [[col.tobytes() for col in pairs] for pairs in got] == [
            [col.tobytes() for col in pairs] for pairs in want]

    @staticmethod
    def drawn(monkeypatch, s, strategy) -> list[tuple]:
        """The (seed, purpose) of every stream one run at seed 4 draws, and
        the (seed, purpose, node) of every node it reads draws of by position."""
        keys, nodes = [], set()

        def recording_stream(seed, purpose):
            keys.append((seed, purpose))
            return stream(seed, purpose)

        def recording_draws(seed, purpose, node, index):
            nodes.update((seed, purpose, i) for i in np.asarray(node).tolist())
            return draws(seed, purpose, node, index)

        monkeypatch.setattr(selection, "stream", recording_stream)
        monkeypatch.setattr(selection, "draws", recording_draws)
        select_pairs(s, strategy, seed=4)
        return keys + sorted(nodes)


class TestNoJobs:
    def test_no_jobs_compute_no_block(self, monkeypatch):
        def never(*args):
            raise AssertionError("a block was computed for no job")

        rng = np.random.default_rng(3)
        counts = rng.integers(1, 4, (300, 300)) * (rng.random((300, 300)) < 0.05)
        s = build_similarity_matrix(CitationMatrix.from_dense(counts))
        monkeypatch.setattr(SimilarityMatrix, "_block", never)
        assert select_many(s, []) == []
        with pytest.raises(AssertionError, match="no job"):
            select_pairs(s, MAX)


class TestSeedValidation:
    """A seed must be a nonnegative integer, refused by name under every strategy;
    none is truncated to another seed's pairs."""

    @pytest.mark.parametrize("strategy", [MAX, UNIFORM], ids=["max", "p"])
    @pytest.mark.parametrize("seed", [1.5, np.float64(1.9), "1"], ids=["1.5", "float64", "str"])
    def test_select_pairs_refuses_a_seed_that_is_not_an_integer(self, strategy, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            select_pairs(FIVE, strategy, seed)

    @pytest.mark.parametrize("strategy", [MAX, UNIFORM], ids=["max", "p"])
    def test_select_pairs_refuses_a_negative_seed(self, strategy):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1$"):
            select_pairs(FIVE, strategy, -1)

    @pytest.mark.parametrize("seed, match", [(1.5, "seed must be an integer"),
                                             (-1, "seed must be >= 0")], ids=["1.5", "-1"])
    def test_select_many_refuses_a_bad_seed_in_any_job(self, seed, match):
        with pytest.raises(ValueError, match=match):
            select_many(FIVE, [(UNIFORM, 1), (MAX, seed)])

    def test_numpy_integer_seeds_keep_their_pairs(self):
        for seed in (np.int64(1), np.uint64(1)):
            assert rows(select_pairs(FIVE, UNIFORM, seed)) == rows(select_pairs(FIVE, UNIFORM, 1))


class TestStrategyValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Strategy("louvain")

    def test_rejects_topn_on_max(self):
        with pytest.raises(ValueError):
            Strategy("max", topn=3)

    @pytest.mark.parametrize("topn", [2.5, 2.0, "2"])
    def test_rejects_topn_that_is_not_an_integer(self, topn):
        with pytest.raises(ValueError, match="topn must be an integer"):
            Strategy("psim", topn=topn)

    def test_accepts_a_numpy_integer_topn(self):
        assert Strategy("psim", topn=np.int64(2)) == Strategy("psim", topn=2)

    def test_rejects_bad_mix(self):
        with pytest.raises(ValueError):
            Strategy("mixed", mix_p=0.5, mix_kind="max")
        with pytest.raises(ValueError):
            Strategy("mixed", mix_p=1.5, mix_kind="p")

    def test_rejects_mix_fields_off_mixed(self):
        with pytest.raises(ValueError):
            Strategy("max", mix_p=0.5)
        with pytest.raises(ValueError):
            Strategy("psim", mix_kind="p")
        with pytest.raises(ValueError):
            Strategy("p", mix_p=0.2, mix_kind="psim")


def memory_id(strategy: Strategy) -> str:
    return strategy.kind + (f"-del{strategy.deletion}" if strategy.deletion else "")


class TestMemory:
    @pytest.mark.parametrize("strategy", [MAX, PSIM, UNIFORM, Strategy("max", deletion=0.3),
                                          Strategy("max", deletion=0.9)], ids=memory_id)
    def test_sparse_rows_peak_far_below_one_dense_block(self, strategy):
        # 2,000 blocks of 10 nodes: each 128-row block stores about 140 columns
        n_blocks, size = 2000, 10
        n = n_blocks * size
        i, j = np.triu_indices(size, 1)
        lo = (np.arange(n_blocks) * size)[:, None]
        r, c = (lo + i).ravel(), (lo + j).ravel()
        v = np.random.default_rng(5).random(len(r))
        s = SimilarityMatrix(values=sparse.csr_array(
            (np.r_[v, v], (np.r_[r, c], np.r_[c, r])), shape=(n, n)))
        dense_block = BLOCK_ROWS * n * 8
        tracemalloc.start()
        try:
            selector, _, _ = select_pairs(s, strategy, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if not strategy.deletion:  # a row whose every positive entry is hidden emits nothing
            assert len(np.unique(selector)) == n
        assert peak < dense_block / 8, (peak, dense_block)

    def test_psim_runs_of_a_pass_share_one_cdf_per_block(self):
        n = 1000
        s = random_similarity(np.random.default_rng(8), n)  # every column stored

        def peak(jobs):
            tracemalloc.start()
            try:
                select_many(s, jobs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, eight = peak([(PSIM, 0)]), peak([(PSIM, seed) for seed in range(8)])
        assert eight - one < BLOCK_ROWS * n * 8, (one, eight)
