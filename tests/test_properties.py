"""Invariants of building, partitions, coarse-graining, detection and the file formats."""

import re
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from simpair import (
    CORE,
    REAL,
    CitationMatrix,
    Partition,
    RankedPair,
    Strategy,
    build_communities,
    build_similarity_matrix,
    detect,
    detect_from_pairs,
    extract_partition,
    partition_stats,
    renormalize,
    select_pairs,
)
from simpair import io
from simpair.io import (
    InputFormatError,
    read_edges,
    read_pairs,
    write_pairs,
    write_partition,
)
from pairlists import columns, rows
from test_communities import matches_naive

# derandomized, so the suite stays a deterministic gate
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def pair_lists(draw, max_n=8):
    """(pairs, n): pair columns over n nodes, never a self-pair, with repeats
    and reversals."""
    n = draw(st.integers(2, max_n))
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    pairs = draw(st.lists(st.builds(lambda e, sim: RankedPair(*e, sim), edge,
                                    st.sampled_from([0.1, 0.2, 0.5])), max_size=3 * n))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        pairs += [p if i % 2 else RankedPair(p.selected, p.selector, p.similarity)
                  for i, p in enumerate(again)]
        pairs = draw(st.permutations(pairs))
    return columns(pairs), n


@st.composite
def count_matrices(draw, max_n=10):
    n = draw(st.integers(2, max_n))
    # small counts with many zeros: sparse rows, so best-partner chains form
    counts = st.sampled_from([0, 0, 0]) | st.integers(0, 9)
    return draw(arrays(np.int64, (n, n), elements=counts))


@PROPERTY
@given(pair_lists())
def test_builder_matches_naive_on_repeated_pairs(case):
    pairs, n = case
    assert matches_naive(build_communities(pairs, n), pairs, n)


@PROPERTY
@given(pair_lists())
def test_partitions_are_total_and_dense(case):
    pairs, n = case
    r = build_communities(pairs, n)
    for level in (CORE, REAL):
        groups = r.member_lists(level)
        labels = extract_partition(r, level).labels
        assert len(labels) == n
        assert set(labels.tolist()) == set(range(len(groups) + len(r.unassigned)))
        for gid, members in enumerate(groups):
            assert set(labels[members].tolist()) == {gid}
        # unassigned nodes are singletons after the community labels
        loose = labels[r.unassigned].tolist()
        assert len(set(loose)) == len(loose) and all(lbl >= len(groups) for lbl in loose)


@PROPERTY
@given(pair_lists())
def test_stats_agree_with_both_partitions(case):
    pairs, n = case
    r = build_communities(pairs, n)
    stats = partition_stats(r)
    core, real = extract_partition(r, CORE), extract_partition(r, REAL)
    assert stats["reals"] == real.n_communities
    assert stats["cores"] + stats["unassigned"] == core.n_communities
    # the core histogram leaves out the unassigned singletons; the real one has them
    core_sizes = Counter(np.bincount(core.labels).tolist())
    core_sizes[1] -= stats["unassigned"]
    assert stats["core_sizes"]["histogram"] == +core_sizes
    assert stats["real_sizes"]["histogram"] == Counter(np.bincount(real.labels).tolist())
    core_mass, real_mass = (sum(size * count for size, count in stats[key]["histogram"].items())
                            for key in ("core_sizes", "real_sizes"))
    assert core_mass + stats["unassigned"] == real_mass == n
    assert stats["tides"] == stats["tide_events"] == r.tides.shape[0]
    assert stats["tide_merges"] == stats["cores"] - (stats["reals"] - stats["unassigned"])


@PROPERTY
@given(count_matrices(), st.data())
def test_renormalize_conserves_citation_mass(dense, data):
    n = len(dense)
    raw = data.draw(arrays(np.int64, n, elements=st.integers(0, n - 1)))
    labels = np.unique(raw, return_inverse=True)[1]
    coarse = renormalize(CitationMatrix.from_dense(dense), Partition(labels, REAL)).to_dense()
    assert coarse.sum() == dense.sum()
    for a in range(coarse.shape[0]):
        for b in range(coarse.shape[1]):
            assert coarse[a, b] == dense[np.ix_(labels == a, labels == b)].sum()


# 64 counts of HUGE sum near 2**62: in int64, but past float64's exact integers
HUGE = 2**62 // 64 - 1


@st.composite
def raw_counts(draw, max_n=8):
    """(counts, labels): an N x N CSR as the arrays give it, with duplicate
    entries, unsorted columns, stored zeros and counts of up to ``HUGE``,
    and N labels up to N + 1, so some coarse nodes have no member."""
    n = draw(st.integers(0, max_n))
    cell = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                     st.sampled_from([0, 1, 3, HUGE]) | st.integers(0, HUGE))
    entries = draw(st.lists(cell, max_size=64)) if n else []
    entries.sort(key=lambda e: e[0])  # rows in order, columns as drawn
    indptr = np.searchsorted([e[0] for e in entries], np.arange(n + 1))
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    data = np.array([e[2] for e in entries], dtype=np.int64)
    labels = draw(st.lists(st.integers(0, n + 1), min_size=n, max_size=n))
    return sparse.csr_array((data, cols, indptr), shape=(n, n)), np.array(labels, dtype=np.int64)


def indicator_renormalize(counts, labels: np.ndarray):
    """The coarse counts as ``indicator.T @ counts @ indicator``."""
    n = len(labels)
    k = int(labels.max()) + 1 if n else 0
    indicator = sparse.csr_array((np.ones(n, dtype=np.int64), (np.arange(n), labels)),
                                 shape=(n, k))
    return (indicator.T @ counts @ indicator).tocsr()


@PROPERTY
@given(raw_counts())
@example((sparse.csr_array((0, 0), dtype=np.int64), np.zeros(0, dtype=np.int64)))
@example((sparse.csr_array((np.full(64, HUGE), np.zeros(64, dtype=np.int64), [0, 64]),
                           shape=(1, 1)), np.zeros(1, dtype=np.int64)))
def test_renormalize_is_the_indicator_product(drawn):
    counts, labels = drawn
    raw = [a.copy() for a in (counts.data, counts.indices, counts.indptr)]
    coarse = renormalize(CitationMatrix(counts), Partition(labels, REAL)).counts
    want = indicator_renormalize(counts, labels)
    assert coarse.dtype == np.int64
    assert coarse.shape == want.shape
    assert coarse.has_canonical_format
    for got, ref in zip((coarse.data, coarse.indices, coarse.indptr),
                        (want.data, want.indices, want.indptr)):
        assert np.array_equal(got, ref)
    # exact: the coarse total is the Python-int sum of every count
    assert int(coarse.sum()) == sum(int(c) for c in raw[0])
    for before, after in zip(raw, (counts.data, counts.indices, counts.indptr)):
        assert np.array_equal(before, after)


def groups(labels) -> set[frozenset[int]]:
    return {frozenset(np.flatnonzero(labels == lbl).tolist()) for lbl in np.unique(labels)}


@PROPERTY
@given(count_matrices(), st.randoms(use_true_random=False))
def test_max_detection_is_invariant_under_relabelling(dense, rnd):
    n = len(dense)
    m = CitationMatrix.from_dense(dense)
    sims = build_similarity_matrix(m).values.toarray()[np.triu_indices(n, 1)]
    # only ties reorder the ranked pairs, and a relabelling can move a
    # similarity by a few ulps, so ask for a clear gap between positive values
    positive = np.sort(sims[sims > 0.0])
    assume(len(positive) < 2 or np.diff(positive).min() > 1e-9)
    perm = np.array(rnd.sample(range(n), n))  # old node i becomes perm[i]
    relabelled = np.empty_like(dense)
    relabelled[np.ix_(perm, perm)] = dense
    want = detect(m, Strategy("max"))
    got = detect(CitationMatrix.from_dense(relabelled), Strategy("max"))
    assert groups(got.core.labels[perm]) == groups(want.core.labels)
    assert groups(got.real.labels[perm]) == groups(want.real.labels)


STRATEGIES = [Strategy("max"), Strategy("psim"), Strategy("psim", topn=2), Strategy("p"),
              Strategy("max", deletion=0.5), Strategy("mixed", mix_p=0.5, mix_kind="psim")]
# small dense counts: similarities tie often, so the tie order is exercised
DENSE_COUNTS = st.integers(2, 10).flatmap(
    lambda n: arrays(np.int64, (n, n), elements=st.integers(0, 3)))


@PROPERTY
@given(DENSE_COUNTS, st.sampled_from(STRATEGIES), st.integers(0, 2**63))
def test_pair_columns_are_ranked_and_replay_from_a_pair_file(dense, strategy, seed):
    m = CitationMatrix.from_dense(dense)
    pairs = select_pairs(build_similarity_matrix(m), strategy, seed)
    selector, selected, sim = pairs
    assert [col.dtype for col in pairs] == [np.int64, np.int64, np.float64]
    assert len(selector) == len(selected) == len(sim)
    keys = list(zip((-sim).tolist(), selector.tolist(), selected.tolist()))
    assert keys == sorted(keys)

    d = detect(m, strategy, seed, levels=1)
    assert d.pairs == rows(pairs)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        write_pairs(path, d.pairs.columns)
        back, n_nodes, _ = read_pairs(path, n_nodes=m.n_nodes)
    # six-decimal rounding keeps the ranking and only adds ties, which
    # keep their file order
    replay = detect_from_pairs(back, n_nodes)
    assert np.array_equal(replay.core.labels, d.core.labels)
    assert np.array_equal(replay.real.labels, d.real.labels)


@PROPERTY
@given(st.lists(st.builds(RankedPair, st.integers(0, 50), st.integers(0, 50),
                          st.floats(-1000.0, 1000.0)).filter(lambda p: p.selector != p.selected),
                min_size=1, max_size=20))
def test_pairs_round_trip_to_six_decimals(pairs):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.tsv"
        write_pairs(path, columns(pairs))
        # a node count, because random ids in 0..50 may leave most ids unused
        (selector, selected, sims), _, labels = read_pairs(path, n_nodes=51)
    assert labels is None
    assert list(zip(selector.tolist(), selected.tolist())) == [p[:2] for p in pairs]
    for p, back in zip(pairs, sims.tolist()):
        assert back == float(f"{p.similarity:.6f}")
        assert abs(back - p.similarity) <= 5e-7 + 1e-12


@PROPERTY
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    arrays(np.int64, n, elements=st.integers(0, n - 1)),
    st.none() | st.lists(st.text("abc_xyz019", min_size=1, max_size=4),
                         min_size=n, max_size=n, unique=True))))
def test_partition_round_trip(case):
    raw, names = case
    labels = np.unique(raw, return_inverse=True)[1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "partition.tsv"
        write_partition(path, Partition(labels, CORE), names)
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    want_names = names if names is not None else [str(v) for v in range(len(labels))]
    assert [name for name, _ in rows] == want_names
    assert [int(lbl) for _, lbl in rows] == labels.tolist()


@st.composite
def digit_edge_bodies(draw, max_n=8):
    """Edge files of ASCII-digit fields only: repeated (src, dst) lines,
    zero counts, leading zeros, and sometimes no final newline."""
    n = draw(st.integers(1, max_n))
    node = st.integers(0, n - 1)
    count = st.sampled_from([0, 0, 1, 3]) | st.integers(0, 10**15)
    rows = draw(st.lists(st.tuples(node, node, count), min_size=1, max_size=12))
    again = draw(st.lists(st.sampled_from(rows), max_size=len(rows)))
    rows = draw(st.permutations(rows + [(a, b, draw(count)) for a, b, _ in again]))
    zeros = st.sampled_from(["", "", "0", "00"])
    lines = [f"{draw(zeros)}{a}\t{draw(zeros)}{b}\t{draw(zeros)}{c}" for a, b, c in rows]
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


def read_outcome(path: Path, text: str):
    path.write_bytes(text.encode("ascii"))
    try:
        return read_edges(path)
    except InputFormatError as exc:
        return str(exc)


@PROPERTY
@given(digit_edge_bodies())
def test_digit_edge_files_read_as_the_line_reader_reads_them(body):
    reads_as_the_line_reader(body)


@PROPERTY
@given(digit_edge_bodies(), st.sampled_from([4, 8, 16, 64]))
def test_digit_reader_chunks_read_as_the_line_reader_reads_them(body, chunk):
    """Chunks of a few bytes: lines cross chunk ends, and a file with a
    line longer than a chunk goes to the line reader."""
    longest = max(len(line) + 1 for line in body.rstrip("\n").split("\n"))
    with mock.patch.object(io, "_CHUNK", chunk):
        assert (io._digit_columns(body.encode("ascii")) is None) == (longest > chunk)
        reads_as_the_line_reader(body)


def reads_as_the_line_reader(body: str):
    """Assert that ``read_edges`` reads ``body`` as it reads it behind a comment."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edges.tsv"
        plain = read_outcome(path, body)
        # a comment line sends the file to the line reader
        commented = read_outcome(path, "# c\n" + body)
    if isinstance(plain, str):
        # a sparse id space: the same diagnostic, one line further down
        assert re.sub(r":(\d+):", lambda m: f":{int(m[1]) + 1}:", plain) == commented
        return
    assert plain.node_labels is None and commented.node_labels is None
    for attr in ("data", "indices", "indptr"):
        got, want = getattr(plain.counts, attr), getattr(commented.counts, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want)
