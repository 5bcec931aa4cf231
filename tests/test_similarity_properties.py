"""Sparse similarity laws: bitwise symmetry, no stored diagonal or zero, bounded memory."""

import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.sparse import csgraph

from simpair import (
    CitationMatrix,
    Partition,
    SimilarityMatrix,
    build_similarity_matrix,
    detect,
    renormalize,
    select_many,
)
from simpair import selection, similarity
from simpair.io import pairs_to_tsv
from simpair.selection import Strategy, select_pairs
from simpair.similarity import _row_sums
from test_similarity import similarity_matrix_naive

from pairlists import rows

# many zeros, so zero rows and disjoint patterns are common
COUNTS = st.sampled_from([0, 0, 0, 1, 2, 5]) | st.integers(0, 1000)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# (DENSE_RATIO, OUTPUT_RATIO) that force each kernel on every block that stores anything
KERNELS = {"_sparse_product": (0, 0), "_dense_product": (math.inf, 0)}


def forced(costs):
    """The kernel rule's constants patched to ``costs``, one of ``KERNELS``."""
    dense, output = costs
    return mock.patch.multiple(similarity, DENSE_RATIO=dense, OUTPUT_RATIO=output)


def components(s: SimilarityMatrix) -> list[np.ndarray]:
    """The node ids of each weak component of ``s.unit``'s pattern."""
    _, labels = csgraph.connected_components(s.unit, connection="weak")
    return [np.flatnonzero(labels == c) for c in range(labels.max(initial=-1) + 1)]


def assert_layout(s: SimilarityMatrix, blocks: list[np.ndarray], step: int) -> None:
    """``blocks``, the rows of each block, hold every node once, sorted, at most ``step``
    to a block: consecutive slices for a stored S or N <= ``step``, and otherwise every
    component of at most ``step`` nodes inside one block. From ``unit`` a block is
    marked closed exactly when it holds whole components."""
    n = s.n_nodes
    assert all(0 < len(rows) <= step and np.all(np.diff(rows) > 0) for rows in blocks)
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(n))
    layout = s._layout(step)
    assert [rows.tolist() for rows, _ in layout] == [rows.tolist() for rows in blocks]
    if s.unit is None:
        assert not any(closed for _, closed in layout)
    else:
        comps = components(s)
        label = np.empty(n, np.int64)
        for c, nodes in enumerate(comps):
            label[nodes] = c
        for rows, closed in layout:
            whole = sum(len(comps[c]) for c in np.unique(label[rows])) == len(rows)
            assert closed == whole, rows
    if s.unit is None or n <= step:
        assert [rows.tolist() for rows in blocks] == [list(range(lo, min(lo + step, n)))
                                                      for lo in range(0, n, step)]
        return
    block_of = np.empty(n, np.int64)
    for b, rows in enumerate(blocks):
        block_of[rows] = b
    for members in components(s):
        if len(members) <= step:
            assert len(np.unique(block_of[members])) == 1, members


@st.composite
def citation_matrices(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    dense = draw(arrays(np.int64, (n, n), elements=COUNTS))
    if draw(st.booleans()):
        m = CitationMatrix.from_dense(dense)
    else:
        # an edge list that also lists some cells with a count of 0, which
        # the matrix stores
        src, dst = np.nonzero((dense != 0) | draw(arrays(bool, (n, n), fill=st.nothing())))
        m = CitationMatrix.from_entries(n, src, dst, dense[src, dst])
    if draw(st.booleans()):
        # a coarse matrix, as the iterated pipeline builds it
        labels = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        m = renormalize(m, Partition(labels=labels, level="real"))
    return m


@PROPERTY
@given(citation_matrices())
def test_sparse_similarity_is_exact_symmetric_and_lean(m):
    values = build_similarity_matrix(m).values
    dense = values.toarray()
    assert np.array_equal(dense, dense.T)  # bit for bit, no mirroring
    rows = np.repeat(np.arange(values.shape[0]), np.diff(values.indptr))
    assert not np.any(values.indices == rows)  # no stored diagonal
    assert np.all(values.data != 0.0)  # no stored zero
    want = similarity_matrix_naive(m).values.toarray()
    assert np.abs(dense - want).max(initial=0.0) <= 1e-12


def scipy_row_ops_similarity(m: CitationMatrix) -> np.ndarray:
    """Dense S from unit patterns normalised with scipy's row sum and multiply."""
    counts = m.counts.astype(np.float64)
    row_sums = np.asarray(counts.sum(axis=1)).ravel()
    inv = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    frac = sparse.csr_array(counts.multiply(inv[:, None]))
    norms = np.sqrt(np.asarray(frac.multiply(frac).sum(axis=1)).ravel())
    inv_norm = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    unit = sparse.csr_array(frac.multiply(inv_norm[:, None]))
    unit.sort_indices()
    s = (unit @ unit.T).toarray()
    np.fill_diagonal(s, 0.0)
    return s


@PROPERTY
@given(citation_matrices())
def test_normalising_on_csr_arrays_is_bitwise_scipys(m):
    assert np.array_equal(build_similarity_matrix(m).values.toarray(),
                          scipy_row_ops_similarity(m))


def test_block_sparse_12k_stays_far_below_dense_size():
    """Similarity plus max selection at N = 12 000 never nears an N x N array."""
    rng = np.random.default_rng(12)
    n, size, per_node = 12_000, 100, 10
    src = np.repeat(np.arange(n), per_node)
    dst = (src // size) * size + rng.integers(size, size=len(src))
    counts = sparse.csr_array((np.ones(len(src), dtype=np.int64), (src, dst)), shape=(n, n))
    counts.sum_duplicates()
    m = CitationMatrix(counts)

    tracemalloc.start()
    try:
        pairs = select_pairs(build_similarity_matrix(m), Strategy("max"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs[0]) >= n
    assert peak < n * n * 8 / 8


def unit_patterns_by_row_index(m: CitationMatrix):
    """Unit patterns normalised with one int64 row index per stored entry,
    after dropping counts of 0."""
    counts = m.counts.astype(np.float64)
    counts.sum_duplicates()
    counts.eliminate_zeros()
    ip = counts.indptr
    row = np.repeat(np.arange(counts.shape[0]), np.diff(ip))
    row_sums = _row_sums(counts.data, ip)
    inv = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    frac = counts.data * inv[row]
    norms = np.sqrt(_row_sums(frac * frac, ip))
    inv_norm = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return frac * inv_norm[row], counts.indices, ip


@PROPERTY
@given(citation_matrices())
def test_normalising_in_place_keeps_the_unit_patterns(m):
    data, indices, indptr = unit_patterns_by_row_index(m)
    unit = build_similarity_matrix(m).unit
    assert unit.data.tobytes() == data.tobytes()
    assert np.array_equal(unit.indices, indices)
    assert np.array_equal(unit.indptr, indptr)


def non_canonical(counts, seed: int) -> sparse.csr_array:
    """The same counts as a CSR with each entry split in two, a stored zero
    on each row's first column and on a random column, and each row's
    columns shuffled."""
    rng = np.random.default_rng(seed)
    n = counts.shape[0]
    row = np.repeat(np.arange(n), np.diff(counts.indptr))
    part = rng.integers(0, counts.data + 1)
    rows = np.concatenate([row, row, np.arange(n), np.arange(n)])
    cols = np.concatenate([counts.indices, counts.indices, np.zeros(n, dtype=np.int64),
                           rng.integers(0, n, n)])
    data = np.concatenate([part, counts.data - part, np.zeros(2 * n, dtype=np.int64)])
    order = np.lexsort((rng.random(len(rows)), rows))
    indptr = np.searchsorted(rows[order], np.arange(n + 1))
    split = sparse.csr_array((data[order], cols[order], indptr), shape=(n, n))
    assert not split.has_canonical_format
    return split


@PROPERTY
@given(citation_matrices(), st.integers(0, 2**32 - 1))
def test_normalising_a_non_canonical_copy_gives_the_same_unit(m, seed):
    twin = CitationMatrix(non_canonical(m.counts, seed))
    kept = [(a.copy(), a.dtype) for c in (m.counts, twin.counts)
            for a in (c.data, c.indices, c.indptr)]
    unit, twin_unit = build_similarity_matrix(m).unit, build_similarity_matrix(twin).unit
    for a, b in zip((unit.data, unit.indices, unit.indptr),
                    (twin_unit.data, twin_unit.indices, twin_unit.indptr)):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()
    # neither input's counts were touched
    after = [a for c in (m.counts, twin.counts) for a in (c.data, c.indices, c.indptr)]
    for (before, dtype), now in zip(kept, after):
        assert now.dtype == dtype
        assert np.array_equal(before, now)


def test_index_arrays_are_int32_when_they_fit():
    rng = np.random.default_rng(8)
    s = build_similarity_matrix(CitationMatrix.from_dense(rng.integers(0, 3, (30, 30))))
    assert s.unit.indices.dtype == s.unit.indptr.dtype == np.int32
    assert s.values.indices.dtype == np.int32
    for name, ratio in KERNELS.items():
        products = []
        kernel = getattr(similarity, name)

        def recorded(rows, *args):
            products.append((rows.indices.dtype, rows.indptr.dtype, rows.shape[0]))
            return kernel(rows, *args)

        with forced(ratio), mock.patch.object(similarity, name, recorded):
            layout = [rows for rows, _, _ in s.blocks(7)]
        assert_layout(s, layout, 7)
        # every block is a product of its own rows, not read from the kept values
        assert products == [(np.int32, np.int32, len(rows)) for rows in layout], name


SEEDS = st.integers(0, 2**63)
# the seven strategies of scripts/identity_digest.py
DIGEST_STRATEGIES = [Strategy("max"), Strategy("psim"), Strategy("psim", topn=5), Strategy("p"),
                     Strategy("max", deletion=0.3),
                     Strategy("mixed", mix_p=0.4, mix_kind="psim"),
                     Strategy("mixed", mix_p=0.4, mix_kind="p")]


@PROPERTY
@given(citation_matrices(max_n=24), SEEDS, st.integers(1, 5))
def test_block_products_never_change_the_pairs(m, seed, block_rows):
    """Pairs from block products of a few rows equal those from the stored S."""
    if m.n_nodes < 2:
        return
    jobs = [(Strategy("max"), 0)] + [(strategy, seed) for strategy in DIGEST_STRATEGIES]
    stored = SimilarityMatrix(values=build_similarity_matrix(m).values)
    want = [rows(select_pairs(stored, strategy, sd)) for strategy, sd in jobs]
    with mock.patch.object(selection, "BLOCK_ROWS", block_rows):
        s = build_similarity_matrix(m)
        assert [rows(select_pairs(s, strategy, sd)) for strategy, sd in jobs] == want
        assert [rows(pairs) for pairs in select_many(s, jobs)] == want


def hub_citations(n: int, per_node: int = 50, alpha: float = 2.5, seed: int = 0) -> CitationMatrix:
    """``per_node`` citations per node to targets drawn from a power law.

    The target of rank r is drawn with weight r ** (-1 / (alpha - 1)), the
    rank-size form of a degree distribution of exponent ``alpha``, so a few
    hubs are cited by almost every node and S is nearly dense.
    """
    rng = np.random.default_rng(seed)
    weight = np.arange(1, n + 1, dtype=float) ** (-1.0 / (alpha - 1.0))
    dst = rng.permutation(n)[rng.choice(n, size=n * per_node, p=weight / weight.sum())]
    src = np.repeat(np.arange(n), per_node)
    counts = sparse.csr_array((np.ones(len(src), dtype=np.int64), (src, dst)), shape=(n, n))
    counts.sum_duplicates()
    return CitationMatrix(counts)


# every picker's temporaries, deletion's shared window included
HUB_STRATEGIES = [Strategy("max"), Strategy("psim"), Strategy("psim", topn=5), Strategy("p"),
                  Strategy("max", deletion=0.3), Strategy("mixed", mix_p=0.4, mix_kind="psim")]


def test_hub_heavy_detect_stays_far_below_the_whole_similarity():
    """``detect`` on a nearly dense S never holds a large part of it, whatever the strategy."""
    n = 2000
    m = hub_citations(n)
    values = build_similarity_matrix(m).values
    assert values.nnz > 0.5 * n * n
    for strategy in HUB_STRATEGIES:
        tracemalloc.start()
        try:
            detection = detect(m, strategy, seed=1, levels=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(detection.pairs) >= n, strategy
        assert peak < values.nbytes / 4, (strategy, peak, values.nbytes)


def assert_blocks_are_the_product(s: SimilarityMatrix, step: int) -> None:
    """``s.blocks(step)`` are byte for byte the rows of ``unit @ unit.T``,
    diagonal 0, over the columns that product stores."""
    product = s.unit @ s.unit.T
    blocks = list(s.blocks(step))
    assert_layout(s, [rows for rows, _, _ in blocks], step)
    for rows, cols, vals in blocks:
        want = product[rows].toarray()
        want[np.arange(len(want)), rows] = 0.0
        assert cols.dtype == np.intp
        assert np.array_equal(cols, np.unique(product[rows].indices))
        assert vals.tobytes() == want[:, cols].tobytes()


@pytest.mark.parametrize("ratio", KERNELS.values(), ids=KERNELS)
@PROPERTY
@given(m=citation_matrices(max_n=24), step=st.integers(1, 5))
@example(m=CitationMatrix.from_dense([[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 3, 0], [0, 2, 0, 1]]),
         step=2)  # an all-empty block
def test_each_kernel_gives_the_product_rows(ratio, m, step):
    with forced(ratio):
        assert_blocks_are_the_product(build_similarity_matrix(m), step)


def planted(n: int, size: int = 100, per_node: int = 50, shuffle: bool = False) -> CitationMatrix:
    """``per_node`` citations per node, each to a node of its own block of ``size``."""
    rng = np.random.default_rng(n)
    src = np.repeat(np.arange(n), per_node)
    dst = (src // size) * size + rng.integers(size, size=len(src))
    if shuffle:
        perm = rng.permutation(n)
        src, dst = perm[src], perm[dst]
    return CitationMatrix.from_entries(n, src, dst, np.ones(len(src), dtype=np.int64))


@pytest.mark.parametrize("ratio", KERNELS.values(), ids=KERNELS)
@pytest.mark.parametrize("make", [lambda: planted(1500), lambda: planted(1500, shuffle=True),
                                  lambda: hub_citations(2000)],
                         ids=["sorted blocks", "shuffled blocks", "hub"])
def test_each_kernel_gives_the_product_rows_in_full_blocks(ratio, make):
    """At 128 rows, where the dense product runs its wide vector loop."""
    with forced(ratio):
        assert_blocks_are_the_product(build_similarity_matrix(make()), selection.BLOCK_ROWS)


@pytest.mark.parametrize("ratio", KERNELS.values(), ids=KERNELS)
def test_a_count_of_0_stores_no_pattern_entry(ratio):
    m = CitationMatrix.from_entries(3, [0, 2, 1], [1, 1, 2], [0, 3, 1])
    assert (m.counts.data == 0).any()
    s = build_similarity_matrix(m)
    assert (s.unit.data > 0.0).all()
    with forced(ratio):
        for step in (1, 2, 3):
            assert_blocks_are_the_product(s, step)


# every kernel: the one of a closed block, from its own rows, and both from unit's transpose
ALL_KERNELS = ("_own_dense_product", "_dense_product", "_sparse_product")


def counting_kernels(calls: dict):
    """Every kernel of ``ALL_KERNELS`` patched to add 1 to ``calls[name]`` per call."""
    def counting(name):
        kernel = getattr(similarity, name)

        def counted(*args):
            calls[name] += 1
            return kernel(*args)
        return counted

    return mock.patch.multiple(similarity, **{name: counting(name) for name in ALL_KERNELS})


def test_a_count_of_0_keeps_the_dense_kernel():
    """One edge with a count of 0 changes neither the kernels nor any output."""
    plain = planted(1500)
    counts = plain.counts.tocoo()
    with_zero = CitationMatrix.from_entries(1500, np.append(counts.row, 0),
                                            np.append(counts.col, 1499),
                                            np.append(counts.data, 0))
    assert with_zero.counts.nnz == plain.counts.nnz + 1
    outputs = []
    for m in (plain, with_zero):
        calls = dict.fromkeys(ALL_KERNELS, 0)
        with counting_kernels(calls):
            d = detect(m, Strategy("max"), levels=0)
        outputs.append((calls, pairs_to_tsv(d.pairs.columns), d.core.labels.tobytes(),
                        d.real.labels.tobytes()))
    # the first level's 15 communities, and every coarse level, are closed dense blocks
    calls = outputs[0][0]
    assert calls["_own_dense_product"] >= 15
    assert calls["_dense_product"] == calls["_sparse_product"] == 0
    assert outputs[1] == outputs[0]


@st.composite
def units_with_zeros(draw, max_n=12):
    """Unit patterns of a citation matrix, CSR with sorted rows, that also
    store zeros at drawn cells."""
    unit = build_similarity_matrix(draw(citation_matrices(max_n))).unit.toarray()
    n = len(unit)
    r, c = np.nonzero((unit != 0.0) | draw(arrays(bool, (n, n), fill=st.nothing())))
    return sparse.csr_array((unit[r, c], (r, c)), shape=(n, n))


@pytest.mark.parametrize("ratio", KERNELS.values(), ids=KERNELS)
@PROPERTY
@given(units_with_zeros(max_n=24), SEEDS)
def test_stored_zeros_in_a_given_unit_never_change_the_pairs(ratio, unit, seed):
    """Outside the contract, zeros only add all-zero columns to a block."""
    if unit.shape[0] < 2:
        return
    assert unit.has_sorted_indices
    product = unit @ unit.T
    jobs = [(strategy, seed) for strategy in DIGEST_STRATEGIES]
    want = [rows(pairs) for pairs in select_many(SimilarityMatrix(values=product), jobs)]
    for block_rows in (3, 128):
        with forced(ratio), \
                mock.patch.object(selection, "BLOCK_ROWS", block_rows):
            s = SimilarityMatrix(unit=unit)
            assert [rows(pairs) for pairs in select_many(s, jobs)] == want
            for block, cols, vals in s.blocks(block_rows):
                full = product[block].toarray()
                full[np.arange(len(full)), block] = 0.0
                assert np.isin(product[block].indices, cols).all()
                assert vals.tobytes() == full[:, cols].tobytes()


@PROPERTY
@given(citation_matrices(max_n=24), st.booleans(), st.integers(1, 5))
def test_blocks_walk_the_rows_in_order_over_their_stored_columns(m, stored, step):
    """``blocks`` covers [0, N) in blocks of at most ``step`` rows, each the stored
    columns of its rows."""
    values = build_similarity_matrix(m).values
    dense = values.toarray()
    s = SimilarityMatrix(values=values) if stored else build_similarity_matrix(m)
    # the columns a row stores: those of S, or of the product it is computed from
    pattern = values if stored else s.unit @ s.unit.T
    blocks = list(s.blocks(step))
    assert_layout(s, [rows for rows, _, _ in blocks], step)
    for rows, cols, vals in blocks:
        assert np.all(np.diff(cols) > 0)
        assert np.array_equal(cols, np.unique(pattern[rows].indices))
        assert vals.tobytes() == dense[rows][:, cols].tobytes()
        assert not np.delete(dense[rows], cols, axis=1).any()


# the digest's strategies, top-n cuts around the window widths and deep deletion walks
LAYOUT_STRATEGIES = DIGEST_STRATEGIES + [Strategy("psim", topn=n) for n in (1, 2, 9, 30)] + [
    Strategy("max", deletion=0.9)]


def fresh(m: CitationMatrix) -> CitationMatrix:
    """A matrix of ``m``'s counts that keeps no similarity state yet."""
    return CitationMatrix(m.counts, m.node_labels)


def one_component(unit):
    """``_components`` as if every node were in one component: consecutive blocks."""
    return np.zeros(unit.shape[0], np.int32)


@st.composite
def components_shuffled(draw):
    """Citations inside several disjoint groups of nodes, some rows empty, under
    shuffled ids, and the block size to read them with. At 128 rows one group
    has more nodes than a block."""
    block_rows = draw(st.sampled_from([1, 2, 3, 4, 5, 128]))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
    if block_rows == 128:
        sizes.append(draw(st.integers(129, 140)))
    n = sum(sizes)
    src, dst, count = [], [], []
    lo = 0
    for size in sizes:
        # a group's own citations; zeros leave rows empty and may split it further
        if size <= 9:
            dense = draw(arrays(np.int64, (size, size), elements=COUNTS))
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            dense = rng.integers(0, 4, (size, size)) * (rng.random((size, size)) < 0.05)
        r, c = np.nonzero(dense)
        src.append(lo + r), dst.append(lo + c), count.append(dense[r, c])
        lo += size
    perm = np.asarray(draw(st.permutations(range(n))), np.int64)
    m = CitationMatrix.from_entries(n, perm[np.concatenate(src)], perm[np.concatenate(dst)],
                                    np.concatenate(count))
    return m, block_rows


@pytest.mark.parametrize("ratio", KERNELS.values(), ids=KERNELS)
@PROPERTY
@given(components_shuffled(), SEEDS)
def test_component_layout_equals_consecutive_blocks(ratio, case, seed):
    """``select_many`` gives the same pair bytes whichever rows share a block."""
    m, block_rows = case
    if m.n_nodes < 2:
        return
    jobs = [(strategy, seed) for strategy in LAYOUT_STRATEGIES]
    outputs = []
    for layout in (None, one_component):
        with forced(ratio), mock.patch.object(selection, "BLOCK_ROWS", block_rows), \
                mock.patch.object(similarity, "_components", layout or similarity._components):
            s = build_similarity_matrix(fresh(m))
            if layout is None:
                assert_layout(s, [rows for rows, _, _ in s.blocks(block_rows)], block_rows)
            outputs.append([[col.tobytes() for col in pairs] for pairs in select_many(s, jobs)])
    assert outputs[1] == outputs[0]


def test_shuffled_communities_each_fill_one_dense_block():
    """Shuffled ids no longer scatter a block over communities or keep it off the
    dense kernel: each 100-node community is one closed block, computed from its
    own rows."""
    s = build_similarity_matrix(planted(1500, shuffle=True))
    calls = dict.fromkeys(ALL_KERNELS, 0)
    with counting_kernels(calls):
        layout = [rows for rows, _, _ in s.blocks(selection.BLOCK_ROWS)]
    assert sorted(rows.tolist() for rows in layout) == sorted(c.tolist() for c in components(s))
    assert len(layout) == 15
    assert all(closed for _, closed in s._layout(selection.BLOCK_ROWS))
    assert calls == {"_own_dense_product": 15, "_dense_product": 0, "_sparse_product": 0}


def two_node_components(n: int, seed: int = 0) -> CitationMatrix:
    """``n`` (even) nodes in pairs under shuffled ids, each node citing both of its pair."""
    rng = np.random.default_rng(seed)
    pair = rng.permutation(n).reshape(-1, 2)
    src = np.repeat(pair, 2, axis=0).ravel()  # a, a, b, b
    dst = np.tile(pair, 2).ravel()  # a, b, a, b
    return CitationMatrix.from_entries(n, src, dst, rng.integers(1, 4, len(src)))


def kernel_blocks(s: SimilarityMatrix, rows: np.ndarray, closed: bool) -> dict:
    """``s._block(rows, closed)`` with each kernel of ``KERNELS`` forced."""
    out = {}
    for name, costs in KERNELS.items():
        with forced(costs):
            out[name] = s._block(rows, closed)
    return out


def same(a: tuple, b: tuple) -> bool:
    """Whether two ``(cols, vals)`` blocks are the same bytes, shapes and dtypes."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


def assert_closed_blocks_are_the_transposes(s: SimilarityMatrix, step: int,
                                            exact: bool = True) -> int:
    """Every closed block of ``s``, computed from its own rows by the dense kernel
    alone, is byte for byte the dense kernel's block from ``unit``'s transpose. With
    ``exact`` (positive ``unit`` entries) it is also the CSR product's; otherwise it is
    the CSR product's plus all-zero columns. Returns the number of closed blocks."""
    n_closed = 0
    for rows, closed in s._layout(step):
        if not closed:
            continue
        n_closed += 1
        calls = dict.fromkeys(ALL_KERNELS, 0)
        with counting_kernels(calls):
            own = s._block(rows, True, s._local(step))
        assert calls == {"_own_dense_product": 1, "_dense_product": 0, "_sparse_product": 0}
        cut = kernel_blocks(s, rows, False)
        assert same(own, cut["_dense_product"]), rows
        (cols, vals), (own_cols, own_vals) = cut["_sparse_product"], own
        if exact:
            assert same((cols, vals), own), rows
        else:
            at = np.searchsorted(own_cols, cols)
            assert np.array_equal(own_cols[at], cols)
            assert own_vals[:, at].tobytes() == vals.tobytes()
            assert not np.delete(own_vals, at, axis=1).any()
    return n_closed


@PROPERTY
@given(components_shuffled() | citation_matrices(max_n=24).map(lambda m: (m, 128)))
@example((two_node_components(300), 128))
@example((two_node_components(12, seed=1), 3))
def test_closed_blocks_are_the_kernels_from_the_transpose(case):
    """Closed blocks (several components, empty rows, singletons, shuffled ids, coarse
    matrices, and N <= BLOCK_ROWS) give the bytes of both kernels from ``unit.T``."""
    m, step = case
    s = build_similarity_matrix(m)
    n_closed = assert_closed_blocks_are_the_transposes(s, step)
    if m.n_nodes <= step:
        assert n_closed == 1


@pytest.mark.parametrize("step", [1, 3, 128])
@PROPERTY
@given(units_with_zeros(max_n=24))
def test_closed_blocks_of_a_unit_with_stored_zeros_are_the_kernels_from_the_transpose(
        step, unit):
    s = SimilarityMatrix(unit=unit)
    n_closed = assert_closed_blocks_are_the_transposes(s, step, exact=False)
    if unit.shape[0] <= step:
        assert n_closed == 1


def test_two_node_components_take_the_dense_kernel_from_their_own_rows():
    s = build_similarity_matrix(two_node_components(1000))
    calls = dict.fromkeys(ALL_KERNELS, 0)
    with counting_kernels(calls):
        n_blocks = sum(1 for _ in s.blocks(selection.BLOCK_ROWS))
    assert calls == {"_own_dense_product": n_blocks, "_dense_product": 0, "_sparse_product": 0}
    assert_blocks_are_the_product(s, selection.BLOCK_ROWS)


def test_closed_blocks_cost_their_own_rows_not_n():
    """At N = 200 000 in 2-node components, a closed block allocates nothing N-wide:
    no mask, no running count and no transpose rows over every node."""
    n, step = 200_000, 32
    s = build_similarity_matrix(two_node_components(n))
    assert all(closed for _, closed in s._layout(step))
    blocks = s.blocks(step)
    next(blocks)  # the layout, held for the whole pass, is built with the first block
    n_blocks, worst = 1, 0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for block in blocks:
            n_blocks += 1
            worst = max(worst, tracemalloc.get_traced_memory()[1] - before)
            del block
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert n_blocks == -(-n // step)
    # the dense kernel's (targets x rows) operand and its product, the block's
    # values, are the block's two step x step float64 arrays (8 KB each); allow
    # twice those. One N-wide bool mask alone is 200 KB, 6 times this bound.
    bound = 2 * 2 * step * step * 8
    assert n > 5 * bound
    assert worst < bound, worst


def test_a_layout_of_closed_blocks_never_transposes():
    """Blocks of whole components, and the one block of N <= BLOCK_ROWS, never build
    ``unit.T``; a block that cuts a component does."""
    def never(self):
        raise AssertionError("unit transposed for a closed block")

    assert 125 <= selection.BLOCK_ROWS < 150
    with mock.patch.object(SimilarityMatrix, "_unit_t", property(never)):
        for m in (planted(5000), planted(1500, shuffle=True), planted(125, size=25)):
            detect(m, Strategy("max"), levels=0)
            select_many(build_similarity_matrix(m),
                        [(strategy, 3) for strategy in DIGEST_STRATEGIES])
        with pytest.raises(AssertionError, match="closed block"):
            select_pairs(build_similarity_matrix(planted(150, size=150)), Strategy("max"))


def test_components_are_labelled_only_past_one_block():
    """At N <= BLOCK_ROWS there is one block, and no components call is made."""
    def never(*args, **kwargs):
        raise AssertionError("components labelled for a single block")

    assert 125 <= selection.BLOCK_ROWS < 150
    with mock.patch.object(similarity, "_components", never):
        detect(planted(125, size=25), Strategy("max"), levels=0)
        select_many(build_similarity_matrix(planted(125, size=25)),
                    [(strategy, 3) for strategy in DIGEST_STRATEGIES])
        with pytest.raises(AssertionError, match="single block"):
            select_pairs(build_similarity_matrix(planted(150, size=25)), Strategy("max"))


def shuffled_path(n: int, seed: int) -> CitationMatrix:
    """Node perm[k] cites perm[k + 1]: one component as long as it can be."""
    perm = np.random.default_rng(seed).permutation(n)
    return CitationMatrix.from_entries(n, perm[:-1], perm[1:], np.ones(n - 1, np.int64))


def scipys_components(unit) -> np.ndarray:
    """scipy's weak components of ``unit``'s pattern, each labelled by its smallest node."""
    k, labels = csgraph.connected_components(unit, connection="weak")
    smallest = np.full(k, unit.shape[0])
    np.minimum.at(smallest, labels, np.arange(unit.shape[0]))
    return smallest[labels]


@PROPERTY
@given(citation_matrices(max_n=24) | components_shuffled().map(lambda case: case[0]))
@example(shuffled_path(2000, 0))
def test_components_are_scipys_labelled_by_their_smallest_node(m):
    unit = build_similarity_matrix(m).unit
    assert np.array_equal(similarity._components(unit), scipys_components(unit))


def test_components_of_a_long_chain_take_few_rounds():
    """Labels hop from root to root, not one node per round: a 20 000-node path
    under shuffled ids is labelled in well under a second."""
    unit = build_similarity_matrix(shuffled_path(20_000, 0)).unit
    start = time.process_time()
    labels = similarity._components(unit)
    elapsed = time.process_time() - start
    assert np.array_equal(labels, scipys_components(unit))
    assert elapsed < 1.0, elapsed
