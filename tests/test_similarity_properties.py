"""Sparse similarity laws: bitwise symmetry, no stored diagonal or zero, bounded memory."""

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse

from simpair import CitationMatrix, Partition, build_similarity_matrix, renormalize
from simpair.selection import Strategy, select_pairs
from test_similarity import similarity_matrix_naive

# many zeros, so zero rows and disjoint patterns are common
COUNTS = st.sampled_from([0, 0, 0, 1, 2, 5]) | st.integers(0, 1000)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def citation_matrices(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    m = CitationMatrix.from_dense(draw(arrays(np.int64, (n, n), elements=COUNTS)))
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
