"""Citation matrices: what construction accepts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import sparse

from simpair import CitationMatrix, Strategy, detect
from simpair.io import pairs_to_tsv
from test_similarity_properties import PROPERTY, citation_matrices, non_canonical

INT64_MAX = np.iinfo(np.int64).max


@pytest.mark.parametrize("build", [
    lambda: CitationMatrix.from_dense([[0, 0, 5 * 10**18], [0, 0, 5 * 10**18], [1, 0, 0]]),
    # four duplicates of one cell, whose int64 sum would wrap to a positive count
    lambda: CitationMatrix.from_entries(3, [0] * 4, [2] * 4, [5 * 10**18] * 4),
], ids=["from_dense", "from_entries duplicates"])
def test_counts_that_sum_past_int64_are_refused(build):
    with pytest.raises(ValueError, match="sum past the int64 maximum"):
        build()


def test_counts_that_sum_to_int64_max_coarse_grain_exactly():
    m = CitationMatrix.from_dense([[0, 0, INT64_MAX - 10**18], [0, 0, 10**18 - 1], [1, 0, 0]])
    assert m.total_citations == INT64_MAX
    d = detect(m, Strategy("max"), levels=0)
    assert d.real.labels.tolist() == [0, 0, 1]


def test_a_negative_count_is_refused_before_duplicates_are_summed():
    with pytest.raises(ValueError, match="nonnegative"):
        CitationMatrix.from_entries(2, [0, 0], [1, 1], [5, -3])


@pytest.mark.parametrize("build, bad", [
    (lambda: CitationMatrix.from_dense([[0, 2.7, 0], [-0.5, 0, 1], [1, 1, 0]]), "2.7"),
    (lambda: CitationMatrix.from_dense([[0, -0.5], [1, 0]]), "-0.5"),
    (lambda: CitationMatrix.from_dense([[0, np.nan], [1, 0]]), "nan"),
    (lambda: CitationMatrix.from_entries(3, [0, 1], [1, 2], [1.9, 2.2]), "1.9"),
    (lambda: CitationMatrix.from_entries(2, [0], [1], [np.inf]), "inf"),
    (lambda: CitationMatrix.from_entries(2, [0], [1], ["3"]), "'3'"),
    (lambda: CitationMatrix(sparse.csr_array([[0, 0.5], [0.25, 0]])), "0.5"),
], ids=["from_dense", "from_dense negative", "from_dense nan", "from_entries",
        "from_entries inf", "from_entries string", "csr"])
def test_a_count_that_is_not_a_whole_number_is_refused_by_name(build, bad):
    with pytest.raises(ValueError, match=f"whole numbers, got {bad}$"):
        build()


@pytest.mark.parametrize("build", [
    lambda: CitationMatrix.from_dense([[0, 2.0], [1.0, 0]]),
    lambda: CitationMatrix.from_entries(2, [0, 1], [1, 0], [2.0, 1.0]),
    lambda: CitationMatrix.from_entries(2, [0, 1], [1, 0], np.array([2, 1], dtype=object)),
    lambda: CitationMatrix(sparse.csr_array([[0, 2.0], [1.0, 0]])),
], ids=["from_dense", "from_entries", "from_entries object", "csr"])
def test_whole_valued_float_counts_construct(build):
    assert build().to_dense().tolist() == [[0, 2], [1, 0]]


@pytest.mark.parametrize("build", [
    lambda: CitationMatrix.from_dense([[0, 2.0**63], [1, 0]]),
    lambda: CitationMatrix.from_dense(np.array([[0, 10**20], [1, 0]], dtype=object)),
    lambda: CitationMatrix.from_entries(2, [0], [1], np.array([2**63], dtype=np.uint64)),
    # Python ints past int64, which numpy holds as objects and scipy refuses by dtype
    lambda: CitationMatrix.from_entries(2, [0], [1], [10**20]),
], ids=["float", "object", "uint64", "from_entries object"])
def test_a_single_count_past_int64_is_refused(build):
    with pytest.raises(ValueError, match="sum past the int64 maximum"):
        build()


@pytest.mark.parametrize("src, dst, bad", [
    ([0.5], [1], "0.5"),
    ([1.7], [1], "1.7"),
    ([0], [np.nan], "nan"),
    (["1"], [2], "'1'"),
    ([0], ["2"], "'2'"),
], ids=["half", "self-citation when truncated", "nan", "string src", "string dst"])
def test_a_node_id_that_is_not_a_whole_number_is_refused_by_name(src, dst, bad):
    with pytest.raises(ValueError, match=f"node ids must be whole numbers, got {bad}$"):
        CitationMatrix.from_entries(3, src, dst, [2])


@pytest.mark.parametrize("ids", [
    np.array([0, 2], dtype=np.int32),
    np.array([0, 2], dtype=object),  # the line reader's Python ints
    [0.0, 2.0],
], ids=["int32", "object ints", "whole floats"])
def test_whole_node_ids_construct(ids):
    m = CitationMatrix.from_entries(3, ids, [1, 1], [4, 5])
    assert m.to_dense().tolist() == [[0, 4, 0], [0, 0, 0], [0, 5, 0]]


def arrays_of(counts) -> list[np.ndarray]:
    """The arrays a sparse input holds, or for LIL, DOK and DIA its dense entries."""
    if counts.format == "coo":
        return [counts.data, *counts.coords]
    if counts.format in ("csr", "csc", "bsr"):
        return [counts.data, counts.indices, counts.indptr]
    return [counts.toarray()]


def forms(counts, seed: int) -> dict:
    """Canonical int64 ``counts`` in other forms that hold the same entries."""
    data, indices, indptr = counts.data, counts.indices, counts.indptr
    return {
        "as built": counts,
        "non-canonical": non_canonical(counts, seed),
        "csc": counts.tocsc(),
        "coo": counts.tocoo(),
        "coo, split and shuffled": non_canonical(counts, seed).tocoo(),
        "csr_matrix": sparse.csr_matrix(counts),
        "float data": counts.astype(np.float64),
        "int64 indices": sparse.csr_array(
            (data, indices.astype(np.int64), indptr.astype(np.int64)), shape=counts.shape),
        **{fmt: counts.asformat(fmt) for fmt in ("bsr", "dia", "dok", "lil")},
    }


def outputs(m: CitationMatrix) -> tuple:
    d = detect(m, Strategy("max"), levels=0)
    return pairs_to_tsv(d.pairs.columns), d.core.labels.tobytes(), d.real.labels.tobytes()


@PROPERTY
@given(citation_matrices(), st.integers(0, 2**32 - 1))
def test_every_input_form_keeps_the_one_canonical_csr(m, seed):
    entries = m.counts.tocoo()
    built = CitationMatrix.from_entries(m.n_nodes, entries.row, entries.col, entries.data)
    want, want_outputs = built.counts, outputs(built)
    for name, given_counts in forms(m.counts, seed).items():
        before = [a.copy() for a in arrays_of(given_counts)]
        got = CitationMatrix(given_counts)
        assert type(got.counts) is sparse.csr_array, name
        for a, b in zip(arrays_of(got.counts), arrays_of(want)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable, name
        assert got.counts.data.all(), name
        assert outputs(got) == want_outputs, name
        # the caller's arrays keep their bytes
        for a, b in zip(arrays_of(given_counts), before):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


# 0 -> 1 is cited, 1 -> 0 is not, so the transpose has other pairs
ASYMMETRIC = np.array([[0, 3, 0, 1, 0], [0, 0, 0, 0, 4], [0, 1, 0, 5, 0],
                       [1, 0, 2, 0, 0], [0, 0, 1, 3, 0]])


def test_csc_counts_are_not_read_as_their_transpose():
    m, t = CitationMatrix(sparse.csc_array(ASYMMETRIC)), CitationMatrix.from_dense(ASYMMETRIC.T)
    assert m.to_dense().tolist() == ASYMMETRIC.tolist()
    assert outputs(m) == outputs(CitationMatrix.from_dense(ASYMMETRIC)) != outputs(t)


def test_coo_counts_construct():
    m = CitationMatrix(sparse.coo_array(ASYMMETRIC))
    assert m.total_citations == ASYMMETRIC.sum()
    assert outputs(m) == outputs(CitationMatrix.from_dense(ASYMMETRIC))


def test_duplicated_csr_counts_are_summed_into_a_copy():
    data, indices, indptr = np.array([1, 2, 3]), np.array([1, 1, 0]), np.array([0, 2, 3])
    m = CitationMatrix(sparse.csr_array((data, indices, indptr), shape=(2, 2)))
    assert m.total_citations == 6
    assert m.to_dense().tolist() == [[0, 3], [3, 0]]
    assert outputs(m) == outputs(CitationMatrix.from_dense([[0, 3], [3, 0]]))
    assert [data.tolist(), indices.tolist(), indptr.tolist()] == [[1, 2, 3], [1, 1, 0], [0, 2, 3]]


def test_canonical_csr_counts_are_kept_without_a_copy():
    given_counts = sparse.csr_array(ASYMMETRIC)
    m = CitationMatrix(given_counts)
    for a, b in zip(arrays_of(m.counts), arrays_of(given_counts)):
        assert np.shares_memory(a, b)


@pytest.mark.parametrize("dense", [ASYMMETRIC, ASYMMETRIC.tolist()], ids=["array", "list"])
def test_dense_counts_are_refused_with_a_pointer_to_from_dense(dense):
    with pytest.raises(TypeError, match="from_dense"):
        CitationMatrix(dense)
