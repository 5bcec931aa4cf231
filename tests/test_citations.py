"""Citation matrices: what construction accepts."""

import numpy as np
import pytest
from scipy import sparse

from simpair import CitationMatrix, Strategy, detect

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
    (lambda: CitationMatrix(sparse.csr_array([[0, 0.5], [0.25, 0]])), "0.5"),
], ids=["from_dense", "from_dense negative", "from_dense nan", "from_entries",
        "from_entries inf", "csr"])
def test_a_count_that_is_not_a_whole_number_is_refused_by_name(build, bad):
    with pytest.raises(ValueError, match=f"whole numbers, got {bad}$"):
        build()


@pytest.mark.parametrize("build", [
    lambda: CitationMatrix.from_dense([[0, 2.0], [1.0, 0]]),
    lambda: CitationMatrix.from_entries(2, [0, 1], [1, 0], [2.0, 1.0]),
    lambda: CitationMatrix(sparse.csr_array([[0, 2.0], [1.0, 0]])),
], ids=["from_dense", "from_entries", "csr"])
def test_whole_valued_float_counts_construct(build):
    assert build().to_dense().tolist() == [[0, 2], [1, 0]]


@pytest.mark.parametrize("build", [
    lambda: CitationMatrix.from_dense([[0, 2.0**63], [1, 0]]),
    lambda: CitationMatrix.from_dense(np.array([[0, 10**20], [1, 0]], dtype=object)),
    lambda: CitationMatrix.from_entries(2, [0], [1], np.array([2**63], dtype=np.uint64)),
], ids=["float", "object", "uint64"])
def test_a_single_count_past_int64_is_refused(build):
    with pytest.raises(ValueError, match="sum past the int64 maximum"):
        build()
