"""Citation matrices: what construction accepts."""

import numpy as np
import pytest

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
