"""Similarity computation against a from-scratch dense oracle."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
from scipy import sparse

from simpair import CitationMatrix, SimilarityMatrix, build_similarity_matrix


@dataclass(frozen=True)
class NormalizedRow:
    """One node's outgoing citation frequencies, as a sparse map.

    ``entries`` maps cited node -> fraction of this node's citations going
    there; fractions sum to 1 unless the raw row was all zero, in which
    case ``entries`` is empty and ``zero_row`` is set.
    """

    entries: dict[int, float] = field(default_factory=dict)
    zero_row: bool = False


def normalize_rows(m: CitationMatrix) -> list[NormalizedRow]:
    """Divide each row by its sum; all-zero rows come back empty and flagged."""
    csr = m.counts
    out = []
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for i in range(m.n_nodes):
        lo, hi = indptr[i], indptr[i + 1]
        row_sum = int(data[lo:hi].sum()) if hi > lo else 0
        if row_sum == 0:
            out.append(NormalizedRow(entries={}, zero_row=True))
            continue
        entries = {
            int(j): float(v) / row_sum
            for j, v in zip(indices[lo:hi], data[lo:hi])
            if v != 0
        }
        out.append(NormalizedRow(entries=entries))
    return out


def cosine_similarity(a: NormalizedRow, b: NormalizedRow) -> float:
    """Cosine of two normalized rows; 0 if either row is all zero."""
    if a.zero_row or b.zero_row:
        return 0.0
    if len(b.entries) < len(a.entries):
        a, b = b, a
    dot = math.fsum(v * b.entries[k] for k, v in a.entries.items() if k in b.entries)
    if dot == 0.0:
        return 0.0
    na = math.sqrt(math.fsum(v * v for v in a.entries.values()))
    nb = math.sqrt(math.fsum(v * v for v in b.entries.values()))
    return dot / (na * nb)


def similarity_matrix_naive(m: CitationMatrix) -> SimilarityMatrix:
    """Row-by-row reference path built on the scalar cosine.

    Same contract as :func:`build_similarity_matrix`; used to cross-check
    the vectorized path.
    """
    rows = normalize_rows(m)
    n = m.n_nodes
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s[i, j] = s[j, i] = cosine_similarity(rows[i], rows[j])
    return SimilarityMatrix(values=s)


def oracle_similarity(dense):
    """Independent reference: plain loops over a dense count grid."""
    dense = np.asarray(dense, dtype=float)
    n = dense.shape[0]
    rows = []
    for i in range(n):
        total = dense[i].sum()
        rows.append(dense[i] / total if total > 0 else np.zeros(n))
    s = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            num = sum(rows[i][k] * rows[j][k] for k in range(n))
            na = math.sqrt(sum(v * v for v in rows[i]))
            nb = math.sqrt(sum(v * v for v in rows[j]))
            s[i, j] = num / (na * nb) if na > 0 and nb > 0 else 0.0
    return s


def random_citations(rng, n, density=0.4, max_count=9):
    dense = rng.integers(0, max_count + 1, size=(n, n))
    dense[rng.random((n, n)) > density] = 0
    np.fill_diagonal(dense, rng.integers(0, 3, size=n))
    return dense


class TestNormalizeRows:
    def test_equal_split(self):
        m = CitationMatrix.from_dense([[0, 2, 2], [0, 0, 0], [1, 0, 0]])
        rows = normalize_rows(m)
        assert rows[0].entries == {1: 0.5, 2: 0.5}
        assert not rows[0].zero_row

    def test_zero_row_flagged(self):
        m = CitationMatrix.from_dense([[0, 2, 2], [0, 0, 0], [1, 0, 0]])
        rows = normalize_rows(m)
        assert rows[1].entries == {}
        assert rows[1].zero_row

    def test_quarter_split(self):
        m = CitationMatrix.from_dense([[0, 1, 3], [0, 0, 0], [0, 0, 0]])
        rows = normalize_rows(m)
        assert rows[0].entries == pytest.approx({1: 0.25, 2: 0.75})

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        m = CitationMatrix.from_dense(random_citations(rng, 12))
        for row in normalize_rows(m):
            if not row.zero_row:
                assert sum(row.entries.values()) == pytest.approx(1.0, abs=1e-12)


class TestCosineSimilarity:
    def test_identical_rows(self):
        a = NormalizedRow(entries={0: 0.5, 2: 0.5})
        assert cosine_similarity(a, a) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_support(self):
        a = NormalizedRow(entries={0: 1.0})
        b = NormalizedRow(entries={1: 1.0})
        assert cosine_similarity(a, b) == 0.0

    def test_half_overlap(self):
        a = NormalizedRow(entries={0: 0.5, 1: 0.5})
        b = NormalizedRow(entries={1: 0.5, 2: 0.5})
        assert cosine_similarity(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_zero_row_gives_zero(self):
        a = NormalizedRow(entries={}, zero_row=True)
        b = NormalizedRow(entries={0: 1.0})
        assert cosine_similarity(a, b) == 0.0
        assert cosine_similarity(a, a) == 0.0


class TestBuildSimilarityMatrix:
    def test_identical_rows_fully_similar(self):
        m = CitationMatrix.from_dense([[0, 0, 5], [0, 0, 3], [1, 1, 0]])
        s = build_similarity_matrix(m)
        assert s.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 33))
            dense = random_citations(rng, n)
            got = build_similarity_matrix(CitationMatrix.from_dense(dense)).values.toarray()
            want = oracle_similarity(dense)
            np.fill_diagonal(want, 0.0)
            assert np.abs(got - want).max() <= 1e-12

    def test_symmetry_is_bitwise(self):
        rng = np.random.default_rng(3)
        dense = random_citations(rng, 20)
        s = build_similarity_matrix(CitationMatrix.from_dense(dense)).values.toarray()
        assert np.array_equal(s, s.T)

    def test_range(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dense = random_citations(rng, 16)
            s = build_similarity_matrix(CitationMatrix.from_dense(dense)).values.toarray()
            assert s.min() >= 0.0
            assert s.max() <= 1.0 + 1e-12

    def test_row_scale_invariance(self):
        rng = np.random.default_rng(5)
        dense = random_citations(rng, 10)
        scaled = dense.copy()
        scaled[3] *= 7  # positive integer rescaling of one raw row
        s1 = build_similarity_matrix(CitationMatrix.from_dense(dense)).values.toarray()
        s2 = build_similarity_matrix(CitationMatrix.from_dense(scaled)).values.toarray()
        assert np.abs(s1 - s2).max() <= 1e-12

    def test_naive_path_agrees(self):
        rng = np.random.default_rng(17)
        dense = random_citations(rng, 8)
        m = CitationMatrix.from_dense(dense)
        fast = build_similarity_matrix(m).values.toarray()
        slow = similarity_matrix_naive(m).values.toarray()
        assert np.abs(fast - slow).max() <= 1e-12

    def test_zero_rows_isolated(self):
        m = CitationMatrix.from_dense([[0, 0, 0], [0, 0, 1], [0, 1, 0]])
        s = build_similarity_matrix(m).values.toarray()
        assert s[0].max() == 0.0
        assert s[:, 0].max() == 0.0


class TestStoredValues:
    """``SimilarityMatrix(values=...)`` takes only a square, finite, non-negative S."""

    def test_non_square_values_rejected(self):
        with pytest.raises(ValueError, match="square"):
            SimilarityMatrix(values=np.array([[0, .5, .9], [.5, 0, .1]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad):
        values = np.array([[0, .5, .2], [.5, 0, bad], [.2, bad, 0]])
        with pytest.raises(ValueError, match="finite"):
            SimilarityMatrix(values=values)
        with pytest.raises(ValueError, match="finite"):
            SimilarityMatrix(values=sparse.csr_array(values))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SimilarityMatrix(values=np.array([[0, -.5, .2], [-.5, 0, .1], [.2, .1, 0]]))
