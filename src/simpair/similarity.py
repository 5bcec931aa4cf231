"""Pairwise cosine similarity between citation patterns.

Each node's citation pattern is its row of the citation matrix divided by
the row sum; the similarity of two nodes is the cosine of the angle between
their patterns, so values live in [0, 1] regardless of citation volume.

Two nodes that cite no common target have similarity 0, so on real
citation data almost every entry is 0. The matrix is kept sparse (CSR):
memory is O(nnz), and selection reads it a dense block of rows at a time
through :meth:`SimilarityMatrix.block`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .citations import CitationMatrix


class SparseValues(sparse.csr_array):
    """A ``csr_array`` that also answers ``nbytes`` and ``np.count_nonzero``.

    Both are what code written for the dense matrix asked of ``values`` to
    size it; here they count the stored arrays and the nonzero entries.
    """

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return self.count_nonzero()
        return func._implementation(*args, **kwargs)


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric node-by-node similarity values, stored sparse.

    ``values`` is a CSR array with no diagonal entry: a node is not a
    candidate partner for itself. A dense array passed in is converted,
    with its diagonal dropped. Column indices within a row need not be
    sorted.
    """

    values: SparseValues

    def __post_init__(self):
        values = self.values
        if not sparse.issparse(values):
            values = np.array(values, dtype=np.float64)
            np.fill_diagonal(values, 0.0)
        csr = sparse.csr_array(values)
        object.__setattr__(self, "values", SparseValues(
            (csr.data, csr.indices, csr.indptr), shape=csr.shape))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    def block(self, lo: int, hi: int) -> np.ndarray:
        """Rows ``lo:hi`` as a new dense (hi - lo, N) array."""
        v = self.values
        ip = v.indptr
        start, stop = ip[lo], ip[hi]
        out = np.zeros((hi - lo, v.shape[1]))
        rows = np.repeat(np.arange(hi - lo), ip[lo + 1:hi + 1] - ip[lo:hi])
        out[rows, v.indices[start:stop]] = v.data[start:stop]
        return out


def build_similarity_matrix(m: CitationMatrix) -> SimilarityMatrix:
    """All-pairs cosine similarity of row-normalized citation counts.

    The result is the sparse product ``unit @ unit.T`` of the unit-length
    patterns, with the diagonal dropped; no N x N array is formed. It is
    bitwise deterministic and bitwise symmetric without mirroring: with
    sorted pattern rows, scipy sums entry (i, j) and entry (j, i) over the
    same common targets in the same order.
    """
    counts = m.counts.astype(np.float64)
    row_sums = np.asarray(counts.sum(axis=1)).ravel()
    inv = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    frac = sparse.csr_array(counts.multiply(inv[:, None]))

    sq = np.asarray(frac.multiply(frac).sum(axis=1)).ravel()
    norms = np.sqrt(sq)
    inv_norm = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    unit = sparse.csr_array(frac.multiply(inv_norm[:, None]))
    unit.sort_indices()

    s = unit @ unit.T
    rows = np.repeat(np.arange(s.shape[0]), np.diff(s.indptr))
    s.data[s.indices == rows] = 0.0
    s.eliminate_zeros()
    return SimilarityMatrix(values=s)
