"""Pairwise cosine similarity between citation patterns.

Each node's citation pattern is its row of the citation matrix divided by
the row sum; the similarity of two nodes is the cosine of the angle between
their patterns, so values live in [0, 1] regardless of citation volume.

Two nodes that cite no common target have similarity 0, so on real
citation data almost every entry is 0. The matrix is kept sparse (CSR):
memory is O(nnz), and selection reads it a block of rows at a time
through :meth:`SimilarityMatrix.block`, over only the columns those rows
store.
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

    def block(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``lo:hi`` over the columns they store, as ``(cols, vals)``.

        ``cols`` is the sorted set of columns stored by any of the rows and
        ``vals`` a new (hi - lo, len(cols)) array whose column k is column
        ``cols[k]`` of the rows. Every column left out is zero in all of
        them. When every column is stored, ``cols`` is ``arange(N)``.
        """
        v = self.values
        ip = v.indptr
        start, stop = ip[lo], ip[hi]
        idx = v.indices[start:stop]
        present = np.zeros(v.shape[1], dtype=bool)
        present[idx] = True
        if np.count_nonzero(present) == len(present):
            cols = np.arange(len(present))
        else:
            cols = np.flatnonzero(present)
            # positions as a running count; sorting idx (np.unique) is
            # slower on near-dense blocks
            idx = (np.cumsum(present) - 1)[idx]
        out = np.zeros((hi - lo, len(cols)))
        # flat offsets: one 1-d scatter is faster than a (rows, cols) one
        row_at = np.repeat(np.arange(hi - lo) * len(cols), ip[lo + 1:hi + 1] - ip[lo:hi])
        out.ravel()[row_at + idx] = v.data[start:stop]
        return cols, out


def _row_sums(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of CSR ``data``, added as scipy's ``sum(axis=1)`` adds them.

    An empty row sums to 0 (``reduceat`` alone would give it the next
    row's first entry).
    """
    out = np.zeros(len(indptr) - 1)
    nonempty = np.flatnonzero(np.diff(indptr))
    out[nonempty] = np.add.reduceat(data, indptr[nonempty])
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
    counts.sum_duplicates()  # sorted rows, one entry per column
    ip = counts.indptr
    rows = np.repeat(np.arange(counts.shape[0]), np.diff(ip))
    row_sums = _row_sums(counts.data, ip)
    inv = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    frac = counts.data * inv[rows]

    norms = np.sqrt(_row_sums(frac * frac, ip))
    inv_norm = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    unit = sparse.csr_array((frac * inv_norm[rows], counts.indices, ip), shape=counts.shape)

    s = unit @ unit.T
    s.data[s.indices == np.repeat(np.arange(s.shape[0]), np.diff(s.indptr))] = 0.0
    s.eliminate_zeros()
    return SimilarityMatrix(values=s)
