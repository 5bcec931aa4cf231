"""Citation count matrices."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy import sparse


_INT64_MAX = int(np.iinfo(np.int64).max)


def _first_past_int64(counts: np.ndarray) -> int | None:
    """The index of the first running total of ``counts`` (nonnegative) that
    passes int64, or None: every sum detection forms, a coarse entry or a
    community's diagonal, is part of their total."""
    if not len(counts) or int(counts.max()) * len(counts) <= _INT64_MAX:
        return None  # not even the sum of every count can overflow
    # each partial total up to the first one past int64 is exact in uint64
    over = np.flatnonzero(np.cumsum(counts, dtype=np.uint64) > np.uint64(_INT64_MAX))
    return int(over[0]) if len(over) else None


def _check_whole(values: np.ndarray, what: str) -> None:
    """Raise ValueError naming the first of ``values`` that is not a finite
    whole number. Integer dtypes pass unread; any other value that is not a
    real number (a string, say) is named before anything is converted."""
    if values.dtype.kind in "biu":
        return
    if values.dtype.kind != "f":
        odd = [v for v in values.ravel().tolist() if not isinstance(v, numbers.Real)]
        if odd:
            raise ValueError(f"{what} must be whole numbers, got {odd[0]!r}")
        values = np.asarray(values, dtype=np.float64)
    bad = ~np.isfinite(values) | (np.floor(values) != values)
    if bad.any():
        raise ValueError(f"{what} must be whole numbers, got {values[bad][0]}")


def _check_counts(counts: np.ndarray) -> None:
    """Raise ValueError unless every count is a finite whole number, nonnegative,
    and their total fits in int64. ``counts`` is checked as given, before any cast."""
    _check_whole(counts, "citation counts")
    if len(counts) and counts.min() < 0:
        raise ValueError("citation counts must be nonnegative")
    past = len(counts) and int(counts.max()) > _INT64_MAX  # so the cast below cannot wrap
    if past or _first_past_int64(counts.astype(np.int64, copy=False)) is not None:
        raise ValueError(f"citation counts sum past the int64 maximum {_INT64_MAX}")


@dataclass(frozen=True)
class CitationMatrix:
    """Sparse nonnegative integer citation counts between nodes.

    Entry (i, j) is how often node i cites node j. Rows may be all zero
    (a node that cites nothing); those are kept, not dropped. Every count is
    a whole number, and the counts must sum within int64.

    ``counts`` may be any scipy sparse array or matrix (a dense one goes
    through :meth:`from_dense`). It is checked as given and kept as the read-only
    canonical CSR every stage reads: int64 data, sorted indices, duplicates
    summed, no stored zero, int32 indices when N and nnz fit; it is copied only
    when not already so. A write into it raises ValueError, so the similarity
    state that :func:`~simpair.similarity.build_similarity_matrix` derives
    from it and keeps on the matrix holds for every later detect, selection
    and sweep on it; other counts make a new matrix.
    """

    counts: sparse.csr_array
    node_labels: list[str] | None = None

    def __post_init__(self):
        c = self.counts
        if not sparse.issparse(c):
            raise TypeError(f"counts must be sparse, not {type(c).__name__}: use from_dense")
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"citation matrix must be square, got {c.shape}")
        c = c if c.format == "csr" else c.tocoo(copy=False)
        _check_counts(c.data)  # as given: before the cast, and before duplicates are summed
        if not (c.format == "csr" and c.dtype == np.int64
                and c.has_canonical_format and c.data.all()):
            c = c.tocoo(copy=False).astype(np.int64, copy=False).tocsr()  # sums in new arrays
            c.eliminate_zeros()
        index = np.int32 if max(c.shape[0], c.nnz) <= np.iinfo(np.int32).max else np.int64
        c = sparse.csr_array((c.data, c.indices.astype(index, copy=False),
                              c.indptr.astype(index, copy=False)), shape=c.shape)
        for a in (c.data, c.indices, c.indptr):
            a.flags.writeable = False
        object.__setattr__(self, "counts", c)  # frozen
        if self.node_labels is not None and len(self.node_labels) != c.shape[0]:
            raise ValueError("node_labels length does not match matrix size")

    @property
    def n_nodes(self) -> int:
        return self.counts.shape[0]

    @property
    def total_citations(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_dense(cls, dense, node_labels=None) -> "CitationMatrix":
        arr = np.asarray(dense)
        _check_counts(arr.ravel())  # before the cast, which would truncate
        return cls(sparse.csr_array(arr.astype(np.int64)), node_labels)

    @classmethod
    def from_entries(cls, n_nodes: int, src, dst, counts, node_labels=None) -> "CitationMatrix":
        """Build from three equal-length columns of whole numbers: entry ``k``
        is ``counts[k]`` citations from node ``src[k]`` to node ``dst[k]``.

        Duplicate (src, dst) pairs are summed.
        """
        src, dst, counts = np.asarray(src), np.asarray(dst), np.asarray(counts)
        _check_whole(src, "node ids")  # scipy's cast would truncate them
        _check_whole(dst, "node ids")
        if counts.dtype.kind not in "biuf":  # scipy would refuse it naming no count
            _check_counts(counts)
            counts = counts.astype(np.int64)  # exact: whole and within int64
        return cls(sparse.coo_array((counts, (src, dst)), shape=(n_nodes, n_nodes)),
                   node_labels)

    def to_dense(self) -> np.ndarray:
        return self.counts.toarray()
