"""Citation count matrices."""

from __future__ import annotations

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


def _check_counts(counts: np.ndarray) -> None:
    """Raise ValueError unless every count is a finite whole number, nonnegative,
    and their total fits in int64. ``counts`` is checked as given, before any cast."""
    if counts.dtype.kind not in "biu":
        counts = np.asarray(counts, dtype=np.float64)
        bad = ~np.isfinite(counts) | (np.floor(counts) != counts)
        if bad.any():
            raise ValueError(f"citation counts must be whole numbers, got {counts[bad][0]}")
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

    ``counts`` is read-only: construction marks its arrays so, and a write
    into them raises ValueError. So the similarity state that
    :func:`~simpair.similarity.build_similarity_matrix` derives from them
    and keeps on the matrix holds for every later detect, selection and
    sweep on it; other counts make a new matrix.
    """

    counts: sparse.csr_array
    node_labels: list[str] | None = None

    def __post_init__(self):
        c = self.counts
        if c.shape[0] != c.shape[1]:
            raise ValueError(f"citation matrix must be square, got {c.shape}")
        _check_counts(c.data)
        for a in (c.data, c.indices, c.indptr):
            a.flags.writeable = False
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
        """Build from three equal-length integer columns: entry ``k`` is
        ``counts[k]`` citations from node ``src[k]`` to node ``dst[k]``.

        Duplicate (src, dst) pairs are summed.
        """
        counts = np.asarray(counts)
        _check_counts(counts)  # before the cast, and before duplicates are summed, which could wrap
        mat = sparse.coo_array(
            (counts.astype(np.int64, copy=False),
             (np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))),
            shape=(n_nodes, n_nodes),
        ).tocsr()
        mat.sum_duplicates()
        return cls(mat, node_labels)

    def to_dense(self) -> np.ndarray:
        return self.counts.toarray()
