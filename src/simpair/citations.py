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
    """Raise ValueError unless every count is nonnegative and their total fits in int64."""
    if len(counts) and counts.min() < 0:
        raise ValueError("citation counts must be nonnegative")
    if _first_past_int64(counts) is not None:
        raise ValueError(f"citation counts sum past the int64 maximum {_INT64_MAX}")


@dataclass(frozen=True)
class CitationMatrix:
    """Sparse nonnegative integer citation counts between nodes.

    Entry (i, j) is how often node i cites node j. Rows may be all zero
    (a node that cites nothing); those are kept, not dropped. The counts
    must sum within int64.

    ``counts`` is never modified in place, by this package or by its
    callers: :func:`~simpair.similarity.build_similarity_matrix` keeps the
    similarity state it derives from them on the matrix, for every later
    detect, selection and sweep on it.
    """

    counts: sparse.csr_array
    node_labels: list[str] | None = None

    def __post_init__(self):
        c = self.counts
        if c.shape[0] != c.shape[1]:
            raise ValueError(f"citation matrix must be square, got {c.shape}")
        _check_counts(c.data)
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
        return cls(sparse.csr_array(arr.astype(np.int64)), node_labels)

    @classmethod
    def from_entries(cls, n_nodes: int, src, dst, counts, node_labels=None) -> "CitationMatrix":
        """Build from three equal-length integer columns: entry ``k`` is
        ``counts[k]`` citations from node ``src[k]`` to node ``dst[k]``.

        Duplicate (src, dst) pairs are summed.
        """
        counts = np.asarray(counts, dtype=np.int64)
        _check_counts(counts)  # before duplicates are summed, which could wrap
        mat = sparse.coo_array(
            (counts,
             (np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))),
            shape=(n_nodes, n_nodes),
        ).tocsr()
        mat.sum_duplicates()
        return cls(mat, node_labels)

    def to_dense(self) -> np.ndarray:
        return self.counts.toarray()
