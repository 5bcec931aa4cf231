"""Citation count matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse


@dataclass(frozen=True)
class CitationMatrix:
    """Sparse nonnegative integer citation counts between nodes.

    Entry (i, j) is how often node i cites node j. Rows may be all zero
    (a node that cites nothing); those are kept, not dropped.
    """

    counts: sparse.csr_array
    node_labels: list[str] | None = None

    def __post_init__(self):
        c = self.counts
        if c.shape[0] != c.shape[1]:
            raise ValueError(f"citation matrix must be square, got {c.shape}")
        if c.nnz and c.data.min() < 0:
            raise ValueError("citation counts must be nonnegative")
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
        mat = sparse.coo_array(
            (np.asarray(counts, dtype=np.int64),
             (np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64))),
            shape=(n_nodes, n_nodes),
        ).tocsr()
        mat.sum_duplicates()
        return cls(mat, node_labels)

    def to_dense(self) -> np.ndarray:
        return self.counts.toarray()
