"""Output checks, independent of the package under test.

Each check takes plain outputs (arrays, files, result objects) and returns
True when they are right. None of them calls into ``simpair``: the cosine
oracle is built from the benchmark's own draw of the input edges.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

TOLERANCE = 1e-12


def same_partition(labels, truth) -> bool:
    """True when the two labelings group the nodes identically (NMI exactly 1)."""
    a, b = np.asarray(labels), np.asarray(truth)
    if a.shape != b.shape or a.ndim != 1:
        return False
    pairs = set(zip(a.tolist(), b.tolist()))
    return len(pairs) == len(set(a.tolist())) == len(set(b.tolist()))


class CosineOracle:
    """Cosine similarity of row-normalized counts, kept sparse."""

    def __init__(self, src, dst, count, n_nodes: int):
        counts = sparse.csr_array((np.asarray(count, dtype=np.float64),
                                   (np.asarray(src), np.asarray(dst))),
                                  shape=(n_nodes, n_nodes))
        row_sums = np.asarray(counts.sum(axis=1)).ravel()
        scale = np.zeros(n_nodes)
        for i in range(n_nodes):
            lo, hi = counts.indptr[i], counts.indptr[i + 1]
            if row_sums[i] > 0:
                frac = counts.data[lo:hi] / row_sums[i]
                scale[i] = 1.0 / (row_sums[i] * math.sqrt(math.fsum(frac * frac)))
        unit = sparse.csr_array(sparse.diags_array(scale) @ counts)
        sim = sparse.csr_array(unit @ unit.T).tolil()
        sim.setdiag(0.0)
        self.sim = sparse.csr_array(sim)
        self.row_max = np.asarray(self.sim.max(axis=1).todense()).ravel()

    def check_max_pairs(self, selector, selected, similarity) -> bool:
        """Every max pair is at its selector's row maximum, and no selector is missing."""
        sel = np.asarray(selector, dtype=np.int64)
        dst = np.asarray(selected, dtype=np.int64)
        sim = np.asarray(similarity, dtype=np.float64)
        n = len(self.row_max)
        if not (sel.shape == dst.shape == sim.shape) or len(sel) == 0:
            return False
        if sel.min() < 0 or dst.min() < 0 or max(sel.max(), dst.max()) >= n or np.any(sel == dst):
            return False
        oracle = np.asarray(self.sim[sel, dst]).ravel()
        if not (np.all(np.abs(sim - oracle) <= TOLERANCE)
                and np.all(np.abs(sim - self.row_max[sel]) <= TOLERANCE)):
            return False
        return set(sel.tolist()) == set(np.flatnonzero(self.row_max > 0).tolist())


def read_partition_tsv(path, n_nodes: int):
    """Labels of a ``node<TAB>label`` file covering nodes 0..n-1, or None if malformed."""
    labels = np.full(n_nodes, -1, dtype=np.int64)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if len(lines) != n_nodes:
            return None
        for line in lines:
            node, label = (int(tok) for tok in line.split("\t"))
            if not 0 <= node < n_nodes or labels[node] >= 0 or label < 0:
                return None
            labels[node] = label
    except (OSError, ValueError):
        return None
    return labels


def pairs_tsv_sorted(path) -> bool:
    """A pairs file of ``selector<TAB>selected<TAB>similarity`` in non-increasing similarity."""
    try:
        with open(path, encoding="utf-8") as fh:
            sims = [float(line.split("\t")[2]) for line in fh.read().splitlines()]
    except (OSError, ValueError, IndexError):
        return False
    return bool(sims) and all(a >= b for a, b in zip(sims, sims[1:]))


def sweep_rows_ok(result, grid, kinds, exact_grid_value=None) -> bool:
    """Rows cover ``grid`` x ``kinds`` in order with NMI in [0, 1].

    Rows at ``exact_grid_value`` (p=0 or d=0, where the strategy reduces to
    plain max against the max reference) must score NMI exactly 1.0.
    """
    expected = [(g, k) for g in grid for k in kinds]
    rows = list(result.rows)
    if [(row.grid_value, row.kind) for row in rows] != expected:
        return False
    for row in rows:
        nmis = (row.mean["nmi_core"], row.mean["nmi_real"])
        if not all(0.0 <= v <= 1.0 for v in nmis):
            return False
        if row.grid_value == exact_grid_value and nmis != (1.0, 1.0):
            return False
    return True
