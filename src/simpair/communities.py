"""Community growth from a ranked pair list.

Pairs (:data:`~simpair.selection.Pairs` columns) are consumed in order. A pair
whose nodes are both new founds a core community; a pair with one known node
grows that node's core; a pair inside one core does nothing; a pair bridging
two cores is a tide. Tides never change core membership - they merge cores at
the coarser "real" level, which ends up being the connected components of
cores under tides. Nodes that never appear in any pair stay unassigned and are
treated as singletons wherever a total partition is required.

A level is arrays (:class:`DetectionResult`): ``core`` maps each node to
its core (-1 when unassigned), ``real`` maps each core to its real,
``members`` holds the placed nodes grouped by core, and ``tides`` has one
``(selector, selected, core_a, core_b)`` row per tide event. Cores are
numbered in founding order and reals by their smallest core. Members are
ordered by core, then by the pair that placed them, then by position in
that pair, so a core starts with its founding pair.

The scan has an exact array form, because the first pair that names a node
decides where it goes: that pair founds a core if it is also its partner's
first, and otherwise the node follows its partner, who was placed earlier.
Following partners back (pointer doubling) reaches a founder. A pair whose
nodes were both placed earlier, in different cores, is a tide.

That form also scans many runs at once (``_run_levels``, which sweeps
score with): their pair lists laid side by side, each run on node ids of
its own, are one scan whose cores and reals split back into the runs'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .citations import CitationMatrix
from .selection import Pairs

CORE = "core"
REAL = "real"


@dataclass(frozen=True)
class Partition:
    """Total node -> dense community label map at one level."""

    labels: np.ndarray
    level: str

    @property
    def n_nodes(self) -> int:
        return len(self.labels)

    @property
    def n_communities(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


@dataclass(frozen=True)
class DetectionResult:
    """One level of detection; see the module docstring for the arrays."""

    n_nodes: int
    core: np.ndarray
    real: np.ndarray
    members: np.ndarray
    tides: np.ndarray

    @property
    def unassigned(self) -> np.ndarray:
        """The nodes no pair names, in increasing order."""
        return np.flatnonzero(self.core < 0)

    @property
    def tide_merges(self) -> int:
        """The tide events that joined two real components: cores minus reals."""
        return len(self.real) - int(self.real.max(initial=-1)) - 1

    def owners(self, level: str) -> np.ndarray:
        """The core (or real) id of each node of ``members``."""
        _check_level(level)
        owner = self.core[self.members]
        return owner if level == CORE else self.real[owner]

    def member_lists(self, level: str) -> list[list[int]]:
        """The members of each core (or real), by id; a real lists its
        cores' members in core order."""
        return grouped(self.owners(level), self.members)


def grouped(labels: np.ndarray, nodes: np.ndarray) -> list[list[int]]:
    """``nodes`` split by their dense ``labels``, in label order, each group
    keeping the order of ``nodes``."""
    if not len(labels):
        return []
    flat = nodes[np.argsort(labels, kind="stable")].tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    return [flat[start:end] for start, end in zip([0, *ends], ends)]


def build_communities(pairs: Pairs, n_nodes: int) -> DetectionResult:
    """Scan a ranked pair list and grow core and real communities.

    Each pair of the ``pairs`` columns must join two different nodes in
    ``[0, n_nodes)``; anything else is a ``ValueError`` naming the pair.

    Every tide event is recorded, including repeats between cores that an
    earlier tide already connected; ``tide_merges`` counts only the events
    that actually joined two real components.
    """
    u, v = _ends(pairs, n_nodes)
    first, core, found, tide = _grow(u, v, n_nodes)
    placed = np.flatnonzero(core >= 0)
    core_a, core_b = core[u[tide]], core[v[tide]]
    return DetectionResult(
        n_nodes=n_nodes,
        core=core,
        real=_components(len(found), core_a, core_b),
        members=placed[np.lexsort((first[placed], core[placed]))],
        tides=np.column_stack([u[tide], v[tide], core_a, core_b]),
    )


def _ends(pairs: Pairs, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The selector and selected columns, checked as :func:`build_communities` says."""
    u, v = np.asarray(pairs[0]), np.asarray(pairs[1])
    outside = (u < 0) | (u >= n_nodes) | (v < 0) | (v >= n_nodes)
    bad = np.flatnonzero(outside | (u == v))
    if len(bad):
        pair = tuple(col[bad[0]].item() for col in pairs)
        if outside[bad[0]]:
            raise ValueError(f"pair {pair} references a node outside [0, {n_nodes})")
        raise ValueError(f"pair {pair} pairs a node with itself")
    return u, v


def _grow(u: np.ndarray, v: np.ndarray, n_nodes: int) -> tuple[np.ndarray, ...]:
    """The array form of the scan over the pairs (u, v): where each node is
    first named, each node's core (-1 when unassigned), and the indices of
    the founding and of the tide pairs.

    Each step takes the two columns apart, and pairs are picked by index:
    on an (n, 2) array numpy's ``all(axis=1)`` runs some 20 times slower
    than ``&`` of the two columns, and a pick by boolean mask about twice as
    slow as one by the mask's ``flatnonzero``.
    """
    pair = np.arange(len(u))
    # first[x]: where x is first named, as 2 * pair index + position in the pair
    first = np.full(n_nodes, 2 * len(u), dtype=np.int64)
    np.minimum.at(first, u, 2 * pair)
    np.minimum.at(first, v, 2 * pair + 1)
    fresh_u, fresh_v = first[u] >> 1 == pair, first[v] >> 1 == pair
    found = np.flatnonzero(fresh_u & fresh_v)

    founder_core = np.full(n_nodes, -1, dtype=np.int64)
    founder_core[u[found]] = founder_core[v[found]] = np.arange(len(found))
    # a joining node points at its partner; doubling the pointers ends on a founder
    ptr = np.arange(n_nodes)
    joins = np.flatnonzero(fresh_u ^ fresh_v)
    u_new, u_join, v_join = fresh_u[joins], u[joins], v[joins]
    ptr[np.where(u_new, u_join, v_join)] = np.where(u_new, v_join, u_join)
    while not np.array_equal(ptr, nxt := ptr[ptr]):
        ptr = nxt
    core = founder_core[ptr]
    tide = np.flatnonzero(~(fresh_u | fresh_v) & (core[u] != core[v]))
    return first, core, found, tide


def _run_levels(runs: list[Pairs], n_nodes: int) -> tuple[np.ndarray, ...]:
    """Many runs' levels from one scan over their pair lists laid side by side.

    Run r's nodes take the ids from ``r * n_nodes``, so no community crosses
    runs and each run keeps its pair, founding and tide order. Returns each
    run's core, real and tide counts (reals include unassigned nodes, as in
    :func:`~simpair.metrics.partition_stats`) and its core and real labels,
    one row per run, as :func:`extract_partition` labels them. No
    ``members`` order is built.
    """
    n_runs = len(runs)
    run = np.repeat(np.arange(n_runs), [len(pairs[0]) for pairs in runs])
    offset = run * n_nodes
    u, v = _ends(tuple(np.concatenate(col) for col in zip(*runs)), n_nodes)
    u, v = u + offset, v + offset
    _, core, found, tide = _grow(u, v, n_runs * n_nodes)
    # cores are numbered run after run, and reals by their smallest core
    core_run = run[found]
    real = _components(len(core_run), core[u[tide]], core[v[tide]])
    real_run = np.empty(real.max(initial=-1) + 1, np.int64)
    real_run[real] = core_run
    n_cores = np.bincount(core_run, minlength=n_runs)
    n_reals = np.bincount(real_run, minlength=n_runs)
    # each run's own core and real ids, then -1 for a node no pair names
    to_core = np.append(np.arange(len(core_run)) - (np.cumsum(n_cores) - n_cores)[core_run], -1)
    to_real = np.append(real - (np.cumsum(n_reals) - n_reals)[core_run], -1)
    core = core.reshape(n_runs, n_nodes)
    loose = np.count_nonzero(core < 0, axis=1)
    return (n_cores, n_reals + loose, np.bincount(run[tide], minlength=n_runs),
            _labels(to_core[core]), _labels(to_real[core]))


def _components(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The component of each of ``n`` nodes under the edges (u, v), numbered
    in the order of each component's smallest node.

    Min-label propagation: every round hooks each edge's larger root onto
    the smaller one, then compresses the pointers until each names a root.
    """
    root = np.arange(n)
    while not np.array_equal(ru := root[u], rv := root[v]):
        low = np.minimum(ru, rv)
        np.minimum.at(root, ru, low)
        np.minimum.at(root, rv, low)
        while not np.array_equal(root, nxt := root[root]):
            root = nxt
    return (np.cumsum(root == np.arange(n)) - 1)[root]


def extract_partition(result: DetectionResult, level: str) -> Partition:
    """Total partition at the core or real level.

    Unassigned nodes get fresh singleton labels after the community labels;
    labels are dense from 0.
    """
    _check_level(level)
    owner = result.core if level == CORE else np.append(result.real, -1)[result.core]
    return Partition(labels=_labels(owner[None])[0], level=level)


def _labels(owner: np.ndarray) -> np.ndarray:
    """:func:`extract_partition`'s labels for each row of ``owner``, which
    holds each node's community, dense from 0, or -1 when it is unassigned:
    unassigned nodes take the labels after the row's communities, in node
    order."""
    loose = owner < 0
    return np.where(loose, np.cumsum(loose, axis=1) + owner.max(axis=1, initial=-1)[:, None],
                    owner)


def _check_level(level: str) -> None:
    if level not in (CORE, REAL):
        raise ValueError(f"level must be {CORE!r} or {REAL!r}")


def renormalize(m: CitationMatrix, p: Partition) -> CitationMatrix:
    """Collapse each community into one coarse node, summing citation blocks.

    Citations inside a community land on the coarse diagonal, so total
    citation mass is conserved and the coarse matrix can be fed straight
    back into similarity and detection. The coarse counts are one product:
    ``members`` (community x node) times the counts with each column
    relabelled to its node's community, with exact int64 sums and sorted
    rows. A label no node carries is an empty coarse node. Index arrays are
    int32 when N and the stored counts fit, so the relabelled columns take
    half the memory of int64 ones (the caller's level may still hold its
    similarity state, see :func:`~simpair.similarity.build_similarity_matrix`).
    """
    if p.n_nodes != m.n_nodes:
        raise ValueError("partition does not cover the citation matrix")
    n, n_labels = m.n_nodes, p.n_communities
    c = m.counts
    index = np.int32 if max(n, c.nnz) <= np.iinfo(np.int32).max else np.int64
    starts = np.zeros(n_labels + 1, dtype=index)
    np.cumsum(np.bincount(p.labels, minlength=n_labels), out=starts[1:])
    members = sparse.csr_array(
        (np.ones(n, dtype=np.int64), np.argsort(p.labels, kind="stable").astype(index), starts),
        shape=(n_labels, n))
    relabelled = sparse.csr_array((c.data, p.labels.astype(index)[c.indices],
                                   c.indptr.astype(index)), shape=(n, n_labels))
    coarse = members @ relabelled
    coarse.sort_indices()
    return CitationMatrix(counts=coarse)
