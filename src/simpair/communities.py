"""Community growth from a ranked pair list.

Pairs are consumed strictly in list order. A pair whose nodes are both new
founds a core community; a pair with one known node grows that node's core;
a pair inside one core does nothing; a pair bridging two cores is a tide.
Tides never change core membership - they merge cores at the coarser
"real" level, which ends up being the connected components of cores under
tides. Nodes that never appear in any pair stay unassigned and are treated
as singletons wherever a total partition is required.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .citations import CitationMatrix
from .selection import RankedPair

CORE = "core"
REAL = "real"


class UnionFind:
    """Disjoint sets over a growable range of integers."""

    def __init__(self, n: int = 0):
        self.parent = list(range(n))

    def make(self) -> int:
        self.parent.append(len(self.parent))
        return len(self.parent) - 1

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:  # path compression
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        # keep the smaller id as root so labels follow founding order
        if ra > rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


@dataclass(frozen=True)
class CoreCommunity:
    id: int
    members: tuple[int, ...]
    founding_pair: RankedPair


@dataclass(frozen=True)
class Tide:
    pair: RankedPair
    core_a: int
    core_b: int


@dataclass(frozen=True)
class RealCommunity:
    id: int
    core_ids: tuple[int, ...]
    members: tuple[int, ...]


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
    n_nodes: int
    cores: tuple[CoreCommunity, ...]
    reals: tuple[RealCommunity, ...]
    tides: tuple[Tide, ...]
    unassigned: tuple[int, ...]
    tide_merges: int
    provenance: dict = field(default_factory=dict)


def build_communities(pairs: list[RankedPair], n_nodes: int,
                      provenance: dict | None = None) -> DetectionResult:
    """Scan a sorted pair list and grow core and real communities.

    Each pair must join two different nodes in ``[0, n_nodes)``; anything
    else is a ``ValueError``.

    Every tide event is recorded, including repeats between cores that an
    earlier tide already connected; ``tide_merges`` counts only the events
    that actually joined two real components.
    """
    core_of = [-1] * n_nodes
    members: list[list[int]] = []
    founding: list[RankedPair] = []
    core_sets = UnionFind()
    tides: list[Tide] = []
    merges = 0

    for pair in pairs:
        a, b = pair.selector, pair.selected
        if not (0 <= a < n_nodes and 0 <= b < n_nodes):
            raise ValueError(f"pair {pair} references a node outside [0, {n_nodes})")
        if a == b:
            raise ValueError(f"pair {pair} pairs a node with itself")
        ca, cb = core_of[a], core_of[b]
        if ca < 0 and cb < 0:
            cid = core_sets.make()
            members.append([a, b])
            founding.append(pair)
            core_of[a] = core_of[b] = cid
        elif ca >= 0 and cb < 0:
            members[ca].append(b)
            core_of[b] = ca
        elif ca < 0 and cb >= 0:
            members[cb].append(a)
            core_of[a] = cb
        elif ca == cb:
            pass  # redundant pair inside one core
        else:
            tides.append(Tide(pair=pair, core_a=ca, core_b=cb))
            if core_sets.union(ca, cb):
                merges += 1

    cores = tuple(
        CoreCommunity(id=cid, members=tuple(m), founding_pair=founding[cid])
        for cid, m in enumerate(members)
    )

    real_label: dict[int, int] = {}
    grouped: list[list[int]] = []
    for cid in range(len(cores)):
        root = core_sets.find(cid)
        if root not in real_label:
            real_label[root] = len(grouped)
            grouped.append([])
        grouped[real_label[root]].append(cid)
    reals = tuple(
        RealCommunity(
            id=rid,
            core_ids=tuple(cids),
            members=tuple(v for cid in cids for v in cores[cid].members),
        )
        for rid, cids in enumerate(grouped)
    )

    unassigned = tuple(v for v in range(n_nodes) if core_of[v] < 0)
    return DetectionResult(
        n_nodes=n_nodes,
        cores=cores,
        reals=reals,
        tides=tuple(tides),
        unassigned=unassigned,
        tide_merges=merges,
        provenance=dict(provenance or {}),
    )


def extract_partition(result: DetectionResult, level: str) -> Partition:
    """Total partition at the core or real level.

    Unassigned nodes get fresh singleton labels after the community labels;
    labels are dense from 0.
    """
    if level not in (CORE, REAL):
        raise ValueError(f"level must be {CORE!r} or {REAL!r}")
    labels = np.empty(result.n_nodes, dtype=np.int64)
    if level == CORE:
        groups = [c.members for c in result.cores]
    else:
        groups = [r.members for r in result.reals]
    for lbl, group in enumerate(groups):
        labels[list(group)] = lbl
    nxt = len(groups)
    for v in result.unassigned:
        labels[v] = nxt
        nxt += 1
    return Partition(labels=labels, level=level)


def renormalize(m: CitationMatrix, p: Partition) -> CitationMatrix:
    """Collapse each community into one coarse node, summing citation blocks.

    Citations inside a community land on the coarse diagonal, so total
    citation mass is conserved and the coarse matrix can be fed straight
    back into similarity and detection.
    """
    if p.n_nodes != m.n_nodes:
        raise ValueError("partition does not cover the citation matrix")
    n, n_labels = m.n_nodes, p.n_communities
    indicator = sparse.csr_array(
        (np.ones(n, dtype=np.int64), (np.arange(n), p.labels)),
        shape=(n, n_labels),
    )
    coarse = (indicator.T @ m.counts @ indicator).tocsr()
    return CitationMatrix(counts=sparse.csr_array(coarse))
