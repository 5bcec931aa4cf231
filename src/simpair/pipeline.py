"""End-to-end detection: citations -> similarity -> pairs -> communities.

One level of the method is :func:`_level`: pairs grow cores, tides join
the cores into reals, and both partitions are summarised. ``detect``,
``detect_from_pairs`` and the sweeps all run that same pass.

Detection can be iterated: the communities found at one level become the
coarse nodes of the next (their citation blocks summed), and detection
runs again on the coarse matrix. ``levels=1`` is a single pass; higher
values run that many passes; ``levels=0`` iterates until the partition
stops changing, which is the natural stopping point when similarity
between the remaining components has dropped to zero.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .citations import CitationMatrix
from .communities import (
    CORE,
    REAL,
    DetectionResult,
    Partition,
    build_communities,
    extract_partition,
    renormalize,
)
from .metrics import partition_stats
from .selection import NO_PAIRS, Pairs, Strategy, select_pairs
from .similarity import build_similarity_matrix

FIXPOINT = 0


class PairRows:
    """A ranked pair list's three :data:`Pairs` columns, read-only as
    ``columns``, that also iterate as plain ``(selector, selected,
    similarity)`` tuples built only when read: 24 bytes a kept pair.

    It remains only because perfbench unpacks ``Detection.pairs`` by rows;
    it goes once that reads the columns (ROADMAP item 1(c)).
    """

    __slots__ = ("_columns",)

    def __init__(self, pairs: Pairs):
        self._columns = pairs

    @property
    def columns(self) -> Pairs:
        return self._columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return zip(*(col.tolist() for col in self._columns))


@dataclass(frozen=True)
class Detection:
    """Outcome of (possibly iterated) detection on one citation matrix.

    ``core`` and ``real`` are total partitions over the original nodes;
    for multi-level runs they compose the per-level assignments. ``result``
    and ``pairs`` are from the first level; ``level_stats`` summarizes every
    level that ran. ``pairs`` holds the first level's ranked pair columns,
    which ``pairs.tsv`` is written from.
    """

    core: Partition
    real: Partition
    result: DetectionResult
    pairs: PairRows
    level_stats: list[dict]
    provenance: dict


def _level(pairs: Pairs, n_nodes: int) -> tuple[DetectionResult, Partition, Partition, dict]:
    """One pass on a ranked pair list: the result, its core and real
    partitions, and its stats (level 1 over ``n_nodes`` coarse nodes)."""
    result = build_communities(pairs, n_nodes)
    stats = partition_stats(result)
    stats["level"] = 1
    stats["coarse_nodes"] = n_nodes
    return result, extract_partition(result, CORE), extract_partition(result, REAL), stats


def detect(matrix: CitationMatrix, strategy: Strategy, seed: int = 0,
           levels: int = 1) -> Detection:
    """Similarity, ``strategy``'s pairs at ``seed`` and one level of communities,
    repeated on the coarse-grained matrix ``levels`` times (0: to a fixed point)."""
    if levels < 0:
        raise ValueError("levels must be >= 1, or 0 to iterate to a fixed point")
    level_stats: list[dict] = []
    current = matrix
    for level in itertools.count(1):
        pairs = (select_pairs(build_similarity_matrix(current), strategy, seed)
                 if current.n_nodes >= 2 else NO_PAIRS)
        result, core_part, real_part, stats = _level(pairs, current.n_nodes)
        stats["level"] = level
        level_stats.append(stats)
        # core_map and real_map: original node -> current core / real label
        if level == 1:
            first_result, first_pairs = result, pairs
            core_map, real_map = core_part.labels, real_part.labels
        else:
            core_map = core_part.labels[real_map]
            real_map = real_part.labels[real_map]
        # stop after ``levels`` passes (0 matches none) or once nothing
        # merged, since further levels would then repeat verbatim
        if real_part.n_communities == current.n_nodes or level == levels:
            break
        current = renormalize(current, real_part)

    provenance = {
        "strategy": strategy.describe(),
        "seed": seed,
        "levels": "fixpoint" if levels == FIXPOINT else levels,
        "levels_run": level,
    }
    return Detection(
        core=Partition(labels=core_map, level=CORE),
        real=Partition(labels=real_map, level=REAL),
        result=first_result,
        pairs=PairRows(first_pairs),
        level_stats=level_stats,
        provenance=provenance,
    )


def detect_from_pairs(pairs: Pairs, n_nodes: int) -> Detection:
    """Run only the community-growth stage on an externally supplied pair list.

    The pair columns are ranked by decreasing similarity first, ties kept
    in the given order, so the order matters only among equal similarities;
    ``Detection.pairs`` holds the columns in that ranked order.
    """
    order = (-pairs[2]).argsort(kind="stable")
    pairs = tuple(col[order] for col in pairs)
    result, core, real, stats = _level(pairs, n_nodes)
    return Detection(
        core=core,
        real=real,
        result=result,
        pairs=PairRows(pairs),
        level_stats=[stats],
        provenance={"strategy": {"kind": "pairs"}, "seed": None},
    )
