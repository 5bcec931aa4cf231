"""End-to-end detection: citations -> similarity -> pairs -> communities.

One level of the method is :func:`_level`: pairs grow cores, tides join
the cores into reals, and both partitions are summarised in a
:class:`Level`. ``detect`` and ``detect_from_pairs`` run that pass, and a
:class:`Detection` is the tuple of its levels. Sweeps score many runs'
levels in one scan that gives the same counts and partitions (see
:mod:`~simpair.sweeps`).

Detection can be iterated: the real communities found at one level become
the coarse nodes of the next (their citation blocks summed), and detection
runs again on the coarse matrix; each level's partitions are read through
the reals below it, so every level covers the original nodes. ``levels=1``
is a single pass; higher values run that many passes; ``levels=0``
iterates until the partition stops changing, which is the natural
stopping point when similarity between the remaining components has
dropped to zero.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .selection import NO_PAIRS, Pairs, Strategy, _integer, select_pairs
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
class Level:
    """One pass of detection: its result and ranked pair columns on that
    pass's (coarse) nodes, its core and real partitions over the original
    nodes, and its :func:`~simpair.metrics.partition_stats`."""

    result: DetectionResult
    pairs: Pairs
    core: Partition
    real: Partition
    stats: dict

    def under(self, below: Partition) -> Level:
        """This level with its partitions read through ``below``, which maps
        each original node to one of this level's nodes."""
        return replace(self, core=Partition(self.core.labels[below.labels], CORE),
                       real=Partition(self.real.labels[below.labels], REAL))


@dataclass(frozen=True)
class Detection:
    """Outcome of (possibly iterated) detection on one citation matrix:
    ``levels``, one :class:`Level` per pass, and its ``provenance``.

    ``core`` and ``real`` are the last level's partitions over the original
    nodes. ``result`` and ``pairs`` are the first level's; ``pairs`` holds its
    ranked pair columns, which ``pairs.tsv`` is written from. ``level_stats``
    is each level's stats with its number and coarse node count.
    """

    levels: tuple[Level, ...]
    provenance: dict

    core = property(lambda self: self.levels[-1].core)
    real = property(lambda self: self.levels[-1].real)
    result = property(lambda self: self.levels[0].result)
    pairs = property(lambda self: PairRows(self.levels[0].pairs))

    @property
    def level_stats(self) -> list[dict]:
        return [{**level.stats, "level": number, "coarse_nodes": level.result.n_nodes}
                for number, level in enumerate(self.levels, 1)]


def _level(pairs: Pairs, n_nodes: int) -> Level:
    """One pass on a ranked pair list over ``n_nodes`` nodes."""
    result = build_communities(pairs, n_nodes)
    return Level(result, pairs, extract_partition(result, CORE),
                 extract_partition(result, REAL), partition_stats(result))


def detect(matrix: CitationMatrix, strategy: Strategy, seed: int = 0,
           levels: int = 1) -> Detection:
    """Similarity, ``strategy``'s pairs at ``seed`` and one level of communities,
    repeated on the coarse-grained matrix ``levels`` times (0: to a fixed point).

    The first level reuses the similarity state ``matrix`` keeps from any
    earlier call (see :func:`~simpair.similarity.build_similarity_matrix`);
    each coarse matrix is new and builds its own."""
    seed, levels = _integer(seed, "seed"), _integer(levels, "levels")
    if levels < 0:
        raise ValueError("levels must be >= 1, or 0 to iterate to a fixed point")
    found: list[Level] = []
    current = matrix
    while True:
        pairs = (select_pairs(build_similarity_matrix(current), strategy, seed)
                 if current.n_nodes >= 2 else NO_PAIRS)
        own = _level(pairs, current.n_nodes)
        found.append(own.under(found[-1].real) if found else own)
        # stop after ``levels`` passes (0 matches none) or once nothing
        # merged, since further levels would then repeat verbatim
        if own.real.n_communities == current.n_nodes or len(found) == levels:
            break
        current = renormalize(current, own.real)

    provenance = {
        "strategy": strategy.describe(),
        "seed": seed,
        "levels": "fixpoint" if levels == FIXPOINT else levels,
        "levels_run": len(found),
    }
    return Detection(levels=tuple(found), provenance=provenance)


def detect_from_pairs(pairs: Pairs, n_nodes: int) -> Detection:
    """Run only the community-growth stage on an externally supplied pair list.

    The pair columns are ranked by decreasing similarity first, ties kept
    in the given order, so the order matters only among equal similarities;
    ``Detection.pairs`` holds the columns in that ranked order.
    """
    order = (-pairs[2]).argsort(kind="stable")
    return Detection(levels=(_level(tuple(col[order] for col in pairs), n_nodes),),
                     provenance={"strategy": {"kind": "pairs"}, "seed": None})
