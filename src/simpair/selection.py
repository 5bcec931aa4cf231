"""Partner selection: one ranked pair list per strategy.

Every strategy works on the similarity matrix a block of rows at a time,
emits directed (selector, selected, similarity) triples, then sorts them
by decreasing similarity. Strategies:

* ``max``      - each node pairs with its highest-similarity partner(s);
                 exact ties all get emitted.
* ``psim``     - each node samples one partner with probability
                 proportional to similarity (optionally restricted to the
                 top-n most similar candidates).
* ``p``        - each node samples one partner uniformly.
* ``max`` + a deletion mask - max over the surviving entries only.
* mixed       - per node, a seeded coin picks between max and a random
                 strategy; the boundary probabilities reproduce the pure
                 strategies byte for byte.

Random draws come from one stream per (seed, purpose); node i reads
element i (see :mod:`simpair.rng`). Row blocks of ``BLOCK_ROWS`` bound
every temporary to a block of the N x N matrix.

Nodes with no positive candidate mass (all-zero or fully deleted rows)
emit nothing and surface downstream as singleton communities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import GATE_STREAM, MASK_STREAM, PARTNER_STREAM, stream
from .similarity import SimilarityMatrix

BLOCK_ROWS = 128


class RankedPair(NamedTuple):
    selector: int
    selected: int
    similarity: float


RANDOM_KINDS = ("psim", "p")


@dataclass(frozen=True)
class Strategy:
    """Tagged selection strategy with its parameters.

    kind: "max" | "psim" | "p" | "mixed"
    topn:      candidate cutoff for psim (None means all candidates)
    deletion:  per-row fraction of similarities to hide from max
    mix_p:     probability of the random branch in a mixed strategy
    mix_kind:  which random strategy the mixed coin switches to
    """

    kind: str
    topn: int | None = None
    deletion: float | None = None
    mix_p: float | None = None
    mix_kind: str | None = None

    def __post_init__(self):
        if self.kind not in ("max", "psim", "p", "mixed"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if self.topn is not None:
            if self.kind != "psim":
                raise ValueError("topn only applies to psim")
            if self.topn < 1:
                raise ValueError("topn must be >= 1")
        if self.deletion is not None:
            if self.kind != "max":
                raise ValueError("deletion only applies to max")
            if not 0.0 <= self.deletion <= 1.0:
                raise ValueError("deletion fraction must be in [0, 1]")
        if self.kind == "mixed":
            if self.mix_kind not in RANDOM_KINDS:
                raise ValueError("mixed strategy needs mix_kind 'psim' or 'p'")
            if self.mix_p is None or not 0.0 <= self.mix_p <= 1.0:
                raise ValueError("mixed strategy needs mix_p in [0, 1]")

    def describe(self) -> dict:
        out = {"kind": self.kind}
        if self.topn is not None:
            out["topn"] = self.topn
        if self.deletion is not None:
            out["deletion"] = self.deletion
        if self.kind == "mixed":
            out["mix_p"] = self.mix_p
            out["mix_kind"] = self.mix_kind
        return out


@dataclass(frozen=True)
class SimilarityMask:
    """Per-row hidden columns, from random deletion.

    ``deleted[i]`` holds the columns node i cannot see; from
    :func:`apply_random_deletion` it is an (N, k) array. Deletion is
    row-local: node i may lose sight of j while j still sees i.
    """

    deleted: np.ndarray
    fraction: float
    seed: int

    def n_deleted_per_row(self) -> int:
        return len(self.deleted[0]) if len(self.deleted) else 0


def sort_pairs(pairs: list[RankedPair]) -> list[RankedPair]:
    """Decreasing similarity; ties by (selector, selected) ascending."""
    return sorted(pairs, key=lambda p: (-p.similarity, p.selector, p.selected))


def _row_blocks(n: int):
    for lo in range(0, n, BLOCK_ROWS):
        yield slice(lo, min(lo + BLOCK_ROWS, n))


def _ranked(values: np.ndarray, picks: list[tuple[np.ndarray, np.ndarray]]) -> list[RankedPair]:
    """Gather the similarity of each (selector, selected) pick and sort.

    Same order as :func:`sort_pairs`: decreasing similarity, then selector,
    then selected.
    """
    if not picks:
        return []
    selector = np.concatenate([i for i, _ in picks])
    selected = np.concatenate([j for _, j in picks])
    sim = values[selector, selected]
    order = np.lexsort((selected, selector, -sim))
    return list(map(RankedPair, selector[order].tolist(), selected[order].tolist(),
                    sim[order].tolist()))


def apply_random_deletion(s: SimilarityMatrix, d: float, seed: int) -> SimilarityMask:
    """Hide a uniform random floor(d*(N-1)) columns in each row.

    Row i's hidden columns are the k smallest of its random keys (row i of
    one (N, N) draw), with its own column keyed +inf so it is never hidden.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError("deletion fraction must be in [0, 1]")
    n = s.n_nodes
    k = int(np.floor(d * (n - 1)))
    deleted = np.empty((n, k), dtype=np.int64)
    if k:
        rng = stream(seed, MASK_STREAM)
        for rows in _row_blocks(n):
            keys = rng.random((rows.stop - rows.start, n))
            keys[np.arange(len(keys)), np.arange(rows.start, rows.stop)] = np.inf
            deleted[rows] = np.argpartition(keys, k - 1, axis=1)[:, :k]
    return SimilarityMask(deleted=deleted, fraction=d, seed=seed)


def _max_picks(vals: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every maximum of each row in ``vals`` (the rows ``rows``), ties included.

    Rows whose maximum is not positive emit nothing. Exact ties are rare, so
    they are found by a tie count and only tied rows are scanned again.
    """
    at = np.arange(len(rows))
    best = vals.argmax(axis=1)
    m = vals[at, best]
    ties = np.count_nonzero(vals == m[:, None], axis=1)
    live = m > 0.0
    single = live & (ties == 1)
    tied = np.flatnonzero(live & (ties > 1))
    if not len(tied):
        return rows[single], best[single]
    r, c = np.nonzero(vals[tied] == m[tied, None])
    return np.concatenate((rows[single], rows[tied[r]])), np.concatenate((best[single], c))


def select_max(s: SimilarityMatrix, mask: SimilarityMask | None = None) -> list[RankedPair]:
    """Every node pairs with all of its maximum-similarity partners."""
    if s.n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    picks = []
    for rows in _row_blocks(s.n_nodes):
        vals = s.values[rows]
        hidden = () if mask is None else mask.deleted[rows]
        cols = np.concatenate(hidden) if len(hidden) else ()
        if len(cols):
            vals = vals.copy()
            vals[np.repeat(np.arange(len(vals)), [len(h) for h in hidden]),
                 cols] = -1.0  # hidden: below any real similarity
        picks.append(_max_picks(vals, np.arange(rows.start, rows.stop)))
    return _ranked(s.values, picks)


def _proportional_pick(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column drawn from each row of ``weights`` in proportion to its weight.

    ``u`` holds one uniform [0, 1) number per row. Rows with no positive
    weight get -1. ``weights`` is overwritten with its row cumsum.
    """
    cdf = np.cumsum(weights, axis=1, out=weights)
    total = cdf[:, -1]
    j = np.count_nonzero(cdf <= (u * total)[:, None], axis=1)
    # only u >= 1 can put every column at or below u * total; clamp such a
    # row to its last column with positive weight, never a trailing zero one
    over = np.flatnonzero(j == cdf.shape[1])
    j[over] = np.count_nonzero(cdf[over] < total[over, None], axis=1)
    j[~(total > 0.0)] = -1
    return j


def _top_candidates(w: np.ndarray, topn: int) -> np.ndarray:
    """Mask of each row's ``topn`` largest entries; boundary ties go to lower ids."""
    n = w.shape[1]
    threshold = np.partition(w, n - topn, axis=1)[:, n - topn, None]
    above = w > threshold
    at = w == threshold
    room = topn - np.count_nonzero(above, axis=1)
    return above | (at & (np.cumsum(at, axis=1) <= room[:, None]))


def _psim_picks(values: np.ndarray, rows: np.ndarray, u: np.ndarray,
                topn: int | None) -> tuple[np.ndarray, np.ndarray]:
    """Proportional draws for the nodes ``rows``; ``u`` holds their uniforms."""
    n = values.shape[1]
    w = values[rows]
    own = (np.arange(len(rows)), rows)
    if topn is not None and topn < n - 1:
        w[own] = -np.inf  # a node is never its own candidate
        w[~_top_candidates(w, topn)] = 0.0
    else:
        w[own] = 0.0
    j = _proportional_pick(w, u)
    hit = j >= 0
    return rows[hit], j[hit]


def _uniform_picks(rows: np.ndarray, u: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform draws over the other n-1 nodes for the nodes ``rows``."""
    j = (u * (n - 1)).astype(np.int64)  # floor, at most n - 2 for u < 1
    return rows, j + (j >= rows)


def select_psim(s: SimilarityMatrix, seed: int, topn: int | None = None) -> list[RankedPair]:
    """Each node samples one partner with probability proportional to similarity.

    With ``topn`` set, only the top-n most similar candidates are eligible
    (ties at the cutoff resolved toward the lower node id). Nodes whose
    candidate similarities sum to zero emit nothing.
    """
    n = s.n_nodes
    if n < 2:
        raise ValueError("need at least 2 nodes")
    u = stream(seed, PARTNER_STREAM).random(n)
    picks = [_psim_picks(s.values, np.arange(rows.start, rows.stop), u[rows], topn)
             for rows in _row_blocks(n)]
    return _ranked(s.values, picks)


def select_random(s: SimilarityMatrix, seed: int) -> list[RankedPair]:
    """Each node samples one partner uniformly over all other nodes."""
    n = s.n_nodes
    if n < 2:
        raise ValueError("need at least 2 nodes")
    u = stream(seed, PARTNER_STREAM).random(n)
    return _ranked(s.values, [_uniform_picks(np.arange(n), u, n)])


def select_mixed(s: SimilarityMatrix, p: float, random_kind: str, seed: int) -> list[RankedPair]:
    """Per-node coin: with probability p use the random strategy, else max.

    The gate draw and the partner draw use separate streams, so p=0
    reproduces select_max exactly and p=1 reproduces the pure random
    strategy (same seed) exactly.
    """
    n = s.n_nodes
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if random_kind not in RANDOM_KINDS:
        raise ValueError(f"random_kind must be one of {RANDOM_KINDS}")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    gate = stream(seed, GATE_STREAM).random(n) < p
    u = stream(seed, PARTNER_STREAM).random(n)
    picks = []
    for block in _row_blocks(n):
        rows = np.arange(block.start, block.stop)
        coin = gate[block]
        if not coin.all():
            picks.append(_max_picks(s.values[rows[~coin]], rows[~coin]))
        if coin.any():
            if random_kind == "psim":
                picks.append(_psim_picks(s.values, rows[coin], u[block][coin], None))
            else:
                picks.append(_uniform_picks(rows[coin], u[block][coin], n))
    return _ranked(s.values, picks)


def select_pairs(s: SimilarityMatrix, strategy: Strategy, seed: int = 0) -> list[RankedPair]:
    """Dispatch a Strategy descriptor to the matching selection routine."""
    if strategy.kind == "max":
        mask = None
        if strategy.deletion is not None and strategy.deletion > 0.0:
            mask = apply_random_deletion(s, strategy.deletion, seed)
        return select_max(s, mask)
    if strategy.kind == "psim":
        return select_psim(s, seed, strategy.topn)
    if strategy.kind == "p":
        return select_random(s, seed)
    return select_mixed(s, strategy.mix_p, strategy.mix_kind, seed)
