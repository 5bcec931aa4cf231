"""Partner selection: one ranked pair list per strategy.

A :class:`Strategy` names the rule and its parameters;
:func:`select_pairs` runs one (strategy, seed) and :func:`select_many`
runs several over one pass of the row blocks, so a sweep computes each
block once for all its runs. Each run emits directed pairs as three
columns (:data:`Pairs`) sorted by decreasing similarity, ties by
(selector, selected). Strategies:

* ``max``      - each node pairs with its highest-similarity partner(s);
                 exact ties all get emitted.
* ``psim``     - each node samples one partner with probability
                 proportional to similarity (optionally restricted to the
                 top-n most similar candidates; ties at the cutoff go to
                 the lower node id).
* ``p``        - each node samples one partner uniformly.
* ``max`` with ``deletion`` - each row hides a uniform random
                 floor(d*(N-1)) of its columns, then max runs over the
                 rest. Deletion is row-local: i may lose sight of j while
                 j still sees i.
* ``mixed``    - per node, a seeded coin picks between max and a random
                 strategy.

Every run is one picker: a node draws its partner (always under ``psim``
and ``p``, where its coin comes up under ``mixed``) or else takes its
maximum, so mix_p=0 runs max's code and mix_p=1 the random strategy's,
byte for byte. Random draws come from one stream per (seed, purpose);
node i reads element i (see :mod:`simpair.rng`). A run draws only the
streams it reads, and the coin and the partner use separate ones.

One forward pass of :meth:`SimilarityMatrix.blocks` hands every strategy
the similarity a block of ``BLOCK_ROWS`` rows at a time, over only the
columns those rows store, and each maps positions back to node ids
through the block's ``cols``. An absent column is zero in every row of
the block, so each draw is the one the full rows would give. Each
block's rows are computed as one product as the block is read, and no
whole similarity is stored. The largest temporaries are one
``BLOCK_ROWS`` x (columns stored) block, at most ``BLOCK_ROWS`` x N, the
product it comes from (dropped before the block is used), and, with
deletion, that block's ``BLOCK_ROWS`` x N keys and an N-wide copy of it.

Nodes with no positive candidate mass (all-zero or fully deleted rows)
emit nothing and surface downstream as singleton communities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import GATE_STREAM, MASK_STREAM, PARTNER_STREAM, stream
from .similarity import SimilarityMatrix

# pairs: equal-length selector (int64), selected (int64), similarity (float64) columns
Pairs = tuple[np.ndarray, np.ndarray, np.ndarray]
NO_PAIRS: Pairs = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))

BLOCK_ROWS = 128


class RankedPair(NamedTuple):  # a row of ``Detection.pairs``
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
        if self.kind != "mixed" and (self.mix_p is not None or self.mix_kind is not None):
            raise ValueError("mix_p and mix_kind only apply to mixed")
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


def _ranked(picks: list[Pairs]) -> Pairs:
    """Concatenate picks; decreasing similarity, ties by (selector, selected)."""
    selector, selected, sim = (np.concatenate(col) for col in zip(*picks))
    order = np.lexsort((selected, selector, -sim))
    return selector[order], selected[order], sim[order]


def _deletion_keys(seed: int, n: int, k: int):
    """Hidden columns per row block, to be called on consecutive blocks in order.

    Row i hides the k smallest of its random keys (row i of one (N, N)
    draw), with its own column keyed +inf so it is never hidden.
    """
    rng = stream(seed, MASK_STREAM)

    def hidden(block: slice) -> np.ndarray:
        keys = rng.random((block.stop - block.start, n))
        keys[np.arange(len(keys)), np.arange(block.start, block.stop)] = np.inf
        return np.argpartition(keys, k - 1, axis=1)[:, :k]
    return hidden


def _positions(cols: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Position of each of ``nodes`` in the sorted ``cols``; -1 where absent."""
    pos = np.searchsorted(cols, nodes)
    found = pos < len(cols)
    found[found] = cols[pos[found]] == nodes[found]
    return np.where(found, pos, -1)


def _max_picks(cols: np.ndarray, vals: np.ndarray, rows: np.ndarray) -> Pairs:
    """Every maximum of each row in ``vals`` (the rows ``rows``), ties included.

    Rows whose maximum is not positive emit nothing; a positive maximum is
    always in a stored column. Exact ties are rare, so they are found by a
    tie count and only tied rows are scanned again.
    """
    if not vals.shape[1]:
        return NO_PAIRS
    at = np.arange(len(rows))
    best = vals.argmax(axis=1)
    m = vals[at, best]
    ties = np.count_nonzero(vals == m[:, None], axis=1)
    live = m > 0.0
    single = live & (ties == 1)
    tied = np.flatnonzero(live & (ties > 1))
    if not len(tied):
        return rows[single], cols[best[single]], m[single]
    r, c = np.nonzero(vals[tied] == m[tied, None])
    return (np.concatenate((rows[single], rows[tied[r]])),
            np.concatenate((cols[best[single]], cols[c])),
            np.concatenate((m[single], m[tied[r]])))


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
    # only rows with more ties at the threshold than room choose among them
    over = np.flatnonzero(np.count_nonzero(at, axis=1) > room)
    at[over] &= np.cumsum(at[over], axis=1) <= room[over, None]
    return above | at


def _psim_picks(cols: np.ndarray, vals: np.ndarray, local: np.ndarray, rows: np.ndarray,
                u: np.ndarray, topn: int | None) -> Pairs:
    """Proportional draws for block rows ``local`` (nodes ``rows``, uniforms ``u``).

    Absent columns are zeros, and a zero adds exactly, so the row cumsum
    and its ``u * total`` threshold are those of the full row. A row's own
    column reads 0, so it is never drawn.
    """
    if not vals.shape[1]:
        return NO_PAIRS
    w = vals[local]
    if topn is not None:
        pos = _positions(cols, rows)
        at = np.flatnonzero(pos >= 0)
        # the most candidates a row has: the stored columns, less its own
        # when every row's own column is among them
        if topn < len(cols) - (len(at) == len(rows)):
            w[at, pos[at]] = -np.inf  # a node is never its own candidate
            w[~_top_candidates(w, topn)] = 0.0
    j = _proportional_pick(w, u)
    hit = j >= 0
    return rows[hit], cols[j[hit]], vals[local[hit], j[hit]]


def _uniform_picks(cols: np.ndarray, vals: np.ndarray, local: np.ndarray, rows: np.ndarray,
                   u: np.ndarray, n: int) -> Pairs:
    """Uniform draws over the other n-1 nodes for block rows ``local`` (nodes ``rows``)."""
    j = (u * (n - 1)).astype(np.int64)  # floor, at most n - 2 for u < 1
    j += j >= rows
    pos = _positions(cols, j)
    sim = np.zeros(len(rows))  # an absent column holds 0.0
    hit = pos >= 0
    sim[hit] = vals[local[hit], pos[hit]]
    return rows, j, sim


def _job(strategy: Strategy, seed: int, n: int):
    """Per-block picker for one (strategy, seed) run over ``n`` nodes.

    A node draws its partner under psim and p, never under max, and under
    mixed where its gate draw is below mix_p; the rest take their maximum.
    """
    kind, topn = strategy.kind, strategy.topn
    if kind == "mixed":
        kind = strategy.mix_kind
        draw = stream(seed, GATE_STREAM).random(n) < strategy.mix_p
    else:
        draw = np.full(n, kind != "max")
    u = stream(seed, PARTNER_STREAM).random(n) if np.count_nonzero(draw) else None
    k = int(np.floor((strategy.deletion or 0.0) * (n - 1)))
    hidden = _deletion_keys(seed, n, k) if k else None

    def take(cols: np.ndarray, vals: np.ndarray, block: slice) -> list[Pairs]:
        rows = np.arange(block.start, block.stop)
        drawn = draw[block]
        local = drawn.nonzero()[0]
        picks = []
        if len(local):
            at = rows[local]
            if kind == "psim":
                picks.append(_psim_picks(cols, vals, local, at, u[at], topn))
            else:
                picks.append(_uniform_picks(cols, vals, local, at, u[at], n))
            if len(local) == len(rows):
                return picks
            vals, rows = vals[~drawn], rows[~drawn]
        if hidden is not None:  # deletion is max only, so no row of the block drew
            hide = hidden(block)  # drawn first: its N-wide keys are freed before work is filled
            # N wide, so node ids are positions; vals is shared with the other
            # jobs of the pass and stays as it is
            work = np.zeros((len(rows), n))
            work[:, cols] = vals
            work[np.arange(len(rows))[:, None], hide] = -1.0  # below any real similarity
            cols, vals = np.arange(n), work
        picks.append(_max_picks(cols, vals, rows))
        return picks
    return take


def select_many(s: SimilarityMatrix,
                jobs: list[tuple[Strategy, int]]) -> list[Pairs]:
    """Run every (strategy, seed) job in one pass over the row blocks.

    Equal to ``[select_pairs(s, strategy, seed) for strategy, seed in jobs]``,
    but each block of similarity rows is computed once and handed to every job.
    """
    if s.n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    takes = [_job(strategy, seed, s.n_nodes) for strategy, seed in jobs]
    picks: list[list[Pairs]] = [[] for _ in jobs]
    for block, cols, vals in s.blocks(BLOCK_ROWS):
        for take, out in zip(takes, picks):
            out += take(cols, vals, block)
        del cols, vals  # freed before the next block is filled
    return [_ranked(p) for p in picks]


def select_pairs(s: SimilarityMatrix, strategy: Strategy, seed: int = 0) -> Pairs:
    """Pairs of one Strategy descriptor; the one-job case of :func:`select_many`."""
    return select_many(s, [(strategy, seed)])[0]
