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
                 floor(d*(N-1)) of its other columns, then max runs over
                 the rest. Deletion is row-local: i may lose sight of j
                 while j still sees i.
* ``mixed``    - per node, a seeded coin picks between max and a random
                 strategy.

Every run is one picker: a node draws its partner (always under ``psim``
and ``p``, where its coin comes up under ``mixed``) or else walks to its
first visible entry, so mix_p=0 runs max's code and mix_p=1 the random
strategy's, byte for byte. Random draws come from one stream per (seed, purpose);
node i reads element i, or for deletion's tie draws reads draw j of
its own by position (see :mod:`simpair.rng`). A run draws only the streams it reads, and
the coin and the partner use separate ones.

One pass of :meth:`SimilarityMatrix.blocks` hands every strategy the
similarity a block of at most ``BLOCK_ROWS`` rows at a time, over only
the columns those rows store. A block's ``rows`` are sorted node ids,
not always consecutive ones (rows of one connected component share a
block), and every picker reads its per-node draws, walk lengths and
depths at ``rows``; each maps column positions back to node ids through
the block's ``cols``. Every draw is keyed by node id and the pairs are
ranked by value, then ids, so no output depends on which rows share a
block. An absent column is zero in every row of the block, so each draw
is the one the full rows would give. Each block's rows are computed as
one product as the block is read, and no whole similarity is stored.
The largest temporaries are one ``BLOCK_ROWS`` x (columns stored) block,
at most ``BLOCK_ROWS`` x N, the product it comes from (dropped before the
block is used), one ``argpartition`` of the block (for wide windows),
the block's row cumsum (one for every psim run of the pass, built on
first use) and a copy of its tied rows.

Max is a walk. Deletion never draws the hidden columns: taken in
decreasing similarity, ties by column id, only a row's first visible
entry can be its maximum, so each run draws T, the number of hidden
entries in front of it, one uniform per node, and reads the row's top
T+1 entries; without deletion T = 0. Each block builds one window of its
rows' largest entries (narrow ones by argmax rounds) for every max row
of the pass and every psim top-n cut. Rows whose entry at T ties with
later ones are read over the whole block row, all tied rows at once;
with nothing hidden (T = 0) the tied maxima do not depend on the seed,
so they are found once per block, on first use, for every such walk.

Psim reads each drawn row without copying it. A draw over the whole row
binary-searches the block's row cumsum for ``u * total``. A top-n draw
takes the row's first n window entries as its candidates and cumsums
them in column order; the masked row would add only exact zeros between
them. Only a row whose positive n-th value ties with the end of an
``argpartition`` window narrower than the row, which may hold any of
those ties, is masked over its whole block row.

Nodes with no positive candidate mass (all-zero or fully deleted rows)
emit nothing and surface downstream as singleton communities.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .rng import GATE_STREAM, MASK_STREAM, PARTNER_STREAM, TIE_STREAM, draws, stream
from .similarity import SimilarityMatrix

# pairs: equal-length selector (int64), selected (int64), similarity (float64) columns
Pairs = tuple[np.ndarray, np.ndarray, np.ndarray]
NO_PAIRS: Pairs = (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))

BLOCK_ROWS = 128
# a walk window at most this wide is built by argmax rounds, a wider one by argpartition
ROUNDS = 8

RANDOM_KINDS = ("psim", "p")


def _integer(value, name: str) -> int:
    """``value`` as an int, numpy integers included; ValueError naming ``name`` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


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
            if _integer(self.topn, "topn") < 1:
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
        """The fields that are set, in declaration order."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _ranked(picks: list[Pairs]) -> Pairs:
    """Concatenate picks; decreasing similarity, ties by (selector, selected)."""
    selector, selected, sim = (np.concatenate(col) for col in zip(*picks))
    order = np.lexsort((selected, selector, -sim))
    return selector[order], selected[order], sim[order]


def _walk_steps(seed: int, n: int, k: int) -> np.ndarray:
    """T per node: how many of its k hidden columns precede its first visible one.

    A row hides a uniform k-subset of its n-1 other columns, taken in
    decreasing similarity, so P(T >= t) = prod_{s<t} (k-s)/(n-1-s). Node i
    reads element i of one uniform draw.
    """
    s = np.arange(k)
    survival = np.cumprod((k - s) / (n - 1 - s))  # P(T >= t) for t = 1..k
    return np.searchsorted(-survival, -stream(seed, MASK_STREAM).random(n))


def _window(vals: np.ndarray, depths: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Each row's largest entries, shared by a block's walks and top-n cuts, as ``(pos, top)``.

    ``depths`` holds each run's deepest position for the block's rows: a
    walk's T, whose entry it emits if positive and reads one past, or a
    top-n cut's n - 1, whose value it reads. So the window is as wide as
    the deepest position holding a positive entry, plus 2, and at most
    the whole row. ``pos``
    holds positions in the block's columns and ``top`` their values,
    largest first, ties by position (that is, by column id). Up to
    ``ROUNDS`` wide, one ``argmax`` per window column takes the next entry
    and marks it -1 until ``vals`` is restored; a wider window sorts an
    ``argpartition``, which may end on any entry tied with its last one:
    walks read that entry only as a tie, and cuts only its value.
    """
    positive = np.count_nonzero(vals, axis=1)  # entries are >= 0
    longest = max(t[t < positive].max(initial=-2) for t in depths)
    width = min(longest + 2, vals.shape[1])
    if width <= 0:
        return np.empty((len(vals), 0), np.int64), np.empty((len(vals), 0))
    if width <= ROUNDS:
        at = np.arange(len(vals))
        pos, top = [], []
        for _ in range(width):
            p = vals.argmax(axis=1)
            pos.append(p)
            top.append(vals[at, p])
            vals[at, p] = -1.0
        pos, top = np.column_stack(pos), np.column_stack(top)
        vals[at[:, None], pos] = top
        return pos, top
    # selecting the smallest of -vals stays fast when most entries are equal zeros
    part = np.argpartition(-vals, width - 1, axis=1)[:, :width]
    top = np.take_along_axis(vals, part, axis=1)
    order = np.lexsort((part, -top), axis=1)
    return np.take_along_axis(part, order, axis=1), np.take_along_axis(top, order, axis=1)


def _walk_picks(cols: np.ndarray, vals: np.ndarray, window: tuple[np.ndarray, np.ndarray],
                ties: Callable[[], tuple[np.ndarray, np.ndarray]], local: np.ndarray,
                rows: np.ndarray, t: np.ndarray, k: int, n: int, seed: int) -> Pairs:
    """The visible maxima of block rows ``local``, nodes ``rows``, past T = ``t`` hidden entries.

    Entries are taken in decreasing similarity, ties by column id. The
    entry at position T is visible and, if positive, the row's maximum.
    A row where the next entry ties with it emits every entry tied at its
    maximum, read from ``ties()`` (:func:`_max_ties`), when nothing is
    hidden (k = 0), and otherwise goes to :func:`_tied_picks`.
    """
    pos, top = window
    width = top.shape[1]
    if not width:
        return NO_PAIRS
    end = np.minimum(t, width - 1)
    v = np.where(t < width, top[local, end], 0.0)
    # a row with v > 0 has t + 1 < width unless the window is the whole row
    after = np.where(t + 1 < width, top[local, np.minimum(t + 1, width - 1)], 0.0)
    single = (v > 0.0) & (after < v)
    picks = [(rows[single], cols[pos[local[single], end[single]]], v[single])]
    tied = np.flatnonzero((v > 0.0) & (after == v))
    if len(tied) and k:
        picks.append(_tied_picks(cols, vals[local[tied]], rows[tied], t[tied], v[tied], k, n,
                                 seed))
    elif len(tied):
        r, c = ties()
        wanted = np.zeros(len(vals), bool)
        wanted[local[tied]] = True
        keep = wanted[r]
        j = np.searchsorted(local[tied], r[keep])  # local is sorted
        picks.append((rows[tied][j], cols[c[keep]], v[tied][j]))
    return tuple(np.concatenate(col) for col in zip(*picks))


def _max_ties(vals: np.ndarray, window: tuple[np.ndarray, np.ndarray]
              ) -> tuple[np.ndarray, np.ndarray]:
    """Every entry equal to its row's positive maximum, in the block rows where
    more than one is, as (block row, column position) arrays by row, then column.

    It does not depend on the seed, so a block builds it once for every walk
    of the pass with nothing hidden.
    """
    top = window[1]
    if top.shape[1] < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    tied = np.flatnonzero((top[:, 0] > 0.0) & (top[:, 1] == top[:, 0]))
    r, c = np.nonzero(vals[tied] == top[tied, :1])
    return tied[r], c


def _hypergeometric_weights(m: np.ndarray, hidden: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Per row, the relative chance that h = 0..max(m) of its m entries are
    hidden when ``hidden`` of the ``left`` columns they come from are.

    Built from the ratio of consecutive terms, in logs, so no binomial
    coefficient is formed; h outside its support gets 0.
    """
    m, hidden, left = m[:, None], hidden[:, None], left[:, None]
    lo, hi = np.maximum(m - (left - hidden), 0), np.minimum(m, hidden)
    x = np.arange(m.max())
    step = (x >= lo) & (x < hi)  # the ratio w(x + 1) / w(x) is defined and positive
    num = np.where(step, (hidden - x) * (m - x), 1)
    den = np.where(step, (x + 1) * (left - hidden - m + x + 1), 1)
    log_w = np.cumsum(np.log(num / den), axis=1)
    log_w = np.concatenate((np.zeros((len(m), 1)), log_w), axis=1)
    h = np.arange(m.max() + 1)
    return np.where((h >= lo) & (h <= hi), np.exp(log_w - log_w.max(axis=1, keepdims=True)), 0.0)


def _tied_picks(cols: np.ndarray, vals: np.ndarray, rows: np.ndarray, t: np.ndarray,
                v: np.ndarray, k: int, n: int, seed: int) -> Pairs:
    """Visible maxima of rows whose entry at position T = ``t``, of value ``v``,
    ties with later ones; read over the rows' whole ``vals``. ``k`` > 0.

    After position T the row's other k - T hidden columns are a uniform
    subset of its n - 2 - T later ones. So of the m later entries equal to
    v, a hypergeometric count h is hidden, drawn by inverse CDF on draw 0
    of (seed, TIE_STREAM, node), and they are the h whose keys, draw
    1 + column, are smallest.
    """
    r, c = np.nonzero(vals == v[:, None])  # by row, then column
    rank = np.arange(len(r)) - np.searchsorted(r, r)
    first = t - np.count_nonzero(vals > v[:, None], axis=1)  # rank of the entry at T
    off = rank - first[r]  # 0 at T, > 0 after it, < 0 hidden before it
    later = np.flatnonzero(off > 0)
    m = np.bincount(r[later], minlength=len(rows))
    u = draws(seed, TIE_STREAM, np.concatenate((rows, rows[r[later]])),
              np.concatenate((np.zeros_like(rows), 1 + cols[c[later]])))
    h = _proportional_pick(_hypergeometric_weights(m, k - t, n - 2 - t), u[:len(rows)])
    keys = u[len(rows):]
    order = later[np.lexsort((keys, r[later]))]
    nth = np.arange(len(order)) - np.searchsorted(r[order], r[order])
    keep = off == 0
    keep[order] = nth >= h[r[order]]
    return rows[r[keep]], cols[c[keep]], v[r[keep]]


def _proportional_pick(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Column drawn from each row of ``weights`` in proportion to its weight.

    ``u`` holds one uniform [0, 1) number per row. Rows with no positive
    weight get -1. ``weights`` is overwritten with its row cumsum.
    """
    cdf = np.cumsum(weights, axis=1, out=weights)
    total = cdf[:, -1]
    j = np.count_nonzero(cdf <= _threshold(u, total)[:, None], axis=1)
    j[~(total > 0.0)] = -1
    return j


def _threshold(u: np.ndarray, total: np.ndarray) -> np.ndarray:
    """``u * total``, held below ``total``.

    At u = 1, or one ulp below it where ``total`` is subnormal, ``u * total``
    rounds to ``total``, which every column of the row's cdf reaches. One
    float below ``total``, the count of columns at or below the threshold
    ends on the row's last column with positive weight, never on a
    trailing zero one.
    """
    return np.minimum(u * total, np.nextafter(total, 0.0))


def _cdf_pick(cdf: np.ndarray, local: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`_proportional_pick` of block rows ``local``, read from the block's row cumsum.

    A cumsum of entries >= 0 never decreases, so the count of its entries
    at or below the threshold is where a binary search for it ends. The
    threshold is below the row total, so the count is below the row
    width; each round halves the span it can lie in, with one gather and
    one compare over the drawn rows only, and a last compare settles it.
    """
    width = cdf.shape[1]
    flat = cdf.reshape(-1)
    start = local * width
    total = flat[start + (width - 1)]
    threshold = _threshold(u, total)
    # each row's count lies in [at - start, at - start + span]
    at, span = start.copy(), width - 1
    while span > 1:
        half = span // 2
        np.add(at, half, out=at, where=flat[at + (half - 1)] <= threshold)
        span -= half
    j = at - start + (flat[at] <= threshold)
    j[~(total > 0.0)] = -1
    return j


def _top_candidates(w: np.ndarray, threshold: np.ndarray, topn: int) -> np.ndarray:
    """Mask of each row's ``topn`` largest entries, the least ``threshold``; ties to lower ids."""
    above = w > threshold
    at = w == threshold
    room = topn - np.count_nonzero(above, axis=1)
    # only rows with more ties at the threshold than room choose among them
    over = np.flatnonzero(np.count_nonzero(at, axis=1) > room)
    at[over] &= np.cumsum(at[over], axis=1) <= room[over, None]
    return above | at


def _psim_picks(cols: np.ndarray, vals: np.ndarray, window: tuple[np.ndarray, np.ndarray] | None,
                cdf: Callable[[], np.ndarray], local: np.ndarray, rows: np.ndarray, u: np.ndarray,
                topn: int | None) -> Pairs:
    """Proportional draws for block rows ``local`` (nodes ``rows``, uniforms ``u``).

    Absent columns are zeros, and a zero adds exactly, so a row's cumsum
    and its ``u * total`` threshold are those of the full row. A row's own
    column reads 0, so it is never drawn; it can enter the top-n only
    among zeros, which are never drawn either. Draws over whole rows read
    ``cdf()``, the block's row cumsum, built once for every run of the pass
    (:func:`_cdf_pick`). A top-n cut reads its candidates from the window
    (:func:`_cut_picks`); where that is narrower than n, the cut would drop
    only zeros, and the row is drawn whole.
    """
    if not vals.shape[1]:
        return NO_PAIRS
    if topn is None or topn > window[1].shape[1]:
        j = _cdf_pick(cdf(), local, u)
    else:
        j = _cut_picks(vals, window, local, u, topn)
    hit = j >= 0
    return rows[hit], cols[j[hit]], vals[local[hit], j[hit]]


def _cut_picks(vals: np.ndarray, window: tuple[np.ndarray, np.ndarray], local: np.ndarray,
               u: np.ndarray, topn: int) -> np.ndarray:
    """Top-``topn`` draws for block rows ``local``: their column positions, -1 for none.

    A row's candidates are its first ``topn`` window positions, put back in
    column order. The masked full row adds only exact zeros between them,
    so their cumsum is that row's, bit for bit. An ``argpartition`` window
    narrower than the row may hold any of the entries tied with its last
    value, so there a row whose positive n-th value ties with it masks its
    whole row by :func:`_top_candidates` instead.
    """
    pos, top = window
    cand = np.sort(pos[local, :topn], axis=1)
    k = _proportional_pick(vals[local[:, None], cand], u)
    j = np.where(k >= 0, np.take_along_axis(cand, k[:, None], axis=1)[:, 0], -1)
    nth = top[local, topn - 1]
    loose = ROUNDS < top.shape[1] < vals.shape[1]  # an argpartition window, not the whole row
    whole = np.flatnonzero((nth > 0.0) & (nth == top[local, -1]) & loose)
    if len(whole):
        w = vals[local[whole]]
        w[~_top_candidates(w, nth[whole, None], topn)] = 0.0
        j[whole] = _proportional_pick(w, u[whole])
    return j


def _uniform_picks(cols: np.ndarray, vals: np.ndarray, local: np.ndarray, rows: np.ndarray,
                   u: np.ndarray, n: int) -> Pairs:
    """Uniform draws over the other n-1 nodes for block rows ``local`` (nodes ``rows``)."""
    j = (u * (n - 1)).astype(np.int64)  # floor, at most n - 2 for u < 1
    j += j >= rows
    if not len(cols):
        return rows, j, np.zeros(len(rows))
    pos = np.minimum(np.searchsorted(cols, j), len(cols) - 1)
    # an absent column holds 0.0
    return rows, j, np.where(cols[pos] == j, vals[local, pos], 0.0)


def _job(strategy: Strategy, seed: int, n: int):
    """Per-block picker for one (strategy, seed) run over ``n`` nodes, and the depth
    each row needs the block's window to reach: its walk's T, a top-n's n - 1, or None.

    A node draws its partner under psim and p, never under max, and under
    mixed where its gate draw is below mix_p; the rest walk to their first
    visible entry, which with nothing deleted (T = 0) is their maximum.
    """
    kind, topn = strategy.kind, strategy.topn
    if kind == "mixed":
        kind = strategy.mix_kind
        draw = stream(seed, GATE_STREAM).random(n) < strategy.mix_p
    else:
        draw = np.full(n, kind != "max")
    u = stream(seed, PARTNER_STREAM).random(n) if np.count_nonzero(draw) else None
    k = int(np.floor((strategy.deletion or 0.0) * (n - 1)))
    steps = None if draw.all() else _walk_steps(seed, n, k) if k else np.zeros(n, np.int64)

    def take(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
             window: tuple[np.ndarray, np.ndarray] | None, cdf: Callable[[], np.ndarray],
             ties: Callable[[], tuple[np.ndarray, np.ndarray]]) -> list[Pairs]:
        drawn = draw[rows]
        local = drawn.nonzero()[0]
        picks = []
        if len(local):
            at = rows[local]
            if kind == "psim":
                picks.append(_psim_picks(cols, vals, window, cdf, local, at, u[at], topn))
            else:
                picks.append(_uniform_picks(cols, vals, local, at, u[at], n))
        if len(local) < len(rows):
            kept = np.flatnonzero(~drawn)
            picks.append(_walk_picks(cols, vals, window, ties, kept, rows[kept],
                                     steps[rows[kept]], k, n, seed))
        return picks
    return take, steps if topn is None else np.full(n, topn - 1)


def _once(make: Callable[[], object]) -> Callable[[], object]:
    """``make()``, computed on the first call and kept (``functools.cache`` costs
    more to build, and a block builds two)."""
    kept = []

    def get():
        if not kept:
            kept.append(make())
        return kept[0]
    return get


def select_many(s: SimilarityMatrix,
                jobs: list[tuple[Strategy, int]]) -> list[Pairs]:
    """Run every (strategy, seed) job in one pass over the row blocks.

    Equal to ``[select_pairs(s, strategy, seed) for strategy, seed in jobs]``,
    but each block of similarity rows is computed once and handed to every job.
    """
    if s.n_nodes < 2:
        raise ValueError("need at least 2 nodes")
    if not jobs:
        return []
    runs = [_job(strategy, seed, s.n_nodes) for strategy, seed in jobs]
    depths = [depth for _, depth in runs if depth is not None]
    picks: list[list[Pairs]] = [[] for _ in jobs]
    for rows, cols, vals in s.blocks(BLOCK_ROWS):
        # one window for every walk and top-n cut of the pass; built on first use, one
        # row cumsum for every psim draw over whole rows and one set of tied maxima for
        # every walk with nothing hidden; all dropped with the block
        window = _window(vals, [depth[rows] for depth in depths]) if depths else None
        cdf = _once(functools.partial(np.cumsum, vals, axis=1))
        ties = _once(functools.partial(_max_ties, vals, window))
        for (take, _), out in zip(runs, picks):
            out += take(rows, cols, vals, window, cdf, ties)
        del cols, vals, window, cdf, ties  # freed before the next block is filled
    return [_ranked(p) for p in picks]


def select_pairs(s: SimilarityMatrix, strategy: Strategy, seed: int = 0) -> Pairs:
    """Pairs of one Strategy descriptor; the one-job case of :func:`select_many`."""
    return select_many(s, [(strategy, seed)])[0]
