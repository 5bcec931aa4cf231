"""Deterministic random-stream derivation.

All randomness in this package but deletion's tie draws comes from
numpy's counter-based Philox generator (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011), keyed through
``numpy.random.SeedSequence``. There is one stream per (seed, purpose),
and node ``i`` reads element ``i`` of it:

* partner draw for node ``i``  -> element i of random(n) on (seed, PARTNER_STREAM)
* strategy gate for node ``i`` -> element i of random(n) on (seed, GATE_STREAM)
* deletion walk for node ``i`` -> element i of random(n) on (seed, MASK_STREAM);
  it sets T, the number of hidden entries before row i's first visible one
* deletion ties for node ``i`` -> draws(seed, TIE_STREAM, i, j): j = 0 sets
  how many of the entries tied with row i's first visible one are hidden,
  j = 1 + c is column c's key among them; only rows with such ties read them
* sweep repetition ``r`` at grid ``g`` -> SeedSequence([base, g, r])

:func:`draws` reads deletion's tie draws by position instead: draw j
of node i is one output of a SplitMix64 sequence keyed by (seed,
purpose), so any (node, j) is read on its own, for a whole array of them
at once. A node's draw depends only on (seed, purpose, node), never on
which other nodes ask or in what order; the partner and gate streams are
separate, which keeps mixture boundaries exact.
"""

from __future__ import annotations

import numpy as np

PARTNER_STREAM = 0
GATE_STREAM = 1
MASK_STREAM = 2
TIE_STREAM = 3

_U64 = np.uint64


def stream(seed: int, purpose: int) -> np.random.Generator:
    """The Philox generator for one (seed, purpose) pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(purpose)])))


_GAMMA = _U64(0x9E3779B97F4A7C15)
_MIX = (_U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB))


def draws(seed: int, purpose: int, node, index) -> np.ndarray:
    """Uniform [0, 1) draw ``index`` of each ``node`` on (seed, purpose), elementwise.

    Draw j of node i (both below 2**32 - 1) is output i * 2**32 + j + 1 of
    SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) seeded with the first
    word of the (seed, purpose) ``SeedSequence``, as ``Generator.random``
    would turn a 64-bit word into a double.
    """
    z = np.random.SeedSequence([int(seed), int(purpose)]).generate_state(1, _U64)[0]
    position = (np.asarray(node, _U64) << _U64(32)) + np.asarray(index, _U64) + _U64(1)
    with np.errstate(over="ignore"):
        z = z + position * _GAMMA
        z = (z ^ (z >> _U64(30))) * _MIX[0]
        z = (z ^ (z >> _U64(27))) * _MIX[1]
    return ((z ^ (z >> _U64(31))) >> _U64(11)) * 2.0 ** -53


def derive_seed(base_seed: int, *path: int) -> int:
    """Collapse (base_seed, *path) into a single 64-bit seed.

    Used by the sweep engine: repetition r at grid point g runs with
    ``derive_seed(base_seed, g, r)``, so every run's seed is a pure,
    stable function of the experiment configuration.
    """
    ss = np.random.SeedSequence([int(base_seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, dtype=_U64)[0])
