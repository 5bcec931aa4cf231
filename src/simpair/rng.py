"""Deterministic random-stream derivation.

All randomness in this package comes from numpy's counter-based Philox
generator (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011), keyed through ``numpy.random.SeedSequence``. There is one
stream per (seed, purpose), and node ``i`` reads element ``i`` of it:

* partner draw for node ``i``  -> element i of random(n) on (seed, PARTNER_STREAM)
* strategy gate for node ``i`` -> element i of random(n) on (seed, GATE_STREAM)
* deletion keys for row ``i``  -> row i of random((n, n)) on (seed, MASK_STREAM)
* sweep repetition ``r`` at grid ``g`` -> SeedSequence([base, g, r])

Drawing a stream in consecutive pieces yields the same numbers as one
whole draw, so row blocks of the deletion keys can be read in turn. A
node's draw depends only on (seed, purpose, node), never on which other
nodes ask or in what order; the partner and gate streams are separate,
which keeps mixture boundaries exact.
"""

from __future__ import annotations

import numpy as np

PARTNER_STREAM = 0
GATE_STREAM = 1
MASK_STREAM = 2

_U64 = np.uint64


def stream(seed: int, purpose: int) -> np.random.Generator:
    """The Philox generator for one (seed, purpose) pair."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed), int(purpose)])))


def derive_seed(base_seed: int, *path: int) -> int:
    """Collapse (base_seed, *path) into a single 64-bit seed.

    Used by the sweep engine: repetition r at grid point g runs with
    ``derive_seed(base_seed, g, r)``, so every run's seed is a pure,
    stable function of the experiment configuration.
    """
    ss = np.random.SeedSequence([int(base_seed), *[int(p) for p in path]])
    return int(ss.generate_state(1, dtype=_U64)[0])
