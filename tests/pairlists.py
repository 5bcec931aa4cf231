"""Row and column forms of a ranked pair list, shared by the tests.

The package passes pairs as three columns (selector, selected,
similarity), ``pairs_to_tsv`` and ``write_pairs`` included; only the
``Detection.pairs`` view hands out ``RankedPair`` rows.
"""

import numpy as np

from simpair import RankedPair


def columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(selector, selected, similarity) rows as int64, int64 and float64 columns."""
    rows = list(rows)
    return (np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=np.int64),
            np.array([r[2] for r in rows], dtype=np.float64))


def rows(pairs) -> list[RankedPair]:
    """The three pair columns as ``RankedPair`` rows."""
    return list(map(RankedPair, *(col.tolist() for col in pairs)))
