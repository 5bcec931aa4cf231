"""Row and column forms of a ranked pair list, shared by the tests.

The package passes pairs as three columns (selector, selected,
similarity), ``pairs_to_tsv`` and ``write_pairs`` included; the
``Detection.pairs`` view iterates them as plain tuples. ``Row`` names a
row's fields for the tests' readability and equals the same plain tuple.
"""

from typing import NamedTuple

import numpy as np


class Row(NamedTuple):
    selector: int
    selected: int
    similarity: float


def columns(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(selector, selected, similarity) rows as int64, int64 and float64 columns."""
    rows = list(rows)
    return (np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=np.int64),
            np.array([r[2] for r in rows], dtype=np.float64))


def rows(pairs) -> list[Row]:
    """The three pair columns as ``Row`` rows."""
    return list(map(Row, *(col.tolist() for col in pairs)))
