"""Partition comparison and detection-result statistics.

:func:`partition_stats` summarises one level of detection; the shared
single-level pass (``pipeline._level``) records it for ``detect``,
``detect_from_pairs`` and every sweep run. :func:`nmi` scores sweep runs
against their reference.

Entropies are in bits and summed with math.fsum, which is exactly rounded
and therefore order-independent: nmi(x, x) is exactly 1.0, nmi(x, y) is
exactly nmi(y, x), and relabeling either argument changes nothing.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .communities import CORE, REAL, DetectionResult, Partition


def _labels(p) -> np.ndarray:
    if isinstance(p, Partition):
        return p.labels
    return np.asarray(p)


def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    # math.log2, not np.log2, which differs from it in the last bit for some inputs
    shares = (counts / n).tolist()
    return -math.fsum(map(mul, shares, map(math.log2, shares)))


def entropy(p) -> float:
    """Shannon entropy of the community-size distribution, in bits."""
    labels = _labels(p)
    if len(labels) == 0:
        raise ValueError("empty partition")
    return _entropy_from_counts(np.unique(labels, return_counts=True)[1], len(labels))


def joint_entropy(x, y) -> float:
    """Entropy of the paired labels, in bits."""
    lx, ly = _labels(x), _labels(y)
    if len(lx) != len(ly):
        raise ValueError(f"partitions cover different node sets ({len(lx)} vs {len(ly)})")
    # dense codes for each side, then one code per (x, y) cell
    cx = np.unique(lx, return_inverse=True)[1]
    cy = np.unique(ly, return_inverse=True)[1]
    cells = np.unique(cx * (cy.max(initial=0) + 1) + cy, return_counts=True)[1]
    return _entropy_from_counts(cells, len(lx))


def nmi(x, y) -> float:
    """Normalized mutual information with arithmetic-mean normalization.

    (H(X) + H(Y) - H(X,Y)) / ((H(X) + H(Y)) / 2), in [0, 1]. Two trivial
    single-community partitions compare as identical, giving 1.0.
    """
    hx, hy = entropy(x), entropy(y)
    if hx == 0.0 and hy == 0.0:
        return 1.0
    hxy = joint_entropy(x, y)
    return (hx + hy - hxy) / ((hx + hy) / 2.0)


def _size_summary(sizes: np.ndarray) -> dict:
    if not len(sizes):
        return {"min": None, "max": None, "mean": None, "histogram": {}}
    values, counts = np.unique(sizes, return_counts=True)
    return {
        "min": int(values[0]),
        "max": int(values[-1]),
        "mean": int(sizes.sum()) / len(sizes),
        "histogram": dict(zip(values.tolist(), counts.tolist())),
    }


def partition_stats(result: DetectionResult) -> dict:
    """Counts and size distributions of a detection result.

    The real-community count includes unassigned nodes as singletons (they
    are communities of the real-level partition); the core count covers
    only cores actually grown from pairs. ``tides`` counts every bridging
    event (equal to ``tide_events``); ``tide_merges`` counts only the
    events that merged two real components.
    """
    loose = len(result.unassigned)
    real_sizes = np.bincount(result.owners(REAL))
    return {
        "n_nodes": result.n_nodes,
        "cores": len(result.real),
        "reals": len(real_sizes) + loose,
        "tides": len(result.tides),
        "tide_events": len(result.tides),
        "tide_merges": result.tide_merges,
        "unassigned": loose,
        "core_sizes": _size_summary(np.bincount(result.owners(CORE))),
        "real_sizes": _size_summary(np.concatenate([real_sizes, np.ones(loose, np.int64)])),
    }
