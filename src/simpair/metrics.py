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
from collections import Counter

import numpy as np

from .communities import DetectionResult, Partition


def _labels(p) -> np.ndarray:
    if isinstance(p, Partition):
        return p.labels
    return np.asarray(p)


def _entropy_from_counts(counts, n: int) -> float:
    return -math.fsum((c / n) * math.log2(c / n) for c in counts if c)


def entropy(p) -> float:
    """Shannon entropy of the community-size distribution, in bits."""
    labels = _labels(p)
    n = len(labels)
    if n == 0:
        raise ValueError("empty partition")
    counts = [c for _, c in sorted(Counter(labels.tolist()).items())]
    return _entropy_from_counts(counts, n)


def joint_entropy(x, y) -> float:
    """Entropy of the paired labels, in bits."""
    lx, ly = _labels(x), _labels(y)
    if len(lx) != len(ly):
        raise ValueError(f"partitions cover different node sets ({len(lx)} vs {len(ly)})")
    cells = Counter(zip(lx.tolist(), ly.tolist()))
    counts = [c for _, c in sorted(cells.items())]
    return _entropy_from_counts(counts, len(lx))


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


def _size_summary(sizes: list[int]) -> dict:
    if not sizes:
        return {"min": None, "max": None, "mean": None, "histogram": {}}
    hist = Counter(sizes)
    return {
        "min": min(sizes),
        "max": max(sizes),
        "mean": sum(sizes) / len(sizes),
        "histogram": {int(k): int(v) for k, v in sorted(hist.items())},
    }


def partition_stats(result: DetectionResult) -> dict:
    """Counts and size distributions of a detection result.

    The real-community count includes unassigned nodes as singletons (they
    are communities of the real-level partition); the core count covers
    only cores actually grown from pairs. ``tides`` counts every bridging
    event (equal to ``tide_events``); ``tide_merges`` counts only the
    events that merged two real components.
    """
    core_sizes = [len(c.members) for c in result.cores]
    real_sizes = [len(r.members) for r in result.reals] + [1] * len(result.unassigned)
    return {
        "n_nodes": result.n_nodes,
        "cores": len(result.cores),
        "reals": len(result.reals) + len(result.unassigned),
        "tides": len(result.tides),
        "tide_events": len(result.tides),
        "tide_merges": result.tide_merges,
        "unassigned": len(result.unassigned),
        "core_sizes": _size_summary(core_sizes),
        "real_sizes": _size_summary(real_sizes),
    }
