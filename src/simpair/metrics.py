"""Partition comparison and detection-result statistics.

:func:`partition_stats` summarises one level of detection: it is the
``stats`` of each ``pipeline.Level``, which ``Detection.level_stats``
numbers for ``result.json``. :func:`nmi` compares two partitions. It is the
one-run case of ``_nmi_rows``, which scores many runs against one
reference partition: each run's dense labels get a code range of their
own, community sizes are one ``np.bincount`` over all runs, the joint cells
are one sort, and the reference's codes and entropy (``_reference``) are
computed once. Sweeps score all their runs that way.

Entropies are in bits and summed with math.fsum, which is exactly rounded
and therefore order-independent: nmi(x, x) is exactly 1.0, nmi(x, y) is
exactly nmi(y, x), and relabeling either argument changes nothing. Each
term is ``share * math.log2(share)``; equal community sizes give equal
terms, so each distinct size's term is computed once.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from .communities import CORE, REAL, DetectionResult, Partition


def _codes(p) -> np.ndarray:
    """A partition's labels as dense codes from 0, in label order."""
    labels = p.labels if isinstance(p, Partition) else np.asarray(p)
    if len(labels) == 0:
        raise ValueError("empty partition")
    return np.unique(labels, return_inverse=True)[1]


def _entropies(sizes: np.ndarray, ends: list[int], n: int) -> list[float]:
    """The entropy, in bits, of each group ``sizes[ends[g - 1]:ends[g]]`` of
    community sizes over ``n`` nodes (the first group starts at 0)."""
    seen = np.bincount(sizes)
    distinct = np.flatnonzero(seen)
    # math.log2, not np.log2, which differs from it in the last bit for some inputs
    shares = (distinct / n).tolist()
    term = np.zeros(len(seen))
    term[distinct] = list(map(mul, shares, map(math.log2, shares)))
    terms = term[sizes]
    return [-math.fsum(terms[start:end].tolist()) for start, end in zip([0, *ends], ends)]


def _reference(p) -> tuple[np.ndarray, float]:
    """A partition's dense codes and its entropy, to score runs against."""
    codes = _codes(p)
    sizes = np.bincount(codes)
    return codes, _entropies(sizes, [len(sizes)], len(codes))[0]


def _cells(codes: np.ndarray, ref: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """How many nodes each distinct (code, ref) cell of paired dense codes
    holds, by increasing code then ref, and where each of the code ranges
    that ``ends`` closes ends among them."""
    width = int(ref.max()) + 1
    cells = np.sort((codes * width + ref).ravel())
    starts = np.flatnonzero(np.diff(cells, prepend=-1))
    return (np.diff(starts, append=len(cells)),
            np.searchsorted(cells[starts], ends * width).tolist())


def _nmi_rows(rows: np.ndarray, ref: np.ndarray, h_ref: float) -> list[float]:
    """The NMI of each row of ``rows`` against ``ref``, whose entropy is
    ``h_ref``. Each row and ``ref`` hold dense codes from 0 over the same
    nodes. Row r's codes are shifted past those of the rows before it, so
    one bincount gives every row's community sizes and one sort every
    row's joint cells."""
    n = rows.shape[1]
    n_labels = rows.max(axis=1) + 1
    ends = np.cumsum(n_labels)
    codes = rows + (ends - n_labels)[:, None]
    h = _entropies(np.bincount(codes.ravel()), ends.tolist(), n)
    h_joint = _entropies(*_cells(codes, ref, ends), n)
    return [1.0 if hx == 0.0 and h_ref == 0.0 else (hx + h_ref - hxy) / ((hx + h_ref) / 2.0)
            for hx, hxy in zip(h, h_joint)]


def entropy(p) -> float:
    """Shannon entropy of the community-size distribution, in bits."""
    return _reference(p)[1]


def joint_entropy(x, y) -> float:
    """Entropy of the paired labels, in bits."""
    cx, cy = _codes(x), _codes(y)
    if len(cx) != len(cy):
        raise ValueError(f"partitions cover different node sets ({len(cx)} vs {len(cy)})")
    return _entropies(*_cells(cx, cy, cx.max(keepdims=True) + 1), len(cx))[0]


def nmi(x, y) -> float:
    """Normalized mutual information with arithmetic-mean normalization.

    (H(X) + H(Y) - H(X,Y)) / ((H(X) + H(Y)) / 2), in [0, 1]. Two trivial
    single-community partitions compare as identical, giving 1.0.
    """
    cx, (cy, hy) = _codes(x), _reference(y)
    if len(cx) != len(cy):
        raise ValueError(f"partitions cover different node sets ({len(cx)} vs {len(cy)})")
    return _nmi_rows(cx[None], cy, hy)[0]


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
