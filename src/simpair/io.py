"""File formats: edge lists, dense count grids, pair lists, partitions, results.

Two input formats are accepted:

* edges - tab-separated ``src<TAB>dst<TAB>count`` lines. Node ids may be
  0-based integers or arbitrary labels; if any id fails to parse as an
  integer, all ids are treated as labels and mapped to dense indices in
  first-seen order (the mapping travels with the results).
* dense - N lines of N comma-separated nonnegative integer counts.

Blank lines and ``#`` comments are ignored everywhere. Similarities are
printed with six decimal digits (round-half-even).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .citations import CitationMatrix
from .communities import Partition
from .pipeline import Detection
from .selection import RankedPair


class InputFormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


def _content_lines(path) -> list[tuple[int, str]]:
    lines = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                lines.append((lineno, line))
    except UnicodeDecodeError as exc:
        # text mode decodes in chunks, so find the offending line itself
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    exc = bad
                    break
        raise InputFormatError(
            f"{path}:{lineno}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return lines


def read_edges(path) -> CitationMatrix:
    """Read format `edges`; returns a matrix sized to the ids seen."""
    rows = []
    for lineno, line in _content_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputFormatError(
                f"{path}:{lineno}: expected 'src<TAB>dst<TAB>count', got {line!r}")
        rows.append((lineno, parts[0], parts[1], parts[2]))
    if not rows:
        raise InputFormatError(f"{path}: no edges found")

    def try_int(tok):
        try:
            v = int(tok)
        except ValueError:
            return None
        return v if v >= 0 else None

    all_int = all(try_int(src) is not None and try_int(dst) is not None
                  for _, src, dst, _ in rows)
    entries = []
    labels = None
    if all_int:
        for lineno, src, dst, cnt in rows:
            entries.append((int(src), int(dst), _parse_count(path, lineno, cnt)))
        n = max(max(s, d) for s, d, _ in entries) + 1
    else:
        index: dict[str, int] = {}
        for lineno, src, dst, cnt in rows:
            for tok in (src, dst):
                if tok not in index:
                    index[tok] = len(index)
            entries.append((index[src], index[dst], _parse_count(path, lineno, cnt)))
        n = len(index)
        labels = list(index)
    return CitationMatrix.from_entries(n, entries, labels)


def _parse_count(path, lineno, tok) -> int:
    try:
        count = int(tok)
    except ValueError:
        raise InputFormatError(f"{path}:{lineno}: count {tok!r} is not an integer") from None
    if count < 0:
        raise InputFormatError(f"{path}:{lineno}: count must be nonnegative, got {count}")
    return count


def read_dense(path) -> CitationMatrix:
    """Read format `dense`: a square comma-separated grid of counts."""
    lines = _content_lines(path)
    if not lines:
        raise InputFormatError(f"{path}: no rows found")
    grid = []
    for lineno, line in lines:
        row = []
        for tok in line.split(","):
            row.append(_parse_count(path, lineno, tok.strip()))
        grid.append((lineno, row))
    n = len(grid)
    for lineno, row in grid:
        if len(row) != n:
            raise InputFormatError(
                f"{path}:{lineno}: expected {n} columns to match {n} rows, got {len(row)}")
    return CitationMatrix.from_dense(np.array([r for _, r in grid], dtype=np.int64))


def read_citations(path, fmt: str) -> CitationMatrix:
    if fmt == "edges":
        return read_edges(path)
    if fmt == "dense":
        return read_dense(path)
    raise ValueError(f"unknown input format {fmt!r}")


def format_similarity(value: float) -> str:
    return f"{value:.6f}"


def pairs_to_tsv(pairs: list[RankedPair]) -> str:
    return "".join(
        f"{p.selector}\t{p.selected}\t{format_similarity(p.similarity)}\n" for p in pairs
    )


def write_pairs(path, pairs: list[RankedPair]) -> None:
    Path(path).write_text(pairs_to_tsv(pairs), encoding="utf-8")


def read_pairs(path, n_nodes: int | None = None) -> tuple[list[RankedPair], list[str] | None]:
    """Read a pair-list TSV; same integer-vs-label id rule as edge lists.

    Returns the pairs (in file order, unsorted) and the label mapping when
    labels were used. With ``n_nodes`` set, a pair whose node index is not
    below it is an input error on its line.
    """
    rows = []
    for lineno, line in _content_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputFormatError(
                f"{path}:{lineno}: expected 'selector<TAB>selected<TAB>similarity', got {line!r}")
        try:
            sim = float(parts[2])
        except ValueError:
            raise InputFormatError(
                f"{path}:{lineno}: similarity {parts[2]!r} is not a number") from None
        rows.append((lineno, parts[0], parts[1], sim))
    if not rows:
        raise InputFormatError(f"{path}: no pairs found")

    def is_id(tok):
        return tok.isdigit()

    pairs = []
    labels = None
    if all(is_id(a) and is_id(b) for _, a, b, _ in rows):
        pairs = [RankedPair(int(a), int(b), sim) for _, a, b, sim in rows]
    else:
        index: dict[str, int] = {}
        for _, a, b, sim in rows:
            for tok in (a, b):
                if tok not in index:
                    index[tok] = len(index)
            pairs.append(RankedPair(index[a], index[b], sim))
        labels = list(index)
    if n_nodes is not None:
        for (lineno, *_), p in zip(rows, pairs):
            if max(p.selector, p.selected) >= n_nodes:
                raise InputFormatError(
                    f"{path}:{lineno}: node index {max(p.selector, p.selected)} "
                    f"is not below the node count {n_nodes}")
    return pairs, labels


def partition_to_tsv(p: Partition, node_labels: list[str] | None = None) -> str:
    names = node_labels if node_labels is not None else range(p.n_nodes)
    return "".join(f"{name}\t{label}\n" for name, label in zip(names, p.labels))


def write_partition(path, p: Partition, node_labels: list[str] | None = None) -> None:
    Path(path).write_text(partition_to_tsv(p, node_labels), encoding="utf-8")


def detection_to_json(d: Detection, node_labels: list[str] | None = None,
                      stats: dict | None = None) -> str:
    def name(v: int):
        return node_labels[v] if node_labels is not None else v

    r = d.result
    payload = {
        "n_nodes": r.n_nodes,
        "provenance": d.provenance,
        "cores": [[name(v) for v in c.members] for c in r.cores],
        "reals": [[name(v) for v in rc.members] for rc in r.reals],
        "tides": [
            [name(t.pair.selector), name(t.pair.selected), t.core_a, t.core_b]
            for t in r.tides
        ],
        "unassigned": [name(v) for v in r.unassigned],
        "levels": d.level_stats,
    }
    if len(d.level_stats) > 1:
        payload["final_core_communities"] = _groups(d.core.labels, name)
        payload["final_real_communities"] = _groups(d.real.labels, name)
    if node_labels is not None:
        payload["node_labels"] = list(node_labels)
    if stats is not None:
        payload["stats"] = stats
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _groups(labels: np.ndarray, name) -> list[list]:
    out: list[list] = [[] for _ in range(int(labels.max()) + 1)] if len(labels) else []
    for v, lbl in enumerate(labels):
        out[int(lbl)].append(name(v))
    return out


def write_detection_json(path, d: Detection, node_labels=None, stats=None) -> None:
    Path(path).write_text(detection_to_json(d, node_labels, stats), encoding="utf-8")
