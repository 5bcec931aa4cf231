"""File formats: edge lists, dense count grids, pair lists, partitions, results.

Two input formats are accepted:

* edges - tab-separated ``src<TAB>dst<TAB>count`` lines. Node ids may be
  0-based integers or arbitrary labels; unless every id is ASCII digits,
  all ids are treated as labels and mapped to dense indices in first-seen
  order (the mapping travels with the results). Integer ids must be
  dense: at least half of ``0..max id`` must occur. Counts, and the
  file's total of counts, must fit in int64. A file that is
  nothing but lines of three 1-18 digit fields is parsed by numpy, a
  chunk of lines at a time, straight into the int64 ``src``, ``dst`` and
  ``count`` columns that :meth:`CitationMatrix.from_entries` takes; any
  other file is read line by line into the same columns, and both paths
  share the checks above.
* dense - N lines of N comma-separated nonnegative integer counts, whose
  total must fit in int64 too.

Pair lists (``selector<TAB>selected<TAB>similarity``) follow the same id
rules unless a node count is given, and hold no pairs only with one.
They are read into and written from the three ``Pairs`` columns (rows
exist only in the ``Detection.pairs`` view), similarities printed with six
decimal digits (round-half-even). In both formats an empty id field is an
input error. Blank lines, ``#`` comments and a leading UTF-8 byte order
mark are ignored everywhere.

TSV outputs are formatted from each column's ``.tolist()``, and
``result.json`` is exactly ``json.dumps(payload, indent=2, sort_keys=True)``
and a newline.
"""

from __future__ import annotations

import codecs
import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .citations import CitationMatrix
from .communities import CORE, REAL, Partition, grouped
from .pipeline import Detection
from .selection import Pairs


class InputFormatError(ValueError):
    """Malformed input file; message carries the offending line number."""


def _content_lines(path) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line that is not blank or a
    comment; a generator, so no reader holds all of a file's lines."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
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


def _triples(path, layout: str, what: str | None) -> list[tuple[int, str, str, str]]:
    """The (line number, field, field, field) rows of a three-column TSV of
    at least one ``what``, or of any number when ``what`` is None."""
    rows = []
    for lineno, line in _content_lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise InputFormatError(f"{path}:{lineno}: expected '{layout}', got {line!r}")
        if not (parts[0] and parts[1]):
            raise InputFormatError(f"{path}:{lineno}: empty node id")
        rows.append((lineno, *parts))
    if not rows and what is not None:
        raise InputFormatError(f"{path}: no {what} found")
    return rows


def _id_columns(rows) -> tuple[np.ndarray, np.ndarray, list[str] | None]:
    """The two id columns of ``_triples`` rows, and the labels if any: ids are
    integers only when every token is ASCII digits, kept as Python ints that
    may pass int64 until the id checks; otherwise all of them are labels,
    indexed in first-seen order."""
    tokens = [tok for _, a, b, _ in rows for tok in (a, b)]
    if all(tok.isascii() and tok.isdigit() for tok in tokens):
        ids, labels = np.array([int(tok) for tok in tokens], dtype=object), None
    else:
        index: dict[str, int] = {}
        ids = np.array([index.setdefault(tok, len(index)) for tok in tokens])
        labels = list(index)
    return ids[0::2], ids[1::2], labels


_INT64_MAX = int(np.iinfo(np.int64).max)
# the bytes that end the three fields of a digit-only edge line
_LINE_SEPS = np.frombuffer(b"\t\t\n", dtype=np.uint8)
_CHUNK = 1 << 20


def read_edges(path) -> CitationMatrix:
    """Read format `edges`; returns a matrix sized to the ids seen."""
    with open(path, "rb") as fh:
        columns = _digit_columns(fh.read().removeprefix(codecs.BOM_UTF8))
    if columns is not None:
        src, dst, counts = columns
        return _edge_matrix(path, range(1, len(counts) + 1), src, dst, counts)
    rows = _triples(path, "src<TAB>dst<TAB>count", "edges")
    counts = np.array([_parse_count(path, lineno, cnt) for lineno, _, _, cnt in rows],
                      dtype=np.int64)
    src, dst, labels = _id_columns(rows)
    return _edge_matrix(path, [lineno for lineno, *_ in rows], src, dst, counts, labels)


def _digit_columns(buf: bytes) -> np.ndarray | None:
    """The int64 src, dst and count columns, as the rows of one (3, L)
    array, of an edge file whose every line is three tab-separated fields
    of 1-18 ASCII digits (the last newline may be missing); None for any
    other file.

    The file is checked and parsed a chunk of whole lines at a time, so
    no per-byte array spans it.
    """
    if not buf:
        return None
    if not buf.endswith(b"\n"):
        buf += b"\n"
    view = np.frombuffer(buf, dtype=np.uint8)
    columns = np.empty((3, buf.count(b"\n")), dtype=np.int64)
    start = row = 0
    while start < len(buf):
        stop = buf.rfind(b"\n", start, start + _CHUNK) + 1
        if stop <= start:
            return None  # no line end in a whole chunk: not a short digit line
        chunk = view[start:stop]
        # below b"0", only separators may occur; the rest must be digits
        seps = np.flatnonzero(chunk < ord("0"))
        widths = np.diff(seps, prepend=-1) - 1
        if (chunk.max() > ord("9") or len(seps) % 3
                or not np.all(chunk[seps].reshape(-1, 3) == _LINE_SEPS)
                or widths.min() < 1 or widths.max() > 18):
            return None
        # 18 digits stay below 2**63, so every field parses exactly
        lines = len(seps) // 3
        columns[:, row:row + lines] = np.fromstring(
            buf[start:stop], dtype=np.int64, sep=" ", count=len(seps)).reshape(lines, 3).T
        start, row = stop, row + lines
    return columns


def _edge_matrix(path, linenos, src, dst, counts, labels=None) -> CitationMatrix:
    """The matrix of parsed edge columns, after the checks both readers
    share; entry ``i`` was read from line ``linenos[i]``."""
    n = len(labels) if labels is not None else _integer_node_count(path, linenos, src, dst)
    _check_count_total(path, counts, linenos.__getitem__)
    return CitationMatrix.from_entries(n, src, dst, counts, labels)


def _integer_node_count(path, linenos, src, dst) -> int:
    """max id + 1, when at least half of ``0..max id`` occur as ids.

    Nothing node-sized is allocated for a sparse id space: a file of L
    lines names at most 2L ids, so a max id past 4L fails uncounted.
    """
    top = max(src.max(), dst.max())
    n = int(top) + 1
    if n <= 4 * len(src):
        seen = np.zeros(n, dtype=bool)
        seen[src.astype(np.intp, copy=False)] = True
        seen[dst.astype(np.intp, copy=False)] = True
        if 2 * np.count_nonzero(seen) >= n:
            return n
    line = linenos[np.flatnonzero((src == top) | (dst == top))[0]]
    raise InputFormatError(
        f"{path}:{line}: node id {top} leaves more than half of the ids 0..{top} "
        f"unused; integer ids must be dense and 0-based")


def _check_count_total(path, counts, line_of) -> None:
    """Raise at the first line whose running total of ``counts`` passes
    int64 (entry ``i`` is on line ``line_of(i)``): every sum detection forms,
    a coarse entry or a community's diagonal, is part of that total."""
    if int(counts.max()) * len(counts) <= _INT64_MAX:
        return  # not even the sum of every count can overflow
    # each partial total up to the first one past int64 is exact in uint64
    over = np.flatnonzero(np.cumsum(counts, dtype=np.uint64) > np.uint64(_INT64_MAX))
    if len(over):
        raise InputFormatError(
            f"{path}:{line_of(int(over[0]))}: the counts up to this line sum past "
            f"the int64 maximum {_INT64_MAX}")


def _parse_count(path, lineno, tok) -> int:
    try:
        count = int(tok)
    except ValueError:
        raise InputFormatError(f"{path}:{lineno}: count {tok!r} is not an integer") from None
    if count < 0:
        raise InputFormatError(f"{path}:{lineno}: count must be nonnegative, got {count}")
    if count > _INT64_MAX:
        raise InputFormatError(
            f"{path}:{lineno}: count {count} is above the int64 maximum {_INT64_MAX}")
    return count


def read_dense(path) -> CitationMatrix:
    """Read format `dense`: a square comma-separated grid of counts."""
    grid = [(lineno, [_parse_count(path, lineno, tok.strip()) for tok in line.split(",")])
            for lineno, line in _content_lines(path)]
    if not grid:
        raise InputFormatError(f"{path}: no rows found")
    n = len(grid)
    for lineno, row in grid:
        if len(row) != n:
            raise InputFormatError(
                f"{path}:{lineno}: expected {n} columns to match {n} rows, got {len(row)}")
    counts = np.array([r for _, r in grid], dtype=np.int64)
    _check_count_total(path, counts.ravel(), lambda i: grid[i // n][0])
    return CitationMatrix.from_dense(counts)


def read_citations(path, fmt: str) -> CitationMatrix:
    if fmt == "edges":
        return read_edges(path)
    if fmt == "dense":
        return read_dense(path)
    raise ValueError(f"unknown input format {fmt!r}")


def pairs_to_tsv(pairs: Pairs) -> str:
    return "".join(map("{}\t{}\t{:.6f}\n".format, *(col.tolist() for col in pairs)))


def write_pairs(path, pairs: Pairs) -> None:
    Path(path).write_text(pairs_to_tsv(pairs), encoding="utf-8")


def read_pairs(path, n_nodes: int | None = None) -> tuple[Pairs, int, list[str] | None]:
    """Read a pair-list TSV; same integer-vs-label id rule as edge lists.

    Returns the pair columns in file order, the node count and the labels
    if any. Similarities must be finite, a line's ids must differ, and
    integer ids must be below ``n_nodes`` or, without it, pass the edge
    files' id-space rule, which a file of no pairs fails; labels count one
    node each, whatever ``n_nodes``.
    """
    rows = _triples(path, "selector<TAB>selected<TAB>similarity",
                    "pairs" if n_nodes is None else None)
    sims = np.array([_parse_similarity(path, lineno, tok) for lineno, _, _, tok in rows])
    selector, selected, labels = _id_columns(rows)
    if labels is not None:
        n_nodes = len(labels)
    elif n_nodes is None:
        n_nodes = _integer_node_count(path, [lineno for lineno, *_ in rows], selector, selected)
    top = np.maximum(selector, selected)
    bad = np.flatnonzero((selector == selected) | (top >= n_nodes) | (top > _INT64_MAX))
    if len(bad):
        i = bad[0]
        lineno, tok = rows[i][:2]
        if selector[i] == selected[i]:
            raise InputFormatError(f"{path}:{lineno}: node {tok!r} is paired with itself")
        if top[i] >= n_nodes:
            raise InputFormatError(
                f"{path}:{lineno}: node index {top[i]} is not below the node count {n_nodes}")
        raise InputFormatError(
            f"{path}:{lineno}: node id {top[i]} is above the int64 maximum {_INT64_MAX}")
    return (selector.astype(np.int64), selected.astype(np.int64), sims), n_nodes, labels


def _parse_similarity(path, lineno, tok) -> float:
    try:
        sim = float(tok)
    except ValueError:
        raise InputFormatError(
            f"{path}:{lineno}: similarity {tok!r} is not a number") from None
    if not math.isfinite(sim):
        raise InputFormatError(f"{path}:{lineno}: similarity {tok!r} is not finite")
    return sim


def partition_to_tsv(p: Partition, node_labels: list[str] | None = None) -> str:
    names = node_labels if node_labels is not None else range(p.n_nodes)
    return "".join(map("{}\t{}\n".format, names, p.labels.tolist()))


def write_partition(path, p: Partition, node_labels: list[str] | None = None) -> None:
    Path(path).write_text(partition_to_tsv(p, node_labels), encoding="utf-8")


def detection_to_json(d: Detection, node_labels: list[str] | None = None,
                      stats: dict | None = None) -> str:
    def name(v: int):
        return node_labels[v] if node_labels is not None else v

    def named(groups: list[list[int]]) -> list[list]:
        return groups if node_labels is None else [list(map(name, g)) for g in groups]

    r = d.result
    payload = {
        "n_nodes": r.n_nodes,
        "provenance": d.provenance,
        "cores": named(r.member_lists(CORE)),
        "reals": named(r.member_lists(REAL)),
        "tides": [[name(a), name(b), core_a, core_b]
                  for a, b, core_a, core_b in r.tides.tolist()],
        "unassigned": [name(v) for v in r.unassigned.tolist()],
        "levels": d.level_stats,
    }
    if len(d.level_stats) > 1:
        nodes = np.arange(r.n_nodes)
        payload["final_core_communities"] = named(grouped(d.core.labels, nodes))
        payload["final_real_communities"] = named(grouped(d.real.labels, nodes))
    if node_labels is not None:
        payload["node_labels"] = list(node_labels)
    if stats is not None:
        payload["stats"] = stats
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_detection_json(path, d: Detection, node_labels=None, stats=None) -> None:
    Path(path).write_text(detection_to_json(d, node_labels, stats), encoding="utf-8")
