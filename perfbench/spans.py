"""In-memory span tracing around the package's public functions.

The tracer replaces a function at the module attribute its caller looks
up (``simpair.pipeline.build_similarity_matrix`` is what ``detect`` calls,
``simpair.selection.node_stream`` is what the selectors call), records one
span per call and puts the original back on ``uninstall``. Spans are kept
in memory as (id, name, start, end, parent, op) and written out once the
run is over. A span's layer is the part of its name before the first dot.

A binding that no longer exists (a module or attribute renamed by a
refactor) is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

SETUP_OP = -1
BOOKKEEPING = "trace.bookkeeping"


@dataclass(frozen=True)
class Binding:
    """Wrap ``module.attr`` (``attr`` may be ``Class.method``) as span ``name``.

    ``count`` receives (tracer, args, kwargs, result) after the span has
    closed; its time is recorded as a bookkeeping span so that it is not
    charged to the caller's self time.
    """

    name: str
    module: str
    attr: str
    count: Callable | None = None


def _count_similarity(tr, args, kwargs, sim):
    values = sim.values
    tr.add("similarity.nnz_out", int(np.count_nonzero(values)))
    tr.add("similarity.bytes_out", int(values.nbytes))


def _count_pairs(tr, args, kwargs, pairs):
    sim = args[0] if args else kwargs["s"]
    tr.add("selection.pairs", len(pairs))
    tr.add("selection.nodes", int(sim.n_nodes))


def _count_communities(tr, args, kwargs, result):
    tr.add("communities.tide_events", len(result.tides))
    tr.add("communities.tide_merges", int(result.tide_merges))


def _count_coarse(tr, args, kwargs, matrix):
    tr.add("communities.coarse_nodes", int(matrix.n_nodes))


def _count_levels(tr, args, kwargs, detection):
    tr.add("pipeline.levels_run", int(detection.provenance["levels_run"]))


def _count_read(tr, args, kwargs, matrix):
    tr.add("io.read_citations.bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def _count_write(tr, args, kwargs, result):
    tr.add("io.write.bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def _bindings() -> list[Binding]:
    b = []
    # entry points the benchmark itself calls, through the module attribute
    b += [Binding("cli.main", "simpair.cli", "main"),
          Binding("pipeline.detect", "simpair.pipeline", "detect", _count_levels),
          Binding("io.read_citations", "simpair.io", "read_citations", _count_read)]
    for fn in ("run_probability_sweep", "run_topn_sweep", "run_deletion_sweep"):
        b.append(Binding(f"sweeps.{fn}", "simpair.sweeps", fn))
    # cli -> io, pipeline, metrics
    b += [Binding("cli.build_parser", "simpair.cli", "build_parser"),
          Binding("io.read_citations", "simpair.cli", "read_citations", _count_read),
          Binding("pipeline.detect", "simpair.cli", "detect", _count_levels),
          Binding("metrics.partition_stats", "simpair.cli", "partition_stats")]
    for fn in ("write_detection_json", "write_partition", "write_pairs"):
        b.append(Binding("io.write", "simpair.cli", fn, _count_write))
    # io -> citations
    b.append(Binding("citations.from_entries", "simpair.io", "CitationMatrix.from_entries"))
    # pipeline and sweeps -> similarity, selection, communities, metrics, rng
    for mod in ("simpair.pipeline", "simpair.sweeps"):
        b += [Binding("similarity.build_similarity_matrix", mod, "build_similarity_matrix",
                      _count_similarity),
              Binding("selection.select_pairs", mod, "select_pairs", _count_pairs),
              Binding("communities.build_communities", mod, "build_communities",
                      _count_communities),
              Binding("communities.extract_partition", mod, "extract_partition"),
              Binding("metrics.partition_stats", mod, "partition_stats")]
    b.append(Binding("communities.renormalize", "simpair.pipeline", "renormalize", _count_coarse))
    b += [Binding("pipeline.detect", "simpair.sweeps", "detect", _count_levels),
          Binding("metrics.nmi", "simpair.sweeps", "nmi"),
          Binding("rng.derive_seed", "simpair.sweeps", "derive_seed")]
    # select_pairs -> strategies -> rng
    for fn in ("select_max", "select_psim", "select_random", "select_mixed",
               "apply_random_deletion"):
        b.append(Binding(f"selection.{fn}", "simpair.selection", fn))
    b.append(Binding("rng.node_stream", "simpair.selection", "node_stream"))
    return b


BINDINGS = _bindings()


def _resolve(binding: Binding):
    """Return (owner, attribute name, raw attribute) or None if absent."""
    try:
        owner = importlib.import_module(binding.module)
    except ImportError:
        return None
    *path, last = binding.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
    if raw is None or not callable(getattr(owner, last)):
        return None
    return owner, last, raw


class Tracer:
    """Span recorder for one process; single-threaded callers only."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = SETUP_OP
        self.absent: list[str] = []
        self._stack: list[int] = [-1]
        self._restore: list[tuple] = []

    def add(self, counter: str, value) -> None:
        self.counts[counter] += value

    def span(self, name: str, start: float, end: float, parent: int) -> int:
        sid = len(self.spans)
        self.spans.append((sid, name, start, end, parent, self.op))
        return sid

    def timed(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; children nest under it."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent, self.op)

    def _wrap(self, binding: Binding, fn: Callable) -> Callable:
        tracer, name, count = self, binding.name, binding.count

        def traced(*args, **kwargs):
            result = tracer.timed(name, fn, *args, **kwargs)
            if count is not None:
                t0 = time.perf_counter()
                count(tracer, args, kwargs, result)
                tracer.span(BOOKKEEPING, t0, time.perf_counter(), tracer._stack[-1])
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, bindings: list[Binding] = BINDINGS) -> None:
        for binding in bindings:
            found = _resolve(binding)
            if found is None:
                self.absent.append(f"{binding.module}.{binding.attr}")
                continue
            owner, last, raw = found
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(binding, raw.__func__))
            else:
                wrapped = self._wrap(binding, raw)
            setattr(owner, last, wrapped)
            self._restore.append((owner, last, raw))

    def uninstall(self) -> None:
        while self._restore:
            owner, last, raw = self._restore.pop()
            setattr(owner, last, raw)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def self_times(spans: list[tuple]) -> list[float]:
    """Self time of every span: its duration minus the union of its children.

    ``spans`` are (id, name, start, end, parent, op) with ids 0..n-1 and
    parent -1 for roots. Child intervals are clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        lo_seen = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, lo_seen), min(hi, end)
            if hi > lo:
                covered += hi - lo
                lo_seen = hi
        out.append((end - start) - covered)
    return out
