"""Seeded planted-block citation inputs, owned by the benchmark.

The benchmark draws its own inputs instead of calling
``simpair.synthetic``, so a rewrite of the package's generator cannot move
what the workloads measure. The draw is O(volume): every citation picks an
in-block or a cross-block ordered pair directly, and ``np.unique`` sums
repeats into edge counts. No N x N array is formed.

Block sizes are equal, so every node has the same number of in-block and of
cross-block partners, and uniform draws within each class give every
ordered off-diagonal pair of a class the same weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BlockSpec:
    """``n_blocks`` blocks of ``block_size`` nodes; rates are per ordered pair."""

    n_blocks: int
    block_size: int
    volume: int
    in_rate: float = 10.0
    cross_rate: float = 0.0

    @property
    def n_nodes(self) -> int:
        return self.n_blocks * self.block_size

    def truth(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_blocks), self.block_size)


def draw_edges(spec: BlockSpec, seed: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (src, dst, count) arrays, sorted by (src, dst), counts >= 1."""
    n, s = spec.n_nodes, spec.block_size
    rng = np.random.default_rng(np.random.SeedSequence(list(seed)))
    in_weight = spec.in_rate * n * (s - 1)
    cross_weight = spec.cross_rate * n * (n - s)
    n_cross = int(rng.binomial(spec.volume, cross_weight / (in_weight + cross_weight)))
    n_in = spec.volume - n_cross

    # in-block: uniform source, uniform other node of the same block
    src_in = rng.integers(n, size=n_in)
    off = rng.integers(s - 1, size=n_in)
    base = (src_in // s) * s
    off += off >= src_in - base
    dst_in = base + off

    # cross-block: uniform source, uniform node outside its block
    src_x = rng.integers(n, size=n_cross)
    dst_x = rng.integers(n - s, size=n_cross)
    dst_x += (dst_x >= (src_x // s) * s) * s

    keys = np.concatenate([src_in * n + dst_in, src_x * n + dst_x])
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq // n, uniq % n, counts


def edges_tsv(src: np.ndarray, dst: np.ndarray, count: np.ndarray) -> bytes:
    """The `edges` input format: ``src<TAB>dst<TAB>count`` per line."""
    return "".join(
        f"{a}\t{b}\t{c}\n" for a, b, c in zip(src.tolist(), dst.tolist(), count.tolist())
    ).encode("ascii")


def write_input(path, spec: BlockSpec, seed: tuple[int, ...]) -> dict:
    """Write one edge-list TSV; return its size record."""
    src, dst, count = draw_edges(spec, seed)
    data = edges_tsv(src, dst, count)
    with open(path, "wb") as fh:
        fh.write(data)
    return {
        "path": str(path),
        "n_nodes": spec.n_nodes,
        "edges": int(len(src)),
        "file_bytes": len(data),
        "citations": int(count.sum()),
    }
