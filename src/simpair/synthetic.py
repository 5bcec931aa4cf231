"""Planted-partition citation matrices for benchmarking.

Real citation datasets with known communities are rarely shareable, so
experiments run against synthetic matrices with a planted block structure:
citations land on node pairs with multinomial weights that favor same-block
pairs. The planted labels come back alongside the matrix so detection
quality can be scored directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .citations import CitationMatrix
from .communities import Partition


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a planted-partition citation matrix.

    ``in_rate`` and ``cross_rate`` are relative weights per ordered node
    pair (same block vs different blocks); ``volume`` citations total are
    drawn multinomially over all off-diagonal pairs. The defaults were
    calibrated so that max-similarity detection, iterated through
    coarse-graining, recovers the planted blocks exactly: with a zero
    cross-block rate the blocks are similarity-disconnected and the
    iteration's fixed point is the planted partition itself.
    """

    block_sizes: tuple[int, ...] = (25, 25, 25, 25)
    in_rate: float = 10.0
    cross_rate: float = 0.0
    volume: int = 50_000
    seed: int = 1

    def __post_init__(self):
        if not self.block_sizes:
            raise ValueError("block_sizes must list at least one block")
        if any(s < 1 for s in self.block_sizes):
            raise ValueError("block sizes must be positive")
        if self.in_rate < 0 or self.cross_rate < 0:
            raise ValueError("rates must be nonnegative")
        # equality is allowed as a null model; planted structure needs in > cross
        if self.in_rate < self.cross_rate:
            raise ValueError("in_rate must be at least cross_rate")
        if self.volume < 1:
            raise ValueError("volume must be positive")
        if self.volume > np.iinfo(np.int64).max:  # the most multinomial can draw
            raise ValueError(f"volume must be at most {np.iinfo(np.int64).max}")

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    @property
    def n_nodes(self) -> int:
        return sum(self.block_sizes)

    def describe(self) -> dict:
        return {
            "n_blocks": self.n_blocks,
            "block_sizes": list(self.block_sizes),
            "in_rate": self.in_rate,
            "cross_rate": self.cross_rate,
            "volume": self.volume,
            "seed": self.seed,
        }


def generate_planted_citation_matrix(spec: SyntheticSpec) -> tuple[CitationMatrix, Partition]:
    """Draw a citation matrix with planted blocks; return it with the truth.

    Self-citations are excluded (the diagonal stays zero), so every drawn
    citation carries block information.
    """
    n = spec.n_nodes
    truth = np.repeat(np.arange(spec.n_blocks), spec.block_sizes)
    weights = np.where(truth[:, None] == truth[None, :], spec.in_rate, spec.cross_rate)
    np.fill_diagonal(weights, 0.0)
    with np.errstate(over="ignore"):
        total = weights.sum()
    if not 0.0 < total < np.inf:
        raise ValueError("degenerate spec: total citation weight must be positive and finite")
    rng = np.random.default_rng(np.random.SeedSequence([int(spec.seed)]))
    counts = rng.multinomial(spec.volume, (weights / total).ravel()).reshape(n, n)
    matrix = CitationMatrix.from_dense(counts)
    return matrix, Partition(labels=truth.astype(np.int64), level="real")
