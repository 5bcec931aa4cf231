"""Two-level community detection on weighted citation networks.

Nodes pair with their most similar partners (or randomized stand-ins);
pairs grow fine-grained core communities, and the pairs that bridge cores
("tides") merge them into coarse real communities. The package covers the
full workflow: similarity from citation counts, five selection strategies,
community growth, NMI scoring, planted-partition synthesis, and seeded
parameter sweeps.
"""

from .citations import CitationMatrix
from .communities import (
    CORE,
    REAL,
    DetectionResult,
    Partition,
    build_communities,
    extract_partition,
    renormalize,
)
from .metrics import nmi, partition_stats
from .pipeline import FIXPOINT, Detection, detect, detect_from_pairs
from .selection import Strategy, select_many, select_pairs
from .similarity import SimilarityMatrix, build_similarity_matrix
from .sweeps import (
    ExperimentConfig,
    SweepResult,
    SweepRow,
    planted_recovery,
    run_deletion_sweep,
    run_probability_sweep,
    run_topn_sweep,
)
from .synthetic import SyntheticSpec, generate_planted_citation_matrix

__version__ = "0.1.0"

__all__ = [
    "CORE",
    "REAL",
    "FIXPOINT",
    "CitationMatrix",
    "SimilarityMatrix",
    "build_similarity_matrix",
    "Strategy",
    "select_many",
    "select_pairs",
    "DetectionResult",
    "Partition",
    "build_communities",
    "extract_partition",
    "renormalize",
    "nmi",
    "partition_stats",
    "Detection",
    "detect",
    "detect_from_pairs",
    "SyntheticSpec",
    "generate_planted_citation_matrix",
    "ExperimentConfig",
    "SweepResult",
    "SweepRow",
    "planted_recovery",
    "run_probability_sweep",
    "run_topn_sweep",
    "run_deletion_sweep",
]
