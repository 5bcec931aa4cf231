"""The public surface: ``simpair.__all__`` is the workflow, nothing more."""

import simpair

PUBLIC = [
    "CORE",
    "CitationMatrix",
    "CoreCommunity",
    "Detection",
    "DetectionResult",
    "ExperimentConfig",
    "FIXPOINT",
    "Partition",
    "REAL",
    "RankedPair",
    "SimilarityMatrix",
    "Strategy",
    "SweepResult",
    "SweepRow",
    "SyntheticSpec",
    "Tide",
    "build_communities",
    "build_similarity_matrix",
    "detect",
    "detect_from_pairs",
    "extract_partition",
    "generate_planted_citation_matrix",
    "nmi",
    "partition_stats",
    "planted_recovery",
    "renormalize",
    "run_deletion_sweep",
    "run_probability_sweep",
    "run_topn_sweep",
    "select_many",
    "select_pairs",
]


def test_all_is_the_agreed_list():
    assert sorted(simpair.__all__) == sorted(PUBLIC)


def test_every_public_name_resolves():
    for name in simpair.__all__:
        assert getattr(simpair, name) is not None, name
