"""The public surface: ``simpair.__all__`` is the workflow, nothing more."""

import os
import subprocess
import sys
from pathlib import Path

import simpair

PUBLIC = [
    "CORE",
    "CitationMatrix",
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


def test_cli_import_leaves_out_csgraph():
    # importing scipy.sparse.csgraph costs about 0.2 s, which every CLI run would pay
    src = str(Path(simpair.__file__).resolve().parent.parent)
    code = "import sys, simpair.cli; print('scipy.sparse.csgraph' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
