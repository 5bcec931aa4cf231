"""Batched sweep scoring: the same counts and NMI floats as one pass per run."""

import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from simpair import (
    ExperimentConfig,
    Partition,
    SyntheticSpec,
    generate_planted_citation_matrix,
    nmi,
    run_deletion_sweep,
    run_probability_sweep,
    run_topn_sweep,
)
from simpair import sweeps
from simpair.pipeline import _level

from pairlists import columns

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def oracle_nmi(x, y) -> float:
    """NMI written out with Counter, ``c / n * log2(c / n)`` terms and math.fsum."""
    n = len(x)

    def h(counts):
        return -math.fsum(c / n * math.log2(c / n) for c in counts)

    hx, hy = h(Counter(x).values()), h(Counter(y).values())
    if hx == 0.0 and hy == 0.0:
        return 1.0
    return (hx + hy - h(Counter(zip(x, y)).values())) / ((hx + hy) / 2.0)


@st.composite
def ranked_runs(draw):
    """(runs, n, truth): ranked pair lists over n nodes, ties in similarity
    included, with a run that names no node and a run that is one
    community among them; truth is None or reference labels, negative and
    gapped ones included."""
    n = draw(st.integers(2, 9))
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node).filter(lambda e: e[0] != e[1])
    row = st.builds(lambda e, sim: (*e, sim), edge, st.sampled_from([0.25, 0.5, 0.5, 1.0]))
    drawn = draw(st.lists(st.lists(row, max_size=2 * n), min_size=1, max_size=5))
    chain = [(v, v + 1, 0.5) for v in range(n - 1)]
    runs = [sorted(rows, key=lambda r: -r[2]) for rows in drawn] + [[], chain]
    truth = draw(st.none() | st.lists(st.integers(-3, 40), min_size=n, max_size=n))
    return [columns(rows) for rows in draw(st.permutations(runs))], n, truth


def per_run(runs, n, reference):
    """Each run's quantities from its own ``_level``, scored by ``nmi``."""
    if reference is None:
        first = _level(runs[0], n)
        ref_core, ref_real = first.core, first.real
        runs = runs[1:]
    else:
        ref_core = ref_real = reference
    scores = {q: [] for q in sweeps.QUANTITIES}
    for pairs in runs:
        level = _level(pairs, n)
        core, real = level.core, level.real
        for q in ("cores", "reals", "tides"):
            scores[q].append(float(level.stats[q]))
        scores["nmi_core"].append(nmi(core, ref_core))
        scores["nmi_real"].append(nmi(real, ref_real))
        for level, run, ref in (("core", core, ref_core), ("real", real, ref_real)):
            assert scores[f"nmi_{level}"][-1] == oracle_nmi(run.labels.tolist(),
                                                            ref.labels.tolist())
    return scores


# one community of 67 of 71 nodes against these labels: np.log2 in place of
# math.log2 moves this NMI in its last bits
LOG2_TRUTH = list(map(int, "03030312030302011200231332331331112331022212211103023231331210133221303"))


@PROPERTY
@given(ranked_runs())
@example(([columns([]), columns([(0, 1, 1.0)]), columns([(1, 0, 0.5)])], 2, None))
@example(([columns([]), columns([(v, v + 1, 0.5) for v in range(66)])], 71, LOG2_TRUTH))
def test_batched_scores_match_one_pass_per_run(case):
    runs, n, truth = case
    reference = None if truth is None else Partition(labels=np.array(truth), level="real")
    want = per_run(runs, n, reference)
    for per_chunk in (1, 2, len(runs)):
        with mock.patch.object(sweeps, "_CHUNK_NODES", per_chunk * n):
            assert sweeps._score(runs, n, reference) == want


@pytest.fixture(scope="module")
def matrix_and_truth():
    spec = SyntheticSpec(block_sizes=(8, 8, 8), in_rate=10.0, cross_rate=0.3,
                         volume=6_000, seed=4)
    return generate_planted_citation_matrix(spec)


SWEEPS = {
    "probability": lambda m, cfg: run_probability_sweep(m, cfg, [0.0, 0.4, 1.0]),
    "topn": lambda m, cfg: run_topn_sweep(m, cfg, [1, 3]),
    "deletion": lambda m, cfg: run_deletion_sweep(m, cfg, [0.0, 0.5]),
}


@pytest.mark.parametrize("truth", [False, True], ids=["max reference", "truth reference"])
@pytest.mark.parametrize("sweep", SWEEPS)
def test_csv_does_not_depend_on_the_chunk_size(matrix_and_truth, monkeypatch, sweep, truth):
    matrix, planted = matrix_and_truth
    cfg = ExperimentConfig(repetitions=3, base_seed=5, reference=planted if truth else "max")
    whole = SWEEPS[sweep](matrix, cfg).to_csv()
    for per_chunk in (1, 2, 100):
        monkeypatch.setattr(sweeps, "_CHUNK_NODES", per_chunk * matrix.n_nodes)
        assert SWEEPS[sweep](matrix, cfg).to_csv() == whole


def test_a_reference_whose_labels_are_not_dense_scores_as_its_dense_codes(matrix_and_truth):
    matrix, planted = matrix_and_truth
    dense = np.unique(planted.labels, return_inverse=True)[1]
    # negative and gapped, with a label far too large to count up to
    labels = np.array([-7, 2, 10**15])[dense % 3] + dense
    assert len(np.unique(labels)) == len(np.unique(dense))
    csvs = [run_probability_sweep(matrix, ExperimentConfig(
                repetitions=2, base_seed=1, reference=Partition(labels=reference, level="real")),
                [0.0, 0.5]).to_csv()
            for reference in (labels, dense)]
    assert csvs[0] == csvs[1]


def test_scoring_memory_does_not_grow_with_the_repetitions(monkeypatch):
    spec = SyntheticSpec(block_sizes=(100,) * 4, in_rate=10.0, cross_rate=0.05,
                         volume=40_000, seed=2)
    matrix, _ = generate_planted_citation_matrix(spec)
    # four runs a chunk: 9 runs at 2 repetitions (with the reference), 33 at 8
    monkeypatch.setattr(sweeps, "_CHUNK_NODES", 4 * matrix.n_nodes)
    score, peaks = sweeps._score, []

    def traced(*args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            scores = score(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        return scores

    monkeypatch.setattr(sweeps, "_score", traced)
    for repetitions in (2, 8):
        run_probability_sweep(matrix, ExperimentConfig(repetitions=repetitions), [0.3, 0.6])
    few, many = peaks
    assert many <= 1.1 * few, peaks
