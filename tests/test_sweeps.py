"""Sweep engine: determinism, boundaries, reference integrity."""

import numpy as np
import pytest

from simpair import (
    ExperimentConfig,
    Partition,
    SimilarityMatrix,
    Strategy,
    SyntheticSpec,
    detect,
    generate_planted_citation_matrix,
    nmi,
    run_deletion_sweep,
    run_probability_sweep,
    run_topn_sweep,
    select_many,
)
from simpair import selection, sweeps


@pytest.fixture(scope="module")
def small_matrix():
    spec = SyntheticSpec(block_sizes=(8, 8, 8),
                         in_rate=10.0, cross_rate=0.0, volume=6_000, seed=9)
    matrix, _truth = generate_planted_citation_matrix(spec)
    return matrix


@pytest.mark.parametrize("sweep", [
    lambda m, cfg: run_probability_sweep(m, cfg, []),
    lambda m, cfg: run_probability_sweep(m, cfg, [0.5], kinds=()),
    lambda m, cfg: run_topn_sweep(m, cfg, []),
    lambda m, cfg: run_deletion_sweep(m, cfg, []),
], ids=["empty p-grid", "empty kinds", "empty topn-grid", "empty del-grid"])
def test_an_empty_sweep_is_rejected(small_matrix, sweep):
    with pytest.raises(ValueError):
        sweep(small_matrix, ExperimentConfig(repetitions=2))


@pytest.mark.parametrize("kinds", [("psim", "psim"), ("p", "psim", "p")])
def test_a_repeated_kind_is_rejected(small_matrix, kinds):
    with pytest.raises(ValueError, match="repeat"):
        run_probability_sweep(small_matrix, ExperimentConfig(repetitions=2), [0.5], kinds=kinds)


class TestProbabilitySweep:
    def test_p_zero_reproduces_reference_exactly(self, small_matrix):
        cfg = ExperimentConfig(repetitions=5, base_seed=3)
        result = run_probability_sweep(small_matrix, cfg, [0.0], kinds=("psim", "p"))
        for row in result.rows:
            assert row.mean["nmi_core"] == 1.0
            assert row.mean["nmi_real"] == 1.0
            assert row.std["nmi_core"] == 0.0
            assert row.std["nmi_real"] == 0.0

    def test_kinds_share_seeds_at_each_grid_value(self, small_matrix):
        cfg = ExperimentConfig(repetitions=4, base_seed=1)
        result = run_probability_sweep(small_matrix, cfg, [0.3, 0.7])
        by_value = {}
        for row in result.rows:
            by_value.setdefault(row.grid_value, []).append(row.seeds)
        for seeds in by_value.values():
            assert seeds[0] == seeds[1]

    def test_csv_is_deterministic_and_parallel_safe(self, small_matrix):
        grid = [0.0, 0.5, 1.0]
        cfg = ExperimentConfig(repetitions=6, base_seed=7)
        first = run_probability_sweep(small_matrix, cfg, grid)
        again = run_probability_sweep(small_matrix, cfg, grid)
        assert first.to_csv() == again.to_csv()

    def test_different_base_seed_changes_runs(self, small_matrix):
        a = run_probability_sweep(small_matrix, ExperimentConfig(repetitions=4, base_seed=0), [1.0])
        b = run_probability_sweep(small_matrix, ExperimentConfig(repetitions=4, base_seed=1), [1.0])
        assert a.to_csv() != b.to_csv()

    def test_rejects_bad_grid(self, small_matrix):
        with pytest.raises(ValueError):
            run_probability_sweep(small_matrix, ExperimentConfig(), [0.5, 1.5])

    def test_csv_header(self, small_matrix):
        result = run_probability_sweep(small_matrix, ExperimentConfig(repetitions=2), [0.0])
        header = result.to_csv().splitlines()[0].split(",")
        assert header[:4] == ["sweep", "grid", "kind", "reps"]
        assert "nmi_real_mean" in header and "cores_std" in header


class TestTopnSweep:
    def test_topn_one_matches_max_reference(self, small_matrix):
        cfg = ExperimentConfig(repetitions=3, base_seed=0)
        result = run_topn_sweep(small_matrix, cfg, [1])
        assert result.rows[0].mean["nmi_core"] == 1.0

    def test_oversized_topn_clamped_with_warning(self, small_matrix):
        cfg = ExperimentConfig(repetitions=2, base_seed=0)
        with pytest.warns(UserWarning, match="clamped"):
            result = run_topn_sweep(small_matrix, cfg, [500])
        assert result.rows[0].grid_value == small_matrix.n_nodes - 1

    def test_crossing_metadata(self, small_matrix):
        cfg = ExperimentConfig(repetitions=5, base_seed=0)
        result = run_topn_sweep(small_matrix, cfg, [1, 23])
        crossing = result.metadata["nmi_real_below_half_at"]
        assert crossing is None or crossing in (1, 23)


class TestDeletionSweep:
    def test_zero_deletion_is_reference(self, small_matrix):
        cfg = ExperimentConfig(repetitions=4, base_seed=2)
        result = run_deletion_sweep(small_matrix, cfg, [0.0])
        row = result.rows[0]
        assert row.mean["nmi_core"] == 1.0
        assert row.std["nmi_real"] == 0.0

    def test_full_deletion_gives_singletons(self, small_matrix):
        cfg = ExperimentConfig(repetitions=2, base_seed=2)
        result = run_deletion_sweep(small_matrix, cfg, [1.0])
        row = result.rows[0]
        assert row.mean["cores"] == 0.0
        assert row.mean["reals"] == float(small_matrix.n_nodes)
        # singleton partition scored directly against the max reference
        ref = detect(small_matrix, Strategy("max")).real
        singletons = np.arange(small_matrix.n_nodes)
        assert row.mean["nmi_real"] == pytest.approx(nmi(singletons, ref), abs=1e-12)

    def test_more_deletion_means_lower_core_nmi(self, small_matrix):
        cfg = ExperimentConfig(repetitions=10, base_seed=4)
        result = run_deletion_sweep(small_matrix, cfg, [0.0, 0.5, 0.9])
        core = [row.mean["nmi_core"] for row in result.rows]
        assert core[0] >= core[1] >= core[2]


class TestReference:
    def test_reference_matches_standalone_max_run(self, small_matrix, monkeypatch):
        references, scores = [], []
        reference, score = sweeps._reference, sweeps._score

        def kept(labels):
            references.append(np.array(labels))
            return reference(labels)

        def scored(*args):
            scores.append(score(*args))
            return scores[-1]

        monkeypatch.setattr(sweeps, "_reference", kept)
        monkeypatch.setattr(sweeps, "_score", scored)
        run_probability_sweep(small_matrix, ExperimentConfig(repetitions=2), [0.5])
        standalone = detect(small_matrix, Strategy("max"), seed=0, levels=1)
        [runs] = scores
        assert {len(values) for values in runs.values()} == {2 * 2}  # kinds x reps
        assert len(references) == 2  # (core, real), once per sweep
        for level, labels in zip(("core", "real"), references):
            assert np.array_equal(labels, getattr(standalone, level).labels)

    @pytest.mark.parametrize("truth", [False, True], ids=["max reference", "truth reference"])
    def test_the_max_reference_is_selected_only_when_scored_against(self, small_matrix,
                                                                   monkeypatch, truth):
        counts = []

        def counted(sim, jobs):
            counts.append(len(jobs))
            return select_many(sim, jobs)

        monkeypatch.setattr(sweeps, "select_many", counted)
        reference = Partition(labels=np.zeros(small_matrix.n_nodes, np.int64), level="real")
        cfg = ExperimentConfig(repetitions=3, reference=reference if truth else "max")
        run_probability_sweep(small_matrix, cfg, [0.0, 0.5])
        assert counts == [2 * 2 * 3 + (not truth)]  # grid x kinds x reps, plus max

    def test_planted_truth_as_reference(self):
        spec = SyntheticSpec(block_sizes=(8, 8, 8),
                             in_rate=10.0, cross_rate=0.0, volume=6_000, seed=9)
        matrix, truth = generate_planted_citation_matrix(spec)
        cfg = ExperimentConfig(repetitions=3, base_seed=0, reference=truth)
        result = run_probability_sweep(matrix, cfg, [0.0], kinds=("p",))
        # max against planted truth: fragmented cores, so below 1 at one level
        assert result.rows[0].mean["nmi_real"] < 1.0

    def test_a_sweep_computes_each_block_of_rows_once(self, small_matrix, monkeypatch):
        block = SimilarityMatrix._block
        blocks = []

        def counted(self, rows, closed, local=None):
            blocks.append((rows, closed))
            return block(self, rows, closed, local)

        monkeypatch.setattr(SimilarityMatrix, "_block", counted)
        # three components of 8 nodes: cut into pieces at 5 rows, a closed block each at 8
        for block_rows, closed in ((5, False), (8, True)):
            blocks.clear()
            monkeypatch.setattr(selection, "BLOCK_ROWS", block_rows)
            run_probability_sweep(small_matrix, ExperimentConfig(repetitions=2), [0.0, 0.5])
            # every node in one block, reference and runs together, each computed once
            assert len(blocks) > 1
            assert np.array_equal(np.sort(np.concatenate([rows for rows, _ in blocks])),
                                  np.arange(small_matrix.n_nodes))
            assert {c for _, c in blocks} == {closed}

    def test_reference_of_another_size_is_rejected_before_selection(self, small_matrix,
                                                                    monkeypatch):
        def no_selection(*args):
            raise AssertionError("selected before the reference was checked")

        monkeypatch.setattr(sweeps, "select_many", no_selection)
        truth = Partition(labels=np.zeros(small_matrix.n_nodes + 1, np.int64), level="real")
        cfg = ExperimentConfig(repetitions=2, reference=truth)
        with pytest.raises(ValueError, match=f"{small_matrix.n_nodes + 1} nodes.*"
                                             f"{small_matrix.n_nodes}"):
            run_probability_sweep(small_matrix, cfg, [0.5])

    def test_rejects_unknown_reference(self, small_matrix):
        with pytest.raises(ValueError):
            run_probability_sweep(small_matrix, ExperimentConfig(reference="truth"), [0.0])


class TestConfigValidation:
    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)

    @pytest.mark.parametrize("field, value", [("repetitions", 2.0), ("repetitions", 1.5),
                                              ("base_seed", 1.5), ("base_seed", None)])
    def test_rejects_a_count_or_seed_that_is_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(**{field: value})

    def test_numpy_integers_sweep_as_python_ones(self, small_matrix):
        cfg = ExperimentConfig(repetitions=np.int64(2), base_seed=np.uint32(3))
        assert (run_probability_sweep(small_matrix, cfg, [0.5]).to_csv()
                == run_probability_sweep(small_matrix, ExperimentConfig(2, 3), [0.5]).to_csv())

    @pytest.mark.parametrize("reference", ["min", "truth", None])
    def test_rejects_bad_reference_when_built(self, reference):
        with pytest.raises(ValueError, match="reference"):
            ExperimentConfig(reference=reference)

    def test_jobs_must_be_one(self):
        assert ExperimentConfig(jobs=1).jobs == 1
        with pytest.raises(ValueError, match="one thread"):
            ExperimentConfig(jobs=2)
