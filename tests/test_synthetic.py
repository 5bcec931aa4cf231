"""Planted-partition generation and detection recovery."""

import numpy as np
import pytest

from simpair import (
    FIXPOINT,
    Strategy,
    SyntheticSpec,
    detect,
    generate_planted_citation_matrix,
    nmi,
    planted_recovery,
)


class TestGenerator:
    def test_volume_is_exact(self):
        spec = SyntheticSpec(volume=12_345, seed=3)
        matrix, _ = generate_planted_citation_matrix(spec)
        assert matrix.total_citations == 12_345

    def test_diagonal_empty(self):
        matrix, _ = generate_planted_citation_matrix(SyntheticSpec(seed=4))
        assert matrix.to_dense().diagonal().sum() == 0

    def test_truth_matches_block_sizes(self):
        spec = SyntheticSpec(block_sizes=(5, 7, 9),
                             in_rate=8.0, cross_rate=1.0, volume=5_000, seed=0)
        matrix, truth = generate_planted_citation_matrix(spec)
        assert matrix.n_nodes == 21
        assert np.bincount(truth.labels).tolist() == [5, 7, 9]

    def test_same_seed_same_matrix(self):
        a, _ = generate_planted_citation_matrix(SyntheticSpec(seed=11))
        b, _ = generate_planted_citation_matrix(SyntheticSpec(seed=11))
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_cross_block_mass_follows_rates(self):
        spec = SyntheticSpec(in_rate=10.0, cross_rate=1.0, volume=100_000, seed=5)
        matrix, truth = generate_planted_citation_matrix(spec)
        dense = matrix.to_dense()
        same = truth.labels[:, None] == truth.labels[None, :]
        in_mass = dense[same].sum()
        cross_mass = dense[~same].sum()
        # 100 in-block cells weigh 10 vs 75 cross cells weigh 1, per node row
        expected_ratio = (24 * 10) / (75 * 1)
        assert in_mass / cross_mass == pytest.approx(expected_ratio, rel=0.05)

    def test_rejects_degenerate_specs(self):
        with pytest.raises(ValueError):
            SyntheticSpec(volume=0)
        with pytest.raises(ValueError):
            SyntheticSpec(in_rate=1.0, cross_rate=2.0)
        with pytest.raises(ValueError):
            SyntheticSpec(block_sizes=())
        with pytest.raises(ValueError):
            SyntheticSpec(volume=2**63)  # more than multinomial can draw
        # an infinite total weight would put every citation on one diagonal cell
        with pytest.raises(ValueError, match="finite"):
            generate_planted_citation_matrix(
                SyntheticSpec(block_sizes=(2, 2), in_rate=1e308))


class TestRecovery:
    def test_disconnected_blocks_recover_exactly(self):
        spec = SyntheticSpec(cross_rate=0.0, seed=21)
        matrix, truth = generate_planted_citation_matrix(spec)
        detection = detect(matrix, Strategy("max"), levels=FIXPOINT)
        assert nmi(detection.real, truth) == 1.0

    def test_single_pass_fragments_blocks(self):
        # one pass leaves each block split into several mutual-nearest cores
        spec = SyntheticSpec(cross_rate=0.0, seed=21)
        matrix, truth = generate_planted_citation_matrix(spec)
        detection = detect(matrix, Strategy("max"), levels=1)
        assert detection.real.n_communities > 4
        assert 0.4 <= nmi(detection.real, truth) <= 0.8

    def test_planted_recovery_helper(self):
        scores = planted_recovery(n_seeds=5, base_seed=0)
        assert len(scores) == 5
        assert min(scores) >= 0.9

    def test_null_model_carries_no_signal(self):
        vals = []
        for seed in range(5):
            spec = SyntheticSpec(block_sizes=(100,) * 4,
                                 in_rate=10.0, cross_rate=10.0,
                                 volume=200_000, seed=seed)
            matrix, truth = generate_planted_citation_matrix(spec)
            detection = detect(matrix, Strategy("max"), levels=1)
            vals.append(nmi(detection.real, truth))
        assert np.mean(vals) <= 0.1


class TestMultilevelDetection:
    def test_level_history_shrinks(self):
        matrix, _ = generate_planted_citation_matrix(SyntheticSpec(seed=2))
        detection = detect(matrix, Strategy("max"), levels=FIXPOINT)
        coarse = [lvl["coarse_nodes"] for lvl in detection.level_stats]
        assert coarse[0] == 100
        assert all(a > b for a, b in zip(coarse, coarse[1:]))

    def test_fixpoint_stops_when_stable(self):
        matrix, _ = generate_planted_citation_matrix(SyntheticSpec(seed=2))
        detection = detect(matrix, Strategy("max"), levels=FIXPOINT)
        last = detection.level_stats[-1]
        assert last["reals"] == last["coarse_nodes"]

    def test_requested_levels_run(self):
        matrix, _ = generate_planted_citation_matrix(SyntheticSpec(seed=2))
        one = detect(matrix, Strategy("max"), levels=1)
        two = detect(matrix, Strategy("max"), levels=2)
        assert len(one.level_stats) == 1
        assert len(two.level_stats) == 2
        assert two.real.n_communities < one.real.n_communities

    def test_composed_partitions_are_total(self):
        matrix, _ = generate_planted_citation_matrix(SyntheticSpec(seed=2))
        detection = detect(matrix, Strategy("max"), levels=2)
        for part in (detection.core, detection.real):
            assert part.n_nodes == 100
            assert set(part.labels) == set(range(part.n_communities))
