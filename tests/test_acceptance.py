"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they print. Budgets and tolerances are fixed here, not calibrated later.
Budgets are in CPU time of this process, so a loaded host does not fail
a check; none of them starts a subprocess or a thread pool.
Monte-Carlo checks run on pre-committed seeds (base seed 0, synthetic
seed 1) so the suite is deterministic end to end.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from simpair import (
    CORE,
    REAL,
    ExperimentConfig,
    SimilarityMatrix,
    Strategy,
    SyntheticSpec,
    build_communities,
    build_similarity_matrix,
    detect,
    extract_partition,
    generate_planted_citation_matrix,
    nmi,
    planted_recovery,
    run_deletion_sweep,
    run_probability_sweep,
    select_pairs,
)
from simpair.citations import CitationMatrix
from simpair.io import pairs_to_tsv
from simpair.rng import derive_seed
from simpair.sweeps import default_probability_grid

from pairlists import columns

BASE_SEED = 0
DEFAULT_SPEC = SyntheticSpec()  # 4 blocks x 25 nodes, rates 10:0, volume 50k, seed 1


def check(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] {name}: {detail} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: took {elapsed:.2f}s, budget {budget}s"


@pytest.fixture(scope="module")
def default_matrix():
    matrix, truth = generate_planted_citation_matrix(DEFAULT_SPEC)
    return matrix, truth


def test_golden_ten_pairs():
    pairs = columns([
        (2, 3, 0.4988), (3, 2, 0.4988),
        (5, 10, 0.3311), (10, 5, 0.3311),
        (1, 2, 0.2211), (6, 9, 0.2209),
        (9, 5, 0.2109), (8, 10, 0.1667),
        (4, 8, 0.1521), (7, 1, 0.1456),
    ])
    build_communities(pairs, 11)  # warm path
    start = time.process_time()
    r = build_communities(pairs, 11)
    elapsed = time.process_time() - start
    ok = (
        r.member_lists(CORE) == [[2, 3, 1, 7], [5, 10, 8, 4], [6, 9]]
        and len(r.tides) == 1
        and r.tides[0, :2].tolist() == [9, 5]
        and r.member_lists(REAL) == [[2, 3, 1, 7], [5, 10, 8, 4, 6, 9]]
    )
    check("golden ten-pair build", ok,
          f"cores={r.member_lists(CORE)} tides={len(r.tides)}",
          elapsed, 0.001)


def test_builder_matches_naive_oracle():
    from test_communities import matches_naive, random_pairs

    rng = np.random.default_rng(BASE_SEED)
    start = time.process_time()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        pairs = random_pairs(rng, n, int(rng.integers(0, 3 * n)))
        mismatches += not matches_naive(build_communities(pairs, n), pairs, n)
    elapsed = time.process_time() - start
    check("builder vs naive oracle (1000 instances)", mismatches == 0,
          f"mismatches={mismatches}", elapsed, 5.0)


def test_similarity_suite():
    from test_similarity import oracle_similarity, random_citations

    rng = np.random.default_rng(BASE_SEED)
    start = time.process_time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        dense = random_citations(rng, n)
        s = build_similarity_matrix(CitationMatrix.from_dense(dense)).values.toarray()
        # symmetry and range
        assert np.abs(s - s.T).max() <= 1e-12
        assert s.min() >= 0.0 and s.max() <= 1.0 + 1e-12
        # dense-oracle equivalence
        want = oracle_similarity(dense)
        np.fill_diagonal(want, 0.0)
        worst = max(worst, float(np.abs(s - want).max()))
        # scale invariance of one rescaled row
        scaled = dense.copy()
        scaled[int(rng.integers(n))] *= int(rng.integers(2, 9))
        s2 = build_similarity_matrix(CitationMatrix.from_dense(scaled)).values.toarray()
        worst = max(worst, float(np.abs(s - s2).max()))
    elapsed = time.process_time() - start
    check("similarity suite (100 matrices)", worst <= 1e-12,
          f"max deviation={worst:.2e}", elapsed, 5.0)


def test_proportional_sampling_fidelity():
    values = np.array([
        [0.0, 0.1, 0.3, 0.6, 0.0],
        [0.1, 0.0, 0.2, 0.2, 0.5],
        [0.3, 0.2, 0.0, 0.4, 0.1],
        [0.6, 0.2, 0.4, 0.0, 0.3],
        [0.0, 0.5, 0.1, 0.3, 0.0],
    ])
    s = SimilarityMatrix(values=values)
    expected = values / values.sum(axis=1, keepdims=True)
    start = time.process_time()
    freq = np.zeros((5, 5))
    psim = Strategy("psim")
    for seed in range(10_000):
        selector, selected, _ = select_pairs(s, psim, seed)
        np.add.at(freq, (selector, selected), 1)
    freq /= 10_000
    elapsed = time.process_time() - start
    worst = float(np.abs(freq - expected).max())
    check("proportional sampling fidelity (10k draws)", worst <= 0.02,
          f"max |empirical-expected|={worst:.4f}", elapsed, 2.0)


def test_nmi_suite():
    start = time.process_time()
    rng = np.random.default_rng(BASE_SEED)
    ok = True
    # identity, symmetry, range, relabeling
    for _ in range(50):
        n = int(rng.integers(2, 80))
        x = rng.integers(0, 6, size=n)
        y = rng.integers(0, 4, size=n)
        if len(set(x.tolist())) > 1:
            ok &= nmi(x, x) == 1.0
        ok &= nmi(x, y) == nmi(y, x)
        ok &= 0.0 <= nmi(x, y) <= 1.0 + 1e-12
        perm = rng.permutation(6)
        ok &= nmi(perm[x], y) == nmi(x, y)
    # refinement case
    refinement = nmi(np.array([0, 1, 2, 2]), np.array([0, 0, 1, 1]))
    ok &= abs(refinement - 0.8) <= 1e-12
    # log-base independence: recompute one case in nats
    x = rng.integers(0, 5, size=40)
    y = rng.integers(0, 3, size=40)

    def h_nats(labels):
        n = len(labels)
        counts = {}
        for v in labels.tolist():
            counts[v] = counts.get(v, 0) + 1
        return -sum((c / n) * math.log(c / n) for c in counts.values())

    def hj_nats(a, b):
        n = len(a)
        cells = {}
        for pair in zip(a.tolist(), b.tolist()):
            cells[pair] = cells.get(pair, 0) + 1
        return -sum((c / n) * math.log(c / n) for c in cells.values())

    nats = (h_nats(x) + h_nats(y) - hj_nats(x, y)) / ((h_nats(x) + h_nats(y)) / 2)
    ok &= abs(nmi(x, y) - nats) <= 1e-12
    elapsed = time.process_time() - start
    check("nmi suite", bool(ok), f"refinement value={refinement:.6f}", elapsed, 1.0)


def test_mixture_boundaries():
    rng = np.random.default_rng(BASE_SEED)
    upper = np.triu(rng.random((30, 30)), 1)
    s = SimilarityMatrix(values=upper + upper.T)
    start = time.process_time()
    ok = True

    def tsv(strategy, seed=0):
        return pairs_to_tsv(select_pairs(s, strategy, seed))

    def mixed(p, kind):
        return Strategy("mixed", mix_p=p, mix_kind=kind)

    for seed in (0, 17):
        ok &= tsv(mixed(0.0, "psim"), seed) == tsv(Strategy("max"))
        ok &= tsv(mixed(0.0, "p"), seed) == tsv(Strategy("max"))
        ok &= tsv(mixed(1.0, "psim"), seed) == tsv(Strategy("psim"), seed)
        ok &= tsv(mixed(1.0, "p"), seed) == tsv(Strategy("p"), seed)
    elapsed = time.process_time() - start
    check("mixture boundaries byte-identical", bool(ok), "p=0 -> max, p=1 -> pure",
          elapsed, 1.0)


def test_probability_trend(default_matrix):
    matrix, _ = default_matrix
    grid = default_probability_grid()
    start = time.process_time()
    cfg = ExperimentConfig(repetitions=20, base_seed=BASE_SEED)
    sweep = run_probability_sweep(matrix, cfg, grid, kinds=("p",))
    cores = [row.mean["cores"] for row in sweep.rows]
    reals = [row.mean["reals"] for row in sweep.rows]
    rho_cores = scipy_stats.spearmanr(grid, cores).statistic
    rho_reals = scipy_stats.spearmanr(grid, reals).statistic
    elapsed = time.process_time() - start
    check("probability trend (uniform kind)",
          rho_cores >= 0.9 and rho_reals <= -0.9,
          f"spearman cores={rho_cores:+.3f} reals={rho_reals:+.3f}",
          elapsed, 60.0)


def test_random_kind_ordering(default_matrix):
    matrix, _ = default_matrix
    start = time.process_time()
    reference = detect(matrix, Strategy("max")).real
    sim = build_similarity_matrix(matrix)
    grid_index = default_probability_grid().index(1.0)
    psim_scores, p_scores = [], []
    for rep in range(20):
        seed = derive_seed(BASE_SEED, grid_index, rep)
        psim_run = build_communities(select_pairs(sim, Strategy("psim"), seed), matrix.n_nodes)
        p_run = build_communities(select_pairs(sim, Strategy("p"), seed), matrix.n_nodes)
        psim_scores.append(nmi(extract_partition(psim_run, REAL), reference))
        p_scores.append(nmi(extract_partition(p_run, REAL), reference))
    wins = sum(a > b for a, b in zip(psim_scores, p_scores))
    ties = sum(a == b for a, b in zip(psim_scores, p_scores))
    test = scipy_stats.binomtest(wins, n=20 - ties, p=0.5, alternative="greater")
    mean_ok = np.mean(psim_scores) >= np.mean(p_scores)
    elapsed = time.process_time() - start
    check("proportional beats uniform at p=1 (real level)",
          mean_ok and test.pvalue < 0.05,
          f"mean psim={np.mean(psim_scores):.3f} p={np.mean(p_scores):.3f} "
          f"wins={wins}/{20 - ties} sign-test p={test.pvalue:.2e}",
          elapsed, 60.0)


def test_deletion_ordering(default_matrix):
    matrix, _ = default_matrix
    grid = [round(0.1 * i, 1) for i in range(10)]
    start = time.process_time()
    cfg = ExperimentConfig(repetitions=20, base_seed=BASE_SEED)
    sweep = run_deletion_sweep(matrix, cfg, grid)
    core = [row.mean["nmi_core"] for row in sweep.rows]
    real = [row.mean["nmi_real"] for row in sweep.rows]
    ordering = all(c >= r for c, r in zip(core, real))
    floor_holds = core[-1] >= 0.5
    elapsed = time.process_time() - start
    check("deletion sweep ordering",
          ordering and floor_holds,
          f"core>=real at all d={ordering}, core@d=0.9={core[-1]:.3f}",
          elapsed, 60.0)


def test_planted_recovery():
    start = time.process_time()
    scores = planted_recovery(DEFAULT_SPEC, n_seeds=20, base_seed=BASE_SEED)
    elapsed = time.process_time() - start
    check("planted recovery (20 seeds)", min(scores) >= 0.9,
          f"min={min(scores):.3f} mean={np.mean(scores):.3f}", elapsed, 30.0)


def test_sweep_determinism(default_matrix):
    matrix, _ = default_matrix
    grid = default_probability_grid()
    start = time.process_time()
    csvs = []
    cfg = ExperimentConfig(repetitions=20, base_seed=BASE_SEED)
    for _ in range(3):
        csvs.append(run_probability_sweep(matrix, cfg, grid).to_csv().encode())
    elapsed = time.process_time() - start
    check("sweep determinism over three reruns",
          csvs[0] == csvs[1] == csvs[2],
          f"csv bytes={len(csvs[0])}", elapsed, 60.0)
