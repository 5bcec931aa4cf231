"""
Sweeping randomness, candidate limits, and missing information
==============================================================

Three seeded experiments, each scored against the deterministic max run:

* probability sweep - per-node coin between max and a random strategy;
  more randomness means more (smaller) cores but fewer real communities,
  because random pairs bridge otherwise separate components.
* top-n sweep       - proportional sampling among the n most similar
  candidates; information beyond the first few partners only hurts.
* deletion sweep    - max with part of each similarity row hidden; the
  core level degrades slowly even when most of the row is gone.

Each repetition's seed derives from (base seed, grid index, repetition),
so reruns reproduce the CSVs byte for byte.
"""

from simpair import (
    ExperimentConfig,
    SyntheticSpec,
    generate_planted_citation_matrix,
    run_deletion_sweep,
    run_probability_sweep,
    run_topn_sweep,
)

matrix, _truth = generate_planted_citation_matrix(SyntheticSpec())
cfg = ExperimentConfig(repetitions=20, base_seed=0)

prob = run_probability_sweep(matrix, cfg, kinds=("psim", "p"))
print("probability sweep (kind=p rows):")
print(f"  {'p':>4} {'cores':>6} {'reals':>6} {'tides':>6} {'nmi real':>8}")
for row in prob.rows:
    if row.kind == "p":
        print(f"  {row.grid_value:>4.1f} {row.mean['cores']:>6.1f} "
              f"{row.mean['reals']:>6.1f} {row.mean['tides']:>6.1f} "
              f"{row.mean['nmi_real']:>8.3f}")

topn = run_topn_sweep(matrix, cfg, [1, 2, 3, 5, 10, 25, 50, 99])
print("\ntop-n sweep:")
print(f"  {'n':>4} {'nmi core':>8} {'nmi real':>8}")
for row in topn.rows:
    print(f"  {row.grid_value:>4g} {row.mean['nmi_core']:>8.3f} "
          f"{row.mean['nmi_real']:>8.3f}")
print("  real-level NMI first drops below 0.5 at n =",
      topn.metadata["nmi_real_below_half_at"])

deletion = run_deletion_sweep(matrix, cfg)
print("\ndeletion sweep:")
print(f"  {'d':>4} {'nmi core':>8} {'nmi real':>8} {'unassigned-ish reals':>12}")
for row in deletion.rows:
    print(f"  {row.grid_value:>4.1f} {row.mean['nmi_core']:>8.3f} "
          f"{row.mean['nmi_real']:>8.3f} {row.mean['reals']:>12.1f}")

print("\nfirst lines of the probability sweep CSV:")
print("\n".join(prob.to_csv().splitlines()[:4]))
