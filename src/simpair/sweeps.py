"""Parameter sweeps: how detection degrades as randomness is dialed in.

Three sweeps mirror the standard protocols: mixing random partner choice
into max selection (probability grid), restricting proportional sampling
to the top-n candidates, and deleting a fraction of each node's similarity
row. Every sweep scores its runs against a reference partition - by
default the deterministic max-selection run on the same input - with
normalized mutual information at both community levels.

Repetition r at grid point g runs with ``derive_seed(base_seed, g, r)``;
the two random kinds share that seed, so psim-vs-p comparisons are paired.
Results are pure functions of (input matrix, config): rerunning a sweep
reproduces its CSV byte for byte.

A sweep selects the pairs of every (grid point, repetition) run, and of a
max reference, in one :func:`~simpair.selection.select_many` call, which
computes each block of similarity rows once for all of them; no whole
similarity is stored. The normalised patterns and block layout are built
once per input matrix and kept on it (see
:func:`~simpair.similarity.build_similarity_matrix`), so every sweep and
``detect`` on one matrix after the first reuses them. The runs are then
scored in chunks of at most ``_CHUNK_NODES`` node slots (runs x nodes):
each chunk is one community scan over its runs' pair lists laid side by
side, run r's nodes offset by r x N, which gives every run's counts and
partitions at once, and one NMI pass per level against the reference,
whose codes and entropies are computed once per sweep. A per-run pass
paid some 40 numpy calls per build and two full ``nmi`` calls per run
whatever the run's size. The scores are those of ``detect``'s
single-level pass and :func:`~simpair.metrics.nmi`, bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

from .citations import CitationMatrix
from .communities import Partition, _run_levels
from .metrics import _nmi_rows, _reference, nmi
from .pipeline import FIXPOINT, Strategy, detect
from .rng import derive_seed
from .selection import RANDOM_KINDS, Pairs, _integer, select_many
from .similarity import build_similarity_matrix
from .synthetic import SyntheticSpec, generate_planted_citation_matrix

QUANTITIES = ("cores", "reals", "tides", "nmi_core", "nmi_real")
# node slots (runs x nodes) one scoring chunk holds; a chunk takes one run at least
_CHUNK_NODES = 1 << 15


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared sweep settings.

    ``reference`` is either "max" (score against the deterministic max run
    on the input) or a Partition such as a planted truth, used at both
    levels. ``jobs`` must be 1, since sweeps run in one thread. It stays
    only because perfbench's ``sweep_1k`` workload passes ``jobs=1``, and
    it is deleted together with that argument (ROADMAP item 5).
    """

    repetitions: int = 20
    base_seed: int = 0
    reference: str | Partition = "max"
    jobs: int = 1

    def __post_init__(self):
        _integer(self.base_seed, "base_seed")
        if _integer(self.repetitions, "repetitions") < 1:
            raise ValueError("repetitions must be >= 1")
        if not (isinstance(self.reference, Partition) or self.reference == "max"):
            raise ValueError("reference must be 'max' or a Partition")
        if self.jobs != 1:
            raise ValueError("jobs must be 1: sweeps run in one thread")


@dataclass(frozen=True)
class SweepRow:
    grid_value: float
    kind: str
    repetitions: int
    seeds: tuple[int, ...]
    mean: dict[str, float]
    std: dict[str, float]


@dataclass(frozen=True)
class SweepResult:
    sweep: str
    rows: list[SweepRow]
    metadata: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        header = ["sweep", "grid", "kind", "reps"]
        for q in QUANTITIES:
            header += [f"{q}_mean", f"{q}_std"]
        lines = [",".join(header)]
        for row in self.rows:
            cells = [self.sweep, f"{row.grid_value:g}", row.kind, str(row.repetitions)]
            for q in QUANTITIES:
                cells += [f"{row.mean[q]:.6f}", f"{row.std[q]:.6f}"]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _aggregate(sweep: str, tasks: list[tuple[int, float, str, Strategy]],
               matrix: CitationMatrix, cfg: ExperimentConfig) -> SweepResult:
    """Run reps for every task and reduce to per-task mean/std rows.

    A task is (grid_index, grid_value, kind, strategy); the repetition seed
    depends on the grid index, not the kind, so kinds sharing a grid value
    run on paired seeds.
    """
    if not tasks:
        raise ValueError("nothing to sweep: the grid or the kinds are empty")
    truth = isinstance(cfg.reference, Partition)
    if truth and cfg.reference.n_nodes != matrix.n_nodes:
        raise ValueError(f"reference has {cfg.reference.n_nodes} nodes, matrix {matrix.n_nodes}")
    sim = build_similarity_matrix(matrix)
    seeds = [tuple(derive_seed(cfg.base_seed, g, r) for r in range(cfg.repetitions))
             for g, _, _, _ in tasks]
    jobs = [(strategy, seed) for (_, _, _, strategy), run_seeds in zip(tasks, seeds)
            for seed in run_seeds]
    # a max reference rides in the runs' pass: each block of S is computed once
    selections = select_many(sim, jobs if truth else [(Strategy("max"), 0)] + jobs)
    scores = _score(selections, matrix.n_nodes, cfg.reference if truth else None)

    rows = []
    for t, ((_, grid_value, kind, _), run_seeds) in enumerate(zip(tasks, seeds)):
        runs = slice(t * cfg.repetitions, (t + 1) * cfg.repetitions)
        mean = {q: math.fsum(scores[q][runs]) / cfg.repetitions for q in QUANTITIES}
        std = {
            q: math.sqrt(math.fsum((v - mean[q]) ** 2 for v in scores[q][runs])
                         / cfg.repetitions)
            for q in QUANTITIES
        }
        rows.append(SweepRow(grid_value=grid_value, kind=kind,
                             repetitions=cfg.repetitions, seeds=run_seeds,
                             mean=mean, std=std))
    return SweepResult(sweep=sweep, rows=rows)


def _score(runs: list[Pairs], n_nodes: int,
           reference: Partition | None) -> dict[str, list[float]]:
    """Each run's ``QUANTITIES``, scored at both levels against ``reference``
    or, when it is None, against the partitions of ``runs[0]``, which is
    then left out of the scores.

    The runs go in chunks of ``_CHUNK_NODES`` node slots, so no array here
    grows with the number of runs.
    """
    refs = None if reference is None else [_reference(reference)] * 2
    scores = {q: [] for q in QUANTITIES}
    step = max(1, _CHUNK_NODES // max(n_nodes, 1))
    for start in range(0, len(runs), step):
        *counts, core, real = _run_levels(runs[start:start + step], n_nodes)
        if refs is None:
            refs = [_reference(labels[0]) for labels in (core, real)]
        for q, values in zip(QUANTITIES, counts):
            scores[q] += values.astype(float).tolist()
        scores["nmi_core"] += _nmi_rows(core, *refs[0])
        scores["nmi_real"] += _nmi_rows(real, *refs[1])
        del core, real  # so the next chunk's scan does not hold two chunks' labels
    return scores if reference is not None else {q: v[1:] for q, v in scores.items()}


def run_probability_sweep(matrix: CitationMatrix, cfg: ExperimentConfig,
                          p_grid: list[float] | None = None,
                          kinds: tuple[str, ...] = RANDOM_KINDS) -> SweepResult:
    """Mix random selection into max at each probability on the grid."""
    if len(set(kinds)) < len(kinds):
        raise ValueError(f"kinds repeat: {', '.join(kinds)}")
    if p_grid is None:
        p_grid = default_probability_grid()
    if any(not 0.0 <= p <= 1.0 for p in p_grid):
        raise ValueError("probability grid values must be in [0, 1]")
    tasks = [(g, p, kind, Strategy("mixed", mix_p=p, mix_kind=kind))
             for g, p in enumerate(p_grid) for kind in kinds]
    return _aggregate("probability", tasks, matrix, cfg)


def run_topn_sweep(matrix: CitationMatrix, cfg: ExperimentConfig,
                   topn_grid: list[int]) -> SweepResult:
    """Proportional selection restricted to the top-n candidates, per n.

    Values of n beyond the candidate count are clamped with a warning.
    The metadata reports where mean real-level NMI first crosses below
    0.5, if it does.
    """
    if any(t < 1 for t in topn_grid):
        raise ValueError("topn grid values must be >= 1")
    limit = matrix.n_nodes - 1
    clamped = []
    for t in topn_grid:
        if t > limit:
            warnings.warn(f"topn={t} exceeds the {limit} available candidates; clamped")
            t = limit
        clamped.append(t)
    tasks = [(g, t, "psim", Strategy("psim", topn=t)) for g, t in enumerate(clamped)]
    result = _aggregate("topn", tasks, matrix, cfg)
    crossing = next((row.grid_value for row in result.rows
                     if row.mean["nmi_real"] < 0.5), None)
    return replace(result, metadata={"nmi_real_below_half_at": crossing})


def run_deletion_sweep(matrix: CitationMatrix, cfg: ExperimentConfig,
                       d_grid: list[float] | None = None) -> SweepResult:
    """Max selection with a fraction of each similarity row hidden, per d."""
    if d_grid is None:
        d_grid = default_deletion_grid()
    if any(not 0.0 <= d <= 1.0 for d in d_grid):
        raise ValueError("deletion grid values must be in [0, 1]")
    tasks = [(g, d, "max", Strategy("max", deletion=d)) for g, d in enumerate(d_grid)]
    return _aggregate("deletion", tasks, matrix, cfg)


def default_probability_grid() -> list[float]:
    return [round(0.1 * i, 1) for i in range(11)]


def default_deletion_grid() -> list[float]:
    return [round(0.1 * i, 1) for i in range(10)]


def planted_recovery(spec: SyntheticSpec | None = None, n_seeds: int = 20,
                     base_seed: int = 0) -> list[float]:
    """Real-level NMI against planted truth over fresh synthetic matrices.

    Detection is iterated to a fixed point: single-pass max selection
    fragments blocks into many small mutual-nearest-neighbor cores, and the
    coarse-grained iteration is what reassembles them.
    """
    spec = spec or SyntheticSpec()
    scores = []
    for r in range(n_seeds):
        seeded = replace(spec, seed=derive_seed(base_seed, r))
        matrix, truth = generate_planted_citation_matrix(seeded)
        detection = detect(matrix, Strategy("max"), seed=0, levels=FIXPOINT)
        scores.append(nmi(detection.real, truth))
    return scores
