"""Per-block similarity kernel table: which kernel the rule picks, and what each costs.

usage, from the repository root:
    python3 scripts/kernel_table.py [SCALE] [--reps R]

For each input, under both block layouts (consecutive ``BLOCK_ROWS``-row
slices, and whole weak components as ``SimilarityMatrix.blocks`` lays
them out), prints the number of blocks and how many of them are closed
(see ``SimilarityMatrix._layout``; consecutive slices never are). A
closed block has one kernel, the dense product of its own rows of
``unit``; the table gives its blocks' time. For the blocks that cut a
component it gives how many of them the kernel rule sends to the dense
kernel, and their time with the CSR product forced, with the dense kernel
forced, and with the rule choosing. Each time is the sum over blocks of
the best of R timings of one ``_block`` call. It asserts that a closed
block gives the same ``(cols, vals)`` bytes as both kernels from
``unit``'s transpose, and that both kernels give the same bytes for a
block that cuts a component, and exits 1 if they do not.

SCALE (default 1) multiplies every input's node count and citation
volume; 0.1 runs in a few seconds, as a correctness smoke test. Block
inputs come from the benchmark's generator (``perfbench/gen.py``);
"shuffled" permutes their ids, as in real citation data (with "blocks of
150", more than ``BLOCK_ROWS``, every component is cut, so every block is
open and its rows are scattered), and "hub"
inputs draw targets from a power law of exponent alpha, so S is nearly
dense.
"""
import argparse
import sys
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np

sys.path.insert(0, "src")
sys.path.insert(0, "perfbench")

from gen import BlockSpec, draw_edges  # noqa: E402

from simpair import CitationMatrix, build_similarity_matrix, similarity  # noqa: E402
from simpair.selection import BLOCK_ROWS  # noqa: E402

# (DENSE_RATIO, OUTPUT_RATIO) forcing one kernel on every block that cuts a component
FORCED = {"csr": (0, 0), "dense": (float("inf"), 0)}


def planted(spec: BlockSpec, shuffle: bool = False) -> CitationMatrix:
    src, dst, count = draw_edges(spec, (0,))
    if shuffle:
        perm = np.random.default_rng(1).permutation(spec.n_nodes)
        src, dst = perm[src], perm[dst]
    return CitationMatrix.from_entries(spec.n_nodes, src, dst, count)


def hub(n: int, alpha: float, per_node: int = 50) -> CitationMatrix:
    """``per_node`` citations per node, the target of rank r drawn with weight
    r ** (-1 / (alpha - 1)), under shuffled ids."""
    rng = np.random.default_rng(0)
    weight = np.arange(1, n + 1, dtype=float) ** (-1.0 / (alpha - 1.0))
    dst = rng.permutation(n)[rng.choice(n, size=n * per_node, p=weight / weight.sum())]
    src = np.repeat(np.arange(n), per_node)
    return CitationMatrix.from_entries(n, src, dst, np.ones(len(src), dtype=np.int64))


def inputs(scale: float) -> dict:
    """Name -> a function drawing the input, at ``scale``."""
    def spec(n_blocks, volume, cross_rate, block_size=100):
        return BlockSpec(n_blocks=max(2, round(n_blocks * scale)), block_size=block_size,
                         volume=max(1000, round(volume * scale)), cross_rate=cross_rate)
    n_hub = max(200, round(5000 * scale))
    return {
        "detect_5k": lambda: planted(spec(50, 2_500_000, 0.0)),
        "sweep_1k": lambda: planted(spec(10, 100_000, 0.5)),
        "cross 5k": lambda: planted(spec(50, 2_500_000, 0.5)),
        "shuffled 5k": lambda: planted(spec(50, 2_500_000, 0.0), shuffle=True),
        "shuffled 5k, cross 0.05": lambda: planted(spec(50, 2_500_000, 0.05), shuffle=True),
        "shuffled 5k, blocks of 150": lambda: planted(spec(34, 500_000, 0.0, 150), shuffle=True),
        "hub 5k": lambda: hub(n_hub, 2.5),
        "hub 5k, alpha 2.1": lambda: hub(n_hub, 2.1),
        "sorted 20k": lambda: planted(spec(200, 1_000_000, 0.0)),
        "shuffled 20k": lambda: planted(spec(200, 1_000_000, 0.0), shuffle=True),
        "planted 100k": lambda: planted(spec(1000, 5_000_000, 0.0)),
    }


@contextmanager
def kernel_rule(costs):
    """The rule's (DENSE_RATIO, OUTPUT_RATIO) set to ``costs`` for the block."""
    saved = similarity.DENSE_RATIO, similarity.OUTPUT_RATIO
    similarity.DENSE_RATIO, similarity.OUTPUT_RATIO = costs
    try:
        yield
    finally:
        similarity.DENSE_RATIO, similarity.OUTPUT_RATIO = saved


def timed(s, rows, closed: bool, reps: int) -> tuple[float, bytes, bool]:
    """The best of ``reps`` timings of ``s._block(rows, closed)``, its output bytes,
    and whether the dense kernel from ``unit``'s transpose computed it."""
    dense = []
    kernel = similarity._dense_product

    def recorded(*args):
        dense.append(True)
        return kernel(*args)

    _, local = s._layout(BLOCK_ROWS)  # built once per matrix, before any timing
    best = np.inf
    with mock.patch.object(similarity, "_dense_product", recorded):
        for _ in range(reps):
            start = time.perf_counter()
            cols, vals = s._block(rows, closed, local)
            best = min(best, time.perf_counter() - start)
    return best, cols.tobytes() + vals.tobytes(), bool(dense)


def layouts(s) -> dict:
    """Layout name -> the rows of each block and whether it is closed."""
    n = s.n_nodes
    return {"consecutive": [(np.arange(lo, min(lo + BLOCK_ROWS, n)), False)
                            for lo in range(0, n, BLOCK_ROWS)],
            "components": s._layout(BLOCK_ROWS)[0]}


def table(scale: float, reps: int) -> bool:
    """Print one line per (input, layout); False if the kernels ever differ."""
    same = True
    print(f"{'input':<26} {'layout':<12} {'blocks':>6} {'closed':>6} {'closed ms':>9} "
          f"{'dense':>5} {'csr ms':>9} {'dense ms':>9} {'rule ms':>9}")
    for name, make in inputs(scale).items():
        s = build_similarity_matrix(make())
        for layout, blocks in layouts(s).items():
            ms = dict.fromkeys(("closed", "csr", "dense", "rule"), 0.0)
            n_dense = 0
            for rows, closed in blocks:
                out = {}
                for kernel, costs in FORCED.items():
                    with kernel_rule(costs):
                        best, out[kernel], _ = timed(s, rows, False, 1 if closed else reps)
                    if not closed:
                        ms[kernel] += 1e3 * best
                best, out["rule"], dense = timed(s, rows, closed, reps)
                ms["closed" if closed else "rule"] += 1e3 * best
                n_dense += dense
                if len(set(out.values())) > 1:
                    print(f"kernels differ: {name}, {layout}, rows {rows[:5]}...", flush=True)
                    same = False
            n_closed = sum(closed for _, closed in blocks)
            print(f"{name:<26} {layout:<12} {len(blocks):>6} {n_closed:>6} {ms['closed']:>9.1f} "
                  f"{n_dense:>5} {ms['csr']:>9.1f} {ms['dense']:>9.1f} {ms['rule']:>9.1f}",
                  flush=True)
    return same


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("scale", type=float, nargs="?", default=1.0)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()
    sys.exit(0 if table(args.scale, args.reps) else 1)
