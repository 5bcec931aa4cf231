"""The three workloads: their inputs, their ops and their output checks.

Every workload is a closed loop with one client in one process: op k
starts when op k-1 has returned. Ops follow a fixed cycle, and a run
always ends on a whole cycle, so the mix of op kinds, and with it the
median, does not depend on where the clock ran out.

* ``detect_5k`` - 50 planted blocks of 100 nodes, no cross-block
  citations, 2.5M citations. Similarity dominates: the N x N similarity
  is about 98 % zeros but stored dense, and it is the memory wall. No
  random stream is drawn, so selection and rng are bypassed.
* ``sweep_1k`` - 10 planted blocks of 100 nodes with cross-block
  citations, so random partners cross blocks. Per-node seed streams and
  Python selection loops dominate; similarity runs only twice per op (the
  max reference and the sweep), so it barely moves.
* ``cli_100`` - the paper-scale spec, 4 blocks of 25 nodes and 50k
  citations, from three seeds. One in-process ``simpair detect`` per op,
  about 20 ms, so per-call overhead (reading, argument parsing, writing
  results) dominates.

Op seeds are derived from the workload seed; no op reuses another's.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from pathlib import Path

from checks import (
    CosineOracle,
    pairs_tsv_sorted,
    read_partition_tsv,
    same_partition,
    sweep_rows_ok,
)
from gen import BlockSpec, draw_edges, write_input


def op_seed(seed: int, k: int) -> int:
    return seed * 100_003 + k


class Workload:
    name = ""
    specs: tuple[BlockSpec, ...] = ()
    cycle: tuple[str, ...] = ()

    def input_seed(self, seed: int, f: int) -> tuple[int, ...]:
        return (seed, WORKLOADS.index(type(self)), f)

    def make_inputs(self, work: Path, seed: int) -> list[dict]:
        """Draw this workload's edge-list files from ``seed`` (runs in the parent)."""
        return [write_input(work / f"input{f}.tsv", spec, self.input_seed(seed, f))
                for f, spec in enumerate(self.specs)]

    def setup(self, simpair, inputs: list[dict], work: Path, seed: int) -> None:
        """Read every input through the package; this is what set-up time covers."""
        self.simpair, self.inputs, self.work, self.seed = simpair, inputs, work, seed
        self.matrices = [simpair.io.read_citations(rec["path"], "edges") for rec in inputs]

    def run_op(self, k: int):
        raise NotImplementedError

    def check(self, k: int, output) -> bool:
        raise NotImplementedError

    def final_checks(self, outputs: list) -> set[int]:
        """Checks that need more than one op's output; returns failed op indices."""
        return set()


class Detect5k(Workload):
    name = "detect_5k"
    specs = (BlockSpec(n_blocks=50, block_size=100, volume=2_500_000),)
    cycle = ("max-levels1", "max-fixpoint")

    def run_op(self, k):
        sp = self.simpair
        levels = 1 if k % 2 == 0 else 0
        det = sp.pipeline.detect(self.matrices[0], sp.Strategy("max"), levels=levels)
        return det.pairs if levels == 1 else det.real.labels

    def check(self, k, output):
        if k % 2 == 1:
            return same_partition(output, self.specs[0].truth())
        if not hasattr(self, "oracle"):
            spec = self.specs[0]
            self.oracle = CosineOracle(*draw_edges(spec, self.input_seed(self.seed, 0)),
                                       spec.n_nodes)
        if not output:
            return False
        selector, selected, sim = zip(*output)
        return self.oracle.check_max_pairs(selector, selected, sim)


PROB_GRID = [round(0.1 * i, 1) for i in range(11)]
TOPN_GRID = [1, 2, 5, 10, 30]
DEL_GRID = [round(0.1 * i, 1) for i in range(10)]


class Sweep1k(Workload):
    name = "sweep_1k"
    specs = (BlockSpec(n_blocks=10, block_size=100, volume=100_000, cross_rate=0.5),)
    cycle = ("probability", "topn", "deletion")
    repetitions = 1

    def run_op(self, k):
        sw = self.simpair.sweeps
        cfg = sw.ExperimentConfig(repetitions=self.repetitions,
                                  base_seed=op_seed(self.seed, k), jobs=1)
        m = self.matrices[0]
        kind = self.cycle[k % 3]
        if kind == "probability":
            return sw.run_probability_sweep(m, cfg)
        if kind == "topn":
            return sw.run_topn_sweep(m, cfg, TOPN_GRID)
        return sw.run_deletion_sweep(m, cfg)

    def check(self, k, output):
        kind = self.cycle[k % 3]
        if kind == "probability":
            return sweep_rows_ok(output, PROB_GRID, ("psim", "p"), exact_grid_value=0.0)
        if kind == "topn":
            return sweep_rows_ok(output, TOPN_GRID, ("psim",))
        return sweep_rows_ok(output, DEL_GRID, ("max",), exact_grid_value=0.0)

    def final_checks(self, outputs):
        """Re-run op 0 and require its CSV byte for byte."""
        if not outputs or outputs[0] is None:
            return set()
        try:
            again = self.run_op(0).to_csv()
        except Exception:
            return {0}
        return set() if again == outputs[0].to_csv() else {0}


CLI_COMMANDS = (
    ("max-fixpoint", ["--strategy", "max", "--levels", "0"]),
    ("psim", ["--strategy", "psim"]),
    ("psim-top5", ["--strategy", "psim", "--topn", "5"]),
    ("max-delete0.3", ["--strategy", "max", "--delete", "0.3"]),
    ("p-fixpoint", ["--strategy", "p", "--levels", "0"]),
)


class Cli100(Workload):
    name = "cli_100"
    specs = (BlockSpec(n_blocks=4, block_size=25, volume=50_000),) * 3
    cycle = tuple(name for name, _ in CLI_COMMANDS)

    def out_dir(self, k) -> Path:
        return self.work / "out" / f"op{k}"

    def run_op(self, k):
        _, flags = CLI_COMMANDS[k % len(CLI_COMMANDS)]
        argv = ["detect", "--input", self.inputs[k % len(self.inputs)]["path"],
                "--out", str(self.out_dir(k)), "--seed", str(op_seed(self.seed, k)), *flags]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            try:
                return self.simpair.cli.main(argv)
            except SystemExit as exc:
                return exc.code

    def check(self, k, output):
        out = self.out_dir(k)
        n = self.specs[0].n_nodes
        try:
            ok = output == 0 and json.loads((out / "result.json").read_text())["n_nodes"] == n
        except (OSError, ValueError, KeyError):
            return False
        core = read_partition_tsv(out / "partition_core.tsv", n)
        real = read_partition_tsv(out / "partition_real.tsv", n)
        ok = ok and core is not None and real is not None and pairs_tsv_sorted(out / "pairs.tsv")
        if ok and CLI_COMMANDS[k % len(CLI_COMMANDS)][0] == "max-fixpoint":
            ok = same_partition(real, self.specs[0].truth())
        shutil.rmtree(out, ignore_errors=True)
        return ok


WORKLOADS = [Detect5k, Sweep1k, Cli100]
BY_NAME = {w.name: w for w in WORKLOADS}
