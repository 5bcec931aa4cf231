"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import simpair  # noqa: E402
import simpair.cli  # noqa: E402
import simpair.io  # noqa: E402
from checks import (  # noqa: E402
    CosineOracle,
    pairs_tsv_sorted,
    read_partition_tsv,
    same_partition,
    sweep_rows_ok,
)
from gen import BlockSpec, draw_edges, edges_tsv, write_input  # noqa: E402
from spans import Binding, Tracer, self_times  # noqa: E402
from worker import layer_metrics, tail  # noqa: E402
from workloads import Cli100  # noqa: E402

SMALL = BlockSpec(n_blocks=3, block_size=8, volume=2_000)


def test_generator_same_seed_same_bytes():
    a = edges_tsv(*draw_edges(SMALL, (7, 0)))
    assert a == edges_tsv(*draw_edges(SMALL, (7, 0)))
    assert a != edges_tsv(*draw_edges(SMALL, (8, 0)))


def test_generator_draws_the_planted_blocks():
    spec = BlockSpec(n_blocks=4, block_size=10, volume=20_000, cross_rate=0.5)
    src, dst, count = draw_edges(spec, (3,))
    assert count.sum() == spec.volume and count.min() >= 1
    assert np.all(src != dst)
    keys = src * spec.n_nodes + dst
    assert np.all(np.diff(keys) > 0)
    cross = (src // 10) != (dst // 10)
    # in-block weight 10 * 40 * 9, cross weight 0.5 * 40 * 30
    assert count[cross].sum() / spec.volume == pytest.approx(600 / 4200, abs=0.02)
    src, dst, _ = draw_edges(SMALL, (3,))
    assert np.all(src // 8 == dst // 8)


def test_write_input_records_sizes(tmp_path):
    rec = write_input(tmp_path / "x.tsv", SMALL, (1,))
    assert rec["file_bytes"] == (tmp_path / "x.tsv").stat().st_size
    assert rec["citations"] == SMALL.volume and rec["n_nodes"] == 24
    m = simpair.io.read_citations(tmp_path / "x.tsv", "edges")
    assert m.total_citations == SMALL.volume and m.counts.nnz == rec["edges"]


def test_same_partition_rejects_a_moved_node():
    truth = SMALL.truth()
    relabeled = (truth + 1) % 3
    assert same_partition(relabeled, truth)
    moved = relabeled.copy()
    moved[0] = relabeled[-1]
    assert not same_partition(moved, truth)
    assert not same_partition(truth[:-1], truth)


def test_oracle_accepts_max_pairs_and_rejects_corrupted_ones(tmp_path):
    rec = write_input(tmp_path / "x.tsv", SMALL, (5,))
    m = simpair.io.read_citations(rec["path"], "edges")
    pairs = simpair.detect(m, simpair.Strategy("max"), levels=1).pairs
    oracle = CosineOracle(*draw_edges(SMALL, (5,)), SMALL.n_nodes)
    sel, dst, sim = (list(col) for col in zip(*pairs))
    assert oracle.check_max_pairs(sel, dst, sim)

    off = list(sim)
    off[0] += 1e-9
    assert not oracle.check_max_pairs(sel, dst, off)

    i = sel[0]
    worse = next(j for j in range(SMALL.n_nodes)
                 if j != i and oracle.sim[i, j] < oracle.row_max[i])
    assert not oracle.check_max_pairs([i] + sel[1:], [worse] + dst[1:],
                                      [float(oracle.sim[i, worse])] + sim[1:])

    kept = [k for k, s in enumerate(sel) if s != i]
    assert not oracle.check_max_pairs([sel[k] for k in kept], [dst[k] for k in kept],
                                      [sim[k] for k in kept])


def test_file_checks_reject_corrupted_files(tmp_path):
    part = tmp_path / "p.tsv"
    part.write_text("".join(f"{v}\t{v // 2}\n" for v in range(4)))
    assert list(read_partition_tsv(part, 4)) == [0, 0, 1, 1]
    part.write_text("0\t0\n1\t0\n1\t1\n3\t1\n")
    assert read_partition_tsv(part, 4) is None
    part.write_text("0\t0\n1\t0\n2\t1\n")
    assert read_partition_tsv(part, 4) is None

    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("0\t1\t0.900000\n2\t3\t0.900000\n1\t0\t0.500000\n")
    assert pairs_tsv_sorted(pairs)
    pairs.write_text("0\t1\t0.500000\n2\t3\t0.900000\n")
    assert not pairs_tsv_sorted(pairs)


def test_cli_check_rejects_a_corrupted_partition(tmp_path):
    wl = Cli100()
    wl.specs = (BlockSpec(n_blocks=4, block_size=25, volume=50_000),)
    inputs = wl.make_inputs(tmp_path, seed=2)
    wl.setup(simpair, inputs, tmp_path, seed=2)
    assert wl.run_op(0) == 0 and wl.check(0, 0)

    assert wl.run_op(0) == 0
    real = wl.out_dir(0) / "partition_real.tsv"
    labels = [line.split("\t")[1] for line in real.read_text().splitlines()]
    labels[0] = labels[99]  # node 0 moved into the last block
    real.write_text("".join(f"{v}\t{lbl}\n" for v, lbl in enumerate(labels)))
    assert not wl.check(0, 0)
    assert wl.run_op(1) == 0 and not wl.check(1, 2)  # a nonzero exit code fails


def test_sweep_check_rejects_inexact_nmi():
    def row(g, k, nmi):
        return SimpleNamespace(grid_value=g, kind=k, mean={"nmi_core": nmi, "nmi_real": nmi})

    good = SimpleNamespace(rows=[row(0.0, "max", 1.0), row(0.5, "max", 0.7)])
    assert sweep_rows_ok(good, [0.0, 0.5], ("max",), exact_grid_value=0.0)
    bad = SimpleNamespace(rows=[row(0.0, "max", 1.0 - 1e-15), row(0.5, "max", 0.7)])
    assert not sweep_rows_ok(bad, [0.0, 0.5], ("max",), exact_grid_value=0.0)
    assert not sweep_rows_ok(good, [0.0, 0.5, 1.0], ("max",), exact_grid_value=0.0)


def test_self_time_on_a_hand_built_tree():
    spans = [
        (0, "root", 0.0, 10.0, -1, 0),
        (1, "a", 1.0, 4.0, 0, 0),
        (2, "b", 3.0, 6.0, 0, 0),      # overlaps a: the union [1, 6] counts once
        (3, "a.child", 2.0, 3.0, 1, 0),
        (4, "c", 9.0, 12.0, 0, 0),     # runs past the root: clipped to [9, 10]
        (5, "other", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_tracer_wraps_restores_and_reports_absent_bindings():
    original = simpair.cli.build_parser
    tracer = Tracer()
    tracer.install([Binding("cli.build_parser", "simpair.cli", "build_parser"),
                    Binding("gone.fn", "simpair.cli", "no_such_function"),
                    Binding("gone.module", "simpair.no_such_module", "fn")])
    try:
        tracer.op = 0
        tracer.timed("bench.op", simpair.cli.build_parser)
    finally:
        tracer.uninstall()
    assert simpair.cli.build_parser is original
    assert tracer.absent == ["simpair.cli.no_such_function", "simpair.no_such_module.fn"]
    names = [(s[1], s[4]) for s in tracer.spans]
    assert names == [("bench.op", -1), ("cli.build_parser", 0)]


def test_tail_is_the_highest_ladder_percentile_with_ten_beyond():
    assert tail([float(i) for i in range(1000)]) == {
        "value": 899.0, "percentile": 90.0, "beyond": 100, "samples": 1000}
    assert tail([float(i) for i in range(46)]) == {
        "value": 34.0, "percentile": 75.0, "beyond": 11, "samples": 46}
    t = tail([float(i) for i in range(30)])
    assert (t["value"], t["percentile"], t["beyond"]) == (14.0, 50.0, 15)
    assert tail([3.0])["value"] == 3.0


def test_benchmark_json_lists_the_per_layer_metrics_the_trace_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    metrics, _ = layer_metrics(Tracer(), 1, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (_, unit) in metrics.items()}
