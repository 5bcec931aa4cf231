"""One workload in one fresh process; started by ``run.py``.

``--mode probe`` imports the package, reads the inputs, prints ``ready``,
times the reference kernel and exits: the parent times it as one set-up
sample. ``--mode run`` does the same set-up, then the timed closed loop,
reads its own peak RSS, runs the output checks, and writes
``result.json`` into the work directory.
With ``--trace 1`` the package's public functions are wrapped, the loop is
traced, and the first third of the ops is then replayed untraced to
measure the tracing overhead.

Which end-to-end metric each layer metric should move, and where:

* ``similarity.*``: ``op_p50_s``, ``ops_per_s`` and ``peak_rss_mb`` on
  detect_5k; nothing on sweep_1k.
* ``selection.*`` and ``rng.*``: ``ops_per_s`` and ``op_p50_s`` on
  sweep_1k; little on cli_100; nothing on detect_5k.
* ``communities.*``: sweep_1k (one build per repetition) and the fixpoint
  ops of detect_5k.
* ``metrics.*``: sweep_1k.
* ``io.*`` and ``citations.*``: ``op_p50_s`` on cli_100; ``setup_s`` and
  ``peak_rss_mb`` on detect_5k.
* ``cli.*``: cli_100.
* ``pipeline.*`` and ``sweeps.*`` are glue and should stay small everywhere.

Time metrics are self time per op over the timed loop (``s/op``), except
the input read (``io.read_citations.s``, ``citations.from_entries.s``),
which is per call and includes the set-up reads.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from spans import SETUP_OP, Tracer, self_times
from workloads import BY_NAME

# span name -> per-layer metric reporting its self seconds per op
SELF_PER_OP = {
    "similarity.build_similarity_matrix": "similarity.s",
    "selection.select_max": "selection.select_max.s",
    "selection.select_psim": "selection.select_psim.s",
    "selection.select_random": "selection.select_random.s",
    "selection.select_mixed": "selection.select_mixed.s",
    "selection.apply_random_deletion": "selection.apply_random_deletion.s",
    "rng.node_stream": "rng.node_stream.s",
    "communities.build_communities": "communities.build_communities.s",
    "communities.extract_partition": "communities.extract_partition.s",
    "communities.renormalize": "communities.renormalize.s",
    "metrics.nmi": "metrics.nmi.s",
    "metrics.partition_stats": "metrics.partition_stats.s",
    "io.write": "io.write.s",
    "cli.build_parser": "cli.build_parser.s",
    "pipeline.detect": "pipeline.detect.self_s",
}
CALLS_PER_OP = {
    "similarity.build_similarity_matrix": "similarity.calls",
    "rng.node_stream": "rng.node_stream.calls",
    "rng.derive_seed": "rng.derive_seed.calls",
    "metrics.nmi": "metrics.nmi.calls",
}
COUNTS_PER_OP = {
    "similarity.nnz_out": ("similarity.nnz_out", "count/op"),
    "similarity.bytes_out": ("similarity.bytes_out", "B/op"),
    "communities.tide_events": ("communities.tide_events", "count/op"),
    "communities.coarse_nodes": ("communities.coarse_nodes", "count/op"),
    "io.write.bytes": ("io.write.bytes", "B/op"),
}
# layers whose summed self time is reported beside the per-function figures
LAYER_TOTALS = ("cli", "io", "citations", "selection", "rng", "communities",
                "metrics", "sweeps", "bench")
LAYERS = ("cli", "io", "citations", "similarity", "selection", "rng",
          "communities", "metrics", "pipeline", "sweeps", "bench")


def layer_metrics(tracer: Tracer, n_ops: int, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metrics from the spans; also the self time of every layer."""
    spans = [s for s in tracer.spans if s is not None]
    selfs = self_times(spans)
    self_by_name = defaultdict(float)
    calls_by_name = defaultdict(int)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    read_self = read_calls = entries_self = 0.0
    for (_, name, _, _, _, op), own in zip(spans, selfs):
        if name == "io.read_citations":
            read_self += own
            read_calls += 1
        elif name == "citations.from_entries":
            entries_self += own
        if op == SETUP_OP:
            continue
        self_by_name[name] += own
        calls_by_name[name] += 1
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += own

    c = tracer.counts
    out = {}
    for name, metric in SELF_PER_OP.items():
        out[metric] = (self_by_name[name] / n_ops, "s/op")
    for name, metric in CALLS_PER_OP.items():
        out[metric] = (calls_by_name[name] / n_ops, "calls/op")
    for counter, (metric, unit) in COUNTS_PER_OP.items():
        out[metric] = (c[counter] / n_ops, unit)
    for layer in LAYER_TOTALS:
        out[f"{layer}.self_s"] = (layer_self[layer] / n_ops, "s/op")
    out["selection.pairs_per_node"] = (
        c["selection.pairs"] / c["selection.nodes"] if c["selection.nodes"] else 0.0, "pairs/node")
    out["communities.tide_merge_ratio"] = (
        c["communities.tide_merges"] / c["communities.tide_events"]
        if c["communities.tide_events"] else 0.0, "ratio")
    detects = calls_by_name["pipeline.detect"]
    out["pipeline.levels_run"] = (c["pipeline.levels_run"] / detects if detects else 0.0,
                                  "levels/call")
    out["io.read_citations.s"] = (read_self / read_calls if read_calls else 0.0, "s/call")
    out["io.read_citations.bytes"] = (
        c["io.read_citations.bytes"] / read_calls if read_calls else 0.0, "B/call")
    out["citations.from_entries.s"] = (entries_self / read_calls if read_calls else 0.0,
                                       "s/call")
    out["trace.overhead_s"] = (overhead_s, "s/op")
    out["trace.spans"] = (len(spans) / n_ops, "count/op")
    out["trace.absent_bindings"] = (float(len(tracer.absent)), "count")
    return out, {layer: t / n_ops for layer, t in layer_self.items()}


# Host-speed calibration. On a shared host the same op can take twice as
# long from one minute to the next, and the slowdown hits the benchmark's
# own fixed kernel about as hard as the package. Each untraced run times
# the kernel after every op, outside the op's timing, and divides every
# end-to-end time by (mean kernel time / REF_KERNEL_S): times are seconds on
# a host where the kernel takes REF_KERNEL_S. The mean follows the mix of
# fast and slow spells in a run more steadily than the median or a matched
# percentile did (ten seeds per workload: quartile spread 0.04 to 0.14 of
# the median, against 0.11 to 0.25 unscaled). The raw figures stay in the
# report. Set-up samples are scaled by the kernel time of their own worker.
REF_KERNEL_S = 1.5e-3


def reference_kernel() -> float:
    """Time a fixed mix of interpreter work and small numpy calls; never changes."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(10_000):
        acc += i * i
        table[i & 255] = acc
    a = np.arange(2000.0)
    for _ in range(25):
        a = np.sort(a[::-1]) + 1.0
    return time.perf_counter() - start


def timed_loop(workload, seconds: float, tracer: Tracer | None = None,
               n_ops: int | None = None, calibrate: bool = False):
    """Closed loop over whole cycles until ``seconds`` pass (or ``n_ops`` ops ran).

    With ``calibrate`` the reference kernel runs after every op; its times
    are returned and left out of ``wall``.
    """
    latencies, outputs, failed, kernel = [], [], set(), []
    cycle = len(workload.cycle)
    k = 0
    start = time.perf_counter()
    while True:
        for _ in range(cycle):
            if tracer is not None:
                tracer.op = k
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    out = tracer.timed("bench.op", workload.run_op, k)
                else:
                    out = workload.run_op(k)
            except Exception:
                if not failed:
                    traceback.print_exc()
                out = None
                failed.add(k)
            latencies.append(time.perf_counter() - t0)
            outputs.append(out)
            k += 1
            if calibrate:
                kernel.append(reference_kernel())
        if n_ops is not None:
            if k >= n_ops:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return latencies, outputs, failed, time.perf_counter() - start - sum(kernel), kernel


def run_checks(workload, outputs: list, failed: set) -> set:
    failed = set(failed)
    for k, out in enumerate(outputs):
        if k in failed:
            continue
        try:
            ok = workload.check(k, out)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            failed.add(k)
    return failed | workload.final_checks(outputs)


TAIL_LADDER = (90.0, 75.0, 50.0)


def tail(latencies: list[float]) -> dict:
    """The highest percentile of ``TAIL_LADDER`` with at least ten samples beyond it.

    The ladder stops at p90: on a shared 2-core host the ten slowest of a
    thousand 20 ms ops are the ones a neighbour's burst hit, and their
    spread from run to run (0.3 to 0.5 of the median) says more about the
    host than about the program.
    """
    n = len(latencies)
    for pct in TAIL_LADDER:
        rank = max(math.ceil(pct / 100.0 * n), 1)
        if n - rank >= 10:
            break
    return {"value": sorted(latencies)[rank - 1], "percentile": pct,
            "beyond": n - rank, "samples": n}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--mode", choices=("probe", "run"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import simpair
    import simpair.cli
    import simpair.io

    if args.src.resolve() not in Path(simpair.__file__).resolve().parents:
        print(f"simpair imported from {simpair.__file__}, not from {args.src}", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = BY_NAME[args.workload]()
    inputs = json.loads((args.work / "inputs.json").read_text())
    workload.setup(simpair, inputs, args.work, args.seed)
    print("ready", flush=True)
    print(f"kernel {statistics.median(reference_kernel() for _ in range(5))!r}", flush=True)
    if args.mode == "probe":
        return 0

    latencies, outputs, failed, wall, kernel = timed_loop(
        workload, args.seconds, tracer, calibrate=tracer is None)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    failed = run_checks(workload, outputs, failed)
    del outputs
    n = len(latencies)
    result = {"attempted": n, "failed": len(failed), "failed_ops": sorted(failed),
              "wall_s": wall, "latencies_s": latencies}
    if tracer is None:
        result["tail"] = tail(latencies)
        result["raw"] = {"ops_per_s": n / wall, "op_p50_s": statistics.median(latencies),
                         "op_tail_s": result["tail"]["value"]}
        result["host_scale"] = scale = statistics.fmean(kernel) / REF_KERNEL_S
        result["kernel_s"] = kernel
        result["metrics"] = {
            "ops_per_s": (result["raw"]["ops_per_s"] * scale, "1/s"),
            "op_p50_s": (result["raw"]["op_p50_s"] / scale, "s"),
            "op_tail_s": (result["raw"]["op_tail_s"] / scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_ratio": (1.0 - len(failed) / n, "ratio"),
        }
    else:
        # replay the first third of the ops (whole cycles) untraced
        cycle = len(workload.cycle)
        m = max(cycle, n // 3 // cycle * cycle)
        replay = timed_loop(workload, 0.0, n_ops=m)[0]
        overhead = (sum(latencies[:m]) - sum(replay)) / m
        result["metrics"], result["layer_self_s"] = layer_metrics(tracer, n, overhead)
        result["absent_bindings"] = tracer.absent
        result["traced_ops_s"] = sum(latencies[:m])
        result["untraced_ops_s"] = sum(replay)
        tracer.write(args.work / "spans.tsv")
    (args.work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
