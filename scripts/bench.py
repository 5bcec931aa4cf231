"""Write a BENCH json: the benchmark's end-to-end runs and the per-stage times of detect and a sweep.

usage, from the repository root:
    python3 scripts/bench.py BENCH_<n>.json

First it runs ``perfbench/run.py`` as it stands, once per workload
(``SECONDS`` long, at seed ``SEED``), and keeps each run's last JSON line
(its end-to-end metrics). Then it runs ``simpair detect`` with ``max``
in-process, at one level and at the fixed point, on three edge files:
the cli_100 and detect_5k workloads' first inputs at ``SEED``, and the
planted 100k input (1000 blocks of 100 nodes, 5M citations, drawn from
seed 0). Each case runs in ``REPS`` fresh processes. Each process calls
``simpair.cli.main`` several times (``CALLS``) and times these stages of
each call by wrapping the functions the CLI calls:

* read - ``read_citations`` of the edge file;
* normalisation - ``build_similarity_matrix``, summed over levels;
* selection - ``select_pairs``, which computes S block by block;
* communities - one level's cores, reals, partitions and stats;
* renormalize - the coarse matrices of the fixed point's later levels;
* output - the text of ``result.json`` and the three TSVs, written to a
  temporary directory;

and also ``detect`` whole and the whole CLI call. A run records the first
call (``cold``: imports done, but first-use costs paid), the median of
the later calls (``warm``), and the process's ``ru_maxrss`` after the
first call (``cold_ru_maxrss_mb``, the peak of one call) and at the end
(``ru_maxrss_mb``). The end value also holds the allocator's state after
the earlier calls' frees, so it can exceed any one call's peak. So after
the timed calls each process makes one more call under ``tracemalloc``
and records its peak (``tracemalloc_peak_mb``): the most bytes that call
had allocated and not yet freed at once, whatever the heap held before.
It is traced apart because tracing slows the allocations it counts. A
child starts from its parent's ``ru_maxrss``, so the inputs are drawn in
a child of their own and this script's process stays small. Times are
wall seconds (``time.perf_counter``), unscaled.

The CLI reads a new matrix on every call. So each input and level also
has a ``reused`` case (under ``detect_reused``): the matrix is read once,
untimed, and ``detect`` then runs ``CALLS`` times on it in-process, as
detect_5k's ops and the demos do. Its first call builds the similarity
state the matrix keeps (normalisation, component labels, block layout),
and the later calls reuse it, so the first call is recorded apart from
the warm median and the work moved to first use shows in ``cold_s``.

The ``sweep`` case runs the sweep_1k workload's cycle of three ops
(probability, top-n and deletion sweeps, one repetition each) on its
first input at ``SEED``, ``SWEEP_CYCLES`` times in each of ``REPS``
processes, and records per op kind the same cold and warm stages, where
selection is ``select_many`` (every run's pairs at once) and communities
is the scoring of all runs (``sweeps._score``: community builds and NMI),
beside the whole op (``sweep``).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("detect_5k", "sweep_1k", "cli_100")
# stage -> the (module, function) pairs of the ``simpair`` package it wraps
STAGES = {
    "read": [("cli", "read_citations")],
    "normalisation": [("pipeline", "build_similarity_matrix"),
                      ("sweeps", "build_similarity_matrix")],
    "selection": [("pipeline", "select_pairs"), ("sweeps", "select_many")],
    "communities": [("pipeline", "_level"), ("sweeps", "_score")],
    "renormalize": [("pipeline", "renormalize")],
    "output": [("cli", "write_detection_json"), ("cli", "write_partition"),
               ("cli", "write_pairs")],
    "detect": [("cli", "detect")],
}
# CLI calls per process, by input: one cold call, then warm ones
CALLS = {"cli_100": 21, "detect_5k": 6, "planted_100k": 2}
SWEEP_CYCLES = 8  # cycles of sweep_1k's three ops per process: one cold, then warm
SWEEP_STAGES = ("normalisation", "selection", "communities", "sweep")
SECONDS = 30  # per perfbench run
SEED = 1  # of the perfbench runs and the three workload inputs
REPS = 3  # fresh processes per detect or sweep case


def timed(totals: dict, stage: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            totals[stage] = totals.get(stage, 0.0) + time.perf_counter() - start
    return wrapper


def stage_run(path: str, levels: int, calls: int, reused: bool) -> dict:
    """``calls`` CLI ``detect`` runs on ``path``, or with ``reused`` ``calls``
    ``detect`` calls on the one matrix read from it, timed per stage (run in a
    fresh process)."""
    totals: dict[str, float] = {}
    _wrap_stages(totals)
    from simpair import Strategy, cli, io

    matrix = io.read_citations(path, "edges") if reused else None
    # a reused matrix is read once, untimed, and nothing is written
    stages = [s for s in (*STAGES, "cli") if not reused or s not in ("read", "output", "cli")]

    def call() -> int:
        totals.clear()
        if reused:
            return cli.detect(matrix, Strategy("max"), levels=levels).provenance["levels_run"]
        return _cli_call(path, levels, totals)

    per_call, cold_rss = [], None
    for _ in range(calls):
        levels_run = call()
        per_call.append({stage: totals.get(stage, 0.0) for stage in stages})
        if cold_rss is None:
            cold_rss = _maxrss_mb()
    return {"levels_run": levels_run, "calls": calls, **_summary(per_call),
            "cold_ru_maxrss_mb": cold_rss, "ru_maxrss_mb": _maxrss_mb(),
            "tracemalloc_peak_mb": _traced_peak_mb(call)}


def sweep_run(path: str, cycles: int) -> dict:
    """``cycles`` cycles of the sweep_1k workload's ops on ``path``, timed per
    stage and op kind (run in a fresh process)."""
    totals: dict[str, float] = {}
    _wrap_stages(totals)
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import BY_NAME

    import simpair

    workload = BY_NAME["sweep_1k"]()
    workload.setup(simpair, [{"path": path}], Path(path).parent, SEED)
    kinds = workload.cycle

    def op(k: int) -> None:
        totals.clear()
        start = time.perf_counter()
        workload.run_op(k)
        totals["sweep"] = time.perf_counter() - start

    per_kind, cold_rss = {kind: [] for kind in kinds}, None
    for k in range(cycles * len(kinds)):
        op(k)
        per_kind[kinds[k % len(kinds)]].append(
            {stage: totals.get(stage, 0.0) for stage in SWEEP_STAGES})
        if cold_rss is None and k == len(kinds) - 1:
            cold_rss = _maxrss_mb()
    return {"cycles": cycles, "ops": {kind: _summary(c) for kind, c in per_kind.items()},
            "cold_ru_maxrss_mb": cold_rss, "ru_maxrss_mb": _maxrss_mb(),
            "tracemalloc_peak_mb": _traced_peak_mb(lambda: [op(k) for k in range(len(kinds))])}


def _wrap_stages(totals: dict) -> None:
    """Time every ``STAGES`` function of the package in ``src`` into ``totals``."""
    sys.path.insert(0, str(ROOT / "src"))
    from simpair import cli, pipeline, sweeps

    modules = {"cli": cli, "pipeline": pipeline, "sweeps": sweeps}
    for stage, targets in STAGES.items():
        for module, name in targets:
            setattr(modules[module], name, timed(totals, stage, getattr(modules[module], name)))


def _summary(per_call: list[dict]) -> dict:
    """The first call's stage times, and the median of the later calls'."""
    warm = per_call[1:] or per_call
    return {"cold_s": {stage: round(t, 6) for stage, t in per_call[0].items()},
            "warm_s": {stage: round(statistics.median(c[stage] for c in warm), 6)
                       for stage in per_call[0]}}


def _traced_peak_mb(call) -> float:
    """The ``tracemalloc`` peak of one more ``call``: the most bytes it held
    allocated at once, not counting what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 1)
    finally:
        tracemalloc.stop()


def _cli_call(path: str, levels: int, totals: dict) -> int:
    """One ``simpair detect`` on ``path`` into a temporary directory, its whole
    time as stage ``cli``; returns the levels it ran."""
    from simpair import cli

    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        start = time.perf_counter()
        with contextlib.redirect_stdout(null):
            code = cli.main(["detect", "--input", path, "--out", tmp, "--strategy", "max",
                             "--levels", str(levels)])
        totals["cli"] = time.perf_counter() - start
        if code != 0:
            raise SystemExit(f"detect exited {code} on {path}")
        return json.loads(Path(tmp, "result.json").read_text())["provenance"]["levels_run"]


def _maxrss_mb() -> float:
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def write_inputs(work: Path) -> dict[str, dict]:
    """The four edge files, by case name, each with its size record."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from gen import BlockSpec, write_input
    from workloads import BY_NAME

    inputs = {}
    for name in ("cli_100", "detect_5k", "sweep_1k"):
        workload = BY_NAME[name]()
        inputs[name] = write_input(work / f"{name}.tsv", workload.specs[0],
                                   workload.input_seed(SEED, 0))
    inputs["planted_100k"] = write_input(work / "planted_100k.tsv",
                                         BlockSpec(1000, 100, 5_000_000), (0,))
    return inputs


def perfbench_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench/run.py --workload {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--stage-run", nargs=3, metavar=("PATH", "LEVELS", "CALLS"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--reused", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--sweep-run", nargs=2, metavar=("PATH", "CYCLES"), help=argparse.SUPPRESS)
    ap.add_argument("--write-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.stage_run:
        path, levels, calls = args.stage_run
        print(json.dumps(stage_run(path, int(levels), int(calls), args.reused)))
        return 0
    if args.sweep_run:
        path, cycles = args.sweep_run
        print(json.dumps(sweep_run(path, int(cycles))))
        return 0
    if args.write_inputs:
        print(json.dumps(write_inputs(Path(args.write_inputs))))
        return 0

    def child(*flags) -> dict:
        proc = subprocess.run([sys.executable, __file__, str(args.out), *flags], cwd=ROOT,
                              capture_output=True, text=True, check=True)
        return json.loads(proc.stdout)

    sys.path.insert(0, str(ROOT / "perfbench"))
    from run import environment

    report = {"command": ["python3", "scripts/bench.py", *sys.argv[1:]],
              "environment": environment(), "perfbench": {}, "detect": {},
              "detect_reused": {}, "sweep": {}}
    for workload in WORKLOADS:
        print(f"perfbench {workload}", file=sys.stderr, flush=True)
        report["perfbench"][workload] = perfbench_run(workload)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = child("--write-inputs", tmp)
        size = {name: {k: v for k, v in rec.items() if k != "path"}
                for name, rec in inputs.items()}
        for name, calls in CALLS.items():
            for levels in (1, 0):
                case = f"{name} levels{levels}"
                for section, flags in (("detect", ()), ("detect_reused", ("--reused",))):
                    print(f"{section} {case}", file=sys.stderr, flush=True)
                    runs = [child("--stage-run", inputs[name]["path"], str(levels), str(calls),
                                  *flags) for _ in range(REPS)]
                    report[section][case] = {"input": size[name], "runs": runs}
        print("sweep sweep_1k", file=sys.stderr, flush=True)
        runs = [child("--sweep-run", inputs["sweep_1k"]["path"], str(SWEEP_CYCLES))
                for _ in range(REPS)]
        report["sweep"]["sweep_1k"] = {"input": size["sweep_1k"], "runs": runs}
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
