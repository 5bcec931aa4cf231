"""Write a BENCH json: the benchmark's end-to-end runs and the per-stage times of detect.

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
the earlier calls' frees, so it can exceed any one call's peak. A child
starts from its parent's ``ru_maxrss``, so the inputs are drawn in a
child of their own and this script's process stays small. Times are
wall seconds (``time.perf_counter``), unscaled.

The CLI reads a new matrix on every call. So each input and level also
has a ``reused`` case (under ``detect_reused``): the matrix is read once,
untimed, and ``detect`` then runs ``CALLS`` times on it in-process, as
detect_5k's ops and the demos do. Its first call builds the similarity
state the matrix keeps (normalisation, component labels, block layout),
and the later calls reuse it, so the first call is recorded apart from
the warm median and the work moved to first use shows in ``cold_s``.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("detect_5k", "sweep_1k", "cli_100")
# stage -> the (module, function) pairs of the ``simpair`` package it wraps
STAGES = {
    "read": [("cli", "read_citations")],
    "normalisation": [("pipeline", "build_similarity_matrix")],
    "selection": [("pipeline", "select_pairs")],
    "communities": [("pipeline", "_level")],
    "renormalize": [("pipeline", "renormalize")],
    "output": [("cli", "write_detection_json"), ("cli", "write_partition"),
               ("cli", "write_pairs")],
    "detect": [("cli", "detect")],
}
# CLI calls per process, by input: one cold call, then warm ones
CALLS = {"cli_100": 21, "detect_5k": 6, "planted_100k": 2}
SECONDS = 30  # per perfbench run
SEED = 1  # of the perfbench runs and the two workload inputs
REPS = 3  # fresh processes per detect case


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
    sys.path.insert(0, str(ROOT / "src"))
    from simpair import Strategy, cli, io, pipeline

    modules = {"cli": cli, "pipeline": pipeline}
    totals: dict[str, float] = {}
    for stage, targets in STAGES.items():
        for module, name in targets:
            setattr(modules[module], name, timed(totals, stage, getattr(modules[module], name)))
    matrix = io.read_citations(path, "edges") if reused else None
    # a reused matrix is read once, untimed, and nothing is written
    stages = [s for s in (*STAGES, "cli") if not reused or s not in ("read", "output", "cli")]
    per_call, cold_rss = [], None
    for _ in range(calls):
        totals.clear()
        if reused:
            levels_run = cli.detect(matrix, Strategy("max"),
                                    levels=levels).provenance["levels_run"]
        else:
            levels_run = _cli_call(path, levels, totals)
        per_call.append({stage: totals.get(stage, 0.0) for stage in stages})
        if cold_rss is None:
            cold_rss = _maxrss_mb()
    warm = per_call[1:] or per_call
    return {
        "levels_run": levels_run,
        "calls": calls,
        "cold_s": {stage: round(t, 6) for stage, t in per_call[0].items()},
        "warm_s": {stage: round(statistics.median(c[stage] for c in warm), 6)
                   for stage in per_call[0]},
        "cold_ru_maxrss_mb": cold_rss,
        "ru_maxrss_mb": _maxrss_mb(),
    }


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
    """The three edge files, by case name, each with its size record."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from gen import BlockSpec, write_input
    from workloads import BY_NAME

    inputs = {}
    for name in ("cli_100", "detect_5k"):
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
    ap.add_argument("--write-inputs", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.stage_run:
        path, levels, calls = args.stage_run
        print(json.dumps(stage_run(path, int(levels), int(calls), args.reused)))
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
              "detect_reused": {}}
    for workload in WORKLOADS:
        print(f"perfbench {workload}", file=sys.stderr, flush=True)
        report["perfbench"][workload] = perfbench_run(workload)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = child("--write-inputs", tmp)
        for name, rec in inputs.items():
            size = {k: v for k, v in rec.items() if k != "path"}
            for levels in (1, 0):
                case = f"{name} levels{levels}"
                for section, flags in (("detect", ()), ("detect_reused", ("--reused",))):
                    print(f"{section} {case}", file=sys.stderr, flush=True)
                    runs = [child("--stage-run", rec["path"], str(levels), str(CALLS[name]),
                                  *flags) for _ in range(REPS)]
                    report[section][case] = {"input": size, "runs": runs}
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
