"""simpair benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload detect_5k --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it drives the package in
``src/`` and no installed copy. The parent draws the workload's inputs
from ``--seed`` (``gen.py``), then starts fresh worker processes
(``worker.py``): a few that only set up, timed from spawn to ``ready`` for
``setup_s``, and one that runs the timed closed loop and the output
checks. Every worker is waited for before the parent exits. End-to-end
times are scaled to a reference host speed (see ``REF_KERNEL_S`` in
``worker.py``); the unscaled figures are printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The lines before
it, and ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``, record the
environment, the inputs, the tail percentile and its sample count, and
(traced) the self time of every layer. Traced spans are written to
``.perfbench_out/<workload>-seed<seed>-spans.tsv``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_KERNEL_S
from workloads import BY_NAME

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 2          # set-up-only workers; the run worker adds one more sample
DEADLINE_S = 170.0        # the whole run, workers included, must end within this


class BenchError(RuntimeError):
    pass


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "caches": {},
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        env["caches"][f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return env


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def start_worker(args, work: Path, mode: str,
                 deadline: float) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for its ``ready`` and ``kernel`` lines.

    Returns the process, its set-up time and its reference-kernel time.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), "--src", str(SRC),
           "--mode", mode, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    kernel = proc.stdout.readline().split()
    if line.strip() != "ready" or len(kernel) != 2 or kernel[0] != "kernel":
        finish(proc, deadline)
        raise BenchError(f"{mode} worker failed during set-up (exit {proc.returncode})")
    if time.perf_counter() > deadline:
        finish(proc, deadline)
        raise BenchError("deadline passed during set-up")
    return proc, setup, float(kernel[1])


def finish(proc: subprocess.Popen, deadline: float) -> int:
    """Wait for a worker until the deadline; kill it past that. Returns its exit code."""
    try:
        proc.wait(timeout=max(0.1, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()
    return proc.returncode


def run(args) -> dict:
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "simpair" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'simpair'}")
    workload = BY_NAME[args.workload]()
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = workload.make_inputs(work, args.seed)
        (work / "inputs.json").write_text(json.dumps(inputs))
        setups = []  # (raw set-up seconds, reference-kernel seconds)
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup, kernel = start_worker(args, work, "probe", deadline)
                if finish(proc, deadline) != 0:
                    raise BenchError("set-up probe failed")
                setups.append((setup, kernel))
        proc, setup, kernel = start_worker(args, work, "run", deadline)
        setups.append((setup, kernel))
        code = finish(proc, deadline)
        if code != 0:
            raise BenchError(f"run worker exited with {code}")
        result = json.loads((work / "result.json").read_text())
        OUT_ROOT.mkdir(exist_ok=True)
        if args.trace:
            shutil.copyfile(work / "spans.tsv",
                            OUT_ROOT / f"{args.workload}-seed{args.seed}-spans.tsv")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["inputs"] = [{k: v for k, v in rec.items() if k != "path"} for rec in inputs]
    result["environment"] = environment()
    result["setup_samples_s"] = [setup for setup, _ in setups]
    if not args.trace:
        result["raw"]["setup_s"] = statistics.median(result["setup_samples_s"])
        result["metrics"]["setup_s"] = (
            statistics.median(setup * REF_KERNEL_S / kernel for setup, kernel in setups), "s")
    return result


def report_lines(args, result: dict) -> list[str]:
    env = result["environment"]
    caches = " ".join(f"{k} {v}" for k, v in env["caches"].items())
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}",
        f"env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
        f"nproc {env['nproc']} cpu {env['cpu']!r} caches {caches}",
    ]
    for i, rec in enumerate(result["inputs"]):
        lines.append(f"input{i}: n_nodes {rec['n_nodes']} edges {rec['edges']} "
                     f"file_bytes {rec['file_bytes']} citations {rec['citations']}")
    lines.append(f"ops: {result['attempted']} attempted, {result['failed']} failed "
                 f"{result['failed_ops'][:10]}, {result['wall_s']:.2f} s")
    if "tail" in result:
        t = result["tail"]
        lines.append(f"op_tail_s is p{t['percentile']:.1f}: {t['beyond']} of "
                     f"{t['samples']} samples beyond it")
        lines.append("setup samples (s): " + " ".join(f"{s:.4f}" for s in result["setup_samples_s"]))
        lines.append(f"host scale {result['host_scale']:.4f} "
                     f"(mean reference kernel time over {REF_KERNEL_S} s)")
        lines.append("unscaled: " + " ".join(f"{k} {v:.6g}" for k, v in result["raw"].items()))
    else:
        ranked = sorted(result["layer_self_s"].items(), key=lambda kv: -kv[1])
        lines.append("layer self time (s/op): " + " ".join(f"{k} {v:.6f}" for k, v in ranked))
        lines.append(f"tracing overhead: first ops traced {result['traced_ops_s']:.3f} s, "
                     f"replayed untraced {result['untraced_ops_s']:.3f} s")
        if result["absent_bindings"]:
            lines.append("absent bindings: " + " ".join(result["absent_bindings"]))
    for name, (value, unit) in result["metrics"].items():
        lines.append(f"  {name} = {value:.6g} {unit}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    for line in report_lines(args, result):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
