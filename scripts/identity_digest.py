"""Byte-identity digest of seeded simpair outputs on the benchmark's block inputs.

usage, from the repository root:
    python3 scripts/identity_digest.py SRC_DIR INPUT_DIR [reps] [--expect EXPECTED]

Prints one SHA-256 per output and a final digest over all of them. Every
``detect`` run is hashed as its pairs, both partitions and its
``result.json`` text (core member order, real member lists, tide rows).
Every one-level run's pairs are also written to a pair file and replayed
through ``simpair detect --pairs`` in-process, and that run's four output
files are hashed too. Last, the 100-node seed-0 input is rewritten with
labels for ids (non-ASCII, quotes, backslashes, and some all digits) and
run through ``simpair detect`` in-process at one level and at the fixed
point, hashing its four output files. Then each script in ``demos/`` is
run in a temporary directory with ``PYTHONPATH=SRC_DIR``, hashing its
standard output.

EXPECTED is the final digest, or a file of an earlier run's printed lines
(``scripts/identity_digest.expected`` holds those of the default 2 reps).
If the outputs differ from it, the script names the first output that
differs (given a file) and exits 1.
"""
import argparse
import contextlib
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("src")
ap.add_argument("inputs", type=Path)
ap.add_argument("reps", type=int, nargs="?", default=2)
ap.add_argument("--expect", help="the expected final digest, or a file of printed lines")
args = ap.parse_args()
src, inputs, reps = args.src, args.inputs, args.reps
sys.path.insert(0, src)
sys.path.insert(0, "perfbench")

from gen import BlockSpec, write_input  # noqa: E402

from simpair import cli  # noqa: E402
from simpair.io import (  # noqa: E402
    detection_to_json,
    pairs_to_tsv,
    partition_to_tsv,
    read_citations,
    write_pairs,
)
from simpair.pipeline import Strategy, detect  # noqa: E402
from simpair import sweeps  # noqa: E402

SPECS = {
    100: BlockSpec(n_blocks=4, block_size=25, volume=50_000),
    1000: BlockSpec(n_blocks=10, block_size=100, volume=100_000, cross_rate=0.5),
    5000: BlockSpec(n_blocks=50, block_size=100, volume=2_500_000),
}
STRATEGIES = {
    "max": Strategy("max"),
    "psim": Strategy("psim"),
    "psim-top5": Strategy("psim", topn=5),
    "p": Strategy("p"),
    "max-del0.3": Strategy("max", deletion=0.3),
    "mixed-psim0.4": Strategy("mixed", mix_p=0.4, mix_kind="psim"),
    "mixed-p0.4": Strategy("mixed", mix_p=0.4, mix_kind="p"),
}

inputs.mkdir(parents=True, exist_ok=True)
total = hashlib.sha256()
# output name -> printed hash prefix; "ALL" -> the final digest
expected = {}
if args.expect:
    lines = (Path(args.expect).read_text().splitlines() if os.path.isfile(args.expect)
             else [f"ALL {args.expect}"])
    for line in lines:
        first, rest = line.split(" ", 1)
        expected.update({first: rest} if first == "ALL" else {rest: first})
differs = []


def emit(name, text):
    h = hashlib.sha256(text.encode()).hexdigest()
    total.update(name.encode() + b"\0" + h.encode() + b"\n")
    print(h[:16], name, flush=True)
    if len(expected) > 1 and expected.get(name) != h[:16] and not differs:
        differs.append(name)
        print(f"first differing output: {name}", file=sys.stderr, flush=True)


def emit_pairs_replay(tag, d, n_nodes):
    """Hash the outputs of ``simpair detect --pairs`` on ``d.pairs``."""
    with tempfile.TemporaryDirectory() as tmp:
        pairs, out = Path(tmp) / "pairs.tsv", Path(tmp) / "out"
        write_pairs(pairs, d.pairs.columns)
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            code = cli.main(["detect", "--pairs", str(pairs), "--n-nodes", str(n_nodes),
                             "--out", str(out)])
        assert code == 0, f"{tag}: detect --pairs exited {code}"
        emit_outputs(f"{tag} replay", out)


def emit_outputs(tag, out):
    """Hash the four output files of ``simpair detect`` in ``out``."""
    for name in ("result.json", "partition_core.tsv", "partition_real.tsv", "pairs.tsv"):
        emit(f"{tag} {name}", (out / name).read_text(encoding="utf-8"))


def label(v):
    """A node's label: all digits for every fourth id, else with a
    non-ASCII character, a quote or a backslash."""
    return (f"{1000 + v}", f'Zeitschrift für "Physik" {v}', f"J\\{v}\\", f"期刊 {v}")[v % 4]


for n, spec in SPECS.items():
    for seed in (0, 7):
        path = inputs / f"n{n}-seed{seed}.tsv"
        if not path.exists():
            write_input(path, spec, (seed, n))
        m = read_citations(path, "edges")
        for sname, st in STRATEGIES.items():
            for levels in (1, 0):
                d = detect(m, st, seed=seed, levels=levels)
                tag = f"n{n} seed{seed} {sname} levels{levels}"
                emit(f"{tag} pairs", pairs_to_tsv(d.pairs.columns))
                emit(f"{tag} core", partition_to_tsv(d.core))
                emit(f"{tag} real", partition_to_tsv(d.real))
                emit(f"{tag} json", detection_to_json(d))
                if levels == 1:
                    emit_pairs_replay(tag, d, m.n_nodes)
        cfg = sweeps.ExperimentConfig(repetitions=reps, base_seed=seed)
        emit(f"n{n} seed{seed} sweep-prob", sweeps.run_probability_sweep(m, cfg).to_csv())
        emit(f"n{n} seed{seed} sweep-topn",
             sweeps.run_topn_sweep(m, cfg, [1, 2, 5, 10, 30]).to_csv())
        emit(f"n{n} seed{seed} sweep-del", sweeps.run_deletion_sweep(m, cfg).to_csv())

labelled = inputs / "n100-seed0-labelled.tsv"
with open(inputs / "n100-seed0.tsv", encoding="ascii") as fh:
    lines = [line.rstrip("\n").split("\t") for line in fh]
labelled.write_text("".join(f"{label(int(a))}\t{label(int(b))}\t{c}\n" for a, b, c in lines),
                    encoding="utf-8")
for levels in (1, 0):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
            code = cli.main(["detect", "--input", str(labelled), "--out", str(out),
                             "--levels", str(levels)])
        assert code == 0, f"labelled levels{levels}: detect exited {code}"
        emit_outputs(f"n100 seed0 labelled levels{levels}", out)

demo_env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
for demo in sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py")):
    with tempfile.TemporaryDirectory() as tmp:
        done = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=demo_env,
                              stdout=subprocess.PIPE, encoding="utf-8", check=True)
    emit(f"demo {demo.name} stdout", done.stdout)

print("ALL", total.hexdigest())
if expected and (differs or expected.get("ALL") != total.hexdigest()):
    print("digest differs from the expected one" + (f"; first at {differs[0]}" if differs else ""),
          file=sys.stderr)
    sys.exit(1)
