"""Command-line interface.

Subcommands: ``detect``, ``sweep-prob``, ``sweep-topn``, ``sweep-del``,
``gen-synth``. Exit codes: 0 success, 1 usage error, 2 unreadable or
malformed input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .citations import CitationMatrix
from .io import (
    InputFormatError,
    read_citations,
    read_pairs,
    write_detection_json,
    write_pairs,
    write_partition,
)
from .pipeline import Strategy, detect, detect_from_pairs
from .selection import RANDOM_KINDS
from .sweeps import ExperimentConfig, run_deletion_sweep, run_probability_sweep, run_topn_sweep
from .synthetic import SyntheticSpec, generate_planted_citation_matrix

USAGE_ERROR = 1
INPUT_ERROR = 2
# per command, the flags each input source ignores, which it refuses at other than their defaults
_SWEEP_IGNORES = {"synth": ("format",),
                  "input": ("blocks", "block_size", "block_sizes", "in_rate", "cross_rate",
                            "volume", "synth_seed", "truth_reference")}
_IGNORED = {"detect": {"pairs": ("format", "strategy", "topn", "delete", "levels", "seed"),
                       "input": ("n_nodes",)},
            **dict.fromkeys(("sweep-prob", "sweep-topn", "sweep-del"), _SWEEP_IGNORES)}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # subparsers are _Parser too
        super().__init__(*args, allow_abbrev=False, **kwargs)  # flags in full, no prefixes

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _float_in(low: float, high: float = math.inf):
    """argparse type: a finite float in [low, high]."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
        if not (math.isfinite(value) and low <= value <= high):
            raise argparse.ArgumentTypeError(
                f"must be a finite number in [{low:g}, {high:g}], got {text}")
        return value
    return parse


def _list_of(parse_one):
    """argparse type: a non-empty comma list, each item checked by ``parse_one``."""
    def parse(text: str) -> list:
        items = [parse_one(tok) for tok in text.split(",") if tok.strip()]
        if not items:
            raise argparse.ArgumentTypeError(f"empty list: {text!r}")
        return items
    return parse


def _random_kind(text: str) -> str:
    """argparse type: one of the random selection kinds."""
    kind = text.strip()
    if kind not in RANDOM_KINDS:
        raise argparse.ArgumentTypeError(f"unknown kind {kind!r}")
    return kind


_POSITIVE = _int_at_least(1)
_NONNEGATIVE = _int_at_least(0)
_FRACTION = _float_in(0.0, 1.0)


def _add_input_args(sub):
    """``--input`` in a required group with the command's other source, and ``--format``."""
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", type=Path, help="input citation file")
    sub.add_argument("--format", choices=("edges", "dense"), default="edges",
                     help="input format (default: edges)")
    return source


def _add_synth_args(sub):
    sub.add_argument("--blocks", type=_POSITIVE, default=4)
    sub.add_argument("--block-size", type=_POSITIVE, default=25)
    sub.add_argument("--block-sizes", type=_list_of(_POSITIVE), default=None,
                     help="comma list overriding --blocks/--block-size")
    sub.add_argument("--in-rate", type=_float_in(0.0), default=10.0)
    sub.add_argument("--cross-rate", type=_float_in(0.0), default=0.0)
    sub.add_argument("--volume", type=_POSITIVE, default=50_000)
    sub.add_argument("--synth-seed", type=_NONNEGATIVE, default=1)


def _add_sweep_args(sub):
    _add_input_args(sub).add_argument(
        "--synth", action="store_true",
        help="use a synthetic planted-partition matrix instead of --input")
    _add_synth_args(sub)
    sub.add_argument("--reps", type=_POSITIVE, default=20, help="repetitions per grid point")
    sub.add_argument("--seed", type=_NONNEGATIVE, default=0, help="base seed")
    sub.add_argument("--truth-reference", action="store_true",
                     help="score against the planted truth instead of the max run "
                          "(synthetic input only)")
    sub.add_argument("--out", type=Path, required=True, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="simpair",
                     description="Two-level community detection by most-similar node pairs")
    subs = parser.add_subparsers(dest="command", required=True)

    p_detect = subs.add_parser("detect", help="detect communities on one input")
    _add_input_args(p_detect).add_argument(
        "--pairs", type=Path, help="skip selection and build communities from this pair list")
    p_detect.add_argument("--n-nodes", type=_POSITIVE, default=None,
                          help="node count for --pairs with integer ids (default: max id + 1)")
    p_detect.add_argument("--strategy", choices=("max", "psim", "p"), default="max")
    p_detect.add_argument("--topn", type=_POSITIVE, default=None,
                          help="restrict psim to the top-n most similar candidates")
    p_detect.add_argument("--delete", type=_FRACTION, default=None,
                          help="fraction of each similarity row to hide from max")
    p_detect.add_argument("--levels", type=_NONNEGATIVE, default=1,
                          help="detection passes through coarse-graining "
                               "(0 = iterate until stable)")
    p_detect.add_argument("--seed", type=_NONNEGATIVE, default=0)
    p_detect.add_argument("--out", type=Path, required=True, help="output directory")

    p_prob = subs.add_parser("sweep-prob", help="probability sweep of mixed strategies")
    _add_sweep_args(p_prob)
    p_prob.add_argument("--p-grid", type=_list_of(_FRACTION), default=None,
                        help="comma list of probabilities (default 0,0.1,...,1)")
    p_prob.add_argument("--kinds", type=_list_of(_random_kind), default=RANDOM_KINDS,
                        help="random kinds to sweep (comma list from: psim,p; default both)")

    p_topn = subs.add_parser("sweep-topn", help="top-n candidate sweep of psim")
    _add_sweep_args(p_topn)
    p_topn.add_argument("--topn-grid", type=_list_of(_POSITIVE), required=True,
                        help="comma list of candidate-count cutoffs")

    p_del = subs.add_parser("sweep-del", help="similarity-deletion sweep of max")
    _add_sweep_args(p_del)
    p_del.add_argument("--del-grid", type=_list_of(_FRACTION), default=None,
                       help="comma list of deletion fractions (default 0,0.1,...,0.9)")

    p_gen = subs.add_parser("gen-synth", help="write a synthetic planted matrix")
    _add_synth_args(p_gen)
    p_gen.add_argument("--out", type=Path, required=True, help="output directory")

    for name, sub in subs.choices.items():  # the defaults of the ignored flags, read once
        sub.set_defaults(ignored={source: {dest: sub.get_default(dest) for dest in dests}
                                  for source, dests in _IGNORED.get(name, {}).items()})
    return parser


def _synthetic(args, parser):
    """Returns (spec, matrix, truth) for the --synth / gen-synth flags."""
    sizes = tuple(args.block_sizes or [args.block_size] * args.blocks)
    try:
        spec = SyntheticSpec(block_sizes=sizes,
                             in_rate=args.in_rate, cross_rate=args.cross_rate,
                             volume=args.volume, seed=args.synth_seed)
        return (spec, *generate_planted_citation_matrix(spec))
    except ValueError as exc:
        parser.error(f"synthetic spec: {exc}")
    except MemoryError:
        parser.error(f"synthetic spec: {sum(sizes)} nodes do not fit in memory")


def _read(read, path: Path, *rest):
    """``read(path, *rest)``, with an unreadable file reported as bad input."""
    try:
        return read(path, *rest)
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc.strerror or exc}") from exc


def _refuse_ignored(args, parser) -> None:
    """Usage error if the input source given ignores a flag set off its default."""
    for source, defaults in args.ignored.items():
        if getattr(args, source):
            given = [f"--{dest.replace('_', '-')}" for dest, default in defaults.items()
                     if getattr(args, dest) != default]
            if given:
                parser.error(f"--{source} ignores {', '.join(given)}")


def _check_node_count(n_nodes: int, parser) -> None:
    """Usage error unless one int64 per node can be allocated.

    Runs before the level allocates anything node-sized; the probe array is
    never written, so it is freed untouched.
    """
    try:
        np.empty(n_nodes, dtype=np.int64)
    except (ValueError, MemoryError):
        parser.error(f"--n-nodes {n_nodes} is too large: "
                     "cannot allocate one 8-byte entry per node")


def _cmd_detect(args, parser) -> int:
    out: Path = args.out
    try:
        strategy = Strategy(args.strategy, topn=args.topn, deletion=args.delete)
    except ValueError as exc:
        parser.error(f"strategy: {exc}")
    if args.pairs is not None:
        pairs, n_nodes, node_labels = _read(read_pairs, args.pairs, args.n_nodes)
        if node_labels is not None and args.n_nodes is not None:
            parser.error(f"--n-nodes applies only to integer ids; {args.pairs} holds labels")
        if args.n_nodes is not None:
            _check_node_count(args.n_nodes, parser)
        detection = detect_from_pairs(pairs, n_nodes)
    else:
        matrix = _read(read_citations, args.input, args.format)
        node_labels = matrix.node_labels
        detection = detect(matrix, strategy, seed=args.seed, levels=args.levels)
        del matrix  # and the similarity state it keeps: the outputs are written without it

    stats = detection.levels[0].stats
    out.mkdir(parents=True, exist_ok=True)
    write_detection_json(out / "result.json", detection, node_labels, stats)
    write_partition(out / "partition_core.tsv", detection.core, node_labels)
    write_partition(out / "partition_real.tsv", detection.real, node_labels)
    write_pairs(out / "pairs.tsv", detection.pairs.columns)
    print(json.dumps(stats, sort_keys=True))
    return 0


def _sweep_setup(args, parser) -> tuple[CitationMatrix, ExperimentConfig]:
    """The sweep's input matrix and its config."""
    if args.synth:
        _, matrix, truth = _synthetic(args, parser)
    else:
        matrix, truth = _read(read_citations, args.input, args.format), None
    if matrix.n_nodes < 2:
        raise InputFormatError(
            f"{args.input}: a sweep needs at least 2 nodes, got {matrix.n_nodes}")
    return matrix, ExperimentConfig(repetitions=args.reps, base_seed=args.seed,
                                    reference=truth if args.truth_reference else "max")


def _write_sweep(args, result) -> int:
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.csv").write_text(result.to_csv(), encoding="utf-8")
    if result.metadata:
        print(json.dumps(result.metadata, sort_keys=True))
    return 0


def _cmd_sweep_prob(args, parser) -> int:
    if len(set(args.kinds)) < len(args.kinds):
        parser.error(f"--kinds repeats a kind: {','.join(args.kinds)}")
    matrix, cfg = _sweep_setup(args, parser)
    return _write_sweep(args, run_probability_sweep(matrix, cfg, args.p_grid, tuple(args.kinds)))


def _cmd_sweep_topn(args, parser) -> int:
    matrix, cfg = _sweep_setup(args, parser)
    return _write_sweep(args, run_topn_sweep(matrix, cfg, args.topn_grid))


def _cmd_sweep_del(args, parser) -> int:
    matrix, cfg = _sweep_setup(args, parser)
    return _write_sweep(args, run_deletion_sweep(matrix, cfg, args.del_grid))


def _cmd_gen_synth(args, parser) -> int:
    out: Path = args.out
    spec, matrix, truth = _synthetic(args, parser)
    out.mkdir(parents=True, exist_ok=True)
    coo = matrix.counts.tocoo()
    lines = [f"{i}\t{j}\t{v}\n" for i, j, v in zip(coo.row, coo.col, coo.data)]
    (out / "citations.tsv").write_text("".join(lines), encoding="utf-8")
    write_partition(out / "truth.tsv", truth)
    (out / "spec.json").write_text(json.dumps(spec.describe(), sort_keys=True,
                                              indent=2) + "\n", encoding="utf-8")
    print(f"wrote {matrix.n_nodes} nodes, {matrix.total_citations} citations to {out}")
    return 0


_COMMANDS = {
    "detect": _cmd_detect,
    "sweep-prob": _cmd_sweep_prob,
    "sweep-topn": _cmd_sweep_topn,
    "sweep-del": _cmd_sweep_del,
    "gen-synth": _cmd_gen_synth,
}


_parser: _Parser | None = None  # built on the first call, then reused


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    args = parser.parse_args(argv)
    _refuse_ignored(args, parser)
    try:
        with warnings.catch_warnings():  # a warning shows as one line, without its source
            warnings.showwarning = lambda msg, *_: print(f"simpair: warning: {msg}",
                                                         file=sys.stderr)
            return _COMMANDS[args.command](args, parser)
    except InputFormatError as exc:
        print(f"simpair: input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except OSError as exc:
        # reads turn their OSErrors into InputFormatError, so this is a write
        print(f"simpair: error: cannot write {exc.filename or args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
