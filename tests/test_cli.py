"""Command-line behavior: outputs, formats, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from simpair import cli
from simpair.cli import main


def run(argv, capsys=None):
    code = main(argv)
    return code


@pytest.fixture()
def block_dense(tmp_path):
    """Two disconnected identical-row blocks as a dense grid."""
    path = tmp_path / "blocks.csv"
    path.write_text(
        "0,5,5,0,0,0\n"
        "5,0,5,0,0,0\n"
        "5,5,0,0,0,0\n"
        "0,0,0,0,7,7\n"
        "0,0,0,7,0,7\n"
        "0,0,0,7,7,0\n"
    )
    return path


@pytest.fixture()
def block_edges(tmp_path, block_dense):
    """The same graph in edge-list form."""
    path = tmp_path / "blocks.tsv"
    lines = []
    for i, row in enumerate(block_dense.read_text().splitlines()):
        for j, tok in enumerate(row.split(",")):
            if int(tok):
                lines.append(f"{i}\t{j}\t{tok}\n")
    path.write_text("".join(lines))
    return path


class TestDetect:
    def test_identity_blocks_one_real_each(self, tmp_path, block_dense):
        out = tmp_path / "out"
        assert run(["detect", "--input", str(block_dense), "--format", "dense",
                    "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert sorted(sorted(c) for c in result["reals"]) == [[0, 1, 2], [3, 4, 5]]
        assert result["unassigned"] == []

    def test_edge_and_dense_formats_agree(self, tmp_path, block_dense, block_edges):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run(["detect", "--input", str(block_edges), "--format", "edges",
             "--out", str(out_a)])
        run(["detect", "--input", str(block_dense), "--format", "dense",
             "--out", str(out_b)])
        for name in ("result.json", "partition_core.tsv", "partition_real.tsv",
                     "pairs.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_pairs_bypass_golden_example(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(
            "2\t3\t0.4988\n3\t2\t0.4988\n5\t10\t0.3311\n10\t5\t0.3311\n"
            "1\t2\t0.2211\n6\t9\t0.2209\n9\t5\t0.2109\n8\t10\t0.1667\n"
            "4\t8\t0.1521\n7\t1\t0.1456\n")
        out = tmp_path / "out"
        assert run(["detect", "--pairs", str(pairs), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["cores"] == [[2, 3, 1, 7], [5, 10, 8, 4], [6, 9]]
        assert result["reals"] == [[2, 3, 1, 7], [5, 10, 8, 4, 6, 9]]
        assert result["tides"] == [[9, 5, 2, 1]]
        assert result["unassigned"] == [0]

    def test_labeled_input_round_trips_labels(self, tmp_path):
        path = tmp_path / "labeled.tsv"
        path.write_text(
            "alpha\tbeta\t1\nalpha\tgamma\t1\n"
            "beta\talpha\t1\nbeta\tgamma\t1\n"
            "gamma\talpha\t1\ngamma\tbeta\t1\n")
        out = tmp_path / "out"
        run(["detect", "--input", str(path), "--out", str(out)])
        result = json.loads((out / "result.json").read_text())
        assert result["node_labels"] == ["alpha", "beta", "gamma"]
        assert ["alpha", "beta", "gamma"] in [sorted(c) for c in result["reals"]]
        core_tsv = (out / "partition_core.tsv").read_text()
        assert core_tsv.startswith("alpha\t")

    def test_psim_with_seed_is_reproducible(self, tmp_path, block_dense):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run(["detect", "--input", str(block_dense), "--format", "dense",
                 "--strategy", "psim", "--seed", "42", "--out", str(out)])
        assert (out_a / "pairs.tsv").read_bytes() == (out_b / "pairs.tsv").read_bytes()

    def test_levels_flag(self, tmp_path, block_dense):
        out = tmp_path / "out"
        run(["detect", "--input", str(block_dense), "--format", "dense",
             "--levels", "0", "--out", str(out)])
        result = json.loads((out / "result.json").read_text())
        assert result["provenance"]["levels"] == "fixpoint"
        assert len(result["levels"]) >= 1

    def test_usage_error_exit_code(self, tmp_path, block_dense, capsys):
        with pytest.raises(SystemExit) as err:
            run(["detect", "--input", str(block_dense), "--strategy", "leiden",
                 "--out", str(tmp_path / "x")])
        assert err.value.code == 1

    def test_missing_input_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["detect", "--out", str(tmp_path / "x")])
        assert err.value.code == 1

    def test_malformed_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\n")
        assert run(["detect", "--input", str(bad), "--out", str(tmp_path / "x")]) == 2
        assert "input error" in capsys.readouterr().err

    def test_unreadable_input_exit_code(self, tmp_path):
        assert run(["detect", "--input", str(tmp_path / "missing.tsv"),
                    "--out", str(tmp_path / "x")]) == 2


class TestInputErrors:
    """Bad input data exits 2 with one ``path:line:`` diagnostic, never a traceback."""

    def test_non_utf8_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"0\t1\t2\n\xff\xfe\t1\t2\n")
        assert run(["detect", "--input", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2:" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, line", [
        ("0\t3000000\t1\n", 1),
        ("0\t999999999\t1\n", 1),
        ("0\t1\t1\n1\t0\t1\n9\t0\t1\n0\t9\t1\n", 3),  # first line of the max id
        ("# line reader\n0\t3000000\t1\n", 2),
    ], ids=["3M", "1e9", "first-max-line", "commented"])
    def test_sparse_integer_id_space(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.tsv"
        bad.write_text(text)
        assert run(["detect", "--input", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{line}: node id" in err and "unused" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text, line", [
        ("0\t1\t99999999999999999999\n", 1),
        ("0\t1\t9223372036854775807\n0\t1\t9223372036854775807\n", 2),
        ("0\t1\t999999999999999999\n" * 10, 10),  # 18 digits: the columnar reader
    ], ids=["one-count", "sum", "sum-of-18-digit-counts"])
    def test_count_beyond_int64(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.tsv"
        bad.write_text(text)
        assert run(["detect", "--input", str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{line}:" in err and "int64" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["sweep-prob", "--p-grid", "1"],
        ["sweep-topn", "--topn-grid", "1"],
        ["sweep-del", "--del-grid", "0.5"],
    ], ids=lambda argv: argv[0])
    def test_sweep_on_one_node(self, tmp_path, capsys, argv):
        one = tmp_path / "one.tsv"
        one.write_text("0\t0\t3\n")
        assert run(argv + ["--input", str(one), "--reps", "1",
                           "--out", str(tmp_path / "x")]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert "error:" in lines[0] and str(one) in lines[0]

    @pytest.mark.parametrize("text, n_nodes, line, message", [
        ("0\t300000\t0.5\n", None, 1, "unused"),
        ("0\t1\t0.5\n1\t0\t0.5\n9\t0\t0.5\n0\t9\t0.5\n", None, 3, "unused"),
        ("0\t99999999999999999999\t0.5\n", None, 1, "unused"),
        ("0\t99999999999999999999\t0.5\n", "100000000000000000000", 1, "int64"),
    ], ids=["300k", "first-max-line", "past-int64", "past-int64-with-n-nodes"])
    def test_sparse_pair_id_space(self, tmp_path, capsys, text, n_nodes, line, message):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(text)
        out = tmp_path / "x"
        argv = ["detect", "--pairs", str(pairs), "--out", str(out)]
        assert run(argv + (["--n-nodes", n_nodes] if n_nodes else [])) == 2
        err = capsys.readouterr().err
        assert f"{pairs}:{line}: node id" in err and message in err
        assert len(err.strip().splitlines()) == 1
        assert not (out / "result.json").exists()

    def test_n_nodes_allows_a_sparse_pair_id_space(self, tmp_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("0\t9\t0.5\n")
        out = tmp_path / "out"
        assert run(["detect", "--pairs", str(pairs), "--n-nodes", "10", "--out", str(out)]) == 0
        assert json.loads((out / "result.json").read_text())["n_nodes"] == 10

    # past every array dimension, and an exabyte-scale array numpy refuses at once
    @pytest.mark.parametrize("n_nodes", ["100000000000000000000", "100000000000000000"])
    def test_n_nodes_too_large_to_allocate_is_usage_error(self, tmp_path, capsys, n_nodes):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("0\t1\t0.5\n")
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            run(["detect", "--pairs", str(pairs), "--n-nodes", n_nodes, "--out", str(out)])
        assert err.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert f"--n-nodes {n_nodes}" in lines[-1] and "allocate" in lines[-1]
        assert not any("Traceback" in line for line in lines)
        assert not (out / "result.json").exists()

    def test_pair_id_beyond_n_nodes(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# selector selected similarity\n0\t1\t0.5\n1\t2\t0.4\n")
        assert run(["detect", "--pairs", str(pairs), "--n-nodes", "2",
                    "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{pairs}:3:" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag, text", [
        ("--input", "0\t1\t2\n0\t\t1\n"),
        ("--pairs", "0\t1\t0.5\n1\t\t0.4\n"),
    ], ids=["edges", "pairs"])
    def test_empty_node_id(self, tmp_path, capsys, flag, text):
        bad = tmp_path / "bad.tsv"
        bad.write_text(text)
        assert run(["detect", flag, str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:2: empty node id" in err
        assert len(err.strip().splitlines()) == 1

    def test_non_finite_pair_similarity(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("0\t1\t0.5\n1\t0\tnan\n")
        assert run(["detect", "--pairs", str(pairs), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{pairs}:2:" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("text", ["0\t0\t0.5\n1\t2\t0.4\n", "a\ta\t0.5\nb\tc\t0.4\n"])
    def test_self_pair_rejected(self, tmp_path, capsys, text):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(text)
        assert run(["detect", "--pairs", str(pairs), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"{pairs}:1:" in err and "itself" in err
        assert len(err.strip().splitlines()) == 1

    def test_non_ascii_digit_pair_ids_are_labels(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_bytes(b"0\t\xc2\xb2\t0.5\n")
        out = tmp_path / "out"
        assert run(["detect", "--pairs", str(pairs), "--out", str(out)]) == 0
        assert (out / "partition_core.tsv").read_text(encoding="utf-8") == "0\t0\n\u00b2\t0\n"

    @pytest.mark.parametrize("n_nodes", ["5", "2"])
    def test_n_nodes_with_labelled_pairs_is_usage_error(self, tmp_path, capsys, n_nodes):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("a\tb\t0.9\nb\tc\t0.5\n")
        with pytest.raises(SystemExit) as err:
            run(["detect", "--pairs", str(pairs), "--n-nodes", n_nodes,
                 "--out", str(tmp_path / "x")])
        assert err.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert "--n-nodes" in lines[-1] and "labels" in lines[-1]
        assert not any("Traceback" in line for line in lines)

    def test_n_nodes_with_input_is_usage_error(self, tmp_path, block_edges, capsys):
        with pytest.raises(SystemExit) as err:
            run(["detect", "--input", str(block_edges), "--n-nodes", "3",
                 "--out", str(tmp_path / "x")])
        assert err.value.code == 1
        assert "--n-nodes" in capsys.readouterr().err.strip().splitlines()[-1]


class TestSweepCommands:
    def test_sweep_prob_writes_csv(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep-prob", "--synth", "--block-size", "6", "--volume", "2000",
                    "--reps", "3", "--p-grid", "0,1", "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("sweep,grid,kind,reps")
        assert len(lines) == 1 + 2 * 2  # two grid values x two kinds

    def test_sweep_prob_deterministic_across_jobs(self, tmp_path):
        args = ["sweep-prob", "--synth", "--block-size", "6", "--volume", "2000",
                "--reps", "4", "--p-grid", "0,0.5,1", "--seed", "5"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run(args + ["--out", str(out_a)])
        run(args + ["--out", str(out_b)])
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_sweep_topn(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep-topn", "--synth", "--block-size", "6", "--volume", "2000",
                    "--reps", "2", "--topn-grid", "1,5", "--out", str(out)]) == 0
        assert (out / "sweep.csv").exists()

    def test_sweep_topn_clamp_is_one_warning_line(self, tmp_path, capsys):
        assert run(["sweep-topn", "--synth", "--blocks", "2", "--block-size", "3",
                    "--volume", "200", "--reps", "1", "--topn-grid", "2,9",
                    "--out", str(tmp_path / "sweep")]) == 0
        assert capsys.readouterr().err == (
            "simpair: warning: topn=9 exceeds the 5 available candidates; clamped\n")

    def test_sweep_del(self, tmp_path):
        out = tmp_path / "sweep"
        assert run(["sweep-del", "--synth", "--block-size", "6", "--volume", "2000",
                    "--reps", "2", "--del-grid", "0,0.5", "--out", str(out)]) == 0
        body = (out / "sweep.csv").read_text()
        assert "deletion,0," in body

    def test_truth_reference_needs_synth(self, tmp_path, block_dense):
        with pytest.raises(SystemExit) as err:
            run(["sweep-prob", "--input", str(block_dense), "--format", "dense",
                 "--truth-reference", "--out", str(tmp_path / "x")])
        assert err.value.code == 1



class TestParameterErrors:
    """Bad parameters exit 1 with one ``error:`` line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["detect", "--levels", "-1"],
        ["detect", "--strategy", "psim", "--topn", "0"],
        ["detect", "--delete", "1.5"],
        ["detect", "--seed", "-1"],
        ["sweep-prob", "--synth", "--reps", "0"],
        ["sweep-prob", "--synth", "--jobs", "0"],
        ["sweep-prob", "--synth", "--p-grid", "0,2"],
        ["sweep-topn", "--synth", "--topn-grid", "1,0"],
        ["gen-synth", "--blocks", "0"],
        ["gen-synth", "--in-rate", "1", "--cross-rate", "2"],
        ["gen-synth", "--blocks", "2", "--block-size", "2", "--volume", str(10**20)],
        ["sweep-prob", "--synth", "--volume", str(10**20)],
        ["gen-synth", "--blocks", "2", "--block-size", "2",
         "--in-rate", "1e308", "--cross-rate", "1e308"],
        ["sweep-prob", "--synth", "--kinds", ","],
        ["sweep-prob", "--synth", "--kinds", "psim,psim"],
        ["sweep-prob", "--synth", "--kinds", "p,psim,p"],
        ["sweep-prob", "--synth", "--p-grid", ","],
        ["sweep-topn", "--synth", "--topn-grid", ","],
        ["sweep-del", "--synth", "--del-grid", ","],
    ], ids=lambda argv: " ".join(argv))
    def test_out_of_range_flag(self, tmp_path, block_edges, capsys, argv):
        if argv[0] == "detect":
            argv = argv + ["--input", str(block_edges)]
        with pytest.raises(SystemExit) as err:
            run(argv + ["--out", str(tmp_path / "x")])
        assert err.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert "error:" in lines[-1]
        assert not any("Traceback" in line for line in lines)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["detect"],
        ["detect", "--input", "F", "--pairs", "F"],
        ["detect", "--input", "MISSING", "--strategy", "p", "--topn", "3"],
        ["detect", "--input", "F", "--strategy", "psim", "--delete", "0.5"],
        ["detect", "--input", "F", "--n-nodes", "3"],
        ["sweep-prob", "--input", "F", "--truth-reference"],
        ["sweep-prob", "--input", "F", "--blocks", "9"],
        ["sweep-del", "--synth", "--format", "dense"],
        ["sweep-topn", "--input", "F", "--synth", "--topn-grid", "1"],
        ["gen-synth", "--in-rate", "0"],
        ["gen-synth", "--synth"],
        # a prefix is not read as the flag it starts
        ["gen-synth", "--synth", "5"],
        ["gen-synth", "--vol", "100"],
        ["detect", "--inp", "F"],
    ], ids=" ".join)
    def test_refused_before_any_input_is_read(self, tmp_path, block_edges, capsys,
                                              monkeypatch, argv):
        def read(*args):
            raise AssertionError("a bad parameter must be refused before input is read")

        monkeypatch.setattr(cli, "read_citations", read)
        monkeypatch.setattr(cli, "read_pairs", read)
        paths = {"F": str(block_edges), "MISSING": str(tmp_path / "missing.tsv")}
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            run([paths.get(arg, arg) for arg in argv] + ["--out", str(out)])
        assert err.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert [line for line in lines if "error:" in line] == [lines[-1]]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["gen-synth", "sweep-prob"])
    def test_synthetic_size_out_of_memory(self, tmp_path, capsys, monkeypatch, command):
        # never allocate the real size: an overcommitting host would try
        def out_of_memory(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "generate_planted_citation_matrix", out_of_memory)
        argv = [command, "--blocks", "10000", "--block-size", "100"]
        if command == "sweep-prob":
            argv.append("--synth")
        with pytest.raises(SystemExit) as err:
            run(argv + ["--out", str(tmp_path / "x")])
        assert err.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert lines[-1] == "simpair: error: synthetic spec: 1000000 nodes do not fit in memory"
        assert not any("Traceback" in line for line in lines)

    def test_unwritable_out(self, tmp_path, block_edges, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = run(["detect", "--input", str(block_edges), "--out", str(blocker / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("simpair: error: cannot write")
        assert len(err.strip().splitlines()) == 1

class TestGenSynth:
    def test_writes_matrix_truth_and_spec(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert run(["gen-synth", "--blocks", "2", "--block-size", "5",
                    "--volume", "500", "--synth-seed", "7", "--out", str(out)]) == 0
        spec = json.loads((out / "spec.json").read_text())
        assert spec["block_sizes"] == [5, 5]
        truth_lines = (out / "truth.tsv").read_text().splitlines()
        assert len(truth_lines) == 10
        # generated edge list feeds straight back into detect
        out2 = tmp_path / "detect"
        assert run(["detect", "--input", str(out / "citations.tsv"),
                    "--out", str(out2)]) == 0

    def test_block_sizes(self, tmp_path):
        out = tmp_path / "synth"
        assert run(["gen-synth", "--block-sizes", "3,5", "--volume", "500",
                    "--out", str(out)]) == 0
        assert json.loads((out / "spec.json").read_text())["block_sizes"] == [3, 5]
        assert len((out / "truth.tsv").read_text().splitlines()) == 8

    def test_unknown_command_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["cluster"])
        assert err.value.code == 1


class TestPairsSkipSelection:
    @pytest.fixture()
    def pair_file(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t1\t0.9\n1\t0\t0.9\n2\t3\t0.5\n")
        return path

    @pytest.mark.parametrize("flags", [
        ["--strategy", "psim"], ["--topn", "3"], ["--delete", "0.5"], ["--seed", "4"],
        ["--levels", "0"], ["--format", "dense"],
        ["--levels", "0", "--strategy", "psim", "--topn", "3", "--delete", "0.5", "--seed", "4"],
    ], ids=" ".join)
    def test_selection_flags_are_usage_errors(self, tmp_path, capsys, pair_file, flags):
        with pytest.raises(SystemExit) as err:
            run(["detect", "--pairs", str(pair_file), *flags, "--out", str(tmp_path / "x")])
        assert err.value.code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert [line for line in lines if "error:" in line] == [lines[-1]]
        assert all(flag in lines[-1] for flag in flags if flag.startswith("--"))
        assert not any("Traceback" in line for line in lines)

    @pytest.mark.parametrize("flags", [["--strategy", "psim"], ["--input", "blocks.tsv"]],
                             ids=" ".join)
    def test_usage_errors_leave_no_output_directory(self, tmp_path, pair_file, block_edges,
                                                    flags):
        out = tmp_path / "o"
        flags = [str(block_edges) if flag == "blocks.tsv" else flag for flag in flags]
        with pytest.raises(SystemExit) as err:
            run(["detect", "--pairs", str(pair_file), *flags, "--out", str(out)])
        assert err.value.code == 1
        assert not out.exists()

    def test_selection_flags_at_their_defaults_are_accepted(self, tmp_path, pair_file):
        out = tmp_path / "out"
        assert run(["detect", "--pairs", str(pair_file), "--n-nodes", "4", "--levels", "1",
                    "--seed", "0", "--strategy", "max", "--format", "edges",
                    "--out", str(out)]) == 0
        assert (out / "partition_real.tsv").read_text() == "0\t0\n1\t0\n2\t1\n3\t1\n"

    def test_labelled_run_replays_from_its_pairs(self, tmp_path):
        """A labelled run's ``pairs.tsv`` holds node indices, in the order of
        ``result.json``'s ``node_labels``; with their count as ``--n-nodes``
        it replays the run, its unpaired node included."""
        edges = tmp_path / "labelled.tsv"
        edges.write_text("a\tb\t2\nb\tc\t1\nc\ta\t1\nd\ta\t1\nd\tc\t3\ne\ta\t0\n")
        out, replay = tmp_path / "out", tmp_path / "replay"
        assert run(["detect", "--input", str(edges), "--out", str(out)]) == 0
        labels = json.loads((out / "result.json").read_text())["node_labels"]
        assert labels == ["a", "b", "c", "d", "e"]
        pairs = [line.split("\t") for line in (out / "pairs.tsv").read_text().splitlines()]
        assert pairs and all(int(v) < len(labels) for p in pairs for v in p[:2])
        assert run(["detect", "--pairs", str(out / "pairs.tsv"), "--n-nodes", str(len(labels)),
                    "--out", str(replay)]) == 0
        for name in ("partition_core.tsv", "partition_real.tsv"):
            original = [line.split("\t") for line in (out / name).read_text().splitlines()]
            again = [line.split("\t") for line in (replay / name).read_text().splitlines()]
            assert [[labels[int(v)], c] for v, c in again] == original, name
        assert (replay / "pairs.tsv").read_bytes() == (out / "pairs.tsv").read_bytes()

    def test_run_that_selected_no_pairs_replays(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("0\t1\t0\n")
        out, replay = tmp_path / "out", tmp_path / "replay"
        assert run(["detect", "--input", str(edges), "--out", str(out)]) == 0
        assert (out / "pairs.tsv").read_text() == ""
        assert run(["detect", "--pairs", str(out / "pairs.tsv"), "--n-nodes", "2",
                    "--out", str(replay)]) == 0
        for name in ("partition_core.tsv", "partition_real.tsv", "pairs.tsv"):
            assert (replay / name).read_bytes() == (out / name).read_bytes(), name
        # without a node count, an empty pair list names no nodes
        capsys.readouterr()
        argv = ["detect", "--pairs", str(out / "pairs.tsv"), "--out", str(tmp_path / "x")]
        assert run(argv) == 2
        assert "no pairs found" in capsys.readouterr().err


class TestOneParserPerProcess:
    def argvs(self, block_edges, out: Path) -> list[list[str]]:
        return [
            ["detect", "--input", str(block_edges), "--strategy", "leiden",
             "--out", str(out / "bad")],
            ["detect", "--input", str(block_edges), "--strategy", "psim", "--seed", "3",
             "--out", str(out / "detect")],
            ["sweep-prob", "--synth", "--block-size", "6", "--volume", "2000", "--reps", "2",
             "--p-grid", "0,1", "--seed", "5", "--out", str(out / "sweep")],
        ]

    def test_calls_in_one_process_build_one_parser(self, tmp_path, block_edges, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        for argv in self.argvs(block_edges, tmp_path):
            try:
                main(argv)
            except SystemExit:
                pass
        assert built == [1]

    def test_calls_in_one_process_match_fresh_processes(self, tmp_path, block_edges, capsys):
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        for argv, fresh_argv in zip(self.argvs(block_edges, tmp_path / "here"),
                                    self.argvs(block_edges, tmp_path / "fresh")):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            here = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "simpair.cli", *fresh_argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert (code, here.out, here.err) == (fresh.returncode, fresh.stdout,
                                                  fresh.stderr), argv[0]
            out, fresh_out = Path(argv[-1]), Path(fresh_argv[-1])
            names = sorted(p.name for p in out.iterdir()) if out.exists() else []
            assert names == (sorted(p.name for p in fresh_out.iterdir())
                             if fresh_out.exists() else [])
            for name in names:
                assert (out / name).read_bytes() == (fresh_out / name).read_bytes(), name
