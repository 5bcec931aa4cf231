"""File parsing and serialization."""

import tracemalloc

import numpy as np
import pytest

from simpair import build_communities, extract_partition
from simpair.io import (
    InputFormatError,
    pairs_to_tsv,
    partition_to_tsv,
    read_dense,
    read_edges,
    read_pairs,
)

from pairlists import columns, rows


class TestReadEdges:
    def test_integer_ids(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\t3\n\n# comment\n1\t2\t5\n")
        m = read_edges(path)
        assert m.n_nodes == 3
        assert m.node_labels is None
        assert m.to_dense()[0, 1] == 3 and m.to_dense()[1, 2] == 5

    def test_labeled_ids_first_seen_order(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("phys\tchem\t2\nchem\tbio\t1\n")
        m = read_edges(path)
        assert m.node_labels == ["phys", "chem", "bio"]
        assert m.to_dense()[0, 1] == 2

    def test_duplicate_edges_summed(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\t3\n0\t1\t4\n")
        assert read_edges(path).to_dense()[0, 1] == 7

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\t3\n0\t1\n")
        with pytest.raises(InputFormatError, match=r":2:"):
            read_edges(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t1\t-3\n")
        # a negative token is not a valid 0-based id, so ids fall back to
        # labels and the count must still be a nonnegative integer
        with pytest.raises(InputFormatError, match="nonnegative"):
            read_edges(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("# nothing\n")
        with pytest.raises(InputFormatError, match="no edges"):
            read_edges(path)

    def test_unused_ids_below_half_are_isolated_nodes(self, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text("0\t2\t1")
        m = read_edges(path)
        assert m.n_nodes == 3
        assert m.to_dense().tolist() == [[0, 0, 1], [0, 0, 0], [0, 0, 0]]

    @pytest.mark.parametrize("text, error", [
        ("1\t2\t3\t4\n5\t6\n", ":1: expected"),  # the tab count balances, the lines do not
        ("0\t1\t\n", ":1: expected"),
        ("0\t\t1\n", ":1: empty node id"),
    ], ids=["unbalanced", "empty-count", "empty-id"])
    def test_near_digit_files_fail_as_before(self, tmp_path, text, error):
        path = tmp_path / "g.tsv"
        path.write_bytes(text.encode("ascii"))
        with pytest.raises(InputFormatError, match=error):
            read_edges(path)

    @pytest.mark.parametrize("chunk", [4, 8, 16, 64, 1 << 20])
    @pytest.mark.parametrize("bad, error", [
        ("1\t2", "expected"), ("1\t\t3", "empty node id"), ("1\t2\tx", "not an integer"),
        ("1\t2\t" + "9" * 20, "above the int64 maximum"),
    ], ids=["two-fields", "empty-id", "letter", "20-digits"])
    def test_malformed_line_in_a_later_chunk(self, tmp_path, monkeypatch, chunk, bad, error):
        lines = [f"{i % 5}\t{(i + 1) % 5}\t{i}" for i in range(40)]
        lines[30] = bad
        path = tmp_path / "g.tsv"
        path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr("simpair.io._CHUNK", chunk)
        with pytest.raises(InputFormatError) as exc:
            read_edges(path)
        assert str(exc.value).startswith(f"{path}:31: ") and error in str(exc.value)

    @pytest.mark.parametrize("text, labels, dense", [
        ("0\t1\t2\t\n", None, [[0, 2], [0, 0]]),  # the line reader strips the tab
        ("0\t1\t2\r\n1\t0\t3\r\n", None, [[0, 2], [3, 0]]),
        ("0\t1\t1234567890123456789\n1\t0\t0000000000000000003\n", None,
         [[0, 1234567890123456789], [3, 0]]),
    ], ids=["trailing-tab", "crlf", "19-digits"])
    def test_near_digit_files_read_as_before(self, tmp_path, text, labels, dense):
        path = tmp_path / "g.tsv"
        path.write_bytes(text.encode("ascii"))
        m = read_edges(path)
        assert m.node_labels == labels
        assert m.to_dense().tolist() == dense

    def test_block_input_of_500k_lines_peaks_below_ten_file_sizes(self, tmp_path):
        """Every ordered pair inside blocks of 100 nodes, N = 5000: 495 000 lines."""
        n, size = 5000, 100
        src = np.repeat(np.arange(n), size - 1)
        off = np.tile(np.arange(size - 1), n)
        base = src // size * size
        dst = base + off + (off >= src - base)
        counts = np.random.default_rng(5).integers(1, 30, size=len(src))
        path = tmp_path / "blocks.tsv"
        path.write_text("".join(
            f"{a}\t{b}\t{c}\n" for a, b, c in zip(src.tolist(), dst.tolist(), counts.tolist())))

        tracemalloc.start()
        try:
            m = read_edges(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.counts.nnz == len(src) and m.total_citations == counts.sum()
        assert peak < 10 * path.stat().st_size


class TestIdRule:
    """Edge and pair files share one rule: integer ids only when every id
    is ASCII digits, otherwise every id is a label."""

    @pytest.mark.parametrize("odd", ["\u00b2", "+3"])
    def test_non_ascii_digit_ids_are_labels_in_both_readers(self, tmp_path, odd):
        edges = tmp_path / "g.tsv"
        edges.write_text(f"0\t{odd}\t2\n{odd}\t1\t1\n", encoding="utf-8")
        pairs_path = tmp_path / "pairs.tsv"
        pairs_path.write_text(f"0\t{odd}\t0.5\n{odd}\t1\t0.4\n", encoding="utf-8")
        m = read_edges(edges)
        pairs, n_nodes, labels = read_pairs(pairs_path)
        assert m.node_labels == labels == ["0", odd, "1"]
        assert m.to_dense()[0, 1] == 2 and m.to_dense()[1, 2] == 1
        assert rows(pairs) == [(0, 1, 0.5), (1, 2, 0.4)]
        assert n_nodes == 3


class TestPairIdSpace:
    """Integer pair ids pass the edge files' id-space rule unless a node
    count is given; then only the bound applies."""

    def pairs_file(self, tmp_path, text):
        path = tmp_path / "pairs.tsv"
        path.write_text(text)
        return path

    def test_dense_ids_give_the_node_count(self, tmp_path):
        pairs, n_nodes, labels = read_pairs(self.pairs_file(tmp_path, "0\t2\t0.5\n"))
        assert (n_nodes, labels) == (3, None)
        assert [col.dtype for col in pairs] == [np.int64, np.int64, np.float64]

    @pytest.mark.parametrize("text, line", [
        ("0\t300000\t0.5\n", 1),
        ("0\t1\t0.5\n1\t0\t0.5\n9\t0\t0.5\n0\t9\t0.5\n", 3),  # first line of the max id
        ("0\t1\t0.5\n1\t99999999999999999999\t0.5\n", 2),  # past int64
    ], ids=["300k", "first-max-line", "past-int64"])
    def test_sparse_ids_rejected_at_the_max_id_line(self, tmp_path, text, line):
        with pytest.raises(InputFormatError, match=rf":{line}: node id .* unused"):
            read_pairs(self.pairs_file(tmp_path, text))

    def test_node_count_replaces_the_id_space_rule(self, tmp_path):
        path = self.pairs_file(tmp_path, "0\t300000\t0.5\n")
        pairs, n_nodes, _ = read_pairs(path, n_nodes=300_001)
        assert n_nodes == 300_001 and rows(pairs) == [(0, 300000, 0.5)]
        with pytest.raises(InputFormatError, match=r":1: node index 300000 is not below"):
            read_pairs(path, n_nodes=300_000)

    def test_id_past_int64_below_the_node_count(self, tmp_path):
        path = self.pairs_file(tmp_path, "0\t1\t0.5\n99999999999999999999\t0\t0.5\n")
        with pytest.raises(InputFormatError, match=r":2: node id .* int64"):
            read_pairs(path, n_nodes=10**20)

    def test_labels_count_one_node_each(self, tmp_path):
        path = self.pairs_file(tmp_path, "a\tb\t0.9\nb\tc\t0.5\n")
        for n_nodes in (None, 2, 5):
            assert read_pairs(path, n_nodes)[1:] == (3, ["a", "b", "c"])


class TestReadDense:
    def test_square_grid(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# 2x2\n0, 3\n4, 0\n")
        assert read_dense(path).to_dense().tolist() == [[0, 3], [4, 0]]

    def test_ragged_grid_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,3\n4\n")
        with pytest.raises(InputFormatError, match=r":2:"):
            read_dense(path)

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,x\n1,0\n")
        with pytest.raises(InputFormatError, match="not an integer"):
            read_dense(path)

    def test_count_beyond_int64_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n99999999999999999999,0\n")
        with pytest.raises(InputFormatError, match=r":2: .*int64"):
            read_dense(path)


BOM = b"\xef\xbb\xbf"


def _outcome(read, path):
    """What ``read(path)`` gives, as comparable values: the matrix, the pair
    columns, or the error message."""
    try:
        got = read(path)
    except InputFormatError as exc:
        return "error", str(exc)
    if isinstance(got, tuple):  # read_pairs
        (selector, selected, sims), n_nodes, labels = got
        return selector.tolist(), selected.tolist(), sims.tolist(), n_nodes, labels
    return got.to_dense().tolist(), got.node_labels


class TestByteOrderMark:
    @pytest.mark.parametrize("read, text", [
        (read_edges, "0\t1\t3\n1\t0\t2\n"),
        (read_edges, "a\tb\t3\nb\ta\t2\n"),
        (read_edges, "# comment\n0\t1\t3\n"),
        (read_edges, "0\t1\t3\n0\t9\t1\n"),
        (read_edges, "0\t9\t1\n1\t0\t3\n"),
        (read_dense, "0,3\n2,0\n"),
        (read_dense, "1,3\n2\n"),
        (read_pairs, "0\t1\t0.5\n1\t0\t0.25\n"),
        (read_pairs, "a\tb\t0.5\n"),
        (read_pairs, "0\t1\t0.5\n0\t9\t0.25\n"),
    ], ids=["digits", "labels", "comment", "sparse-id-line-2", "sparse-id-line-1", "dense",
            "ragged-dense", "pairs", "label-pairs", "sparse-pair-id-line-2"])
    def test_a_leading_bom_reads_like_no_bom(self, tmp_path, read, text):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("ascii"))
        plain = _outcome(read, path)
        path.write_bytes(BOM + text.encode("ascii"))
        assert _outcome(read, path) == plain

    def test_a_bom_digit_file_keeps_the_columnar_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "g.tsv"
        path.write_bytes(BOM + b"0\t1\t3\n1\t0\t2\n")

        def no_line_reader(*args):
            raise AssertionError("read line by line")

        monkeypatch.setattr("simpair.io._triples", no_line_reader)
        assert read_edges(path).to_dense().tolist() == [[0, 3], [2, 0]]


class TestPairsSerialization:
    def test_six_digit_correct_rounding(self):
        sims = [0.1234564, 0.1234576, 1.0, 0.0078125, 0.0234375]
        tsv = pairs_to_tsv(columns([(0, 1, sim) for sim in sims]))
        assert [line.split("\t")[2] for line in tsv.splitlines()] == [
            "0.123456", "0.123458", "1.000000",
            # exact binary ties at the sixth digit resolve to the even neighbor
            "0.007812", "0.023438"]

    def test_tsv_layout(self):
        pairs = columns([(2, 3, 0.4988), (3, 2, 0.4988)])
        assert pairs_to_tsv(pairs) == "2\t3\t0.498800\n3\t2\t0.498800\n"

    def test_round_trip_integer_ids(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("2\t3\t0.498800\n3\t2\t0.498800\n")
        pairs, _, labels = read_pairs(path)
        assert labels is None
        assert rows(pairs)[0] == (2, 3, 0.4988)

    def test_labeled_pairs(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\t0.9\nb\ta\t0.9\n")
        pairs, _, labels = read_pairs(path)
        assert labels == ["a", "b"]
        assert rows(pairs)[0] == (0, 1, 0.9)

    @pytest.mark.parametrize("text", ["", "# no pairs\n\n"], ids=["empty", "comments"])
    def test_no_pairs_need_a_node_count(self, tmp_path, text):
        path = tmp_path / "pairs.tsv"
        path.write_text(text)
        (selector, selected, sims), n_nodes, labels = read_pairs(path, n_nodes=3)
        assert (n_nodes, labels) == (3, None)
        assert [col.dtype for col in (selector, selected, sims)] == [np.int64, np.int64,
                                                                    np.float64]
        assert len(selector) == len(selected) == len(sims) == 0
        with pytest.raises(InputFormatError, match="no pairs found"):
            read_pairs(path)

    def test_bad_similarity_reports_line(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t1\thigh\n")
        with pytest.raises(InputFormatError, match=r":1:"):
            read_pairs(path)


    @pytest.mark.parametrize("tok", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_similarity_rejected(self, tmp_path, tok):
        path = tmp_path / "pairs.tsv"
        path.write_text(f"0\t1\t0.5\n1\t0\t{tok}\n")
        with pytest.raises(InputFormatError, match=r":2: .*not finite"):
            read_pairs(path)


class TestPartitionSerialization:
    def test_index_rows(self):
        r = build_communities(columns([(0, 1, 0.5)]), 3)
        text = partition_to_tsv(extract_partition(r, "core"))
        assert text == "0\t0\n1\t0\n2\t1\n"

    def test_label_rows(self):
        r = build_communities(columns([(0, 1, 0.5)]), 3)
        text = partition_to_tsv(extract_partition(r, "core"), ["a", "b", "c"])
        assert text.splitlines() == ["a\t0", "b\t0", "c\t1"]
