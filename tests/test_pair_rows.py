"""``Detection.pairs``: a read-only row view of the three pair columns."""

import tracemalloc

import pytest

from simpair import RankedPair, Strategy, build_similarity_matrix, detect
from simpair.io import pairs_to_tsv, write_pairs
from simpair.selection import select_pairs

from pairlists import columns, rows
from test_similarity_properties import planted


@pytest.fixture(scope="module", params=[Strategy("max"), Strategy("psim")], ids=["max", "psim"])
def view_and_list(request):
    m = planted(60, size=10, per_node=20)
    want = rows(select_pairs(build_similarity_matrix(m), request.param, 3))
    return detect(m, request.param, seed=3).pairs, want


def test_rows_equal_the_list(view_and_list):
    pairs, want = view_and_list
    assert len(want) >= 60
    assert pairs == want and want == pairs
    assert not pairs != want
    assert list(pairs) == want
    assert len(pairs) == len(want) and bool(pairs)
    assert pairs != want[:-1] and pairs != want[::-1]
    row = pairs[0]
    assert type(row) is RankedPair
    assert [type(v) for v in row] == [int, int, float]


def test_indexing_and_slicing_follow_the_list(view_and_list):
    pairs, want = view_and_list
    n = len(want)
    assert [pairs[k] for k in range(-n, n)] == [want[k] for k in range(-n, n)]
    for k in (n, -n - 1):
        with pytest.raises(IndexError):
            pairs[k]
    for cut in (slice(None), slice(3, 17), slice(-5, None), slice(None, None, 3),
                slice(40, 2, -4), slice(n, None), slice(7, 7)):
        assert pairs[cut] == want[cut], cut
        assert list(pairs[cut]) == want[cut], cut
    assert pairs[2:30][1:-1:2] == want[2:30][1:-1:2]


def test_zip_and_written_bytes_follow_the_list(view_and_list, tmp_path):
    pairs, want = view_and_list
    assert list(zip(*pairs)) == list(zip(*want))
    write_pairs(tmp_path / "view.tsv", pairs.columns)
    write_pairs(tmp_path / "list.tsv", columns(want))
    assert (tmp_path / "view.tsv").read_bytes() == (tmp_path / "list.tsv").read_bytes()
    assert pairs_to_tsv(pairs[5:9].columns) == pairs_to_tsv(columns(want[5:9]))


def test_rows_are_read_only(view_and_list):
    pairs, _ = view_and_list
    with pytest.raises(TypeError):
        pairs[0] = RankedPair(0, 1, 0.5)
    with pytest.raises(AttributeError):
        pairs.append(RankedPair(0, 1, 0.5))
    with pytest.raises(AttributeError):
        pairs.columns = pairs.columns


def test_kept_pairs_hold_no_row_objects():
    """A kept ``detect(...).pairs`` costs its three columns: 24 bytes a pair."""
    m = planted(3000, size=10, per_node=20)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pairs = detect(m, Strategy("max")).pairs
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(pairs) >= 3000
    # 16 KiB covers the small buffers numpy and the allocator keep; a list
    # of rows would add over 100 bytes a pair
    assert held <= 24 * len(pairs) + 16 * 1024, held / len(pairs)
