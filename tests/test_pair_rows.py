"""``Detection.pairs``: the three pair columns, read-only, iterated as rows."""

import tracemalloc

import pytest

from simpair import Strategy, build_similarity_matrix, detect
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
    assert list(pairs) == want
    assert len(pairs) == len(want) and bool(pairs)
    row = next(iter(pairs))
    assert type(row) is tuple
    assert [type(v) for v in row] == [int, int, float]


def test_zip_and_written_bytes_follow_the_list(view_and_list, tmp_path):
    pairs, want = view_and_list
    assert list(zip(*pairs)) == list(zip(*want))
    write_pairs(tmp_path / "view.tsv", pairs.columns)
    write_pairs(tmp_path / "list.tsv", columns(want))
    assert (tmp_path / "view.tsv").read_bytes() == (tmp_path / "list.tsv").read_bytes()
    part = tuple(col[5:9] for col in pairs.columns)
    assert pairs_to_tsv(part) == pairs_to_tsv(columns(want[5:9]))


def test_rows_are_read_only(view_and_list):
    pairs, _ = view_and_list
    with pytest.raises(TypeError):
        pairs[0] = (0, 1, 0.5)
    with pytest.raises(AttributeError):
        pairs.append((0, 1, 0.5))
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
