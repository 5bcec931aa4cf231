"""Pairwise cosine similarity between citation patterns.

Each node's citation pattern is its row of the citation matrix divided by
the row sum; the similarity of two nodes is the cosine of the angle between
their patterns, so values live in [0, 1] regardless of citation volume.

The similarity S is ``unit @ unit.T`` for the unit-length patterns
``unit``. On hub-heavy citation data S is nearly dense even when the
citations are sparse, so it is never stored whole: a
:class:`SimilarityMatrix` holds ``unit``, and its one reader,
:meth:`SimilarityMatrix.blocks`, walks S a block of rows at a time,
computing each block as the product of its rows of ``unit`` with
``unit.T`` by one of two exact kernels:

* sparse: scipy's CSR product, Gustavson's row-wise algorithm. Row i of
  a block product depends only on row i of ``unit``, so it is bit for
  bit row i of the full product. It counts the result's entries, computes
  them, and the block is scattered from that CSR result.
* dense: one product of a sparse and a dense matrix. A closed block
  (below) takes its R rows as CSR times their own transpose as a dense
  (targets x rows) array; any other block takes the ``unit.T`` rows of
  its cited targets as one CSC matrix over its columns times its rows as
  a dense (targets x rows) array. Either way scipy adds each entry's
  terms in increasing target order from 0.0, as the CSR product does;
  its extra terms, for targets one side does not cite, are exact
  ``+0.0`` because every entry is >= 0. It makes one pass and builds no
  CSR result.

Either way a row's values do not depend on which rows share its block.
Rows that share targets are put in one block: with more than one block,
rows are taken by weak connected component of the citation pattern, and
a block packs whole components (see :meth:`SimilarityMatrix._layout`),
so on planted communities a block cites only its own community's
targets, whatever the node ids. The components are labelled from
``unit`` alone, in O(log N) rounds (see :func:`_components`). A block of
whole components is closed: every target its rows cite, and every citer
of those, is one of its rows. It is computed by the dense kernel from its
own rows of ``unit`` alone, with their targets re-indexed to positions
among the rows, as the R x R product of those R rows with their
transpose, in O(its entries and its output) whatever N. Its columns are
the rows that store an entry, the product is row-major ``vals`` as it
stands, and each row's own column is its diagonal. Only a block that
holds a piece of a component larger than a block reads ``unit.T`` and
N-wide masks; ``unit.T`` is built on first use, so an S of closed blocks
never transposes. ``unit``, each block size's layout and the transpose
are built once per :class:`~simpair.citations.CitationMatrix` and kept on
it, read-only as its counts are (see :func:`build_similarity_matrix`),
O(its stored counts + N); S itself is kept nowhere, and
:attr:`SimilarityMatrix.values` rebuilds it on each read.

A block that cuts a component takes one of the two kernels. The dense
one costs rows x (entries of its CSC matrix) multiplies. The sparse one
costs the CSR product's multiplies, each dearer, and work per output
entry, of which there are at most one per multiply and at most rows x
min(N, those CSC entries). The block takes the dense kernel where its
multiplies are at most :data:`DENSE_RATIO` times the sparse one's plus
:data:`OUTPUT_RATIO` times that output bound: where its rows cite the
same targets, and also where the CSR product would make many output
entries per multiply (a small S with cross-talk); the sparse one where
rows scatter over targets that many nodes cite (a large S with
cross-talk). Every stored ``unit`` entry is positive, as
:func:`build_similarity_matrix` makes them, and no product of two of
them underflows, so the dense kernel stores a column exactly where the
CSR product does. Each row's own column is zeroed after either kernel.
A block's product holds at most (rows in the block) x N entries, and it
is dropped before the block is handed out.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse

from .citations import CitationMatrix

# a block that cuts a component takes the dense kernel where its
# multiplies, rows x (its CSC matrix's entries), are at most DENSE_RATIO
# times the CSR product's multiplies plus OUTPUT_RATIO times a bound on the
# CSR product's output entries: the cost of each in dense-kernel
# multiplies, fitted on the per-block times of scripts/kernel_table.py
# (CHANGES.md has the fit)
DENSE_RATIO = 10.5
OUTPUT_RATIO = 20


class SparseValues(sparse.csr_array):
    """A ``csr_array`` that also answers ``nbytes`` and ``np.count_nonzero``.

    Both are what code written for the dense matrix asked of ``values`` to
    size it; here they count the stored arrays and the nonzero entries.
    """

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes

    def __array_function__(self, func, types, args, kwargs):
        if func is np.count_nonzero and len(args) == 1 and not kwargs:
            return self.count_nonzero()
        return func._implementation(*args, **kwargs)


def _stored(values) -> SparseValues:
    """``values`` (dense or sparse) as CSR, without diagonal or stored zeros.

    Raises ValueError unless ``values`` is square, finite and non-negative.
    """
    csr = sparse.csr_array(values, dtype=np.float64)
    if csr.shape[0] != csr.shape[1]:
        raise ValueError(f"similarity must be square, got shape {csr.shape}")
    if not (np.isfinite(csr.data) & (csr.data >= 0.0)).all():
        raise ValueError("similarity entries must be finite and non-negative")
    own = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
    keep = (csr.indices != own) & (csr.data != 0.0)
    kept = np.zeros(len(keep) + 1, dtype=csr.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return SparseValues((csr.data[keep], csr.indices[keep], kept[csr.indptr]), shape=csr.shape)


class SimilarityMatrix:
    """Symmetric node-by-node similarity, read a block of rows at a time.

    Give exactly one of:

    * ``unit``: the unit-length patterns (CSR, sorted rows, positive entries),
      as :func:`build_similarity_matrix` makes them. The similarity is their
      product with their transpose, computed a block of rows at a time.
    * ``values``: the similarity itself, dense or sparse, square, finite
      and non-negative; it is stored.

    Either way a node is not a candidate partner for itself: its own
    column reads 0 in every block. ``values`` is the whole similarity as
    CSR, with no diagonal entry and no stored zero; from ``unit`` it is
    built on each read and kept nowhere. It costs O(nnz(S)), which
    selection never needs: a matrix built from ``unit`` computes every
    block as a product.

    From ``unit`` a matrix keeps only what its reads fill in, each built on
    first use: for each block size, the block layout and each node's
    position in its block (see :meth:`_layout`), and, once a block cuts a
    component, ``unit``'s transpose and its citer counts. That is O(nnz of
    ``unit`` + N), so :func:`build_similarity_matrix` keeps the matrix on
    its citation matrix for every later read.
    """

    def __init__(self, values=None, *, unit: sparse.csr_array | None = None):
        if (values is None) == (unit is None):
            raise TypeError("give exactly one of values and unit")
        self.unit = unit
        self._values = None if values is None else _stored(values)
        # per block size: the layout, and each node's position among its block's rows
        self._layouts: dict[int, tuple[list[tuple[np.ndarray, bool]], np.ndarray | None]] = {}

    @functools.cached_property
    def _unit_t(self) -> sparse.csr_array:
        """``unit``'s transpose, built on first use by a block that cuts a component."""
        return sparse.csr_array(self.unit.T)

    @functools.cached_property
    def _citers(self) -> np.ndarray:
        return np.diff(self._unit_t.indptr)  # nodes citing each target

    @property
    def n_nodes(self) -> int:
        return (self._values if self.unit is None else self.unit).shape[0]

    @property
    def values(self) -> SparseValues:
        """The whole S as CSR, with no diagonal entry and no stored zero.

        From ``unit`` it is built on each read as ``unit @ unit.T`` and
        kept nowhere, so it costs O(nnz(S)) only while the caller holds it.
        """
        if self.unit is None:
            return self._values
        return _stored(self.unit @ self.unit.T)

    def _block(self, rows: np.ndarray, closed: bool,
               local: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Rows ``rows`` (sorted node ids) of S, own columns 0, over the
        columns they store, as ``(cols, vals)``. An S given as ``values`` is
        read in place; from ``unit`` the rows are one product, dropped on
        return: of their own rows of ``unit`` alone when the block is
        ``closed`` (holds whole weak components, see :meth:`_layout`), and
        otherwise of their rows with ``unit``'s transpose. A closed block
        whose rows are not consecutive reads their positions from ``local``
        (see :meth:`_layout`)."""
        if self.unit is None:  # consecutive rows, read in place, with no diagonal
            return _columns(sparse.csr_array(_rows(self._values, rows),
                                             shape=(len(rows), self.n_nodes)))
        data, idx, ip = _rows(self.unit, rows)
        if closed:
            # every target the rows cite, and every citer of those, is a row:
            # each target re-indexed to its position among them
            idx = idx - rows[0] if rows[-1] - rows[0] == len(rows) - 1 else local[idx]
            at, vals = _own_dense_product(sparse.csr_array(
                (data, idx.astype(ip.dtype, copy=False), ip), shape=(len(rows), len(rows))))
            vals[at, np.arange(len(at))] = 0.0  # each row that stores an entry is a column
            return rows[at], vals
        part = sparse.csr_array((data, idx, ip), shape=(len(rows), self.n_nodes))
        cited = _present(idx, self.n_nodes)
        if _takes_dense(len(rows), int(self._citers @ cited),
                        int(self._citers[idx].sum()), self.n_nodes):
            cols, vals = _dense_product(part, cited, self._unit_t)
        else:
            cols, vals = _sparse_product(part, self._unit_t)
        at = np.minimum(np.searchsorted(cols, rows), len(cols) - 1)
        own = np.flatnonzero(cols[at] == rows) if len(cols) else at[:0]
        vals[own, at[own]] = 0.0
        return cols, vals

    def _layout(self, step: int) -> tuple[list[tuple[np.ndarray, bool]], np.ndarray | None]:
        """The blocks of at most ``step`` rows, and each node's position among
        its block's rows, built on first use for each ``step`` and kept, read-only.

        A block is its rows, sorted node ids, and whether it is closed: holds
        whole weak components. From ``unit``, with more than ``step`` nodes,
        rows are taken in order of their weak connected component of the
        citation pattern, node ids increasing inside one; rows of two
        components share no target, so their entry is 0. A block packs whole
        components and ends before one that would not fit, and is closed; a
        component of more than ``step`` rows is cut into ``step``-row pieces,
        its last piece packed like a component, and a block that holds a piece
        is not closed. Otherwise the blocks are consecutive ``step``-row
        slices: from ``unit`` there is one, of every node, and it is closed.
        The positions, None unless a closed block's rows are not consecutive,
        re-index such a block's targets by one gather.
        """
        if step in self._layouts:
            return self._layouts[step]
        n, local = self.n_nodes, None
        if self.unit is None or n <= step:
            layout = [(np.arange(lo, min(lo + step, n)), self.unit is not None)
                      for lo in range(0, n, step)]
        else:
            labels = _components(self.unit)
            order = np.argsort(labels, kind="stable")
            sizes = np.bincount(labels)
            sizes = sizes[sizes > 0]  # each component's, in order of its smallest node
            pieces = sizes // step + (sizes % step > 0)
            piece_rows = np.full(pieces.sum(), step)
            cut = sizes % step > 0
            piece_rows[(np.cumsum(pieces) - 1)[cut]] = (sizes % step)[cut]
            whole = np.repeat(sizes <= step, pieces)  # the piece is a whole component
            ends = np.cumsum(piece_rows)
            layout, lo, first = [], 0, 0
            while lo < n:
                last = np.searchsorted(ends, lo + step, side="right")  # the pieces first:last
                hi = ends[last - 1]
                layout.append((np.sort(order[lo:hi]), bool(whole[first:last].all())))
                lo, first = hi, last
            if any(closed and rows[-1] - rows[0] >= len(rows) for rows, closed in layout):
                lengths = np.array([len(rows) for rows, _ in layout])
                local = np.empty(n, self.unit.indices.dtype)
                local[np.concatenate([rows for rows, _ in layout])] = (
                    np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths))
                local.flags.writeable = False
        for rows, _ in layout:
            rows.flags.writeable = False  # handed to every later pass
        self._layouts[step] = layout, local
        return layout, local

    def blocks(self, step: int):
        """Blocks of at most ``step`` rows of S, every node in one, as ``(rows, cols, vals)``.

        ``rows`` holds the block's node ids, sorted (see :meth:`_layout`
        for which rows share a block), ``cols`` the sorted set of columns
        stored by any of its rows and ``vals`` a new (len(rows), len(cols))
        array whose row i, column k is entry (``rows[i]``, ``cols[k]``).
        Every column left out is zero in all of the rows; a stored one may
        be too. When every column is stored, ``cols`` is ``arange(N)``. A
        closed block costs O(its rows' entries and its output), whatever N.
        """
        layout, local = self._layout(step)
        for rows, closed in layout:
            cols, vals = self._block(rows, closed, local)
            yield rows, cols, vals
            del cols, vals  # freed before the next block is filled


def _components(unit: sparse.csr_array) -> np.ndarray:
    """Each node's weak connected component in the pattern of ``unit``,
    labelled by the component's smallest node id.

    Root hooking (Shiloach and Vishkin, 1982): each round, a row and its targets
    take the least label among them, which is written onto the roots their
    labels name, and every label is then replaced by its own label until
    none changes (a label is always a node of the same component, with a
    label no larger). A tree that is not a whole component merges with
    another each round, so there are O(log N) rounds of O(N + entries). It
    stops when a round changes nothing, or when every label is 0, one
    component. scipy's ``connected_components`` would do the same in one
    pass, but importing ``scipy.sparse.csgraph`` adds about 10 MB of
    resident memory.
    """
    label = np.arange(unit.shape[0], dtype=unit.indices.dtype)
    per_row = np.diff(unit.indptr)
    rows = np.flatnonzero(per_row)
    while True:
        ends = label.take(unit.indices)
        least = np.minimum(label[rows], np.minimum.reduceat(ends, unit.indptr[rows]))
        new = label.copy()
        np.minimum.at(new, label[rows], least)
        np.minimum.at(new, ends, np.repeat(least, per_row[rows]))
        up = new[new]
        while not np.array_equal(up, new):
            new, up = up, up[up]
        if not new.any() or np.array_equal(new, label):
            return new
        label = new


def _takes_dense(n_rows: int, entries: int, mults: int, n: int) -> bool:
    """The kernel rule, on Python ints: whether a block of ``n_rows`` rows takes the
    dense kernel, whose multiplies are ``n_rows`` x ``entries``, the entries of
    the targets the rows cite, over the CSR product, which makes ``mults``
    multiplies and at most one output entry per multiply and per (row, column)
    of ``n`` columns."""
    output = min(mults, n_rows * min(n, entries))
    return n_rows * entries <= DENSE_RATIO * mults + OUTPUT_RATIO * output


def _present(idx: np.ndarray, n: int) -> np.ndarray:
    """A length-``n`` mask of the values in ``idx``."""
    present = np.zeros(n, dtype=bool)
    present[idx] = True
    return present


def _positions(present: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices set in ``present``, sorted, and the position among them
    of each entry of ``idx`` (whose values are all set)."""
    if np.count_nonzero(present) == len(present):
        return np.arange(len(present)), idx
    # positions as a running count; sorting idx (np.unique) is slower on
    # near-dense blocks
    return np.flatnonzero(present), (np.cumsum(present) - 1)[idx]


def _sparse_product(rows: sparse.csr_array,
                    unit_t: sparse.csr_array) -> tuple[np.ndarray, np.ndarray]:
    """``rows @ unit_t`` by scipy's CSR product, as ``(cols, vals)``."""
    return _columns(rows @ unit_t)


def _dense_product(rows: sparse.csr_array, cited: np.ndarray,
                   unit_t: sparse.csr_array) -> tuple[np.ndarray, np.ndarray]:
    """``rows @ unit_t`` by the dense kernel, as ``(cols, vals)``; ``cited`` masks their targets."""
    targets, at = _positions(cited, rows.indices)
    data, idx, ip = _rows(unit_t, targets)  # one row per cited target, in target order
    cols, col_at = _positions(_present(idx, unit_t.shape[1]), idx)
    a = sparse.csc_array((data, col_at, ip), shape=(len(cols), len(targets)))
    del data, idx, col_at
    n_rows = rows.shape[0]
    x = np.zeros((len(targets), n_rows))
    x[at, np.repeat(np.arange(n_rows), np.diff(rows.indptr))] = rows.data
    product = a @ x
    del a, x  # freed first: only the product and its transposed copy are held at once
    vals = np.ascontiguousarray(product.T)
    del product
    return cols, vals


def _own_dense_product(local: sparse.csr_array) -> tuple[np.ndarray, np.ndarray]:
    """``local @ local.T`` by the dense kernel, as ``(at, vals)``: the local rows
    that store an entry, and the product over them, the CSR rows times their
    own dense transpose. scipy adds each entry's terms over the row's targets
    in increasing order from 0.0, as the CSR product does, and the terms for
    targets its column does not cite are exact ``+0.0``."""
    per_row = np.diff(local.indptr)
    at = np.flatnonzero(per_row)
    x = np.zeros((local.shape[1], len(at)))  # (targets x rows that store an entry)
    x[local.indices, np.repeat(np.arange(len(at)), per_row[at])] = local.data
    return at, local @ x


def _rows(m: sparse.csr_array, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(data, indices, indptr)`` of rows ``rows`` (sorted, possibly none) of
    ``m``: views of its ``data`` and ``indices`` when the rows are consecutive,
    else one gather of their entries."""
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
        ip = m.indptr[rows[0]:rows[-1] + 2]
        return m.data[ip[0]:ip[-1]], m.indices[ip[0]:ip[-1]], ip - ip[0]
    start, end = m.indptr[rows], m.indptr[rows + 1]
    ip = np.zeros(len(rows) + 1, m.indptr.dtype)
    np.cumsum(end - start, out=ip[1:])
    take = np.repeat(start - ip[:-1], end - start) + np.arange(ip[-1])
    return m.data[take], m.indices[take], ip


def _columns(m: sparse.csr_array) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``m`` over the columns they store, as ``(cols, vals)``."""
    ip, n_rows = m.indptr, m.shape[0]
    cols, idx = _positions(_present(m.indices, m.shape[1]), m.indices)
    out = np.zeros((n_rows, len(cols)))
    # flat offsets, added in place: one 1-d scatter is faster than a
    # (rows, cols) one
    flat = np.repeat(np.arange(n_rows) * len(cols), np.diff(ip))
    flat += idx
    out.ravel()[flat] = m.data
    return cols, out


def _row_sums(data: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Per-row sums of CSR ``data``, added as scipy's ``sum(axis=1)`` adds them.

    An empty row sums to 0 (``reduceat`` alone would give it the next
    row's first entry).
    """
    out = np.zeros(len(indptr) - 1)
    nonempty = np.flatnonzero(np.diff(indptr))
    out[nonempty] = np.add.reduceat(data, indptr[nonempty])
    return out


def build_similarity_matrix(m: CitationMatrix) -> SimilarityMatrix:
    """All-pairs cosine similarity of row-normalized citation counts.

    Only normalises: the result holds the unit-length patterns, and S is
    computed a block of rows at a time as it is read. S is bitwise
    deterministic and bitwise symmetric without mirroring: with sorted
    pattern rows, scipy sums entry (i, j) and entry (j, i) over the same
    common targets in the same order. Index arrays are int32 when N and
    the number of stored citations fit.

    The result is built once per matrix and kept on ``m``, read-only as
    ``m.counts`` is (see :class:`~simpair.citations.CitationMatrix`): every
    later call returns it, with the block layouts and transpose its reads
    have filled in, so repeated detects, selections and sweeps on ``m``
    normalise and label once. It keeps O(stored counts + N), never S: at
    planted 100k, ``unit`` takes 47 MB where the counts take 63 MB.
    """
    kept = m.__dict__.get("_similarity")
    if kept is None:
        kept = SimilarityMatrix(unit=_unit(m.counts))
        object.__setattr__(m, "_similarity", kept)  # m is frozen
    return kept


def _unit(counts: sparse.csr_array) -> sparse.csr_array:
    """The unit-length citation patterns of canonical ``counts`` (see
    :class:`~simpair.citations.CitationMatrix`): sorted rows, positive
    entries. Only ``counts.data`` is copied, as float64; the read-only index
    arrays are the counts' own."""
    ip = counts.indptr
    per_row = np.diff(ip)
    frac = counts.data.astype(np.float64)  # a copy, so it is scaled in place
    row_sums = _row_sums(frac, ip)
    inv = np.divide(1.0, row_sums, out=np.zeros_like(row_sums), where=row_sums > 0)
    frac *= np.repeat(inv, per_row)

    squares = frac * frac
    norms = np.sqrt(_row_sums(squares, ip))
    del squares
    inv_norm = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    frac *= np.repeat(inv_norm, per_row)

    unit = sparse.csr_array((frac, counts.indices, ip), shape=counts.shape)
    for a in (unit.data, unit.indices, unit.indptr):
        a.flags.writeable = False
    return unit
