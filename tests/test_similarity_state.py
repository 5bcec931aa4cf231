"""A citation matrix's similarity state: built once, reused by every read, never S."""

import gc
import types
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse

from simpair import (
    CitationMatrix,
    ExperimentConfig,
    Strategy,
    build_similarity_matrix,
    detect,
    run_deletion_sweep,
    run_probability_sweep,
    run_topn_sweep,
    select_many,
)
from simpair import selection, similarity
from test_similarity_properties import (
    DIGEST_STRATEGIES,
    SEEDS,
    components_shuffled,
    fresh,
    hub_citations,
    planted,
)

REUSE = settings(max_examples=8, deadline=None, derandomize=True, database=None)


def outputs(m: CitationMatrix, seed: int) -> list[bytes]:
    """The bytes of a detect at one level and at the fixpoint per digest strategy,
    one ``select_many`` of them all and each sweep, in that order, all on ``m``."""
    out = []
    for strategy in DIGEST_STRATEGIES:
        for levels in (1, 0):
            d = detect(m, strategy, seed=seed, levels=levels)
            out += [col.tobytes() for col in d.pairs.columns]
            out += [d.core.labels.tobytes(), d.real.labels.tobytes(),
                    repr(d.level_stats).encode()]
    jobs = [(strategy, seed) for strategy in DIGEST_STRATEGIES]
    out += [col.tobytes() for pairs in select_many(build_similarity_matrix(m), jobs)
            for col in pairs]
    cfg = ExperimentConfig(repetitions=2, base_seed=seed)
    out += [run_probability_sweep(m, cfg, [0.0, 0.5]).to_csv().encode(),
            run_topn_sweep(m, cfg, [1, 2]).to_csv().encode(),
            run_deletion_sweep(m, cfg, [0.0, 0.3]).to_csv().encode()]
    return out


@REUSE
@given(components_shuffled(), SEEDS)
def test_a_reused_matrix_gives_the_bytes_of_a_fresh_one(case, seed):
    """Every detect, selection and sweep on one matrix, under each block size in
    turn, gives the bytes each gives on a matrix that has kept nothing yet."""
    m, _ = case
    if m.n_nodes < 3:
        return
    for block_rows in (1, 2, 3, 4, 5, 128):
        with mock.patch.object(selection, "BLOCK_ROWS", block_rows):
            assert outputs(m, seed) == outputs(fresh(m), seed), block_rows


def test_a_reused_matrix_with_cut_components_gives_the_bytes_of_a_fresh_one():
    """At 128 rows a 150-node community is cut, so blocks also read the kept
    transpose."""
    m = planted(450, size=150, per_node=5)
    assert not all(closed for _, closed in build_similarity_matrix(fresh(m))._layout(128)[0])
    first = outputs(m, 7)
    assert outputs(m, 7) == first == outputs(fresh(m), 7)
    assert "_unit_t" in build_similarity_matrix(m).__dict__


def test_normalisation_and_components_run_once_per_matrix():
    m = planted(1500, shuffle=True)
    calls = {"_unit": 0, "_components": 0}

    def counting(name, is_ms):
        kernel = getattr(similarity, name)

        def counted(arg):
            calls[name] += is_ms(arg)
            return kernel(arg)
        return counted

    with mock.patch.multiple(
            similarity,
            _unit=counting("_unit", lambda counts: counts is m.counts),
            _components=counting("_components",
                                 lambda unit: unit is m.__dict__["_similarity"].unit)):
        outputs(m, 3)
        outputs(m, 4)
    # the coarse levels are other matrices, each normalised once for itself
    assert calls == {"_unit": 1, "_components": 1}
    assert build_similarity_matrix(m) is build_similarity_matrix(m)


def test_kept_state_cannot_go_stale():
    """A write into the counts, or into the kept ``unit``, raises instead of leaving a
    later detect on the old similarity; new counts make a new matrix."""
    m = CitationMatrix.from_dense(np.array([[0, 5, 1, 0], [4, 0, 0, 1], [1, 0, 0, 6],
                                            [0, 1, 5, 0]]))
    first = detect(m, Strategy("max")).pairs.columns
    new = [1, 9, 9, 1, 9, 1, 1, 9]
    s = build_similarity_matrix(m)
    for arrays in ([m.counts.data, m.counts.indices, m.counts.indptr],
                   [s.unit.data, s.unit.indices, s.unit.indptr]):
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[:] = a[::-1]
    with pytest.raises(ValueError, match="read-only"):
        m.counts.data[:] = new
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(detect(m, Strategy("max")).pairs.columns, first))
    rewritten = CitationMatrix(sparse.csr_array((new, m.counts.indices, m.counts.indptr),
                                                shape=m.counts.shape))
    assert detect(rewritten, Strategy("max")).pairs.columns[2].tolist() == [1.0] * 4


def reachable_arrays(root) -> list[np.ndarray]:
    """Every numpy array reachable from ``root`` through objects' references,
    not through classes, modules or functions."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, todo, arrays = {id(root)}, [root], []
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        for ref in gc.get_referents(obj):
            if id(ref) not in seen and not isinstance(ref, skip):
                seen.add(id(ref))
                todo.append(ref)
    return arrays


@pytest.mark.parametrize("make", [lambda: hub_citations(600),
                                  lambda: planted(450, size=150, per_node=5)],
                         ids=["hub", "cut components"])
def test_values_are_rebuilt_on_each_read_and_kept_nowhere(make):
    m = make()
    detect(m, Strategy("max"), levels=1)  # fills the labels, the layout and any transpose
    s = build_similarity_matrix(m)
    first, second = s.values, s.values
    assert first is not second
    assert all(getattr(first, a).tobytes() == getattr(second, a).tobytes()
               for a in ("data", "indices", "indptr"))
    nnz = first.nnz
    unit_nnz = s.unit.nnz
    assert nnz > 3 * unit_nnz
    gone = weakref.ref(first.data)
    del first, second
    gc.collect()
    assert gone() is None
    # what the matrix keeps is O(its stored counts + N)
    largest = max(a.size for a in reachable_arrays(m))
    assert largest <= max(unit_nnz, m.counts.nnz, m.n_nodes + 1) < nnz
