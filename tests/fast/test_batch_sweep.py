"""Unit tests for the vectorized batch union-find kernels.

The kernels must reproduce the chained oracle's *partition* exactly:
``batch_components`` is checked against a classic DSU and a sequential
``ChainArray`` MERGE walk, and ``batch_join_rows`` against the reference
DSU join.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.unionfind import ChainArray, DisjointSet
from repro.errors import ClusteringError
from repro.fast.batch_sweep import (
    batch_components,
    batch_join_rows,
    compress_labels,
)
from repro.obs import MemorySink, Tracer


def random_edges(n, m, seed):
    rng = random.Random(seed)
    i1 = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
    i2 = np.array([rng.randrange(n) for _ in range(m)], dtype=np.int64)
    return i1, i2


def dsu_labels(n, i1, i2, base=None):
    dsu = DisjointSet(n)
    if base is not None:
        for i, b in enumerate(base):
            if b != i:
                dsu.union(i, b)
    for a, b in zip(i1.tolist(), i2.tolist()):
        dsu.union(a, b)
    return dsu.labels()


class TestCompressLabels:
    def test_identity_unchanged(self):
        lab = np.arange(5, dtype=np.int64)
        assert compress_labels(lab).tolist() == [0, 1, 2, 3, 4]

    def test_chain_fully_compressed(self):
        # 3 -> 2 -> 1 -> 0: every id must land on the chain minimum.
        lab = np.array([0, 0, 1, 2], dtype=np.int64)
        assert compress_labels(lab).tolist() == [0, 0, 0, 0]

    def test_input_not_mutated(self):
        lab = np.array([0, 0, 1], dtype=np.int64)
        compress_labels(lab)
        assert lab.tolist() == [0, 0, 1]

    def test_upward_pointer_rejected(self):
        with pytest.raises(ClusteringError, match="invariant"):
            compress_labels(np.array([1, 1], dtype=np.int64))

    def test_non_1d_rejected(self):
        with pytest.raises(ClusteringError):
            compress_labels(np.zeros((2, 2), dtype=np.int64))

    def test_idempotent_output(self):
        lab = np.array([0, 1, 0, 2, 1, 3], dtype=np.int64)
        out = compress_labels(lab)
        assert np.array_equal(compress_labels(out), out)


class TestBatchComponents:
    def test_matches_dsu_reference(self):
        n = 40
        i1, i2 = random_edges(n, 60, seed=3)
        out = batch_components(np.arange(n, dtype=np.int64), i1, i2)
        assert out.tolist() == dsu_labels(n, i1, i2)

    def test_respects_base_labels(self):
        # Pre-merged base: {0,5} and {1,6} already joined.
        base = np.arange(8, dtype=np.int64)
        base[5] = 0
        base[6] = 1
        i1 = np.array([5], dtype=np.int64)
        i2 = np.array([6], dtype=np.int64)
        out = batch_components(base, i1, i2)
        assert out.tolist() == dsu_labels(8, i1, i2, base=[0, 1, 2, 3, 4, 0, 1, 7])

    def test_deterministic(self):
        n = 25
        i1, i2 = random_edges(n, 40, seed=9)
        lab = np.arange(n, dtype=np.int64)
        assert np.array_equal(
            batch_components(lab, i1, i2), batch_components(lab, i1, i2)
        )

    def test_empty_edges_compresses_only(self):
        lab = np.array([0, 0, 1], dtype=np.int64)
        empty = np.array([], dtype=np.int64)
        assert batch_components(lab, empty, empty).tolist() == [0, 0, 0]

    def test_output_fully_compressed(self):
        n = 30
        i1, i2 = random_edges(n, 50, seed=5)
        out = batch_components(np.arange(n, dtype=np.int64), i1, i2)
        assert np.array_equal(out[out], out)

    def test_matches_sequential_merge(self):
        n = 35
        i1, i2 = random_edges(n, 50, seed=11)
        oracle = ChainArray(n)
        for a, b in zip(i1.tolist(), i2.tolist()):
            oracle.merge(a, b)
        out = batch_components(np.arange(n, dtype=np.int64), i1, i2)
        assert out.tolist() == oracle.labels()
        assert int(np.count_nonzero(out == np.arange(n))) == oracle.num_clusters()

    def test_inplace_contracts_in_the_given_array(self):
        # The runtimes hand the kernel their own compressed copy of C:
        # the join lands in that array, equal to the copying call.
        n = 40
        i1, i2 = random_edges(n, 60, seed=3)
        base = batch_components(
            np.arange(n, dtype=np.int64), i1[:10], i2[:10]
        )
        expected = batch_components(base, i1[10:], i2[10:])
        work = base.copy()
        out = batch_components(work, i1[10:], i2[10:], inplace=True)
        assert out is work
        assert out.tolist() == expected.tolist()

    def test_inputs_not_mutated(self):
        lab = np.arange(6, dtype=np.int64)
        i1 = np.array([0, 2], dtype=np.int64)
        i2 = np.array([1, 3], dtype=np.int64)
        batch_components(lab, i1, i2)
        assert lab.tolist() == list(range(6))
        assert i1.tolist() == [0, 2] and i2.tolist() == [1, 3]

    def test_shape_mismatch_rejected(self):
        lab = np.arange(4, dtype=np.int64)
        with pytest.raises(ClusteringError):
            batch_components(
                lab, np.array([0, 1], dtype=np.int64), np.array([2], dtype=np.int64)
            )

    def test_endpoint_out_of_range_rejected(self):
        lab = np.arange(4, dtype=np.int64)
        with pytest.raises(ClusteringError):
            batch_components(
                lab, np.array([0], dtype=np.int64), np.array([4], dtype=np.int64)
            )

    def test_traces_rounds(self):
        sink = MemorySink()
        tracer = Tracer([sink])
        n = 40
        i1, i2 = random_edges(n, 60, seed=3)
        batch_components(np.arange(n, dtype=np.int64), i1, i2, tracer=tracer)
        tracer.close()
        round_spans = [s for s in sink.spans if s.name == "sweep:batch_round"]
        assert round_spans, "contraction rounds must emit spans"
        assert all(s.attrs["edges"] > 0 for s in round_spans)
        assert sink.counters["batch_rounds"] == len(round_spans)


class TestBatchJoinRows:
    def test_empty_rejected(self):
        with pytest.raises(ClusteringError):
            batch_join_rows([])

    def test_single_row_compressed(self):
        out = batch_join_rows([np.array([0, 0, 1], dtype=np.int64)])
        assert out.tolist() == [0, 0, 0]

    def test_join_matches_dsu(self):
        n = 30
        rows = []
        dsu = DisjointSet(n)
        for seed in range(4):
            i1, i2 = random_edges(n, 15, seed=seed)
            rows.append(batch_components(np.arange(n, dtype=np.int64), i1, i2))
            for a, b in zip(i1.tolist(), i2.tolist()):
                dsu.union(a, b)
        assert batch_join_rows(rows).tolist() == dsu.labels()

    def test_rows_not_mutated(self):
        rows = [
            np.array([0, 0, 2], dtype=np.int64),
            np.array([0, 1, 1], dtype=np.int64),
        ]
        batch_join_rows(rows)
        assert rows[0].tolist() == [0, 0, 2]
        assert rows[1].tolist() == [0, 1, 1]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 60), m=st.integers(0, 120), seed=st.integers(0, 1000))
def test_property_components_equal_dsu(n, m, seed):
    i1, i2 = random_edges(n, m, seed)
    out = batch_components(np.arange(n, dtype=np.int64), i1, i2)
    assert out.tolist() == dsu_labels(n, i1, i2)
    assert np.array_equal(out[out], out)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    m=st.integers(0, 120),
    seed=st.integers(0, 1000),
    split=st.integers(0, 120),
)
def test_property_inplace_equals_copying(n, m, seed, split):
    # Contracting in the caller's compressed copy gives the copying
    # call's labels, whichever scratch buffer the last round ended in.
    i1, i2 = random_edges(n, m, seed)
    base = batch_components(np.arange(n, dtype=np.int64), i1[:split], i2[:split])
    expected = batch_components(base, i1[split:], i2[split:])
    work = base.copy()
    out = batch_components(work, i1[split:], i2[split:], inplace=True)
    assert out is work
    assert out.tolist() == expected.tolist()
