"""Tests for the parallel initialization phase (Section VI-A)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.similarity import accumulate_pair_map, compute_similarity_map
from repro.errors import ParameterError
from repro.graph import generators
from repro.parallel.par_init import hierarchical_map_merge, parallel_similarity_map
from repro.parallel.pool import ThreadBackend


def assert_maps_equal(fast, reference):
    assert fast.k1 == reference.k1
    assert fast.k2 == reference.k2
    for pair, entry in reference.entries.items():
        other = fast[pair]
        assert math.isclose(
            other.similarity, entry.similarity, rel_tol=1e-9, abs_tol=1e-12
        )
        assert sorted(other.common_neighbors) == sorted(entry.common_neighbors)


class TestHierarchicalMapMerge:
    def test_empty(self):
        assert hierarchical_map_merge([]) == {}

    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 6, 8])
    def test_matches_full_map(self, parts, weighted_caveman):
        g = weighted_caveman
        full = accumulate_pair_map(g)
        from repro.parallel.partitioner import partition_range

        locals_ = [
            accumulate_pair_map(g, vertices=part)
            for part in partition_range(g.num_vertices, parts)
        ]
        merged = hierarchical_map_merge(locals_)
        assert set(merged) == set(full)
        for key in full:
            assert merged[key][0] == pytest.approx(full[key][0])
            assert sorted(merged[key][1]) == sorted(full[key][1])

    def test_with_thread_backend(self, planted):
        from repro.parallel.partitioner import partition_range

        locals_ = [
            accumulate_pair_map(planted, vertices=part)
            for part in partition_range(planted.num_vertices, 5)
        ]
        full = accumulate_pair_map(planted)
        merged = hierarchical_map_merge(locals_, ThreadBackend(3))
        assert set(merged) == set(full)


class TestParallelSimilarityMap:
    def test_validation(self, triangle):
        with pytest.raises(ParameterError):
            parallel_similarity_map(triangle, num_workers=0)

    @pytest.mark.parametrize("workers", [1, 2, 3, 6])
    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_matches_serial(self, weighted_caveman, workers, backend):
        reference = compute_similarity_map(weighted_caveman)
        fast = parallel_similarity_map(
            weighted_caveman, num_workers=workers, backend=backend
        )
        assert_maps_equal(fast, reference)

    def test_process_backend(self, planted):
        reference = compute_similarity_map(planted)
        fast = parallel_similarity_map(planted, num_workers=2, backend="process")
        assert_maps_equal(fast, reference)

    def test_contiguous_scheme(self, planted):
        reference = compute_similarity_map(planted)
        fast = parallel_similarity_map(
            planted, num_workers=3, backend="thread", scheme="contiguous"
        )
        assert_maps_equal(fast, reference)

    def test_more_workers_than_vertices(self, triangle):
        reference = compute_similarity_map(triangle)
        fast = parallel_similarity_map(triangle, num_workers=16, backend="thread")
        assert_maps_equal(fast, reference)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(4, 12),
    p=st.floats(0.3, 0.9),
    seed=st.integers(0, 200),
    workers=st.integers(2, 5),
)
def test_property_parallel_init_equals_serial(n, p, seed, workers):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    reference = compute_similarity_map(g)
    fast = parallel_similarity_map(g, num_workers=workers, backend="thread")
    assert_maps_equal(fast, reference)


class TestParallelSimilarityColumns:
    def test_builds_csr_once_for_all_workers(self, monkeypatch):
        # Pass 2 workers receive the parent's CSR arrays; none rebuilds
        # the adjacency with the per-edge loop.
        import repro.fast.similarity as fast_similarity
        from repro.fast.similarity import fast_similarity_columns
        from repro.parallel.par_init import parallel_similarity_columns

        graph = generators.caveman_graph(4, 6)
        calls = []
        real = fast_similarity._csr_arrays

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(fast_similarity, "_csr_arrays", counting)
        cols = parallel_similarity_columns(graph, num_workers=3, backend="thread")
        assert len(calls) == 1
        ref = fast_similarity_columns(graph)
        assert cols.u.tolist() == ref.u.tolist()
        assert cols.v.tolist() == ref.v.tolist()
        assert cols.sim.tolist() == ref.sim.tolist()
        assert cols.common_neighbors.tolist() == ref.common_neighbors.tolist()
