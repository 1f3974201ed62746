"""Tests for the columnar Phase I (repro.fast.similarity)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.similarity import compute_similarity_map
from repro.fast.similarity import adjacency_matrix, fast_similarity_columns
from repro.graph import generators
from repro.graph.graph import Graph


def fast_similarity_map(graph):
    """The columnar Phase I as a dict map, for entry-wise comparison."""
    return fast_similarity_columns(graph).to_similarity_map()


def assert_equal_maps(fast, reference):
    assert fast.k1 == reference.k1
    assert fast.k2 == reference.k2
    for pair, entry in reference.entries.items():
        other = fast[pair]
        assert math.isclose(
            other.similarity, entry.similarity, rel_tol=1e-9, abs_tol=1e-12
        )
        assert sorted(other.common_neighbors) == sorted(entry.common_neighbors)


class TestAdjacencyMatrix:
    def test_symmetric_weights(self, weighted_caveman):
        a = adjacency_matrix(weighted_caveman)
        assert (a != a.T).nnz == 0
        assert a.nnz == 2 * weighted_caveman.num_edges

    def test_values(self):
        g = Graph.from_edge_list([("a", "b", 2.5)])
        a = adjacency_matrix(g)
        assert a[0, 1] == 2.5
        assert a[1, 0] == 2.5


class TestFastSimilarityMap:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: generators.complete_graph(6, weight=generators.random_weights(seed=1)),
            lambda: generators.caveman_graph(3, 5, weight=generators.random_weights(seed=2)),
            lambda: generators.star_graph(7),
            lambda: generators.grid_graph(4, 4),
            lambda: generators.ring_graph(8),
            lambda: generators.barabasi_albert(40, 2, seed=3),
        ],
    )
    def test_matches_reference(self, maker):
        g = maker()
        assert_equal_maps(fast_similarity_map(g), compute_similarity_map(g))

    def test_empty_graph(self):
        assert len(fast_similarity_map(Graph())) == 0

    def test_disjoint_edges(self):
        g = generators.disjoint_edges(4)
        assert len(fast_similarity_map(g)) == 0

    def test_isolated_vertices(self):
        g = Graph()
        g.add_vertex("lonely")
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert_equal_maps(fast_similarity_map(g), compute_similarity_map(g))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 14), p=st.floats(0.2, 0.95), seed=st.integers(0, 1000))
def test_property_vectorized_equals_reference(n, p, seed):
    g = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    assert_equal_maps(fast_similarity_map(g), compute_similarity_map(g))
