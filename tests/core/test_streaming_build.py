"""``MmapPairStore.build_streaming`` writes the very bytes ``build`` writes.

The streaming build enumerates wedges as CSR slot pairs in centre
chunks, takes edge ids from the slots, folds a buffered pair table,
spills interleaved wedge records into one shared run file and gathers
the final wedge sections window by window.  None of that may show in
the output: for every graph, budget and edge order, its ``pairs.bin``
must equal the materialized build's byte for byte.
"""

from __future__ import annotations

import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.storage import MmapPairStore
from repro.core.sweep import build_edge_index
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.graph.graph import Graph

BUDGETS = (None, 64, 256)


def _file_bytes(store):
    with open(store.file_spec().path, "rb") as handle:
        return handle.read()


def assert_streaming_matches_build(graph, edge_order=None):
    columns = fast_similarity_columns(graph)
    index_arr = np.asarray(build_edge_index(graph, edge_order), dtype=np.int64)
    with tempfile.TemporaryDirectory() as root:
        for budget in BUDGETS:
            oracle = MmapPairStore.build(
                graph, columns, index_arr, storage_dir=root, memory_budget_bytes=budget
            )
            stream = MmapPairStore.build_streaming(
                graph, index_arr, storage_dir=root, memory_budget_bytes=budget
            )
            try:
                assert (stream.k1, stream.k2) == (columns.k1, columns.k2)
                assert _file_bytes(stream) == _file_bytes(oracle), budget
            finally:
                oracle.close()
                stream.close()
        assert os.listdir(root) == []


def _component_edges(draw, kind, n):
    if kind == "star":
        return [(0, i) for i in range(1, n)]
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == "clique":
        return pairs
    return draw(st.lists(st.sampled_from(pairs), max_size=20, unique=True)) if pairs else []


@st.composite
def graphs(draw):
    """Disjoint stars, paths, cliques and random pieces, weighted or with
    tied weights, with isolated vertices and trailing degree-0 vertices.
    A star of up to 12 vertices has one centre with up to 55 wedges —
    more than the 16-wedge chunk cap of the 64- and 256-byte budgets."""
    g = Graph()
    weighted = draw(st.booleans())
    base = 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["star", "path", "clique", "random"]))
        n = draw(st.integers(1, 12 if kind == "star" else 7))
        for v in range(n):
            g.add_vertex(base + v)
        for u, v in _component_edges(draw, kind, n):
            weight = draw(st.sampled_from([0.5, 1.0, 2.0])) if weighted else 1.0
            g.add_edge(base + u, base + v, weight)
        base += n
    for v in range(base, base + draw(st.integers(0, 2))):
        g.add_vertex(v)
    return g


@settings(max_examples=60, deadline=None)
@given(graph=graphs(), seed=st.integers(0, 1000))
def test_property_streaming_bytes_equal_build(graph, seed):
    assert_streaming_matches_build(graph)
    if graph.num_edges:
        assert_streaming_matches_build(
            graph, graph.permuted_edge_ids(random.Random(seed))
        )


def _trailing_isolated():
    g = generators.caveman_graph(3, 5, weight=generators.random_weights(seed=2))
    for label in ("iso-a", "iso-b"):
        g.add_vertex(label)
    return g


FAMILIES = {
    "star_over_chunk_cap": lambda: generators.star_graph(14),
    "path": lambda: generators.path_graph(12),
    "unweighted_ties": lambda: generators.grid_graph(5, 5),
    "weighted_caveman": lambda: generators.caveman_graph(
        6, 8, weight=lambda u, v: 1.0 + ((u * 7 + v) % 5) / 7.0
    ),
    "trailing_isolated": _trailing_isolated,
    "k2_zero": lambda: generators.disjoint_edges(5),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_streaming_bytes_equal_build(family):
    graph = FAMILIES[family]()
    assert_streaming_matches_build(graph)
    assert_streaming_matches_build(graph, graph.permuted_edge_ids(random.Random(11)))
