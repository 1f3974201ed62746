"""The in-memory pair store holds the paper's list L, wedge for wedge.

Algorithm 2 sorts the K1 vertex pairs of map M by non-increasing
similarity and expands each pair ``(v_i, v_j)`` into the incident edge
pairs ``((v_i, v_k), (v_j, v_k))`` of its common neighbours ``v_k``.
Every sweep engine reads that list from a :class:`PairStore`; these
tests rebuild it from the pure-Python reference —
``compute_similarity_map(g).sorted_pairs()`` expanded through
``graph.edge_id`` and ``build_edge_index`` — and require the store's
``(sims, offsets, c1, c2)`` columns to equal it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.simcolumns import SimilarityColumns
from repro.core.similarity import compute_similarity_map
from repro.core.storage import InMemoryPairStore
from repro.core.sweep import build_edge_index
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.graph.graph import Graph


def reference_list_l(graph, edge_order=None):
    """``(sims, offsets, c1, c2)`` of list L from the dict reference."""
    index = build_edge_index(graph, edge_order)
    sims, offsets, c1, c2 = [], [0], [], []
    for similarity, (vi, vj), commons in compute_similarity_map(graph).sorted_pairs():
        sims.append(similarity)
        for vk in commons:
            c1.append(index[graph.edge_id(vi, vk)])
            c2.append(index[graph.edge_id(vj, vk)])
        offsets.append(len(c1))
    return sims, offsets, c1, c2


def store_list_l(graph, columns, edge_order=None):
    index_arr = np.asarray(build_edge_index(graph, edge_order), dtype=np.int64)
    store = InMemoryPairStore.build(graph, columns, index_arr)
    return (
        store.sims.tolist(),
        store.offsets.tolist(),
        store.c1.tolist(),
        store.c2.tolist(),
    )


def assert_store_is_list_l(graph, edge_order=None):
    want = reference_list_l(graph, edge_order)
    # Entry conversion (what coarse_sweep does with a dict map): the
    # similarities are the reference's own floats, so all four columns
    # must match exactly.
    converted = SimilarityColumns.from_similarity_map(compute_similarity_map(graph))
    assert store_list_l(graph, converted, edge_order) == want
    # The run path's columnar Phase I: same order and wedges; the
    # similarities agree up to summation-order rounding.
    sims, offsets, c1, c2 = store_list_l(
        graph, fast_similarity_columns(graph), edge_order
    )
    assert (offsets, c1, c2) == want[1:]
    assert sims == pytest.approx(want[0], rel=1e-12)


@st.composite
def small_graphs(draw):
    """Small weighted graphs with ties, isolated and trailing degree-0 vertices."""
    n = draw(st.integers(4, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=0, max_size=30, unique=True))
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in chosen:
        g.add_edge(u, v, draw(st.sampled_from([0.5, 1.0, 2.0])))
    return g


@settings(max_examples=60, deadline=None)
@given(graph=small_graphs(), seed=st.integers(0, 1000))
def test_property_store_equals_reference_list_l(graph, seed):
    import random

    assert_store_is_list_l(graph)
    if graph.num_edges:
        assert_store_is_list_l(graph, graph.permuted_edge_ids(random.Random(seed)))


FAMILIES = {
    "star": lambda: generators.star_graph(7),
    "path": lambda: generators.path_graph(9),
    "unweighted_ties": lambda: generators.grid_graph(4, 4),
    "caveman": lambda: generators.caveman_graph(
        3, 5, weight=generators.random_weights(seed=11)
    ),
    "k2_zero_disjoint": lambda: generators.disjoint_edges(4),
    "k2_zero_single_edge": lambda: Graph.from_edge_list([(0, 1)]),
    "empty": Graph,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_store_equals_reference_list_l(family):
    graph = FAMILIES[family]()
    assert_store_is_list_l(graph)
    if family.startswith("k2_zero") or family == "empty":
        sims, offsets, c1, c2 = reference_list_l(graph)
        assert (sims, offsets, c1, c2) == ([], [0], [], [])
