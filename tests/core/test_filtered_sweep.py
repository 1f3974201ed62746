"""The columnar fine sweep's block prefilter replays Algorithm 2 exactly.

``sweep(graph, columns)`` cuts list L's K2 wedge stream into blocks,
drops every wedge whose two edges already share a cluster at block
start, and sends only the survivors through ``ChainArray.merge``.  These
tests shrink the block constant so small graphs span several blocks (a
single block filters nothing) and compare the result with a test-local
replay of every wedge of the same stream: the merge records must be
identical, similarity included, and so must the final edge labels.
"""

from __future__ import annotations

import importlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dendrogram import DendrogramBuilder
from repro.cluster.unionfind import ChainArray
from repro.cluster.validation import same_partition
from repro.core.simcolumns import wedge_edge_arrays
from repro.core.sweep import build_edge_index, sweep
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.graph.graph import Graph
from repro.obs import MemorySink, Tracer

# The module, not the ``sweep`` function ``repro.core`` re-exports.
sweep_module = importlib.import_module("repro.core.sweep")
SMALL_BLOCK = 7


def unfiltered_replay(graph, columns, edge_order=None):
    """``(merges, edge_labels)`` of MERGE over every wedge, in order."""
    columns = columns.sort_pairs()
    index = build_edge_index(graph, edge_order)
    e1, e2 = wedge_edge_arrays(graph, columns)
    sims = np.repeat(columns.sim, columns.pair_counts())
    chain = ChainArray(graph.num_edges)
    builder = DendrogramBuilder(graph.num_edges)
    r = 0
    for a, b, similarity in zip(e1.tolist(), e2.tolist(), sims.tolist()):
        outcome = chain.merge(index[a], index[b])
        if outcome.merged:
            r += 1
            builder.record(r, outcome.c1, outcome.c2, outcome.parent, similarity)
    labels = [chain.find(index[eid]) for eid in range(graph.num_edges)]
    return builder.build().merges, labels


def filtered_sweep(graph, columns, edge_order=None, tracer=None):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_module, "FILTER_BLOCK", SMALL_BLOCK)
        return sweep(graph, columns, edge_order=edge_order, tracer=tracer)


def assert_filter_is_exact(graph, edge_order=None):
    columns = fast_similarity_columns(graph)
    want_merges, want_labels = unfiltered_replay(graph, columns, edge_order)
    got = filtered_sweep(graph, columns, edge_order)
    assert got.dendrogram.merges == want_merges
    assert got.edge_labels() == want_labels
    assert got.num_levels == len(want_merges)
    reference = sweep(graph, edge_order=edge_order)
    assert same_partition(got.edge_labels(), reference.edge_labels())


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
    """Disjoint stars, paths, cliques and random pieces, weighted or tied,
    with isolated vertices inside pieces and trailing degree-0 vertices."""
    g = Graph()
    weighted = draw(st.booleans())
    base = 0
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["star", "path", "clique", "random"]))
        n = draw(st.integers(1, 8))
        for v in range(n):
            g.add_vertex(base + v)
        for u, v in _component_edges(draw, kind, n):
            weight = draw(st.sampled_from([0.5, 1.0, 2.0])) if weighted else 1.0
            g.add_edge(base + u, base + v, weight)
        base += n
    for v in range(base, base + draw(st.integers(0, 2))):
        g.add_vertex(v)
    return g


@settings(max_examples=80, deadline=None)
@given(graph=graphs(), seed=st.integers(0, 1000))
def test_property_filtered_equals_unfiltered(graph, seed):
    assert_filter_is_exact(graph)
    if graph.num_edges:
        assert_filter_is_exact(graph, graph.permuted_edge_ids(random.Random(seed)))


FAMILIES = {
    "star": lambda: generators.star_graph(9),
    "path": lambda: generators.path_graph(12),
    "unweighted_ties": lambda: generators.grid_graph(5, 5),
    "caveman": lambda: generators.caveman_graph(
        4, 6, weight=generators.random_weights(seed=5)
    ),
    "k2_zero": lambda: generators.disjoint_edges(5),
    "empty": Graph,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_filtered_equals_unfiltered(family):
    graph = FAMILIES[family]()
    assert_filter_is_exact(graph)
    if graph.num_edges:
        assert_filter_is_exact(graph, graph.permuted_edge_ids(random.Random(3)))


def _replayed(graph, run):
    tracer = Tracer([MemorySink()])
    result = run(graph, fast_similarity_columns(graph), tracer=tracer)
    return result, tracer.counters


class TestWedgesReplayed:
    def test_single_block_replays_every_wedge(self):
        graph = generators.caveman_graph(4, 6)
        result, counters = _replayed(graph, sweep)
        assert result.k2 <= sweep_module.FILTER_BLOCK
        assert counters["wedges_replayed"] == result.k2

    def test_later_blocks_drop_no_op_wedges(self):
        graph = generators.caveman_graph(4, 6)
        result, counters = _replayed(graph, filtered_sweep)
        assert result.k2 > 2 * max(SMALL_BLOCK, graph.num_edges)
        assert counters["merges"] <= counters["wedges_replayed"] < result.k2

    def test_dict_path_replays_k2(self):
        graph = generators.caveman_graph(3, 5)
        tracer = Tracer([MemorySink()])
        result = sweep(graph, tracer=tracer)
        assert tracer.counters["wedges_replayed"] == result.k2
