"""The level digest agrees with a full per-level label comparison."""

import dataclasses
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digest import level_digest, level_groups
from repro.bench.experiments import coarse_params_for
from repro.cluster.dendrogram import Dendrogram, Merge
from repro.core import LinkClustering, RunConfig
from repro.core.metrics import count_k2
from repro.core.registry import engine_names
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.graph.generators import caveman_graph, random_weights
from repro.graph.graph import Graph


@st.composite
def small_graphs(draw):
    """Small weighted graphs with ties, isolated and trailing degree-0 vertices."""
    n = draw(st.integers(4, 11))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=3, max_size=30, unique=True))
    g = Graph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in chosen:
        g.add_edge(u, v, draw(st.sampled_from([0.5, 1.0, 2.0])))
    return g


def test_level_groups_name_clusters_by_smallest_edge_id():
    chain = Dendrogram(4, [Merge(1, 0, 1, 0), Merge(2, 0, 2, 0), Merge(3, 0, 3, 0)])
    assert list(level_groups(chain, [0, 1, 2, 3])) == [
        (1, ((0, 1),)), (2, ((0, 2),)), (3, ((0, 3),))]
    # edge e sits at leaf 3 - e
    assert list(level_groups(chain, [3, 2, 1, 0])) == [
        (1, ((2, 3),)), (2, ((1, 2),)), (3, ((0, 1),))]
    pairs = Dendrogram(4, [Merge(1, 0, 1, 0), Merge(1, 2, 3, 2)])
    crossed = Dendrogram(4, [Merge(1, 0, 2, 0), Merge(1, 1, 3, 1)])
    assert list(level_groups(pairs, range(4))) == [(1, ((0, 1), (2, 3)))]
    assert level_digest(pairs, range(4)) != level_digest(crossed, range(4))


def all_levels(result):
    return [result.labels_at_level(lv) for lv in range(result.num_levels + 1)]


def coarse_config(graph, **extra):
    return RunConfig(coarse=coarse_params_for(graph, count_k2(graph)), pairs_format="columnar", **extra)


def assert_digest_matches_labels(graph):
    oracle = LinkClustering(graph, config=coarse_config(graph)).run()
    want = level_digest(oracle.dendrogram, oracle.edge_index)
    for engine in engine_names():
        for backend, workers in (("serial", 1), ("thread", 2)):
            res = LinkClustering(
                graph, config=coarse_config(graph, engine=engine, backend=backend, num_workers=workers)
            ).run()
            same_digest = level_digest(res.dendrogram, res.edge_index) == want
            same_labels = res.num_levels == oracle.num_levels and all_levels(res) == all_levels(oracle)
            assert same_digest == same_labels, (engine, backend)
            assert same_digest, (engine, backend)


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_digest_agrees_with_labels_for_every_engine(graph):
    assert_digest_matches_labels(graph)


@pytest.mark.parametrize("cliques,size", [(3, 4), (5, 6)])
def test_digest_agrees_with_labels_on_caveman(cliques, size):
    assert_digest_matches_labels(caveman_graph(cliques, size, weight=random_weights(cliques)))


@settings(max_examples=25, deadline=None)
@given(small_graphs())
def test_fine_digest_matches_dict_oracle(graph):
    ref = sweep(graph, compute_similarity_map(graph))
    res = LinkClustering(graph, config=RunConfig(pairs_format="columnar")).run()
    assert level_digest(res.dendrogram, res.edge_index) == level_digest(ref.dendrogram, ref.edge_index)


def split_level(dendrogram: Dendrogram) -> Dendrogram:
    """Move the first merge of the first multi-merge level into a level of its own."""
    merges = list(dendrogram.merges)
    i = next(i for i in range(len(merges) - 1) if merges[i].level == merges[i + 1].level)
    tail = [dataclasses.replace(m, level=m.level + 1) for m in merges[i + 1 :]]
    return Dendrogram(dendrogram.num_items, merges[: i + 1] + tail)


def repoint_merge(dendrogram: Dendrogram) -> Dendrogram:
    """Point one merge at a cluster it did not join; every level keeps its merge count."""
    merges = list(dendrogram.merges)
    n = dendrogram.num_items
    for i in reversed(range(len(merges))):
        m = merges[i]
        labels = Dendrogram(n, merges[:i]).labels_at_level(m.level)
        for other in range(n):
            if labels[other] in (labels[m.left], labels[m.right]):
                continue
            lo, hi = sorted((m.left, other))
            bad = Dendrogram(n, merges[:i] + [Merge(m.level, lo, hi, lo)] + merges[i + 1 :])
            if any(bad.labels_at_level(lv) != dendrogram.labels_at_level(lv)
                   for lv in range(m.level, bad.num_levels + 1)):
                return bad
    raise AssertionError("no single re-pointed merge changes a level's partition")


PERTURBATIONS = [split_level, repoint_merge]


@pytest.mark.parametrize("perturb", PERTURBATIONS)
def test_perturbed_dendrogram_changes_digest_and_labels(perturb):
    graph = caveman_graph(4, 5, weight=random_weights(7))
    res = LinkClustering(graph, config=coarse_config(graph)).run()
    bad = perturb(res.dendrogram)
    assert level_digest(bad, res.edge_index) != level_digest(res.dendrogram, res.edge_index)
    assert any(
        bad.labels_at_level(lv) != res.dendrogram.labels_at_level(lv)
        for lv in range(bad.num_levels + 1)
    )


@pytest.fixture
def tiny_bench():
    from run import Bench
    from workloads import WORKLOADS

    bench = Bench(WORKLOADS["ooc-caveman"], 3, "tiny")
    yield bench
    bench.close()


def facade_output(bench, perturb=None):
    """What a repetition body returns, optionally with a perturbed dendrogram."""
    result = LinkClustering(bench.graph, config=bench.config).run()
    dendrogram = perturb(result.dendrogram) if perturb else result.dendrogram
    return {"dendrogram": dendrogram, "edge_index": result.edge_index,
            "density": result.best_partition()[2]}


def test_facade_output_passes(tiny_bench):
    assert tiny_bench.guarded(lambda: facade_output(tiny_bench))["ok"]


@pytest.mark.parametrize("perturb", PERTURBATIONS)
def test_perturbed_repetition_counts_as_failed(tiny_bench, perturb):
    failed = tiny_bench.guarded(lambda: facade_output(tiny_bench, perturb))
    assert not failed["ok"] and "digest" in failed["reason"]


def test_raise_leftover_file_and_live_thread_count_as_failed(tiny_bench):
    def boom():
        raise RuntimeError("boom")

    assert "raised" in tiny_bench.guarded(boom)["reason"]

    def leave_file():
        open(os.path.join(tiny_bench.storage_dir, "stray.bin"), "wb").close()
        return facade_output(tiny_bench)

    assert "storage_dir" in tiny_bench.guarded(leave_file)["reason"]
    assert not os.listdir(tiny_bench.storage_dir)

    release = threading.Event()
    worker = threading.Thread(target=release.wait, name="stray-worker")

    def leave_thread():
        worker.start()
        return facade_output(tiny_bench)

    try:
        assert "stray-worker" in tiny_bench.guarded(leave_thread)["reason"]
    finally:
        release.set()
        worker.join(timeout=5)
    assert not worker.is_alive()
