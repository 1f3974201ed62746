"""The columnar run path agrees with the paper reference, on every backend.

List L reaches every sweep as columns; the dict map of Algorithm 1 is
the paper reference.  For the same graph, the columnar runs must
produce the reference's dendrogram — per-level cluster counts and final
edge labels — on the serial driver and on every parallel backend
(thread / process / shm).  A dict map handed to ``coarse_sweep`` is
converted to columns on entry, so ``coarse_sweep(g,
compute_similarity_map(g))`` is the coarse reference.
"""

from __future__ import annotations

import pytest

from repro.cluster.validation import same_partition
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.config import RunConfig
from repro.core.linkclust import LinkClustering
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.obs import MemorySink, Tracer

BACKENDS = ["serial", "thread", "process", "shm"]

GRAPH_FAMILIES = {
    "triangle": lambda: generators.complete_graph(3),
    "complete": lambda: generators.complete_graph(
        7, weight=generators.random_weights(seed=2)
    ),
    "caveman": lambda: generators.caveman_graph(
        3, 5, weight=generators.random_weights(seed=11)
    ),
    "planted": lambda: generators.planted_partition(3, 6, 0.9, 0.08, seed=5),
    "erdos_renyi": lambda: generators.erdos_renyi(25, 0.2, seed=3),
    "star": lambda: generators.star_graph(8),
    "grid": lambda: generators.grid_graph(4, 4),
    "disjoint": lambda: generators.disjoint_edges(4),
}


def level_signature(dendrogram):
    """Per-level cluster counts plus the final labels' partition."""
    counts = []
    for level in range(dendrogram.num_levels + 1):
        labels = dendrogram.labels_at_level(level)
        counts.append(len(set(labels)))
    return counts


def assert_same_dendrogram(a, b):
    assert a.num_levels == b.num_levels
    assert level_signature(a) == level_signature(b)
    for level in range(a.num_levels + 1):
        assert same_partition(a.labels_at_level(level), b.labels_at_level(level))


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
class TestFineSweepEquivalence:
    def test_dict_and_columnar_merges_identical(self, family):
        g = GRAPH_FAMILIES[family]()
        dict_result = sweep(g, compute_similarity_map(g))
        col_result = sweep(g, fast_similarity_columns(g))
        # The serial fine sweep consumes the exact same ordered wedge
        # stream either way, so the merge records match one for one
        # (similarities up to summation-order rounding in Phase I).
        assert len(dict_result.dendrogram.merges) == len(col_result.dendrogram.merges)
        for a, b in zip(
            dict_result.dendrogram.merges, col_result.dendrogram.merges
        ):
            assert (a.level, a.left, a.right, a.parent) == (
                b.level,
                b.left,
                b.right,
                b.parent,
            )
            assert a.similarity == pytest.approx(b.similarity, rel=1e-12)
        assert list(dict_result.chain.raw()) == list(col_result.chain.raw())
        assert dict_result.k1 == col_result.k1
        assert dict_result.k2 == col_result.k2


@pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
class TestCoarseSweepEquivalence:
    def test_dict_and_columnar_epochs_identical(self, family):
        g = GRAPH_FAMILIES[family]()
        params = CoarseParams(gamma=2.0, phi=10, delta0=6.0)
        dict_result = coarse_sweep(g, compute_similarity_map(g), params=params)
        col_result = coarse_sweep(g, fast_similarity_columns(g), params=params)
        assert [e.kind for e in dict_result.epochs] == [
            e.kind for e in col_result.epochs
        ]
        assert_same_dendrogram(dict_result.dendrogram, col_result.dendrogram)


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrossBackendDeterminism:
    def test_columnar_matches_dict_on_backend(self, backend):
        g = generators.caveman_graph(3, 5, weight=generators.random_weights(seed=11))
        params = CoarseParams(gamma=2.0, phi=10, delta0=6.0)
        workers = 1 if backend == "serial" else 3
        config = RunConfig(
            backend=backend,
            num_workers=workers,
            coarse=params,
            pairs_format="columnar",
        )
        result = LinkClustering(g, config=config).run()
        reference = coarse_sweep(g, compute_similarity_map(g), params=params)
        assert_same_dendrogram(reference.dendrogram, result.dendrogram)
        assert result.pairs_format == "columnar"


class TestAutoDispatch:
    def test_invalid_format_rejected(self, triangle):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            LinkClustering(triangle, pairs_format="parquet")

    @pytest.mark.parametrize("fmt", ["dict", "auto"])
    def test_removed_formats_rejected(self, triangle, fmt):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError, match="pairs_format must be one of"):
            LinkClustering(triangle, pairs_format=fmt)


class TestObservability:
    def run_traced(self, graph, fmt):
        sink = MemorySink()
        result = LinkClustering(
            graph, pairs_format=fmt, tracer=Tracer([sink])
        ).run()
        return result, sink

    def test_pairs_format_event_emitted(self, weighted_caveman):
        _result, sink = self.run_traced(weighted_caveman, "columnar")
        events = [e for e in sink.events if e.name == "run:pairs_format"]
        assert len(events) == 1
        assert events[0].attrs == {"format": "columnar"}

    def test_span_names_identical_across_formats(self, weighted_caveman):
        names = {}
        for fmt in ("columnar", "mmap"):
            sink = MemorySink()
            LinkClustering(
                weighted_caveman,
                config=RunConfig(
                    coarse=True, backend="thread", num_workers=2, pairs_format=fmt
                ),
                tracer=Tracer([sink]),
            ).run()
            names[fmt] = set(sink.span_names())
        # Both backings report through the same span vocabulary the
        # dashboards consume; the out-of-core store only adds storage:*.
        assert names["columnar"] == {
            n for n in names["mmap"] if not n.startswith("storage:")
        }
        for name in ("init:pass1", "init:pass3", "phase:sort", "phase:sweep"):
            assert name in names["columnar"]

    def test_result_to_dict_reports_format(self, weighted_caveman):
        result, _sink = self.run_traced(weighted_caveman, "columnar")
        assert result.to_dict()["pairs_format"] == "columnar"
