"""Phase II of the serial algorithm: fine-grained sweeping (Algorithm 2).

The sweeping phase sorts the vertex pairs of map ``M`` by non-increasing
similarity into list ``L`` and then, for each pair ``(v_i, v_j)`` with
common neighbours ``l``, merges the clusters of edges ``(v_i, v_k)`` and
``(v_j, v_k)`` for every ``v_k`` on ``l`` using the chain-array ``MERGE``
procedure.  Each genuine merge (distinct cluster roots) bumps the level
counter ``r`` and emits the dendrogram record ``r: c1, c2 -> cmin``.

Edge ids in array ``C`` come from a permutation of the graph's edges (the
paper enumerates edges "in a random order"); pass ``edge_order`` to control
it, default is identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cluster.dendrogram import Dendrogram, DendrogramBuilder
from repro.cluster.unionfind import ChainArray
from repro.core.cancel import CancelToken
from repro.core.simcolumns import SimilarityColumns, wedge_edge_arrays
from repro.core.similarity import SimilarityMap, compute_similarity_map
from repro.errors import ClusteringError
from repro.graph.graph import Graph
from repro.obs import as_tracer

__all__ = ["SweepResult", "sweep", "build_edge_index"]

#: Minimum prefilter block of the columnar fine sweep, in wedges.  A
#: block spans ``max(FILTER_BLOCK, |E|)`` wedges, so the O(|E|) relabel
#: at each block start costs O(1) amortized per wedge.
FILTER_BLOCK = 16384


def build_edge_index(
    graph: Graph, edge_order: Optional[Sequence[int]] = None
) -> List[int]:
    """The map ``I``: edge id -> index in array ``C``.

    ``edge_order`` is a permutation with ``edge_order[eid]`` giving the
    index (as produced by :meth:`Graph.permuted_edge_ids`); identity when
    omitted.
    """
    n = graph.num_edges
    if edge_order is None:
        return list(range(n))
    if sorted(edge_order) != list(range(n)):
        raise ClusteringError(
            "edge_order must be a permutation of 0..num_edges-1"
        )
    return list(edge_order)


@dataclass
class SweepResult:
    """Everything the fine-grained sweep produces.

    Attributes
    ----------
    dendrogram:
        Merge records over edge *indices* (positions in array ``C``).
    chain:
        Final state of array ``C``.
    edge_index:
        The map ``I`` used: ``edge_index[eid]`` is the index in ``C``.
    num_levels:
        Final value of the level counter ``r`` (= number of merges).
    k1, k2:
        Vertex-pair and incident-edge-pair counts of the similarity map.
    per_merge_changes:
        When change recording was on: the number of array-``C`` value
        changes caused by each MERGE call, in processing order (one entry
        per incident edge pair, K2 total).  Basis of Figure 2(1).
    """

    dendrogram: Dendrogram
    chain: ChainArray
    edge_index: List[int]
    num_levels: int
    k1: int
    k2: int
    per_merge_changes: Optional[List[int]] = None

    def edge_labels(self) -> List[int]:
        """Final cluster label of every *edge id* (not index).

        Labels are canonical minimum indices within array ``C``.
        """
        return [self.chain.find(self.edge_index[eid])
                for eid in range(len(self.edge_index))]

    @property
    def num_clusters(self) -> int:
        return self.chain.num_clusters()


def sweep(
    graph: Graph,
    similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]] = None,
    edge_order: Optional[Sequence[int]] = None,
    record_changes: bool = False,
    tracer=None,
    cancel: Optional[CancelToken] = None,
) -> SweepResult:
    """Run Algorithm 2 (fine-grained sweeping) over ``graph``.

    Parameters
    ----------
    graph:
        The input graph.
    similarity_map:
        Phase-I output — dict :class:`SimilarityMap` or columnar
        :class:`SimilarityColumns`; computed on the fly (dict) when
        omitted.  Both forms yield identical merge records; the columnar
        path sorts and expands the K2 stream with vectorized kernels and
        replays only the wedges that can still merge (see
        :func:`_columnar_sweep`).
    edge_order:
        Optional permutation assigning array-``C`` indices to edges.
    record_changes:
        Track per-MERGE change counts on array ``C`` (Figure 2(1) data).
        Needs every MERGE call, so columnar input is converted to the
        dict form and runs the per-pair reference loop.
    tracer:
        Optional :class:`repro.obs.Tracer`; gets ``phase:sort`` and
        ``phase:sweep`` spans plus ``merges`` and ``wedges_replayed``
        counters.  Tracing sits outside the merge loop, so it costs
        nothing per pair.
    cancel:
        Optional :class:`~repro.core.cancel.CancelToken`; checked at
        every vertex pair (dict path) / every prefilter block (columnar
        path) and raises :class:`~repro.errors.RunCancelledError` when
        triggered.

    Returns
    -------
    :class:`SweepResult` with the dendrogram over edge indices.
    """
    tracer = as_tracer(tracer)
    if isinstance(similarity_map, SimilarityColumns):
        if not record_changes:
            return _columnar_sweep(graph, similarity_map, edge_order, tracer, cancel)
        similarity_map = similarity_map.to_similarity_map()
    sim = similarity_map if similarity_map is not None else compute_similarity_map(graph)
    with tracer.span("phase:sort", k1=sim.k1):
        pairs = sim.sorted_pairs()  # list L
    index = build_edge_index(graph, edge_order)
    chain = ChainArray(graph.num_edges)
    builder = DendrogramBuilder(graph.num_edges)
    per_merge: Optional[List[int]] = [] if record_changes else None

    r = 0
    with tracer.span("phase:sweep"):
        for similarity, (vi, vj), commons in pairs:
            if cancel is not None:
                cancel.raise_if_cancelled()
            for vk in commons:
                i1 = index[graph.edge_id(vi, vk)]
                i2 = index[graph.edge_id(vj, vk)]
                before = chain.changes
                outcome = chain.merge(i1, i2)
                if per_merge is not None:
                    per_merge.append(chain.changes - before)
                if outcome.merged:
                    r += 1
                    builder.record(
                        r, outcome.c1, outcome.c2, outcome.parent, similarity
                    )
    tracer.count("merges", r)
    tracer.count("wedges_replayed", sim.k2)

    return SweepResult(
        dendrogram=builder.build(),
        chain=chain,
        edge_index=index,
        num_levels=r,
        k1=sim.k1,
        k2=sim.k2,
        per_merge_changes=per_merge,
    )


def _columnar_sweep(
    graph: Graph,
    columns: SimilarityColumns,
    edge_order: Optional[Sequence[int]],
    tracer,
    cancel: Optional[CancelToken] = None,
) -> SweepResult:
    """Algorithm 2 over columnar input: same merges, filtered replay.

    The sort is one lexsort and the K2 wedge stream comes out as flat
    edge arrays.  The stream is cut into blocks; at each block start the
    labels of array ``C`` are read in bulk and every wedge whose two
    edges already share a cluster is dropped, since its MERGE could not
    merge (clusters only coarsen).  Only the survivors, a few percent
    of K2 on dense graphs, replay in order through the Python MERGE.
    Merge records equal the per-pair loop's because ``c1``, ``c2`` and
    ``parent`` are cluster minima; only the raw ``C`` values and the
    ``changes``/``accesses`` counters differ.
    """
    from repro.fast.batch_sweep import compress_labels

    with tracer.span("phase:sort", k1=columns.k1):
        columns = columns.sort_pairs()
    index = build_edge_index(graph, edge_order)
    chain = ChainArray(graph.num_edges)
    builder = DendrogramBuilder(graph.num_edges)

    e1, e2 = wedge_edge_arrays(graph, columns)
    index_arr = np.asarray(index, dtype=np.int64)
    sims = np.repeat(columns.sim, columns.pair_counts())
    block = max(FILTER_BLOCK, graph.num_edges)

    r = 0
    replayed = 0
    with tracer.span("phase:sweep"):
        for start in range(0, len(e1), block):
            if cancel is not None:
                cancel.raise_if_cancelled()
            labels = compress_labels(np.asarray(chain.raw()))
            i1 = index_arr[e1[start:start + block]]
            i2 = index_arr[e2[start:start + block]]
            live = np.flatnonzero(labels[i1] != labels[i2])
            replayed += len(live)
            for a, b, similarity in zip(
                i1[live].tolist(), i2[live].tolist(), sims[start + live].tolist()
            ):
                outcome = chain.merge(a, b)
                if outcome.merged:
                    r += 1
                    builder.record(
                        r, outcome.c1, outcome.c2, outcome.parent, similarity
                    )
    tracer.count("merges", r)
    tracer.count("wedges_replayed", replayed)

    return SweepResult(
        dendrogram=builder.build(),
        chain=chain,
        edge_index=index,
        num_levels=r,
        k1=columns.k1,
        k2=columns.k2,
    )
