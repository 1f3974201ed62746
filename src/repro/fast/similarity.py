"""Vectorized Phase I: Algorithm 1 over flat numpy arrays.

Pure-Python wedge enumeration costs one dict operation per incident edge
pair (K2 of them) — the dominant cost of the initialization phase at
scale.  This module computes the same map columnar-natively:

* ``H1``/``H2`` are bincount reductions over the edge arrays;
* all wedges are enumerated per centre vertex with cached
  ``np.triu_indices`` templates, then grouped by vertex pair with one
  lexsort + segment-reduce (``np.add.reduceat``) — the grouped wedge
  products are exactly map ``M``'s accumulated dot products and the
  grouped witness columns are its common-neighbour lists;
* the adjacency correction ``(H1[i]+H1[j]) w_ij`` is a vectorized
  binary search over the sorted edge keys;
* the Tanimoto normalization is an elementwise array expression.

:func:`fast_similarity_columns` returns the result directly as a
:class:`~repro.core.simcolumns.SimilarityColumns` (the run's native
interchange format; ``to_similarity_map()`` converts to the dict
oracle).  It agrees with
:func:`repro.core.similarity.compute_similarity_map` up to
floating-point summation order; the test suite compares them with 1e-9
relative tolerance on every graph family.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.simcolumns import SimilarityColumns, _edge_key_table
from repro.errors import ClusteringError
from repro.graph.graph import Graph
from repro.obs import as_tracer

__all__ = ["adjacency_matrix", "fast_similarity_columns"]


def adjacency_matrix(graph: Graph) -> sp.csr_matrix:
    """Symmetric weighted adjacency matrix of ``graph`` (CSR)."""
    n = graph.num_vertices
    m = graph.num_edges
    rows = np.empty(2 * m, dtype=np.int64)
    cols = np.empty(2 * m, dtype=np.int64)
    data = np.empty(2 * m, dtype=np.float64)
    for eid, (u, v) in enumerate(graph.edge_pairs()):
        w = graph.edge_weight(eid)
        rows[2 * eid] = u
        cols[2 * eid] = v
        rows[2 * eid + 1] = v
        cols[2 * eid + 1] = u
        data[2 * eid] = w
        data[2 * eid + 1] = w
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    matrix.sort_indices()
    return matrix


# ----------------------------------------------------------------------
# columnar building blocks (shared with repro.parallel.par_init)
# ----------------------------------------------------------------------

# Degree -> (iu, ju) upper-triangle index template.  Distinct degrees are
# bounded by the graph's maximum degree, so the cache stays small; entries
# are immutable and writes idempotent (thread-safe by construction).
_TRIU_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _triu_template(d: int) -> Tuple[np.ndarray, np.ndarray]:
    template = _TRIU_CACHE.get(d)
    if template is None:
        template = np.triu_indices(d, k=1)
        _TRIU_CACHE[d] = template  # repro: noqa PAR101 (idempotent memo)
    return template


def _csr_arrays(graph: Graph) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency as plain arrays ``(indptr, indices, weights)``.

    Neighbour lists are sorted ascending within each row (matching the
    reference's ``sorted(graph.neighbors(i).items())`` enumeration).
    """
    n = graph.num_vertices
    m = graph.num_edges
    eu = np.empty(m, dtype=np.int64)
    ev = np.empty(m, dtype=np.int64)
    ew = np.empty(m, dtype=np.float64)
    for eid, (a, b) in enumerate(graph.edge_pairs()):
        eu[eid] = a
        ev[eid] = b
        ew[eid] = graph.edge_weight(eid)
    src = np.concatenate([eu, ev])
    dst = np.concatenate([ev, eu])
    wts = np.concatenate([ew, ew])
    order = np.lexsort((dst, src))
    indices = dst[order]
    weights = wts[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices, weights


def _h_arrays_columnar(
    indptr: np.ndarray, weights: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Pass 1 over the CSR arrays: ``H1`` and ``H2`` for all vertices."""
    degrees = np.diff(indptr)
    if len(weights):
        # reduceat rejects indices == len(weights); trailing degree-0
        # vertices produce exactly those, so pad one zero (the pad only
        # ever adds 0.0 to the last row's sum).  Degree-0 rows still
        # pick up a garbage single element — zeroed by the mask below.
        wpad = np.append(weights, 0.0)
        sums = np.add.reduceat(wpad, indptr[:-1])
        sq = np.add.reduceat(wpad * wpad, indptr[:-1])
    else:
        sums = np.zeros(len(degrees))
        sq = np.zeros(len(degrees))
    sums = np.where(degrees > 0, sums, 0.0)
    sq = np.where(degrees > 0, sq, 0.0)
    h1 = sums / np.maximum(degrees, 1)
    h2 = h1 * h1 + sq
    return h1, h2


def _wedge_columns(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    vertices: Optional[Sequence[int]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pass 2 (step one): every wedge centred on ``vertices`` as columns.

    Returns ``(u, v, k, wprod)`` with ``u < v`` the outer endpoints,
    ``k`` the centre, and ``wprod = w_uk * w_vk`` — one row per incident
    edge pair.  ``vertices`` restricts the centres (the parallel init's
    unit of work); ``None`` enumerates all of them.
    """
    iptr = indptr.tolist()
    if vertices is None:
        degrees = np.diff(indptr)
        centers = np.flatnonzero(degrees >= 2).tolist()
    else:
        centers = [k for k in vertices if iptr[k + 1] - iptr[k] >= 2]
    u_parts: List[np.ndarray] = []
    v_parts: List[np.ndarray] = []
    k_parts: List[np.ndarray] = []
    w_parts: List[np.ndarray] = []
    for k in centers:
        s, e = iptr[k], iptr[k + 1]
        nbrs = indices[s:e]
        wts = weights[s:e]
        iu, ju = _triu_template(e - s)
        u_parts.append(nbrs[iu])
        v_parts.append(nbrs[ju])
        k_parts.append(np.full(len(iu), k, dtype=np.int64))
        w_parts.append(wts[iu] * wts[ju])
    if not u_parts:
        empty_i = np.empty(0, dtype=np.int64)
        return empty_i, empty_i.copy(), empty_i.copy(), np.empty(0, dtype=np.float64)
    return (
        np.concatenate(u_parts),
        np.concatenate(v_parts),
        np.concatenate(k_parts),
        np.concatenate(w_parts),
    )


def _group_wedges(
    w_u: np.ndarray, w_v: np.ndarray, w_k: np.ndarray, w_prod: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pass 2 (step two): group wedges by vertex pair.

    Sort by (``u``, ``v``, centre ``k``) — so each pair's witnesses come
    out ascending, matching the reference's insertion order — plus one
    segment-reduce.  Every wedge key ``(u, v, k)`` is globally unique,
    so when the three components pack into one int64 a single unstable
    ``argsort`` on the packed key yields the exact same permutation as
    the three-pass stable lexsort at a fraction of the cost; the lexsort
    stays as the fallback for vertex counts too large to pack.  Returns
    ``(pair_u, pair_v, dots, offsets, commons)`` — the accumulated map
    ``M`` before the adjacency correction.
    """
    if len(w_u) == 0:
        empty_i = np.empty(0, dtype=np.int64)
        return (
            empty_i,
            empty_i.copy(),
            np.empty(0, dtype=np.float64),
            np.zeros(1, dtype=np.int64),
            empty_i.copy(),
        )
    hi = int(max(w_u.max(), w_v.max(), w_k.max())) + 1
    if hi**3 < 2**63:
        key = (w_u * hi + w_v) * hi + w_k
        order = np.argsort(key)
        key = key[order]
        w_prod = w_prod[order]
        pair_key = key // hi
        change = np.empty(len(key), dtype=bool)
        change[0] = True
        change[1:] = pair_key[1:] != pair_key[:-1]
        starts = np.flatnonzero(change)
        offsets = np.empty(len(starts) + 1, dtype=np.int64)
        offsets[:-1] = starts
        offsets[-1] = len(key)
        dots = np.add.reduceat(w_prod, starts)
        pk = pair_key[starts]
        return pk // hi, pk % hi, dots, offsets, key % hi
    order = np.lexsort((w_k, w_v, w_u))
    w_u = w_u[order]
    w_v = w_v[order]
    w_k = w_k[order]
    w_prod = w_prod[order]
    change = np.empty(len(w_u), dtype=bool)
    change[0] = True
    change[1:] = (w_u[1:] != w_u[:-1]) | (w_v[1:] != w_v[:-1])
    starts = np.flatnonzero(change)
    offsets = np.empty(len(starts) + 1, dtype=np.int64)
    offsets[:-1] = starts
    offsets[-1] = len(w_u)
    dots = np.add.reduceat(w_prod, starts)
    return w_u[starts], w_v[starts], dots, offsets, w_k


def _adjacency_weights(
    graph: Graph, pair_u: np.ndarray, pair_v: np.ndarray
) -> np.ndarray:
    """Edge weight of every pair that is also an edge, 0.0 elsewhere."""
    weights = np.zeros(len(pair_u), dtype=np.float64)
    m = graph.num_edges
    if m == 0 or len(pair_u) == 0:
        return weights
    sorted_keys, eids, n = _edge_key_table(graph)
    ew = np.empty(m, dtype=np.float64)
    for eid in range(m):
        ew[eid] = graph.edge_weight(eid)
    queries = pair_u * n + pair_v
    pos = np.searchsorted(sorted_keys, queries)
    pos_clipped = np.minimum(pos, len(sorted_keys) - 1)
    found = (pos < len(sorted_keys)) & (sorted_keys[pos_clipped] == queries)
    weights[found] = ew[eids[pos_clipped[found]]]
    return weights


def _tanimoto(
    h2: np.ndarray, pair_u: np.ndarray, pair_v: np.ndarray, dots: np.ndarray
) -> np.ndarray:
    """Final step: ``dot / (|a_i|^2 + |a_j|^2 - dot)``, denominator-checked."""
    denom = h2[pair_u] + h2[pair_v] - dots
    if np.any(denom <= 0.0):
        raise ClusteringError("non-positive Tanimoto denominator (bug)")
    return dots / denom


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------


def fast_similarity_columns(graph: Graph, tracer=None) -> SimilarityColumns:
    """Vectorized Algorithm 1 producing columnar output directly.

    ``tracer`` gets the same per-pass spans as the serial reference
    (``init:pass1`` .. ``init:finalize``).  Raises
    :class:`ClusteringError` on internal inconsistencies (they would
    indicate a bug, never valid input).
    """
    tracer = as_tracer(tracer)
    with tracer.span("init:pass1"):
        indptr, indices, weights = _csr_arrays(graph)
        h1, h2 = _h_arrays_columnar(indptr, weights)
    with tracer.span("init:pass2"):
        pair_u, pair_v, dots, offsets, commons = _group_wedges(
            *_wedge_columns(indptr, indices, weights)
        )
    with tracer.span("init:pass3"):
        dots = dots + (h1[pair_u] + h1[pair_v]) * _adjacency_weights(
            graph, pair_u, pair_v
        )
    with tracer.span("init:finalize"):
        sims = _tanimoto(h2, pair_u, pair_v, dots)
        return SimilarityColumns(
            u=pair_u,
            v=pair_v,
            sim=sims,
            common_offsets=offsets,
            common_neighbors=commons,
        )
