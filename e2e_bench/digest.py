"""Canonical per-level digest of a link-clustering dendrogram.

Engines record merges differently inside one level: the chained sweep
emits ``MERGE`` outcomes in processing order, while the batch, sharded
and parallel engines diff the partition before and after a chunk.  What
they must agree on is the partition at every level.  The digest names
each level by the groups of clusters it joins, every cluster named by
its smallest edge id just before the level, so two dendrograms have the
same digest exactly when every level merges the same clusters.

One pass over ``dendrogram.merges`` with a union-find keyed by edge id
computes it in O(levels + |E|) (times the inverse-Ackermann factor),
instead of replaying ``labels_at_level`` at every level, which is
O(levels x |E|).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.cluster.dendrogram import Dendrogram

__all__ = ["level_groups", "level_digest"]

Groups = Tuple[Tuple[int, ...], ...]


def level_groups(
    dendrogram: Dendrogram, edge_index: Sequence[int]
) -> Iterator[Tuple[int, Groups]]:
    """Yield ``(level, groups)`` for every level that has merges.

    ``groups`` is the sorted tuple of sorted tuples of the cluster
    minima (in edge-id space) that the level joins into one cluster.
    ``edge_index[eid]`` is the dendrogram leaf of edge ``eid``.
    """
    n = dendrogram.num_items
    edge_of = [0] * n
    for eid, leaf in enumerate(edge_index):
        edge_of[leaf] = eid
    parent = list(range(n))
    low = edge_of[:]  # smallest edge id of each root's cluster

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = dendrogram.merges
    i = 0
    while i < len(merges):
        level = merges[i].level
        j = i
        while j < len(merges) and merges[j].level == level:
            j += 1
        pairs = [(find(m.left), find(m.right)) for m in merges[i:j]]
        before = {root: low[root] for pair in pairs for root in pair}
        for a, b in pairs:
            a, b = find(a), find(b)
            if a != b:
                parent[b] = a
                low[a] = min(low[a], low[b])
        joined: Dict[int, List[int]] = {}
        for root, label in before.items():
            joined.setdefault(find(root), []).append(label)
        groups = tuple(sorted(tuple(sorted(g)) for g in joined.values() if len(g) > 1))
        yield level, groups
        i = j


def level_digest(dendrogram: Dendrogram, edge_index: Sequence[int]) -> str:
    """SHA-256 hex digest of :func:`level_groups` over all levels."""
    h = hashlib.sha256(f"items={dendrogram.num_items}\n".encode())
    for level, groups in level_groups(dendrogram, edge_index):
        h.update(f"{level}:{groups}\n".encode())
    return h.hexdigest()
