"""Deterministic makespan model of the multi-threaded algorithms.

The paper measures strong scaling on a 6-core Xeon (Figure 6).  The
measuring machine has 2 cores, so no executor can exhibit real 6-way
wall-clock speedup; instead this module *models* (extrapolates) the
parallel execution's critical path from first principles, using the
exact partitioning and
combining structure of Sections VI-A/VI-B:

* each thread's work is the sum of the costs of the items assigned to it
  by the same round-robin partitioner the real backends use;
* a parallel step's duration is the *maximum* over its threads (barrier
  semantics, as in the paper's join points);
* the hierarchical combine steps (map merge, array merge) are modeled
  iteration by iteration — these are the serialization sources that keep
  the measured speedups below linear (4.5-5.0 at six threads in the
  paper, not 6.0).

Costs are in abstract operation units with calibration constants exposed
as :class:`CostModel` fields; speedups (ratios) are insensitive to the
overall scale, which is why the *shape* of Figure 6 reproduces.  The
thread/process backends in :mod:`repro.parallel` verify the concurrent
code paths' correctness; this model supplies their performance curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.coarse import CoarseResult
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.parallel.partitioner import round_robin_partition

__all__ = ["CostModel", "InitWorkModel", "SweepWorkModel", "speedup_curve"]


@dataclass(frozen=True)
class CostModel:
    """Relative operation costs (abstract units).

    Defaults were calibrated once against serial timings of the pure-Python
    implementation; only ratios matter for speedups.
    """

    h_update: float = 1.0  # pass 1: one neighbour visit
    wedge: float = 1.5  # pass 2: one neighbour-pair map update
    map_insert: float = 1.2  # pass 2 step 2: moving one key between maps
    edge_adjust: float = 1.0  # pass 3: one edge lookup/update
    normalize: float = 0.8  # final Tanimoto per key (serial)
    merge_pair: float = 3.0  # sweeping: one MERGE call
    array_scan: float = 0.6  # sweeping: per-id cost of one array merge
    cluster_count: float = 0.2  # sweeping: per-id cost of counting clusters


def _tournament_iterations(k: int) -> List[int]:
    """Active-array counts at each parallel tournament iteration.

    Mirrors the paper's scheme: pair up while more than three remain.
    Returns the ``k`` value at the start of each *parallel* iteration;
    the trailing <= 3 arrays are merged serially by the caller's model.
    """
    iters = []
    while k > 3:
        iters.append(k)
        k = (k + 1) // 2
    return iters


class InitWorkModel:
    """Critical-path model of the parallel initialization phase.

    ``k1`` (the number of distinct vertex-pair keys in map ``M``) is
    computed from the graph when not supplied; the ratio ``K1 / K2``
    calibrates map sizes — in the paper's dense word-association graphs
    many wedges collide on one key, which is why the map-merge and
    normalization serial fractions stay small and six threads reach a
    4.5-5x speedup.
    """

    def __init__(
        self,
        graph: Graph,
        costs: Optional[CostModel] = None,
        k1: Optional[int] = None,
        scheme: str = "round_robin",
    ):
        self.costs = costs or CostModel()
        degrees = graph.degrees()
        c = self.costs
        # Per-vertex costs of pass 1 (neighbour scan) and pass 2 step 1
        # (wedge enumeration): d_i and d_i (d_i - 1) / 2 map updates.
        self.pass1_cost = [c.h_update * (d + 1) for d in degrees]
        self.pass2_cost = [c.wedge * d * (d - 1) / 2.0 for d in degrees]
        wedges = [d * (d - 1) / 2.0 for d in degrees]
        total_wedges = sum(wedges)
        if k1 is None:
            from repro.core.metrics import count_k1

            k1 = count_k1(graph)
        self.k1 = k1
        # Distinct-key fraction: wedges collide onto K1 keys globally.
        collision = k1 / total_wedges if total_wedges else 1.0
        self.map_size = [w * collision for w in wedges]
        # Pass 3 iterates edges, partitioned by first endpoint.
        first_counts: Dict[int, int] = {}
        for u, _ in graph.edge_pairs():
            first_counts[u] = first_counts.get(u, 0) + 1
        self.pass3_cost = [
            c.edge_adjust * first_counts.get(v, 0) for v in range(len(degrees))
        ]
        if scheme not in ("round_robin", "contiguous", "lpt"):
            raise ParameterError(f"unknown partition scheme {scheme!r}")
        self.scheme = scheme
        # Tanimoto normalization over the K1 keys: trivially data-parallel
        # (each key independent) — the paper's threads split it like pass
        # 3, so the model divides it across workers.  (The pure-Python
        # backend keeps it serial only because a Python dict merge would
        # cost as much as the computation itself.)
        self.normalize_total = c.normalize * k1

    def _parts(self, num_workers: int) -> List[List[int]]:
        vertices = range(len(self.pass1_cost))
        if self.scheme == "lpt":
            from repro.parallel.partitioner import lpt_partition

            return lpt_partition(
                list(vertices), num_workers, cost=lambda v: self.pass2_cost[v]
            )
        if self.scheme == "contiguous":
            from repro.parallel.partitioner import contiguous_partition

            return contiguous_partition(list(vertices), num_workers)
        return round_robin_partition(vertices, num_workers)

    def time(self, num_workers: int) -> float:
        """Modeled duration of the whole phase with ``num_workers``."""
        if num_workers < 1:
            raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
        c = self.costs
        parts = self._parts(num_workers)
        t_pass1 = max(sum(self.pass1_cost[v] for v in part) for part in parts)
        t_pass2a = max(sum(self.pass2_cost[v] for v in part) for part in parts)
        # Pass 2 step 2: tournament merge of per-worker maps.  Merging map
        # B into map A costs |B| inserts; pairs run concurrently.
        sizes = [float(sum(self.map_size[v] for v in part)) for part in parts]
        t_pass2b = 0.0
        active = [s for s in sizes if s > 0] or [0.0]
        while len(active) > 3:
            nxt: List[float] = []
            iter_cost = 0.0
            for idx in range(0, len(active) - 1, 2):
                iter_cost = max(iter_cost, c.map_insert * active[idx + 1])
                nxt.append(active[idx] + active[idx + 1])
            if len(active) % 2 == 1:
                nxt.append(active[-1])
            t_pass2b += iter_cost
            active = nxt
        for src in active[1:]:  # final serial fold
            t_pass2b += c.map_insert * src
        t_pass3 = max(sum(self.pass3_cost[v] for v in part) for part in parts)
        t_norm = self.normalize_total / num_workers
        return t_pass1 + t_pass2a + t_pass2b + t_pass3 + t_norm

    def speedup(self, num_workers: int) -> float:
        """Modeled strong-scaling speedup vs one worker."""
        return self.time(1) / self.time(num_workers)


class SweepWorkModel:
    """Critical-path model of parallel coarse-grained sweeping.

    Built from a *serial* coarse run's epoch trace: every processed epoch
    (committed or rolled back) contributes its incident-pair workload,
    partitioned over the workers, plus the per-epoch serialization — the
    hierarchical array merge (``O(|E|)`` per pairwise merge) and the
    cluster count at the boundary.  Reused epochs cost nothing, which is
    exactly their purpose.
    """

    def __init__(
        self,
        result: CoarseResult,
        num_edges: int,
        costs: Optional[CostModel] = None,
    ):
        self.costs = costs or CostModel()
        self.num_edges = num_edges
        self.epoch_pairs: List[int] = []
        safe_xi = 0
        for epoch in result.epochs:
            if epoch.kind == "reused":
                safe_xi = epoch.xi
                continue
            processed = epoch.xi - safe_xi
            if processed > 0:
                self.epoch_pairs.append(processed)
            if epoch.kind != "rollback":
                safe_xi = epoch.xi

    @classmethod
    def from_epoch_pairs(
        cls,
        epoch_pairs: Sequence[int],
        num_edges: int,
        costs: Optional[CostModel] = None,
    ) -> "SweepWorkModel":
        """Build the model from an explicit per-epoch workload trace.

        Lets the model be evaluated at scales no local run can produce —
        e.g. the paper's published statistics (|E| = 1.6M, tens of
        epochs over ~1e9 incident pairs), where per-epoch chunk work
        dwarfs the O(|E|) array-merge serialization and sweeping scales
        well.  See EXPERIMENTS.md, Figure 6(2).
        """
        model = cls.__new__(cls)
        model.costs = costs or CostModel()
        model.num_edges = num_edges
        model.epoch_pairs = [int(p) for p in epoch_pairs if p > 0]
        return model

    def time(self, num_workers: int) -> float:
        if num_workers < 1:
            raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
        c = self.costs
        n = self.num_edges
        # Per-epoch array-merge serialization: parallel tournament
        # iterations cost one scan each (pairs merge concurrently), the
        # final <= 3 arrays fold serially.
        merge_cost = 0.0
        k = num_workers
        while k > 3:
            merge_cost += c.array_scan * n
            k = (k + 1) // 2
        merge_cost += c.array_scan * n * max(0, k - 1)
        boundary_cost = c.cluster_count * n
        total = 0.0
        for pairs in self.epoch_pairs:
            span = math.ceil(pairs / num_workers)
            total += c.merge_pair * span + merge_cost + boundary_cost
        return total

    def speedup(self, num_workers: int) -> float:
        return self.time(1) / self.time(num_workers)


def speedup_curve(
    model: InitWorkModel | SweepWorkModel, workers: Sequence[int] = (1, 2, 4, 6)
) -> List[float]:
    """Speedups for a list of worker counts (Figure 6's x axis)."""
    return [model.speedup(t) for t in workers]
