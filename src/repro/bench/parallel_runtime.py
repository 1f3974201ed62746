"""Persistent-runtime benchmark: per-chunk spawning vs. resident workers.

The paper's pthreads are started once per run; Section VI-B's speedups
assume thread startup is amortized across every chunk.  This experiment
quantifies what the reproduction pays when it is *not*: the same
many-chunk workload is driven twice per backend —

* ``per_chunk``   — a fresh :class:`~repro.parallel.runtime.SweepRuntime`
  is started and shut down around every chunk (executor construction,
  process forks, and — for ``shm`` — shared-block allocate/unlink each
  time), which is what the pre-runtime code effectively did;
* ``persistent``  — one runtime serves all chunks (the paper's model).

The ``spawn`` / ``copy`` / ``compute`` / ``merge`` breakdown comes from
:class:`~repro.parallel.runtime.RuntimeStats`.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.runner import ResultTable
from repro.cluster.unionfind import ChainArray
from repro.errors import ParameterError
from repro.parallel.runtime import RuntimeStats, SweepRuntime, get_sweep_runtime

__all__ = ["load_chunk_workload", "make_chunk_workload", "runtime_spawn_comparison"]


def make_chunk_workload(
    n: int, num_chunks: int, pairs_per_chunk: int, seed: int = 0
) -> List[List[Tuple[int, int]]]:
    """A deterministic many-chunk merge workload over ``n`` array slots."""
    if n < 2:
        raise ParameterError(f"need n >= 2, got {n}")
    rng = random.Random(seed)
    return [
        [(rng.randrange(n), rng.randrange(n)) for _ in range(pairs_per_chunk)]
        for _ in range(num_chunks)
    ]


def load_chunk_workload(
    runtime: SweepRuntime, chunks: Sequence[Sequence[Tuple[int, int]]]
) -> List[Tuple[int, int]]:
    """Load ``chunks`` into ``runtime`` as one pair-column pair.

    Returns each chunk's ``[start, stop)`` range for
    :meth:`~repro.parallel.runtime.SweepRuntime.chunk_merge_range` —
    the same transport a coarse sweep uses.
    """
    flat = [pair for pairs in chunks for pair in pairs]
    cols = np.array(flat, dtype=np.int64).reshape(len(flat), 2)
    runtime.load_pairs(cols[:, 0], cols[:, 1])
    bounds = np.cumsum([0] + [len(pairs) for pairs in chunks]).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _drive(
    backend: str,
    num_workers: int,
    n: int,
    chunks: Sequence[Sequence[Tuple[int, int]]],
    persistent: bool,
) -> Tuple[float, RuntimeStats, List[int]]:
    """Apply ``chunks`` sequentially; return (wall seconds, stats, labels)."""
    stats = RuntimeStats(backend=backend)
    chain = ChainArray(n)
    start = time.perf_counter()
    if persistent:
        with get_sweep_runtime(backend, num_workers) as runtime:
            for lo, hi in load_chunk_workload(runtime, chunks):
                chain = runtime.chunk_merge_range(chain, lo, hi)
            stats = runtime.stats
    else:
        for pairs in chunks:
            with get_sweep_runtime(backend, num_workers) as runtime:
                ((lo, hi),) = load_chunk_workload(runtime, [pairs])
                chain = runtime.chunk_merge_range(chain, lo, hi)
                single = runtime.stats
            stats.chunks += single.chunks
            stats.tasks += single.tasks
            stats.spawn_time += single.spawn_time
            stats.copy_time += single.copy_time
            stats.compute_time += single.compute_time
            stats.merge_time += single.merge_time
    elapsed = time.perf_counter() - start
    return elapsed, stats, chain.labels()


def runtime_spawn_comparison(
    backends: Sequence[str] = ("thread", "process", "shm"),
    num_workers: int = 2,
    n: int = 2000,
    num_chunks: int = 12,
    pairs_per_chunk: int = 60,
    seed: int = 0,
) -> ResultTable:
    """Compare per-chunk runtime spawning against one persistent runtime.

    Every backend processes the identical workload both ways; rows
    report wall time, the spawn/copy/compute/merge split, the resulting
    speedup, and a cross-check that both strategies produced the same
    final partition.
    """
    chunks = make_chunk_workload(n, num_chunks, pairs_per_chunk, seed)
    table = ResultTable(
        "persistent runtime vs per-chunk spawning "
        f"(T={num_workers}, {num_chunks} chunks x {pairs_per_chunk} pairs, n={n})",
        [
            "backend",
            "strategy",
            "wall_s",
            "spawn_s",
            "copy_s",
            "compute_s",
            "merge_s",
            "speedup",
            "labels_match",
        ],
    )
    for backend in backends:
        results: Dict[str, Tuple[float, RuntimeStats, List[int]]] = {}
        for strategy, persistent in (("per_chunk", False), ("persistent", True)):
            results[strategy] = _drive(backend, num_workers, n, chunks, persistent)
        base_wall = results["per_chunk"][0]
        match = results["per_chunk"][2] == results["persistent"][2]
        for strategy in ("per_chunk", "persistent"):
            wall, stats, _ = results[strategy]
            table.add_row(
                backend=backend,
                strategy=strategy,
                wall_s=wall,
                spawn_s=stats.spawn_time,
                copy_s=stats.copy_time,
                compute_s=stats.compute_time,
                merge_s=stats.merge_time,
                speedup=base_wall / wall if wall else float("inf"),
                labels_match=match,
            )
    return table
