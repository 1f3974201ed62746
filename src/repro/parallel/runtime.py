"""Persistent parallel runtime for the coarse sweep (Section VI-B).

The paper starts its pthreads once and amortizes that cost over every
chunk of the run.  A :class:`SweepRuntime` does the same for this
reproduction: worker state (thread/process executors, or the
shared-memory arena) is created once per sweep — explicitly via
:meth:`SweepRuntime.start` or lazily on the first chunk — reused across
all chunks and epochs, and released by :meth:`SweepRuntime.shutdown`
(or a ``with`` statement).  The alternative, paying pool construction
and shared-block allocation per chunk, is what
``benchmarks/bench_parallel_runtime.py`` quantifies.

Two implementations cover the four backends:

* :class:`LocalSweepRuntime` — ``serial`` / ``thread`` / ``process``
  over :mod:`repro.parallel.pool`: per-chunk ``T`` private copies of
  array ``C``, one map call, hierarchical array merge (or, for the
  batch engine, one more contraction);
* :class:`ShmSweepRuntime` — the ``shm`` backend over
  :class:`repro.parallel.shm_sweep.ShmArena`: one resident ``T x n``
  shared block plus ``T`` resident worker processes, nothing but
  index ranges into the loaded pair columns crossing a queue.

The chained engine's :meth:`SweepRuntime.chunk_merge_range` takes and
returns the list-based :class:`~repro.cluster.unionfind.ChainArray`
(the paper oracle); the batch and sharded engines'
:meth:`~SweepRuntime.chunk_batch_range` /
:meth:`~SweepRuntime.chunk_sharded_range` take a chain array as an
int64 label array and return the next state as a fully compressed
label array — no list round trip per chunk.

Every runtime accumulates a :class:`RuntimeStats` breaking chunk cost
into spawn / copy / compute / merge time, which ``repro.bench``
(``repro.bench.parallel_runtime``) turns into result tables.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.unionfind import ChainArray
from repro.core.registry import backend_names, make_runtime
from repro.core.storage import PairFileSpec
from repro.errors import ParameterError
from repro.obs import NULL_TRACER
from repro.fast.batch_sweep import batch_components, batch_join_rows, compress_labels
from repro.parallel.merge_arrays import hierarchical_merge
from repro.parallel.partitioner import ShardedPartition, strided_partition
from repro.parallel.pool import ExecutionBackend, SerialBackend, get_backend
from repro.parallel.sharded_sweep import (
    ShardTask,
    sharded_components,
    solve_shard,
)
from repro.parallel.shm_sweep import ShmArena

__all__ = [
    "RuntimeStats",
    "SweepRuntime",
    "LocalSweepRuntime",
    "ShmSweepRuntime",
    "RuntimePool",
    "get_sweep_runtime",
    "SWEEP_BACKENDS",
]

SWEEP_BACKENDS = backend_names()


@dataclass
class RuntimeStats:
    """Per-sweep instrumentation: where chunk wall-clock goes.

    ``spawn_time`` — creating executors / arena workers / shared blocks;
    ``copy_time`` — duplicating array ``C`` for the workers (step 1);
    ``compute_time`` — workers running MERGE over their share;
    ``merge_time`` — combining the ``T`` results (step 2).
    All seconds, accumulated over ``chunks`` chunk calls dispatching
    ``tasks`` worker tasks.
    """

    backend: str = ""
    chunks: int = 0
    tasks: int = 0
    spawn_time: float = 0.0
    copy_time: float = 0.0
    compute_time: float = 0.0
    merge_time: float = 0.0

    @property
    def total_time(self) -> float:
        return self.spawn_time + self.copy_time + self.compute_time + self.merge_time

    def as_dict(self) -> Dict[str, Union[str, int, float]]:
        return {
            "backend": self.backend,
            "chunks": self.chunks,
            "tasks": self.tasks,
            "spawn_time": self.spawn_time,
            "copy_time": self.copy_time,
            "compute_time": self.compute_time,
            "merge_time": self.merge_time,
            "total_time": self.total_time,
        }


class SweepRuntime(ABC):
    """Long-lived worker state + the per-chunk merge operation.

    Lifecycle: ``start()`` (idempotent; chunk calls start lazily),
    ``shutdown()`` (idempotent), or a ``with`` statement.  After
    ``shutdown`` the runtime is reusable — the next chunk restarts it.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = RuntimeStats(backend=self.name)
        # Assigned by the driver (parallel_coarse_sweep) for the duration
        # of a sweep; per-chunk costs surface as ``runtime:*`` spans.
        self.tracer = NULL_TRACER
        # Columnar pair columns loaded once per sweep (load_pairs); range
        # chunks then reference [start, stop) windows instead of shipping
        # pair lists.  The token lets backends detect staleness.  When
        # the columns come from an out-of-core store, _pairs_file holds
        # the PairFileSpec and workers map the file themselves.
        self._pairs: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._pairs_file: Optional[PairFileSpec] = None
        self._pairs_token = 0
        # Vertex-ownership maps for the sharded engine, one per array
        # length seen (in practice one per sweep).
        self._shard_parts: Dict[int, ShardedPartition] = {}

    def _shard_partition(self, n: int) -> ShardedPartition:
        """The contiguous ownership map this runtime shards ``C`` by.

        One shard per worker (clamped to ``n``); cached per array
        length.  Results are shard-count-invariant, so the worker count
        only decides the fan-out width.
        """
        part = self._shard_parts.get(n)
        if part is None:
            workers = max(1, getattr(self, "num_workers", 1))
            part = ShardedPartition.build(n, workers)
            self._shard_parts[n] = part
        return part

    def start(self) -> "SweepRuntime":
        """Create worker state eagerly; returns self."""
        return self

    def shutdown(self) -> None:
        """Release worker state."""

    def __enter__(self) -> "SweepRuntime":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # columnar pair transport
    # ------------------------------------------------------------------
    def load_pairs(self, i1: np.ndarray, i2: np.ndarray) -> None:
        """Load the sweep's full K2 pair columns once.

        ``i1``/``i2`` are the array-``C`` indices of every wedge's two
        edges, in list-L order.  Subsequent ``chunk_*_range`` calls
        address ``[start, stop)`` windows of these columns, so per-chunk
        dispatch ships only two ints — and on the shm backend the
        columns are written into shared memory exactly once.
        """
        i1 = np.ascontiguousarray(i1, dtype=np.int64)
        i2 = np.ascontiguousarray(i2, dtype=np.int64)
        if i1.ndim != 1 or i1.shape != i2.shape:
            raise ParameterError(
                f"i1/i2 must be equal-length 1-D arrays, got shapes "
                f"{i1.shape}/{i2.shape}"
            )
        self._pairs = (i1, i2)
        self._pairs_file = None
        self._pairs_token += 1

    def load_pairs_file(self, spec: PairFileSpec) -> None:
        """Load the sweep's pair columns from an out-of-core pair file.

        Host-side code reads the columns through read-only memory maps;
        backends whose workers live in other processes ship the (small,
        picklable) ``spec`` instead of the arrays, so every worker maps
        the same file and the chunk data is shared through the kernel
        page cache — no per-run publish copy, no second shared block.
        """
        self._pairs = (spec.open_c1(), spec.open_c2())
        self._pairs_file = spec
        self._pairs_token += 1

    def _require_pairs(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._pairs is None:
            raise ParameterError(
                "chunk_merge_range requires load_pairs() to be called first"
            )
        i1, i2 = self._pairs
        if not (0 <= start <= stop <= len(i1)):
            raise ParameterError(
                f"pair range [{start}, {stop}) out of bounds for "
                f"{len(i1)} loaded pairs"
            )
        return i1, i2

    @abstractmethod
    def chunk_merge_range(
        self, chain: ChainArray, start: int, stop: int
    ) -> ChainArray:
        """MERGE the loaded pair columns' ``[start, stop)`` window.

        Starts from ``chain`` and returns the merged array (``chain``
        itself — unmodified — for an empty window); never mutates
        ``chain``.  Requires :meth:`load_pairs` (or
        :meth:`load_pairs_file`) first.
        """

    def _working_copies(self, labels: np.ndarray, k: int) -> List[np.ndarray]:
        """Step 1 for the label-array engines: ``k`` private copies of ``C``.

        Each copy is fully compressed and owned by one worker (or the
        host), which contracts in it in place; the caller's ``labels``
        is never written.  Timed as ``runtime:copy``.
        """
        t0 = time.perf_counter()
        first = compress_labels(labels)
        copies = [first] + [first.copy() for _ in range(k - 1)]
        dt = time.perf_counter() - t0
        self.stats.copy_time += dt
        self.tracer.record("runtime:copy", dt, copies=k)
        return copies

    def chunk_batch_range(
        self, labels: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Batch-engine counterpart of :meth:`chunk_merge_range`.

        Unions the loaded pair columns' ``[start, stop)`` window into
        the chain array ``labels`` (int64, ``labels[i] <= i``) with the
        vectorized connected-components kernel
        (:func:`repro.fast.batch_sweep.batch_components`) instead of
        sequential MERGE calls.  Returns the fully compressed labels of
        the join; never mutates ``labels`` and returns it unchanged for
        an empty window.  This baseline runs one in-process
        contraction; :class:`LocalSweepRuntime` and
        :class:`ShmSweepRuntime` override it with per-worker strided
        contractions plus a batch join.
        """
        i1, i2 = self._require_pairs(start, stop)
        self.stats.chunks += 1
        if start == stop:
            return labels
        (work,) = self._working_copies(labels, 1)
        t0 = time.perf_counter()
        after = batch_components(work, i1[start:stop], i2[start:stop], inplace=True)
        dt = time.perf_counter() - t0
        self.stats.compute_time += dt
        self.tracer.record("runtime:compute", dt, workers=1)
        return after

    def chunk_sharded_range(
        self,
        labels: np.ndarray,
        start: int,
        stop: int,
        defer_boundary: bool = False,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Sharded-engine counterpart of :meth:`chunk_merge_range`.

        Splits the window's live root pairs by contiguous vertex
        ownership, contracts each shard locally, and reconciles the
        deduplicated boundary pairs
        (:func:`repro.parallel.sharded_sweep.sharded_components`).
        Returns ``(labels', (deferred_a, deferred_b))`` with ``labels'``
        fully compressed (``labels`` itself, unmutated, for an empty
        window); the deferred arrays are empty unless
        ``defer_boundary`` is set, in which case the boundary pairs
        come back for the driver's epsilon machinery instead of being
        applied.  This baseline solves the shards sequentially in
        process; subclasses fan the shard tasks out to workers.
        """
        i1, i2 = self._require_pairs(start, stop)
        self.stats.chunks += 1
        if start == stop:
            return labels, (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        part = self._shard_partition(len(labels))
        (work,) = self._working_copies(labels, 1)
        t0 = time.perf_counter()
        merged, deferred, _stats = sharded_components(
            work,
            i1[start:stop],
            i2[start:stop],
            part,
            tracer=self.tracer,
            defer_boundary=defer_boundary,
            inplace=True,
        )
        dt = time.perf_counter() - t0
        self.stats.compute_time += dt
        self.tracer.record("runtime:compute", dt, workers=1)
        return merged, deferred

    def __repr__(self) -> str:
        return f"{type(self).__name__}(chunks={self.stats.chunks})"


def _merge_arrays_worker(
    chain: ChainArray, i1: np.ndarray, i2: np.ndarray
) -> ChainArray:
    """Run MERGE over parallel index arrays on a private copy of ``C``."""
    for a, b in zip(i1.tolist(), i2.tolist()):
        chain.merge(a, b)
    return chain


def _batch_merge_worker(
    labels: np.ndarray, i1: np.ndarray, i2: np.ndarray
) -> np.ndarray:
    """Batch-engine worker: one contraction over this worker's slice.

    ``labels`` is this worker's own compressed copy of array ``C``
    (made by the runtime's copy step); the contraction runs in it in
    place and the fully compressed label row comes back.
    """
    return batch_components(labels, i1, i2, inplace=True)


# Per-process cache of mapped pair-file columns, keyed by file path.  A
# pool worker services many chunks of the same sweep; mapping the file
# once per worker (not per task) keeps dispatch to a few ints.  One
# entry suffices — a new path means a new sweep, and the old file is
# gone (the store unlinks it on close).
_FILE_PAIR_CACHE: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}


def _file_pair_columns(spec: PairFileSpec) -> Tuple[np.ndarray, np.ndarray]:
    cached = _FILE_PAIR_CACHE.get(spec.path)
    if cached is None:
        _FILE_PAIR_CACHE.clear()  # repro: noqa PAR101 (per-process map cache — divergence between workers is the point)
        cached = (spec.open_c1(), spec.open_c2())
        _FILE_PAIR_CACHE[spec.path] = cached  # repro: noqa PAR101 (idempotent memo)
    return cached


def _merge_file_range_worker(
    chain: ChainArray, spec: PairFileSpec, start: int, stop: int, step: int
) -> ChainArray:
    """File-backed variant of :func:`_merge_arrays_worker`.

    The worker maps the pair file itself (cached per process) and runs
    MERGE over its strided slice — only the spec and three ints crossed
    the process boundary.
    """
    i1, i2 = _file_pair_columns(spec)
    return _merge_arrays_worker(chain, i1[start:stop:step], i2[start:stop:step])


def _batch_file_merge_worker(
    labels: np.ndarray, spec: PairFileSpec, start: int, stop: int, step: int
) -> np.ndarray:
    """File-backed variant of :func:`_batch_merge_worker`."""
    i1, i2 = _file_pair_columns(spec)
    return _batch_merge_worker(labels, i1[start:stop:step], i2[start:stop:step])


def _shard_local_worker(
    width: int, a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Sharded-engine worker: contract one owned slice's intra pairs.

    Receives only the shard's width and its local-coordinate pairs —
    no slice of array ``C`` crosses to the worker at all (the owned
    slice's state is fully determined by an identity relabel plus
    these pairs; see :func:`repro.parallel.sharded_sweep.solve_shard`).
    Returns the local labels and the worker-side seconds for the
    ``sweep:shard[s]`` span.
    """
    t0 = time.perf_counter()
    local = solve_shard(width, a, b)
    return local, time.perf_counter() - t0


class LocalSweepRuntime(SweepRuntime):
    """Chunk processing over a persistent pool backend.

    Step 1 copies array ``C`` once per busy worker and maps
    :func:`_merge_arrays_worker` over the copies; step 2 combines them
    with the corrected hierarchical array merge.  The pool itself
    (threads or processes) outlives the chunk: it is started once and
    reused.
    """

    def __init__(self, backend: Union[str, ExecutionBackend], num_workers: int = 2):
        if num_workers < 1:
            raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
        else:
            self.backend = get_backend(backend, num_workers)
        self.name = self.backend.name
        super().__init__()
        self.num_workers = num_workers
        self._spawns = 0
        # Hierarchical array merging re-pickles arrays on the process
        # backend; arrays already live in the parent after step 1, so the
        # combine step stays inline there.
        self._merge_backend = (
            self.backend if self.backend.name == "thread" else SerialBackend()
        )

    def start(self) -> "LocalSweepRuntime":
        was_running = getattr(self.backend, "running", True)
        t0 = time.perf_counter()
        self.backend.start()
        dt = time.perf_counter() - t0
        self.stats.spawn_time += dt
        if not was_running:
            # An actual pool (re-)spawn, not an idempotent no-op call.
            self.tracer.record("runtime:spawn", dt, backend=self.name)
            if self._spawns:
                self.tracer.count("worker_restarts")
            self._spawns += 1
        return self

    def shutdown(self) -> None:
        self.backend.shutdown()

    def _merge_on_copies(
        self,
        chain: ChainArray,
        fn: Callable[..., ChainArray],
        part_args: List[Tuple],
    ) -> ChainArray:
        """The two-step chunk recipe over per-worker argument tuples.

        Step 1: copy array ``C`` per busy worker and map ``fn`` over
        ``(copy, *args)``; step 2: hierarchical array merge.  Shared by
        the in-memory and file-backed range paths.
        """
        stats = self.stats
        # Spawn before the copy timer starts, so pool construction cost
        # lands in spawn_time only (it used to leak into copy_time when
        # the lazy start sat inside the copy window).
        self.start()
        tracer = self.tracer

        t0 = time.perf_counter()
        copies = [chain.copy() for _ in part_args]
        t1 = time.perf_counter()
        stats.copy_time += t1 - t0
        tracer.record("runtime:copy", t1 - t0, copies=len(part_args))

        merged = self.backend.map(
            fn, [(copy, *args) for copy, args in zip(copies, part_args)]
        )
        stats.tasks += len(part_args)
        t2 = time.perf_counter()
        stats.compute_time += t2 - t1
        tracer.record("runtime:compute", t2 - t1, workers=len(part_args))

        after = hierarchical_merge(list(merged), self._merge_backend, n=len(chain))
        t3 = time.perf_counter()
        stats.merge_time += t3 - t2
        tracer.record("runtime:merge", t3 - t2)
        return after

    def chunk_merge_range(
        self, chain: ChainArray, start: int, stop: int
    ) -> ChainArray:
        i1, i2 = self._require_pairs(start, stop)
        self.stats.chunks += 1
        if start == stop:
            return chain
        # Strided slices give item r of the window to worker r % k (the
        # paper's round-robin split) without materializing pair tuples;
        # strided_partition never yields an empty slice, so no idle
        # worker gets a degenerate task.
        parts = strided_partition(start, stop, self.num_workers)
        if self._pairs_file is not None and self.backend.name == "process":
            # File-backed pairs + process workers: ship the spec and the
            # stride, not the (pickled) column slices — each worker maps
            # the pair file once and pages in only its share.
            spec = self._pairs_file
            file_args = [(spec, p.start, p.stop, p.step) for p in parts]
            return self._merge_on_copies(chain, _merge_file_range_worker, file_args)
        part_args = [
            (i1[p.start : p.stop : p.step], i2[p.start : p.stop : p.step])
            for p in parts
        ]
        return self._merge_on_copies(chain, _merge_arrays_worker, part_args)

    def chunk_batch_range(
        self, labels: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Batch engine over the pool: strided contractions + batch join.

        Step 1 makes one compressed copy of ``C`` per busy worker
        (``runtime:copy``) and maps :func:`_batch_merge_worker` over the
        window's strided slices, each contracting its share in its own
        copy; step 2 joins the resulting label rows with one more
        contraction (:func:`repro.fast.batch_sweep.batch_join_rows`)
        instead of the pairwise chain-walk merge.
        """
        i1, i2 = self._require_pairs(start, stop)
        parts = strided_partition(start, stop, self.num_workers)
        if len(parts) <= 1:
            # One busy worker (or an empty window): dispatch buys
            # nothing; contract inline.
            return super().chunk_batch_range(labels, start, stop)
        self.stats.chunks += 1
        stats = self.stats
        self.start()
        tracer = self.tracer
        copies = self._working_copies(labels, len(parts))

        t1 = time.perf_counter()
        if self._pairs_file is not None and self.backend.name == "process":
            spec = self._pairs_file
            rows = self.backend.map(
                _batch_file_merge_worker,
                [(work, spec, p.start, p.stop, p.step)
                 for work, p in zip(copies, parts)],
            )
        else:
            rows = self.backend.map(
                _batch_merge_worker,
                [(work, i1[p.start : p.stop : p.step], i2[p.start : p.stop : p.step])
                 for work, p in zip(copies, parts)],
            )
        stats.tasks += len(parts)
        t2 = time.perf_counter()
        stats.compute_time += t2 - t1
        tracer.record("runtime:compute", t2 - t1, workers=len(parts))

        joined = batch_join_rows(list(rows), tracer=tracer)
        t3 = time.perf_counter()
        stats.merge_time += t3 - t2
        tracer.record("runtime:merge", t3 - t2)
        return joined

    def chunk_sharded_range(
        self,
        labels: np.ndarray,
        start: int,
        stop: int,
        defer_boundary: bool = False,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Sharded engine over the pool: owner-computes shard tasks.

        Classification and boundary reconciliation run on the host
        (cheap vectorized passes); the per-shard local contractions fan
        out over the pool as ``(width, local pairs)`` tasks.  Unlike
        :meth:`chunk_batch_range`, no worker ever receives (or returns)
        an n-sized array: task payloads and results are shard-width
        bounded, which is what drops the process backend's pickling
        traffic and every backend's resident footprint by ~T×.
        """
        if start == stop:
            return super().chunk_sharded_range(labels, start, stop)
        i1, i2 = self._require_pairs(start, stop)
        self.stats.chunks += 1
        stats = self.stats
        tracer = self.tracer
        part = self._shard_partition(len(labels))
        (work,) = self._working_copies(labels, 1)
        compute_cell = [0.0]
        busy_cell = [0]

        def solver(tasks: Sequence[ShardTask]) -> List[Tuple[np.ndarray, float]]:
            self.start()
            t0 = time.perf_counter()
            results = self.backend.map(
                _shard_local_worker,
                [(t.hi - t.lo, t.a - t.lo, t.b - t.lo) for t in tasks],
            )
            compute_cell[0] += time.perf_counter() - t0
            busy_cell[0] = len(tasks)
            stats.tasks += len(tasks)
            return list(results)

        t0 = time.perf_counter()
        merged, deferred, _stats = sharded_components(
            work,
            i1[start:stop],
            i2[start:stop],
            part,
            tracer=tracer,
            defer_boundary=defer_boundary,
            shard_solver=solver,
            inplace=True,
        )
        t1 = time.perf_counter()
        stats.compute_time += compute_cell[0]
        if busy_cell[0]:
            tracer.record("runtime:compute", compute_cell[0], workers=busy_cell[0])
        # Host-side classification, reconciliation, and relabel
        # composition are the combine step.
        host_dt = max(0.0, (t1 - t0) - compute_cell[0])
        stats.merge_time += host_dt
        tracer.record("runtime:merge", host_dt)
        return merged, deferred

    def __repr__(self) -> str:
        return (
            f"LocalSweepRuntime(backend={self.name!r}, "
            f"num_workers={self.num_workers}, chunks={self.stats.chunks})"
        )


class ShmSweepRuntime(SweepRuntime):
    """Chunk processing over the resident shared-memory arena.

    The arena (one ``T x n`` block + ``T`` worker processes) is sized to
    the first chunk's array length and kept for the whole sweep; see
    :class:`repro.parallel.shm_sweep.ShmArena`.
    """

    name = "shm"

    def __init__(self, num_workers: int = 2, n: int | None = None):
        if num_workers < 1:
            raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
        super().__init__()
        self.num_workers = num_workers
        self._arena: ShmArena | None = ShmArena(n, num_workers) if n is not None else None
        # Host-side copy cost (the chained engine's list -> ChainArray
        # materialization) that the arena cannot see; _sync_stats adds
        # it to the arena's own copy_time.
        self._host_copy_time = 0.0

    @property
    def arena(self) -> ShmArena | None:
        """The live arena (``None`` until the first sized use)."""
        return self._arena

    def _arena_for(self, n: int) -> ShmArena:
        if self._arena is not None and self._arena.n != n:
            # Array C's length is fixed for a sweep; a different n means
            # a new sweep over a different graph — re-size the arena.
            self._arena.shutdown()
            self._arena = None
            self.tracer.count("worker_restarts")
        if self._arena is None:
            self._arena = ShmArena(n, self.num_workers)
        return self._arena

    def start(self) -> "ShmSweepRuntime":
        if self._arena is not None:
            self._arena.start()
        return self

    def shutdown(self) -> None:
        if self._arena is not None:
            self._arena.shutdown()

    def _run_on_arena(self, call: Callable[[], Any]) -> Any:
        """Run one arena chunk call and surface its cost deltas.

        The arena times its own steps (workers run out-of-process); this
        chunk's contribution is the counter delta around ``call``, whose
        result is returned as is.
        """
        stats = self.stats
        before = (
            stats.spawn_time,
            stats.copy_time,
            stats.compute_time,
            stats.merge_time,
        )
        result = call()
        self._sync_stats()
        tracer = self.tracer
        spawn_dt = stats.spawn_time - before[0]
        if spawn_dt > 0.0:
            tracer.record("runtime:spawn", spawn_dt, backend=self.name)
        tracer.record("runtime:copy", stats.copy_time - before[1])
        tracer.record(
            "runtime:compute", stats.compute_time - before[2], workers=self.num_workers
        )
        tracer.record("runtime:merge", stats.merge_time - before[3])
        return result

    def _sync_pairs(self, arena: ShmArena, i1: np.ndarray, i2: np.ndarray) -> None:
        """Publish this sweep's pair columns to the arena if stale.

        First range chunk of a sweep (or after an arena re-size): array
        pairs are written into shared memory once; file-backed pairs
        hand the workers the spec instead — they map the pair file
        directly, so nothing K2-sized is copied or shared-block-backed.
        """
        if arena.pairs_token == self._pairs_token:
            return
        if self._pairs_file is not None:
            arena.load_pairs_file(self._pairs_file, token=self._pairs_token)
        else:
            arena.load_pairs(i1, i2, token=self._pairs_token)

    def chunk_merge_range(
        self, chain: ChainArray, start: int, stop: int
    ) -> ChainArray:
        i1, i2 = self._require_pairs(start, stop)
        if start == stop:
            self.stats.chunks += 1
            return chain
        arena = self._arena_for(len(chain))
        self._sync_pairs(arena, i1, i2)

        def call() -> ChainArray:
            merged = arena.chunk_merge_range(list(chain.raw()), start, stop)
            t0 = time.perf_counter()
            after = ChainArray(len(merged), _init=merged)
            self._host_copy_time += time.perf_counter() - t0
            return after

        return self._run_on_arena(call)

    def chunk_batch_range(
        self, labels: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Batch engine over the arena (``("batch_range", ...)`` tasks).

        Same shared-memory transport as :meth:`chunk_merge_range` —
        pair columns loaded once, only a range tuple per task — but
        each worker contracts its strided slice vectorized in place of
        its row, and the parent joins the rows with one batch
        contraction instead of the pairwise chain-walk merge.
        """
        i1, i2 = self._require_pairs(start, stop)
        if start == stop:
            self.stats.chunks += 1
            return labels
        arena = self._arena_for(len(labels))
        self._sync_pairs(arena, i1, i2)
        return self._run_on_arena(
            lambda: arena.chunk_batch_range(labels, start, stop)
        )

    def chunk_sharded_range(
        self,
        labels: np.ndarray,
        start: int,
        stop: int,
        defer_boundary: bool = False,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Sharded engine over the arena (owner-computes shard tasks).

        The arena keeps array ``C`` once in shared memory; each resident
        worker contracts and writes back only its owned vertex slice
        (:meth:`repro.parallel.shm_sweep.ShmArena.chunk_sharded_range`),
        so no per-worker n-sized copy exists on any path.  Boundary and
        reconciliation counters are surfaced as tracer counts per chunk.
        """
        i1, i2 = self._require_pairs(start, stop)
        if start == stop:
            self.stats.chunks += 1
            return labels, (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        arena = self._arena_for(len(labels))
        self._sync_pairs(arena, i1, i2)
        boundary_before = arena.boundary_edges
        rounds_before = arena.reconcile_rounds
        after, deferred = self._run_on_arena(
            lambda: arena.chunk_sharded_range(
                labels, start, stop, defer_boundary=defer_boundary
            )
        )
        tracer = self.tracer
        tracer.gauge("shard_bytes", arena.shard_bytes)
        boundary_delta = arena.boundary_edges - boundary_before
        if boundary_delta:
            tracer.count("boundary_edges", boundary_delta)
        rounds_delta = arena.reconcile_rounds - rounds_before
        if rounds_delta:
            tracer.count("reconcile_rounds", rounds_delta)
        return after, deferred

    def _sync_stats(self) -> None:
        """Mirror the arena's counters into this runtime's stats."""
        arena = self._arena
        if arena is None:
            return
        stats = self.stats
        stats.chunks = arena.chunks
        stats.tasks = arena.tasks
        stats.spawn_time = arena.spawn_time
        stats.copy_time = arena.copy_time + self._host_copy_time
        stats.compute_time = arena.compute_time
        stats.merge_time = arena.merge_time

    def __repr__(self) -> str:
        return (
            f"ShmSweepRuntime(num_workers={self.num_workers}, "
            f"chunks={self.stats.chunks})"
        )


class RuntimePool:
    """Keyed pool of warm :class:`SweepRuntime` instances.

    A long-lived caller (the serving daemon) leases a runtime per run
    instead of paying pool/arena construction every time: ``lease``
    returns an idle warm runtime for the ``(backend, num_workers)`` key
    or builds a fresh one, and ``release`` parks it again.  Releasing
    with ``healthy=False`` (after a :class:`~repro.errors.ParallelError`
    — a crashed worker, a poisoned arena) shuts the runtime down instead
    of recycling it, so one crashed job never contaminates the next.

    Leases are exclusive — a runtime is never handed to two callers at
    once — which is what makes the (individually non-thread-safe)
    runtimes safe to share across a worker fleet.  ``shutdown`` closes
    idle runtimes only; in-flight leases finish their run and are
    discarded on release.
    """

    def __init__(self, max_idle_per_key: int = 2):
        if max_idle_per_key < 1:
            raise ParameterError(
                f"max_idle_per_key must be >= 1, got {max_idle_per_key}"
            )
        self.max_idle_per_key = max_idle_per_key
        self._lock = threading.Lock()
        self._idle: Dict[Tuple[str, int], List[SweepRuntime]] = {}
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.discards = 0

    def lease(self, backend: str, num_workers: int, warm: bool = True) -> SweepRuntime:
        """An exclusive runtime for the key (idle one if available).

        ``warm`` starts a freshly-built runtime's workers immediately
        (instead of lazily on its first chunk), so the spawn cost lands
        here — outside any job's measured wall-clock.
        """
        key = (backend, num_workers)
        with self._lock:
            stack = self._idle.get(key)
            if stack:
                self.hits += 1
                return stack.pop()
            self.misses += 1
        runtime = make_runtime(backend, num_workers)
        if warm:
            runtime.start()
        return runtime

    def release(
        self, backend: str, num_workers: int, runtime: SweepRuntime,
        healthy: bool = True,
    ) -> None:
        """Return a leased runtime (park it warm, or discard on damage)."""
        key = (backend, num_workers)
        with self._lock:
            if healthy and not self._closed:
                stack = self._idle.setdefault(key, [])
                if len(stack) < self.max_idle_per_key:
                    stack.append(runtime)
                    return
            self.discards += 1
        runtime.shutdown()

    def warm(self, backend: str, num_workers: int) -> None:
        """Pre-build and park a started runtime for the key."""
        self.release(backend, num_workers, self.lease(backend, num_workers))

    def idle_count(self) -> int:
        with self._lock:
            return sum(len(stack) for stack in self._idle.values())

    def stats(self) -> Dict[str, int]:
        with self._lock:
            idle = sum(len(stack) for stack in self._idle.values())
            return {
                "hits": self.hits,
                "misses": self.misses,
                "discards": self.discards,
                "idle": idle,
            }

    def shutdown(self) -> None:
        """Close all idle runtimes; subsequent releases discard."""
        with self._lock:
            self._closed = True
            runtimes = [rt for stack in self._idle.values() for rt in stack]
            self._idle.clear()
        for runtime in runtimes:
            runtime.shutdown()

    def __enter__(self) -> "RuntimePool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"RuntimePool(hits={self.hits}, misses={self.misses}, "
            f"discards={self.discards}, idle={self.idle_count()})"
        )


def get_sweep_runtime(
    backend: Union[str, ExecutionBackend, SweepRuntime], num_workers: int = 2
) -> SweepRuntime:
    """Runtime factory for the parallel sweep backends.

    ``backend`` is a registered backend name (see
    :func:`repro.core.registry.backend_names` — ``"serial"``,
    ``"thread"``, ``"process"``, ``"shm"`` built in), an
    :class:`ExecutionBackend` instance (wrapped in a
    :class:`LocalSweepRuntime`), or an existing :class:`SweepRuntime`
    (returned unchanged, so callers can share one runtime across
    sweeps).  String names dispatch through the capability registry's
    per-backend runtime factories.
    """
    if isinstance(backend, SweepRuntime):
        return backend
    if isinstance(backend, ExecutionBackend):
        return LocalSweepRuntime(backend, num_workers)
    if isinstance(backend, str):
        return make_runtime(backend, num_workers)
    raise ParameterError(
        f"unknown sweep backend {backend!r}; expected one of {backend_names()} "
        "or a backend/runtime instance"
    )
