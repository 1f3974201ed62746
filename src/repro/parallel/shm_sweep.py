"""Shared-memory multiprocessing for the parallel sweeping step.

The thread backend shares array ``C`` copies for free but serializes on
the GIL; the plain process backend parallelizes but pickles every copy
of ``C`` across the boundary twice per chunk.  This module removes the
pickling: one ``multiprocessing.shared_memory`` block holds all ``T``
copies as rows of an int64 matrix, worker processes attach and run
MERGE over their row in place, and the parent combines rows with the
corrected array-merge scheme without any copy leaving shared memory.

Not even the edge-pair slices cross a queue:
:meth:`ShmArena.load_pairs` writes the sweep's sorted pair columns into
a second shared block *once per sweep*, and each chunk's task message
is a ``("range", ...)`` tuple naming the block plus a strided index
range — workers read their pairs straight from shared memory.

:class:`ShmArena` is the persistent realization of Section VI-B's
design (the paper starts its pthreads once per run): the block is
allocated once, the ``T`` workers are spawned once and stay resident
reading per-chunk tasks from queues, and every subsequent chunk pays
only the row refresh plus one queue round-trip.  A chunk with a single
busy worker runs inline in the parent (no IPC).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_mod
import time
from multiprocessing import resource_tracker, shared_memory
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.shm import NumpyChainArray
from repro.core.storage import PairFileSpec
from repro.errors import ParallelError, ParameterError
from repro.fast.batch_sweep import batch_components, batch_join_rows, compress_labels
from repro.parallel.merge_arrays import merge_chain_into
from repro.parallel.partitioner import ShardedPartition, strided_partition
from repro.parallel.sharded_sweep import (
    apply_relabels,
    dedupe_root_pairs,
    reconcile_labels,
    sharded_components,
)

__all__ = ["ShmArena", "describe_exitcode"]

# How long the parent waits between liveness checks while collecting
# chunk results, and how long shutdown waits for a worker to drain its
# sentinel before escalating to terminate().
_POLL_INTERVAL = 0.1
_JOIN_TIMEOUT = 5.0


def describe_exitcode(exitcode: Optional[int]) -> str:
    """Human-accurate description of a ``Process.exitcode``.

    Distinguishes the three states the old failure check conflated:
    ``None`` (never started / still running), a negative code (killed by
    a signal — e.g. the parent's own ``terminate()``, not a crash in the
    worker's code), and a positive code (the worker itself exited
    non-zero).
    """
    if exitcode is None:
        return "never started"
    if exitcode < 0:
        try:
            import signal

            name = signal.Signals(-exitcode).name
        except ValueError:
            name = f"signal {-exitcode}"
        return f"terminated by {name}"
    if exitcode == 0:
        return "exited cleanly"
    return f"crashed with exit code {exitcode}"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker registration.

    CPython < 3.13 registers every ``SharedMemory`` *attach* with the
    resource tracker.  Ownership stays with the creating parent, so a
    worker registration is always wrong: under ``spawn`` the worker's
    own tracker warns about (and re-unlinks) a "leaked" segment at
    worker exit; under ``fork`` the shared tracker's per-name entry gets
    removed by whichever process unregisters first, so the parent's
    ``unlink()`` then trips a tracker ``KeyError`` on a clean run.
    Python 3.13+ exposes ``track=False`` for exactly this; earlier
    versions need the registration call stubbed out for the duration of
    the attach (the documented workaround for bpo-39959).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:  # Python < 3.13: no track parameter
        pass
    original_register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


def _worker(
    shm_name: str,
    row: int,
    num_rows: int,
    n: int,
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Long-lived arena worker: MERGE each task's pairs on row ``row``.

    Attaches to the shared block once, then serves tasks until the
    ``None`` sentinel.  These task shapes are served:

    * a ``("range", name, capacity, offset, stop, stride)`` tuple: the
      worker lazily attaches to the named pairs block and merges the
      strided slice — no pair data on the queue;
    * a ``("batch_range", ...)`` tuple with the same fields (batch
      engine): the strided slice is contracted vectorized
      (:func:`repro.fast.batch_sweep.batch_components`) and the fully
      compressed labels written back into the worker's row;
    * ``("file_range", spec, offset, stop, stride)`` /
      ``("batch_file_range", ...)`` tuples (out-of-core columnar
      path): as above, but the pair columns come from the
      :class:`~repro.core.storage.PairFileSpec`'s memory-mapped pair
      file (mapped lazily, cached per worker) instead of a shared
      block — the kernel page cache shares the pages across workers;
    * a ``("shard_local", name, capacity, seg_start, seg_stop, lo, hi)``
      tuple (sharded engine): the worker owns vertex range ``[lo, hi)``
      of the labels in row 0 and contracts the owner-sorted intra-shard
      edge segment from the named edges block over *identity* labels of
      its shard width, writing ``local + lo`` into its slice of the rho
      row (row 1) — it never materializes an n-sized copy of ``C``;
    * a ``("shard_writeback", lo, hi)`` tuple: the owner relabels its
      slice of row 0 through the reconciled rho row (the right-hand
      side is fully gathered before the slice assignment, and owners
      write disjoint ranges, so the broadcast is race-free).

    The matrix is mapped in full (``num_rows`` x ``n``) because sharded
    tasks address rows 0/1 regardless of the worker's own row index.

    A failure while merging is reported to the parent through the
    result queue (the worker stays alive — its row is rewritten from
    ``base`` at the next chunk anyway).
    """
    block = _attach_untracked(shm_name)
    pairs_block: Optional[shared_memory.SharedMemory] = None
    pairs_name: Optional[str] = None
    edges_block: Optional[shared_memory.SharedMemory] = None
    edges_name: Optional[str] = None
    file_cols: Optional[Tuple[np.ndarray, np.ndarray]] = None
    file_path: Optional[str] = None
    try:
        matrix = np.ndarray((num_rows, n), dtype=np.int64, buffer=block.buf)
        row_view = matrix[row]
        while True:
            task = task_queue.get()
            if task is None:
                break
            try:
                chain = NumpyChainArray(n, buffer=row_view, initialized=True)
                if (
                    isinstance(task, tuple)
                    and task
                    and task[0] in ("range", "batch_range")
                ):
                    kind, name, capacity, offset, stop, stride = task
                    if pairs_name != name:
                        # A new sweep reloaded the pairs under a fresh
                        # block; drop the stale attachment first.
                        if pairs_block is not None:
                            pairs_block.close()
                            pairs_block = None
                        pairs_block = _attach_untracked(name)
                        pairs_name = name
                    pairs_mat = np.ndarray(
                        (2, capacity), dtype=np.int64, buffer=pairs_block.buf
                    )
                    if kind == "batch_range":
                        # The kernel reads the shared slices and copies
                        # internally; only the final labels touch this
                        # worker's own row.
                        matrix[row, :] = batch_components(
                            row_view,
                            pairs_mat[0, offset:stop:stride],
                            pairs_mat[1, offset:stop:stride],
                        )
                    else:
                        for i1, i2 in zip(
                            pairs_mat[0, offset:stop:stride].tolist(),
                            pairs_mat[1, offset:stop:stride].tolist(),
                        ):
                            chain.merge(i1, i2)
                elif (
                    isinstance(task, tuple)
                    and task
                    and task[0] in ("file_range", "batch_file_range")
                ):
                    kind, spec, offset, stop, stride = task
                    if file_path != spec.path:
                        # New sweep, new pair file: remap (dropping the
                        # old references unmaps the unlinked file).
                        file_cols = (spec.open_c1(), spec.open_c2())
                        file_path = spec.path
                    assert file_cols is not None
                    fi1, fi2 = file_cols
                    if kind == "batch_file_range":
                        matrix[row, :] = batch_components(
                            row_view,
                            fi1[offset:stop:stride],
                            fi2[offset:stop:stride],
                        )
                    else:
                        for i1, i2 in zip(
                            fi1[offset:stop:stride].tolist(),
                            fi2[offset:stop:stride].tolist(),
                        ):
                            chain.merge(i1, i2)
                elif (
                    isinstance(task, tuple)
                    and task
                    and task[0] == "shard_local"
                ):
                    kind, name, capacity, seg_start, seg_stop, lo, hi = task
                    if edges_name != name:
                        if edges_block is not None:
                            edges_block.close()
                            edges_block = None
                        edges_block = _attach_untracked(name)
                        edges_name = name
                    edges_mat = np.ndarray(
                        (2, capacity), dtype=np.int64, buffer=edges_block.buf
                    )
                    local = batch_components(
                        np.arange(hi - lo, dtype=np.int64),
                        edges_mat[0, seg_start:seg_stop] - lo,
                        edges_mat[1, seg_start:seg_stop] - lo,
                    )
                    matrix[1, lo:hi] = local + lo
                elif (
                    isinstance(task, tuple)
                    and task
                    and task[0] == "shard_writeback"
                ):
                    kind, lo, hi = task
                    matrix[0, lo:hi] = matrix[1][matrix[0, lo:hi]]
                else:
                    raise ParameterError(f"unknown arena task {task!r}")
            except Exception as exc:  # repro: noqa: COR001 — reported to the parent, which raises
                result_queue.put((row, f"{type(exc).__name__}: {exc}"))
            else:
                result_queue.put((row, None))
    finally:
        if pairs_block is not None:
            pairs_block.close()
        if edges_block is not None:
            edges_block.close()
        block.close()


class ShmArena:
    """Reusable shared-memory arena: one ``T x n`` block, ``T`` resident workers.

    Allocates a single shared block sized to ``num_workers`` rows of
    ``n`` int64s and keeps ``num_workers`` processes alive across chunk
    calls; per chunk, only the row refresh and a range tuple per worker
    are paid.  Lifecycle is explicit (:meth:`start`/:meth:`shutdown`)
    or managed (``with`` statement); chunk calls start lazily.

    Timing counters (``spawn_time``, ``copy_time``, ``compute_time``,
    ``merge_time``, plus ``chunks``/``tasks``) accumulate in seconds and
    feed the runtime instrumentation in :mod:`repro.parallel.runtime`.
    """

    def __init__(self, n: int, num_workers: int = 2):
        if n < 0:
            raise ParameterError(f"n must be >= 0, got {n}")
        if num_workers < 1:
            raise ParameterError(f"num_workers must be >= 1, got {num_workers}")
        self.n = n
        self.num_workers = num_workers
        self._ctx = multiprocessing.get_context()
        self._block: Optional[shared_memory.SharedMemory] = None
        self._matrix: Optional[np.ndarray] = None
        self._procs: List[Any] = []
        self._task_queues: List[Any] = []
        self._result_queue: Any = None
        self._pairs_block: Optional[shared_memory.SharedMemory] = None
        self._pairs_capacity = 0
        self._pairs_len = 0
        # File-backed pair columns (out-of-core store): workers map the
        # pair file named by this spec instead of a shared pairs block.
        self._pairs_file: Optional[PairFileSpec] = None
        # Scratch block for the sharded engine's owner-sorted intra
        # edges (grown on demand, reused across chunks).
        self._edges_block: Optional[shared_memory.SharedMemory] = None
        self._edges_capacity = 0
        self._shard_part: Optional[ShardedPartition] = None
        # The caller's arrays, kept for the inline (single-busy-worker)
        # path so it never touches the shared block's buffer directly.
        self._pairs_host: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Opaque staleness marker for the currently loaded pairs; None
        # means "nothing loaded".  Callers compare it against their own
        # token to decide whether load_pairs must run again.
        self.pairs_token: Optional[object] = None
        self.spawn_time = 0.0
        self.copy_time = 0.0
        self.compute_time = 0.0
        self.merge_time = 0.0
        self.chunks = 0
        self.tasks = 0
        self.pair_loads = 0
        self.range_tasks = 0
        self.batch_tasks = 0
        self.shard_tasks = 0
        self.boundary_edges = 0
        self.reconcile_rounds = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._block is not None

    def worker_pids(self) -> List[Optional[int]]:
        """PIDs of the resident workers (for reuse assertions in tests)."""
        return [proc.pid for proc in self._procs]

    def start(self) -> "ShmArena":
        """Allocate the block and spawn the resident workers; idempotent."""
        if self._block is not None:
            return self
        t0 = time.perf_counter()
        size = max(1, self.num_workers * self.n * 8)
        block = shared_memory.SharedMemory(create=True, size=size)
        try:
            self._matrix = np.ndarray(
                (self.num_workers, self.n), dtype=np.int64, buffer=block.buf
            )
            self._result_queue = self._ctx.Queue()
            for row in range(self.num_workers):
                task_queue = self._ctx.Queue()
                proc = self._ctx.Process(  # repro: noqa: PAR001 — resident worker; shutdown() joins/terminates on all paths
                    target=_worker,
                    args=(
                        block.name,
                        row,
                        self.num_workers,
                        self.n,
                        task_queue,
                        self._result_queue,
                    ),
                    daemon=True,
                )
                proc.start()
                self._task_queues.append(task_queue)
                self._procs.append(proc)
        except BaseException:
            self._block = block  # let shutdown() reap whatever started
            self.shutdown()
            raise
        self._block = block
        self.spawn_time += time.perf_counter() - t0
        return self

    def shutdown(self) -> None:
        """Stop the workers and release the block; idempotent."""
        block, self._block = self._block, None
        procs, self._procs = self._procs, []
        task_queues, self._task_queues = self._task_queues, []
        result_queue, self._result_queue = self._result_queue, None
        self._matrix = None
        try:
            for task_queue in task_queues:
                try:
                    task_queue.put(None)
                except (OSError, ValueError):
                    pass  # queue already broken; terminate below handles it
            for proc in procs:
                proc.join(timeout=_JOIN_TIMEOUT)
            for proc in procs:
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=_JOIN_TIMEOUT)
            for q in [result_queue, *task_queues]:
                if q is not None:
                    q.close()
                    q.join_thread()
        finally:
            try:
                if block is not None:
                    block.close()
                    block.unlink()
            finally:
                try:
                    self._release_pairs_block()
                finally:
                    self._release_edges_block()

    # ------------------------------------------------------------------
    # sorted-pair columns (columnar zero-copy path)
    # ------------------------------------------------------------------
    def load_pairs(
        self,
        i1: Sequence[int],
        i2: Sequence[int],
        token: Optional[object] = None,
    ) -> None:
        """Publish a sweep's sorted pair columns into shared memory.

        Called once per sweep (not per chunk): the two edge-index
        columns are written into a dedicated shared block that
        :meth:`chunk_merge_range` tasks reference by name, so chunk
        dispatch ships only a range tuple.  The block is grown on
        demand and reused across loads that fit; :meth:`shutdown`
        releases it.  ``token`` (any object) is stored as
        :attr:`pairs_token` so callers can detect staleness.
        """
        i1_arr = np.ascontiguousarray(i1, dtype=np.int64)
        i2_arr = np.ascontiguousarray(i2, dtype=np.int64)
        if i1_arr.ndim != 1 or i1_arr.shape != i2_arr.shape:
            raise ParameterError(
                "pair columns must be one-dimensional and of equal length, "
                f"got shapes {i1_arr.shape} and {i2_arr.shape}"
            )
        k2 = int(i1_arr.shape[0])
        t0 = time.perf_counter()
        if self._pairs_block is None or self._pairs_capacity < k2:
            self._release_pairs_block()
            capacity = max(1, k2)
            self._pairs_block = shared_memory.SharedMemory(
                create=True, size=2 * capacity * 8
            )
            self._pairs_capacity = capacity
        mat = np.ndarray(
            (2, self._pairs_capacity), dtype=np.int64, buffer=self._pairs_block.buf
        )
        mat[0, :k2] = i1_arr
        mat[1, :k2] = i2_arr
        del mat  # keep no view on the buffer past this call
        self.copy_time += time.perf_counter() - t0
        self._pairs_len = k2
        self._pairs_file = None
        self._pairs_host = (i1_arr, i2_arr)
        self.pairs_token = token if token is not None else object()
        self.pair_loads += 1

    def load_pairs_file(
        self, spec: PairFileSpec, token: Optional[object] = None
    ) -> None:
        """Publish a sweep's pair columns as an out-of-core pair file.

        The file-backed counterpart of :meth:`load_pairs`: nothing is
        written into shared memory at all.  Range tasks carry the
        (picklable) ``spec`` and every worker maps the pair file
        itself, so the columns are shared through the kernel page cache
        — no K2-sized shared block exists and no publish copy is paid.
        The host keeps its own read-only maps for the inline
        single-busy-worker and sharded-classification paths.
        """
        self._release_pairs_block()
        self._pairs_file = spec
        self._pairs_host = (spec.open_c1(), spec.open_c2())
        self._pairs_len = spec.k2
        self.pairs_token = token if token is not None else object()
        self.pair_loads += 1

    def _release_pairs_block(self) -> None:
        """Close and unlink the pairs block (if any); idempotent."""
        block, self._pairs_block = self._pairs_block, None
        self._pairs_capacity = 0
        self._pairs_len = 0
        self._pairs_host = None
        self._pairs_file = None
        self.pairs_token = None
        if block is not None:
            block.close()
            block.unlink()

    # ------------------------------------------------------------------
    # sharded-engine scratch (owner-sorted intra edges)
    # ------------------------------------------------------------------
    def _ensure_edges_block(self, k: int) -> shared_memory.SharedMemory:
        """Shared scratch for ``k`` intra-shard edge pairs (grown on demand)."""
        if self._edges_block is None or self._edges_capacity < k:
            self._release_edges_block()
            capacity = max(1, k)
            self._edges_block = shared_memory.SharedMemory(  # repro: noqa: SHM001 — reused across chunks; shutdown() releases it
                create=True, size=2 * capacity * 8
            )
            self._edges_capacity = capacity
        return self._edges_block

    def _release_edges_block(self) -> None:
        """Close and unlink the intra-edges scratch block; idempotent."""
        block, self._edges_block = self._edges_block, None
        self._edges_capacity = 0
        if block is not None:
            block.close()
            block.unlink()

    def shard_partition(self) -> ShardedPartition:
        """The owner-computes vertex partition this arena shards by."""
        if self._shard_part is None:
            self._shard_part = ShardedPartition.build(self.n, self.num_workers)
        return self._shard_part

    @property
    def shard_bytes(self) -> int:
        """Peak per-worker resident bytes of ``C`` under the sharded engine."""
        return self.shard_partition().max_width * 8

    def __enter__(self) -> "ShmArena":
        # Lazy: chunk calls start the workers only when a chunk really
        # needs them (empty/inline chunks never pay the spawn).
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "running" if self.running else "idle"
        return (
            f"ShmArena(n={self.n}, num_workers={self.num_workers}, "
            f"{state}, chunks={self.chunks})"
        )

    # ------------------------------------------------------------------
    # chunk processing
    # ------------------------------------------------------------------
    def chunk_merge_range(
        self, base: Sequence[int], start: int, stop: int
    ) -> List[int]:
        """Process pairs ``[start, stop)`` of the loaded columns.

        ``base`` is the current array ``C`` (length ``n``); returns the
        merged array after all pairs as a plain list — identical to
        serial processing (the join of the per-worker results).
        Requires a prior :meth:`load_pairs` (or :meth:`load_pairs_file`)
        and dispatches only ``("range", ...)`` tuples — worker ``r``
        merges the strided slice ``start + r :: num_workers``, which is
        exactly the round-robin partition of the range.
        """
        base_arr = np.asarray(base, dtype=np.int64)
        if base_arr.shape != (self.n,):
            raise ParameterError(
                f"base must be one-dimensional of length {self.n}, "
                f"got shape {base_arr.shape}"
            )
        if self._pairs_host is None:
            raise ParameterError(
                "no pair columns loaded — call load_pairs() before "
                "chunk_merge_range()"
            )
        if not (0 <= start <= stop <= self._pairs_len):
            raise ParameterError(
                f"pair range [{start}, {stop}) out of bounds for "
                f"{self._pairs_len} loaded pairs"
            )
        self.chunks += 1
        total = stop - start
        if total == 0 or self.n == 0:
            return base_arr.tolist()
        busy = min(self.num_workers, total)
        if busy == 1:
            # One busy worker: IPC buys nothing; merge inline off the
            # host copy of the columns.
            host_i1, host_i2 = self._pairs_host
            t0 = time.perf_counter()
            chain = NumpyChainArray(self.n, buffer=base_arr.copy(), initialized=True)
            for i1, i2 in zip(
                host_i1[start:stop].tolist(), host_i2[start:stop].tolist()
            ):
                chain.merge(i1, i2)
            self.compute_time += time.perf_counter() - t0
            return chain.raw().tolist()

        self.start()
        assert self._matrix is not None

        t0 = time.perf_counter()
        self._matrix[:busy] = base_arr
        self.copy_time += time.perf_counter() - t0

        t0 = time.perf_counter()
        for row in range(busy):
            if self._pairs_file is not None:
                task: Tuple[Any, ...] = (
                    "file_range",
                    self._pairs_file,
                    start + row,
                    stop,
                    self.num_workers,
                )
            else:
                assert self._pairs_block is not None
                task = (
                    "range",
                    self._pairs_block.name,
                    self._pairs_capacity,
                    start + row,
                    stop,
                    self.num_workers,
                )
            self._task_queues[row].put(task)
        self.tasks += busy
        self.range_tasks += busy
        self._collect(busy)
        self.compute_time += time.perf_counter() - t0

        return self._combine_rows(busy)

    def chunk_batch_range(
        self, base: np.ndarray, start: int, stop: int
    ) -> np.ndarray:
        """Batch-engine counterpart of :meth:`chunk_merge_range`.

        Worker ``r`` contracts its strided slice of pairs ``[start,
        stop)`` vectorized (:func:`repro.fast.batch_sweep.batch_components`)
        instead of walking the MERGE chain pair by pair, and the parent
        joins the resulting rows with one more vectorized contraction
        (:func:`repro.fast.batch_sweep.batch_join_rows`).  ``base`` is
        the current chain array as int64 labels (never mutated); returns
        a host label array — fully compressed and detached from shared
        memory — whose partition equals the chained result's (for an
        empty range, ``base`` itself as an int64 array).
        """
        base_arr = np.asarray(base, dtype=np.int64)
        if base_arr.shape != (self.n,):
            raise ParameterError(
                f"base must be one-dimensional of length {self.n}, "
                f"got shape {base_arr.shape}"
            )
        if self._pairs_host is None:
            raise ParameterError(
                "no pair columns loaded — call load_pairs() before "
                "chunk_batch_range()"
            )
        if not (0 <= start <= stop <= self._pairs_len):
            raise ParameterError(
                f"pair range [{start}, {stop}) out of bounds for "
                f"{self._pairs_len} loaded pairs"
            )
        self.chunks += 1
        total = stop - start
        if total == 0 or self.n == 0:
            return base_arr
        parts = strided_partition(start, stop, min(self.num_workers, total))
        busy = len(parts)
        if busy == 1:
            host_i1, host_i2 = self._pairs_host
            t0 = time.perf_counter()
            merged = batch_components(
                base_arr, host_i1[start:stop], host_i2[start:stop]
            )
            self.compute_time += time.perf_counter() - t0
            return merged

        self.start()
        assert self._matrix is not None

        t0 = time.perf_counter()
        self._matrix[:busy] = base_arr
        self.copy_time += time.perf_counter() - t0

        t0 = time.perf_counter()
        for row, part in enumerate(parts):
            if self._pairs_file is not None:
                task: Tuple[Any, ...] = (
                    "batch_file_range",
                    self._pairs_file,
                    part.start,
                    part.stop,
                    part.step,
                )
            else:
                assert self._pairs_block is not None
                task = (
                    "batch_range",
                    self._pairs_block.name,
                    self._pairs_capacity,
                    part.start,
                    part.stop,
                    part.step,
                )
            self._task_queues[row].put(task)
        self.tasks += busy
        self.batch_tasks += busy
        self._collect(busy)
        self.compute_time += time.perf_counter() - t0

        t0 = time.perf_counter()
        # The join contracts a fresh host copy of row 0, so the result
        # holds no view on the shared block.
        joined = batch_join_rows([self._matrix[row] for row in range(busy)])
        self.merge_time += time.perf_counter() - t0
        return joined

    def chunk_sharded_range(
        self,
        base: np.ndarray,
        start: int,
        stop: int,
        defer_boundary: bool = False,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Sharded-engine counterpart of :meth:`chunk_batch_range`.

        Owner-computes over the shared block: the compressed labels live
        *once* in matrix row 0 and the per-level relabel ``rho`` in row
        1; each worker owns a contiguous vertex range and writes only
        its ``[lo, hi)`` slice of row 1 (local contraction) and row 0
        (final write-back) — no worker ever materializes an n-sized
        private copy of ``C``, so per-worker resident bytes drop from
        ``8n`` to :attr:`shard_bytes`.  The host classifies the window's
        pairs, ships the owner-sorted intra segments through a reusable
        shared scratch block (names and offsets only on the queues),
        reconciles the deduplicated boundary cluster pairs on row 1,
        and the owners broadcast the final relabels back into row 0.

        Returns ``(labels, (deferred_a, deferred_b))``: the fully
        compressed labels as a host int64 array (for an empty range,
        ``base`` itself as an int64 array), plus the unapplied boundary
        cluster pairs —
        non-empty only with ``defer_boundary=True``.  Both are plain
        host arrays, detached from shared memory.
        """
        base_arr = np.asarray(base, dtype=np.int64)
        if base_arr.shape != (self.n,):
            raise ParameterError(
                f"base must be one-dimensional of length {self.n}, "
                f"got shape {base_arr.shape}"
            )
        if self._pairs_host is None:
            raise ParameterError(
                "no pair columns loaded — call load_pairs() before "
                "chunk_sharded_range()"
            )
        if not (0 <= start <= stop <= self._pairs_len):
            raise ParameterError(
                f"pair range [{start}, {stop}) out of bounds for "
                f"{self._pairs_len} loaded pairs"
            )
        self.chunks += 1
        empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        if stop - start == 0 or self.n == 0:
            return base_arr, empty
        host_i1, host_i2 = self._pairs_host
        part = self.shard_partition()
        if self.num_workers == 1 or part.num_shards < 2:
            # A single owner has nothing to shard across; run the pure
            # level in process (identical result, no IPC).
            t0 = time.perf_counter()
            merged, deferred, cstats = sharded_components(
                base_arr,
                host_i1[start:stop],
                host_i2[start:stop],
                part,
                defer_boundary=defer_boundary,
            )
            self.compute_time += time.perf_counter() - t0
            self.boundary_edges += cstats.boundary_edges
            self.reconcile_rounds += cstats.reconcile_rounds
            return merged, deferred

        self.start()
        assert self._matrix is not None

        # Host classification: one compressed gather over the window,
        # then the vectorized owner split (host-side join work).
        t0 = time.perf_counter()
        lab = compress_labels(base_arr)
        a = lab[host_i1[start:stop]]
        b = lab[host_i2[start:stop]]
        live = a != b
        a = a[live]
        b = b[live]
        if a.size == 0:
            self.merge_time += time.perf_counter() - t0
            return lab, empty
        cls = part.classify(a, b)
        self.merge_time += time.perf_counter() - t0

        # Publish the level's state: labels once (row 0), identity rho
        # (row 1), and the owner-sorted intra pairs in the scratch block.
        t0 = time.perf_counter()
        self._matrix[0, :] = lab
        self._matrix[1, :] = np.arange(self.n, dtype=np.int64)
        intra_count = int(cls.intra_a.size)
        edges_block = self._ensure_edges_block(intra_count)
        emat = np.ndarray(
            (2, self._edges_capacity), dtype=np.int64, buffer=edges_block.buf
        )
        emat[0, :intra_count] = cls.intra_a
        emat[1, :intra_count] = cls.intra_b
        del emat  # keep no view on the buffer past this call
        self.copy_time += time.perf_counter() - t0

        # Owner-computes: each busy shard contracts its intra segment
        # and writes its slice of rho.  Untouched shards stay identity.
        t0 = time.perf_counter()
        busy = 0
        for shard in range(part.num_shards):
            seg_start = int(cls.segments[shard])
            seg_stop = int(cls.segments[shard + 1])
            if seg_start == seg_stop:
                continue
            self._task_queues[busy].put(
                (
                    "shard_local",
                    edges_block.name,
                    self._edges_capacity,
                    seg_start,
                    seg_stop,
                    part.bounds[shard],
                    part.bounds[shard + 1],
                )
            )
            busy += 1
        if busy:
            self.tasks += busy
            self.shard_tasks += busy
            self._collect(busy)
        self.compute_time += time.perf_counter() - t0

        # Boundary-epoch reconciliation on the shared rho row (host).
        deferred = empty
        t0 = time.perf_counter()
        rho = self._matrix[1]
        if cls.boundary_a.size:
            ba = rho[cls.boundary_a]
            bb = rho[cls.boundary_b]
            blive = ba != bb
            ba = ba[blive]
            bb = bb[blive]
            if ba.size:
                ba, bb = dedupe_root_pairs(ba, bb, self.n)
                self.boundary_edges += int(ba.size)
                if defer_boundary:
                    deferred = (ba, bb)
                else:
                    keys, vals, rounds = reconcile_labels(ba, bb)
                    apply_relabels(rho, keys, vals)
                    self.reconcile_rounds += rounds
        self.merge_time += time.perf_counter() - t0

        # Owners broadcast the reconciled relabels back into row 0;
        # every shard's slice must pass through rho (identity included).
        t0 = time.perf_counter()
        for shard in range(part.num_shards):
            self._task_queues[shard].put(
                (
                    "shard_writeback",
                    part.bounds[shard],
                    part.bounds[shard + 1],
                )
            )
        self.tasks += part.num_shards
        self.shard_tasks += part.num_shards
        self._collect(part.num_shards)
        self.compute_time += time.perf_counter() - t0

        # Detach the result from the shared block.
        t0 = time.perf_counter()
        out = self._matrix[0].copy()
        self.copy_time += time.perf_counter() - t0
        return out, deferred

    def _combine_rows(self, t: int) -> List[int]:
        """Step 2: combine rows pairwise (corrected scheme) in the parent."""
        assert self._matrix is not None
        t0 = time.perf_counter()
        chains = [
            NumpyChainArray(self.n, buffer=self._matrix[row], initialized=True)
            for row in range(t)
        ]
        result = chains[0]
        for other in chains[1:]:
            merge_chain_into(result, other)
        out = result.raw().tolist()
        self.merge_time += time.perf_counter() - t0
        return out

    def _collect(self, t: int) -> None:
        """Wait for ``t`` per-row results, watching worker liveness."""
        pending = set(range(t))
        failures: List[Tuple[int, str]] = []
        while pending:
            try:
                row, error = self._result_queue.get(timeout=_POLL_INTERVAL)
            except queue_mod.Empty:
                self._check_alive(pending)
                continue
            pending.discard(row)
            if error is not None:
                failures.append((row, error))
        if failures:
            failures.sort()
            row, error = failures[0]
            detail = "; ".join(f"worker {r}: {e}" for r, e in failures)
            raise ParallelError(
                f"{len(failures)} shared-memory worker(s) failed — {detail}",
                worker=row,
            )

    def _check_alive(self, pending: "set[int]") -> None:
        """Raise if a worker owing a result has died (we would wait forever)."""
        dead = [
            row for row in sorted(pending) if not self._procs[row].is_alive()
        ]
        if not dead:
            return
        detail = "; ".join(
            f"worker {row}: {describe_exitcode(self._procs[row].exitcode)}"
            for row in dead
        )
        # The arena cannot serve further chunks with dead rows; reap
        # everything (and the block) before surfacing the failure.
        self.shutdown()
        raise ParallelError(
            f"{len(dead)} shared-memory worker(s) died before replying — {detail}",
            worker=dead[0],
        )

