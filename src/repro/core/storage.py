"""Out-of-core pair store: the storage abstraction over the pair columns.

The sweep's input — list ``L`` — is the sorted pair columns plus the
K2-long wedge edge-id stream.  ROADMAP item 2 asks for that data to be
bounded by *disk*, not RAM.  This module provides the abstraction:

* :class:`PairStore` — what the coarse sweep consumes: the sorted
  ``sim``/``u``/``v`` columns, the CSR ``offsets``, and the ``c1``/``c2``
  merge stream (edge indices into array ``C``), plus bounded *window*
  access for streaming consumers.
* :class:`InMemoryPairStore` — today's behaviour, wrapping
  :meth:`~repro.core.simcolumns.SimilarityColumns.sort_pairs` and
  :func:`~repro.core.simcolumns.wedge_edge_arrays`.  This is the oracle:
  every other store must be bitwise-identical to it at every dendrogram
  level.
* :class:`MmapPairStore` — the out-of-core store.  All six columns live
  in one flat binary file under a run-scoped spill directory, accessed
  through read-only :class:`numpy.memmap` views.  When
  ``memory_budget_bytes`` is smaller than the pair data, the build
  spills budget-sized *sorted runs* to disk and an external k-way merge
  (keyed ``(-sim, u, v)``, a strict total order because ``(u, v)`` is
  unique) produces the globally sorted file without materializing all
  of K2 in RAM.  The merge output is exactly the one-lexsort order —
  ties included — so the store is bitwise-identical to the oracle.

Two build paths produce byte-identical files:

* :meth:`MmapPairStore.build` starts from a materialized
  :class:`SimilarityColumns` (the parallel drivers' path — their hosts
  already ran vectorized Phase I).  Its sorted runs go back to back
  into one ``runs.bin``; the merge reads each through a bounded buffer
  refilled by ``os.pread`` on that file's one descriptor.
* :meth:`MmapPairStore.build_streaming` starts from the *graph* and
  never holds a K2-sized array.  It runs in four steps over
  budget-bounded centre chunks, each wedge enumerated as a pair of
  CSR slots (``repro.fast.similarity._wedge_slots``):

  1. *Pair table.*  Each chunk's distinct ``u * n + v`` keys that the
     table lacks wait in a buffer, folded into the sorted table by one
     sort only once the buffer outgrows ``max(chunk cap, len(table))``.
  2. *Spill.*  Each chunk becomes one run of interleaved
     ``(rank, c1, c2, wprod)`` int64 records (``wprod`` as float64
     bits), stably sorted by pair rank and appended to one shared
     ``wedges.runs``.  Edge ids come from the slots
     (``index_arr[slot_eid[s]]``), with no edge-key search.
  3. *Merge.*  Runs are merged window by window in rank order; a run is
     read (one ``pread`` per refill) only when its head rank falls in
     the window.  Each pair's dot product is one ``np.add.reduceat``
     over its contiguous wedge slice, which reproduces the oracle's
     summation bit for bit (``reduceat`` group sums are a function of
     the group slice alone).  The grouped ``(c1, c2)`` stream goes to
     ``wedges.tmp``.
  4. *Assembly.*  Pass 3 and the final ``(-sim, u, v)`` sort run on K1
     arrays; then each bounded window of final-order pairs is gathered
     from ``wedges.tmp`` with one ``pread`` per pair into one buffer,
     deinterleaved once, and written to the ``c1``/``c2`` sections.

  Resident memory stays O(K1 + |E| + budget): the table, per-pair
  counts and dots, the CSR arrays, budget-sized chunk and window
  arrays, and one read buffer per run (the budget split across runs,
  at least 8 KiB each).  Both builds keep a constant number of files
  open, whatever the run count.  This is the serial mmap pipeline's
  init.

The single-file layout (``pairs.bin``) is::

    sim      float64[k1]
    u        int64[k1]
    v        int64[k1]
    offsets  int64[k1 + 1]
    c1       int64[k2]
    c2       int64[k2]

:class:`PairFileSpec` carries the path and section byte offsets; it is
picklable, so parallel runtimes ship it to workers which map the file
directly — zero-copy page-cache sharing in place of a second shared
memory block and its per-run publish copy.

Observability: building a spilled store emits one ``storage:spill``
span per run (``spill_runs`` / ``bytes_spilled`` counters) and one
``storage:merge`` span; the streaming build adds ``storage:table`` (CSR
build and pair-table pass) and ``storage:assemble`` (pass 3 and the
final file write), so its ``storage:*`` spans cover its whole build.
Every bounded window fetch is a ``storage:window`` span
(``window_loads`` counter); both stores gauge ``store_bytes``.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import shutil
import tempfile
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.core.cancel import CancelToken
from repro.core.simcolumns import (
    SimilarityColumns,
    _edge_key_table,
    _lookup_edge_ids,
    wedge_edge_arrays,
)
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.obs import as_tracer

__all__ = [
    "DEFAULT_WINDOW_BYTES",
    "InMemoryPairStore",
    "MmapPairStore",
    "PairFileSpec",
    "PairStore",
    "StorageSettings",
    "make_pair_store",
]

_F8 = 8  # bytes per float64 / int64 element
# One wedge costs 16 bytes in the stream (c1 + c2).
_WEDGE_BYTES = 2 * _F8
# One pair costs sim + u + v + its offsets slot.
_PAIR_BYTES = 4 * _F8

#: Window size used for streaming reads when no budget bounds it.
DEFAULT_WINDOW_BYTES = 4 * 1024 * 1024

_MIN_WINDOW_BYTES = 64 * 1024

# Smallest per-run read buffer of a merge: a budget split across very
# many runs still reads whole pages, not single records.
_MIN_RUN_BUFFER_BYTES = 8 * 1024


@dataclasses.dataclass(frozen=True)
class StorageSettings:
    """How the sweep's pair store is materialized.

    ``kind`` is ``"memory"`` (default: plain arrays) or ``"mmap"`` (the
    out-of-core store).  ``storage_dir`` roots the run-scoped spill
    directory (system temp dir when ``None``); ``memory_budget_bytes``
    caps how much pair data the mmap build holds in RAM at once — when
    the pair data exceeds it, sorted runs spill to disk and are
    external-merged.  ``None`` means "sort in memory, store on disk"
    (no spill).
    """

    kind: str = "memory"
    storage_dir: Optional[str] = None
    memory_budget_bytes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("memory", "mmap"):
            raise ParameterError(
                f"storage kind must be 'memory' or 'mmap', got {self.kind!r}"
            )
        budget = self.memory_budget_bytes
        if budget is not None and (
            isinstance(budget, bool) or not isinstance(budget, int) or budget < 1
        ):
            raise ParameterError(
                f"memory_budget_bytes must be a positive int, got {budget!r}"
            )


@dataclasses.dataclass(frozen=True)
class PairFileSpec:
    """Path + section byte offsets of one ``pairs.bin`` (picklable).

    Workers re-map the file from this spec alone; the helpers return
    fresh read-only views whose lifetime is the caller's (dropping the
    reference unmaps — :class:`numpy.memmap` has no ``close``).
    """

    path: str
    k1: int
    k2: int

    @property
    def sim_offset(self) -> int:
        return 0

    @property
    def u_offset(self) -> int:
        return self.k1 * _F8

    @property
    def v_offset(self) -> int:
        return 2 * self.k1 * _F8

    @property
    def offsets_offset(self) -> int:
        return 3 * self.k1 * _F8

    @property
    def c1_offset(self) -> int:
        return (4 * self.k1 + 1) * _F8

    @property
    def c2_offset(self) -> int:
        return (4 * self.k1 + 1 + self.k2) * _F8

    @property
    def total_bytes(self) -> int:
        return (4 * self.k1 + 1 + 2 * self.k2) * _F8

    def open_sim(self) -> np.ndarray:
        return _map_f64(self.path, self.sim_offset, self.k1)

    def open_u(self) -> np.ndarray:
        return _map_i64(self.path, self.u_offset, self.k1)

    def open_v(self) -> np.ndarray:
        return _map_i64(self.path, self.v_offset, self.k1)

    def open_offsets(self) -> np.ndarray:
        return _map_i64(self.path, self.offsets_offset, self.k1 + 1)

    def open_c1(self) -> np.ndarray:
        return _map_i64(self.path, self.c1_offset, self.k2)

    def open_c2(self) -> np.ndarray:
        return _map_i64(self.path, self.c2_offset, self.k2)


def _map_i64(path: str, offset: int, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return np.memmap(path, dtype=np.int64, mode="r", offset=offset, shape=(count,))


def _map_f64(path: str, offset: int, count: int) -> np.ndarray:
    if count == 0:
        return np.empty(0, dtype=np.float64)
    return np.memmap(path, dtype=np.float64, mode="r", offset=offset, shape=(count,))


class PairStore:
    """List ``L`` plus its K2 merge stream, behind one access surface.

    Attributes are parallel array-likes: ``sims``/``us``/``vs`` (K1,
    sorted non-increasing by similarity, ties by ``(u, v)``),
    ``offsets`` (K1 + 1 CSR row starts into the wedge stream), and
    ``c1``/``c2`` (K2 edge indices into array ``C``).  ``streaming``
    stores bound their resident set; consumers honour it by reading
    through :meth:`window` / :meth:`pair_block_end` instead of slicing
    whole chunks.
    """

    kind: str = "memory"
    streaming: bool = False

    k1: int
    k2: int
    sims: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    offsets: np.ndarray
    c1: np.ndarray
    c2: np.ndarray

    @property
    def num_pairs(self) -> int:
        return self.k1

    @property
    def store_bytes(self) -> int:
        raise NotImplementedError

    def window(self, w0: int, w1: int) -> Tuple[np.ndarray, np.ndarray]:
        """The wedge stream slice ``[w0, w1)`` as two arrays."""
        raise NotImplementedError

    def window_ranges(self, w0: int, w1: int) -> Iterator[Tuple[int, int]]:
        """Split ``[w0, w1)`` into store-bounded sub-windows."""
        raise NotImplementedError

    def pair_block_end(self, start: int, stop: int) -> int:
        """Largest ``end`` in ``(start, stop]`` whose wedges fit one window."""
        raise NotImplementedError

    def file_spec(self) -> Optional[PairFileSpec]:
        """The backing file for worker-side mapping (None if memory-only)."""
        return None

    def close(self) -> None:
        """Release resources (idempotent); spill directories are removed."""


class InMemoryPairStore(PairStore):
    """The oracle: sorted columns + wedge stream as plain arrays."""

    kind = "memory"
    streaming = False

    def __init__(
        self,
        sorted_columns: SimilarityColumns,
        c1: np.ndarray,
        c2: np.ndarray,
        tracer=None,
    ):
        tracer = as_tracer(tracer)
        self.k1 = sorted_columns.k1
        self.k2 = sorted_columns.k2
        self.sims = sorted_columns.sim
        self.us = sorted_columns.u
        self.vs = sorted_columns.v
        self.offsets = sorted_columns.common_offsets
        self.c1 = c1
        self.c2 = c2
        tracer.gauge("store_bytes", self.store_bytes)

    @classmethod
    def build(
        cls,
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        tracer=None,
    ) -> "InMemoryPairStore":
        sorted_columns = columns.sort_pairs()
        e1, e2 = wedge_edge_arrays(graph, sorted_columns)
        c1 = index_arr[e1] if len(e1) else e1
        c2 = index_arr[e2] if len(e2) else e2
        return cls(sorted_columns, c1, c2, tracer=tracer)

    @property
    def store_bytes(self) -> int:
        return (
            self.sims.nbytes
            + self.us.nbytes
            + self.vs.nbytes
            + self.offsets.nbytes
            + self.c1.nbytes
            + self.c2.nbytes
        )

    def window(self, w0: int, w1: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.c1[w0:w1], self.c2[w0:w1]

    def window_ranges(self, w0: int, w1: int) -> Iterator[Tuple[int, int]]:
        if w1 > w0:
            yield w0, w1

    def pair_block_end(self, start: int, stop: int) -> int:
        return stop


class _RunFile:
    """One spilled sorted run: a segment of the build's shared run file.

    The segment holds the ``pairs.bin`` layout over the run's own k1/k2
    from byte ``base``.  The merge reads it through a bounded buffer of
    pairs (heads and wedge slices) that :meth:`head` refills with
    ``os.pread`` on the one descriptor all runs share — no per-run file
    or map stays open, whatever the run count.
    """

    def __init__(self, base: int, k1: int, k2: int):
        self.base = base
        self.k1 = k1
        self.spec = PairFileSpec(path="", k1=k1, k2=k2)
        self.pos = 0  # next pair to emit
        self._lo = self._hi = 0  # the buffer holds pairs [_lo, _hi)

    def _read(
        self, fd: int, section: int, first: int, count: int, dtype=np.int64
    ) -> np.ndarray:
        return _pread_array(fd, self.base + section + first * _F8, count, dtype)

    def _refill(self, fd: int, buffer_bytes: int) -> None:
        spec = self.spec
        lo = self.pos
        hi = min(self.k1, lo + max(1, buffer_bytes // _PAIR_BYTES))
        off = self._read(fd, spec.offsets_offset, lo, hi - lo + 1)
        # Whole pairs whose wedges fit the buffer (at least one pair).
        fit = np.searchsorted(off, off[0] + buffer_bytes // _WEDGE_BYTES, "right")
        hi = lo + max(1, min(hi - lo, int(fit) - 1))
        self.sim = self._read(fd, spec.sim_offset, lo, hi - lo, np.float64)
        self.u = self._read(fd, spec.u_offset, lo, hi - lo)
        self.v = self._read(fd, spec.v_offset, lo, hi - lo)
        w0, w1 = int(off[0]), int(off[hi - lo])
        self.offsets = off[: hi - lo + 1] - w0
        self.c1 = self._read(fd, spec.c1_offset, w0, w1 - w0)
        self.c2 = self._read(fd, spec.c2_offset, w0, w1 - w0)
        self._lo, self._hi = lo, hi

    def head(self, fd: int, buffer_bytes: int) -> int:
        """Buffer index of the next pair, refilling the buffer if spent."""
        if self.pos >= self._hi:
            self._refill(fd, buffer_bytes)
        return self.pos - self._lo

    def key(self, fd: int, buffer_bytes: int) -> Tuple[float, int, int]:
        at = self.head(fd, buffer_bytes)
        return (-float(self.sim[at]), int(self.u[at]), int(self.v[at]))


def _pread_exact(fd: int, nbytes: int, offset: int) -> bytes:
    """Exactly ``nbytes`` at byte ``offset`` of ``fd`` (one ``pread``)."""
    data = os.pread(fd, nbytes, offset) if nbytes else b""
    if len(data) != nbytes:
        raise OSError(f"short read from spill file: {len(data)} of {nbytes} bytes")
    return data


def _pread_array(fd: int, offset: int, count: int, dtype) -> np.ndarray:
    """``count`` 8-byte elements of ``dtype`` at byte ``offset`` of ``fd``."""
    return np.frombuffer(_pread_exact(fd, count * _F8, offset), dtype=dtype)


class _SectionWriter:
    """Buffered writer for one section of ``pairs.bin``.

    Appends go into an in-RAM buffer that is flushed with ``seek`` +
    ``write`` once it exceeds the flush threshold, so building the file
    never maps it — the output pages live in the kernel page cache, not
    in this process's resident set.
    """

    def __init__(self, handle, base: int, dtype, flush_elems: int = 1 << 16):
        self._handle = handle
        self._base = base
        self._dtype = dtype
        self._flush_elems = flush_elems
        self._written = 0
        self._chunks: List[np.ndarray] = []
        self._buffered = 0

    def append(self, values: np.ndarray) -> None:
        if len(values) == 0:
            return
        self._chunks.append(np.ascontiguousarray(values, dtype=self._dtype))
        self._buffered += len(values)
        if self._buffered >= self._flush_elems:
            self.flush()

    def append_scalar(self, value) -> None:
        self.append(np.array([value], dtype=self._dtype))

    def flush(self) -> None:
        if not self._chunks:
            return
        data = np.concatenate(self._chunks)
        self._handle.seek(self._base + self._written * data.itemsize)
        self._handle.write(data.tobytes())
        self._written += len(data)
        self._chunks = []
        self._buffered = 0


# Streaming-build wedge record: ``(rank, c1, c2, wprod)`` as four int64
# words (``wprod``'s float64 bits in the last), interleaved one record
# per wedge so a reader refill is one contiguous read.
_RECORD_WORDS = 4
_STREAM_RECORD_BYTES = _RECORD_WORDS * _F8


def _stream_cap(budget: Optional[int]) -> int:
    """Wedges one streaming step may hold: each buffered wedge costs ~2x
    its record during a sort, so ``budget / (2 * record)``."""
    effective = budget if budget is not None else 16 * DEFAULT_WINDOW_BYTES
    # Floor of 16 wedges: tiny test budgets still get multi-chunk spills
    # without degenerating into one run per wedge.
    return max(16, effective // (2 * _STREAM_RECORD_BYTES))


def _center_chunks(indptr: np.ndarray, cap: int) -> List[List[int]]:
    """Partition wedge centres into enumeration chunks of <= ``cap`` wedges.

    A centre of degree ``d`` contributes ``d * (d - 1) / 2`` wedges.
    Every chunk holds at least one centre (a single high-degree centre
    may exceed the cap — the same way a single pair can exceed a run
    budget in the columns path).
    """
    degrees = np.diff(indptr)
    centers = np.flatnonzero(degrees >= 2)
    if len(centers) == 0:
        return []
    wedge_counts = (degrees[centers] * (degrees[centers] - 1)) // 2
    chunks: List[List[int]] = []
    current: List[int] = []
    spent = 0
    for center, wedges in zip(centers.tolist(), wedge_counts.tolist()):
        if current and spent + wedges > cap:
            chunks.append(current)
            current = []
            spent = 0
        current.append(center)
        spent += wedges
    if current:
        chunks.append(current)
    return chunks


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct ``keys`` by one sort and one compare.

    Same result as ``np.unique``, whose hash-based path in NumPy 2 is
    more than 10x slower on these int64 key arrays.
    """
    keys = np.sort(keys)
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


def _pair_table(
    indptr: np.ndarray,
    indices: np.ndarray,
    chunks: List[List[int]],
    n: int,
    cap: int,
    cancel: Optional[CancelToken],
) -> np.ndarray:
    """The global pair table: sorted unique ``u * n + v`` wedge keys.

    Each chunk's unique keys wait in a buffer that is folded into the
    table (one sort of table + buffer) only once it outgrows
    ``max(cap, len(table))`` — amortized O(K1 log K1) per doubling
    instead of a full re-sort per chunk, and at most ~2x K1 resident.
    """
    from repro.fast.similarity import _wedge_slots

    table = np.empty(0, dtype=np.int64)
    pending: List[np.ndarray] = []
    buffered = 0
    for chunk in chunks:
        if cancel is not None:
            cancel.raise_if_cancelled()
        _centers, lead, fan, s2 = _wedge_slots(indptr, chunk)
        keys = _sorted_unique(np.repeat(indices[lead] * n, fan) + indices[s2])
        if len(table):
            # Keys the table already holds need no buffering.
            pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
            keys = keys[table[pos] != keys]
        pending.append(keys)
        buffered += len(keys)
        if buffered > max(cap, len(table)):
            table = _sorted_unique(np.concatenate([table, *pending]))
            pending = []
            buffered = 0
    if pending:
        table = _sorted_unique(np.concatenate([table, *pending]))
    return table


def _window_end(offsets: np.ndarray, p0: int, elems: int) -> int:
    """End of the pair window starting at ``p0``: whole pairs whose
    wedges fit ``elems`` (at least one pair)."""
    j = int(np.searchsorted(offsets, int(offsets[p0]) + elems, side="right"))
    return min(len(offsets) - 1, max(p0 + 1, j - 1))


def _group_starts(rank: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in non-empty ``rank``."""
    change = np.empty(len(rank), dtype=bool)
    change[0] = True
    np.not_equal(rank[1:], rank[:-1], out=change[1:])
    return np.flatnonzero(change)


# Head rank of a fully read wedge run: past every merge window.
_EXHAUSTED = np.iinfo(np.int64).max


class _WedgeRunReader:
    """Sequential reader over one spilled wedge run (rank-sorted).

    Every run of a build is a segment of one spill file, starting at
    record ``base``.  A refill is one ``os.pread`` of whole records on
    the shared descriptor into a bounded buffer — the run is never
    mapped and holds no descriptor of its own, so open files stay
    constant in the run count and merge-time residency stays at the
    buffer size.  ``head`` is the rank of the next unread record, or
    ``_EXHAUSTED`` (the merge skips runs whose head lies beyond its
    window).
    """

    def __init__(self, base: int, count: int, head: int):
        self.base = base
        self.count = count
        self.head = head
        self._read = 0  # records fetched from disk
        self._records = np.empty((0, _RECORD_WORDS), dtype=np.int64)
        self._rank = np.empty(0, dtype=np.int64)
        self._at = 0  # consumed prefix of the buffer

    def _refill(self, fd: int, buffer_records: int) -> bool:
        take = min(buffer_records, self.count - self._read)
        if take <= 0:
            return False
        offset = (self.base + self._read) * _STREAM_RECORD_BYTES
        self._records = _pread_array(
            fd, offset, take * _RECORD_WORDS, np.int64
        ).reshape(take, _RECORD_WORDS)
        self._rank = np.ascontiguousarray(self._records[:, 0])
        self._read += take
        self._at = 0
        return True

    def pull(self, fd: int, rank_limit: int, buffer_records: int) -> List[np.ndarray]:
        """All remaining records with ``rank < rank_limit``, in order,
        refilling ``buffer_records`` at a time."""
        parts: List[np.ndarray] = []
        while True:
            if self._at >= len(self._rank) and not self._refill(fd, buffer_records):
                self.head = _EXHAUSTED
                break
            stop = self._at + int(
                np.searchsorted(self._rank[self._at :], rank_limit, side="left")
            )
            if stop > self._at:
                parts.append(self._records[self._at : stop])
                self._at = stop
            if self._at < len(self._rank):
                self.head = int(self._rank[self._at])
                break  # next record is >= rank_limit
        return parts


def _spill_wedge_run(
    handle,
    base: int,
    csr: Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    chunk: List[int],
    table: np.ndarray,
    n: int,
    index_arr: np.ndarray,
    counts: np.ndarray,
) -> Optional[_WedgeRunReader]:
    """Enumerate one centre chunk and append it as a rank-sorted run.

    Records are ``(rank, c1, c2, wprod)`` with ``rank`` the pair's index
    in the global ``(u, v)`` table and ``c1``/``c2`` read off the
    wedge's two CSR slots (``index_arr[slot_eid[s]]`` — no edge-key
    search); the stable sort keeps each pair's wedges in
    ascending-centre order.  ``counts`` accumulates per-pair wedge
    counts in place.  The run lands at record ``base`` of the shared
    spill file behind ``handle``; returns ``None`` for wedge-free chunks.
    """
    from repro.fast.similarity import _wedge_slots

    indptr, indices, weights, slot_eid = csr
    _centers, lead, fan, s2 = _wedge_slots(indptr, chunk)
    if len(s2) == 0:
        return None
    s1 = np.repeat(lead, fan)
    rank = np.searchsorted(table, indices[s1] * n + indices[s2])
    order = np.argsort(rank, kind="stable")
    rank = rank[order]
    s1 = s1[order]
    s2 = s2[order]
    records = np.empty((len(rank), _RECORD_WORDS), dtype=np.int64)
    records[:, 0] = rank
    records[:, 1] = index_arr[slot_eid[s1]]
    records[:, 2] = index_arr[slot_eid[s2]]
    records[:, 3] = (weights[s1] * weights[s2]).view(np.int64)
    starts = _group_starts(rank)
    counts[rank[starts]] += np.diff(np.append(starts, len(rank)))
    handle.write(records.tobytes())
    return _WedgeRunReader(base, len(rank), int(rank[0]))


def _merge_wedge_runs(
    fd: int,
    runs: List[_WedgeRunReader],
    offsets_uv: np.ndarray,
    dots: np.ndarray,
    temp,
    cap: int,
    cancel: Optional[CancelToken],
) -> None:
    """Merge rank-sorted runs into grouped order; reduce dots per pair.

    Runs cover disjoint ascending centre ranges, so the global
    ``(u, v, k)`` order is "by rank, runs in order, stable" — a stable
    sort of each rank window's concatenated run slices.  Only runs
    whose head lies inside the window are read.  Each window holds
    whole groups, so ``np.add.reduceat`` over the window computes every
    pair's dot product on its complete contiguous slice (bitwise the
    oracle's group sums).  The grouped ``(c1, c2)`` stream goes to
    ``temp`` interleaved, in pair-table order.
    """
    k1 = len(dots)
    window_elems = max(1024, cap)
    # The budget split across the run readers: merge-time residency is
    # runs x buffer, not runs x default.
    buffer_records = max(
        _MIN_RUN_BUFFER_BYTES // _STREAM_RECORD_BYTES, cap // max(1, len(runs))
    )
    heads = np.array([run.head for run in runs], dtype=np.int64)
    p0 = 0
    while p0 < k1:
        if cancel is not None:
            cancel.raise_if_cancelled()
        p1 = _window_end(offsets_uv, p0, window_elems)
        parts: List[np.ndarray] = []
        for i in np.flatnonzero(heads < p1).tolist():
            parts.extend(runs[i].pull(fd, p1, buffer_records))
            heads[i] = runs[i].head
        records = np.concatenate(parts)
        records = records[np.argsort(records[:, 0], kind="stable")]
        rank = records[:, 0]
        wp = np.ascontiguousarray(records[:, 3]).view(np.float64)
        starts = _group_starts(rank)
        dots[rank[starts]] = np.add.reduceat(wp, starts)
        temp.write(np.ascontiguousarray(records[:, 1:3]).tobytes())
        p0 = p1


def _assemble_wedges(
    handle,
    spec: PairFileSpec,
    temp_fd: int,
    starts: np.ndarray,
    counts: np.ndarray,
    final_offsets: np.ndarray,
    cap: int,
    cancel: Optional[CancelToken],
) -> None:
    """Write the ``c1``/``c2`` sections in final pair order.

    ``starts[p]``/``counts[p]`` locate final-order pair ``p``'s grouped
    ``(c1, c2)`` block in the temp stream.  Each bounded window of
    final-order pairs is gathered with one ``os.pread`` per pair (per
    run of pairs that are also adjacent in the temp stream) into one
    buffer, deinterleaved once, and written as two section slices.
    """
    k1 = len(counts)
    window_elems = max(1024, cap)
    p0 = 0
    while p0 < k1:
        if cancel is not None:
            cancel.raise_if_cancelled()
        p1 = _window_end(final_offsets, p0, window_elems)
        w0 = int(final_offsets[p0])
        w1 = int(final_offsets[p1])
        s = starts[p0:p1]
        c = counts[p0:p1]
        first = np.flatnonzero(
            np.concatenate(([True], s[1:] != s[:-1] + c[:-1]))
        )
        buf = bytearray((w1 - w0) * _WEDGE_BYTES)
        pos = 0
        for start, count in zip(
            s[first].tolist(), np.add.reduceat(c, first).tolist()
        ):
            nbytes = count * _WEDGE_BYTES
            buf[pos : pos + nbytes] = _pread_exact(
                temp_fd, nbytes, start * _WEDGE_BYTES
            )
            pos += nbytes
        block = np.frombuffer(buf, dtype=np.int64).reshape(-1, 2)
        handle.seek(spec.c1_offset + w0 * _F8)
        handle.write(np.ascontiguousarray(block[:, 0]).tobytes())
        handle.seek(spec.c2_offset + w0 * _F8)
        handle.write(np.ascontiguousarray(block[:, 1]).tobytes())
        p0 = p1


class MmapPairStore(PairStore):
    """The out-of-core store (see module docstring for layout/merge)."""

    kind = "mmap"
    streaming = True

    def __init__(
        self,
        spec: PairFileSpec,
        spill_dir: str,
        *,
        window_bytes: int,
        tracer=None,
    ):
        self._tracer = as_tracer(tracer)
        self.spec = spec
        self.spill_dir = spill_dir
        self.window_bytes = window_bytes
        self.window_elems = max(1, window_bytes // _WEDGE_BYTES)
        self.k1 = spec.k1
        self.k2 = spec.k2
        self.sims = spec.open_sim()
        self.us = spec.open_u()
        self.vs = spec.open_v()
        self.offsets = spec.open_offsets()
        self.c1 = spec.open_c1()
        self.c2 = spec.open_c2()
        self._closed = False
        self._tracer.gauge("store_bytes", spec.total_bytes)

    # ------------------------------------------------------------------
    # build: spill + external merge
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        *,
        storage_dir: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        tracer=None,
        cancel: Optional[CancelToken] = None,
    ) -> "MmapPairStore":
        tracer = as_tracer(tracer)
        if storage_dir is not None:
            os.makedirs(storage_dir, exist_ok=True)
        spill_dir = tempfile.mkdtemp(prefix="repro-pairs-", dir=storage_dir)
        try:
            spec = cls._build_file(
                graph,
                columns,
                index_arr,
                spill_dir,
                memory_budget_bytes,
                tracer,
                cancel,
            )
        except BaseException:
            shutil.rmtree(spill_dir, ignore_errors=True)
            raise
        window = memory_budget_bytes or DEFAULT_WINDOW_BYTES
        window = max(_MIN_WINDOW_BYTES, min(window, DEFAULT_WINDOW_BYTES))
        return cls(spec, spill_dir, window_bytes=window, tracer=tracer)

    @classmethod
    def _build_file(
        cls,
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        spill_dir: str,
        budget: Optional[int],
        tracer,
        cancel: Optional[CancelToken],
    ) -> PairFileSpec:
        k1, k2 = columns.k1, columns.k2
        pair_bytes = k1 * _PAIR_BYTES + k2 * _WEDGE_BYTES
        spec = PairFileSpec(path=os.path.join(spill_dir, "pairs.bin"), k1=k1, k2=k2)
        if budget is None or pair_bytes <= budget or k1 <= 1:
            # Everything fits: sort in memory (the oracle path) and write
            # the file in one sequential pass.  No runs, no merge.
            sorted_columns = columns.sort_pairs()
            e1, e2 = wedge_edge_arrays(graph, sorted_columns)
            c1 = index_arr[e1] if len(e1) else e1
            c2 = index_arr[e2] if len(e2) else e2
            with open(spec.path, "wb") as handle:
                handle.write(np.ascontiguousarray(sorted_columns.sim).tobytes())
                handle.write(np.ascontiguousarray(sorted_columns.u).tobytes())
                handle.write(np.ascontiguousarray(sorted_columns.v).tobytes())
                handle.write(
                    np.ascontiguousarray(sorted_columns.common_offsets).tobytes()
                )
                handle.write(np.ascontiguousarray(c1, dtype=np.int64).tobytes())
                handle.write(np.ascontiguousarray(c2, dtype=np.int64).tobytes())
            return spec
        runs_path = os.path.join(spill_dir, "runs.bin")
        try:
            layouts = cls._spill_runs(
                graph, columns, index_arr, runs_path, budget, tracer, cancel
            )
            cls._merge_runs(layouts, runs_path, spec, budget, tracer)
        finally:
            if os.path.exists(runs_path):
                os.unlink(runs_path)
        return spec

    @staticmethod
    def _spill_runs(
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        runs_path: str,
        budget: int,
        tracer,
        cancel: Optional[CancelToken],
    ) -> List[Tuple[int, int, int]]:
        """Write budget-sized sorted runs back to back into ``runs_path``.

        Returns each run's ``(base byte, k1, k2)``.
        """
        k1 = columns.k1
        counts = columns.pair_counts()
        costs = _PAIR_BYTES + counts * _WEDGE_BYTES
        key_table = _edge_key_table(graph)
        runs: List[Tuple[int, int, int]] = []
        start = 0
        with open(runs_path, "wb") as handle:
            while start < k1:
                if cancel is not None:
                    cancel.raise_if_cancelled()
                stop = start + 1
                spent = int(costs[start])
                while stop < k1 and spent + int(costs[stop]) <= budget:
                    spent += int(costs[stop])
                    stop += 1
                with tracer.span(
                    "storage:spill", run=len(runs), start=start, stop=stop
                ):
                    base = handle.tell()
                    nbytes = MmapPairStore._write_run(
                        handle, graph, columns, index_arr, key_table, start, stop
                    )
                tracer.count("spill_runs")
                tracer.count("bytes_spilled", nbytes)
                runs.append(
                    (
                        base,
                        stop - start,
                        int(columns.common_offsets[stop] - columns.common_offsets[start]),
                    )
                )
                start = stop
        return runs

    @staticmethod
    def _write_run(
        handle,
        graph: Graph,
        columns: SimilarityColumns,
        index_arr: np.ndarray,
        key_table,
        start: int,
        stop: int,
    ) -> int:
        """Sort pairs ``[start, stop)`` and append them as one run.

        A run uses the ``pairs.bin`` layout over its own k1/k2, so the
        merge locates its sections through :class:`PairFileSpec`.
        """
        sorted_keys, eids, n = key_table
        u = columns.u[start:stop]
        v = columns.v[start:stop]
        sim = columns.sim[start:stop]
        counts = np.diff(columns.common_offsets[start : stop + 1])
        order = np.lexsort((v, u, -sim))
        counts_sorted = counts[order]
        run_offsets = np.zeros(len(order) + 1, dtype=np.int64)
        np.cumsum(counts_sorted, out=run_offsets[1:])
        total = int(run_offsets[-1])
        old_starts = columns.common_offsets[start:stop][order]
        gather = (
            np.repeat(old_starts - run_offsets[:-1], counts_sorted)
            + np.arange(total, dtype=np.int64)
        )
        witnesses = columns.common_neighbors[gather]
        a = np.repeat(u[order], counts_sorted)
        b = np.repeat(v[order], counts_sorted)
        if total:
            e1 = _lookup_edge_ids(sorted_keys, eids, n, a, witnesses)
            e2 = _lookup_edge_ids(sorted_keys, eids, n, b, witnesses)
            c1 = index_arr[e1]
            c2 = index_arr[e2]
        else:
            c1 = np.empty(0, dtype=np.int64)
            c2 = np.empty(0, dtype=np.int64)
        handle.write(np.ascontiguousarray(sim[order]).tobytes())
        handle.write(np.ascontiguousarray(u[order]).tobytes())
        handle.write(np.ascontiguousarray(v[order]).tobytes())
        handle.write(run_offsets.tobytes())
        handle.write(np.ascontiguousarray(c1, dtype=np.int64).tobytes())
        handle.write(np.ascontiguousarray(c2, dtype=np.int64).tobytes())
        return (stop - start) * _PAIR_BYTES + _F8 + total * _WEDGE_BYTES

    @staticmethod
    def _merge_runs(
        layouts: List[Tuple[int, int, int]],
        runs_path: str,
        spec: PairFileSpec,
        budget: int,
        tracer,
    ) -> None:
        """k-way merge of the sorted runs into the final ``pairs.bin``.

        The heap key ``(-sim, u, v)`` is a strict total order over pairs
        (``(u, v)`` is unique), so the output equals the one-lexsort
        oracle order exactly, duplicate similarities included.  Only the
        runs' read buffers (the budget split across runs) and bounded
        write buffers are resident; two files are open.
        """
        runs = [_RunFile(*layout) for layout in layouts]
        buffer_bytes = max(_MIN_RUN_BUFFER_BYTES, budget // len(runs))
        with tracer.span("storage:merge", runs=len(runs), k1=spec.k1):
            with open(runs_path, "rb") as source, open(spec.path, "wb") as handle:
                fd = source.fileno()
                handle.truncate(spec.total_bytes)
                sim_w = _SectionWriter(handle, spec.sim_offset, np.float64)
                u_w = _SectionWriter(handle, spec.u_offset, np.int64)
                v_w = _SectionWriter(handle, spec.v_offset, np.int64)
                off_w = _SectionWriter(handle, spec.offsets_offset, np.int64)
                c1_w = _SectionWriter(handle, spec.c1_offset, np.int64)
                c2_w = _SectionWriter(handle, spec.c2_offset, np.int64)
                off_w.append_scalar(0)
                heap = [(run.key(fd, buffer_bytes), idx) for idx, run in enumerate(runs)]
                heapq.heapify(heap)
                wedge_cursor = 0
                while heap:
                    (_key, idx) = heapq.heappop(heap)
                    run = runs[idx]
                    at = run.head(fd, buffer_bytes)
                    sim_w.append(run.sim[at : at + 1])
                    u_w.append(run.u[at : at + 1])
                    v_w.append(run.v[at : at + 1])
                    w0 = int(run.offsets[at])
                    w1 = int(run.offsets[at + 1])
                    c1_w.append(run.c1[w0:w1])
                    c2_w.append(run.c2[w0:w1])
                    wedge_cursor += w1 - w0
                    off_w.append_scalar(wedge_cursor)
                    run.pos += 1
                    if run.pos < run.k1:
                        heapq.heappush(heap, (run.key(fd, buffer_bytes), idx))
                for writer in (sim_w, u_w, v_w, off_w, c1_w, c2_w):
                    writer.flush()

    # ------------------------------------------------------------------
    # build: streaming (graph -> file, no K2-sized residency)
    # ------------------------------------------------------------------
    @classmethod
    def build_streaming(
        cls,
        graph: Graph,
        index_arr: np.ndarray,
        *,
        storage_dir: Optional[str] = None,
        memory_budget_bytes: Optional[int] = None,
        tracer=None,
        cancel: Optional[CancelToken] = None,
    ) -> "MmapPairStore":
        """Build the store from the graph without materializing K2.

        Produces a ``pairs.bin`` byte-identical to :meth:`build` fed the
        vectorized Phase-I columns; resident memory stays O(K1 + |E| +
        budget) throughout (see module docstring for the spill/merge
        shape).
        """
        tracer = as_tracer(tracer)
        if storage_dir is not None:
            os.makedirs(storage_dir, exist_ok=True)
        spill_dir = tempfile.mkdtemp(prefix="repro-pairs-", dir=storage_dir)
        try:
            spec = cls._build_file_streaming(
                graph, index_arr, spill_dir, memory_budget_bytes, tracer, cancel
            )
        except BaseException:
            shutil.rmtree(spill_dir, ignore_errors=True)
            raise
        window = memory_budget_bytes or DEFAULT_WINDOW_BYTES
        window = max(_MIN_WINDOW_BYTES, min(window, DEFAULT_WINDOW_BYTES))
        return cls(spec, spill_dir, window_bytes=window, tracer=tracer)

    @classmethod
    def _build_file_streaming(
        cls,
        graph: Graph,
        index_arr: np.ndarray,
        spill_dir: str,
        budget: Optional[int],
        tracer,
        cancel: Optional[CancelToken],
    ) -> PairFileSpec:
        # Phase-I building blocks are reused verbatim so every wedge
        # product and every correction term is computed by the same code
        # the oracle runs (bitwise identity depends on it).
        from repro.fast.similarity import (
            _adjacency_weights,
            _csr_arrays,
            _h_arrays_columnar,
            _tanimoto,
        )

        cap = _stream_cap(budget)
        n = max(1, graph.num_vertices)
        # Pass A: the global pair table (sorted packed u * n + v keys).
        # K1-sized — within the paper's O(K2 + |E|) bound, K2-free.
        with tracer.span("storage:table"):
            csr = _csr_arrays(graph)
            indptr, indices, weights, _slot_eid = csr
            chunks = _center_chunks(indptr, cap)
            table = _pair_table(indptr, indices, chunks, n, cap, cancel)
        k1 = len(table)
        spec = PairFileSpec(
            path=os.path.join(spill_dir, "pairs.bin"), k1=k1, k2=0
        )
        if k1 == 0:
            with open(spec.path, "wb") as handle:
                handle.write(np.zeros(1, dtype=np.int64).tobytes())
            return spec

        # Pass B: append one rank-sorted wedge run per chunk to the
        # shared spill file, then merge the runs window by window into
        # the grouped temp stream.  A stable sort keeps each pair's
        # wedges in ascending-centre order — the order the oracle's
        # (u, v, k) lexsort produces.
        counts = np.zeros(k1, dtype=np.int64)
        runs_path = os.path.join(spill_dir, "wedges.runs")
        temp_path = os.path.join(spill_dir, "wedges.tmp")
        dots = np.empty(k1, dtype=np.float64)
        try:
            runs: List[_WedgeRunReader] = []
            with open(runs_path, "wb") as handle:
                base = 0
                for chunk in chunks:
                    if cancel is not None:
                        cancel.raise_if_cancelled()
                    with tracer.span(
                        "storage:spill", run=len(runs), centers=len(chunk)
                    ):
                        run = _spill_wedge_run(
                            handle, base, csr, chunk, table, n, index_arr, counts
                        )
                    if run is None:
                        continue
                    tracer.count("spill_runs")
                    tracer.count("bytes_spilled", run.count * _STREAM_RECORD_BYTES)
                    runs.append(run)
                    base += run.count
            offsets_uv = np.zeros(k1 + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets_uv[1:])
            with tracer.span("storage:merge", runs=len(runs), k1=k1):
                with open(runs_path, "rb") as source, open(temp_path, "wb") as temp:
                    _merge_wedge_runs(
                        source.fileno(), runs, offsets_uv, dots, temp, cap, cancel
                    )
            os.unlink(runs_path)

            # Pass 3 + assembly on K1 arrays: adjacency correction,
            # Tanimoto, the final (-sim, u, v) sort, and the file sections.
            with tracer.span("storage:assemble", k1=k1):
                h1, h2 = _h_arrays_columnar(indptr, weights)
                pair_u = table // n
                pair_v = table % n
                dots = dots + (h1[pair_u] + h1[pair_v]) * _adjacency_weights(
                    graph, pair_u, pair_v
                )
                sims = _tanimoto(h2, pair_u, pair_v, dots)
                order = np.lexsort((pair_v, pair_u, -sims))
                final_counts = counts[order]
                final_offsets = np.zeros(k1 + 1, dtype=np.int64)
                np.cumsum(final_counts, out=final_offsets[1:])
                spec = PairFileSpec(
                    path=spec.path, k1=k1, k2=int(final_offsets[-1])
                )
                with open(spec.path, "wb") as handle, open(temp_path, "rb") as temp:
                    handle.truncate(spec.total_bytes)
                    handle.write(np.ascontiguousarray(sims[order]).tobytes())
                    handle.write(np.ascontiguousarray(pair_u[order]).tobytes())
                    handle.write(np.ascontiguousarray(pair_v[order]).tobytes())
                    handle.write(final_offsets.tobytes())
                    _assemble_wedges(
                        handle,
                        spec,
                        temp.fileno(),
                        offsets_uv[order],
                        final_counts,
                        final_offsets,
                        cap,
                        cancel,
                    )
        finally:
            for path in (runs_path, temp_path):
                if os.path.exists(path):
                    os.unlink(path)
        return spec

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def store_bytes(self) -> int:
        return self.spec.total_bytes

    def window(self, w0: int, w1: int) -> Tuple[np.ndarray, np.ndarray]:
        with self._tracer.span("storage:window", start=w0, stop=w1):
            c1 = self.c1[w0:w1]
            c2 = self.c2[w0:w1]
        self._tracer.count("window_loads")
        return c1, c2

    def window_ranges(self, w0: int, w1: int) -> Iterator[Tuple[int, int]]:
        step = self.window_elems
        pos = w0
        while pos < w1:
            yield pos, min(w1, pos + step)
            pos = min(w1, pos + step)

    def pair_block_end(self, start: int, stop: int) -> int:
        """Largest pair index whose wedge window stays within one window.

        Same searchsorted shape as the chunk-boundary computation: the
        first pair is always taken (vertex pairs are atomic), further
        pairs join while the accumulated wedge count fits the window.
        """
        budget = int(self.offsets[start]) + self.window_elems
        j = int(np.searchsorted(self.offsets, budget, side="left"))
        return min(stop, max(start + 1, j - 1))

    def file_spec(self) -> Optional[PairFileSpec]:
        return self.spec

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # Drop the maps first so the backing file's pages are released,
        # then remove the spill directory.  POSIX keeps live worker maps
        # valid after the unlink; they vanish with the workers' own
        # references.
        self.sims = self.us = self.vs = None  # type: ignore[assignment]
        self.offsets = self.c1 = self.c2 = None  # type: ignore[assignment]
        shutil.rmtree(self.spill_dir, ignore_errors=True)


def make_pair_store(
    graph: Graph,
    columns: Optional[SimilarityColumns],
    index_arr: np.ndarray,
    *,
    settings: Optional[StorageSettings] = None,
    tracer=None,
    cancel: Optional[CancelToken] = None,
) -> PairStore:
    """Build the pair store the settings ask for (memory when ``None``).

    ``columns=None`` requests the streaming out-of-core init: Phase I
    runs inside the build, never materializing K2 — only valid with
    ``kind="mmap"`` settings.
    """
    if columns is None:
        if settings is None or settings.kind != "mmap":
            raise ParameterError(
                "streaming pair-store init (columns=None) requires "
                "StorageSettings(kind='mmap')"
            )
        return MmapPairStore.build_streaming(
            graph,
            index_arr,
            storage_dir=settings.storage_dir,
            memory_budget_bytes=settings.memory_budget_bytes,
            tracer=tracer,
            cancel=cancel,
        )
    if settings is None or settings.kind == "memory":
        return InMemoryPairStore.build(graph, columns, index_arr, tracer=tracer)
    return MmapPairStore.build(
        graph,
        columns,
        index_arr,
        storage_dir=settings.storage_dir,
        memory_budget_bytes=settings.memory_budget_bytes,
        tracer=tracer,
        cancel=cancel,
    )
