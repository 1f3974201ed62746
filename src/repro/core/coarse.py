"""Coarse-grained hierarchical link clustering (Section V).

Instead of one dendrogram level per merge, the sorted pair list ``L`` is
processed in *chunks*; every merge inside a chunk lands on the same level.
The chunk boundaries are chosen online so the dendrogram is *sound*: the
cluster count shrinks by at most a factor ``gamma`` per level, until fewer
than ``phi`` clusters remain (then everything merges into the root).

The driver is an epoch machine (Fig. 2(3)):

* an epoch processes vertex pairs until the estimated chunk size ``delta``
  is exhausted, then counts clusters ``beta_new`` and evaluates predicates
  C1/C2/C3 (:mod:`repro.core.modes`);
* soundness violation (¬C2) rolls the epoch back to the last safe state
  ``Q* = (beta, xi, p, C)`` — the discarded state is kept on a rollback
  list both as a slope reference and for *reuse*: a later level whose
  cluster count satisfies ``beta / beta' <= gamma`` against a saved state
  can jump straight to it, skipping recomputation;
* chunk sizes grow exponentially in head mode (factor ``eta``, damped on
  rollback) and are slope-extrapolated in tail/rollback modes
  (:mod:`repro.core.chunking`).

Implementation notes (documented deviations, none behavioural):

* Vertex pairs are atomic (the paper checks ``xi + |l| < Delta + delta``
  before splitting), so instead of accumulating ``Delta += delta`` we
  reset the chunk budget to the *actual* pair count ``xi`` at each epoch
  start; this removes bookkeeping drift with identical boundary decisions.
* A single vertex pair can merge clusters faster than ``gamma`` allows;
  no chunk subdivision can fix that (the unit is atomic), so after the
  chunk size bottoms out at one pair the epoch is *force-committed* and
  flagged (``forced``), keeping the algorithm total.
* Because every reachable state is "the state after processing a prefix
  of ``L``" and merge outcomes are order-independent, a saved rollback
  state is reusable from any earlier position; its pending merge records
  carry their list position so a jump emits exactly the not-yet-emitted
  ones.

State representation: the chained engine keeps array ``C`` as the
paper's list-based :class:`~repro.cluster.unionfind.ChainArray` (the
oracle).  The batch and sharded engines keep it, for the whole sweep,
as one fully compressed int64 label array
(:class:`~repro.cluster.shm.NumpyChainArray`): the live state, epoch
snapshots, rollback and jump states and deferred-epsilon flushes are
all label arrays, and a level's merge records are the vectorized
partition diff between the epoch's safe state and the committed one
(:func:`partition_diff`).  One ``ChainArray`` is built at the end,
for :attr:`CoarseResult.chain`.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.dendrogram import Dendrogram, DendrogramBuilder
from repro.cluster.shm import NumpyChainArray
from repro.cluster.unionfind import ChainArray
from repro.core.chunking import (
    MIN_CHUNK,
    CurvePoint,
    extrapolate_chunk,
    head_next_chunk,
    shrink_eta,
)
from repro.core.cancel import CancelToken
from repro.core.modes import Mode, evaluate_predicates, next_mode
from repro.core.registry import get_engine
from repro.core.simcolumns import SimilarityColumns
from repro.core.similarity import SimilarityMap, compute_similarity_map
from repro.core.storage import StorageSettings, make_pair_store
from repro.core.sweep import build_edge_index
from repro.errors import ParameterError
from repro.graph.graph import Graph
from repro.obs import as_tracer

__all__ = [
    "CoarseParams",
    "EpochRecord",
    "CoarseResult",
    "coarse_sweep",
    "FixedChunkLevel",
    "fixed_chunk_sweep",
]

# Shard count for serial sharded runs when the caller does not pick one.
# Results are shard-count-invariant (tested), so this only controls how
# much boundary machinery a serial run exercises; 4 matches the paper's
# reference worker count.
DEFAULT_SERIAL_SHARDS = 4


@dataclass(frozen=True)
class CoarseParams:
    """Parameters ``(gamma, phi, delta0)`` plus the head growth factor.

    Defaults follow Section VII-B: ``gamma = 2``, ``phi = 100``,
    ``eta0 = 8``; ``delta0`` is workload-dependent (the paper uses 100 to
    10000 depending on graph size).
    """

    gamma: float = 2.0
    phi: int = 100
    delta0: float = 100.0
    eta0: float = 8.0
    finalize_root: bool = True
    max_consecutive_rollbacks: int = 30

    def __post_init__(self) -> None:
        if self.gamma < 1.0:
            raise ParameterError(f"gamma must be >= 1, got {self.gamma}")
        if self.phi < 1:
            raise ParameterError(f"phi must be >= 1, got {self.phi}")
        if self.delta0 < MIN_CHUNK:
            raise ParameterError(f"delta0 must be >= {MIN_CHUNK}, got {self.delta0}")
        if self.eta0 <= 1.0:
            raise ParameterError(f"eta0 must be > 1, got {self.eta0}")
        if self.max_consecutive_rollbacks < 1:
            raise ParameterError("max_consecutive_rollbacks must be >= 1")

    @property
    def gamma_tilde(self) -> float:
        """Target merging rate ``(1 + gamma) / 2``."""
        return (1.0 + self.gamma) / 2.0


# Array C: the list-based oracle or the label array of the batch and
# sharded engines.
Chain = Union[ChainArray, NumpyChainArray]


@dataclass(frozen=True)
class _PendingMerge:
    """A genuine merge awaiting level assignment (pos = index into L)."""

    pos: int
    c1: int
    c2: int
    parent: int
    similarity: float


@dataclass
class _EpochState:
    """Snapshot ``Q = (beta, xi, p, C)`` plus pending merges.

    ``deferred`` carries the sharded engine's not-yet-reconciled
    boundary pairs when ``epsilon > 0`` (``None`` otherwise), so
    rollback/restore/jump keep the deferred set consistent with the
    chain it belongs to.
    """

    beta: int
    xi: int
    p: int
    chain: Chain
    pending: List[_PendingMerge]
    deferred: Optional[Tuple[np.ndarray, np.ndarray]] = None


@dataclass(frozen=True)
class EpochRecord:
    """One epoch-boundary event, for Figure 5(1)'s breakdown.

    ``kind`` is one of ``head_fresh``, ``tail_fresh``, ``rollback``,
    ``reused``, or ``forced``.
    """

    kind: str
    level: Optional[int]
    chunk: float
    beta_before: int
    beta_after: int
    xi: int
    p: int


@dataclass
class CoarseResult:
    """Output of a coarse-grained sweep."""

    dendrogram: Dendrogram
    chain: ChainArray
    edge_index: List[int]
    epochs: List[EpochRecord]
    num_levels: int
    k1: int
    k2: int
    pairs_processed: int
    stopped_by_phi: bool

    @property
    def processed_fraction(self) -> float:
        """Fraction of incident edge pairs processed before stopping.

        The paper reports 55.1% at fraction 0.005 — the tail skipped by the
        ``phi`` cutoff is the coarse algorithm's speed advantage.
        """
        return self.pairs_processed / self.k2 if self.k2 else 1.0

    def edge_labels(self) -> List[int]:
        """Final cluster label of every edge id."""
        return [self.chain.find(self.edge_index[eid])
                for eid in range(len(self.edge_index))]

    def epoch_kind_counts(self) -> dict:
        """Histogram of epoch kinds (Figure 5(1) bars)."""
        counts: dict = {}
        for epoch in self.epochs:
            counts[epoch.kind] = counts.get(epoch.kind, 0) + 1
        return counts


def _label_array(chain: Union[Chain, Sequence[int], np.ndarray]) -> np.ndarray:
    """Array ``C`` of a chain (list-based, label array, or raw ids)."""
    raw = chain.raw() if isinstance(chain, (ChainArray, NumpyChainArray)) else chain
    return np.asarray(raw, dtype=np.int64)


def partition_diff(
    before: np.ndarray, after: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge columns ``(base, other)`` turning ``before`` into ``after``.

    Both are int64 chain arrays over the same items and ``after`` must
    be fully compressed (every entry its root).  For each root ``r`` of
    ``before`` whose ``after`` label moved, ``other = r`` merges into
    ``base = after[r]``; records come back lexsorted by ``(base,
    other)``.  A handful of n-sized vector passes, no Python loop.
    """
    roots = np.flatnonzero(before == np.arange(before.size, dtype=np.int64))
    base = after[roots]
    moved = base != roots
    base = base[moved]
    other = roots[moved]
    # ``other`` ascends already, so a stable sort on ``base`` is the
    # (base, other) lexsort.
    order = np.argsort(base, kind="stable")
    return base[order], other[order]


def transition_merges(
    before: Union[Chain, Sequence[int], np.ndarray],
    after: Union[Chain, Sequence[int], np.ndarray],
) -> List[Tuple[int, int, int]]:
    """Merge records ``(c1, c2, parent)`` turning partition ``before`` into
    ``after``.

    ``after`` must be a refinement-coarsening of ``before`` (obtained from
    it by merges).  For every group of ``before``-roots that share an
    ``after``-cluster, the larger roots merge into the smallest one —
    exactly the records the chain-array ``MERGE`` would have emitted,
    ordered by ``(smallest root, merging root)``.  Either side may be a
    :class:`ChainArray`, a :class:`NumpyChainArray` or a raw chain array,
    compressed or not.  Computed by :func:`partition_diff`, which the
    batch/sharded engines and the parallel driver (no global merge-event
    stream) call directly.
    """
    from repro.fast.batch_sweep import compress_labels

    base, other = partition_diff(
        _label_array(before), compress_labels(_label_array(after))
    )
    bases = base.tolist()
    return list(zip(bases, other.tolist(), bases))


class _CoarseSweeper:
    """Single-use driver holding the epoch machine's mutable state.

    ``engine`` selects how a chunk's merge stream is applied:
    ``"chained"`` runs the paper's sequential ``MERGE`` per wedge;
    ``"batch"`` unions the whole chunk with vectorized connected-
    components rounds (:mod:`repro.fast.batch_sweep`); ``"sharded"``
    splits the chunk by contiguous vertex ownership, contracts each
    shard locally, and reconciles boundary pairs on the host
    (:mod:`repro.parallel.sharded_sweep`).  Chunk boundaries depend
    only on the pair counts and the per-level partitions are
    identical, so all engines walk the same epoch sequence and build
    the same dendrogram levels.

    ``epsilon > 0`` (sharded only) defers boundary reconciliation
    across levels while the local cluster count stays within
    ``(1 + epsilon)`` of the reconciled count; deferred merges are
    flushed when the bound breaks, on a state jump, and always before
    the sweep ends, so the final partition is unchanged.
    """

    def __init__(
        self,
        graph: Graph,
        similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]],
        params: CoarseParams,
        edge_order: Optional[Sequence[int]],
        tracer=None,
        engine: str = "chained",
        num_shards: Optional[int] = None,
        epsilon: float = 0.0,
        cancel: Optional[CancelToken] = None,
        storage: Optional[StorageSettings] = None,
    ):
        engine_spec = get_engine(engine)
        self.cancel = cancel
        if epsilon < 0:
            raise ParameterError(f"epsilon must be >= 0, got {epsilon}")
        if epsilon > 0 and not engine_spec.supports_epsilon:
            raise ParameterError(
                f"epsilon > 0 requires engine='sharded', got {engine!r}"
            )
        if num_shards is not None and engine != "sharded":
            raise ParameterError(
                f"num_shards requires engine='sharded', got {engine!r}"
            )
        if num_shards is not None and num_shards < 1:
            raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
        if isinstance(similarity_map, SimilarityMap):
            # Every engine reads list L from a pair store built from
            # columns; the dict map converts losslessly (same L order).
            similarity_map = SimilarityColumns.from_similarity_map(similarity_map)
        self.engine = engine
        self.engine_spec = engine_spec
        self.epsilon = float(epsilon)
        # Chained serial replays saved merge events on a state jump; the
        # batch/sharded engines (and the parallel driver, which overrides
        # this) have no per-merge event stream and diff partitions instead.
        self.records_by_diff = engine in ("batch", "sharded")
        self.graph = graph
        self.params = params
        self.tracer = as_tracer(tracer)
        self.index = build_edge_index(graph, edge_order)
        self.num_edges = graph.num_edges
        # List L is a PairStore: the sorted columns plus the precomputed
        # K2 merge stream, in RAM or memory-mapped under a spill directory
        # depending on the storage settings.  ``similarity_map=None`` asks
        # the mmap store to run Phase I itself, streaming: wedges spill in
        # center chunks and merge straight into the pair file, so no
        # K2-sized array ever exists.
        sort_attrs = (
            {"streaming": True}
            if similarity_map is None
            else {"k1": similarity_map.k1}
        )
        with self.tracer.span("phase:sort", **sort_attrs):
            self.store = make_pair_store(
                graph,
                similarity_map,
                np.asarray(self.index, dtype=np.int64),
                settings=storage,
                tracer=self.tracer,
                cancel=cancel,
            )
        self.k1 = self.store.k1
        self.k2 = self.store.k2
        self.num_pairs = self.store.num_pairs
        # Python-list views of an in-memory store for the chained loop,
        # built on its first chunk (see _chained_lists).
        self._lists: Optional[Tuple[list, list, list, list]] = None
        self.tracer.gauge("k1", self.k1)
        self.tracer.gauge("k2", self.k2)

        # Vertex-ownership map for the serial sharded engine (the
        # parallel driver shards by its runtime's worker count instead).
        # Results are shard-count-invariant, so the default only decides
        # how much boundary machinery a serial run exercises.
        self.shard_part = None
        if engine == "sharded":
            from repro.parallel.partitioner import ShardedPartition

            self.shard_part = ShardedPartition.build(
                self.num_edges, num_shards or DEFAULT_SERIAL_SHARDS
            )

        # The batch and sharded engines keep array C as a compressed
        # label array for the whole sweep; chained keeps the oracle's list.
        self.chain: Chain = (
            NumpyChainArray(self.num_edges)
            if engine in ("batch", "sharded")
            else ChainArray(self.num_edges)
        )
        self.builder = DendrogramBuilder(self.num_edges)
        self.pending: List[_PendingMerge] = []
        self.epochs: List[EpochRecord] = []
        self.rollback_list: List[_EpochState] = []
        # Deferred boundary pairs (sharded engine with epsilon > 0):
        # unique (lo, hi) root pairs whose reconciliation is postponed.
        self._deferred_a = np.empty(0, dtype=np.int64)
        self._deferred_b = np.empty(0, dtype=np.int64)

        self.beta = self.num_edges
        self.xi = 0
        self.p = 0
        self.level = 0
        self.delta = float(params.delta0)
        self.eta = float(params.eta0)
        self.mode = Mode.HEAD
        self.consecutive_rollbacks = 0
        self.stopped_by_phi = False

        self.prev_point: Optional[CurvePoint] = None
        self.last_point = CurvePoint(0.0, float(self.num_edges))
        self.epoch_start_xi = 0
        self.safe = self._snapshot()

    # ------------------------------------------------------------------
    # state plumbing
    # ------------------------------------------------------------------
    def _snapshot(self) -> _EpochState:
        return _EpochState(
            beta=self.beta,
            xi=self.xi,
            p=self.p,
            chain=self.chain.copy(),
            pending=[],
            deferred=self._deferred_copy(),
        )

    def _restore(self, state: _EpochState) -> None:
        self.beta = state.beta
        self.xi = state.xi
        self.p = state.p
        self.chain = state.chain.copy()
        self.pending = []
        if state.deferred is None:
            self._deferred_a = np.empty(0, dtype=np.int64)
            self._deferred_b = np.empty(0, dtype=np.int64)
        else:
            self._deferred_a = state.deferred[0].copy()
            self._deferred_b = state.deferred[1].copy()
        self.epoch_start_xi = self.xi

    # ------------------------------------------------------------------
    # deferred boundary reconciliation (sharded engine, epsilon > 0)
    # ------------------------------------------------------------------
    def _deferred_copy(self) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if self._deferred_a.size == 0:
            return None
        return self._deferred_a.copy(), self._deferred_b.copy()

    def _push_deferred(self, pairs: Tuple[np.ndarray, np.ndarray]) -> None:
        da, db = pairs
        if da.size == 0:
            return
        self._deferred_a = np.concatenate([self._deferred_a, da])
        self._deferred_b = np.concatenate([self._deferred_b, db])

    def _clear_deferred(self) -> None:
        self._deferred_a = np.empty(0, dtype=np.int64)
        self._deferred_b = np.empty(0, dtype=np.int64)

    def _maybe_flush_deferred(self) -> None:
        """At an epoch boundary: flush deferred boundary merges when due.

        Deferred pairs are first re-rooted through the current labels
        and pruned of dead ones.  A flush happens when the local cluster
        count exceeds ``(1 + epsilon)`` times the reconciled count the
        live deferred merges would produce, or when the pair list is
        exhausted (the final level must be exact).  Flushed merges land
        in the live state, so they commit — or roll back — with the
        epoch they flushed into (the level's records are the epoch's
        partition diff).
        """
        if self._deferred_a.size == 0:
            return
        lab = self.chain.raw()
        da = lab[self._deferred_a]
        db = lab[self._deferred_b]
        live = da != db
        if not live.any():
            self._clear_deferred()
            return
        self._deferred_a = da[live]
        self._deferred_b = db[live]
        d = int(live.sum())
        beta_local = self.chain.num_clusters()
        # d live pairs merge at most d cluster pairs; beta_local - d
        # lower-bounds the reconciled count.
        within = beta_local <= (1.0 + self.epsilon) * max(1, beta_local - d)
        if within and self.p < self.num_pairs:
            return
        self.chain = self._flushed(self.chain, self._deferred_a, self._deferred_b)
        self._clear_deferred()

    @staticmethod
    def _flushed(
        chain: NumpyChainArray, da: np.ndarray, db: np.ndarray
    ) -> NumpyChainArray:
        """``chain`` with the deferred root pairs ``(da, db)`` applied."""
        from repro.fast.batch_sweep import batch_components

        return _label_state(batch_components(chain.raw(), da, db))

    def _flush_deferred_tail(self) -> None:
        """Flush remaining deferred merges as one extra level at a stop.

        The epoch loop can stop (C3) with merges still deferred; they
        must land in the dendrogram before the sweep returns.  Recorded
        as their own level — with ``finalize_root`` they would be
        subsumed by the root merge anyway, but the final chain must be
        exact either way.
        """
        if self._deferred_a.size == 0:
            return
        before = self.chain
        self.chain = self._flushed(before, self._deferred_a, self._deferred_b)
        if self.chain.num_clusters() < before.num_clusters():
            self.level += 1
            self.tracer.count("merges", self._record_diff(before, self.chain))
        self.beta = self.chain.num_clusters()
        self._clear_deferred()

    def _record_diff(self, before: Chain, after: Chain) -> int:
        """Record ``before`` → ``after`` as level ``self.level``; returns
        the merge count.

        One vectorized partition diff and one bulk builder call.  On
        the label-array engines both states are compressed label arrays
        and the step is traced as ``sweep:diff``; the parallel chained
        driver's list chains are converted and compressed first (its
        traces keep the chained engine's span names).
        """
        from repro.fast.batch_sweep import compress_labels

        labels = isinstance(after, NumpyChainArray)
        with self.tracer.span("sweep:diff") if labels else nullcontext():
            after_labels = (
                after.raw() if labels else compress_labels(_label_array(after))
            )
            base, other = partition_diff(_label_array(before), after_labels)
            self.builder.record_level(self.level, base, other)
        return int(base.size)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> CoarseResult:
        # Every chunk — including the one that exhausts the list — goes
        # through the boundary logic, so the soundness property (C2) is
        # enforced on the final level too: an oversized last chunk rolls
        # back and is retried smaller, exactly like any other epoch.
        # The chunk index counts *attempts*: a rolled-back epoch and its
        # retry are separate ``sweep:chunk[i]`` spans.
        tracer = self.tracer
        cancel = self.cancel
        chunk_idx = 0
        with tracer.span("phase:sweep"):
            while self.p < self.num_pairs:
                # Cooperative cancellation checkpoint: chunk (= level)
                # boundaries, the lenticular-lens stop-flag idiom.  The
                # raise unwinds through the open spans, so a cancelled
                # run still flushes everything traced so far.
                if cancel is not None:
                    cancel.raise_if_cancelled()
                with tracer.span(
                    f"sweep:chunk[{chunk_idx}]", p=self.p, delta=self.delta
                ):
                    chunk = self._collect_chunk()
                    self._apply_chunk(chunk)
                    stop = self._epoch_boundary()
                chunk_idx += 1
                if stop:
                    break

            if self.stopped_by_phi and self.params.finalize_root:
                self._merge_root()

        chain = self.chain
        if isinstance(chain, NumpyChainArray):
            # The one list-based chain of a label-array sweep.
            chain = ChainArray(len(chain), _init=chain.raw().tolist())
        return CoarseResult(
            dendrogram=self.builder.build(),
            chain=chain,
            edge_index=self.index,
            epochs=self.epochs,
            num_levels=self.level,
            k1=self.k1,
            k2=self.k2,
            pairs_processed=self.xi,
            stopped_by_phi=self.stopped_by_phi,
        )

    def _collect_chunk(self) -> range:
        """Positions of this epoch's chunk (>= 1 vertex pair).

        Walks forward from ``p`` until the estimated chunk size ``delta``
        is exhausted, honouring vertex-pair atomicity (the last pair that
        would cross the budget ends the chunk).

        The running pair count ``xi`` always equals ``offsets[p]`` (every
        pair is processed whole, in order, and state jumps restore both
        together), so the walk collapses to one ``searchsorted``: the
        chunk ends before the first pair whose *end* offset crosses the
        budget, clamped so at least one pair is taken.  This never
        touches more than O(log K1) offset entries — important when the
        offsets live in a memory-mapped store.
        """
        start = self.p
        budget = self.epoch_start_xi + self.delta
        j = int(np.searchsorted(self.store.offsets, budget, side="left"))
        return range(start, min(self.num_pairs, max(start + 1, j - 1)))

    def _chained_lists(self) -> Tuple[list, list, list, list]:
        """``(offsets, c1, c2, sims)`` of the in-memory store as lists.

        The chained loop indexes one wedge at a time, where list
        indexing beats ndarray scalar indexing; built on the first
        chunk so the other engines never pay for them.
        """
        if self._lists is None:
            store = self.store
            self._lists = (
                store.offsets.tolist(),
                store.c1.tolist(),
                store.c2.tolist(),
                store.sims.tolist(),
            )
        return self._lists

    def _apply_chunk(self, chunk: range) -> None:
        """Merge every incident edge pair of the chunk's vertex pairs.

        Overridden by the parallel sweeper (per-thread ``C`` copies plus a
        hierarchical array merge, Section VI-B).
        """
        # The serial path has no spawn/copy/merge steps; its whole chunk
        # cost is compute, traced under the same name the runtimes use so
        # cross-backend traces stay comparable.
        if self.engine_spec.chunk_applier is not None:
            # Registered engines name their chunk applier in the spec
            # (_apply_chunk_batch / _apply_chunk_sharded for built-ins).
            getattr(self, self.engine_spec.chunk_applier)(chunk)
            return
        if self.store.streaming:
            self._apply_chunk_streaming(chunk)
            return
        offsets, c1, c2, sims = self._chained_lists()
        with self.tracer.span("runtime:compute", workers=1):
            for pos in chunk:
                similarity = sims[pos]
                start, end = offsets[pos], offsets[pos + 1]
                for widx in range(start, end):
                    outcome = self.chain.merge(c1[widx], c2[widx])
                    if outcome.merged:
                        self.pending.append(
                            _PendingMerge(
                                pos,
                                outcome.c1,
                                outcome.c2,
                                outcome.parent,
                                similarity,
                            )
                        )
                self.xi += end - start
                self.p = pos + 1

    def _apply_chunk_streaming(self, chunk: range) -> None:
        """Chained merge loop over bounded store windows.

        Behaviourally identical to the list-based loop — same merges in
        the same order — but only ever holds one window's worth of the
        wedge stream (plus its pair slice) in Python lists, so the
        resident set stays bounded by the store's window size instead of
        K2.
        """
        store = self.store
        chain = self.chain
        with self.tracer.span("runtime:compute", workers=1):
            pos = chunk.start
            while pos < chunk.stop:
                blk = store.pair_block_end(pos, chunk.stop)
                offs = store.offsets[pos : blk + 1].tolist()
                sims = store.sims[pos:blk].tolist()
                w0 = offs[0]
                c1_arr, c2_arr = store.window(w0, offs[-1])
                c1 = c1_arr.tolist()
                c2 = c2_arr.tolist()
                for i in range(blk - pos):
                    similarity = sims[i]
                    start, end = offs[i], offs[i + 1]
                    for widx in range(start - w0, end - w0):
                        outcome = chain.merge(c1[widx], c2[widx])
                        if outcome.merged:
                            self.pending.append(
                                _PendingMerge(
                                    pos + i,
                                    outcome.c1,
                                    outcome.c2,
                                    outcome.parent,
                                    similarity,
                                )
                            )
                    self.xi += end - start
                    self.p = pos + i + 1
                pos = blk

    def _apply_chunk_batch(self, chunk: range) -> None:
        """Union the whole chunk in O(log n) vectorized rounds.

        The chunk's wedge window ``[offsets[start], offsets[stop])`` of
        the precomputed edge-index stream goes through one connected-
        components contraction of the label array; the level's records
        are the partition diff taken when the epoch commits (within a
        level merge records are unordered by construction, so per-level
        partitions — and therefore the dendrogram — match the chained
        engine exactly).  Merge records carry no similarity: a batch
        level is one set-union, not a sequence of per-wedge events.
        """
        from repro.fast.batch_sweep import batch_components

        self._apply_windows(
            chunk,
            lambda lab, c1w, c2w: batch_components(
                lab, c1w, c2w, tracer=self.tracer, inplace=True
            ),
        )

    def _apply_chunk_sharded(self, chunk: range) -> None:
        """Owner-computes chunk: per-shard local contraction + reconcile.

        Same state and records as :meth:`_apply_chunk_batch`, but the
        contraction runs shard-by-shard over identity labels of each
        owned slice with a host reconciliation of the deduplicated
        boundary pairs — exact unless ``epsilon > 0``, in which case the
        boundary pairs are pushed onto the deferred set instead of
        applied.  Window-at-a-time is exact here too: wedge ownership is
        static (by edge slot), so the set of locally-applied vs deferred
        boundary merges does not depend on how the window is split, and
        deferred pairs are re-rooted at flush time anyway.
        """
        from repro.parallel.sharded_sweep import sharded_components

        assert self.shard_part is not None

        def contract(lab, c1w, c2w):
            merged, deferred, _stats = sharded_components(
                lab,
                c1w,
                c2w,
                self.shard_part,
                tracer=self.tracer,
                defer_boundary=self.epsilon > 0,
                inplace=True,
            )
            self._push_deferred(deferred)
            return merged

        self._apply_windows(chunk, contract)

    def _apply_windows(self, chunk: range, contract) -> None:
        """Advance the label state over the chunk, one store window at a time.

        Window-at-a-time application is exact: union merges are
        order-independent, so the partition after the last window
        equals one whole-chunk contraction.
        """
        store = self.store
        w_start = int(store.offsets[chunk.start])
        w_end = int(store.offsets[chunk.stop])
        self.xi += w_end - w_start
        self.p = chunk.stop
        if w_start == w_end:
            return
        # The live labels are the sweeper's own: snapshots, rollback and
        # jump states all hold copies, and the level's records diff the
        # safe snapshot.  So every window contracts in place.
        lab = self.chain.raw()
        with self.tracer.span("runtime:compute", workers=1):
            for s, e in store.window_ranges(w_start, w_end):
                c1w, c2w = store.window(s, e)
                lab = contract(lab, c1w, c2w)
            self.chain = _label_state(lab)

    # ------------------------------------------------------------------
    # epoch boundary handling
    # ------------------------------------------------------------------
    def _epoch_boundary(self) -> bool:
        """Handle one boundary; returns True when the sweep should stop."""
        params = self.params
        self._maybe_flush_deferred()
        beta_new = self.chain.num_clusters()
        preds = evaluate_predicates(
            self.beta, beta_new, self.num_edges, params.gamma, params.phi
        )
        mode_next = next_mode(preds)

        if mode_next is Mode.ROLLBACK:
            at_floor = self.delta <= MIN_CHUNK
            exhausted = (
                self.consecutive_rollbacks >= params.max_consecutive_rollbacks
            )
            if not (at_floor or exhausted):
                self._rollback(beta_new)
                return False
            # Atomic vertex pair (or rollback budget) prevents soundness:
            # force-commit and flag it.
            self._commit("forced", beta_new)
        else:
            kind = "tail_fresh" if mode_next is Mode.TAIL else "head_fresh"
            self._commit(kind, beta_new)

        if preds.c3 and beta_new <= self.num_edges / 2.0:
            self.stopped_by_phi = True
            self._flush_deferred_tail()
            return True

        if self._try_jump():
            if self.beta <= params.phi:
                self.stopped_by_phi = True
                self._flush_deferred_tail()
                return True

        self._estimate_next_chunk()
        return False

    def _rollback(self, beta_new: int) -> None:
        params = self.params
        # Save the discarded state for future reuse / as a slope reference.
        self.rollback_list.append(
            _EpochState(
                beta=beta_new,
                xi=self.xi,
                p=self.p,
                chain=self.chain.copy(),
                pending=list(self.pending),
                deferred=self._deferred_copy(),
            )
        )
        self.epochs.append(
            EpochRecord(
                kind="rollback",
                level=None,
                chunk=self.delta,
                beta_before=self.beta,
                beta_after=beta_new,
                xi=self.xi,
                p=self.p,
            )
        )
        self.tracer.count("rollbacks")
        if self.mode is Mode.HEAD:
            self.eta = shrink_eta(self.eta)
        reference = CurvePoint(float(self.xi), float(beta_new))
        if self.consecutive_rollbacks > 0:
            # Consecutive rollbacks: halve the step toward the safe level.
            self.delta = max(float(MIN_CHUNK), self.delta / 2.0)
        else:
            self.delta = extrapolate_chunk(
                self.last_point,
                self.prev_point,
                reference,
                params.gamma_tilde,
                fallback=max(float(MIN_CHUNK), self.delta / 2.0),
            )
        self.consecutive_rollbacks += 1
        self.mode = Mode.ROLLBACK
        self._restore(self.safe)

    def _commit(self, kind: str, beta_new: int) -> None:
        self.level += 1
        if self.records_by_diff:
            # The level is everything since the safe state: the chunk
            # plus any deferred flush, as one diff.
            merges = self._record_diff(self.safe.chain, self.chain)
        else:
            for pm in self.pending:
                self.builder.record(
                    self.level, pm.c1, pm.c2, pm.parent, pm.similarity
                )
            merges = len(self.pending)
        self.tracer.count("merges", merges)
        self.tracer.event(
            "sweep:level",
            level=self.level,
            kind=kind,
            merges=merges,
            beta=beta_new,
        )
        self.pending = []
        self.epochs.append(
            EpochRecord(
                kind=kind,
                level=self.level,
                chunk=self.delta,
                beta_before=self.beta,
                beta_after=beta_new,
                xi=self.xi,
                p=self.p,
            )
        )
        self.prev_point = self.last_point
        self.last_point = CurvePoint(float(self.xi), float(beta_new))
        self.beta = beta_new
        self.consecutive_rollbacks = 0
        self.mode = Mode.TAIL if beta_new <= self.num_edges / 2.0 else Mode.HEAD
        self.epoch_start_xi = self.xi
        self.safe = self._snapshot()
        # Saved states the sweep has passed can never be used again.
        self.rollback_list = [
            s for s in self.rollback_list if s.beta < self.beta and s.p > self.p
        ]

    def _record_jump_merges(self, target: _EpochState) -> None:
        """Record the merges a jump to ``target`` contributes to the level.

        The chained serial driver replays the saved state's pending
        merge events, skipping those already emitted (``pos < p``).
        Drivers without a global per-merge event stream — the batch
        engine and the parallel driver, both of which set
        ``records_by_diff`` — diff the partitions instead.  This is the
        *only* part of the jump the drivers do differently; all state
        mutation lives in :meth:`_try_jump` so it cannot drift between
        them.
        """
        if self.records_by_diff:
            # A jump adopts the target state wholesale, so its deferred
            # boundary merges (epsilon > 0) must be applied first: the
            # diff below is only well-defined when the target partition
            # coarsens the current one, and the current chain may already
            # contain merges the target still defers.  (The current
            # state's own deferred pairs all sit at earlier positions
            # than the target's, so the flushed target subsumes them.)
            if target.deferred is not None:
                target.chain = self._flushed(target.chain, *target.deferred)
                target.beta = target.chain.num_clusters()
                target.deferred = None
            self._clear_deferred()
            self._record_diff(self.chain, target.chain)
            return
        current_pos = self.p
        for pm in target.pending:
            if pm.pos >= current_pos:
                self.builder.record(
                    self.level, pm.c1, pm.c2, pm.parent, pm.similarity
                )

    def _try_jump(self) -> bool:
        """Reuse a saved rollback state as the next level, if one is sound.

        Candidates must be ahead of the current level (``beta' < beta``)
        and sound against it (``beta / beta' <= gamma``); the one with the
        *smallest* cluster count is taken — the most progress per level.
        """
        params = self.params
        candidates = [
            s
            for s in self.rollback_list
            if s.beta < self.beta and self.beta / s.beta <= params.gamma
        ]
        if not candidates:
            return False
        target = min(candidates, key=lambda s: s.beta)
        self.rollback_list.remove(target)

        self.level += 1
        self.tracer.count("jump_hits")
        self.tracer.event(
            "sweep:jump", level=self.level, beta=target.beta, p=target.p
        )
        self._record_jump_merges(target)
        self.epochs.append(
            EpochRecord(
                kind="reused",
                level=self.level,
                chunk=float(target.xi - self.xi),
                beta_before=self.beta,
                beta_after=target.beta,
                xi=target.xi,
                p=target.p,
            )
        )
        self.chain = target.chain.copy()
        self.xi = target.xi
        self.p = target.p
        self.prev_point = self.last_point
        self.last_point = CurvePoint(float(self.xi), float(target.beta))
        self.beta = target.beta
        self.mode = Mode.TAIL if self.beta <= self.num_edges / 2.0 else Mode.HEAD
        self.pending = []
        self.epoch_start_xi = self.xi
        self.safe = self._snapshot()
        self.rollback_list = [
            s for s in self.rollback_list if s.beta < self.beta and s.p > self.p
        ]
        return True

    def _estimate_next_chunk(self) -> None:
        params = self.params
        if self.mode is Mode.HEAD:
            self.delta = head_next_chunk(max(self.delta, float(MIN_CHUNK)), self.eta)
            return
        # Tail mode: Eq. (6) — the *closest* saved state ahead of us.
        reference: Optional[CurvePoint] = None
        ahead = [s for s in self.rollback_list if s.beta < self.beta]
        if ahead:
            closest = max(ahead, key=lambda s: s.beta)
            reference = CurvePoint(float(closest.xi), float(closest.beta))
        self.delta = extrapolate_chunk(
            self.last_point,
            self.prev_point,
            reference,
            params.gamma_tilde,
            fallback=self.delta,
        )

    def _merge_root(self) -> None:
        """Merge the remaining clusters into one at the root level."""
        roots = sorted(int(r) for r in self.chain.cluster_roots())
        if len(roots) <= 1:
            return
        self.level += 1
        base = roots[0]
        merges = 0
        for other in roots[1:]:
            outcome = self.chain.merge(base, other)
            if outcome.merged:
                merges += 1
                self.builder.record(
                    self.level, outcome.c1, outcome.c2, outcome.parent, None
                )
        self.tracer.count("merges", merges)

    def close_store(self) -> None:
        """Release the pair store (drops maps, removes any spill dir)."""
        self.store.close()


def _label_state(labels: np.ndarray) -> NumpyChainArray:
    """Wrap a fully compressed label array as the sweep's array ``C``."""
    return NumpyChainArray(len(labels), buffer=labels, initialized=True)


def coarse_sweep(
    graph: Graph,
    similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]] = None,
    params: Optional[CoarseParams] = None,
    edge_order: Optional[Sequence[int]] = None,
    tracer=None,
    engine: str = "chained",
    num_shards: Optional[int] = None,
    epsilon: float = 0.0,
    cancel: Optional[CancelToken] = None,
    storage: Optional[StorageSettings] = None,
) -> CoarseResult:
    """Run the coarse-grained sweeping algorithm of Section V.

    Parameters mirror :func:`repro.core.sweep.sweep`, with
    :class:`CoarseParams` controlling the dendrogram shape;
    ``similarity_map`` may be the dict or the columnar Phase-I output
    (a dict map is converted to columns once, on entry — identical
    results).  ``engine`` selects the chunk merge engine:
    ``"chained"`` (sequential MERGE, the oracle), ``"batch"``
    (per-level vectorized connected components), or ``"sharded"``
    (owner-computes contiguous C shards — ``num_shards`` of them,
    default ``DEFAULT_SERIAL_SHARDS`` — with host boundary
    reconciliation; ``epsilon > 0`` defers reconciliation within a
    ``(1 + epsilon)`` cluster-count bound).  ``tracer`` gets ``phase:sort``,
    ``phase:sweep``, and per-epoch ``sweep:chunk[i]`` spans (the batch
    engine adds per-round ``sweep:batch_round`` spans and a
    ``batch_rounds`` counter; the sharded engine ``sweep:shard[s]`` /
    ``sweep:reconcile`` spans and ``boundary_edges`` /
    ``reconcile_rounds`` / ``shard_bytes`` counters) plus level events
    and merge/rollback/jump counters.  ``cancel`` is an optional
    :class:`~repro.core.cancel.CancelToken` checked at every chunk
    boundary (:class:`~repro.errors.RunCancelledError` when triggered).
    ``storage`` selects the pair-store backing
    (:class:`~repro.core.storage.StorageSettings`): the default keeps
    list L in RAM; ``kind="mmap"`` builds the out-of-core store (with
    spill-and-merge when ``memory_budget_bytes`` is exceeded) and the
    sweep reads it through bounded windows — results are bitwise
    identical either way.  With mmap storage and no ``similarity_map``,
    Phase I runs *inside* the store init, streaming wedge chunks to
    spilled runs so no K2-sized array is ever resident.  The store — and
    its spill directory — is released before this returns, even on
    cancellation or error.
    """
    # With an mmap store there is no need to materialize Phase I here:
    # the store's streaming init computes similarities chunk by chunk.
    sim = similarity_map
    if sim is None and not (storage is not None and storage.kind == "mmap"):
        sim = compute_similarity_map(graph)
    sweeper = _CoarseSweeper(
        graph,
        sim,
        params or CoarseParams(),
        edge_order,
        tracer,
        engine=engine,
        num_shards=num_shards,
        epsilon=epsilon,
        cancel=cancel,
        storage=storage,
    )
    try:
        return sweeper.run()
    finally:
        sweeper.close_store()


# ----------------------------------------------------------------------
# Fixed-size chunking (the exploratory experiments behind Figure 2)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FixedChunkLevel:
    """Statistics of one fixed-size chunk level (Figure 2(1)/(2) data)."""

    level: int
    pairs_processed: int
    clusters: int
    changes: int


def fixed_chunk_sweep(
    graph: Graph,
    similarity_map: Optional[Union[SimilarityMap, SimilarityColumns]] = None,
    chunk_size: int = 1000,
    edge_order: Optional[Sequence[int]] = None,
) -> List[FixedChunkLevel]:
    """Sweep with fixed-size chunks, recording per-level statistics.

    This is the instrumentation run behind Figure 2: incident edge pairs
    are processed in similarity order in chunks of ``chunk_size``, and at
    each boundary the cluster count and the number of changes applied to
    array ``C`` are recorded.
    """
    if chunk_size < 1:
        raise ParameterError(f"chunk_size must be >= 1, got {chunk_size}")
    sim = similarity_map if similarity_map is not None else compute_similarity_map(graph)
    if isinstance(sim, SimilarityColumns):
        # This exploratory path is not performance-critical; reuse the
        # dict loop via lossless conversion.
        sim = sim.to_similarity_map()
    index = build_edge_index(graph, edge_order)
    chain = ChainArray(graph.num_edges)

    levels: List[FixedChunkLevel] = []
    processed = 0
    boundary = chunk_size
    level = 1
    changes_mark = 0
    for similarity, (vi, vj), commons in sim.sorted_pairs():
        for vk in commons:
            chain.merge(
                index[graph.edge_id(vi, vk)], index[graph.edge_id(vj, vk)]
            )
        processed += len(commons)
        if processed >= boundary:
            levels.append(
                FixedChunkLevel(
                    level=level,
                    pairs_processed=processed,
                    clusters=chain.num_clusters(),
                    changes=chain.changes - changes_mark,
                )
            )
            changes_mark = chain.changes
            level += 1
            while boundary <= processed:
                boundary += chunk_size
    if processed and (not levels or levels[-1].pairs_processed != processed):
        levels.append(
            FixedChunkLevel(
                level=level,
                pairs_processed=processed,
                clusters=chain.num_clusters(),
                changes=chain.changes - changes_mark,
            )
        )
    return levels
