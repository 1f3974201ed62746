"""Numpy-backed chain array for shared-memory parallel sweeping.

CPython threads share memory but serialize bytecode (the GIL);
processes parallelize but normally pay pickling for every array copy
that crosses the boundary.  :class:`NumpyChainArray` stores array ``C``
in an ``int64`` numpy buffer that can live inside a
``multiprocessing.shared_memory`` block, so worker processes operate on
their own slice of one shared allocation and the parent merges results
without any serialization — the "multiprocessing workaround" for the
GIL that a production deployment of the paper's Section VI-B would use
on CPython.

Semantics are identical to :class:`repro.cluster.unionfind.ChainArray`
(same MERGE, same invariants); the equivalence is property-tested.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.cluster.unionfind import MergeOutcome
from repro.errors import ClusteringError

__all__ = ["NumpyChainArray"]


class NumpyChainArray:
    """The paper's array ``C`` over a numpy int64 buffer.

    Parameters
    ----------
    n:
        Number of items.
    buffer:
        Optional pre-allocated ``int64`` array of length ``n`` (e.g. a
        view into shared memory).  When given it is *used in place* and
        initialized to the identity unless ``initialized=True``.
    """

    __slots__ = ("_c", "_changes", "_accesses", "_clusters")

    def __init__(
        self,
        n: int,
        buffer: Optional[np.ndarray] = None,
        initialized: bool = False,
    ):
        if n < 0:
            raise ClusteringError(f"need n >= 0 items, got {n}")
        if buffer is not None:
            if buffer.shape != (n,) or buffer.dtype != np.int64:
                raise ClusteringError(
                    f"buffer must be int64 of shape ({n},), got "
                    f"{buffer.dtype} {buffer.shape}"
                )
            self._c = buffer
            if not initialized:
                self._c[:] = np.arange(n, dtype=np.int64)
        else:
            self._c = np.arange(n, dtype=np.int64)
        if buffer is not None and initialized:
            self._clusters = int(
                np.count_nonzero(self._c == np.arange(n, dtype=np.int64))
            )
        else:
            self._clusters = n
        self._changes = 0
        self._accesses = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._c)

    @property
    def changes(self) -> int:
        return self._changes

    @property
    def accesses(self) -> int:
        return self._accesses

    def chain(self, i: int) -> List[int]:
        """``F(i)``: ids on the chain from ``i`` to its self-loop."""
        self._check(i)
        c = self._c
        out = [i]
        while True:
            nxt = int(c[i])
            if nxt == i:
                break
            i = nxt
            out.append(i)
        return out

    def find(self, i: int) -> int:
        self._check(i)
        c = self._c
        while True:
            nxt = int(c[i])
            if nxt == i:
                return i
            if nxt > i:
                raise ClusteringError(
                    f"chain invariant violated: C[{i}] = {nxt} > {i}"
                )
            i = nxt

    def merge(self, i1: int, i2: int) -> MergeOutcome:
        f1 = self.chain(i1)
        f2 = self.chain(i2)
        self._accesses += len(f1) + len(f2)
        c1 = f1[-1]
        c2 = f2[-1]
        cmin = c1 if c1 < c2 else c2
        c = self._c
        changes = 0
        for j in f1:
            if c[j] != cmin:
                c[j] = cmin
                changes += 1
        for j in f2:
            if c[j] != cmin:
                c[j] = cmin
                changes += 1
        self._changes += changes
        merged = c1 != c2
        if merged:
            self._clusters -= 1
        return MergeOutcome(merged=merged, c1=c1, c2=c2, parent=cmin)

    def rewrite(self, members, target: int) -> int:
        """Point every id in ``members`` at ``target`` (target <= id).

        Same contract as :meth:`ChainArray.rewrite`; lets the corrected
        array-merge scheme operate on either implementation.
        """
        c = self._c
        changes = 0
        for e in members:
            self._check(e)
            if target > e:
                raise ClusteringError(
                    f"rewrite target {target} > member {e} breaks the chain invariant"
                )
            old = int(c[e])
            if old != target:
                if old == e:
                    self._clusters -= 1  # e stops being a root
                elif target == e:
                    self._clusters += 1  # e becomes a root
                c[e] = target
                changes += 1
        self._changes += changes
        return changes

    def num_clusters(self) -> int:
        """Cluster count, maintained in O(1) (see ChainArray)."""
        return self._clusters

    def count_roots(self) -> int:
        """O(n) root scan; always equals :meth:`num_clusters` (tested)."""
        n = len(self._c)
        return int(np.count_nonzero(self._c == np.arange(n, dtype=np.int64)))

    def cluster_roots(self) -> np.ndarray:
        """Root id of every cluster, ascending (one vectorized scan)."""
        c = self._c
        return np.flatnonzero(c == np.arange(len(c), dtype=np.int64))

    def labels(self) -> List[int]:
        return [self.find(i) for i in range(len(self._c))]

    def raw(self) -> np.ndarray:
        """The underlying buffer (mutating it voids all invariants)."""
        return self._c

    def copy(self) -> "NumpyChainArray":
        """Deep copy with the same counters (epoch snapshots, rollback)."""
        dup = NumpyChainArray.__new__(NumpyChainArray)
        dup._c = self._c.copy()
        dup._clusters = self._clusters
        dup._changes = self._changes
        dup._accesses = self._accesses
        return dup

    def copy_into(self, buffer: np.ndarray) -> "NumpyChainArray":
        """Duplicate this array's state into ``buffer`` (no allocation)."""
        if buffer.shape != self._c.shape or buffer.dtype != np.int64:
            raise ClusteringError("buffer shape/dtype mismatch")
        buffer[:] = self._c
        return NumpyChainArray(len(self._c), buffer=buffer, initialized=True)

    def _check(self, i: int) -> None:
        if not 0 <= i < len(self._c):
            raise ClusteringError(
                f"item {i} out of range for NumpyChainArray of size {len(self._c)}"
            )
