"""Cooperative cancellation: the token and the sweep-loop checkpoints."""

from __future__ import annotations

import importlib
import threading

import pytest

from repro.core.cancel import CancelToken
from repro.core.coarse import CoarseParams, coarse_sweep
from repro.core.linkclust import LinkClustering
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.errors import RunCancelledError
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.obs import MemorySink, Tracer
from repro.obs.sinks import Sink

# The module, not the ``sweep`` function ``repro.core`` re-exports.
sweep_module = importlib.import_module("repro.core.sweep")


@pytest.fixture()
def graph():
    return generators.caveman_graph(4, 5)


class TestCancelToken:
    def test_initial_state(self):
        token = CancelToken()
        assert not token.cancelled()
        assert token.reason is None
        token.raise_if_cancelled()  # no-op while untripped

    def test_cancel_is_idempotent_first_reason_wins(self):
        token = CancelToken()
        token.cancel("first")
        token.cancel("second")
        assert token.cancelled()
        assert token.reason == "first"

    def test_raise_carries_reason(self):
        token = CancelToken()
        token.cancel("client went away")
        with pytest.raises(RunCancelledError, match="client went away") as info:
            token.raise_if_cancelled()
        assert info.value.reason == "client went away"

    def test_cross_thread_visibility(self):
        token = CancelToken()
        seen = threading.Event()

        def trip():
            token.cancel("from other thread")
            seen.set()

        thread = threading.Thread(target=trip)
        thread.start()
        thread.join()
        assert seen.is_set() and token.cancelled()


class _TripOnCheckpoint(CancelToken):
    """Cancels itself on its ``n``-th ``raise_if_cancelled()`` call."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n
        self.calls = 0

    def raise_if_cancelled(self) -> None:
        self.calls += 1
        if self.calls == self.n:
            self.cancel(f"checkpoint {self.n}")
        super().raise_if_cancelled()


class _CancelAfterRecords(Sink):
    """Trips the token once the tracer has emitted ``limit`` records."""

    def __init__(self, token: CancelToken, limit: int):
        self.token = token
        self.limit = limit
        self.count = 0

    def emit(self, record) -> None:
        self.count += 1
        if self.count >= self.limit:
            self.token.cancel("enough records")


class TestSweepCancellation:
    def test_pre_cancelled_fine_sweep_raises(self, graph):
        sim = compute_similarity_map(graph)
        token = CancelToken()
        token.cancel("before start")
        with pytest.raises(RunCancelledError, match="before start"):
            sweep(graph, sim, cancel=token)

    def test_pre_cancelled_columnar_fine_sweep_raises(self, graph, monkeypatch):
        monkeypatch.setattr(sweep_module, "FILTER_BLOCK", 7)
        token = CancelToken()
        token.cancel("before start")
        with pytest.raises(RunCancelledError, match="before start"):
            sweep(graph, fast_similarity_columns(graph), cancel=token)

    def test_mid_sweep_columnar_cancel_raises(self, graph, monkeypatch):
        # Small blocks give the columnar fine sweep one checkpoint per
        # block; the token trips at the second, after one block ran.
        monkeypatch.setattr(sweep_module, "FILTER_BLOCK", 7)
        columns = fast_similarity_columns(graph)
        assert columns.k2 > 2 * graph.num_edges  # three or more blocks
        token = _TripOnCheckpoint(2)
        with pytest.raises(RunCancelledError, match="checkpoint 2"):
            sweep(graph, columns, cancel=token)
        assert token.calls == 2

    def test_pre_cancelled_coarse_sweep_raises(self, graph):
        sim = compute_similarity_map(graph)
        token = CancelToken()
        token.cancel()
        with pytest.raises(RunCancelledError):
            coarse_sweep(graph, sim, CoarseParams(), cancel=token)

    def test_mid_sweep_cancel_flushes_partial_spans(self, graph):
        # Trip the token from inside the trace stream: after a few
        # records the next chunk-boundary checkpoint must raise, and the
        # spans opened before that point must still be in the sink
        # (span __exit__ emits on exception).
        sim = compute_similarity_map(graph)
        token = CancelToken()
        memory = MemorySink()
        tracer = Tracer([memory, _CancelAfterRecords(token, 3)])
        with pytest.raises(RunCancelledError, match="enough records"):
            coarse_sweep(
                graph, sim, CoarseParams(delta0=5.0), tracer=tracer, cancel=token
            )
        assert len(memory.records) >= 3
        names = memory.span_names()
        assert any(name.startswith("sweep:chunk") for name in names)

    def test_uncancelled_token_changes_nothing(self, graph):
        sim = compute_similarity_map(graph)
        baseline = sweep(graph, sim)
        watched = sweep(graph, sim, cancel=CancelToken())
        assert watched.dendrogram.merges == baseline.dendrogram.merges


class TestLinkClusteringCancel:
    def test_run_accepts_and_propagates_token(self, graph):
        token = CancelToken()
        token.cancel("caller gave up")
        lc = LinkClustering(graph, cancel=token)
        with pytest.raises(RunCancelledError, match="caller gave up"):
            lc.run()

    def test_parallel_coarse_run_cancels(self, graph):
        token = CancelToken()
        token.cancel()
        lc = LinkClustering(
            graph, coarse=True, backend="thread", num_workers=2, cancel=token
        )
        with pytest.raises(RunCancelledError):
            lc.run()
