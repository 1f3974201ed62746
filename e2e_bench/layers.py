"""Traced pass: each layer's public functions called directly, in facade order.

The benchmark owns every span here; nothing is added to the program.
Where one public call covers two layers (the sweep call builds the pair
store before sweeping), the split comes from the program's own
``phase:sweep`` span, read from a ``Tracer([MemorySink()])`` passed
through the public ``tracer=`` argument, along with the program's store
and sweep counters.

Layer time metrics partition the traced repetition:
``phase1.busy_s + store.build_s + sweep.busy_s + cluster.best_cut_s +
cluster.partition_s`` plus runtime set-up and shutdown.  The
``runtime.*`` and ``store.window_s`` times are nested inside
``sweep.busy_s`` and are breakdowns of it, not further terms.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

from repro.cluster.density_scan import best_cut
from repro.core import LinkClusteringResult, RunConfig
from repro.core.registry import make_runtime
from repro.core.storage import StorageSettings
from repro.graph.graph import Graph
from repro.obs import MemorySink, Tracer
from repro.parallel.runtime import RuntimeStats

__all__ = ["SpanLog", "traced_pass"]


class SpanLog:
    """In-memory span records, written out as JSON lines when the run ends.

    Times are seconds since the log was created, on ``time.perf_counter``.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.t0 = time.perf_counter()
        self.records: List[Dict[str, Any]] = []
        self._stack: List[str] = []

    def add(self, name: str, start: float, end: float, parent: Optional[str], rep: str) -> None:
        self.records.append(
            {
                "name": name,
                "start": start - self.t0,
                "end": end - self.t0,
                "parent": parent,
                "workload": self.workload,
                "rep": rep,
            }
        )

    @contextmanager
    def span(self, name: str, rep: str) -> Iterator[Dict[str, float]]:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(name)
        times: Dict[str, float] = {"start": time.perf_counter()}
        try:
            yield times
        finally:
            times["end"] = time.perf_counter()
            self._stack.pop()
            self.add(name, times["start"], times["end"], parent, rep)

    def add_program_spans(self, sink: MemorySink, base: float, parent: str, rep: str) -> None:
        """Copy a program trace, re-based on ``base`` (perf_counter at tracer creation)."""
        for s in sink.spans:
            self.add(s.name, base + s.start, base + s.start + s.duration, s.parent or parent, rep)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")


def _dur(times: Dict[str, float]) -> float:
    return times["end"] - times["start"]


def traced_pass(
    graph: Graph, config: RunConfig, runtime_spec, log: SpanLog, rep: str
) -> Dict[str, Any]:
    """One repetition through the layers: its layer metrics and its answer."""
    coarse = config.coarse is not None
    sink = MemorySink()
    metrics: Dict[str, float] = {}
    runtime = None
    with log.span("repetition", rep) as whole:
        cols = None
        if config.pairs_format != "mmap":
            with log.span("phase1", rep) as t:
                if config.backend == "serial":
                    from repro.fast.similarity import fast_similarity_columns

                    cols = fast_similarity_columns(graph)
                else:
                    from repro.parallel.par_init import parallel_similarity_columns

                    cols = parallel_similarity_columns(
                        graph, num_workers=config.num_workers, backend=config.backend
                    )
            metrics["phase1.busy_s"] = _dur(t)
            metrics["phase1.k2"] = cols.k2
            metrics["phase1.wedges_per_s"] = cols.k2 / _dur(t)
        if runtime_spec is not None:
            with log.span("runtime:make", rep):
                runtime = make_runtime(*runtime_spec)
        try:
            with log.span("sweep_call", rep) as call:
                base = time.perf_counter()
                tracer = Tracer([sink])
                if not coarse:
                    from repro.core.sweep import sweep

                    out = sweep(graph, cols, tracer=tracer)
                elif runtime is not None:
                    from repro.parallel.par_sweep import parallel_coarse_sweep

                    out = parallel_coarse_sweep(
                        graph,
                        cols,
                        params=config.coarse,
                        num_workers=config.num_workers,
                        backend=runtime,
                        tracer=tracer,
                        engine=config.engine,
                    )
                else:
                    from repro.core.coarse import coarse_sweep

                    storage = None
                    if config.pairs_format == "mmap":
                        storage = StorageSettings(
                            kind="mmap",
                            storage_dir=config.storage_dir,
                            memory_budget_bytes=config.memory_budget_bytes,
                        )
                    out = coarse_sweep(
                        graph,
                        cols,
                        params=config.coarse,
                        tracer=tracer,
                        engine=config.engine,
                        storage=storage,
                    )
        finally:
            if runtime is not None:
                with log.span("runtime:shutdown", rep):
                    runtime.shutdown()
        result = LinkClusteringResult(
            graph=graph,
            dendrogram=out.dendrogram,
            chain=out.chain,
            edge_index=out.edge_index,
            k1=out.k1,
            k2=out.k2,
            num_levels=out.num_levels,
            config=config,
        )
        with log.span("cluster:best_cut", rep) as t:
            level, density = best_cut(graph, result.dendrogram, result.edge_index)
        metrics["cluster.best_cut_s"] = _dur(t)
        with log.span("cluster:partition", rep) as t:
            result.partition_at_level(level)
        metrics["cluster.partition_s"] = _dur(t)
    log.add_program_spans(sink, base, "sweep_call", rep)

    sweep_start = next(base + s.start for s in sink.spans if s.name == "phase:sweep")
    metrics["store.build_s"] = sweep_start - call["start"]
    metrics["sweep.busy_s"] = call["end"] - sweep_start
    metrics["repetition_s"] = _dur(whole)
    counters = tracer.counters
    if cols is None:  # streaming store: Phase I ran inside the store build
        metrics["phase1.busy_s"] = 0.0
        metrics["phase1.k2"] = out.k2
        metrics["phase1.wedges_per_s"] = 0.0
    metrics["store.bytes"] = counters.get("store_bytes", 0)
    metrics["store.spill_runs"] = counters.get("spill_runs", 0)
    metrics["store.bytes_spilled"] = counters.get("bytes_spilled", 0)
    metrics["store.window_loads"] = counters.get("window_loads", 0)
    metrics["store.window_s"] = sum(s.duration for s in sink.spans if s.name == "storage:window")
    scanned = out.pairs_processed if coarse else out.k2
    merges = result.dendrogram.num_merges
    chunks = sum(1 for s in sink.spans if s.name.startswith("sweep:chunk["))
    rollbacks = counters.get("rollbacks", 0)
    metrics["sweep.wedges_scanned"] = scanned
    metrics["sweep.merges"] = merges
    metrics["sweep.merge_yield"] = merges / scanned if scanned else 0.0
    metrics["sweep.levels"] = out.num_levels
    metrics["sweep.chunks"] = chunks
    metrics["sweep.rollbacks"] = rollbacks
    metrics["sweep.rollback_frac"] = rollbacks / chunks if chunks else 0.0
    stats = runtime.stats if runtime is not None else RuntimeStats()
    metrics["runtime.spawn_s"] = stats.spawn_time
    metrics["runtime.copy_s"] = stats.copy_time
    metrics["runtime.compute_s"] = stats.compute_time
    metrics["runtime.merge_s"] = stats.merge_time
    metrics["runtime.tasks"] = stats.tasks
    return {
        "metrics": metrics,
        "dendrogram": result.dendrogram,
        "edge_index": result.edge_index,
        "density": density,
    }
