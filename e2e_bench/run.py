"""Benchmark of record for ``LinkClustering.run()``.

Usage (from the repository root)::

    python3 e2e_bench/run.py --workload fine-assoc --seed 1 --seconds 30 --trace 0

``--trace 0`` times ``run()`` + ``best_partition()`` through the public
facade with tracing off and prints the end-to-end metrics, rescaled to
a nominal machine speed measured by a reference block timed between
repetitions (see ``reference.py``); ``--trace 1``
adds a traced pass through the layers (see ``layers.py``) and prints the
per-layer metrics.  Every repetition is checked against an oracle digest
computed during set-up; a repetition that raises, disagrees with the
oracle, leaves files in the benchmark's storage directory or leaves
threads alive counts as failed and contributes no timing.  The last
stdout line is the JSON result; the line before it records the
workload's graph sizes and set-up breakdown.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import itertools
import json
import os
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_REPS = 2
#: Reference-block samples at the start and at the end of set-up.
REF_SETUP_SAMPLES = 2
#: Reference-block time before each timed repetition, as a share of the
#: previous repetition's time.
REF_SHARE = 0.1
MIN_TRACE_REPS = 2
THREAD_GRACE_S = 2.0
SETUP_BUILDS = 3

END_TO_END_UNITS = {"run_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "phase1.busy_s": "s",
    "phase1.k2": "count",
    "phase1.wedges_per_s": "1/s",
    "store.build_s": "s",
    "store.bytes": "bytes",
    "store.spill_runs": "count",
    "store.bytes_spilled": "bytes",
    "store.window_loads": "count",
    "store.window_s": "s",
    "sweep.busy_s": "s",
    "sweep.wedges_scanned": "count",
    "sweep.merges": "count",
    "sweep.merge_yield": "ratio",
    "sweep.levels": "count",
    "sweep.chunks": "count",
    "sweep.rollbacks": "count",
    "sweep.rollback_frac": "ratio",
    "runtime.spawn_s": "s",
    "runtime.copy_s": "s",
    "runtime.compute_s": "s",
    "runtime.merge_s": "s",
    "runtime.tasks": "count",
    "runtime.speedup_t2": "ratio",
    "cluster.best_cut_s": "s",
    "cluster.partition_s": "s",
    "unattributed_s": "s",
    "obs.trace_overhead_frac": "ratio",
    "failed_frac": "ratio",
}
# The layer times that partition a repetition (see layers.py).
LAYER_TIMES = (
    "phase1.busy_s",
    "store.build_s",
    "sweep.busy_s",
    "cluster.best_cut_s",
    "cluster.partition_s",
)


class PeakMemory:
    """Per-repetition resident high-water mark.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM`` to the
    current resident size, so the mark read afterwards covers only what
    ran since the reset.  Before the reset, glibc's ``malloc_trim(0)``
    hands freed heap back to the system, so the mark starts from the live
    set rather than from whatever earlier runs (the oracle pass peaks near
    400 MiB) left cached in the allocator, which varied by 50 MiB between
    processes.  Where the reset is refused, the mark is the
    process-lifetime ``VmHWM``; ``method`` says which applies.
    """

    def __init__(self) -> None:
        try:
            self._trim = ctypes.CDLL("libc.so.6").malloc_trim
        except (OSError, AttributeError):
            self._trim = None
        self._clear = True
        try:
            self.reset()
        except OSError:
            self._clear = False
        parts = (["malloc_trim"] if self._trim else []) + (
            ["clear_refs", "VmHWM"] if self._clear else ["VmHWM-lifetime"]
        )
        self.method = "+".join(parts)

    def reset(self) -> None:
        if self._trim is not None:
            self._trim(0)
        if self._clear:
            with open("/proc/self/clear_refs", "w") as fh:
                fh.write("5")

    @staticmethod
    def peak_mib() -> float:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise OSError("VmHWM missing from /proc/self/status")


class Bench:
    """Set-up state of one workload and the checks every repetition passes."""

    def __init__(self, workload, seed: int, scale: str) -> None:
        from repro.core.metrics import count_k2

        from digest import level_digest
        from reference import SpeedReference
        from workloads import oracle_run

        self.workload = workload
        self.reference = SpeedReference()
        self.reference.sample(REF_SETUP_SAMPLES)
        self.storage_dir = ROOT / ".bench_out" / f"storage-{os.getpid()}"
        self.storage_dir.mkdir(parents=True, exist_ok=True)
        self.memory = PeakMemory()

        builds = []
        for _ in range(SETUP_BUILDS):
            t0 = time.perf_counter()
            graph = workload.build_graph(seed, scale)
            builds.append(time.perf_counter() - t0)
        self.graph = graph
        self.k2 = count_k2(graph)
        self.config = workload.make_config(graph, self.k2, str(self.storage_dir))

        t0 = time.perf_counter()
        dendrogram, edge_index, self.k1, k2 = oracle_run(graph, self.config)
        from repro.cluster.density_scan import best_cut

        self.oracle_digest = level_digest(dendrogram, edge_index)
        self.oracle_density = best_cut(graph, dendrogram, edge_index)[1]
        self.oracle_levels = dendrogram.num_levels
        oracle_s = time.perf_counter() - t0
        if k2 != self.k2:
            raise RuntimeError(f"oracle K2 {k2} != degree-sequence K2 {self.k2}")
        del dendrogram, edge_index

        t0 = time.perf_counter()
        self._warm_up()
        warm_s = time.perf_counter() - t0

        self.reference.sample(REF_SETUP_SAMPLES)

        self.setup = {
            "graph_build_s": statistics.median(builds),
            "oracle_s": oracle_s,
            "warm_up_s": warm_s,
        }
        # The oracle pass is the benchmark's own check, run once; its time
        # varied 4-10 s between processes on one seed, so it is reported in
        # ``setup`` but kept out of ``setup_s``.
        self.setup_wall_s = self.setup["graph_build_s"] + self.setup["warm_up_s"]

    def _warm_up(self) -> None:
        """One run of the workload's config on a small graph (imports, lazy set-up)."""
        from repro.core import LinkClustering
        from repro.core.metrics import count_k2
        from repro.graph.generators import caveman_graph

        g = caveman_graph(8, 10)
        config = self.workload.make_config(g, count_k2(g), str(self.storage_dir))
        runtime = self.make_runtime()
        try:
            LinkClustering(g, config=config, runtime=runtime).run().best_partition()
        finally:
            if runtime is not None:
                runtime.shutdown()

    def make_runtime(self):
        if self.workload.runtime is None:
            return None
        from repro.core.registry import make_runtime

        return make_runtime(*self.workload.runtime)

    def check(self, dendrogram, edge_index, density: float) -> Optional[str]:
        """Failure reason of a finished repetition, ``None`` when it is right."""
        from digest import level_digest

        if level_digest(dendrogram, edge_index) != self.oracle_digest:
            return "digest differs from oracle"
        if abs(density - self.oracle_density) > 1e-9 * max(1.0, abs(self.oracle_density)):
            return f"best-cut density {density!r} != oracle {self.oracle_density!r}"
        return None

    def guarded(self, body: Callable[[], Any]) -> Dict[str, Any]:
        """Run one repetition with leak checks; returns its outcome record."""
        gc.collect()
        threads_before = set(threading.enumerate())
        files_before = set(os.listdir(self.storage_dir))
        reason = None
        out = None
        try:
            out = body()
        except Exception:  # a repetition that raises is counted, not fatal
            reason = "raised: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
            traceback.print_exc(file=sys.stderr)
        leftovers = set(os.listdir(self.storage_dir)) - files_before
        if leftovers:
            reason = reason or f"left {sorted(leftovers)} in storage_dir"
            for name in leftovers:
                path = self.storage_dir / name
                if path.is_dir():
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    path.unlink(missing_ok=True)
        deadline = time.perf_counter() + THREAD_GRACE_S
        extra = [t for t in threading.enumerate() if t not in threads_before]
        for t in extra:
            t.join(timeout=max(0.0, deadline - time.perf_counter()))
        alive = [t.name for t in extra if t.is_alive()]
        if alive:
            reason = reason or f"threads still alive after shutdown: {alive}"
        if out is not None and reason is None:
            reason = self.check(out.pop("dendrogram"), out.pop("edge_index"), out["density"])
        if reason is not None:
            print(f"repetition failed: {reason}", file=sys.stderr)
        return {"ok": reason is None, "reason": reason, "out": out}

    def e2e_rep(self, config=None) -> Dict[str, Any]:
        """One timed ``run()`` + ``best_partition()`` through the facade, tracing off."""
        from repro.core import LinkClustering

        config = config or self.config

        def body() -> Dict[str, Any]:
            self.memory.reset()
            t0 = time.perf_counter()
            runtime = self.make_runtime() if config.num_workers > 1 else None
            try:
                result = LinkClustering(self.graph, config=config, runtime=runtime).run()
                _, _, density = result.best_partition()
            finally:
                if runtime is not None:
                    runtime.shutdown()
            seconds = time.perf_counter() - t0
            return {
                "seconds": seconds,
                "rss_mib": self.memory.peak_mib(),
                "dendrogram": result.dendrogram,
                "edge_index": result.edge_index,
                "density": density,
            }

        return self.guarded(body)

    def traced_rep(self, log, rep: str) -> Dict[str, Any]:
        from layers import traced_pass

        return self.guarded(
            lambda: traced_pass(self.graph, self.config, self.workload.runtime, log, rep)
        )

    def close(self) -> None:
        shutil.rmtree(self.storage_dir, ignore_errors=True)


def repeat(rep: Callable[[], Dict[str, Any]], seconds: float, min_reps: int) -> List[Dict[str, Any]]:
    """Run ``rep`` at least ``min_reps`` times, then while another fits in ``seconds``.

    A repetition is expected to take as long as the previous one, so the
    loop ends within ``seconds`` unless ``min_reps`` need longer.
    """
    start = time.perf_counter()
    reps: List[Dict[str, Any]] = []
    last = 0.0
    while len(reps) < min_reps or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        reps.append(rep())
        last = time.perf_counter() - t0
    return reps


def median_of(reps: List[Dict[str, Any]], key: str) -> float:
    return statistics.median(r["out"][key] for r in reps if r["ok"])


def good_times(reps: List[Dict[str, Any]]) -> List[float]:
    return [r["out"]["seconds"] for r in reps if r["ok"]]


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def measure_e2e(bench: Bench, seconds: float) -> Dict[str, Any]:
    """Timed repetitions, each after ``REF_SHARE`` of its time in reference samples.

    ``run_s`` and ``setup_s`` are wall seconds times the run's reference
    scale (nominal block time over this run's mean block time).
    """

    last = [0.0]

    def rep() -> Dict[str, Any]:
        bench.reference.sample_for(REF_SHARE * last[0])
        out = bench.e2e_rep()
        if out["ok"]:
            last[0] = out["out"]["seconds"]
        return out

    reps = repeat(rep, seconds, MIN_REPS)
    metrics = {}
    if any(r["ok"] for r in reps):
        scale = bench.reference.scale
        metrics = metric_block(
            {
                "run_s": median_of(reps, "seconds") * scale,
                "peak_rss_mb": median_of(reps, "rss_mib"),
                "setup_s": bench.setup_wall_s * scale,
            },
            END_TO_END_UNITS,
        )
    return {"reps": reps, "metrics": metrics, "times": good_times(reps)}


def measure_layers(bench: Bench, seconds: float, spans_out: Path) -> Dict[str, Any]:
    """Untraced baseline, traced layer pass and (with a runtime) the serial run."""
    from layers import SpanLog

    with_serial = bench.workload.runtime is not None
    share = 0.35 if with_serial else 0.5
    base = repeat(bench.e2e_rep, seconds * share, MIN_TRACE_REPS)
    log = SpanLog(bench.workload.name)
    counter = itertools.count()
    traced = repeat(
        lambda: bench.traced_rep(log, f"traced-{next(counter)}"),
        seconds * share,
        MIN_TRACE_REPS,
    )
    serial: List[Dict[str, Any]] = []
    if with_serial:
        serial_config = bench.config.replace(backend="serial", num_workers=1)
        serial = repeat(
            lambda: bench.e2e_rep(serial_config), seconds * (1 - 2 * share), MIN_TRACE_REPS
        )
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    log.write(str(spans_out))

    reps = base + traced + serial
    failed = sum(1 for r in reps if not r["ok"])
    good = [r["out"]["metrics"] for r in traced if r["ok"]]
    metrics: Dict[str, Any] = {}
    if good and any(r["ok"] for r in base) and (not with_serial or any(r["ok"] for r in serial)):
        values = {name: statistics.median(m[name] for m in good) for name in good[0]}
        run_s = median_of(base, "seconds")
        values["unattributed_s"] = run_s - sum(values[name] for name in LAYER_TIMES)
        values["obs.trace_overhead_frac"] = values.pop("repetition_s") / run_s - 1.0
        values["runtime.speedup_t2"] = (
            median_of(serial, "seconds") / run_s if with_serial else 0.0
        )
        values["failed_frac"] = failed / len(reps)
        metrics = metric_block(values, PER_LAYER_UNITS)
    return {"reps": reps, "metrics": metrics, "times": good_times(base)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("small", "tiny"), default="small")
    parser.add_argument(
        "--spans-out",
        type=Path,
        default=None,
        help="span JSONL of the traced pass (default .bench_out/spans-<workload>-<seed>.jsonl)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    workload = WORKLOADS[args.workload]

    bench = Bench(workload, seed, args.scale)
    try:
        if args.trace:
            spans_out = args.spans_out or (
                ROOT / ".bench_out" / f"spans-{workload.name}-{seed}.jsonl"
            )
            measured = measure_layers(bench, args.seconds, spans_out)
        else:
            measured = measure_e2e(bench, args.seconds)
    finally:
        bench.close()

    reps = measured["reps"]
    failed = sum(1 for r in reps if not r["ok"])
    info = {
        "workload": workload.name,
        "seed": seed,
        "scale": args.scale,
        "num_vertices": bench.graph.num_vertices,
        "num_edges": bench.graph.num_edges,
        "k1": bench.k1,
        "k2": bench.k2,
        "levels": bench.oracle_levels,
        "oracle_digest": bench.oracle_digest,
        "memory_method": bench.memory.method,
        "setup": bench.setup,
        "setup_wall_s": bench.setup_wall_s,
        "rep_seconds": measured["times"],
        "reference_mean_s": bench.reference.mean_s,
        "reference_samples": len(bench.reference.samples),
        "reference_scale": bench.reference.scale,
        "failures": [r["reason"] for r in reps if not r["ok"]],
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(reps),
                "failed": failed,
                "metrics": measured["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
