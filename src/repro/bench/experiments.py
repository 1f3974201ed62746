"""One function per paper figure: regenerate the evaluation (Section VII).

Each ``fig*`` function runs the workload, prints a table whose rows/series
match the paper's plot, and returns the table (plus raw data where the
figure is a curve).  ``benchmarks/`` wraps these for pytest-benchmark and
EXPERIMENTS.md records paper-vs-measured outcomes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.nbm import edge_similarity_matrix, nbm_cluster
from repro.bench.datasets import ScalePreset, alpha_sweep, current_scale
from repro.bench.memory import deep_sizeof, measure_peak
from repro.bench.runner import ResultTable
from repro.bench.timing import time_call
from repro.core.coarse import CoarseParams, CoarseResult, coarse_sweep, fixed_chunk_sweep
from repro.core.metrics import compute_metrics
from repro.core.sigmoid import PAPER_PARAMS, fit_sigmoid, normalize_curve, rmse_against
from repro.core.similarity import compute_similarity_map
from repro.core.sweep import sweep
from repro.graph.graph import Graph
from repro.parallel.workmodel import InitWorkModel, SweepWorkModel

__all__ = [
    "coarse_params_for",
    "fig2_1_changes_on_c",
    "fig2_2_sigmoid_fit",
    "fig4_1_statistics",
    "fig4_2_execution_time",
    "fig4_3_memory",
    "fig5_1_epoch_breakdown",
    "fig5_2_time_memory",
    "fig6_1_init_speedup",
    "fig6_2_sweep_speedup",
]

WORKER_COUNTS = (1, 2, 4, 6)


def coarse_params_for(graph: Graph, k2: Optional[int] = None) -> CoarseParams:
    """Section VII-B's parameter recipe scaled to a graph.

    gamma = 2 and phi = 100 as in the paper (phi shrinks for graphs with
    few edges so the cutoff stays meaningful); the initial chunk size
    delta0 grows with the workload size, mirroring the paper's
    100..10000 progression over its alpha sweep.
    """
    if k2 is None:
        k2 = compute_metrics(graph).k2
    phi = max(2, min(100, graph.num_edges // 10))
    delta0 = float(max(10, k2 // 500))
    return CoarseParams(gamma=2.0, phi=phi, delta0=delta0, eta0=8.0)


# ----------------------------------------------------------------------
# Figure 2 — coarse-grained model exploration
# ----------------------------------------------------------------------


def fig2_1_changes_on_c(
    alpha: Optional[float] = None,
    chunk_size: int = 1000,
    preset: Optional[ScalePreset] = None,
) -> Tuple[ResultTable, List[Tuple[float, int]]]:
    """Figure 2(1): changes on array C vs normalized level id.

    The paper divides the incident edge pairs of its month-of-tweets
    graph into chunks of 1000 (similarity order) and plots per-chunk
    change counts; most changes occur in the lower half of the levels.
    Returns the table and the raw ``(normalized level, changes)`` curve.
    """
    preset = preset or current_scale()
    sweep_alphas = preset.alphas
    alpha = alpha if alpha is not None else sweep_alphas[len(sweep_alphas) // 2]
    from repro.bench.datasets import association_graph

    graph = association_graph(alpha, preset)
    levels = fixed_chunk_sweep(graph, chunk_size=chunk_size)
    n_levels = len(levels)
    curve = [
        ((lv.level) / n_levels, lv.changes) for lv in levels
    ]
    half = sum(c for x, c in curve if x <= 0.5)
    total = sum(c for _, c in curve) or 1
    table = ResultTable(
        f"Figure 2(1): changes on array C (alpha={alpha}, chunk={chunk_size})",
        ["normalized_level", "changes"],
    )
    step = max(1, n_levels // 20)  # print a readable subsample
    for x, c in curve[::step]:
        table.add_row(normalized_level=round(x, 3), changes=c)
    table.add_row(normalized_level=None, changes=None)
    table.add_row(
        normalized_level=f"lower-half share: {half / total:.1%}", changes=total
    )
    return table, curve


def fig2_2_sigmoid_fit(
    alphas: Optional[Sequence[float]] = None,
    num_chunks: int = 150,
    preset: Optional[ScalePreset] = None,
) -> Tuple[ResultTable, Dict[float, Tuple[List[float], List[float]]]]:
    """Figure 2(2): normalized cluster-count curves + sigmoid fits.

    The paper overlays curves from three graph sizes on normalized axes
    (log level id vs cluster count) and fits
    ``y = a/(1+e^{-k(log x - b)}) + c`` with a=-1, b=0.48, c=1, k=10.
    Reports fitted parameters and the RMSE of both the per-curve fit and
    the paper's fixed parameters.
    """
    preset = preset or current_scale()
    if alphas is None:
        mid = len(preset.alphas) // 2
        alphas = preset.alphas[max(0, mid - 1) : mid + 2]
    from repro.bench.datasets import association_graph

    table = ResultTable(
        "Figure 2(2): sigmoid model of cluster-count curves",
        ["alpha", "levels", "a", "b", "c", "k", "fit_rmse", "paper_rmse"],
    )
    curves: Dict[float, Tuple[List[float], List[float]]] = {}
    for alpha in alphas:
        graph = association_graph(alpha, preset)
        sim = compute_similarity_map(graph)
        chunk = max(1, sim.k2 // num_chunks)
        levels = fixed_chunk_sweep(graph, sim, chunk_size=chunk)
        xs_raw = [float(lv.level) for lv in levels]
        ys_raw = [float(lv.clusters) for lv in levels]
        xs, ys = normalize_curve(xs_raw, ys_raw)
        curves[alpha] = (xs, ys)
        params, rmse = fit_sigmoid(xs, ys)
        paper_rmse = rmse_against(xs, ys, PAPER_PARAMS)
        table.add_row(
            alpha=alpha,
            levels=len(levels),
            a=round(params.a, 3),
            b=round(params.b, 3),
            c=round(params.c, 3),
            k=round(params.k, 2),
            fit_rmse=round(rmse, 4),
            paper_rmse=round(paper_rmse, 4),
        )
    return table, curves


# ----------------------------------------------------------------------
# Figure 4 — serial algorithm evaluation
# ----------------------------------------------------------------------


def fig4_1_statistics(preset: Optional[ScalePreset] = None) -> ResultTable:
    """Figure 4(1): nodes, edges, vertex pairs (K1), edge pairs (K2).

    The paper's trends: counts grow with alpha, density *falls* with
    alpha, and K2 dominates |E| by orders of magnitude.
    """
    preset = preset or current_scale()
    table = ResultTable(
        f"Figure 4(1): graph statistics (scale={preset.name})",
        ["alpha", "nodes", "edges", "density", "vertex_pairs_k1", "edge_pairs_k2", "k2_over_edges"],
    )
    for alpha, graph in alpha_sweep(preset):
        m = compute_metrics(graph)
        table.add_row(
            alpha=alpha,
            nodes=m.num_vertices,
            edges=m.num_edges,
            density=round(m.density, 4),
            vertex_pairs_k1=m.k1,
            edge_pairs_k2=m.k2,
            k2_over_edges=round(m.k2 / m.num_edges, 1) if m.num_edges else None,
        )
    return table


def fig4_2_execution_time(
    preset: Optional[ScalePreset] = None, repeat: int = 1
) -> ResultTable:
    """Figure 4(2): initialization vs sweeping vs standard run times.

    Paper's shape: sweeping is comparable to initialization across alpha;
    the standard O(|E|^2) algorithm falls behind by growing factors (2.0x,
    40.0x, 74.2x) and becomes infeasible beyond the third alpha.
    """
    preset = preset or current_scale()
    table = ResultTable(
        f"Figure 4(2): execution time seconds (scale={preset.name})",
        ["alpha", "initialization", "sweeping", "standard", "speedup_vs_standard"],
    )
    for alpha, graph in alpha_sweep(preset):
        sim, t_init = time_call(compute_similarity_map, graph, repeat=repeat)
        _, t_sweep = time_call(sweep, graph, sim, repeat=repeat)
        t_standard = None
        speedup = None
        if alpha in preset.standard_alphas:
            def run_standard() -> None:
                matrix = edge_similarity_matrix(graph, sim)
                nbm_cluster(matrix)

            _, t_std = time_call(run_standard, repeat=repeat)
            t_standard = t_std.mean
            denominator = t_sweep.mean or 1e-9
            speedup = t_standard / denominator
        table.add_row(
            alpha=alpha,
            initialization=round(t_init.mean, 4),
            sweeping=round(t_sweep.mean, 4),
            standard=round(t_standard, 4) if t_standard is not None else None,
            speedup_vs_standard=round(speedup, 1) if speedup is not None else None,
        )
    return table


def fig4_3_memory(preset: Optional[ScalePreset] = None) -> ResultTable:
    """Figure 4(3): memory of the sweeping vs the standard algorithm.

    Peak allocated bytes replace the paper's virtual-memory column (see
    ``repro.bench.memory``); the ordering — standard's dense |E|^2 matrix
    dwarfing the sweeping structures — is the reproduced claim (paper:
    19.9 GB vs 881 MB at its third alpha).
    """
    preset = preset or current_scale()
    table = ResultTable(
        f"Figure 4(3): peak memory bytes (scale={preset.name})",
        ["alpha", "sweeping_peak", "standard_peak", "standard_over_sweeping"],
    )
    for alpha, graph in alpha_sweep(preset):
        def run_sweeping() -> None:
            sim_local = compute_similarity_map(graph)
            sweep(graph, sim_local)

        _, sweep_peak = measure_peak(run_sweeping)
        standard_peak = None
        ratio = None
        if alpha in preset.standard_alphas:
            def run_standard() -> None:
                sim_local = compute_similarity_map(graph)
                matrix = edge_similarity_matrix(graph, sim_local)
                nbm_cluster(matrix)

            _, standard_peak = measure_peak(run_standard)
            ratio = round(standard_peak / max(sweep_peak, 1), 1)
        table.add_row(
            alpha=alpha,
            sweeping_peak=sweep_peak,
            standard_peak=standard_peak,
            standard_over_sweeping=ratio,
        )
    return table


# ----------------------------------------------------------------------
# Figure 5 — coarse-grained clustering evaluation
# ----------------------------------------------------------------------


def _coarse_run(graph: Graph) -> Tuple[CoarseResult, CoarseParams]:
    sim = compute_similarity_map(graph)
    params = coarse_params_for(graph, k2=sim.k2)
    return coarse_sweep(graph, sim, params), params


def fig5_1_epoch_breakdown(preset: Optional[ScalePreset] = None) -> ResultTable:
    """Figure 5(1): epochs by mode (head/fresh, tail/fresh, rollback, reused).

    Paper's shape: few head epochs (exponential chunk growth + log-scale
    tail), most epochs in the tail, some rollbacks and reuses.
    """
    preset = preset or current_scale()
    table = ResultTable(
        f"Figure 5(1): epoch breakdown (scale={preset.name})",
        ["alpha", "head_fresh", "tail_fresh", "rollback", "reused", "forced", "total"],
    )
    for alpha, graph in alpha_sweep(preset):
        result, _ = _coarse_run(graph)
        counts = result.epoch_kind_counts()
        table.add_row(
            alpha=alpha,
            head_fresh=counts.get("head_fresh", 0),
            tail_fresh=counts.get("tail_fresh", 0),
            rollback=counts.get("rollback", 0),
            reused=counts.get("reused", 0),
            forced=counts.get("forced", 0),
            total=len(result.epochs),
        )
    return table


def fig5_2_time_memory(preset: Optional[ScalePreset] = None) -> ResultTable:
    """Figure 5(2): coarse-grained vs fine sweeping, time and memory.

    Paper's shape: coarse-grained is *faster* (the phi cutoff skips the
    long tail — only 55.1% of pairs processed at its alpha=0.005) with
    comparable or lower memory.
    """
    preset = preset or current_scale()
    table = ResultTable(
        f"Figure 5(2): coarse vs fine sweeping (scale={preset.name})",
        [
            "alpha",
            "coarse_time",
            "sweep_time",
            "coarse_mem",
            "sweep_mem",
            "processed_fraction",
        ],
    )
    for alpha, graph in alpha_sweep(preset):
        sim = compute_similarity_map(graph)
        params = coarse_params_for(graph, k2=sim.k2)
        coarse_result, t_coarse = time_call(coarse_sweep, graph, sim, params)
        fine_result, t_fine = time_call(sweep, graph, sim)
        coarse_mem = deep_sizeof(coarse_result.chain) + deep_sizeof(
            coarse_result.dendrogram
        )
        fine_mem = deep_sizeof(fine_result.chain) + deep_sizeof(
            fine_result.dendrogram
        )
        table.add_row(
            alpha=alpha,
            coarse_time=round(t_coarse.mean, 4),
            sweep_time=round(t_fine.mean, 4),
            coarse_mem=coarse_mem,
            sweep_mem=fine_mem,
            processed_fraction=round(coarse_result.processed_fraction, 3),
        )
    return table


# ----------------------------------------------------------------------
# Figure 6 — multi-threading evaluation
# ----------------------------------------------------------------------


def fig6_1_init_speedup(
    preset: Optional[ScalePreset] = None,
    workers: Sequence[int] = WORKER_COUNTS,
) -> ResultTable:
    """Figure 6(1): initialization-phase speedup vs thread count.

    Paper's shape (6-core Xeon): ~2.0x at 2 threads, 3.5-4.0x at 4,
    4.5-5.0x at 6, comparable across alpha.  The measuring machine has
    2 cores, so speedups are extrapolated by the deterministic work model (see
    ``repro.parallel.workmodel``); the thread/process backends verify the
    concurrent code paths' correctness in the test suite.
    """
    preset = preset or current_scale()
    columns = ["alpha"] + [f"T={t}" for t in workers]
    table = ResultTable(
        f"Figure 6(1): initialization speedup, work model (scale={preset.name})",
        columns,
    )
    for alpha, graph in alpha_sweep(preset):
        model = InitWorkModel(graph)
        row = {"alpha": alpha}
        for t in workers:
            row[f"T={t}"] = round(model.speedup(t), 2)
        table.add_row(**row)
    return table


def fig6_2_sweep_speedup(
    preset: Optional[ScalePreset] = None,
    workers: Sequence[int] = WORKER_COUNTS,
) -> ResultTable:
    """Figure 6(2): sweeping-phase speedup vs thread count.

    Sub-linear but increasing: the hierarchical array merge and the
    boundary cluster counts are per-epoch serialization that the paper's
    measured curves also pay.
    """
    preset = preset or current_scale()
    columns = ["alpha"] + [f"T={t}" for t in workers]
    table = ResultTable(
        f"Figure 6(2): sweeping speedup, work model (scale={preset.name})",
        columns,
    )
    for alpha, graph in alpha_sweep(preset):
        result, _ = _coarse_run(graph)
        model = SweepWorkModel(result, graph.num_edges)
        row = {"alpha": alpha}
        for t in workers:
            row[f"T={t}"] = round(model.speedup(t), 2)
        table.add_row(**row)
    return table
