"""Core contribution: the paper's serial and coarse-grained algorithms."""

from repro.core.chunking import (
    CurvePoint,
    extrapolate_chunk,
    head_next_chunk,
    shrink_eta,
    target_clusters,
)
from repro.core.coarse import (
    CoarseParams,
    CoarseResult,
    EpochRecord,
    FixedChunkLevel,
    coarse_sweep,
    fixed_chunk_sweep,
)
from repro.core.config import (
    BACKENDS,
    PAIR_FORMATS,
    RunConfig,
)
from repro.core.cancel import CancelToken
from repro.core.linkclust import (
    RESULT_SCHEMA_VERSION,
    LinkClustering,
    LinkClusteringResult,
    ResultSummary,
)
from repro.core.registry import (
    BackendSpec,
    EngineSpec,
    PairFormatSpec,
    backend_names,
    engine_names,
    pair_format_names,
    register_backend,
    register_engine,
    register_pair_format,
    validate_run_settings,
)
from repro.core.simcolumns import SimilarityColumns, wedge_edge_arrays
from repro.core.metrics import (
    GraphMetrics,
    compute_metrics,
    count_k1,
    count_k2,
    count_k3,
    standard_cost_bound,
    sweeping_cost_bound,
)
from repro.core.modes import Mode, Predicates, evaluate_predicates, next_mode
from repro.core.sigmoid import (
    PAPER_PARAMS,
    SigmoidParams,
    fit_sigmoid,
    normalize_curve,
    sigmoid,
)
from repro.core.similarity import (
    SimilarityMap,
    VertexPairEntry,
    compute_similarity_map,
)
from repro.core.sweep import SweepResult, build_edge_index, sweep

__all__ = [
    "BACKENDS",
    "BackendSpec",
    "CancelToken",
    "EngineSpec",
    "PAIR_FORMATS",
    "PairFormatSpec",
    "CoarseParams",
    "CoarseResult",
    "CurvePoint",
    "EpochRecord",
    "FixedChunkLevel",
    "GraphMetrics",
    "LinkClustering",
    "LinkClusteringResult",
    "Mode",
    "PAPER_PARAMS",
    "Predicates",
    "RESULT_SCHEMA_VERSION",
    "ResultSummary",
    "RunConfig",
    "SigmoidParams",
    "SimilarityColumns",
    "SimilarityMap",
    "SweepResult",
    "VertexPairEntry",
    "backend_names",
    "build_edge_index",
    "coarse_sweep",
    "compute_metrics",
    "compute_similarity_map",
    "count_k1",
    "count_k2",
    "count_k3",
    "engine_names",
    "evaluate_predicates",
    "extrapolate_chunk",
    "fit_sigmoid",
    "fixed_chunk_sweep",
    "head_next_chunk",
    "next_mode",
    "normalize_curve",
    "pair_format_names",
    "register_backend",
    "register_engine",
    "register_pair_format",
    "shrink_eta",
    "sigmoid",
    "standard_cost_bound",
    "sweep",
    "sweeping_cost_bound",
    "target_clusters",
    "validate_run_settings",
    "wedge_edge_arrays",
]
