"""Capability registry for sweep engines, backends, and pair formats.

The engine × backend × pairs_format rules used to live as ad-hoc
``if`` chains scattered through :class:`~repro.core.config.RunConfig`,
``coarse_sweep``, and the CLI.  This module is the single declarative
home for those facts: each engine, backend, and pair format is a frozen
spec carrying its constraints and factory hooks, and every consumer —
``RunConfig.validate()``, the coarse sweeper, ``get_sweep_runtime``,
the CLI's flag choices and error messages, and the serving daemon —
reads the same table.

New execution modes (a duckdb engine, a gpu backend) slot in through
:func:`register_engine` / :func:`register_backend` without touching
``LinkClustering``: the spec declares what the mode needs (coarse
sweeping, epsilon support) and how to build its runtime, and
validation/dispatch pick it up everywhere at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.parallel.runtime import SweepRuntime

__all__ = [
    "EngineSpec",
    "BackendSpec",
    "PairFormatSpec",
    "engine_names",
    "backend_names",
    "pair_format_names",
    "get_engine",
    "get_backend",
    "get_pair_format",
    "register_engine",
    "register_backend",
    "register_pair_format",
    "validate_run_settings",
    "make_runtime",
]


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineSpec:
    """One sweep merge engine and its requirements.

    ``requires_coarse`` — the engine only exists as a chunked (coarse)
    sweep; ``supports_epsilon`` — whether the
    TeraHAC-style reconciliation slack applies; ``chunk_applier`` — the
    name of the ``_CoarseSweeper`` method that applies one chunk's merge
    stream (``None`` means the default chained MERGE path).
    """

    name: str
    summary: str
    requires_coarse: bool = False
    supports_epsilon: bool = False
    chunk_applier: Optional[str] = None


@dataclass(frozen=True)
class BackendSpec:
    """One execution backend and its runtime factory.

    ``parallel`` — whether ``num_workers > 1`` buys anything;
    ``runtime_factory`` — builds the :class:`SweepRuntime` for a worker
    count (imports lazily so the registry stays import-cycle-free).
    """

    name: str
    summary: str
    parallel: bool = True
    runtime_factory: Optional[Callable[[int], "SweepRuntime"]] = field(
        default=None, repr=False
    )


@dataclass(frozen=True)
class PairFormatSpec:
    """One backing of list L.  ``requires_coarse`` marks formats only
    the chunked sweep can consume (the out-of-core store streams
    bounded windows, which the one-merge-per-level fine sweep cannot
    do)."""

    name: str
    summary: str
    requires_coarse: bool = False


# ----------------------------------------------------------------------
# the tables (ordered: declaration order is presentation order)
# ----------------------------------------------------------------------
_ENGINES: Dict[str, EngineSpec] = {}
_BACKENDS: Dict[str, BackendSpec] = {}
_PAIR_FORMATS: Dict[str, PairFormatSpec] = {}


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add an engine to the capability table (name must be new)."""
    if spec.name in _ENGINES:
        raise ParameterError(f"engine {spec.name!r} is already registered")
    _ENGINES[spec.name] = spec
    return spec


def register_backend(spec: BackendSpec) -> BackendSpec:
    """Add a backend to the capability table (name must be new)."""
    if spec.name in _BACKENDS:
        raise ParameterError(f"backend {spec.name!r} is already registered")
    _BACKENDS[spec.name] = spec
    return spec


def register_pair_format(spec: PairFormatSpec) -> PairFormatSpec:
    """Add a pair format to the capability table (name must be new)."""
    if spec.name in _PAIR_FORMATS:
        raise ParameterError(f"pair format {spec.name!r} is already registered")
    _PAIR_FORMATS[spec.name] = spec
    return spec


def engine_names() -> Tuple[str, ...]:
    return tuple(_ENGINES)


def backend_names() -> Tuple[str, ...]:
    return tuple(_BACKENDS)


def pair_format_names() -> Tuple[str, ...]:
    return tuple(_PAIR_FORMATS)


def get_engine(name: str) -> EngineSpec:
    try:
        return _ENGINES[name]
    except KeyError:
        raise ParameterError(
            f"engine must be one of {engine_names()}, got {name!r}"
        ) from None


def get_backend(name: str) -> BackendSpec:
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ParameterError(
            f"backend must be one of {backend_names()}, got {name!r}"
        ) from None


def get_pair_format(name: str) -> PairFormatSpec:
    try:
        return _PAIR_FORMATS[name]
    except KeyError:
        raise ParameterError(
            f"pairs_format must be one of {pair_format_names()}, got {name!r}"
        ) from None


# ----------------------------------------------------------------------
# built-in engines / backends / pair formats
# ----------------------------------------------------------------------
def _local_runtime(backend_name: str) -> Callable[[int], "SweepRuntime"]:
    def factory(num_workers: int) -> "SweepRuntime":
        from repro.parallel.runtime import LocalSweepRuntime

        return LocalSweepRuntime(backend_name, num_workers)

    return factory


def _shm_runtime(num_workers: int) -> "SweepRuntime":
    from repro.parallel.runtime import ShmSweepRuntime

    return ShmSweepRuntime(num_workers)


register_engine(
    EngineSpec(
        name="chained",
        summary="the paper's sequential MERGE chain (the tested oracle)",
    )
)
register_engine(
    EngineSpec(
        name="batch",
        summary="per-level vectorized connected-components rounds",
        requires_coarse=True,
        chunk_applier="_apply_chunk_batch",
    )
)
register_engine(
    EngineSpec(
        name="sharded",
        summary="owner-computes C shards with host boundary reconciliation",
        requires_coarse=True,
        supports_epsilon=True,
        chunk_applier="_apply_chunk_sharded",
    )
)

register_backend(
    BackendSpec(
        name="serial",
        summary="single-threaded reference path",
        parallel=False,
        runtime_factory=_local_runtime("serial"),
    )
)
register_backend(
    BackendSpec(
        name="thread",
        summary="thread pool over shared arrays",
        runtime_factory=_local_runtime("thread"),
    )
)
register_backend(
    BackendSpec(
        name="process",
        summary="process pool with pickled chunk copies",
        runtime_factory=_local_runtime("process"),
    )
)
register_backend(
    BackendSpec(
        name="shm",
        summary="resident shared-memory arena workers",
        runtime_factory=_shm_runtime,
    )
)

register_pair_format(
    PairFormatSpec(
        name="columnar",
        summary="in-memory pair store over SimilarityColumns (shm-transportable)",
    )
)
register_pair_format(
    PairFormatSpec(
        name="mmap",
        summary="memory-mapped out-of-core pair store (external sort + spill)",
        requires_coarse=True,
    )
)


# ----------------------------------------------------------------------
# the one validation routine
# ----------------------------------------------------------------------
def validate_run_settings(
    *,
    backend: str,
    engine: str,
    pairs_format: str,
    coarse: bool,
    epsilon: float,
    num_workers: int,
    storage_dir: Optional[str] = None,
    memory_budget_bytes: Optional[int] = None,
) -> None:
    """Check one engine × backend × pairs_format combination.

    The shared rule table behind ``RunConfig.validate()``, the coarse
    sweeper, and the serving daemon's submit validation.  ``coarse`` is
    whether the run is chunked (any ``CoarseParams``).
    ``storage_dir`` / ``memory_budget_bytes`` configure the out-of-core
    pair store and therefore require ``pairs_format="mmap"``.  Raises
    :class:`ParameterError` with messages naming the live registry
    contents.
    """
    get_backend(backend)
    engine_spec = get_engine(engine)
    format_spec = get_pair_format(pairs_format)
    if format_spec.requires_coarse and not coarse:
        raise ParameterError(
            f"pairs_format={pairs_format!r} requires coarse sweeping "
            "(pass coarse=True or CoarseParams)"
        )
    if pairs_format != "mmap":
        if storage_dir is not None:
            raise ParameterError(
                "storage_dir only applies to pairs_format='mmap', "
                f"got pairs_format={pairs_format!r}"
            )
        if memory_budget_bytes is not None:
            raise ParameterError(
                "memory_budget_bytes only applies to pairs_format='mmap', "
                f"got pairs_format={pairs_format!r}"
            )
    if memory_budget_bytes is not None and (
        isinstance(memory_budget_bytes, bool)
        or not isinstance(memory_budget_bytes, int)
        or memory_budget_bytes < 1
    ):
        raise ParameterError(
            "memory_budget_bytes must be a positive int, "
            f"got {memory_budget_bytes!r}"
        )
    if (
        isinstance(num_workers, bool)
        or not isinstance(num_workers, int)
        or num_workers < 1
    ):
        raise ParameterError(
            f"num_workers must be an int >= 1, got {num_workers!r}"
        )
    if engine_spec.requires_coarse and not coarse:
        raise ParameterError(
            f"engine={engine!r} requires coarse sweeping "
            "(pass coarse=True or CoarseParams)"
        )
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ParameterError(f"epsilon must be a finite float >= 0, got {epsilon!r}")
    if epsilon > 0 and not engine_spec.supports_epsilon:
        capable = tuple(
            s.name for s in _ENGINES.values() if s.supports_epsilon
        )
        raise ParameterError(
            f"epsilon > 0 only applies to engines {capable}, "
            f"got engine={engine!r}"
        )


def make_runtime(backend: str, num_workers: int) -> "SweepRuntime":
    """Build the registered backend's :class:`SweepRuntime`."""
    spec = get_backend(backend)
    if spec.runtime_factory is None:
        raise ParameterError(
            f"backend {backend!r} declares no runtime factory"
        )
    return spec.runtime_factory(num_workers)
