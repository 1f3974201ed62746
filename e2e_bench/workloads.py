"""The benchmark's workloads: seeded graphs, run configs and oracles.

Each workload builds its graph from the benchmark seed only; the program
under test receives the generated graph and a :class:`RunConfig`, never
the seed.  ``scale="tiny"`` shrinks every graph for smoke tests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.bench.datasets import PRESETS
from repro.bench.experiments import coarse_params_for
from repro.core import LinkClustering, RunConfig
from repro.corpus.assoc import build_association_graph
from repro.corpus.synthetic import generate_corpus
from repro.graph.generators import caveman_graph, random_weights
from repro.graph.graph import Graph

__all__ = ["Workload", "WORKLOADS", "DEFAULT_SEED", "oracle_run"]

#: Seed of the ``small`` preset corpus (|E|=13,697, K2=1,689,380 at alpha=0.1).
#: The held-out seed for confirming claims is named in README.md.
DEFAULT_SEED = 20170605

#: Out-of-core RAM budget of ``ooc-caveman``.
MEMORY_BUDGET_BYTES = 1 << 20

ASSOC_ALPHA = 0.1
CAVEMAN_SHAPE = {"small": (48, 44), "tiny": (6, 8)}


def association_graph(seed: int, scale: str) -> Graph:
    corpus = dataclasses.replace(PRESETS[scale].corpus, seed=seed)
    return build_association_graph(generate_corpus(corpus), alpha=ASSOC_ALPHA)


def weighted_caveman(seed: int, scale: str) -> Graph:
    cliques, size = CAVEMAN_SHAPE[scale]
    return caveman_graph(cliques, size, weight=random_weights(seed))


@dataclass(frozen=True)
class Workload:
    """One named workload.

    ``make_config(graph, k2, storage_dir)`` gives the measured config;
    ``runtime`` names the ``(backend, workers)`` of a caller-owned sweep
    runtime built with ``registry.make_runtime`` per repetition.
    """

    name: str
    build_graph: Callable[[int, str], Graph]
    make_config: Callable[[Graph, int, str], RunConfig]
    runtime: Optional[Tuple[str, int]] = None


def _fine(graph: Graph, k2: int, storage_dir: str) -> RunConfig:
    return RunConfig()


def _coarse_thread2(graph: Graph, k2: int, storage_dir: str) -> RunConfig:
    return RunConfig(
        coarse=coarse_params_for(graph, k2),
        engine="batch",
        backend="thread",
        num_workers=2,
        pairs_format="columnar",
    )


def _ooc(graph: Graph, k2: int, storage_dir: str) -> RunConfig:
    return RunConfig(
        coarse=coarse_params_for(graph, k2),
        engine="batch",
        pairs_format="mmap",
        memory_budget_bytes=MEMORY_BUDGET_BYTES,
        storage_dir=storage_dir,
    )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fine-assoc",
            build_graph=association_graph,
            make_config=_fine,
        ),
        Workload(
            name="coarse-thread2",
            build_graph=association_graph,
            make_config=_coarse_thread2,
            runtime=("thread", 2),
        ),
        Workload(
            name="ooc-caveman",
            build_graph=weighted_caveman,
            make_config=_ooc,
        ),
    )
}


def oracle_run(graph: Graph, config: RunConfig):
    """The reference result the workload's answers are checked against.

    ``fine-assoc``: the paper-reference dict Phase I and fine sweep.
    Coarse workloads: the chained serial columnar coarse sweep with the
    same ``CoarseParams`` (same chunk boundaries, hence the same levels).
    Returns ``(dendrogram, edge_index, k1, k2)``.
    """
    if config.coarse is None:
        from repro.core.similarity import compute_similarity_map
        from repro.core.sweep import sweep

        sim = compute_similarity_map(graph)
        res = sweep(graph, sim)
        return res.dendrogram, res.edge_index, sim.k1, sim.k2
    res = LinkClustering(
        graph, config=RunConfig(coarse=config.coarse, pairs_format="columnar")
    ).run()
    return res.dendrogram, res.edge_index, res.k1, res.k2
