"""Conformance of the vectorized partition diff and the label-array state.

:func:`repro.core.coarse.transition_merges` is a NumPy diff.  It must
return exactly the records, in exactly the order, of the per-root
Python walk it replaced, which is kept here as a test-only reference
(:func:`dict_transition_merges`).  The batch and sharded engines keep
array ``C`` as one compressed label array for the whole sweep; a sweep
with ``delta0=MIN_CHUNK`` and ``gamma`` near 1 drives them through
rollbacks, state jumps and forced commits on every backend, and each
run must match the chained oracle level for level.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.shm import NumpyChainArray
from repro.cluster.unionfind import ChainArray
from repro.cluster.validation import same_partition
from repro.core.chunking import MIN_CHUNK
from repro.core.coarse import (
    CoarseParams,
    _CoarseSweeper,
    _EpochState,
    coarse_sweep,
    partition_diff,
    transition_merges,
)
from repro.fast.batch_sweep import compress_labels
from repro.fast.similarity import fast_similarity_columns
from repro.graph import generators
from repro.parallel.par_sweep import parallel_coarse_sweep


def dict_transition_merges(before: ChainArray, after: ChainArray):
    """The per-root Python walk the vectorized diff replaced."""
    groups: dict = {}
    for root in before.cluster_roots():
        groups.setdefault(after.find(root), []).append(root)
    merges = []
    for roots in groups.values():
        if len(roots) < 2:
            continue
        roots.sort()
        base = roots[0]
        for other in roots[1:]:
            merges.append((base, other, base))
    return merges


def random_chain(n, merges, rng, base=None):
    """A ChainArray after ``merges`` random MERGE calls (uncompressed)."""
    chain = ChainArray(n) if base is None else base.copy()
    for _ in range(merges):
        chain.merge(rng.randrange(n), rng.randrange(n))
    return chain


@st.composite
def chain_pairs(draw):
    n = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    before = random_chain(n, draw(st.integers(0, 2 * n)), rng) if n else ChainArray(0)
    after = (
        random_chain(n, draw(st.integers(0, 2 * n)), rng, base=before)
        if n
        else ChainArray(0)
    )
    return before, after


class TestTransitionMerges:
    @settings(max_examples=200, deadline=None)
    @given(chain_pairs())
    def test_matches_dict_reference(self, pair):
        # Both sides uncompressed ChainArrays, as MERGE leaves them.
        before, after = pair
        assert transition_merges(before, after) == dict_transition_merges(
            before, after
        )

    @settings(max_examples=100, deadline=None)
    @given(chain_pairs())
    def test_every_representation_agrees(self, pair):
        # Label arrays (compressed or raw) give the same records as the
        # list-based chains they encode.
        before, after = pair
        expected = dict_transition_merges(before, after)
        raw_before = np.asarray(before.raw(), dtype=np.int64)
        raw_after = np.asarray(after.raw(), dtype=np.int64)
        packed_before = NumpyChainArray(
            len(before), buffer=compress_labels(raw_before), initialized=True
        )
        packed_after = NumpyChainArray(
            len(after), buffer=compress_labels(raw_after), initialized=True
        )
        assert transition_merges(raw_before, raw_after) == expected
        assert transition_merges(packed_before, packed_after) == expected
        assert transition_merges(list(before.raw()), packed_after) == expected
        base, other = partition_diff(raw_before, compress_labels(raw_after))
        assert list(zip(base.tolist(), other.tolist(), base.tolist())) == expected

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_sizes(self, n):
        before = ChainArray(n)
        assert transition_merges(before, before.copy()) == []
        assert transition_merges(np.arange(n), np.arange(n)) == []

    def test_no_op_diff(self):
        rng = random.Random(5)
        chain = random_chain(30, 20, rng)
        assert transition_merges(chain, chain.copy()) == []
        assert dict_transition_merges(chain, chain.copy()) == []

    def test_records_are_python_ints(self):
        before = ChainArray(4)
        after = ChainArray(4)
        after.merge(1, 3)
        ((c1, c2, parent),) = transition_merges(
            np.asarray(before.raw()), np.asarray(after.raw())
        )
        assert (c1, c2, parent) == (1, 3, 1)
        assert all(type(x) is int for x in (c1, c2, parent))


class TestNumpyChainArrayState:
    def test_copy_is_independent_and_keeps_counters(self):
        chain = NumpyChainArray(6)
        chain.merge(0, 5)
        dup = chain.copy()
        assert dup.raw() is not chain.raw()
        assert dup.num_clusters() == chain.num_clusters() == 5
        assert dup.changes == chain.changes
        dup.merge(1, 2)
        assert chain.num_clusters() == 5
        assert chain.labels() == [0, 1, 2, 3, 4, 0]

    def test_cluster_roots_vectorized(self):
        chain = NumpyChainArray(6)
        chain.merge(2, 4)
        chain.merge(0, 5)
        roots = chain.cluster_roots()
        assert isinstance(roots, np.ndarray)
        assert roots.tolist() == [0, 1, 2, 3]
        assert roots.tolist() == list(ChainArray(6, _init=list(chain.raw())).cluster_roots())


# gamma near 1 with the smallest chunk: soundness fails constantly, so the
# sweep rolls back, reuses saved states and force-commits atomic pairs.
STRESS = CoarseParams(gamma=1.1, phi=2, delta0=float(MIN_CHUNK))
STRESS_GRAPHS = {
    "caveman": lambda: generators.caveman_graph(
        4, 5, weight=generators.random_weights(seed=2)
    ),
    "planted": lambda: generators.planted_partition(
        4, 6, 0.7, 0.1, seed=3, weight=generators.random_weights(seed=3)
    ),
}


def level_labels(result):
    d = result.dendrogram
    return [d.labels_at_level(level) for level in range(result.num_levels + 1)]


def epoch_trace(result):
    return [(e.kind, e.level, e.xi, e.p) for e in result.epochs]


@pytest.fixture(scope="module", params=sorted(STRESS_GRAPHS))
def stress_case(request):
    graph = STRESS_GRAPHS[request.param]()
    columns = fast_similarity_columns(graph)
    oracle = coarse_sweep(graph, columns, STRESS, engine="chained")
    return graph, columns, oracle


class TestStressSweepConformance:
    def test_stress_params_reach_every_epoch_kind(self, stress_case):
        _graph, _columns, oracle = stress_case
        kinds = oracle.epoch_kind_counts()
        assert kinds.get("rollback", 0) > 0
        assert kinds.get("reused", 0) > 0
        assert kinds.get("forced", 0) > 0

    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "shm"])
    @pytest.mark.parametrize("engine", ["batch", "sharded"])
    def test_exact_engines_match_oracle(self, stress_case, engine, backend):
        graph, columns, oracle = stress_case
        if backend == "serial":
            result = coarse_sweep(graph, columns, STRESS, engine=engine)
        else:
            result = parallel_coarse_sweep(
                graph, columns, STRESS, num_workers=2, backend=backend, engine=engine
            )
        assert result.num_levels == oracle.num_levels
        assert epoch_trace(result) == epoch_trace(oracle)
        assert level_labels(result) == level_labels(oracle)
        assert isinstance(result.chain, ChainArray)
        assert result.edge_labels() == oracle.edge_labels()

    @pytest.mark.parametrize("backend", ["serial", "thread", "process", "shm"])
    def test_deferred_sharded_reaches_oracle_partition(self, stress_case, backend):
        # epsilon > 0 moves cross-shard merges to later levels by design;
        # the final partition must still be the oracle's exactly.
        graph, columns, oracle = stress_case
        params = CoarseParams(
            gamma=STRESS.gamma, phi=STRESS.phi, delta0=STRESS.delta0,
            finalize_root=False,
        )
        exact = coarse_sweep(graph, columns, params, engine="chained")
        if backend == "serial":
            result = coarse_sweep(
                graph, columns, params, engine="sharded", epsilon=0.5
            )
        else:
            result = parallel_coarse_sweep(
                graph, columns, params, num_workers=2, backend=backend,
                engine="sharded", epsilon=0.5,
            )
        assert same_partition(result.edge_labels(), exact.edge_labels())
        assert result.edge_labels() == exact.edge_labels()


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(5, 12),
    p=st.floats(0.3, 0.9),
    seed=st.integers(0, 500),
    gamma=st.floats(1.0, 1.5),
    engine=st.sampled_from(["batch", "sharded"]),
)
def test_property_stress_sweep_matches_oracle(n, p, seed, gamma, engine):
    graph = generators.erdos_renyi(
        n, p, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if graph.num_edges < 2:
        return
    params = CoarseParams(gamma=gamma, phi=1, delta0=float(MIN_CHUNK))
    oracle = coarse_sweep(graph, None, params, engine="chained")
    result = coarse_sweep(graph, None, params, engine=engine)
    assert epoch_trace(result) == epoch_trace(oracle)
    assert level_labels(result) == level_labels(oracle)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 500),
    epsilon=st.sampled_from([0.5, 2.0]),
    shards=st.integers(2, 5),
)
def test_property_deferred_jumps_reach_oracle_partition(seed, epsilon, shards):
    # Dense graphs under gamma near 1 make the sweep jump to saved
    # states that still carry deferred boundary pairs; the jump must
    # flush them, or the final partition loses their merges.
    graph = generators.erdos_renyi(
        16, 0.25, seed=seed, weight=generators.random_weights(seed=seed)
    )
    if graph.num_edges < 2:
        return
    params = CoarseParams(gamma=1.1, phi=1, delta0=float(MIN_CHUNK), finalize_root=False)
    oracle = coarse_sweep(graph, None, params, engine="chained")
    result = coarse_sweep(
        graph, None, params, engine="sharded", epsilon=epsilon, num_shards=shards
    )
    assert result.edge_labels() == oracle.edge_labels()


def test_jump_flushes_the_target_states_deferred_pairs():
    # A saved state that still defers a boundary pair is adopted whole:
    # the jump must apply the pair to the state and record it.
    graph = generators.caveman_graph(2, 4)
    n = graph.num_edges
    sweeper = _CoarseSweeper(
        graph,
        fast_similarity_columns(graph),
        CoarseParams(gamma=2.0, phi=1, delta0=float(MIN_CHUNK)),
        None,
        engine="sharded",
        epsilon=0.5,
    )
    try:
        saved = NumpyChainArray(n)
        saved.merge(0, 1)
        sweeper.rollback_list = [
            _EpochState(
                beta=n - 1,
                xi=1,
                p=1,
                chain=saved,
                pending=[],
                deferred=(np.array([2], dtype=np.int64), np.array([3], dtype=np.int64)),
            )
        ]
        assert sweeper._try_jump()
        labels = sweeper.chain.raw().tolist()
        assert labels[:4] == [0, 0, 2, 2]
        assert sweeper.beta == sweeper.chain.num_clusters() == n - 2
        assert sweeper._deferred_a.size == 0
        merges = [(m.left, m.right) for m in sweeper.builder._merges]
        assert merges == [(0, 1), (2, 3)]
    finally:
        sweeper.close_store()



@pytest.mark.parametrize("backend", ["serial", "thread"])
@pytest.mark.parametrize("engine", ["batch", "sharded"])
def test_label_array_engines_build_one_chain_array(monkeypatch, engine, backend):
    # The list-based ChainArray exists only as CoarseResult.chain: no
    # chunk, snapshot, rollback or flush goes through one.
    built = []
    real_init = ChainArray.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else None)
        real_init(self, *args, **kwargs)

    graph = STRESS_GRAPHS["caveman"]()
    columns = fast_similarity_columns(graph)
    monkeypatch.setattr(ChainArray, "__init__", counting)
    if backend == "serial":
        result = coarse_sweep(graph, columns, STRESS, engine=engine)
    else:
        result = parallel_coarse_sweep(
            graph, columns, STRESS, num_workers=2, backend=backend, engine=engine
        )
    assert built == [graph.num_edges]
    assert isinstance(result.chain, ChainArray)
