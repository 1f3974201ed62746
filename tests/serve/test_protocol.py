"""The serving wire contract: hashing, submissions, result payloads."""

from __future__ import annotations

import json

import pytest

from repro.cluster.serialize import loads_dendrogram
from repro.core.config import RunConfig
from repro.core.linkclust import LinkClustering
from repro.errors import ParameterError, ServeError
from repro.graph import generators
from repro.graph.graph import Graph
from repro.serve.protocol import (
    JOB_STATES,
    TERMINAL_STATES,
    file_content_hash,
    graph_content_hash,
    parse_submission,
    result_payload,
    run_cache_key,
)


class TestGraphContentHash:
    def test_deterministic(self):
        g1 = Graph.from_edge_list([("a", "b"), ("b", "c")])
        g2 = Graph.from_edge_list([("a", "b"), ("b", "c")])
        assert graph_content_hash(g1) == graph_content_hash(g2)

    def test_sensitive_to_edge_order(self):
        # Edge ids drive the sweep's enumeration order, so two graphs
        # with the same edge *set* but different insertion order are
        # different inputs.
        g1 = Graph.from_edge_list([("a", "b"), ("b", "c")])
        g2 = Graph.from_edge_list([("b", "c"), ("a", "b")])
        assert graph_content_hash(g1) != graph_content_hash(g2)

    def test_sensitive_to_weights_and_labels(self):
        g1 = Graph.from_edge_list([("a", "b", 1.0)])
        g2 = Graph.from_edge_list([("a", "b", 2.0)])
        g3 = Graph.from_edge_list([("a", "c", 1.0)])
        hashes = {graph_content_hash(g) for g in (g1, g2, g3)}
        assert len(hashes) == 3


class TestFileContentHash:
    def test_multi_mb_file_hashed_in_chunks(self, tmp_path):
        # Regression: graph_path submissions used to hash the *parsed*
        # graph edge by edge in Python; a multi-MB file must now stream
        # through fixed-size chunks, and the digest must be independent
        # of the chunk size (i.e. it really is the file's sha256).
        import hashlib

        path = tmp_path / "big.edges"
        lines = [f"{i} {i + 1} 1.0\n" for i in range(200_000)]
        path.write_text("".join(lines))
        assert path.stat().st_size > 2 * 1024 * 1024
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert file_content_hash(str(path)) == expected
        assert file_content_hash(str(path), chunk_size=4096) == expected
        assert file_content_hash(str(path), chunk_size=1 << 22) == expected

    def test_different_files_differ(self, tmp_path):
        a = tmp_path / "a.edges"
        b = tmp_path / "b.edges"
        a.write_text("a b\n")
        b.write_text("a c\n")
        assert file_content_hash(str(a)) != file_content_hash(str(b))


class TestRunCacheKey:
    def test_observability_fields_do_not_split_the_cache(self):
        g = Graph.from_edge_list([("a", "b"), ("b", "c")])
        h = graph_content_hash(g)
        plain = RunConfig()
        profiled = RunConfig(profile=True, metrics_out="trace.jsonl")
        assert run_cache_key(h, plain) == run_cache_key(h, profiled)

    def test_semantic_fields_do(self):
        g = Graph.from_edge_list([("a", "b"), ("b", "c")])
        h = graph_content_hash(g)
        assert run_cache_key(h, RunConfig()) != run_cache_key(
            h, RunConfig(backend="thread", num_workers=2, coarse=True)
        )

    def test_storage_dir_does_not_split_the_cache(self):
        # Where the out-of-core store spills never changes the
        # dendrogram, so runs differing only in storage_dir share an
        # entry; pairs_format itself is semantic and still splits.
        g = Graph.from_edge_list([("a", "b"), ("b", "c")])
        h = graph_content_hash(g)
        base = RunConfig(coarse=True, pairs_format="mmap")
        spilled = RunConfig(
            coarse=True, pairs_format="mmap", storage_dir="/tmp/spill"
        )
        assert run_cache_key(h, base) == run_cache_key(h, spilled)
        columnar = RunConfig(coarse=True, pairs_format="columnar")
        assert run_cache_key(h, base) != run_cache_key(h, columnar)


class TestParseSubmission:
    def test_inline_edges(self):
        sub = parse_submission(
            {"edges": [["a", "b"], ["b", "c", 2.0]], "config": {"backend": "serial"}}
        )
        assert sub.graph.num_edges == 2
        assert sub.graph.edge_weight(1) == 2.0
        assert sub.config.backend == "serial"
        assert sub.timeout is None and sub.use_cache

    def test_graph_reference(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("a b\nb c\na c\n")
        sub = parse_submission({"graph_path": str(path)})
        assert sub.graph.num_edges == 3
        # File-backed submissions carry a precomputed content hash so
        # the job manager never re-walks the parsed graph.
        assert sub.graph_hash is not None

    def test_graph_hash_tracks_file_and_parse_options(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2\n2 3\n")
        sub_a = parse_submission({"graph_path": str(path)})
        sub_b = parse_submission({"graph_path": str(path)})
        assert sub_a.graph_hash == sub_b.graph_hash
        # int_labels parses a different graph from the same bytes.
        sub_int = parse_submission({"graph_path": str(path), "int_labels": True})
        assert sub_int.graph_hash != sub_a.graph_hash
        # Inline submissions have no file to hash.
        assert parse_submission({"edges": [["a", "b"]]}).graph_hash is None

    def test_missing_graph_reference(self, tmp_path):
        with pytest.raises(ServeError, match="cannot read"):
            parse_submission({"graph_path": str(tmp_path / "absent.edges")})

    def test_exactly_one_graph_source(self):
        with pytest.raises(ParameterError, match="exactly one"):
            parse_submission({"config": {}})
        with pytest.raises(ParameterError, match="exactly one"):
            parse_submission({"edges": [["a", "b"]], "graph_path": "x"})

    def test_unknown_keys_rejected(self):
        with pytest.raises(ParameterError, match="unknown submission keys"):
            parse_submission({"edges": [["a", "b"]], "graf": 1})

    def test_bad_edges_rejected(self):
        with pytest.raises(ParameterError, match="edges"):
            parse_submission({"edges": []})
        with pytest.raises(ParameterError, match=r"edges\[1\]"):
            parse_submission({"edges": [["a", "b"], ["c"]]})

    def test_config_is_registry_validated(self):
        with pytest.raises(ParameterError, match="engine"):
            parse_submission(
                {"edges": [["a", "b"]], "config": {"engine": "quantum"}}
            )

    def test_bad_timeout_rejected(self):
        for bad in (0, -1, "fast", True):
            with pytest.raises(ParameterError, match="timeout"):
                parse_submission({"edges": [["a", "b"]], "timeout": bad})


class TestResultPayload:
    def test_round_trips_the_dendrogram(self):
        graph = generators.caveman_graph(3, 4)
        result = LinkClustering(graph).run()
        payload = result_payload(result)
        assert isinstance(payload["dendrogram"], str)
        dendro = loads_dendrogram(payload["dendrogram"])
        assert dendro.merges == result.dendrogram.merges
        assert payload["summary"]["schema_version"] == 3
        assert payload["edge_labels"] == result.edge_labels()
        json.dumps(payload)  # the whole payload must be JSON-serializable


class TestStates:
    def test_state_tables(self):
        assert set(TERMINAL_STATES) < set(JOB_STATES)
        assert "queued" in JOB_STATES and "running" in JOB_STATES
        assert "running" not in TERMINAL_STATES
