"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.graph import generators
from repro.graph.io import write_edge_list


@pytest.fixture
def graph_file(tmp_path):
    g = generators.caveman_graph(3, 4, weight=generators.random_weights(seed=1))
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    return path


@pytest.fixture
def texts_file(tmp_path):
    from repro.corpus.synthetic import SyntheticTweetConfig, generate_tweets

    tweets = generate_tweets(
        SyntheticTweetConfig(
            vocabulary_size=60, num_topics=2, num_documents=80,
            topic_width=10, seed=4,
        )
    )
    path = tmp_path / "tweets.txt"
    path.write_text("\n".join(tweets))
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_stats_args(self):
        args = build_parser().parse_args(["stats", "g.txt", "--int-labels"])
        assert args.command == "stats"
        assert args.int_labels

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster", "g.txt"])
        assert args.backend == "serial"
        assert args.gamma == 2.0

    def test_reproduce_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reproduce", "--figure", "9.9"])


class TestStats:
    def test_prints_metrics(self, graph_file, capsys):
        assert main(["stats", str(graph_file), "--int-labels"]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out
        assert "K2" in out

    def test_missing_file(self, capsys):
        assert main(["stats", "/nonexistent/graph.txt"]) == 2
        assert "error" in capsys.readouterr().err


class TestCluster:
    def test_fine(self, graph_file, capsys):
        assert main(["cluster", str(graph_file), "--int-labels"]) == 0
        out = capsys.readouterr().out
        assert "best cut" in out
        assert "communities" in out

    def test_coarse(self, graph_file, capsys):
        code = main(
            [
                "cluster", str(graph_file), "--int-labels",
                "--coarse", "--phi", "2", "--delta0", "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "coarse epochs" in out

    def test_parallel(self, graph_file, capsys):
        code = main(
            [
                "cluster", str(graph_file), "--int-labels",
                "--backend", "thread", "--workers", "2",
            ]
        )
        assert code == 0

    def test_batch_engine(self, graph_file, capsys):
        code = main(
            [
                "cluster", str(graph_file), "--int-labels",
                "--coarse", "--engine", "batch",
            ]
        )
        assert code == 0
        assert "best cut" in capsys.readouterr().out

    def test_batch_engine_matches_chained_output(self, graph_file, capsys):
        assert main(
            ["cluster", str(graph_file), "--int-labels", "--coarse"]
        ) == 0
        chained_out = capsys.readouterr().out
        assert main(
            [
                "cluster", str(graph_file), "--int-labels",
                "--coarse", "--engine", "batch",
                "--backend", "thread", "--workers", "2",
            ]
        ) == 0
        batch_out = capsys.readouterr().out
        # Same graph, same knobs: the human-readable report must agree
        # on the cut (the engines are dendrogram-identical).
        chained_cut = [ln for ln in chained_out.splitlines() if "best cut" in ln]
        batch_cut = [ln for ln in batch_out.splitlines() if "best cut" in ln]
        assert chained_cut == batch_cut

    def test_batch_engine_without_coarse_rejected(self, graph_file, capsys):
        code = main(
            ["cluster", str(graph_file), "--int-labels", "--engine", "batch"]
        )
        assert code == 2
        assert "coarse" in capsys.readouterr().err

    def test_unknown_engine_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            main(["cluster", str(graph_file), "--engine", "quantum"])

    def test_sharded_engine(self, graph_file, capsys):
        code = main(
            [
                "cluster", str(graph_file), "--int-labels",
                "--coarse", "--engine", "sharded",
            ]
        )
        assert code == 0
        assert "best cut" in capsys.readouterr().out

    def test_sharded_engine_matches_chained_output(self, graph_file, capsys):
        assert main(
            ["cluster", str(graph_file), "--int-labels", "--coarse"]
        ) == 0
        chained_out = capsys.readouterr().out
        assert main(
            [
                "cluster", str(graph_file), "--int-labels",
                "--coarse", "--engine", "sharded",
                "--backend", "thread", "--workers", "2",
            ]
        ) == 0
        sharded_out = capsys.readouterr().out
        chained_cut = [ln for ln in chained_out.splitlines() if "best cut" in ln]
        sharded_cut = [ln for ln in sharded_out.splitlines() if "best cut" in ln]
        assert chained_cut == sharded_cut

    def test_sharded_engine_with_epsilon(self, graph_file, capsys):
        code = main(
            [
                "cluster", str(graph_file), "--int-labels",
                "--coarse", "--engine", "sharded", "--epsilon", "0.5",
            ]
        )
        assert code == 0
        assert "best cut" in capsys.readouterr().out

    def test_epsilon_without_sharded_rejected(self, graph_file, capsys):
        code = main(
            [
                "cluster", str(graph_file), "--int-labels",
                "--coarse", "--engine", "batch", "--epsilon", "0.5",
            ]
        )
        assert code == 2
        assert "epsilon" in capsys.readouterr().err

    def test_sharded_engine_without_coarse_rejected(self, graph_file, capsys):
        code = main(
            ["cluster", str(graph_file), "--int-labels", "--engine", "sharded"]
        )
        assert code == 2
        assert "coarse" in capsys.readouterr().err


class TestCorpus:
    def test_builds_edge_list(self, texts_file, tmp_path, capsys):
        out_path = tmp_path / "words.edges"
        code = main(
            ["corpus", str(texts_file), "--alpha", "0.5", "-o", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        from repro.graph.io import read_edge_list

        g = read_edge_list(out_path)
        assert g.num_vertices > 0


class TestReproduce:
    def test_single_figure(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        assert main(["reproduce", "--figure", "4.1"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4(1)" in out


class TestRunFlags:
    """The uniform --backend/--workers/--profile/--metrics-out block."""

    def test_both_subcommands_accept_run_flags(self):
        parser = build_parser()
        for head in (["cluster", "g.txt"], ["reproduce"]):
            args = parser.parse_args(
                head + ["--backend", "thread", "--workers", "3",
                        "--engine", "batch",
                        "--profile", "--metrics-out", "t.jsonl"]
            )
            assert args.backend == "thread"
            assert args.workers == 3
            assert args.engine == "batch"
            assert args.profile is True
            assert args.metrics_out == "t.jsonl"

    def test_engine_defaults_to_chained(self):
        args = build_parser().parse_args(["cluster", "g.txt"])
        assert args.engine == "chained"
        assert args.epsilon == 0.0

    def test_epsilon_parsed_as_float(self):
        args = build_parser().parse_args(
            ["cluster", "g.txt", "--engine", "sharded", "--epsilon", "0.25"]
        )
        assert args.engine == "sharded"
        assert args.epsilon == 0.25

    def test_storage_flags_parsed(self):
        args = build_parser().parse_args(
            ["cluster", "g.txt", "--coarse", "--pairs-format", "mmap",
             "--storage-dir", "/tmp/spill",
             "--memory-budget-bytes", "65536"]
        )
        assert args.pairs_format == "mmap"
        assert args.storage_dir == "/tmp/spill"
        assert args.memory_budget_bytes == 65536
        defaults = build_parser().parse_args(["cluster", "g.txt"])
        assert defaults.storage_dir is None
        assert defaults.memory_budget_bytes is None

    def test_cluster_mmap_matches_columnar_output(
        self, graph_file, tmp_path, capsys
    ):
        assert main(
            ["cluster", str(graph_file), "--coarse", "--json",
             "--pairs-format", "columnar"]
        ) == 0
        columnar_out = capsys.readouterr().out
        assert main(
            ["cluster", str(graph_file), "--coarse", "--json",
             "--pairs-format", "mmap",
             "--storage-dir", str(tmp_path / "spill"),
             "--memory-budget-bytes", "256"]
        ) == 0
        mmap_out = capsys.readouterr().out
        import json

        a = json.loads(columnar_out)
        b = json.loads(mmap_out)
        # Identical clustering; only the format/storage stamps differ.
        assert b["pairs_format"] == "mmap"
        for key in ("best_cut", "num_levels", "k1", "k2"):
            assert a[key] == b[key]

    def test_storage_flags_without_mmap_rejected(self, graph_file, capsys):
        assert main(
            ["cluster", str(graph_file), "--coarse",
             "--memory-budget-bytes", "1024"]
        ) == 2
        assert "memory_budget_bytes" in capsys.readouterr().err

    def test_cluster_profile_summary_on_stderr(self, graph_file, capsys):
        code = main(
            ["cluster", str(graph_file), "--int-labels",
             "--coarse", "--phi", "2", "--delta0", "5", "--profile"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "sweep:chunk[*]" in captured.err
        assert "phase:init" in captured.err
        assert "sweep:chunk" not in captured.out

    def test_cluster_profile_summary_printed_once(self, graph_file, capsys):
        code = main(["cluster", str(graph_file), "--int-labels", "--profile"])
        assert code == 0
        assert capsys.readouterr().err.count("total_s") == 1

    def test_cluster_metrics_out_writes_valid_jsonl(self, graph_file, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.jsonl"
        code = main(
            ["cluster", str(graph_file), "--int-labels",
             "--coarse", "--phi", "2", "--delta0", "5",
             "--metrics-out", str(trace)]
        )
        assert code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert {"run", "phase:init", "phase:sort", "phase:sweep"} <= names
        assert any(n.startswith("sweep:chunk[") for n in names)
        counters = {r["name"] for r in records if r["kind"] == "counter"}
        assert {"k1", "k2", "merges"} <= counters

    def test_cluster_json_output(self, graph_file, capsys):
        import json

        code = main(["cluster", str(graph_file), "--int-labels", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 3
        assert payload["config"]["backend"] == "serial"

    def test_reproduce_profile_traces_figures(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
        trace = tmp_path / "repro.jsonl"
        code = main(
            ["reproduce", "--figure", "4.1", "--metrics-out", str(trace)]
        )
        assert code == 0
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {r["name"] for r in records if r["kind"] == "span"}
        assert "figure:4.1" in names
        assert "run" in names
