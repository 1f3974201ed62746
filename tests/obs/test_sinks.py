"""JSON-lines and summary sinks."""

from __future__ import annotations

import io
import json

from repro.obs import JsonLinesSink, MemorySink, SummarySink, Tracer, render_summary


def _demo_run(tracer):
    with tracer.span("run", backend="serial"):
        with tracer.span("phase:init"):
            pass
        with tracer.span("phase:sweep"):
            for i in range(3):
                with tracer.span(f"sweep:chunk[{i}]"):
                    tracer.record("runtime:compute", 0.01, workers=1)
    tracer.gauge("k1", 10)
    tracer.count("merges", 4)


class TestJsonLinesSink:
    def test_writes_one_valid_json_object_per_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer([JsonLinesSink(path)])
        _demo_run(tracer)
        tracer.close()

        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        kinds = {r["kind"] for r in records}
        assert kinds == {"span", "counter"}
        span_names = {r["name"] for r in records if r["kind"] == "span"}
        assert {"run", "phase:init", "phase:sweep", "sweep:chunk[0]"} <= span_names
        counters = {r["name"]: r["value"] for r in records if r["kind"] == "counter"}
        assert counters == {"k1": 10, "merges": 4}

    def test_caller_owned_stream_left_open(self):
        stream = io.StringIO()
        sink = JsonLinesSink(stream)
        tracer = Tracer([sink])
        with tracer.span("run"):
            pass
        tracer.close()
        assert not stream.closed
        assert json.loads(stream.getvalue().splitlines()[0])["name"] == "run"

    def test_no_file_created_before_first_emit(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonLinesSink(path)
        sink.flush()
        sink.close()
        assert not path.exists()


class TestSummary:
    def test_chunk_indices_collapse(self):
        sink = MemorySink()
        tracer = Tracer([sink])
        _demo_run(tracer)
        text = render_summary(sink.spans, tracer.counters)
        assert "sweep:chunk[*]" in text
        assert "sweep:chunk[0]" not in text
        assert "merges" in text

    def test_summary_sink_prints_on_close(self):
        stream = io.StringIO()
        tracer = Tracer([SummarySink(stream)])
        _demo_run(tracer)
        tracer.close()
        out = stream.getvalue()
        assert "span" in out and "calls" in out
        assert "run" in out
        # second close is a no-op (no duplicate table)
        tracer.close()
        assert stream.getvalue() == out

    def test_empty_summary_sink_prints_nothing(self):
        stream = io.StringIO()
        sink = SummarySink(stream)
        sink.close()
        assert stream.getvalue() == ""

    def test_share_column_relative_to_top_level_span(self):
        sink = MemorySink()
        tracer = Tracer([sink])
        with tracer.span("run"):
            tracer.record("half", 0.0)
        # synthesize a stable check via render on hand-built spans
        text = render_summary(sink.spans)
        lines = [line for line in text.splitlines() if line.startswith("run")]
        assert lines and "100.0%" in lines[0]


class TestReplaySink:
    def test_replay_snapshots_dicts(self):
        from repro.obs import ReplaySink

        sink = ReplaySink()
        tracer = Tracer([sink])
        _demo_run(tracer)
        records = sink.replay()
        assert len(records) == len(sink)
        assert all(isinstance(r, dict) for r in records)
        names = [r["name"] for r in records if r["kind"] == "span"]
        assert "run" in names and "phase:sweep" in names
        # `start` resumes mid-stream.
        assert sink.replay(start=len(records) - 1) == records[-1:]

    def test_follow_ends_when_closed(self):
        import threading

        from repro.obs import ReplaySink

        sink = ReplaySink()
        tracer = Tracer([sink])
        seen = []

        def reader():
            for record in sink.follow(timeout=5.0):
                seen.append(record)

        thread = threading.Thread(target=reader)
        thread.start()
        _demo_run(tracer)
        tracer.close()
        sink.close()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert seen == sink.replay()
        assert sink.closed

    def test_follow_timeout_returns_early(self):
        from repro.obs import ReplaySink

        sink = ReplaySink()  # never closed, never fed
        assert list(sink.follow(timeout=0.01)) == []

    def test_emit_after_close_still_drains(self):
        from repro.obs import ReplaySink

        sink = ReplaySink()
        tracer = Tracer([sink])
        tracer.event("run:pairs_format", format="columnar")
        sink.close()
        # A follower starting after close replays then stops.
        records = list(sink.follow(timeout=1.0))
        assert len(records) == 1
        assert records[0]["name"] == "run:pairs_format"
