"""Tests for the span tracer (repro.obs.tracer)."""

import io
import json
import threading

import pytest

from repro.datalog.store import InterleavingStore
from repro.obs.tracer import Span, Tracer, parse_jsonl


def fake_clock(ticks):
    """A deterministic clock yielding successive values from ``ticks``."""
    iterator = iter(ticks)
    return lambda: next(iterator)


class TestSpan:
    def test_kind_splits_at_colon(self):
        assert Span(1, 0, "prune:replica_specific", 0.0).kind == "prune"
        assert Span(2, 0, "replay:fresh", 0.0).kind == "replay"
        assert Span(3, 0, "explore", 0.0).kind == "explore"

    def test_trace_event_shape(self):
        span = Span(7, 3, "replay", 1.5, duration_s=0.25, thread=42,
                    attrs={"cache": "hit"})
        event = span.to_trace_event()
        assert event["name"] == "replay"
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1.5e6)
        assert event["dur"] == pytest.approx(0.25e6)
        assert event["pid"] == 0
        assert event["tid"] == 42
        assert event["args"] == {"span_id": 7, "parent_id": 3, "cache": "hit"}


class TestTracer:
    def test_nesting_records_parent(self):
        tracer = Tracer()
        outer = tracer.begin("explore")
        inner = tracer.begin("replay")
        tracer.end(inner)
        tracer.end(outer)
        assert outer.parent_id == 0
        assert inner.parent_id == outer.span_id
        # Committed in end() order: innermost first.
        assert [span.name for span in tracer.spans] == ["replay", "explore"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        root = tracer.begin("explore")
        for _ in range(3):
            tracer.end(tracer.begin("generate"))
        tracer.end(root)
        parents = {s.parent_id for s in tracer.spans if s.name == "generate"}
        assert parents == {root.span_id}

    def test_durations_from_clock(self):
        tracer = Tracer(clock=fake_clock([10.0, 10.5]))
        span = tracer.begin("replay")
        tracer.end(span)
        assert span.duration_s == pytest.approx(0.5)

    def test_end_attaches_attrs(self):
        tracer = Tracer()
        span = tracer.begin("replay")
        tracer.end(span, cache="hit", violated=False)
        assert span.attrs == {"cache": "hit", "violated": False}

    def test_out_of_order_end_tolerated(self):
        tracer = Tracer()
        first = tracer.begin("a")
        second = tracer.begin("b")
        tracer.end(first)  # closes the *outer* span first
        third = tracer.begin("c")
        tracer.end(third)
        tracer.end(second)
        assert len(tracer.spans) == 3
        # The stack survived: c's parent is b (the innermost open span).
        assert third.parent_id == second.span_id

    def test_counts_and_kinds(self):
        tracer = Tracer()
        for name in ("replay", "replay", "replay:fresh", "prune:failed_ops"):
            tracer.end(tracer.begin(name))
        assert tracer.counts() == {
            "replay": 2, "replay:fresh": 1, "prune:failed_ops": 1,
        }
        assert tracer.kinds() == {"replay": 3, "prune": 1}

    def test_threads_get_independent_stacks(self):
        tracer = Tracer()
        root = tracer.begin("explore")
        seen = {}

        def worker():
            span = tracer.begin("replay")
            tracer.end(span)
            seen["parent"] = span.parent_id

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        tracer.end(root)
        # The worker thread's stack is empty, so its span is a root span —
        # it does not inherit the main thread's open explore span.
        assert seen["parent"] == 0

    def test_jsonl_round_trip(self):
        tracer = Tracer()
        explore = tracer.begin("explore")
        tracer.end(tracer.begin("replay"))
        tracer.end(explore)
        buffer = io.StringIO()
        written = tracer.write_jsonl(buffer)
        assert written == 2
        events = parse_jsonl(buffer.getvalue())
        assert len(events) == 2
        assert {event["name"] for event in events} == {"explore", "replay"}
        for event in events:
            json.dumps(event)  # every event is plain JSON

    def test_write_jsonl_to_path(self, tmp_path):
        tracer = Tracer()
        tracer.end(tracer.begin("replay"))
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(str(path)) == 1
        assert parse_jsonl(path.read_text())[0]["name"] == "replay"

    def test_persist_is_incremental(self):
        store = InterleavingStore()
        tracer = Tracer(clock=fake_clock([0.0, 1.0, 2.0, 2.5]))
        tracer.end(tracer.begin("explore"))
        assert tracer.persist(store) == 1
        assert tracer.persist(store) == 0  # nothing new
        tracer.end(tracer.begin("replay"))
        assert tracer.persist(store) == 1
        rows = store.spans()
        assert [(row[2], row[3]) for row in rows] == [
            ("explore", 1_000_000),
            ("replay", 500_000),
        ]


class TestParseJsonl:
    def test_rejects_malformed_json(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_jsonl('{"name": "a", "ph": "X"}\n{not json}')

    def test_rejects_non_event_lines(self):
        with pytest.raises(ValueError, match="not a trace event"):
            parse_jsonl('{"no_name": true}')

    def test_skips_blank_lines(self):
        events = parse_jsonl('\n{"name": "a", "ph": "X"}\n\n')
        assert len(events) == 1
