"""Unit tests for the tracing primitives in :mod:`repro.obs.trace`."""

import threading

import pytest

from repro.obs import NullSpan, Span, SpanContext, TraceStore, Tracer, span_tree, trace_spans
from repro.obs.trace import MAX_SPANS_PER_TRACE, new_span_id, new_trace_id

TRACE_ID = "ab" * 16
SPAN_ID = "cd" * 8


class TestSpanContext:
    def test_roundtrip(self):
        context = SpanContext(trace_id=TRACE_ID, span_id=SPAN_ID, sampled=True)
        header = context.to_traceparent()
        assert header == f"00-{TRACE_ID}-{SPAN_ID}-01"
        assert SpanContext.parse(header) == context

    def test_unsampled_flag(self):
        context = SpanContext(trace_id=TRACE_ID, span_id=SPAN_ID, sampled=False)
        assert context.to_traceparent().endswith("-00")
        parsed = SpanContext.parse(context.to_traceparent())
        assert parsed is not None and parsed.sampled is False

    def test_unknown_flag_bits_still_parse_sampled(self):
        parsed = SpanContext.parse(f"00-{TRACE_ID}-{SPAN_ID}-03")
        assert parsed is not None and parsed.sampled is True

    def test_future_version_accepted(self):
        assert SpanContext.parse(f"42-{TRACE_ID}-{SPAN_ID}-01") is not None

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "not-a-traceparent",
            f"00-{TRACE_ID}-{SPAN_ID}",  # missing flags
            f"00-{'0' * 32}-{SPAN_ID}-01",  # all-zero trace id
            f"00-{TRACE_ID}-{'0' * 16}-01",  # all-zero span id
            f"ff-{TRACE_ID}-{SPAN_ID}-01",  # forbidden version
            f"00-{TRACE_ID[:30]}-{SPAN_ID}-01",  # short trace id
            f"00-{TRACE_ID}-{SPAN_ID}-01-extra",
        ],
    )
    def test_malformed_headers_rejected(self, header):
        assert SpanContext.parse(header) is None

    def test_parse_is_case_and_whitespace_tolerant(self):
        parsed = SpanContext.parse(f"  00-{TRACE_ID.upper()}-{SPAN_ID}-01 ")
        assert parsed is not None and parsed.trace_id == TRACE_ID

    def test_id_generators_are_well_formed(self):
        assert len(new_trace_id()) == 32 and int(new_trace_id(), 16) >= 0
        assert len(new_span_id()) == 16 and int(new_span_id(), 16) >= 0


class TestSpan:
    def test_root_span_records_and_finishes(self):
        sink = {}
        tracer = Tracer(sample_rate=1.0, sink=lambda tid, spans: sink.update({tid: spans}))
        root = tracer.start_trace("op", attributes={"k": "v"})
        assert isinstance(root, Span) and root.recording
        root.set_attribute("n", 3)
        root.end()
        spans = sink[root.trace_id]
        assert len(spans) == 1
        span = spans[0]
        assert span["name"] == "op"
        assert span["attributes"] == {"k": "v", "n": 3}
        assert span["events"] == []
        assert span["status"] == "ok"
        assert span["duration_ms"] >= 0

    def test_children_nest_and_tree_assembles(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("root")
        root.synthesize("stage_a", 1.0)
        stage_b = root.synthesize("stage_b", 2.0)
        root.synthesize("inner", 0.5, parent_id=stage_b["span_id"])
        root.end()
        tree = span_tree(trace_spans(root))
        assert len(tree) == 1 and tree[0]["name"] == "root"
        names = {child["name"] for child in tree[0]["children"]}
        assert names == {"stage_a", "stage_b"}
        stage_b = next(c for c in tree[0]["children"] if c["name"] == "stage_b")
        assert [c["name"] for c in stage_b["children"]] == ["inner"]

    def test_exception_marks_error_status(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("boom")
        with pytest.raises(RuntimeError):
            with root:
                raise RuntimeError("kaput")
        span = trace_spans(root)[-1]
        assert span["status"] == "error"
        assert "kaput" in span["status_detail"]

    def test_synthesize_and_reparent(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("root")
        anchor = root.synthesize("measured", 12.5, attributes={"src": "worker"})
        root.synthesize("leaf", 3.0, parent_id=anchor["span_id"])
        root.end()
        tree = span_tree(trace_spans(root))
        measured = next(c for c in tree[0]["children"] if c["name"] == "measured")
        assert measured["duration_ms"] == 12.5
        assert [c["name"] for c in measured["children"]] == ["leaf"]

    def test_add_span_dict_rekeys_trace_id(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("root")
        foreign = {"name": "w", "trace_id": "ee" * 16, "span_id": new_span_id(),
                   "parent_id": root.span_id, "start_unix": 0.0, "duration_ms": 1.0,
                   "attributes": {}, "events": [], "status": "ok"}
        root.add_span_dict(foreign)
        assert trace_spans(root)[0]["trace_id"] == root.trace_id
        assert foreign["trace_id"] == "ee" * 16  # input not mutated

    def test_span_cap_drops_overflow_and_counts_it(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("root")
        for _ in range(MAX_SPANS_PER_TRACE + 10):
            root.synthesize("s", 0.1)
        root.end()
        spans = trace_spans(root)
        assert len(spans) == MAX_SPANS_PER_TRACE
        # The root itself no longer fits; its dropped count still made it
        # into the buffer's accounting before the cap hit.
        assert root.attributes["dropped_spans"] >= 10

    def test_orphan_spans_become_tree_roots(self):
        spans = [
            {"span_id": "a" * 16, "parent_id": "f" * 16, "name": "orphan", "start_unix": 1.0},
            {"span_id": "b" * 16, "parent_id": None, "name": "root", "start_unix": 0.0},
        ]
        tree = span_tree(spans)
        assert [node["name"] for node in tree] == ["root", "orphan"]


class TestTracerSampling:
    def test_rate_zero_yields_null_span(self):
        root = Tracer(sample_rate=0.0).start_trace("op")
        assert isinstance(root, NullSpan) and not root.recording
        assert root.synthesize("y", 1.0) == {}
        assert trace_spans(root) == []
        root.end()  # no-op, no error

    def test_null_span_still_carries_trace_id(self):
        root = Tracer(sample_rate=0.0).start_trace("op")
        assert len(root.context.trace_id) == 32
        assert root.context.to_traceparent().endswith("-00")

    def test_parent_sampled_flag_wins_over_rate(self):
        sampled_parent = SpanContext(trace_id=TRACE_ID, span_id=SPAN_ID, sampled=True)
        root = Tracer(sample_rate=0.0).start_trace("op", parent=sampled_parent)
        assert root.recording and root.trace_id == TRACE_ID
        assert root.parent_id == SPAN_ID

        unsampled_parent = SpanContext(trace_id=TRACE_ID, span_id=SPAN_ID, sampled=False)
        root = Tracer(sample_rate=1.0).start_trace("op", parent=unsampled_parent)
        assert not root.recording and root.context.trace_id == TRACE_ID

    def test_force_wins_over_everything(self):
        unsampled_parent = SpanContext(trace_id=TRACE_ID, span_id=SPAN_ID, sampled=False)
        root = Tracer(sample_rate=0.0).start_trace("op", parent=unsampled_parent, force=True)
        assert root.recording
        assert not Tracer(sample_rate=1.0).start_trace("op", force=False).recording

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)

    def test_concurrent_children_all_recorded(self):
        tracer = Tracer(sample_rate=1.0)
        root = tracer.start_trace("root")
        anchor = root.synthesize("anchor", 1.0)

        def work():
            for _ in range(50):
                root.synthesize("w", 0.1, parent_id=anchor["span_id"])

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = trace_spans(root)
        assert len(spans) == 201
        assert sum(1 for span in spans if span["parent_id"] == anchor["span_id"]) == 200


def _trace(trace_id: str, duration_ms: float, name: str = "op") -> list[dict]:
    return [{
        "name": name, "trace_id": trace_id, "span_id": "ab" * 8, "parent_id": None,
        "start_unix": 0.0, "duration_ms": duration_ms, "attributes": {}, "events": [],
        "status": "ok",
    }]


class TestTraceStore:
    def test_put_get_list(self):
        store = TraceStore(capacity=4, slow_ms=100.0)
        assert store.put("t1", _trace("t1", 5.0))
        record = store.get("t1")
        assert record["root"] == "op" and record["n_spans"] == 1
        assert record["tree"][0]["name"] == "op"
        assert store.get("missing") is None
        assert [r["trace_id"] for r in store.list()] == ["t1"]

    def test_empty_trace_refused(self):
        store = TraceStore(capacity=4)
        assert not store.put("t", [])
        assert len(store) == 0

    def test_fast_traces_evicted_before_slow(self):
        store = TraceStore(capacity=2, slow_ms=100.0)
        store.put("slow", _trace("slow", 500.0))
        store.put("fast1", _trace("fast1", 1.0))
        store.put("fast2", _trace("fast2", 1.0))  # capacity hit: fast1 goes, slow stays
        assert store.get("slow") is not None
        assert store.get("fast1") is None
        assert store.get("fast2") is not None
        assert store.evicted == 1

    def test_all_slow_falls_back_to_oldest(self):
        store = TraceStore(capacity=2, slow_ms=10.0)
        for tid in ("s1", "s2", "s3"):
            store.put(tid, _trace(tid, 50.0))
        assert store.get("s1") is None
        assert store.get("s2") is not None and store.get("s3") is not None

    def test_list_is_newest_first_without_span_bodies(self):
        store = TraceStore(capacity=8)
        store.put("a", _trace("a", 1.0))
        store.put("b", _trace("b", 2.0))
        listed = store.list(n=10)
        assert [r["trace_id"] for r in listed] == ["b", "a"]
        assert "spans" not in listed[0]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TraceStore(capacity=0)
