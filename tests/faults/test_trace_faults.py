"""Tracing across the isolation boundary: worker spans and fault synthesis.

The contract: workers record no spans.  A healthy worker's reply carries
its run time and the pool adds its pid; from those the scanner builds a
``worker.embed`` span with its stage children under the file's
``script`` span.  For workers that never answer — killed on deadline or
found dead — the scanner synthesizes a terminal error span from the
fault classification, so a trace never has a silent gap where a worker
died.
"""

import pytest

from repro.faults import ScanLimits
from repro.obs import span_tree
from repro.pipeline import BatchScanner

HANG = "/* @repro-fault:hang */ var a = 1;"

LIMITS = ScanLimits(timeout_s=2.0)


def walk(nodes):
    """Flatten a per-file span tree (``result.trace['spans']`` is nested)."""
    for node in nodes:
        yield node
        yield from walk(node.get("children", []))


def spans_named(trace, name):
    return [span for span in walk(trace["spans"]) if span["name"] == name]


class TestIsolatedTracing:
    def test_worker_embed_spans_reparent_under_script_spans(self, detector, split):
        scanner = BatchScanner(detector, n_workers=2, limits=LIMITS)
        report = scanner.scan(split.test.sources[:4], trace=True)
        assert report.trace is not None
        assert all(result.status == "ok" for result in report.results)
        for result in report.results:
            worker = spans_named(result.trace, "worker.embed")
            assert len(worker) == 1, result.path
            assert worker[0]["parent_id"] == result.trace["span_id"]
            assert worker[0]["attributes"]["pid"] != 0
            # Stage children, built from the worker's reply.
            children = {child["name"] for child in worker[0]["children"]}
            assert {"path_extraction", "embedding"} <= children
            # Provenance survived the process boundary too.
            assert result.trace["provenance"]["top_paths"]

    def test_all_spans_share_the_batch_trace_id(self, detector, split):
        scanner = BatchScanner(detector, n_workers=2, limits=LIMITS)
        report = scanner.scan(split.test.sources[:3], trace=True)
        trace_id = report.trace["trace_id"]
        # The report-level span list is flat (one entry per finished span).
        assert all(span["trace_id"] == trace_id for span in report.trace["spans"])
        assert any(span["name"] == "worker.embed" for span in report.trace["spans"])

    def test_killed_worker_gets_synthesized_terminal_span(self, detector, split, inject):
        scanner = BatchScanner(detector, n_workers=1, limits=LIMITS)
        report = scanner.scan([HANG, split.test.sources[0]], trace=True)
        hung = report.results[0]
        assert hung.status == "timeout"
        terminal = spans_named(hung.trace, "worker.embed")
        assert len(terminal) == 1
        span = terminal[0]
        assert span["status"] == "error"
        assert span["attributes"]["cause"] == "timeout"
        assert "deadline" in span["status_detail"]
        # Synthesized duration reflects the enforced deadline, and the span
        # parents under the script span like a real worker reply would.
        assert span["duration_ms"] == pytest.approx(1000.0 * LIMITS.timeout_s)
        assert span["parent_id"] == hung.trace["span_id"]
        # The healthy neighbor still traced normally.
        healthy = report.results[1]
        assert healthy.status == "ok"
        assert spans_named(healthy.trace, "worker.embed")[0]["status"] == "ok"

    def test_batch_root_marks_error_when_faults_present(self, detector, split, inject):
        scanner = BatchScanner(detector, n_workers=1, limits=LIMITS)
        report = scanner.scan([HANG], trace=True)
        roots = span_tree(report.trace["spans"])
        assert roots[0]["name"] == "scan.batch"
        assert roots[0]["status"] == "error"
        assert roots[0]["attributes"]["fault_count"] == 1

    def test_untraced_isolated_scan_has_no_trace(self, detector, split):
        scanner = BatchScanner(detector, n_workers=1, limits=LIMITS)
        report = scanner.scan(split.test.sources[:2])
        assert report.trace is None
        assert all(result.trace is None for result in report.results)
        assert all(result.status == "ok" for result in report.results)
