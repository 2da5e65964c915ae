"""Distributed-tracing primitives: spans, trace propagation, retention.

Aggregate counters answer "how is the service doing"; they cannot answer
"what exactly happened to *this* script" — which pipeline stages ran,
where the time went, whether the work crossed into an isolated worker
process, and why the verdict came out the way it did.  This module is the
per-request layer underneath that question:

* :class:`SpanContext` — the propagated identity of a trace position,
  parsed from / rendered to the W3C ``traceparent`` header
  (``00-<trace_id>-<span_id>-<flags>``), so external callers can stitch
  our spans into their own traces,
* :class:`Span` — one named, timed operation with attributes and an
  ok/error status; stages measured elsewhere nest under it via
  :meth:`Span.synthesize` and a finished trace is the flat list of its
  span dicts,
* :class:`Tracer` — thread-safe factory with per-trace head sampling: the
  decision is made once at the root (inherited from the parent context
  when one is propagated) and unsampled traces cost a single no-op object,
* :class:`TraceStore` — bounded in-memory ring with a *slow-scan retention
  bias*: traces whose root exceeds the latency threshold are always kept
  until capacity forces them out, fast traces are the first evicted.

Spans deliberately serialize to plain dicts rather than a class hierarchy:
they are grafted between traces by the daemon, merged across shards by
the router, and round-trip through JSON on the debug endpoints.
"""

from __future__ import annotations

import os
import random
import re
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

#: ``traceparent`` grammar (W3C Trace Context, version 00 field layout).
_TRACEPARENT = re.compile(r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})$")

#: Hard cap on spans buffered per trace: a pathological batch cannot turn
#: the tracer into a memory leak.  Overflow is counted on the root span.
MAX_SPANS_PER_TRACE = 512


def new_trace_id() -> str:
    return os.urandom(16).hex()


def new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class SpanContext:
    """The propagated identity of one position in one trace."""

    trace_id: str  # 32 lowercase hex chars, not all-zero
    span_id: str  # 16 lowercase hex chars, not all-zero
    sampled: bool = True

    def to_traceparent(self) -> str:
        """Render the W3C ``traceparent`` header value."""
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    @classmethod
    def parse(cls, header: str | None) -> "SpanContext | None":
        """Parse a ``traceparent`` header; ``None`` for absent/malformed.

        Unknown versions are accepted with version-00 field semantics (the
        spec's forward-compatibility rule); all-zero ids are invalid.
        """
        if not header:
            return None
        match = _TRACEPARENT.match(header.strip().lower())
        if match is None:
            return None
        version, trace_id, span_id, flags = match.groups()
        if version == "ff" or trace_id == "0" * 32 or span_id == "0" * 16:
            return None
        try:
            sampled = bool(int(flags, 16) & 0x01)
        except ValueError:  # pragma: no cover - regex guarantees hex
            return None
        return cls(trace_id=trace_id, span_id=span_id, sampled=sampled)


class _TraceBuf:
    """Finished-span buffer shared by every span of one trace."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self.dropped = 0
        self._lock = threading.Lock()

    def add(self, span_dict: dict) -> None:
        with self._lock:
            if len(self.spans) >= MAX_SPANS_PER_TRACE:
                self.dropped += 1
                return
            self.spans.append(span_dict)


class Span:
    """One named, timed operation inside a trace.

    Usable as a context manager (an exception marks the span ``error``
    before re-raising) or via explicit :meth:`end`.  Thread-safe through
    the shared trace buffer; a span itself is owned by one thread.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "attributes", "status",
        "status_detail", "start_unix", "_start_perf", "_buf", "_tracer",
        "_is_root", "_ended", "sampled",
    )

    def __init__(
        self,
        tracer: "Tracer | None",
        buf: _TraceBuf,
        name: str,
        parent_id: str | None,
        attributes: dict | None = None,
        is_root: bool = False,
    ):
        self.name = name
        self.trace_id = buf.trace_id
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.status = "ok"
        self.status_detail: str | None = None
        self.start_unix = time.time()
        self._start_perf = time.perf_counter()
        self._buf = buf
        self._tracer = tracer
        self._is_root = is_root
        self._ended = False
        self.sampled = True

    # ------------------------------------------------------------ interface

    @property
    def recording(self) -> bool:
        return True

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id, sampled=True)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def set_status(self, status: str, detail: str | None = None) -> None:
        self.status = status
        self.status_detail = detail

    def add_span_dict(self, span_dict: dict) -> None:
        """Attach an externally built (worker/synthesized) span to this trace."""
        span_dict = dict(span_dict)
        span_dict["trace_id"] = self.trace_id
        self._buf.add(span_dict)

    def synthesize(
        self,
        name: str,
        duration_ms: float,
        parent_id: str | None = None,
        attributes: dict | None = None,
        events: list[dict] | None = None,
        status: str = "ok",
        status_detail: str | None = None,
        start_unix: float | None = None,
    ) -> dict:
        """Record an already-finished span (timing measured elsewhere).

        Used for stages whose cost is known only as a measured duration —
        per-file stage timings, work done in a pool worker — and returns
        the dict so callers can parent further spans to it.  ``start_unix``
        defaults to now.
        """
        span_dict = {
            "name": name,
            "trace_id": self.trace_id,
            "span_id": new_span_id(),
            "parent_id": parent_id or self.span_id,
            "start_unix": round(time.time() if start_unix is None else start_unix, 6),
            "duration_ms": round(float(duration_ms), 3),
            "attributes": dict(attributes or {}),
            "events": list(events or []),
            "status": status,
        }
        if status_detail is not None:
            span_dict["status_detail"] = status_detail
        self._buf.add(span_dict)
        return span_dict

    def end(self) -> None:
        if self._ended:
            return
        self._ended = True
        if self._is_root and self._buf.dropped:
            self.attributes["dropped_spans"] = self._buf.dropped
        self._buf.add(self.to_dict())
        if self._is_root and self._tracer is not None:
            self._tracer._finish_trace(self._buf)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": round(self.start_unix, 6),
            "duration_ms": round(1000.0 * (time.perf_counter() - self._start_perf), 3),
            "attributes": dict(self.attributes),
            "events": [],
            "status": self.status,
        }
        if self.status_detail is not None:
            out["status_detail"] = self.status_detail
        return out

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.set_status("error", f"{exc_type.__name__}: {exc}")
        self.end()
        return False


class NullSpan:
    """Unsampled stand-in: same surface as :class:`Span`, zero recording.

    Carries a real :class:`SpanContext` (so trace ids still propagate to
    responses and downstream services) but every mutation is a no-op — an
    unsampled trace allocates exactly one object no matter how many spans
    the sampled path would create.
    """

    __slots__ = ("_context",)

    def __init__(self, context: SpanContext):
        self._context = context

    @property
    def recording(self) -> bool:
        return False

    @property
    def context(self) -> SpanContext:
        return self._context

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_status(self, status: str, detail: str | None = None) -> None:
        pass

    def add_span_dict(self, span_dict: dict) -> None:
        pass

    def synthesize(self, name: str, duration_ms: float, **kwargs: Any) -> dict:
        return {}

    def end(self) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class Tracer:
    """Thread-safe span factory with head-based per-trace sampling.

    Args:
        sample_rate: Probability a *new* trace (no propagated parent) is
            recorded.  A propagated parent's sampled flag always wins —
            that is what makes an inbound ``traceparent`` with the sampled
            bit set observable end to end.
        sink: ``sink(trace_id, spans)`` called once when a root span ends;
            typically :meth:`TraceStore.put`.  ``None`` discards (callers
            that collect spans from the root's buffer, e.g. the scanner
            attaching them to a :class:`~repro.pipeline.ScanReport`, read
            them before the sink would).
    """

    def __init__(self, sample_rate: float = 1.0, sink: Callable[[str, list[dict]], None] | None = None):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = sample_rate
        self.sink = sink
        self._rng = random.Random()  # sampling only; never verdict-relevant

    def start_trace(
        self,
        name: str,
        parent: SpanContext | None = None,
        attributes: dict | None = None,
        force: bool | None = None,
    ) -> Span | NullSpan:
        """Open a root span, deciding the whole trace's sampling fate.

        Precedence: explicit ``force`` > propagated ``parent.sampled`` >
        ``sample_rate`` coin flip.  Unsampled roots are :class:`NullSpan`s
        that still carry the (propagated or fresh) trace id.
        """
        if force is not None:
            sampled = force
        elif parent is not None:
            sampled = parent.sampled
        else:
            sampled = self.sample_rate > 0.0 and self._rng.random() < self.sample_rate
        trace_id = parent.trace_id if parent is not None else new_trace_id()
        if not sampled:
            return NullSpan(SpanContext(trace_id=trace_id, span_id=new_span_id(), sampled=False))
        buf = _TraceBuf(trace_id)
        return Span(
            self,
            buf,
            name,
            parent_id=parent.span_id if parent is not None else None,
            attributes=attributes,
            is_root=True,
        )

    def _finish_trace(self, buf: _TraceBuf) -> None:
        if self.sink is not None:
            self.sink(buf.trace_id, buf.spans)


def trace_spans(span: Span | NullSpan) -> list[dict]:
    """The finished spans buffered so far for ``span``'s trace."""
    if not span.recording:
        return []
    assert isinstance(span, Span)
    return list(span._buf.spans)


def span_tree(spans: list[dict]) -> list[dict]:
    """Assemble flat span dicts into nested trees (children by parent id).

    Spans whose parent is absent from the list (e.g. a subtree extracted
    from a larger trace, or a root parented to a remote caller's span)
    become roots.  Children are ordered by start time.  Input dicts are
    shallow-copied; the originals are not mutated.
    """
    nodes = {s["span_id"]: {**s, "children": []} for s in spans}
    roots: list[dict] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id") or "")
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: n.get("start_unix", 0.0))
    roots.sort(key=lambda n: n.get("start_unix", 0.0))
    return roots


class TraceStore:
    """Bounded trace ring with slow-scan retention bias.

    Every finished trace is admitted; at ``capacity`` the oldest *fast*
    trace (root duration below ``slow_ms``) is evicted first, and only
    when every resident trace is slow does the oldest slow one go — so
    the traces most likely to matter for a latency investigation are the
    last to disappear.  All operations are thread-safe; memory is
    bounded by ``capacity`` times the per-trace span cap.
    """

    def __init__(self, capacity: int = 256, slow_ms: float = 250.0):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.slow_ms = slow_ms
        self._traces: OrderedDict[str, dict] = OrderedDict()  # insertion = age order
        self._lock = threading.Lock()
        self.stored = 0
        self.evicted = 0

    @staticmethod
    def _root_of(spans: list[dict]) -> dict | None:
        roots = [s for s in spans if not s.get("parent_id")]
        if roots:
            return max(roots, key=lambda s: s.get("duration_ms", 0.0))
        return spans[0] if spans else None

    def put(self, trace_id: str, spans: list[dict]) -> bool:
        """Admit one finished trace; returns whether it was kept."""
        if not spans:
            return False
        root = self._root_of(spans)
        duration_ms = float(root.get("duration_ms", 0.0)) if root else 0.0
        slow = duration_ms >= self.slow_ms
        record = {
            "trace_id": trace_id,
            "root": root["name"] if root else "<unknown>",
            "duration_ms": duration_ms,
            "status": root.get("status", "ok") if root else "ok",
            "slow": slow,
            "n_spans": len(spans),
            "stored_unix": round(time.time(), 6),
            "spans": list(spans),
        }
        with self._lock:
            self._traces[trace_id] = record
            self._traces.move_to_end(trace_id)
            while len(self._traces) > self.capacity:
                victim = next(
                    (tid for tid, rec in self._traces.items() if not rec["slow"]),
                    next(iter(self._traces)),
                )
                del self._traces[victim]
                self.evicted += 1
            self.stored += 1
        return True

    def get(self, trace_id: str) -> dict | None:
        """Full stored trace: summary fields plus flat spans and the tree."""
        with self._lock:
            record = self._traces.get(trace_id)
            if record is None:
                return None
            record = dict(record)
        record["tree"] = span_tree(record["spans"])
        return record

    def list(
        self, n: int = 20, slow_ms: float | None = None, status: str | None = None
    ) -> list[dict]:
        """Newest-first trace summaries (no span bodies).

        ``slow_ms`` keeps only traces whose root took at least that long;
        ``status`` keeps only traces whose root ended in that status —
        together they are the jump from an SLO ``page`` state to the
        offending traces without dumping the whole ring.
        """
        with self._lock:
            records = list(self._traces.values())
        records.reverse()
        if slow_ms is not None:
            records = [r for r in records if r["duration_ms"] >= slow_ms]
        if status is not None:
            records = [r for r in records if r["status"] == status]
        return [
            {key: record[key] for key in
             ("trace_id", "root", "duration_ms", "status", "slow", "n_spans", "stored_unix")}
            for record in records[: max(n, 0)]
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)
