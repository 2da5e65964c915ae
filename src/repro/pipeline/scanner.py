"""Batch-scanning engine.

Per-script work (parse → enhanced AST → path contexts → embedding, the
300-path cap and the raw cluster row) is CPU-bound and embarrassingly
parallel, and Table VIII shows it dominates detection cost; the shared
stages (Eq. 6 normalization, forest classification) are sub-millisecond
and stay in-process.  The scanner therefore:

1. consults the content-addressed :class:`~repro.pipeline.cache.FeatureCache`
   (a script's raw cluster row is a pure function of source bytes + model
   parameters),
2. runs every cache miss through one per-script function,
   :func:`~repro.faults.workers._run_embed`, which ends at that raw row:
   in-process on the detector's own extractor, embedder and feature
   extractor, or in an :class:`~repro.faults.IsolatedPool` whose workers
   hold a private copy of all three,
3. stacks the batch's rows, min–max normalizes each by its own range
   (Eq. 6, :meth:`~repro.core.features.FeatureExtractor.transform`), runs
   the classifier once, and returns a structured
   :class:`~repro.pipeline.results.ScanReport`.

The pool starts with the first scan that needs it (``n_workers > 1`` and
at least two misses, or active :class:`~repro.faults.ScanLimits`) and
lives until :meth:`BatchScanner.close`.

Determinism: workers run exactly the numpy operations of the in-process
path on identical inputs, so ``--workers 4`` output is byte-identical to
``--workers 1``.  A pool that fails to start or run degrades to the
in-process path for the whole batch; without limits, a script whose
worker died or raised is re-run in-process, so one lost worker never
stalls the batch.

Fault isolation: with limits, every pooled script runs under a
wall-clock deadline and kernel rlimits, so a script that hangs, OOMs, or
kills its worker is quarantined and answered with a structured degraded
verdict while every other script in the batch gets its normal,
byte-identical result.  See DESIGN.md §9.
"""

from __future__ import annotations

import sys
import time
from typing import TYPE_CHECKING

import numpy as np

from repro.faults import (
    FAULT_CAUSES,
    IsolatedPool,
    QuarantineEntry,
    QuarantineJournal,
    ScanLimits,
    Task,
    build_embed_init,
)
from repro.faults.workers import EmbedPayload, _run_embed
from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.obs.trace import SpanContext, new_span_id, trace_spans

from .cache import CacheEntry, FeatureCache, content_key
from .results import STAGE_KEYS, STATUS_OK, ScanReport, ScanResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis import Analyzer
    from repro.core.detector import JSRevealer
    from repro.deobfuscate import Deobfuscator, NormalizationReport
    from repro.obs import MetricsRegistry, Span, Tracer

#: Classifiers whose ``predict`` is ``classes_[argmax(predict_proba(X))]``:
#: one ``predict_proba`` pass yields their labels too.  Exact types only, as
#: a subclass may override ``predict``.
_ARGMAX_CLASSIFIERS = (RandomForestClassifier, DecisionTreeClassifier)


def _classify(classifier, X) -> tuple[np.ndarray, np.ndarray | None]:
    """Labels and class probabilities (``None`` without ``predict_proba``)."""
    proba = (
        np.asarray(classifier.predict_proba(X)) if hasattr(classifier, "predict_proba") else None
    )
    if proba is not None and type(classifier) in _ARGMAX_CLASSIFIERS:
        return classifier.classes_[np.argmax(proba, axis=1)], proba
    return np.asarray(classifier.predict(X)), proba


class BatchScanner:
    """Fan-out scanner over a fitted :class:`~repro.core.detector.JSRevealer`.

    Args:
        detector: A fitted detector (its embedder/extractor/classifier are
            the single source of truth; the scanner owns no model state).
        n_workers: Pool size; ``1`` scans in-process unless ``limits``
            are active.  The pool starts with the first scan that needs it
            and is reused by every later scan until :meth:`close`, so a
            daemon scanning many micro-batches pays fork + model transfer
            once.  Call :meth:`close` (or use the scanner as a context
            manager) when done; a broken pool is discarded and rebuilt
            lazily.
        cache: Optional content-addressed cluster-row cache.  Callers are
            responsible for keying it to ``detector.fingerprint()`` —
            :meth:`JSRevealer.scan_batch` does this automatically.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; when given,
            each scan records batch size, script count, and per-stage
            latency histograms.
        triage: Optional :class:`~repro.analysis.Analyzer`.  When given,
            every script is statically analyzed first and the report is
            attached to its :class:`ScanResult`.  Scripts where a
            *decisive* rule fires are settled on the spot (malicious,
            probability 1.0) and skip extraction/embedding/classification
            entirely — the triage fast-path.  Non-decisive scripts flow
            through the full pipeline unchanged, so verdicts are identical
            to an untriaged scan for them.
        limits: Optional :class:`~repro.faults.ScanLimits`.  When any bound
            is set, pending scripts always run in the worker pool, under
            those bounds: a script that overruns its deadline, trips the
            memory rlimit, or kills its worker comes back as a structured
            ``timeout``/``oom``/``crashed`` result (with a degraded
            triage-only verdict where the analyzer survives) instead of
            taking the batch down.
        quarantine: Optional :class:`~repro.faults.QuarantineJournal`;
            scripts that faulted once are never re-dispatched.  Defaults to
            a memory-only journal whenever ``limits`` are active.
        tracer: Optional :class:`~repro.obs.Tracer`.  When given, each
            :meth:`scan` call may open a ``scan.batch`` root span (subject
            to the tracer's sampling or the call's ``trace=`` override)
            with per-file stage spans, worker-side spans re-parented from
            the isolation layer, and verdict provenance attached to every
            :class:`ScanResult`.  ``None`` disables tracing entirely —
            verdicts and JSON output are byte-identical either way.
        deobfuscate: Optional :class:`~repro.deobfuscate.Deobfuscator`.
            When given, every source is normalized *before* triage,
            content keys, and embedding, so the whole pipeline sees the
            deobfuscated text.  Clean scripts come back verbatim (the
            normalizer's byte-identical no-op contract), keeping their
            verdicts and cache keys untouched; rewritten scripts carry a
            ``normalization`` report on their :class:`ScanResult` and a
            ``deobfuscate`` span when traced.
    """

    def __init__(
        self,
        detector: "JSRevealer",
        n_workers: int = 1,
        cache: FeatureCache | None = None,
        metrics: "MetricsRegistry | None" = None,
        triage: "Analyzer | None" = None,
        limits: ScanLimits | None = None,
        quarantine: QuarantineJournal | None = None,
        tracer: "Tracer | None" = None,
        deobfuscate: "Deobfuscator | None" = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be positive")
        self.detector = detector
        self.n_workers = n_workers
        self.cache = cache
        self._pool: IsolatedPool | None = None
        self.triage = triage
        if limits is not None:
            limits.validate()
        self.limits = limits
        self.isolated = limits is not None and limits.active
        if quarantine is None and self.isolated:
            quarantine = QuarantineJournal()
        self.quarantine = quarantine
        self.tracer = tracer
        self.deobfuscate = deobfuscate
        self.metrics = metrics
        if metrics is not None:
            from repro.obs.metrics import DEFAULT_SIZE_BUCKETS

            self._m_batches = metrics.counter(
                "repro_scan_batches_total", "Batches dispatched through BatchScanner.scan"
            )
            self._m_scripts = metrics.counter(
                "repro_scan_scripts_total", "Scripts scanned across all batches"
            )
            self._m_batch_size = metrics.histogram(
                "repro_scan_batch_size_scripts",
                "Scripts per dispatched batch",
                buckets=DEFAULT_SIZE_BUCKETS,
            )
            self._m_stage = {
                stage: metrics.histogram(
                    "repro_scan_stage_seconds",
                    "Per-batch wall-clock cost of each pipeline stage",
                    labels={"stage": stage},
                )
                for stage in STAGE_KEYS
            }
            self._m_failures = {
                cause: metrics.counter(
                    "repro_scan_failures_total",
                    "Scripts that faulted their isolated worker, by cause",
                    labels={"cause": cause},
                )
                for cause in FAULT_CAUSES
            }
            self._m_dedup_batch = metrics.counter(
                "repro_scan_dedup_total",
                "In-flight duplicate scripts answered by one embedding",
                labels={"scope": "batch"},
            )
            self._m_dedup_cluster = metrics.counter(
                "repro_scan_dedup_total",
                "In-flight duplicate scripts answered by one embedding",
                labels={"scope": "cluster"},
            )

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop the worker pool, if one is running."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _ensure_pool(self) -> IsolatedPool:
        if self._pool is None:
            self._pool = IsolatedPool(
                build_embed_init(self.detector), limits=self.limits, n_workers=self.n_workers
            )
        return self._pool

    def _count_failure(self, cause: str | None) -> None:
        if self.metrics is not None and cause in FAULT_CAUSES:
            self._m_failures[cause].inc()

    def __enter__(self) -> "BatchScanner":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ scan

    def scan(
        self,
        sources: list[str],
        names: list[str] | None = None,
        threshold: float = 0.5,
        trace: bool | None = None,
        trace_parent: SpanContext | None = None,
    ) -> ScanReport:
        """Scan a batch; see the class docstring for the moving parts.

        Args:
            trace: ``True`` forces this batch to be traced, ``False``
                forces it off, ``None`` (default) defers to the tracer's
                sampling (never traced without a tracer).
            trace_parent: Propagated :class:`SpanContext` to parent the
                batch root span under (e.g. from an inbound
                ``traceparent`` header).
        """
        detector = self.detector
        if not detector._fitted:
            raise RuntimeError("JSRevealer used before fit()")
        started = time.perf_counter()
        n = len(sources)
        if names is None:
            names = [f"<script:{i}>" for i in range(n)]
        if len(names) != n:
            raise ValueError("names and sources length mismatch")

        root: "Span | None" = None
        if self.tracer is not None and trace is not False:
            candidate = self.tracer.start_trace(
                "scan.batch",
                parent=trace_parent,
                attributes={"n_scripts": n, "n_workers": self.n_workers, "isolated": self.isolated},
                force=trace,
            )
            if candidate.recording:
                root = candidate  # type: ignore[assignment]
        recording = root is not None
        #: Pre-generated per-file span ids: workers parent their spans to
        #: these before the file span itself is synthesized (at the end,
        #: once its total cost and outcome are known).
        file_span_ids: list[str] | None = [new_span_id() for _ in range(n)] if recording else None
        top_paths: list[list | None] = [None] * n
        worker_spans: list[list | None] = [None] * n

        entries: list[CacheEntry | None] = [None] * n
        hit_flags = [False] * n
        per_file_ms: list[dict[str, float]] = [
            {"path_extraction": 0.0, "embedding": 0.0} for _ in range(n)
        ]
        statuses: list[str] = [STATUS_OK] * n
        fault_info: list[dict | None] = [None] * n

        # Deobfuscation pre-pass: rewrite sources *before* triage and
        # content keys, so rules, cache, dedup, and embedding all see the
        # normalized text (two obfuscated variants of one payload even
        # dedup to one embedding).  Clean scripts come back verbatim —
        # the normalizer's byte-identical no-op contract — so enabling
        # the pass cannot perturb their verdicts or cache keys.
        norm_reports: "list[NormalizationReport | None]" = [None] * n
        deob_ms: float | None = None
        raw_sources = sources  # pre-normalization text (directives live here)
        if self.deobfuscate is not None:
            deob_started = time.perf_counter()
            normalized_sources: list[str] = []
            for i, source in enumerate(sources):
                normalized, norm_report = self.deobfuscate.normalize(source, name=str(names[i]))
                normalized_sources.append(normalized)
                norm_reports[i] = norm_report
                if norm_report.interesting:
                    per_file_ms[i]["deobfuscate"] = norm_report.elapsed_ms
            sources = normalized_sources
            deob_ms = 1000.0 * (time.perf_counter() - deob_started)

        # Triage fast-path: analyze first; decisive hits never reach the
        # embedding pipeline (or the cache — no features were computed).
        analyses: list = [None] * n
        triaged = [False] * n
        if self.triage is not None:
            for i, source in enumerate(sources):
                # When the pre-pass rewrote this script, analysis runs over
                # the normalized text; the line map lets findings (and taint
                # witness hops) report spans in the submitted original too.
                norm = norm_reports[i]
                line_map = norm.line_map if norm is not None and norm.changed else None
                analysis = self.triage.analyze(
                    source,
                    name=str(names[i]),
                    line_map=line_map,
                    raw_source=raw_sources[i] if line_map is not None else None,
                )
                analyses[i] = analysis
                per_file_ms[i]["analysis"] = analysis.elapsed_ms
                triaged[i] = analysis.decisive

        keys: list[str | None] = [None] * n
        pending: list[int] = []
        want_keys = self.cache is not None or self.isolated
        for i, source in enumerate(sources):
            if triaged[i]:
                continue
            if want_keys:
                keys[i] = content_key(source)
            if self.cache is not None:
                entry = self.cache.get(keys[i])
                if entry is not None:
                    entries[i] = entry
                    hit_flags[i] = True
                    continue
            pending.append(i)
        misses = len(pending)

        # In-batch single-flight: identical sources in one batch (the same
        # CDN script submitted by many clients, coalesced into one
        # micro-batch) are embedded once; duplicates copy the primary's
        # outcome after the embed phase.
        dup_of: dict[int, int] = {}
        if pending and want_keys:
            primary_by_key: dict[str, int] = {}
            unique_pending: list[int] = []
            for i in pending:
                first = primary_by_key.setdefault(keys[i], i)
                if first == i:
                    unique_pending.append(i)
                else:
                    dup_of[i] = first
            if dup_of:
                pending = unique_pending
                if self.metrics is not None:
                    self._m_dedup_batch.inc(len(dup_of))

        # Cross-process single-flight on the shared disk cache: claim every
        # remaining miss; a key some other process is already computing is
        # *followed* (its entry awaited after our own embeds are published)
        # rather than recomputed.  Isolated mode opts out — a follower
        # fallback would re-run a possibly poisonous script outside the
        # sandbox.
        flight_led: list[int] = []
        flight_following: list[int] = []
        if pending and self.cache is not None and not self.isolated:
            claimed: list[int] = []
            for i in pending:
                if self.cache.acquire_flight(keys[i]):
                    flight_led.append(i)
                    claimed.append(i)
                else:
                    flight_following.append(i)
            pending = claimed

        # Known poison never gets a second chance to burn a worker: journal
        # hits go straight to the degraded-verdict path.
        faulted: list[int] = []
        if self.isolated and self.quarantine is not None and pending:
            still_pending: list[int] = []
            for i in pending:
                known = self.quarantine.lookup(keys[i])
                if known is None:
                    still_pending.append(i)
                    continue
                statuses[i] = known.cause
                fault_info[i] = {
                    "cause": known.cause,
                    "detail": known.detail,
                    "stage": known.stage,
                    "rusage": known.rusage,
                    "quarantined": True,
                    "known": True,
                }
                faulted.append(i)
                self._count_failure(known.cause)
            pending = still_pending

        workers_used = 1
        if self.isolated or (self.n_workers > 1 and len(pending) > 1):
            try:
                self._embed_pooled(
                    pending, sources, names, keys, entries, per_file_ms, statuses, fault_info,
                    faulted, worker_spans, top_paths, root=root, file_span_ids=file_span_ids,
                )
                self._degraded_analyses(
                    faulted, sources, names, analyses, per_file_ms,
                    norm_reports=norm_reports, raw_sources=raw_sources,
                    root=root, file_span_ids=file_span_ids, worker_spans=worker_spans,
                )
                workers_used = self.n_workers
            except Exception as error:  # pool start/transport failure, not a task fault
                self.close()
                print(
                    f"warning: worker pool failed ({error!r}); scanning sequentially",
                    file=sys.stderr,
                )
        embed_state = {
            "extractor": detector.extractor,
            "embed_script": detector.embed_script,
            "feature_extractor": detector.feature_extractor,
        }
        for i in pending:  # in-process path + pool backstop
            if entries[i] is None and statuses[i] not in FAULT_CAUSES:
                payload = _run_embed(embed_state, sources[i], recording)
                self._settle(i, payload, entries, statuses, per_file_ms, top_paths)
        if self.cache is not None:
            for i in pending:
                # Only clean rows are cached: a parse_error entry would
                # come back from the cache without its status, and faulted
                # scripts never produced one.
                if entries[i] is not None and statuses[i] == STATUS_OK:
                    self.cache.put(keys[i], entries[i])
            for i in flight_led:
                self.cache.release_flight(keys[i])
            # Followers: some other process was computing this key when we
            # claimed; by now it has usually published.  If it died without
            # publishing, compute locally — correct, just not deduplicated.
            for i in flight_following:
                entry = self.cache.wait_flight(keys[i])
                if entry is not None:
                    entries[i] = entry
                    hit_flags[i] = True
                    if self.metrics is not None:
                        self._m_dedup_cluster.inc()
                    continue
                payload = _run_embed(embed_state, sources[i], recording)
                self._settle(i, payload, entries, statuses, per_file_ms, top_paths)
                if statuses[i] == STATUS_OK:
                    self.cache.put(keys[i], entries[i])

        # In-batch duplicates copy their primary's outcome wholesale (the
        # classifier still runs per script, so results stay per-file).
        for i, primary in dup_of.items():
            entries[i] = entries[primary]
            statuses[i] = statuses[primary]
            fault_info[i] = fault_info[primary]
            top_paths[i] = top_paths[primary]
            if analyses[i] is None:
                analyses[i] = analyses[primary]

        active = [i for i in range(n) if not triaged[i] and entries[i] is not None]
        rows = [entries[i].row for i in active]
        transform_started = time.perf_counter()
        with detector._timed("feature_transform"):
            X = detector.feature_extractor.transform(rows)
        transform_ms = 1000.0 * (time.perf_counter() - transform_started)

        classify_started = time.perf_counter()
        if active:
            with detector._timed("classifying"):
                labels, active_proba = _classify(detector.classifier, X)
        else:
            labels = np.zeros(0, dtype=int)
            active_proba = np.zeros((0, 2))
        classify_ms = 1000.0 * (time.perf_counter() - classify_started)
        if recording:
            root.synthesize(
                "feature_transform", transform_ms, attributes={"n_scripts": len(active)}
            )
            root.synthesize("classify", classify_ms, attributes={"n_scripts": len(active)})

        results = []
        position = {i: j for j, i in enumerate(active)}
        has_proba = (
            active_proba is not None and active_proba.ndim == 2 and active_proba.shape[1] >= 2
        )
        trace_envelopes: list[dict | None] = [None] * n
        if recording:
            for i in range(n):
                trace_envelopes[i] = self._file_trace(
                    root, file_span_ids[i], i, names, statuses, hit_flags, triaged,
                    per_file_ms, fault_info, worker_spans, entries, analyses, top_paths,
                    position, X if len(active) else None, norm_reports,
                )
        degraded_flags = [False] * n
        for i in range(n):
            if triaged[i]:
                label, probability = 1, 1.0
            elif i in position:
                j = position[i]
                label = int(labels[j]) if j < len(labels) else 0
                probability = float(active_proba[j, 1]) if has_proba else float(label)
            else:
                # Faulted script: fall back to the triage-only rule verdict
                # when the analyzer survived it; otherwise answer "unknown"
                # (benign, probability 0) rather than invent confidence.
                analysis = analyses[i]
                if analysis is not None:
                    probability = 1.0 if analysis.decisive else float(analysis.score)
                    label = int(probability >= 0.5)
                    degraded_flags[i] = True
                else:
                    label, probability = 0, 0.0
            results.append(
                ScanResult(
                    path=str(names[i]),
                    label=label,
                    probability=probability,
                    malicious=bool(probability >= threshold),
                    path_count=entries[i].path_count if entries[i] is not None else 0,
                    cache_hit=hit_flags[i],
                    stage_ms={k: round(v, 3) for k, v in per_file_ms[i].items()},
                    triaged=triaged[i],
                    analysis=analyses[i].to_dict() if analyses[i] is not None else None,
                    status=statuses[i],
                    degraded=degraded_flags[i],
                    fault=fault_info[i],
                    trace=trace_envelopes[i],
                    normalization=(
                        norm_reports[i].to_dict()
                        if norm_reports[i] is not None and norm_reports[i].interesting
                        else None
                    ),
                )
            )

        # Full-batch probability matrix: classifier rows for active files; a
        # settled [1-p, p] row for every other verdict (triage hits carry
        # [0, 1], faulted scripts their degraded probability).
        proba_matrix: np.ndarray | None = None
        if has_proba:
            proba_matrix = np.zeros((n, max(active_proba.shape[1], 2)))
            for j, i in enumerate(active):
                proba_matrix[i, : active_proba.shape[1]] = active_proba[j]
            for i, result in enumerate(results):
                if i not in position:
                    proba_matrix[i, 0] = 1.0 - result.probability
                    proba_matrix[i, 1] = result.probability

        analysis_total_ms = sum(ms.get("analysis", 0.0) for ms in per_file_ms)
        stage_totals = {
            "path_extraction": sum(ms["path_extraction"] for ms in per_file_ms),
            "embedding": sum(ms["embedding"] for ms in per_file_ms),
            "feature_transform": transform_ms,
            "classifying": classify_ms,
        }
        if self.triage is not None or analysis_total_ms:
            stage_totals["analysis"] = analysis_total_ms
        if deob_ms is not None:
            stage_totals["deobfuscate"] = deob_ms
        report = ScanReport(
            results=results,
            threshold=threshold,
            n_workers=self.n_workers,
            workers_used=workers_used,
            elapsed_ms=1000.0 * (time.perf_counter() - started),
            stage_ms={k: round(v, 3) for k, v in stage_totals.items()},
            cache_hits=sum(hit_flags),
            cache_misses=misses,
            triage_hits=sum(triaged),
            fault_count=sum(1 for result in results if result.faulted),
            cache_stats=self.cache.stats() if self.cache is not None else None,
            model_fingerprint=detector.fingerprint(),
            probability_matrix=proba_matrix,
        )
        if recording:
            root.set_attribute("cache_hits", report.cache_hits)
            root.set_attribute("cache_misses", report.cache_misses)
            root.set_attribute("triage_hits", report.triage_hits)
            root.set_attribute("fault_count", report.fault_count)
            if report.fault_count:
                root.set_status("error", f"{report.fault_count} scripts faulted")
            root.end()
            report.trace = {
                "trace_id": root.trace_id,
                "root_span_id": root.span_id,
                "spans": trace_spans(root),
            }
        if self.metrics is not None:
            self._m_batches.inc()
            self._m_scripts.inc(n)
            self._m_batch_size.observe(n)
            for stage, ms in stage_totals.items():
                self._m_stage[stage].observe(ms / 1000.0)
        return report

    # --------------------------------------------------------------- tracing

    def _file_trace(
        self,
        root: "Span",
        span_id: str,
        i: int,
        names: list[str],
        statuses: list[str],
        hit_flags: list[bool],
        triaged: list[bool],
        per_file_ms: list[dict[str, float]],
        fault_info: list[dict | None],
        worker_spans: list[list | None],
        entries: list[CacheEntry | None],
        analyses: list,
        top_paths: list[list | None],
        position: dict[int, int],
        X: np.ndarray | None,
        norm_reports: "list[NormalizationReport | None]",
    ) -> dict:
        """One file's trace envelope: span subtree + verdict provenance.

        The per-file span is synthesized (its id was pre-generated so
        worker spans could parent to it before it existed); its children
        are either real worker spans shipped back across the process
        boundary, or stage spans reconstructed from the measured per-file
        timings, or — for a script that killed its worker — a terminal
        span synthesized from the fault classification.
        """
        from repro.obs.trace import span_tree

        info = fault_info[i] or {}
        faulted = statuses[i] in FAULT_CAUSES
        events: list[dict] = []
        if triaged[i]:
            events.append({"name": "triage_decisive", "offset_ms": 0.0})
        elif self.cache is not None and not info.get("known"):
            events.append({"name": "cache_hit" if hit_flags[i] else "cache_miss", "offset_ms": 0.0})
        if info.get("known"):
            events.append({"name": "quarantine_hit", "offset_ms": 0.0})
        file_span = root.synthesize(
            "script",
            sum(per_file_ms[i].values()),
            span_id=span_id,
            attributes={
                "script": str(names[i]),
                "index": i,
                "status": statuses[i],
                "cache_hit": hit_flags[i],
                "triaged": triaged[i],
            },
            events=events,
            status="error" if faulted else "ok",
            status_detail=info.get("detail") if faulted else None,
        )
        spans = [file_span]
        norm = norm_reports[i]
        if norm is not None:
            spans.append(
                root.synthesize(
                    "deobfuscate",
                    norm.elapsed_ms,
                    parent_id=span_id,
                    attributes={
                        "changed": norm.changed,
                        "degraded": norm.degraded,
                        "fixpoint": norm.fixpoint,
                        "iterations": norm.iterations,
                        "rewrites": norm.total_rewrites,
                    },
                    status="error" if norm.degraded else "ok",
                    status_detail=norm.degraded_reason,
                )
            )
        has_analyze_spans = any(s.get("name") == "worker.analyze" for s in worker_spans[i] or [])
        if per_file_ms[i].get("analysis") and not has_analyze_spans:
            spans.append(root.synthesize("analysis", per_file_ms[i]["analysis"], parent_id=span_id))
        for span_dict in worker_spans[i] or []:
            span_dict = {**span_dict, "trace_id": root.trace_id}
            root.add_span_dict(span_dict)
            spans.append(span_dict)
        has_embed_spans = any(s.get("name") == "worker.embed" for s in worker_spans[i] or [])
        if faulted and not has_embed_spans:
            # The worker never replied (killed / deadline overrun): the
            # terminal span is synthesized from the parent's classification.
            deadline = self.limits.deadline_for("embed") if self.limits is not None else None
            spans.append(
                root.synthesize(
                    "worker.embed",
                    1000.0 * deadline if (info.get("cause") == "timeout" and deadline) else 0.0,
                    parent_id=span_id,
                    attributes={
                        "cause": info.get("cause", statuses[i]),
                        "quarantined": bool(info.get("quarantined")),
                    },
                    status="error",
                    status_detail=info.get("detail"),
                )
            )
        elif (
            not has_embed_spans and not triaged[i] and not hit_flags[i] and entries[i] is not None
        ):
            spans.append(
                root.synthesize(
                    "path_extraction", per_file_ms[i].get("path_extraction", 0.0), parent_id=span_id
                )
            )
            spans.append(
                root.synthesize("embedding", per_file_ms[i].get("embedding", 0.0), parent_id=span_id)
            )
        row = X[position[i]] if (X is not None and i in position) else None
        return {
            "trace_id": root.trace_id,
            "span_id": span_id,
            "provenance": self._provenance(analyses[i], top_paths[i], row, norm),
            "spans": span_tree(spans),
        }

    def _provenance(
        self,
        analysis,
        top_paths: list | None,
        row: np.ndarray | None,
        norm_report: "NormalizationReport | None" = None,
    ) -> dict:
        """Why the verdict: rule hits, attention paths, cluster features."""
        provenance: dict = {}
        if norm_report is not None and norm_report.interesting:
            provenance["normalization"] = norm_report.to_dict()
        if analysis is not None:
            rules = []
            for f in analysis.findings:
                entry: dict = {
                    "rule_id": f.rule_id,
                    "severity": f.severity,
                    "decisive": f.decisive,
                    "line": f.line,
                }
                if f.raw_line is not None:
                    entry["raw_line"] = f.raw_line
                if f.witness:
                    entry["witness"] = f.witness
                rules.append(entry)
            provenance["rules"] = rules
            provenance["analysis_score"] = round(float(analysis.score), 6)
            if analysis.suppressed_at:
                provenance["suppressed_at"] = analysis.suppressed_at
        if top_paths is not None:
            provenance["top_paths"] = top_paths
        if row is not None:
            provenance["cluster_features"] = self.detector.feature_provenance(row)
        return provenance

    # ------------------------------------------------------------ embedding

    def _settle(
        self,
        i: int,
        payload: EmbedPayload,
        entries: list[CacheEntry | None],
        statuses: list[str],
        per_file_ms: list[dict[str, float]],
        top_paths: list[list | None],
    ) -> None:
        """Land one :func:`_run_embed` result, pooled or in-process."""
        entries[i] = CacheEntry(row=payload.row, path_count=payload.path_count)
        statuses[i] = payload.status
        per_file_ms[i]["path_extraction"] = payload.extract_ms
        per_file_ms[i]["embedding"] = payload.embed_ms
        top_paths[i] = payload.top_paths
        # Worker CPU time lands in the detector's Table VIII accounting too,
        # even though wall-clock overlaps under the pool.
        detector = self.detector
        detector.stage_seconds["path_extraction"] += payload.extract_ms / 1000.0
        detector.stage_counts["path_extraction"] += 1
        detector.stage_seconds["embedding"] += payload.embed_ms / 1000.0
        detector.stage_counts["embedding"] += 1

    def _embed_pooled(
        self,
        pending: list[int],
        sources: list[str],
        names: list[str],
        keys: list[str | None],
        entries: list[CacheEntry | None],
        per_file_ms: list[dict[str, float]],
        statuses: list[str],
        fault_info: list[dict | None],
        faulted: list[int],
        worker_spans: list[list | None],
        top_paths: list[list | None],
        root: "Span | None" = None,
        file_span_ids: list[str] | None = None,
    ) -> None:
        """Run pending scripts through the worker pool.

        Ok outcomes land through :meth:`_settle`.  A task that faulted is
        left to the in-process path after the pool when no limits are
        set; with limits it is settled in place instead: status + fault
        envelope + quarantine record.  When tracing (``root`` given),
        each task carries a ``traceparent`` naming its pre-generated file
        span id, so the spans the worker ships back re-parent correctly
        under the batch trace.
        """
        if not pending:
            return
        pool = self._ensure_pool()
        recording = root is not None and file_span_ids is not None
        tasks = [
            Task(
                kind="embed",
                index=i,
                source=sources[i],
                name=str(names[i]),
                traceparent=(
                    SpanContext(root.trace_id, file_span_ids[i]).to_traceparent()
                    if recording
                    else None
                ),
            )
            for i in pending
        ]
        for outcome in pool.run(tasks):
            i = outcome.index
            if outcome.ok:
                self._settle(i, outcome.payload, entries, statuses, per_file_ms, top_paths)
                if outcome.spans:
                    worker_spans[i] = list(outcome.spans)
                continue
            if not self.isolated:
                continue
            statuses[i] = outcome.cause or "crashed"
            fault_info[i] = {
                "cause": statuses[i],
                "detail": outcome.detail,
                "stage": "embed",
                "rusage": outcome.rusage,
                "quarantined": self.quarantine is not None,
            }
            faulted.append(i)
            self._count_failure(statuses[i])
            if self.quarantine is not None and keys[i] is not None:
                self.quarantine.record(
                    QuarantineEntry(
                        sha256=keys[i],
                        name=str(names[i]),
                        stage="embed",
                        cause=statuses[i],
                        detail=outcome.detail or "",
                        rusage=outcome.rusage,
                    )
                )

    def _degraded_analyses(
        self,
        faulted: list[int],
        sources: list[str],
        names: list[str],
        analyses: list,
        per_file_ms: list[dict[str, float]],
        norm_reports: "list[NormalizationReport | None] | None" = None,
        raw_sources: list[str] | None = None,
        root: "Span | None" = None,
        file_span_ids: list[str] | None = None,
        worker_spans: list[list | None] | None = None,
    ) -> None:
        """Triage-only fallback for faulted scripts, still behind isolation.

        A script that hung or OOMed the embed worker could do the same to
        an in-process analyzer, so the degraded analysis runs as its own
        deadline-bounded pool task.  A script whose analysis also faults
        simply stays verdictless.  Skipped where triage already ran.
        """
        from repro.analysis import AnalysisReport, annotate_raw_spans, apply_raw_suppressions

        todo = [i for i in faulted if analyses[i] is None]
        if not todo:
            return
        pool = self._ensure_pool()
        recording = root is not None and file_span_ids is not None
        tasks = [
            Task(
                kind="analyze",
                index=i,
                source=sources[i],
                name=str(names[i]),
                traceparent=(
                    SpanContext(root.trace_id, file_span_ids[i]).to_traceparent()
                    if recording
                    else None
                ),
            )
            for i in todo
        ]
        for outcome in pool.run(tasks):
            if outcome.ok and isinstance(outcome.payload, dict):
                report = AnalysisReport.from_dict(outcome.payload)
                # The pool task analyzed the (already normalized) source; map
                # spans back to the submitted original here, outside the task.
                if norm_reports is not None:
                    norm = norm_reports[outcome.index]
                    if norm is not None and norm.changed and norm.line_map:
                        annotate_raw_spans(report, norm.line_map)
                        if raw_sources is not None:
                            apply_raw_suppressions(report, raw_sources[outcome.index])
                analyses[outcome.index] = report
                per_file_ms[outcome.index]["analysis"] = outcome.elapsed_ms
                if worker_spans is not None and outcome.spans:
                    existing = worker_spans[outcome.index] or []
                    worker_spans[outcome.index] = existing + list(outcome.spans)
