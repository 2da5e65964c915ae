"""Batch-scanning engine.

Per-script work (parse → enhanced AST → path contexts → embedding, the
300-path cap and the raw cluster row) is CPU-bound and embarrassingly
parallel, and Table VIII shows it dominates detection cost; the shared
stages (Eq. 6 normalization, forest classification) are sub-millisecond
and stay in-process.  The scanner therefore:

1. consults the content-addressed :class:`~repro.pipeline.cache.FeatureCache`
   (a script's raw cluster row is a pure function of source bytes + model
   parameters),
2. runs every cache miss through the per-script prefix,
   :meth:`~repro.core.prefix.ScriptPrefix.script_row`, which ends at that
   raw row: in process on the detector itself (a detector is a prefix
   plus a classifier), or in an :class:`~repro.faults.IsolatedPool` whose
   workers hold a plain prefix over the detector's parts,
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

Per-request options: :meth:`BatchScanner.scan` is the one place where
they take effect.  ``deobfuscate`` (one bool, or one per script) sends
the flagged scripts through the scanner's own
:class:`~repro.deobfuscate.Deobfuscator` before triage and content keys,
and ``trace`` records the batch span tree; a daemon micro-batch mixing
flagged and traced requests hands its per-item flags straight through.

Bookkeeping: each script's state (stage timings, content key, cache
entry, status, fault, analysis, provenance) lives in one private
``_Script`` record from intake to its :class:`ScanResult`.  Identical
scripts in one batch are embedded once and the duplicates copy their
primary's outcome; processes sharing a disk cache do not coordinate.
Trace spans, the pooled ones included, are built from the record once
the verdict is known.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.faults import (
    FAULT_CAUSES,
    IsolatedPool,
    Outcome,
    QuarantineEntry,
    QuarantineJournal,
    ScanLimits,
    Task,
)
from repro.ml import DecisionTreeClassifier, RandomForestClassifier
from repro.obs.trace import Tracer, trace_spans

from .cache import CacheEntry, FeatureCache, content_key
from .results import STAGE_KEYS, STATUS_OK, ScanReport, ScanResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis import Analyzer, AnalysisReport
    from repro.core.detector import JSRevealer
    from repro.core.prefix import ScriptRow
    from repro.deobfuscate import NormalizationReport
    from repro.obs import MetricsRegistry, Span

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


@dataclass(eq=False)
class _Script:
    """Everything :meth:`BatchScanner.scan` knows about one script."""

    index: int
    name: str
    raw_source: str  # as submitted; suppression directives live here
    source: str  # what the pipeline sees: the normalized text when deobfuscating
    #: Per-stage wall-clock ms, the result's ``stage_ms``.
    ms: dict[str, float] = field(default_factory=lambda: {"path_extraction": 0.0, "embedding": 0.0})
    norm: "NormalizationReport | None" = None
    analysis: "AnalysisReport | None" = None
    triaged: bool = False
    key: str | None = None
    entry: CacheEntry | None = None
    hit: bool = False
    status: str = STATUS_OK
    fault: dict | None = None
    top_paths: list | None = None
    #: The pool reply that answered for this script (its ``worker.<kind>``
    #: span), and when that work started: the reply's landing time less the
    #: worker's run time.
    worker: Outcome | None = None
    worker_start: float = 0.0


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

    The scanner owns one :class:`~repro.deobfuscate.Deobfuscator`
    (``deobfuscator``) under its ``limits`` and ``metrics``, so every
    ``repro_deobfuscate_*`` series is registered before the first
    flagged script.
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
        self.metrics = metrics
        from repro.deobfuscate import Deobfuscator

        self.deobfuscator = Deobfuscator(limits=limits, metrics=metrics)
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

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop the worker pool, if one is running."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _ensure_pool(self) -> IsolatedPool:
        if self._pool is None:
            self._pool = IsolatedPool(
                self.detector.parts(), limits=self.limits, n_workers=self.n_workers
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
        trace: bool = False,
        deobfuscate: bool | list[bool] = False,
    ) -> ScanReport:
        """Scan a batch; see the class docstring for the moving parts.

        Args:
            trace: Record a ``scan.batch`` span tree with per-file stage
                spans (a ``worker.<kind>`` span, with the worker's pid, for
                work a pool worker answered) and attach verdict provenance
                to every :class:`ScanResult`.  Verdicts are byte-identical
                either way.
            deobfuscate: One flag for the batch, or one per script.  A
                flagged source is normalized *before* triage, content keys
                and embedding, so the whole pipeline sees the deobfuscated
                text.  Clean scripts come back verbatim (the normalizer's
                byte-identical no-op contract), keeping their verdicts and
                cache keys; rewritten ones carry a ``normalization`` report
                and, when traced, a ``deobfuscate`` span.
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
        flags = [deobfuscate] * n if isinstance(deobfuscate, bool) else list(deobfuscate)
        if len(flags) != n:
            raise ValueError("deobfuscate and sources length mismatch")

        root: "Span | None" = None
        if trace:
            root = Tracer().start_trace(  # type: ignore[assignment]
                "scan.batch",
                attributes={"n_scripts": n, "n_workers": self.n_workers, "isolated": self.isolated},
                force=True,
            )
        recording = root is not None
        scripts = [
            _Script(i, str(name), raw_source=source, source=source)
            for i, (name, source) in enumerate(zip(names, sources))
        ]

        # Intake: flagged scripts are normalized *before* triage and
        # content keys, so rules, cache, dedup, and embedding all see the
        # normalized text (two obfuscated variants of one payload even
        # dedup to one embedding).  Clean scripts come back verbatim —
        # the normalizer's byte-identical no-op contract — so the flag
        # cannot perturb their verdicts or cache keys.  Triage analyzes
        # what the pipeline sees, with findings mapped back to the
        # submitted text; decisive hits never reach the embedding
        # pipeline (or the cache — no features were computed).
        if self.triage is not None or any(flags):
            from repro.analysis import normalize_and_analyze

            for script, flag in zip(scripts, flags):
                script.source, script.norm, script.analysis = normalize_and_analyze(
                    script.raw_source,
                    script.name,
                    self.deobfuscator if flag else None,
                    self.triage,
                )
                if script.norm is not None and script.norm.interesting:
                    script.ms["deobfuscate"] = script.norm.elapsed_ms
                if script.analysis is not None:
                    script.ms["analysis"] = script.analysis.elapsed_ms
                    script.triaged = script.analysis.decisive

        pending: list[_Script] = []
        for script in scripts:
            if script.triaged:
                continue
            script.key = content_key(script.source)
            if self.cache is not None:
                script.entry = self.cache.get(script.key)
                if script.entry is not None:
                    script.hit = True
                    continue
            pending.append(script)
        misses = len(pending)

        # In-batch dedup: identical sources in one batch (the same CDN
        # script submitted by many clients, coalesced into one micro-batch)
        # are embedded once; duplicates copy the primary's outcome after
        # the embed phase.
        duplicates: list[tuple[_Script, _Script]] = []
        primaries: dict[str | None, _Script] = {}
        for script in pending:
            primary = primaries.setdefault(script.key, script)
            if primary is not script:
                duplicates.append((script, primary))
        if duplicates:
            pending = list(primaries.values())
            if self.metrics is not None:
                self._m_dedup_batch.inc(len(duplicates))

        # Known poison never gets a second chance to burn a worker: journal
        # hits go straight to the degraded-verdict path.
        if self.isolated and self.quarantine is not None and pending:
            for script in pending:
                known = self.quarantine.lookup(script.key)
                if known is None:
                    continue
                script.status = known.cause
                script.fault = {
                    "cause": known.cause,
                    "detail": known.detail,
                    "stage": known.stage,
                    "rusage": known.rusage,
                    "quarantined": True,
                    "known": True,
                }
                self._count_failure(known.cause)
            pending = [s for s in pending if s.status not in FAULT_CAUSES]

        workers_used = 1
        if self.isolated or (self.n_workers > 1 and len(pending) > 1):
            try:
                self._embed_pooled(pending, capture_paths=recording)
                self._degraded_analyses([s for s in scripts if s.status in FAULT_CAUSES])
                workers_used = self.n_workers
            except Exception as error:  # pool start/transport failure, not a task fault
                self.close()
                print(
                    f"warning: worker pool failed ({error!r}); scanning sequentially",
                    file=sys.stderr,
                )
        for script in pending:  # in-process path + pool backstop
            if script.entry is None and script.status not in FAULT_CAUSES:
                self._settle(script, detector.script_row(script.source, recording))
        if self.cache is not None:
            for script in pending:
                # Only clean rows are cached: a parse_error entry would
                # come back from the cache without its status, and faulted
                # scripts never produced one.
                if script.entry is not None and script.status == STATUS_OK:
                    self.cache.put(script.key, script.entry)

        # In-batch duplicates copy their primary's outcome wholesale (the
        # classifier still runs per script, so results stay per-file).
        for script, primary in duplicates:
            script.entry, script.status = primary.entry, primary.status
            script.fault, script.top_paths = primary.fault, primary.top_paths
            if script.analysis is None:
                script.analysis = primary.analysis

        active = [s for s in scripts if not s.triaged and s.entry is not None]
        transform_started = time.perf_counter()
        with detector._timed("feature_transform"):
            X = detector.feature_extractor.transform([s.entry.row for s in active])
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
        position = {script.index: j for j, script in enumerate(active)}
        has_proba = (
            active_proba is not None and active_proba.ndim == 2 and active_proba.shape[1] >= 2
        )
        for script in scripts:
            j = position.get(script.index)
            degraded = False
            if script.triaged:
                label, probability = 1, 1.0
            elif j is not None:
                label = int(labels[j]) if j < len(labels) else 0
                probability = float(active_proba[j, 1]) if has_proba else float(label)
            elif script.analysis is not None:
                # Faulted script: fall back to the triage-only rule verdict
                # when the analyzer survived it; otherwise answer "unknown"
                # (benign, probability 0) rather than invent confidence.
                probability = 1.0 if script.analysis.decisive else float(script.analysis.score)
                label = int(probability >= 0.5)
                degraded = True
            else:
                label, probability = 0, 0.0
            norm = script.norm
            results.append(
                ScanResult(
                    path=script.name,
                    label=label,
                    probability=probability,
                    malicious=bool(probability >= threshold),
                    path_count=script.entry.path_count if script.entry is not None else 0,
                    cache_hit=script.hit,
                    stage_ms={k: round(v, 3) for k, v in script.ms.items()},
                    triaged=script.triaged,
                    analysis=script.analysis.to_dict() if script.analysis is not None else None,
                    status=script.status,
                    degraded=degraded,
                    fault=script.fault,
                    trace=(
                        self._file_trace(root, script, X[j] if j is not None else None)
                        if recording
                        else None
                    ),
                    normalization=norm.to_dict() if norm is not None and norm.interesting else None,
                )
            )

        # Full-batch probability matrix: classifier rows for active files; a
        # settled [1-p, p] row for every other verdict (triage hits carry
        # [0, 1], faulted scripts their degraded probability).
        proba_matrix: np.ndarray | None = None
        if has_proba:
            proba_matrix = np.zeros((n, max(active_proba.shape[1], 2)))
            for j, script in enumerate(active):
                proba_matrix[script.index, : active_proba.shape[1]] = active_proba[j]
            for i, result in enumerate(results):
                if i not in position:
                    proba_matrix[i, 0] = 1.0 - result.probability
                    proba_matrix[i, 1] = result.probability

        analysis_total_ms = sum(s.ms.get("analysis", 0.0) for s in scripts)
        stage_totals = {
            "path_extraction": sum(s.ms["path_extraction"] for s in scripts),
            "embedding": sum(s.ms["embedding"] for s in scripts),
            "feature_transform": transform_ms,
            "classifying": classify_ms,
        }
        if self.triage is not None or analysis_total_ms:
            stage_totals["analysis"] = analysis_total_ms
        if any(flags):
            stage_totals["deobfuscate"] = sum(s.norm.elapsed_ms for s in scripts if s.norm is not None)
        report = ScanReport(
            results=results,
            threshold=threshold,
            n_workers=self.n_workers,
            workers_used=workers_used,
            elapsed_ms=1000.0 * (time.perf_counter() - started),
            stage_ms={k: round(v, 3) for k, v in stage_totals.items()},
            cache_hits=sum(s.hit for s in scripts),
            cache_misses=misses,
            triage_hits=sum(s.triaged for s in scripts),
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

    def _file_trace(self, root: "Span", script: _Script, row: np.ndarray | None) -> dict:
        """One file's trace envelope: span subtree + verdict provenance.

        Every span is synthesized here, after the verdict, from what the
        scan measured.  A script a pool worker answered for gets a
        ``worker.<kind>`` span carrying that worker's pid (an embed one
        with ``path_extraction``/``embedding`` children); one embedded
        in-process gets those two stages directly; one that killed its
        worker gets a terminal ``worker.embed`` error span from the fault
        classification.
        """
        from repro.obs.trace import span_tree

        info = script.fault or {}
        faulted = script.status in FAULT_CAUSES
        events: list[dict] = []
        if script.triaged:
            events.append({"name": "triage_decisive", "offset_ms": 0.0})
        elif self.cache is not None and not info.get("known"):
            events.append({"name": "cache_hit" if script.hit else "cache_miss", "offset_ms": 0.0})
        if info.get("known"):
            events.append({"name": "quarantine_hit", "offset_ms": 0.0})
        file_span = root.synthesize(
            "script",
            sum(script.ms.values()),
            attributes={
                "script": script.name,
                "index": script.index,
                "status": script.status,
                "cache_hit": script.hit,
                "triaged": script.triaged,
            },
            events=events,
            status="error" if faulted else "ok",
            status_detail=info.get("detail") if faulted else None,
        )
        span_id = file_span["span_id"]
        spans = [file_span]
        norm = script.norm
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
        worker = script.worker
        if script.ms.get("analysis") and (worker is None or worker.kind != "analyze"):
            spans.append(root.synthesize("analysis", script.ms["analysis"], parent_id=span_id))
        # A pooled embed's stages nest under its worker span, from the
        # worker's start; an in-process embed's sit under the file span.
        if worker is not None:
            worker_span = root.synthesize(
                f"worker.{worker.kind}",
                worker.elapsed_ms,
                parent_id=span_id,
                attributes={"pid": worker.pid},
                start_unix=script.worker_start,
            )
            spans.append(worker_span)
            stage_parent, stage_start = worker_span["span_id"], script.worker_start
        else:
            stage_parent, stage_start = span_id, None
        if faulted:
            # The worker never replied (killed / deadline overrun): the
            # terminal span is synthesized from the parent's classification.
            deadline = self.limits.deadline_for("embed") if self.limits is not None else None
            spans.append(
                root.synthesize(
                    "worker.embed",
                    1000.0 * deadline if (info.get("cause") == "timeout" and deadline) else 0.0,
                    parent_id=span_id,
                    attributes={
                        "cause": info.get("cause", script.status),
                        "quarantined": bool(info.get("quarantined")),
                    },
                    status="error",
                    status_detail=info.get("detail"),
                )
            )
        elif not script.triaged and not script.hit and script.entry is not None:
            extract_ms = script.ms["path_extraction"]
            spans.append(
                root.synthesize(
                    "path_extraction",
                    extract_ms,
                    parent_id=stage_parent,
                    attributes={"status": script.status} if worker is not None else None,
                    start_unix=stage_start,
                )
            )
            spans.append(
                root.synthesize(
                    "embedding",
                    script.ms["embedding"],
                    parent_id=stage_parent,
                    start_unix=None if stage_start is None else stage_start + extract_ms / 1000.0,
                )
            )
        return {
            "trace_id": root.trace_id,
            "span_id": span_id,
            "provenance": self._provenance(script, row),
            "spans": span_tree(spans),
        }

    def _provenance(self, script: _Script, row: np.ndarray | None) -> dict:
        """Why the verdict: rule hits, attention paths, cluster features."""
        provenance: dict = {}
        if script.norm is not None and script.norm.interesting:
            provenance["normalization"] = script.norm.to_dict()
        analysis = script.analysis
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
        if script.top_paths is not None:
            provenance["top_paths"] = script.top_paths
        if row is not None:
            provenance["cluster_features"] = self.detector.feature_provenance(row)
        return provenance

    # ------------------------------------------------------------ embedding

    def _settle(self, script: _Script, scripted: "ScriptRow") -> None:
        """Land one :meth:`~repro.core.prefix.ScriptPrefix.script_row` result, pooled or in-process."""
        script.entry = CacheEntry(row=scripted.row, path_count=scripted.path_count)
        script.status = scripted.status
        script.ms.update(scripted.ms)
        script.top_paths = scripted.top_paths
        # Worker CPU time lands in the detector's Table VIII accounting too,
        # even though wall-clock overlaps under the pool.
        self.detector.record_stages(scripted.ms)

    def _embed_pooled(self, pending: list[_Script], capture_paths: bool) -> None:
        """Run pending scripts through the worker pool.

        Ok outcomes land through :meth:`_settle`.  A task that faulted is
        left to the in-process path after the pool when no limits are
        set; with limits it is settled in place instead: status + fault
        envelope + quarantine record.
        """
        if not pending:
            return
        tasks = [
            Task(kind="embed", index=s.index, source=s.source, name=s.name, capture_paths=capture_paths)
            for s in pending
        ]
        for script, outcome in zip(pending, self._ensure_pool().run(tasks)):
            if outcome.ok:
                self._settle(script, outcome.payload)
                script.worker, script.worker_start = outcome, time.time() - outcome.elapsed_ms / 1000.0
                continue
            if not self.isolated:
                continue
            script.status = outcome.cause or "crashed"
            script.fault = {
                "cause": script.status,
                "detail": outcome.detail,
                "stage": "embed",
                "rusage": outcome.rusage,
                "quarantined": self.quarantine is not None,
            }
            self._count_failure(script.status)
            if self.quarantine is not None and script.key is not None:
                self.quarantine.record(
                    QuarantineEntry(
                        sha256=script.key,
                        name=script.name,
                        stage="embed",
                        cause=script.status,
                        detail=outcome.detail or "",
                        rusage=outcome.rusage,
                    )
                )

    def _degraded_analyses(self, faulted: list[_Script]) -> None:
        """Triage-only fallback for faulted scripts, still behind isolation.

        A script that hung or OOMed the embed worker could do the same to
        an in-process analyzer, so the degraded analysis runs as its own
        deadline-bounded pool task.  A script whose analysis also faults
        simply stays verdictless.  Skipped where triage already ran.
        """
        from repro.analysis import AnalysisReport, map_to_submitted

        todo = [s for s in faulted if s.analysis is None]
        if not todo:
            return
        tasks = [Task(kind="analyze", index=s.index, source=s.source, name=s.name) for s in todo]
        for script, outcome in zip(todo, self._ensure_pool().run(tasks)):
            if not (outcome.ok and isinstance(outcome.payload, dict)):
                continue
            report = AnalysisReport.from_dict(outcome.payload)
            # The pool task analyzed the (already normalized) source; map
            # it back to the submitted original here, outside the task.
            map_to_submitted(report, script.norm, script.raw_source)
            script.analysis = report
            script.ms["analysis"] = outcome.elapsed_ms
            script.worker, script.worker_start = outcome, time.time() - outcome.elapsed_ms / 1000.0
