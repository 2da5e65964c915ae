"""The JSRevealer detector: the paper's end-to-end pipeline.

Stages (Fig. 1): path extraction → path embedding → feature extraction →
classification.  The first three run once per script and are defined once,
in :class:`~repro.core.prefix.ScriptPrefix`; a detector is that prefix
plus a classifier.  The class exposes the paper's protocol directly:

* :meth:`pretrain` — train the attention embedding model on a held-out
  labeled set (the paper uses 5,000 scripts, 100 epochs).
* :meth:`fit` — cluster the training corpus's kept path vectors
  (:meth:`~ScriptPrefix.kept_paths`) into features and fit the final
  classifier (random forest by default).
* :meth:`scan` / :meth:`scan_batch` — classify unseen scripts into
  structured :class:`~repro.pipeline.results.ScanResult` records, with
  optional worker-pool fan-out and content-addressed cluster-row caching;
  every scanned script goes through :meth:`~ScriptPrefix.script_row`.
* :meth:`predict` / :meth:`predict_proba` — array-returning wrappers over
  :meth:`scan_batch`, kept for the experiment/benchmark code paths.
* :meth:`explain` — the RQ3 interpretability view: top features by forest
  importance with their central paths.

Per-stage wall-clock accounting (for Table VIII) is kept in
:attr:`stage_seconds`: the prefix's per-file layer times, and fit's and
each batch's own stages.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.embedding import PathEmbedder
from repro.paths import PathExtractor

from .config import JSRevealerConfig
from .features import FeatureExtractor
from .prefix import ScriptPrefix

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import QuarantineJournal, ScanLimits
    from repro.pipeline import FeatureCache, ScanReport, ScanResult

#: Settings the raw cluster row depends on besides the model tensors; the
#: fingerprint hashes them too.
_ROW_SETTINGS = (
    "assignment",
    "assign_radius_factor",
    "max_paths_per_script",
    "max_path_length",
    "max_path_width",
    "use_dataflow",
)


@dataclass
class Explanation:
    """One row of the Table VII-style interpretability report."""

    importance: float
    cluster_label: str  # benign / malicious
    central_path_signature: str
    cluster_size: int


class JSRevealer(ScriptPrefix):
    """Obfuscation-robust malicious JavaScript detector.

    Usage::

        detector = JSRevealer()
        detector.pretrain(pretrain_sources, pretrain_labels)
        detector.fit(train_sources, train_labels)
        predictions = detector.predict(test_sources)

    Labels are ``1`` = malicious, ``0`` = benign throughout.
    """

    def __init__(self, config: JSRevealerConfig | None = None):
        self.config = config or JSRevealerConfig()
        self.config.validate()
        super().__init__(
            PathExtractor(
                max_length=self.config.max_path_length,
                max_width=self.config.max_path_width,
                use_dataflow=self.config.use_dataflow,
            ),
            PathEmbedder(
                embed_dim=self.config.embed_dim,
                epochs=self.config.pretrain_epochs,
                lr=self.config.pretrain_lr,
                seed=self.config.seed,
            ),
            FeatureExtractor(
                k_benign=self.config.k_benign,
                k_malicious=self.config.k_malicious,
                contamination=self.config.contamination,
                overlap_threshold=self.config.overlap_threshold,
                use_metaod=self.config.use_metaod,
                seed=self.config.seed,
                assign_radius_factor=self.config.assign_radius_factor,
                assignment=self.config.assignment,
            ),
            self.config.max_paths_per_script,
        )
        self.classifier = self.config.classifier_factory()
        self.stage_seconds: dict[str, float] = defaultdict(float)
        self.stage_counts: dict[str, int] = defaultdict(int)
        self._fitted = False
        self._fingerprint: str | None = None

    # ------------------------------------------------------------ plumbing

    def record_stages(self, ms: dict[str, float]) -> None:
        """Add one measurement per stage (``{stage: ms}``) to :attr:`stage_seconds`."""
        for stage, value in ms.items():
            self.stage_seconds[stage] += value / 1000.0
            self.stage_counts[stage] += 1

    @contextmanager
    def _timed(self, stage: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.record_stages({stage: 1000.0 * (time.perf_counter() - started)})

    # ------------------------------------------------------------- pretrain

    def pretrain(self, sources: list[str], labels) -> "JSRevealer":
        """Train the path-embedding model on a held-out labeled set."""
        contexts = [self.extract_paths(source) for source in sources]
        self._fingerprint = None
        with self._timed("pretraining"):
            self.embedder.fit(contexts, labels)
        return self

    # ------------------------------------------------------------------ fit

    def fit(self, sources: list[str], labels) -> "JSRevealer":
        """Extract cluster features from the training set, fit the forest."""
        if not self.embedder.is_trained:
            raise RuntimeError("call pretrain() before fit()")
        labels = np.asarray(labels, dtype=int)
        if len(sources) != len(labels):
            raise ValueError("sources and labels length mismatch")

        embedded: list[tuple[np.ndarray, np.ndarray]] = []
        signatures: list[list[str]] = []
        for source in sources:
            paths = self.kept_paths(source)
            self.record_stages(paths.ms)
            embedded.append((paths.vectors, paths.weights))
            # Signatures follow the kept-index array so that when the path
            # cap drops low-weight rows, each signature still names the path
            # its vector came from; only the kept contexts are built.
            signatures.append([paths.contexts[int(j)].signature() for j in paths.kept])

        benign_vectors, benign_sigs = self._pool(embedded, signatures, labels, 0)
        malicious_vectors, malicious_sigs = self._pool(embedded, signatures, labels, 1)
        self._fingerprint = None
        features = self.feature_extractor
        with self._timed("feature_extraction"):
            features.fit(benign_vectors, malicious_vectors, benign_sigs, malicious_sigs)
            X = features.transform([features.transform_script(v, w) for v, w in embedded])

        with self._timed("classifier_training"):
            self.classifier.fit(X, labels)
        self._fitted = True
        return self

    def _pool(self, embedded, signatures, labels, label_value):
        vectors: list[np.ndarray] = []
        sigs: list[str] = []
        for (v, _), s, y in zip(embedded, signatures, labels):
            if y == label_value and len(v):
                if len(s) != len(v):
                    raise ValueError("signatures misaligned with embedded vectors")
                vectors.append(v)
                sigs.extend(s)
        if not vectors:
            raise ValueError(f"no paths pooled for label {label_value}")
        return np.vstack(vectors), sigs

    # -------------------------------------------------------------- predict

    def scan(self, source: str, threshold: float = 0.5) -> "ScanResult":
        """Scan one script, returning a structured :class:`ScanResult`."""
        return self.scan_batch([source], threshold=threshold).results[0]

    def scan_batch(
        self,
        sources: list[str],
        names: list[str] | None = None,
        n_workers: int = 1,
        cache: "FeatureCache | None" = None,
        cache_dir: str | None = None,
        threshold: float = 0.5,
        triage: bool = False,
        limits: "ScanLimits | None" = None,
        quarantine: "QuarantineJournal | None" = None,
        trace: bool = False,
        deobfuscate: bool = False,
    ) -> "ScanReport":
        """Scan a batch of scripts, optionally in parallel and cached.

        ``n_workers > 1`` fans extraction + embedding out over a process
        pool, stopped before this call returns (verdicts are
        byte-identical to the sequential path; pool failures degrade to
        it).  ``cache_dir`` enables the persistent
        content-addressed embedding cache, keyed to this model's
        :meth:`fingerprint` so retrained models never see stale entries.
        ``triage=True`` runs the static-analysis rule catalog first:
        findings are attached per file, and decisive rule hits settle the
        verdict without embedding (see :class:`~repro.analysis.Analyzer`).
        ``limits`` switches on the fault-isolation layer: every script runs
        under a wall-clock deadline and kernel rlimits in a supervised
        worker, hostile scripts are quarantined (``quarantine``, defaulting
        to an in-memory journal) and answered with a structured degraded
        verdict (see :mod:`repro.faults`).
        ``trace=True`` records a span tree plus verdict provenance for the
        batch and every file (``report.trace`` / ``result.trace``);
        verdicts are byte-identical with tracing on or off.
        ``deobfuscate=True`` runs the staged AST normalizer
        (:class:`~repro.deobfuscate.Deobfuscator`) on every source before
        triage and embedding; clean scripts keep byte-identical verdicts,
        rewritten ones carry a ``normalization`` report.
        """
        from repro.pipeline import BatchScanner, FeatureCache

        if cache is None and cache_dir is not None:
            cache = FeatureCache(self.fingerprint(), cache_dir=cache_dir)
        analyzer = None
        if triage:
            from repro.analysis import Analyzer

            analyzer = Analyzer()
        with BatchScanner(
            self,
            n_workers=n_workers,
            cache=cache,
            triage=analyzer,
            limits=limits,
            quarantine=quarantine,
        ) as scanner:
            return scanner.scan(
                sources, names=names, threshold=threshold, trace=trace, deobfuscate=deobfuscate
            )

    def predict(self, sources: list[str]) -> np.ndarray:
        """Label array (1 = malicious); thin wrapper over :meth:`scan_batch`."""
        return self.scan_batch(sources).label_array

    def predict_proba(self, sources: list[str]) -> np.ndarray:
        """Class-probability matrix; thin wrapper over :meth:`scan_batch`."""
        matrix = self.scan_batch(sources).probability_matrix
        if matrix is None:
            raise RuntimeError("the configured classifier does not expose predict_proba")
        return matrix

    # -------------------------------------------------------------- explain

    def explain(self, top_n: int = 5) -> list[Explanation]:
        """Top features by forest Gini importance, with central paths."""
        if not self._fitted:
            raise RuntimeError("JSRevealer used before fit()")
        importances = getattr(self.classifier, "feature_importances_", None)
        if importances is None:
            raise RuntimeError("the configured classifier does not expose feature importances")
        order = np.argsort(importances)[::-1][:top_n]
        out = []
        for index in order:
            feature = self.feature_extractor.features_[int(index)]
            out.append(
                Explanation(
                    importance=float(importances[index]),
                    cluster_label=feature.label,
                    central_path_signature=feature.central_path_signature,
                    cluster_size=feature.size,
                )
            )
        return out

    def feature_provenance(self, row: np.ndarray, top_n: int = 5) -> list[dict]:
        """The cluster features that drove one classified row's verdict.

        Ranks this row's features by ``|value| × forest importance`` — the
        per-script analogue of :meth:`explain`'s global ranking — and
        names each feature's cluster (label, central path, size) so a
        traced verdict can say *which* learned path clusters the script
        landed in.  Works with any classifier; without
        ``feature_importances_`` the ranking falls back to ``|value|``.
        """
        row = np.asarray(row, dtype=float).ravel()
        importances = getattr(self.classifier, "feature_importances_", None)
        if importances is None:
            importances = np.ones_like(row)
        importances = np.asarray(importances, dtype=float).ravel()
        limit = min(len(row), len(importances), len(self.feature_extractor.features_))
        weight = np.abs(row[:limit]) * importances[:limit]
        order = np.argsort(weight)[::-1][:top_n]
        out = []
        for index in order:
            feature = self.feature_extractor.features_[int(index)]
            out.append(
                {
                    "feature_index": int(index),
                    "value": round(float(row[int(index)]), 6),
                    "importance": round(float(importances[int(index)]), 6),
                    "weight": round(float(weight[int(index)]), 6),
                    "cluster_label": str(feature.label),
                    "central_path": feature.central_path_signature,
                    "cluster_size": int(feature.size),
                }
            )
        return out

    # ----------------------------------------------------------- fingerprint

    def fingerprint(self) -> str:
        """SHA-256 over everything a script's raw cluster row depends on.

        That is the model's tensors (the content persistence saves) and the
        settings in ``_ROW_SETTINGS``: the path limits, the path cap and
        the cluster assignment rule.  It namespaces the content-addressed
        cluster-row cache and is stored in ``model.json`` (format version
        3), so rows computed by one model are invisible to every other.
        Hashed once per model: :meth:`pretrain`, :meth:`fit` and
        ``load_detector`` reset it.
        """
        if self._fingerprint is None:
            self._fingerprint = self._digest(settings=True)
        return self._fingerprint

    def _digest(self, settings: bool) -> str:
        """The fingerprint hash; ``settings=False`` is the tensor-only rule of format version 2."""
        digest = hashlib.sha256()
        parameters = self.embedder.model.parameters()
        for name in sorted(parameters):
            digest.update(name.encode())
            digest.update(np.ascontiguousarray(parameters[name], dtype=np.float64).tobytes())
        for feature in self.feature_extractor.features_:
            digest.update(np.ascontiguousarray(feature.center, dtype=np.float64).tobytes())
            digest.update(np.float64(feature.radius).tobytes())
            digest.update(np.int64(feature.size).tobytes())
        if settings:
            row_settings = {name: getattr(self.config, name) for name in _ROW_SETTINGS}
            digest.update(json.dumps(row_settings, sort_keys=True).encode())
        return digest.hexdigest()

    # ---------------------------------------------------------------- stats

    def mean_stage_ms(self) -> dict[str, float]:
        """Average per-invocation stage cost in milliseconds (Table VIII)."""
        return {
            stage: 1000.0 * total / max(self.stage_counts[stage], 1)
            for stage, total in self.stage_seconds.items()
        }
