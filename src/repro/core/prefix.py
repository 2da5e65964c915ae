"""The per-script prefix of detection: parse → paths → embedding → cap → row.

Every script goes through the same stages of the paper, timed per file in
Table VIII: enhanced-AST path extraction (Sec. III-B), attention
embedding with the ``max_paths`` cap (Sec. III-C), and aggregation into
the script's raw cluster row (Sec. III-D, before Eq. 6).
:class:`ScriptPrefix` is the one definition of that chain, with two entry
points:

* :meth:`ScriptPrefix.kept_paths` stops at the kept path vectors, their
  attention weights and their indices into the extracted paths: what
  :meth:`~repro.core.detector.JSRevealer.fit` clusters and signs;
* :meth:`ScriptPrefix.script_row` goes on to the raw cluster row, plus the
  top attention paths when traced: what every scan (in process or in a
  pool worker) caches and classifies, and what
  :class:`~repro.core.families.FamilyClassifier` trains on.

Both report their layer times in one ``{"path_extraction": ms,
"embedding": ms}`` dict; ``embedding`` covers the embedding, the cap and,
for a row, the aggregation.

:class:`~repro.core.detector.JSRevealer` is a prefix plus a classifier, so
in-process scans run the detector's own :meth:`~ScriptPrefix.embed_script`.
Pool workers receive a plain prefix over the detector's parts
(:meth:`ScriptPrefix.parts`), which pickles to the embedding parameters,
the fitted cluster features and the path settings.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from repro.embedding import PathEmbedder
from repro.jsparser import JSSyntaxError
from repro.paths import ExtractionError, PathContext, PathExtractor

from .features import FeatureExtractor

#: Sources that yield no paths: real corpora contain fragments, and the
#: paper's tooling skips them the same way.
_UNPARSEABLE = (JSSyntaxError, ExtractionError, RecursionError)


class KeptPaths(NamedTuple):
    """One script's prefix up to the path cap (:meth:`ScriptPrefix.kept_paths`)."""

    contexts: Sequence[PathContext]  # every extracted path, before the cap
    vectors: np.ndarray  # (kept, d) FC-layer path vectors
    weights: np.ndarray  # (kept,) attention weights
    kept: np.ndarray  # indices into ``contexts`` of the kept rows
    status: str  # "ok" | "parse_error"
    ms: dict[str, float]  # {"path_extraction": ms, "embedding": ms}


class ScriptRow(NamedTuple):
    """One script's whole prefix (:meth:`ScriptPrefix.script_row`)."""

    row: np.ndarray  # (n_features,) raw cluster row: Sec. III-D before Eq. 6
    path_count: int  # contexts extracted before the per-script cap
    status: str  # "ok" | "parse_error"
    top_paths: list[dict] | None  # attention provenance, when traced
    ms: dict[str, float]  # {"path_extraction": ms, "embedding": ms}


class ScriptPrefix:
    """Parse → paths → embedding → cap → cluster row for one script at a time.

    Args:
        extractor: Path extraction with its length/width limits.
        embedder: The pre-trained attention embedding model.
        feature_extractor: The fitted cluster features.
        max_paths: Paths kept per script, highest attention weight first.
    """

    def __init__(
        self,
        extractor: PathExtractor,
        embedder: PathEmbedder,
        feature_extractor: FeatureExtractor,
        max_paths: int,
    ):
        self.extractor = extractor
        self.embedder = embedder
        self.feature_extractor = feature_extractor
        self.max_paths = max_paths

    def parts(self) -> "ScriptPrefix":
        """A plain prefix over this one's parts: what pool workers receive."""
        return ScriptPrefix(self.extractor, self.embedder, self.feature_extractor, self.max_paths)

    def _extract(self, source: str) -> tuple[Sequence[PathContext], str]:
        try:
            return self.extractor.extract_from_source(source), "ok"
        except _UNPARSEABLE:
            return [], "parse_error"

    def extract_paths(self, source: str) -> Sequence[PathContext]:
        """Parse + enhanced AST + bounded path contexts (a :class:`~repro.paths.PathTable`).

        Unparseable sources yield no paths.
        """
        return self._extract(source)[0]

    def embed_script(
        self, contexts: Sequence[PathContext], return_indices: bool = False
    ) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, np.ndarray]:
        """FC-layer path vectors + attention weights, capped to ``max_paths``.

        With ``return_indices=True`` the indices (into ``contexts``) of the
        rows that survived the cap are returned as a third element, so
        callers can keep per-path metadata (signatures) aligned with the
        vectors.
        """
        vectors, weights = self.embedder.embed(contexts)
        kept = np.arange(len(vectors))
        if len(vectors) > self.max_paths:
            kept = np.argsort(weights)[::-1][: self.max_paths]
            vectors, weights = vectors[kept], weights[kept]
        if return_indices:
            return vectors, weights, kept
        return vectors, weights

    def kept_paths(self, source: str) -> KeptPaths:
        """Extract, embed and cap one script's paths: :meth:`JSRevealer.fit`'s entry point."""
        started = time.perf_counter()
        contexts, status = self._extract(source)
        extracted = time.perf_counter()
        vectors, weights, kept = self.embed_script(contexts, return_indices=True)
        ms = {
            "path_extraction": 1000.0 * (extracted - started),
            "embedding": 1000.0 * (time.perf_counter() - extracted),
        }
        return KeptPaths(contexts, vectors, weights, kept, status, ms)

    def script_row(self, source: str, trace: bool = False) -> ScriptRow:
        """One script's raw cluster row: the scans' entry point.

        Eq. 6 normalizes each row by its own min and max, so the row is all
        the classifier needs; the kept path vectors and weights are dropped
        here instead of being cached or piped back from a worker.  With
        ``trace`` the top attention-weighted path signatures ride along as
        provenance (the Table VII evidence for a traced verdict).
        """
        paths = self.kept_paths(source)
        started = time.perf_counter()
        row = self.feature_extractor.transform_script(paths.vectors, paths.weights)
        paths.ms["embedding"] += 1000.0 * (time.perf_counter() - started)
        top_paths = _top_attention_paths(paths) if trace else None
        return ScriptRow(row, len(paths.contexts), paths.status, top_paths, paths.ms)


def _top_attention_paths(paths: KeptPaths, k: int = 5) -> list[dict]:
    """The ``k`` highest-attention kept paths as JSON-ready provenance.

    ``weights[r]`` belongs to path ``kept[r]``; only the ``k`` reported
    contexts are built.
    """
    kept, weights = paths.kept, paths.weights
    return [
        {"path": paths.contexts[int(kept[r])].signature(), "weight": round(float(weights[r]), 6)}
        for r in np.argsort(weights)[::-1][:k]
    ]
