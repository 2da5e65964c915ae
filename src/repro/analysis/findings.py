"""Structured findings: what a rule saw, where, and how bad it is.

A :class:`Finding` is the atomic unit of explainability — one rule firing
at one source span, with a human message and the offending source excerpt
as evidence.  :class:`AnalysisReport` aggregates a script's findings into
a bounded suspicion score plus the triage verdict inputs (``decisive``,
``parse_ok``) and round-trips through JSON for the CLI and the daemon.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any

#: Severity levels, mildest first.  ``--fail-on`` and triage weighting both
#: key off this ordering.
SEVERITIES = ("info", "warning", "error")

SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Score contribution per severity; findings combine as independent
#: evidence (noisy-or), so the score saturates toward 1.0 instead of
#: growing without bound on rule-dense scripts.
SEVERITY_WEIGHT = {"info": 0.05, "warning": 0.2, "error": 0.5}

#: Weight for findings from rules marked decisive — strong enough that a
#: single hit dominates the score.
DECISIVE_WEIGHT = 0.95


def severity_at_least(severity: str, floor: str) -> bool:
    """Is ``severity`` at or above ``floor``?  Unknown names never match."""
    return SEVERITY_RANK.get(severity, -1) >= SEVERITY_RANK.get(floor, len(SEVERITIES))


@dataclass
class Finding:
    """One rule firing at one source location."""

    rule_id: str
    severity: str  # "info" | "warning" | "error"
    line: int  # 1-based line of the offending construct
    col: int  # 0-based column
    message: str
    evidence: str = ""  # trimmed source excerpt (the offending line)
    decisive: bool = False  # did a decisive rule produce this?
    #: Flow findings carry their source→sink witness: ordered hop dicts
    #: ({"line", "col", "op", optional "snippet"/"raw_line"}), one per
    #: propagation step, first hop the source and last hop the sink.
    witness: list[dict[str, Any]] = field(default_factory=list)
    #: When the analyzed text was a deobfuscated normalization of the
    #: original script, the pre-normalization line this finding maps to.
    raw_line: int | None = None

    @property
    def span(self) -> tuple[int, int]:
        return (self.line, self.col)

    @property
    def source_line(self) -> int:
        """The witness source line (falls back to the finding line)."""
        if self.witness:
            return int(self.witness[0].get("line", self.line))
        return self.line

    @property
    def sink_line(self) -> int:
        """The witness sink line (falls back to the finding line)."""
        if self.witness:
            return int(self.witness[-1].get("line", self.line))
        return self.line

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Finding":
        return cls(**data)

    def format(self, name: str = "") -> str:
        """One ``path:line:col  severity  rule  message`` text line."""
        prefix = f"{name}:" if name else ""
        return f"{prefix}{self.line}:{self.col}  {self.severity:7s}  {self.rule_id}  {self.message}"


@dataclass
class AnalysisReport:
    """Everything the analyzer learned about one script."""

    name: str = "<script>"
    findings: list[Finding] = field(default_factory=list)
    score: float = 0.0  # saturating suspicion score in [0, 1)
    decisive: bool = False  # a decisive rule fired (triage may short-circuit)
    parse_ok: bool = True
    error: str | None = None  # syntax-error text when parse_ok is False
    suppressed: int = 0  # findings silenced by repro-ignore directives
    #: Where suppressed findings were silenced: one ``{"rule_id", "line"}``
    #: entry per silenced finding, ``line`` being the directive line that
    #: matched (the finding line, or a witness source/sink line).
    suppressed_at: list[dict[str, Any]] = field(default_factory=list)
    elapsed_ms: float = 0.0
    dataflow_ms: float = 0.0  # time inside lazy dataflow facts + taint engine

    @property
    def n_findings(self) -> int:
        return len(self.findings)

    def count_by_severity(self) -> dict[str, int]:
        counts = {severity: 0 for severity in SEVERITIES}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def max_severity(self) -> str | None:
        """The highest severity present, or ``None`` with no findings."""
        best: str | None = None
        for finding in self.findings:
            if best is None or SEVERITY_RANK.get(finding.severity, -1) > SEVERITY_RANK.get(best, -1):
                best = finding.severity
        return best

    # ------------------------------------------------------------- serialize

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "score": round(self.score, 6),
            "decisive": self.decisive,
            "parse_ok": self.parse_ok,
            "error": self.error,
            "n_findings": self.n_findings,
            "suppressed": self.suppressed,
            "suppressed_at": list(self.suppressed_at),
            "elapsed_ms": round(self.elapsed_ms, 3),
            "dataflow_ms": round(self.dataflow_ms, 3),
            "severity_counts": self.count_by_severity(),
            "findings": [finding.to_dict() for finding in self.findings],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AnalysisReport":
        return cls(
            name=data.get("name", "<script>"),
            findings=[Finding.from_dict(f) for f in data.get("findings", [])],
            score=data.get("score", 0.0),
            decisive=data.get("decisive", False),
            parse_ok=data.get("parse_ok", True),
            error=data.get("error"),
            suppressed=data.get("suppressed", 0),
            suppressed_at=list(data.get("suppressed_at", [])),
            elapsed_ms=data.get("elapsed_ms", 0.0),
            dataflow_ms=data.get("dataflow_ms", 0.0),
        )

    @classmethod
    def from_json(cls, text: str) -> "AnalysisReport":
        return cls.from_dict(json.loads(text))


def combine_score(weights: list[float]) -> float:
    """Noisy-or combination: ``1 - Π(1 - w)``, clamped to [0, 1)."""
    remaining = 1.0
    for weight in weights:
        remaining *= 1.0 - max(0.0, min(weight, 0.999))
    return 1.0 - remaining
