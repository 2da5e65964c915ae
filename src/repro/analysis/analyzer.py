"""The analyzer driver: every rule, one AST walk, structured output.

``Analyzer.analyze(source)`` parses once, walks the tree once (dispatching
node hooks from a type-indexed map), runs each rule's finish pass with
lazily computed dataflow facts, applies ``// repro-ignore`` suppressions,
and folds the surviving findings into a saturating suspicion score.

Robustness contract: ``analyze`` **never raises**.  Malformed input
produces a report with ``parse_ok=False`` and a structured ``parse-error``
finding; a buggy rule is isolated (its exception is swallowed and counted)
rather than poisoning the scan.
"""

from __future__ import annotations

import re
import time
from typing import TYPE_CHECKING

from repro.jsparser import JSSyntaxError, Parser
from repro.jsparser import ast_nodes as ast

from .catalog import default_rules
from .findings import (
    DECISIVE_WEIGHT,
    SEVERITY_WEIGHT,
    AnalysisReport,
    Finding,
    combine_score,
)
from .rules import Rule, RuleContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.deobfuscate import Deobfuscator, NormalizationReport
    from repro.jsparser.lexer import Comment
    from repro.obs import MetricsRegistry

#: Rule id attached to syntax-failure findings.
PARSE_ERROR_RULE_ID = "parse-error"

#: Rule id attached when a rule (or its lazy dataflow facts) blows the
#: recursion limit on a pathologically nested tree: the walk survives and
#: the report says explicitly which analyses were cut short.
EXTRACT_ERROR_RULE_ID = "extract-error"

#: Suppression directive: ``// repro-ignore: rule-a, rule-b`` or ``all``.
_IGNORE_DIRECTIVE = re.compile(r"repro-ignore\s*:\s*([\w\-*,\s]+)")


def parse_suppressions(comments: list["Comment"]) -> dict[int, set[str]]:
    """Map 1-based line numbers to the rule ids suppressed there.

    A trailing comment suppresses its own line; a comment alone on its
    line suppresses the *next* line (eslint's ``disable-next-line``
    ergonomics).  ``all`` (or ``*``) suppresses every rule.
    """
    suppressions: dict[int, set[str]] = {}
    for comment in comments:
        match = _IGNORE_DIRECTIVE.search(comment.text)
        if match is None:
            continue
        rule_ids = {part.strip() for part in match.group(1).split(",") if part.strip()}
        if not rule_ids:
            continue
        target_line = comment.line + 1 if comment.own_line else comment.line
        suppressions.setdefault(target_line, set()).update(rule_ids)
    return suppressions


def _matches(rule_id: str, rule_ids: set[str] | None) -> bool:
    if not rule_ids:
        return False
    return rule_id in rule_ids or "all" in rule_ids or "*" in rule_ids


def _suppression_line(finding: Finding, suppressions: dict[int, set[str]]) -> int | None:
    """The directive line that silences this finding, or ``None``.

    A plain finding is matched on its own line.  A flow finding (one
    carrying a witness) is additionally matched on its witness *source*
    and *sink* lines — suppressing either end silences the whole flow.
    """
    candidates = [finding.line]
    if finding.witness:
        candidates.extend((finding.source_line, finding.sink_line))
    for line in candidates:
        if _matches(finding.rule_id, suppressions.get(line)):
            return line
    return None


def raw_suppressions(source: str) -> dict[int, set[str]]:
    """Suppression directives lexed straight from pre-normalization text.

    The deobfuscation pass regenerates code without comments, so a
    ``// repro-ignore`` directive written in the submitted script never
    reaches the analyzer when it runs over normalized text.  This lexes
    (only — no parse) the *raw* source for directives; the analyzer
    matches them against the ``raw_line`` spans mapped back onto the
    normalized findings.
    """
    from repro.jsparser.lexer import Lexer

    try:
        lexer = Lexer(source)
        lexer.tokenize()
    except Exception:
        return {}
    return parse_suppressions(lexer.comments)


def _raw_suppression_line(finding: Finding, suppressions: dict[int, set[str]]) -> int | None:
    """Like :func:`_suppression_line`, but over raw (pre-normalization)
    spans: the finding's ``raw_line`` and its witness source/sink hops'
    ``raw_line`` values."""
    candidates: list[int] = []
    if finding.raw_line is not None:
        candidates.append(finding.raw_line)
    if finding.witness:
        for hop in (finding.witness[0], finding.witness[-1]):
            raw = hop.get("raw_line")
            if isinstance(raw, int):
                candidates.append(raw)
    for line in candidates:
        if _matches(finding.rule_id, suppressions.get(line)):
            return line
    return None


class Analyzer:
    """Runs a rule catalog over scripts; one instance serves many scripts.

    Args:
        rules: Rule instances to run; defaults to the full built-in
            catalog (:func:`~repro.analysis.catalog.default_rules`).
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; when given,
            the analyzer records per-rule hit counters (pre-registered so
            exposition shows zeros), script counts, and latency.
    """

    def __init__(
        self, rules: list[Rule] | None = None, metrics: "MetricsRegistry | None" = None
    ) -> None:
        self.rules = list(rules) if rules is not None else default_rules()
        seen_ids: set[str] = set()
        for rule in self.rules:
            if rule.id in seen_ids:
                raise ValueError(f"duplicate rule id {rule.id!r}")
            seen_ids.add(rule.id)
        self._hooks_by_type: dict[str, list[Rule]] = {}
        for rule in self.rules:
            for node_type in rule.node_types:
                self._hooks_by_type.setdefault(node_type, []).append(rule)
        #: Exceptions swallowed from buggy rule hooks (visible for tests).
        self.rule_errors = 0

        self.metrics = metrics
        if metrics is not None:
            self._m_scripts = metrics.counter(
                "repro_analysis_scripts_total", "Scripts run through the static analyzer"
            )
            self._m_seconds = metrics.histogram(
                "repro_analysis_seconds", "Wall-clock per analyzed script"
            )
            self._m_dataflow = metrics.histogram(
                "repro_analysis_dataflow_seconds",
                "Wall-clock inside dataflow facts and the taint engine per script",
            )
            self._m_rule_hits = {
                rule_id: metrics.counter(
                    "repro_analysis_findings_total",
                    "Unsuppressed findings by rule",
                    labels={"rule": rule_id},
                )
                for rule_id in [rule.id for rule in self.rules]
                + [PARSE_ERROR_RULE_ID, EXTRACT_ERROR_RULE_ID]
            }

    # ------------------------------------------------------------------- API

    def rule_ids(self) -> list[str]:
        return [rule.id for rule in self.rules]

    def analyze(
        self,
        source: str,
        name: str = "<script>",
        norm: "NormalizationReport | None" = None,
        raw_source: str | None = None,
    ) -> AnalysisReport:
        """Analyze one script; never raises.

        Args:
            source: the text to analyze (possibly a deobfuscated
                normalization of the original script).
            name: display name for the report.
            norm: when ``source`` is normalized text, its normalization
                report; the findings are mapped back to the original
                script by :func:`map_to_submitted`.
            raw_source: the pre-normalization text, when ``source`` is
                normalized.  Normalization drops comments, so
                ``// repro-ignore`` directives are lexed from here.
        """
        started = time.perf_counter()
        try:
            report = self._analyze(source, name)
        except RecursionError:
            # Belt and braces: a blowup at the very stack edge (e.g. inside
            # an exception handler that itself has no frames left) still
            # becomes a structured report once the stack has unwound.
            report = AnalysisReport(
                name=name,
                findings=[
                    Finding(PARSE_ERROR_RULE_ID, "warning", 1, 0, "nesting too deep to analyze")
                ],
                score=SEVERITY_WEIGHT["warning"],
                parse_ok=False,
                error="recursion limit exceeded while analyzing",
            )
        report.elapsed_ms = 1000.0 * (time.perf_counter() - started)
        map_to_submitted(report, norm, raw_source)
        if self.metrics is not None:
            self._m_scripts.inc()
            self._m_seconds.observe(report.elapsed_ms / 1000.0)
            if report.parse_ok:
                self._m_dataflow.observe(report.dataflow_ms / 1000.0)
            for finding in report.findings:
                counter = self._m_rule_hits.get(finding.rule_id)
                if counter is not None:
                    counter.inc()
        return report

    def analyze_batch(self, sources: list[str], names: list[str] | None = None) -> list[AnalysisReport]:
        if names is None:
            names = [f"<script:{i}>" for i in range(len(sources))]
        return [self.analyze(source, name) for source, name in zip(sources, names)]

    # ------------------------------------------------------------- internals

    def _analyze(self, source: str, name: str) -> AnalysisReport:
        if not isinstance(source, str):
            return AnalysisReport(
                name=name, parse_ok=False, error=f"source must be a string, got {type(source).__name__}"
            )
        try:
            parser = Parser(source)
            program = parser.parse()
            comments = parser.comments
        except JSSyntaxError as error:
            finding = Finding(
                rule_id=PARSE_ERROR_RULE_ID,
                severity="warning",
                line=error.line,
                col=error.column,
                message=f"syntax error: {error.message}",
            )
            return AnalysisReport(
                name=name,
                findings=[finding],
                score=SEVERITY_WEIGHT["warning"],
                parse_ok=False,
                error=str(error),
            )
        except RecursionError:
            return AnalysisReport(
                name=name,
                findings=[
                    Finding(PARSE_ERROR_RULE_ID, "warning", 1, 0, "nesting too deep to parse")
                ],
                score=SEVERITY_WEIGHT["warning"],
                parse_ok=False,
                error="recursion limit exceeded while parsing",
            )

        ctx = RuleContext(source, program, name)
        aborted: set[str] = set()
        self._walk(program, ctx, aborted)
        for rule in self.rules:
            try:
                rule.finish(ctx)
            except RecursionError:
                self._record_abort(ctx, rule.id, aborted)
            except Exception:
                self.rule_errors += 1

        suppressions = parse_suppressions(comments)
        kept: list[Finding] = []
        suppressed = 0
        suppressed_at: list[dict[str, object]] = []
        for finding in ctx.findings:
            matched_line = _suppression_line(finding, suppressions)
            if matched_line is not None:
                suppressed += 1
                suppressed_at.append({"rule_id": finding.rule_id, "line": matched_line})
            else:
                kept.append(finding)
        kept.sort(key=lambda f: (f.line, f.col, f.rule_id))

        weights = [
            DECISIVE_WEIGHT if f.decisive else SEVERITY_WEIGHT.get(f.severity, 0.2) for f in kept
        ]
        return AnalysisReport(
            name=name,
            findings=kept,
            score=combine_score(weights),
            decisive=any(f.decisive for f in kept),
            parse_ok=True,
            suppressed=suppressed,
            suppressed_at=suppressed_at,
            dataflow_ms=ctx.dataflow_ms,
        )

    def _walk(self, program: ast.Program, ctx: RuleContext, aborted: set[str]) -> None:
        """Single pre-order walk: record parents, dispatch node hooks."""
        hooks = self._hooks_by_type
        stack: list[ast.Node] = [program]
        parent_of = ctx.parent_of
        while stack:
            node = stack.pop()
            for rule in hooks.get(node.type, ()):
                try:
                    rule.visit(node, ctx)
                except RecursionError:
                    # The walk itself is iterative; only a rule (or the lazy
                    # dataflow facts it pulled) can blow the stack.  Convert
                    # the blowup into one structured finding per rule.
                    self._record_abort(ctx, rule.id, aborted)
                except Exception:
                    self.rule_errors += 1
            children = list(node.children())
            for child in children:
                parent_of[id(child)] = node
            stack.extend(reversed(children))

    @staticmethod
    def _record_abort(ctx: RuleContext, rule_id: str, aborted: set[str]) -> None:
        if rule_id in aborted:
            return
        aborted.add(rule_id)
        ctx.findings.append(
            Finding(
                rule_id=EXTRACT_ERROR_RULE_ID,
                severity="warning",
                line=1,
                col=0,
                message=f"rule {rule_id} aborted: nesting too deep to analyze",
            )
        )


def map_raw_line(line_map: dict[int, int], line: int) -> int | None:
    """Map a normalized line back to a raw line via a partial map.

    The normalization line map is statement-granular (rewritten nodes
    lose their original spans), so an exact entry may be missing; fall
    back to the nearest *preceding* mapped line — the enclosing surviving
    statement.
    """
    if not line_map:
        return None
    exact = line_map.get(line)
    if exact is not None:
        return exact
    best: int | None = None
    for normalized in line_map:
        if normalized <= line and (best is None or normalized > best):
            best = normalized
    return line_map[best] if best is not None else None


def map_to_submitted(
    report: AnalysisReport, norm: "NormalizationReport | None", raw_source: str | None = None
) -> None:
    """Map a report over normalized text back onto the submitted script.

    The one map-back rule: only a normalization that changed the text
    (``norm.changed``) has spans to map.  Findings and witness hops gain
    pre-normalization ``raw_line`` spans through its line map.  Then a
    ``// repro-ignore`` directive of ``raw_source``, when given, on the
    raw line a finding (or its witness source/sink hop) maps back to
    silences it, exactly as it would have had normalization not rewritten
    the comment away; the score and decisive flag are refolded over the
    survivors.
    """
    if norm is None or not norm.changed:
        return
    for finding in report.findings:
        finding.raw_line = map_raw_line(norm.line_map, finding.line)
        for hop in finding.witness:
            raw = map_raw_line(norm.line_map, int(hop.get("line", 0)))
            if raw is not None:
                hop["raw_line"] = raw
    suppressions = raw_suppressions(raw_source) if raw_source is not None else {}
    if not suppressions:
        return
    kept: list[Finding] = []
    for finding in report.findings:
        matched_line = _raw_suppression_line(finding, suppressions)
        if matched_line is not None:
            report.suppressed += 1
            report.suppressed_at.append({"rule_id": finding.rule_id, "line": matched_line})
        else:
            kept.append(finding)
    if len(kept) == len(report.findings):
        return
    report.findings = kept
    weights = [
        DECISIVE_WEIGHT if f.decisive else SEVERITY_WEIGHT.get(f.severity, 0.2) for f in kept
    ]
    report.score = combine_score(weights)
    report.decisive = any(f.decisive for f in kept)


def normalize_and_analyze(
    source: str,
    name: str,
    deobfuscator: "Deobfuscator | None" = None,
    analyzer: Analyzer | None = None,
) -> tuple[str, "NormalizationReport | None", AnalysisReport | None]:
    """Normalize ``source``, analyze the normalized text, map findings back.

    The one intake sequence of every deobfuscating caller: ``repro
    analyze --deobfuscate``, the daemon's ``/v1/analyze`` and
    :class:`~repro.pipeline.BatchScanner` triage.  A step whose engine is
    ``None`` is skipped.  Returns ``(text, norm, report)``: the text the
    rest of a pipeline sees (``source`` itself unless a rewrite
    survived), the normalization report and the analysis.
    """
    text, norm = (source, None) if deobfuscator is None else deobfuscator.normalize(source, name=name)
    report = None if analyzer is None else analyzer.analyze(text, name, norm=norm, raw_source=source)
    return text, norm, report


def analyze_source(source: str, name: str = "<script>") -> AnalysisReport:
    """One-shot convenience: full catalog, no metrics."""
    return Analyzer().analyze(source, name)
