"""Rule-based static analysis over the jsparser AST and dataflow facts.

The triage fast-path of the scan pipeline: explainable, microsecond-cheap
structural evidence (dynamic code sinks, decode chains, escape-soup
literals, dataflow anomalies) surfaced as structured findings — and, when
a *decisive* rule fires, strong enough to skip the full embed/classify
pipeline entirely.

Quick use::

    from repro.analysis import Analyzer

    report = Analyzer().analyze(open("suspect.js").read(), name="suspect.js")
    for finding in report.findings:
        print(finding.format("suspect.js"))
"""

from .analyzer import (
    EXTRACT_ERROR_RULE_ID,
    PARSE_ERROR_RULE_ID,
    Analyzer,
    analyze_source,
    map_raw_line,
    map_to_submitted,
    normalize_and_analyze,
    parse_suppressions,
)
from .catalog import (
    DECODE_NAMES,
    SINK_NAMES,
    callee_name,
    default_rules,
    shannon_entropy,
)
from .dataflow import TaintCatalog, TaintEngine, TaintResult, run_taint
from .findings import (
    SEVERITIES,
    SEVERITY_RANK,
    AnalysisReport,
    Finding,
    combine_score,
    severity_at_least,
)
from .flows import FlowRule, flow_rules
from .rules import Rule, RuleContext

__all__ = [
    "Analyzer",
    "AnalysisReport",
    "Finding",
    "Rule",
    "RuleContext",
    "EXTRACT_ERROR_RULE_ID",
    "PARSE_ERROR_RULE_ID",
    "SEVERITIES",
    "SEVERITY_RANK",
    "SINK_NAMES",
    "DECODE_NAMES",
    "FlowRule",
    "TaintCatalog",
    "TaintEngine",
    "TaintResult",
    "analyze_source",
    "callee_name",
    "combine_score",
    "default_rules",
    "flow_rules",
    "map_raw_line",
    "map_to_submitted",
    "normalize_and_analyze",
    "parse_suppressions",
    "run_taint",
    "severity_at_least",
    "shannon_entropy",
]
