"""Unit and golden-witness tests for the interprocedural taint engine.

Three layers: the lattice primitives (join/prune/witness caps), the
call-graph builder (what resolves, what deliberately does not), the
engine itself (flows with exact hop sequences), and one golden
witness-path test per engine-backed flow rule in the default catalog.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import Analyzer, analyze_source
from repro.analysis.dataflow import (
    MAX_TAINTS_PER_LABEL,
    MAX_WITNESS_HOPS,
    Hop,
    Taint,
    build_call_graph,
    extend,
    extend_hops,
    fresh,
    join,
    run_taint,
    witness_dicts,
)
from repro.analysis.dataflow.catalog import is_hexsoup_literal, is_string_array
from repro.analysis.dataflow.engine import TaintEngine
from repro.datasets import generate_benign
from repro.jsparser import parse
from repro.jsparser.scope import analyze_scopes

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

#: A literal that trips the escape-density hex-soup predicate.
HEXSOUP = r'"\x65\x76\x61\x6c\x28\x31\x29"'


def taint_result(source, **kwargs):
    return run_taint(parse(source), **kwargs)


def flows_of(source, **kwargs):
    result = taint_result(source, **kwargs)
    assert not result.degraded, result.error
    return result.flows


def ops(flow):
    return [hop.op for hop in flow.hops]


# --------------------------------------------------------------- lattice


class TestLattice:
    def test_join_is_union(self):
        a = frozenset({fresh("decode", 1, 0)})
        b = frozenset({fresh("xhr", 2, 0)})
        assert join(a, b) == a | b

    def test_join_prunes_to_shortest_witnesses_per_label(self):
        taints = []
        for n in range(2, 2 + MAX_TAINTS_PER_LABEL + 3):
            taint = fresh("decode", 1, 0)
            for i in range(n):
                taint = Taint("decode", extend_hops(taint.hops, Hop(1 + i, 0, "concat")))
            taints.append(taint)
        joined = join(frozenset(taints))
        assert len(joined) == MAX_TAINTS_PER_LABEL
        kept = sorted(len(t.hops) for t in joined)
        shortest = sorted(len(t.hops) for t in taints)[:MAX_TAINTS_PER_LABEL]
        assert kept == shortest

    def test_extend_appends_hop_to_every_taint(self):
        taints = frozenset({fresh("decode", 1, 0), fresh("xhr", 2, 0)})
        hop = Hop(3, 0, "concat")
        extended = extend(taints, hop)
        assert all(t.hops[-1] == hop for t in extended)

    def test_extend_hops_caps_at_max(self):
        hops: tuple[Hop, ...] = ()
        for i in range(MAX_WITNESS_HOPS + 5):
            hops = extend_hops(hops, Hop(i, 0, "concat"))
        assert len(hops) == MAX_WITNESS_HOPS

    def test_extend_hops_skips_duplicate_last(self):
        hop = Hop(1, 0, "concat")
        assert extend_hops((hop,), hop) == (hop,)

    def test_witness_dicts_carry_snippets(self):
        hops = (Hop(1, 4, "source:decode"), Hop(2, 0, "sink:eval"))
        dicts = witness_dicts(hops, ["var p = atob(x);", "eval(p);"])
        assert [d["op"] for d in dicts] == ["source:decode", "sink:eval"]
        assert dicts[0]["snippet"] == "var p = atob(x);"
        assert dicts[1]["line"] == 2


class TestCatalogPredicates:
    def test_hexsoup_by_escape_density(self):
        node = parse(f"var s = {HEXSOUP};").body[0].declarations[0].init
        assert is_hexsoup_literal(node)

    def test_plain_literal_is_not_hexsoup(self):
        node = parse('var s = "hello world";').body[0].declarations[0].init
        assert not is_hexsoup_literal(node)

    def test_string_array_needs_four_string_elements(self):
        table = parse('var a = ["x", "y", "z", "w"];').body[0].declarations[0].init
        short = parse('var a = ["x", "y"];').body[0].declarations[0].init
        mixed = parse('var a = ["x", "y", "z", 4];').body[0].declarations[0].init
        assert is_string_array(table)
        assert not is_string_array(short)
        assert not is_string_array(mixed)


# ------------------------------------------------------------- call graph


class TestCallGraph:
    def build(self, source):
        program = parse(source)
        return build_call_graph(program, analyze_scopes(program))

    def test_direct_call_to_declaration(self):
        graph = self.build("function f() {}\nf();")
        assert graph.n_edges == 1

    def test_function_expression_bound_to_name(self):
        graph = self.build("var f = function () {};\nf();")
        assert graph.n_edges == 1

    def test_assignment_bound_function(self):
        graph = self.build("var f;\nf = function () {};\nf();")
        assert graph.n_edges == 1

    def test_iife_resolves_to_its_own_callee(self):
        graph = self.build("(function () {})();")
        assert graph.n_edges == 1

    def test_method_calls_stay_unresolved(self):
        graph = self.build("var o = { m: function () {} };\no.m();")
        assert graph.n_edges == 0

    def test_rebinding_keeps_every_candidate(self):
        graph = self.build(
            "var f = function () {};\nf = function () {};\nf();"
        )
        assert graph.n_edges == 2  # may-analysis: both candidates kept


# ----------------------------------------------------------------- engine


class TestEngineFlows:
    def test_direct_decode_to_eval(self):
        flows = flows_of("eval(atob(x));")
        assert any(f.kind == "eval" and f.label == "decode" for f in flows)

    def test_variable_hop_witness_order(self):
        flows = flows_of("var p = atob(x);\neval(p);")
        flow = next(f for f in flows if f.kind == "eval" and f.label == "decode")
        assert ops(flow) == ["source:decode", "assign:p", "sink:eval"]
        lines = [hop.line for hop in flow.hops]
        assert lines == sorted(lines)  # source before sink

    def test_interprocedural_return_flow(self):
        flows = flows_of("function d(x) { return atob(x); }\nvar out = d(s);\neval(out);")
        flow = next(f for f in flows if f.kind == "eval")
        assert "return" in ops(flow) and "call:d" in ops(flow)

    def test_arg_to_param_flow(self):
        flows = flows_of("function run(code) { eval(code); }\nrun(atob(x));")
        flow = next(f for f in flows if f.kind == "eval")
        assert any(op.startswith("arg:") for op in ops(flow))

    def test_concat_propagates(self):
        flows = flows_of('var p = "a" + atob(x);\neval(p);')
        assert any(f.kind == "eval" and f.label == "decode" for f in flows)

    def test_sanitizer_kills_taint(self):
        assert flows_of("var n = parseInt(atob(x));\neval(n);") == []

    def test_length_read_is_clean(self):
        assert flows_of("var n = atob(x).length;\neval(n);") == []

    def test_timer_second_arg_is_not_a_sink(self):
        flows = flows_of("setTimeout(f, atob(x));")
        assert not any(f.kind == "timer" for f in flows)

    def test_string_array_seed_reaches_dispatch(self):
        flows = flows_of(
            'var a = ["e", "v", "a", "l"];\nwindow[a[0] + a[1]]("x");'
        )
        assert any(f.kind == "dynamic-dispatch" and f.label == "string-array" for f in flows)

    def test_every_flow_ends_with_sink_hop(self):
        flows = flows_of("var p = atob(x);\neval(p);\ndocument.write(unescape(y));")
        assert flows
        for flow in flows:
            assert flow.hops[-1].op == f"sink:{flow.kind}"
            assert flow.hops[0].op.startswith("source:")

    def test_budget_exhaustion_degrades_not_raises(self):
        lines = ["var a0 = atob(x);"]
        lines += [f"var a{i} = a{i - 1} + a{i - 1};" for i in range(1, 200)]
        lines.append("eval(a199);")
        result = taint_result("\n".join(lines), max_transfers=50)
        assert result.budget_exhausted
        assert result.transfers <= 50 + 10  # checked per statement

    def test_run_taint_never_raises_on_junk_ast(self):
        result = run_taint(None)  # type: ignore[arg-type]
        assert result.degraded and result.error

    def test_context_depth_bounds_revisits(self):
        source = "function f(x) { return f(atob(x)); }\neval(f(s));"
        shallow = taint_result(source, context_depth=0)
        assert not shallow.degraded  # terminates promptly even on recursion


# --------------------------------------------- golden witness paths (rules)


def finding_for(source, rule_id, **analyzer_kwargs):
    report = Analyzer(**analyzer_kwargs).analyze(source, "t.js")
    matches = [f for f in report.findings if f.rule_id == rule_id]
    assert matches, (
        f"expected {rule_id} to fire; got "
        f"{sorted({f.rule_id for f in report.findings})}"
    )
    return matches[0]


class TestGoldenWitnessPaths:
    def test_decode_chain(self):
        finding = finding_for("var p = atob(x);\neval(p);", "decode-chain")
        assert finding.decisive
        assert [h["op"] for h in finding.witness] == [
            "source:decode",
            "assign:p",
            "sink:eval",
        ]
        assert finding.witness[0]["line"] == 1
        assert finding.witness[-1]["line"] == 2

    def test_decode_to_timer(self):
        finding = finding_for(
            "var p = unescape(x);\nsetTimeout(p, 100);", "flow-decode-to-timer"
        )
        assert finding.decisive
        assert finding.witness[-1]["op"] == "sink:timer"

    def test_decode_to_write(self):
        finding = finding_for("document.write(atob(x));", "flow-decode-to-write")
        assert finding.witness[0]["op"] == "source:decode"
        assert finding.witness[-1]["op"] == "sink:document-write"

    def test_hexsoup_to_sink(self):
        finding = finding_for(
            f"var s = {HEXSOUP};\neval(s);", "flow-hexsoup-to-sink"
        )
        assert finding.decisive
        assert finding.witness[0]["op"] == "source:hexsoup"
        assert finding.witness[-1]["op"] == "sink:eval"

    def test_location_to_eval_is_not_decisive(self):
        finding = finding_for("eval(location.hash);", "flow-location-to-eval")
        assert not finding.decisive and finding.severity == "error"
        assert finding.witness[0]["op"] == "source:location"

    def test_xhr_to_eval(self):
        finding = finding_for(
            "var body = xhr.responseText;\neval(body);", "flow-xhr-to-eval"
        )
        assert finding.decisive
        assert [h["op"] for h in finding.witness] == [
            "source:xhr",
            "assign:body",
            "sink:eval",
        ]

    def test_tainted_innerhtml(self):
        finding = finding_for(
            "el.innerHTML = atob(x);", "flow-tainted-innerhtml"
        )
        assert finding.severity == "warning" and not finding.decisive
        assert finding.witness[-1]["op"] == "sink:innerhtml"

    def test_tainted_src(self):
        finding = finding_for("img.src = location.hash;", "flow-tainted-src")
        assert finding.witness[-1]["op"] == "sink:element-src"

    def test_tainted_dispatch(self):
        finding = finding_for(
            'var a = ["e", "v", "a", "l"];\nwindow[a[0] + a[1]]("x");',
            "flow-tainted-dispatch",
        )
        assert finding.decisive
        assert finding.witness[0]["op"] == "source:string-array"
        assert finding.witness[-1]["op"] == "sink:dynamic-dispatch"

    def test_witness_round_trips_through_json(self):
        from repro.analysis import AnalysisReport

        report = analyze_source("var p = atob(x);\neval(p);")
        revived = AnalysisReport.from_dict(report.to_dict())
        original = [f for f in report.findings if f.witness]
        round_tripped = [f for f in revived.findings if f.witness]
        assert original and len(original) == len(round_tripped)
        for a, b in zip(original, round_tripped):
            assert a.witness == b.witness


class TestAcceptance:
    """ISSUE 8's headline: the engine sees through obfuscator.io dispatch."""

    def test_obfuscator_io_flow_found_only_by_dataflow(self):
        source = (EXAMPLES / "obfuscated" / "obfuscator_io.js").read_text()
        report = analyze_source(source)
        dispatch = [f for f in report.findings if f.rule_id == "flow-tainted-dispatch"]
        assert report.decisive and dispatch
        for finding in dispatch:
            assert finding.witness[0]["op"].startswith("source:")
            assert finding.witness[-1]["op"] == "sink:dynamic-dispatch"


# ------------------------------------------------------------- suppression


class TestWitnessSuppression:
    def test_directive_on_sink_line_silences_flow(self):
        report = analyze_source(
            "var p = atob(x);\neval(p); // repro-ignore: decode-chain\n"
        )
        assert not any(f.rule_id == "decode-chain" for f in report.findings)
        assert {"rule_id": "decode-chain", "line": 2} in report.suppressed_at

    def test_directive_on_source_line_silences_flow(self):
        report = analyze_source(
            "var p = atob(x); // repro-ignore: decode-chain\neval(p);\n"
        )
        assert not any(f.rule_id == "decode-chain" for f in report.findings)
        assert {"rule_id": "decode-chain", "line": 1} in report.suppressed_at

    def test_unrelated_line_does_not_suppress(self):
        report = analyze_source(
            "// repro-ignore: decode-chain\nvar q = 1;\nvar p = atob(x);\neval(p);\n"
        )
        assert any(f.rule_id == "decode-chain" for f in report.findings)

    def test_suppressed_at_round_trips(self):
        from repro.analysis import AnalysisReport

        report = analyze_source("eval(atob(x)); // repro-ignore: decode-chain\n")
        revived = AnalysisReport.from_dict(report.to_dict())
        assert revived.suppressed_at == report.suppressed_at
        assert revived.suppressed == report.suppressed

    def test_raw_directive_survives_normalization(self):
        # Normalization drops comments, so a directive in the submitted
        # file must be lexed from the raw text and matched against the
        # mapped-back raw_line spans of the normalized findings.
        from repro.deobfuscate import Deobfuscator

        raw = (
            'var p = window["at" + "ob"](x);\n'
            "eval(p); // repro-ignore: decode-chain\n"
        )
        normalized, norm = Deobfuscator().normalize(raw)
        assert norm.changed and "//" not in normalized  # the comment is gone
        report = Analyzer().analyze(normalized, norm=norm, raw_source=raw)
        assert not any(f.rule_id == "decode-chain" for f in report.findings)
        assert not report.decisive  # refolded over the survivors
        assert {"rule_id": "decode-chain", "line": 2} in report.suppressed_at

    def test_raw_directive_ignored_without_raw_source(self):
        from repro.deobfuscate import Deobfuscator

        raw = (
            'var p = window["at" + "ob"](x);\n'
            "eval(p); // repro-ignore: decode-chain\n"
        )
        normalized, norm = Deobfuscator().normalize(raw)
        report = Analyzer().analyze(normalized, norm=norm)
        assert any(f.rule_id == "decode-chain" and f.decisive for f in report.findings)

    def test_map_back_keys_on_changed_alone(self):
        # The one map-back rule is ``norm.changed``: a report whose text
        # the normalizer left alone keeps its spans whatever its line map
        # holds, and a changed one is mapped back.
        from repro.analysis import map_to_submitted
        from repro.deobfuscate import Deobfuscator, NormalizationReport

        raw = (
            'var p = window["at" + "ob"](x);\n'
            "eval(p); // repro-ignore: decode-chain\n"
        )
        normalized, norm = Deobfuscator().normalize(raw)
        assert norm.changed and norm.line_map
        unchanged = NormalizationReport(changed=False, line_map=dict(norm.line_map))
        report = Analyzer().analyze(normalized, norm=unchanged, raw_source=raw)
        assert any(f.rule_id == "decode-chain" for f in report.findings)
        assert all(f.raw_line is None for f in report.findings)
        map_to_submitted(report, norm, raw)
        assert not any(f.rule_id == "decode-chain" for f in report.findings)
        assert all(f.raw_line is not None for f in report.findings)


# ------------------------------------------------------------ degradation


class TestNeverRaises:
    @pytest.mark.parametrize(
        "source",
        [
            "",
            "var x;",
            "function f() { return f(); }\nf();",
            "with (o) { eval(p); }",
            "var " + " = ".join(f"v{i}" for i in range(3)) + " = atob(x); eval(v0);",
        ],
    )
    def test_engine_handles_odd_shapes(self, source):
        result = taint_result(source)
        assert result.error == "" or result.degraded


# ------------------------------------------------------------ determinism

#: Analyzer reports for two seeded generator scripts after JSObfu, printed
#: as JSON with the timings left out.  Both programs have flows whose
#: witness used to depend on set iteration order.
_REPORT_PROBE = """
import json
import numpy as np
from repro.analysis import Analyzer
from repro.datasets import generate_malicious
from repro.obfuscation import JSObfu

rng = np.random.default_rng(2024)
scripts = [generate_malicious(rng) for _ in range(20)]
reports = []
for index in (8, 19):
    report = Analyzer().analyze(JSObfu(seed=1).obfuscate(scripts[index])).to_dict()
    del report["elapsed_ms"], report["dataflow_ms"]
    reports.append(report)
print(json.dumps(reports, sort_keys=True))
"""


class TestDeterminism:
    def test_reports_do_not_depend_on_the_hash_seed(self):
        outputs = []
        for seed in ("1", "2"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=seed,
                PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            )
            completed = subprocess.run(
                [sys.executable, "-c", _REPORT_PROBE],
                capture_output=True, text=True, timeout=300, env=env,
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(completed.stdout)
        assert outputs[0] == outputs[1]
        assert all(report["findings"] for report in json.loads(outputs[0]))

    def test_repeated_runs_agree(self):
        # Generator scripts whose transfer count used to vary from run to
        # run in one process, with the order of readers keyed by id().
        for seed in (18, 50, 53, 59):
            source = generate_benign(np.random.default_rng(seed))
            runs = []
            for _ in range(4):
                result = TaintEngine(parse(source)).run()
                flows = [(f.line, f.col, f.kind, f.label, f.hops) for f in result.flows]
                runs.append((result.transfers, flows))
            assert all(run == runs[0] for run in runs[1:]), seed
