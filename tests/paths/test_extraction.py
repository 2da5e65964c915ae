"""Unit and property tests for AST path-context extraction."""

import functools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dataflow.defuse
import repro.dataflow.enhanced_ast
from repro.dataflow import EnhancedAST, analyze_defuse, build_enhanced_ast, build_regular_ast
from repro.jsparser import FUNCTION_TYPES, parse, walk
from repro.paths import PathExtractor, PathFeaturizer, extract_paths

from . import oracle

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
CORPUS = sorted(str(path.relative_to(EXAMPLES)) for path in EXAMPLES.glob("corpus/*.js"))
OBFUSCATED = sorted(str(path.relative_to(EXAMPLES)) for path in EXAMPLES.glob("obfuscated/*.js"))
#: A seeded ≈8 KiB concatenation of generator output.
EIGHT_K = "8k"


@functools.cache
def enhanced_ast(name: str, use_dataflow: bool):
    source = oracle.concatenated_script(8192, seed=0) if name == EIGHT_K else (EXAMPLES / name).read_text()
    return (build_enhanced_ast if use_dataflow else build_regular_ast)(parse(source))


class TestBasicExtraction:
    def test_single_statement_produces_paths(self):
        paths = extract_paths("var x = 1 + 2;")
        assert paths
        # Leaves: x, 1, 2 -> three pairs, minus any pruned.
        assert len(paths) <= 3

    def test_no_leaves_no_paths(self):
        assert list(extract_paths(";")) == []

    def test_endpoints_and_spine(self):
        (path,) = [p for p in extract_paths("var a = 1;") if p.nodes[0] == "Identifier"]
        assert path.nodes[0] == "Identifier"
        assert path.nodes[-1] == "Literal"
        assert "VariableDeclarator" in path.nodes

    def test_path_count_grows_with_program(self):
        small = extract_paths("f(a);")
        large = extract_paths("f(a); g(b); h(a, b);")
        assert len(large) > len(small)


class TestBounds:
    def test_max_length_enforced(self):
        src = "if (a) { if (b) { if (c) { if (d) { deep(x + y * z); } } } }"
        for limit in (3, 6, 12):
            extractor = PathExtractor(max_length=limit)
            assert all(p.length <= limit for p in extractor.extract_from_source(src))

    def test_max_width_enforced(self):
        # A call with many arguments: leaf pairs spanning distant args
        # exceed small widths at the CallExpression LCA.
        src = "f(a1, a2, a3, a4, a5, a6, a7, a8);"
        narrow = PathExtractor(max_width=1).extract_from_source(src)
        wide = PathExtractor(max_width=7).extract_from_source(src)
        assert len(wide) > len(narrow)

    def test_shorter_limit_never_more_paths(self):
        src = "function f(p) { var q = p + 1; return q * 2; }"
        short = PathExtractor(max_length=6).extract_from_source(src)
        full = PathExtractor(max_length=12).extract_from_source(src)
        assert len(short) <= len(full)
        signatures = {p.signature() for p in full}
        assert all(p.signature() in signatures for p in short)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            PathExtractor(max_length=2)
        with pytest.raises(ValueError):
            PathExtractor(max_width=0)


class TestDataflowValues:
    def test_connected_variable_gets_dd_marker(self):
        paths = extract_paths("var shared = 1; use(shared);")
        values = {p.source_value for p in paths} | {p.target_value for p in paths}
        assert "@dd_int" in values
        assert "shared" not in values

    def test_unconnected_variable_abstracted(self):
        paths = extract_paths("var lonely = 'text';")
        values = {p.source_value for p in paths} | {p.target_value for p in paths}
        assert "lonely" not in values
        assert "@var_str" in values

    def test_regular_ast_abstracts_everything(self):
        extractor = PathExtractor(use_dataflow=False)
        paths = extractor.extract_from_source("var shared = 1; use(shared);")
        values = {p.source_value for p in paths} | {p.target_value for p in paths}
        assert "shared" not in values

    def test_paper_figure2_shape(self):
        """The Figure 2 example: timeZoneMinutes is preserved, dateStr-like
        unconnected strings become @var_str."""
        src = """
        var timeZoneMinutes = 0;
        if (flag.indexOf("+") !== -1) {
          timeZoneMinutes = parseInt(parts, 10) * 60;
        }
        out(timeZoneMinutes);
        """
        paths = extract_paths(src)
        values = {p.source_value for p in paths} | {p.target_value for p in paths}
        # timeZoneMinutes participates in data flow -> @dd marker present.
        assert any(v.startswith("@dd_") for v in values)


class TestSignatures:
    def test_signature_is_deterministic(self):
        a = [p.signature() for p in extract_paths("var v = g(1);")]
        b = [p.signature() for p in extract_paths("var v = g(1);")]
        assert a == b

    def test_signature_contains_endpoints(self):
        paths = extract_paths("var n = 5; h(n);")
        dd = [p for p in paths if "@dd_int" in (p.source_value, p.target_value)]
        assert dd
        assert all("@dd_int" in p.signature() for p in dd)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            [
                "var a = 1;",
                "f(x, y);",
                "if (c) { g(); }",
                "while (k) { k = k - 1; }",
                "var s = 'txt' + n;",
                "function u(p) { return p; }",
            ]
        ),
        min_size=1,
        max_size=5,
    )
)
def test_extraction_invariants(statements):
    """Every extracted path respects the structural invariants."""
    src = "\n".join(statements)
    paths = extract_paths(src)
    for p in paths:
        assert 3 <= p.length <= 12
        assert 0 < p.arrow_index < p.length
        assert p.source_value and p.target_value
    assert list(paths) == oracle.extract_all_pairs(build_enhanced_ast(parse(src)))


class TestRegularAst:
    """The ``use_dataflow=False`` representation carries no data flow, so it
    runs no def-use analysis."""

    def test_no_def_use_analysis(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return analyze_defuse(*args, **kwargs)

        monkeypatch.setattr(repro.dataflow.defuse, "analyze_defuse", counting)
        monkeypatch.setattr(repro.dataflow.enhanced_ast, "analyze_defuse", counting)
        source = (EXAMPLES / CORPUS[0]).read_text()
        assert len(PathExtractor(use_dataflow=False).extract_from_source(source)) > 0
        assert calls == []
        PathExtractor(use_dataflow=True).extract_from_source(source)
        assert calls == [1]

    @pytest.mark.parametrize("name", CORPUS + OBFUSCATED + [EIGHT_K])
    def test_paths_and_features_equal_with_def_use(self, name):
        regular = enhanced_ast(name, False)
        program, analyzer = regular.program, regular.analyzer
        analyzed = EnhancedAST(
            program, analyzer, analyze_defuse(program, analyzer), parent_of=regular.parent_of
        )
        extractor = PathExtractor(use_dataflow=False)
        paths, expected = extractor.extract(regular), extractor.extract(analyzed)
        assert list(paths) == list(expected)
        featurizer = PathFeaturizer()
        assert featurizer.transform(paths).tobytes() == featurizer.transform(expected).tobytes()


class TestAgainstOracle:
    """Enumeration from the LCA and the indexed featurizer reproduce the
    all-pairs loop and the per-path featurizer exactly."""

    @pytest.mark.parametrize("bounds", [(3, 1), (6, 2), (12, 4), (12, 7)])
    @pytest.mark.parametrize("use_dataflow", [True, False])
    @pytest.mark.parametrize("name", CORPUS + OBFUSCATED + [EIGHT_K])
    def test_paths_and_features_match(self, name, use_dataflow, bounds):
        enhanced = enhanced_ast(name, use_dataflow)
        max_length, max_width = bounds
        expected = oracle.extract_all_pairs(enhanced, max_length, max_width)
        paths = PathExtractor(max_length, max_width, use_dataflow).extract(enhanced)
        assert list(paths) == expected
        features = PathFeaturizer().transform(paths)
        assert features.tobytes() == oracle.featurize_per_path(expected).tobytes()

    @pytest.mark.parametrize("name", CORPUS + OBFUSCATED + [EIGHT_K])
    def test_declaration_index_matches_scope_scan(self, name):
        analyzer = enhanced_ast(name, True).analyzer
        for site in walk(analyzer.program):
            if site.type == "VariableDeclarator":
                names = [site.id.name]
            elif site.type == "CatchClause":
                names = [site.param.name] if site.param is not None else []
            elif site.type in FUNCTION_TYPES:
                names = [p.name for p in site.params if p.type == "Identifier"]
                names += [site.id.name] if getattr(site, "id", None) is not None else []
            else:
                continue
            for slot in names:
                expected = oracle.binding_for_name_slot(analyzer, site, slot)
                assert expected is not None
                assert analyzer.declared_binding(site, slot) is expected

    @pytest.mark.parametrize("name", CORPUS + [EIGHT_K])
    def test_leaf_values_match_scope_scan(self, name):
        enhanced = enhanced_ast(name, True)
        leaves = oracle.collect_leaves(enhanced.program)
        assert leaves
        for leaf in leaves:
            assert enhanced.leaf_value(leaf.node) == oracle.leaf_value(enhanced, leaf.node)
