"""Unit tests for the enhanced AST (data-dependency edges + leaf values)."""

from repro.dataflow import build_enhanced_ast, build_regular_ast
from repro.jsparser import find_all, parse


def enhanced(source):
    return build_enhanced_ast(parse(source))


class TestDependencyEdges:
    def test_def_to_use_edge(self):
        e = enhanced("var x = 1; f(x);")
        assert e.edge_count == 1
        edge = e.dependency_edges[0]
        assert edge.name == "x"

    def test_no_edges_without_shared_variables(self):
        e = enhanced("var a = 1; var b = 2;")
        assert e.edge_count == 0

    def test_latest_def_reaches_use(self):
        e = enhanced("var x = 1; x = 2; f(x);")
        # The use connects to the *latest* definition (x = 2).
        edge = e.dependency_edges[-1]
        assert edge.source.loc[0] == 1  # same line, but the assignment def
        uses = [d for d in e.dependency_edges if d.target.name == "x"]
        assert uses

    def test_multiple_uses_multiple_edges(self):
        e = enhanced("var v = 1; f(v); g(v); h(v);")
        assert e.edge_count == 3

    def test_paper_listing_example(self):
        # From the paper's Figure 2: timeZoneMinutes has data dependencies,
        # dateStr (used once per statement chain) keeps flowing too.
        src = """
        function getTimezoneOffset(dateStr) {
          var timeZoneMinutes = 0;
          if (dateStr.indexOf("+") !== -1) {
            var parts = dateStr.split("+");
            timeZoneMinutes = parseInt(parts[1], 10) * 60;
          }
          return timeZoneMinutes;
        }
        """
        e = enhanced(src)
        names = {edge.name for edge in e.dependency_edges}
        assert "timeZoneMinutes" in names
        assert "parts" in names

    def test_redeclared_var_links_each_declaration_to_its_uses(self):
        e = enhanced("var x = 1; f(x); var x = 2; g(x);")
        edges = [(d.source.loc, d.target.loc) for d in e.dependency_edges]
        assert edges == [((1, 4), (1, 13)), ((1, 21), (1, 30))]

    def test_compound_assignment_before_any_def(self):
        e = enhanced("x += 1; var x = 2; f(x);")
        assert [(d.source.loc, d.target.loc) for d in e.dependency_edges] == [((1, 12), (1, 21))]
        values = [e.leaf_value(i) for i in find_all(e.program, "Identifier") if i.name == "x"]
        assert values == ["@var_int", "@dd_int", "@dd_int"]

    def test_regular_ast_has_no_edges(self):
        program = parse("var x = 1; f(x);")
        regular = build_regular_ast(program)
        assert regular.edge_count == 0


class TestLeafValues:
    def test_connected_identifier_gets_dd_marker(self):
        e = enhanced("var keep = 1; f(keep);")
        identifiers = find_all(e.program, "Identifier")
        keeps = [i for i in identifiers if i.name == "keep"]
        assert any(e.leaf_value(i) == "@dd_int" for i in keeps)

    def test_dd_marker_is_rename_invariant(self):
        a = enhanced("var keep = 1; f(keep);")
        b = enhanced("var _0xab12 = 1; f(_0xab12);")
        vals_a = {a.leaf_value(i) for i in find_all(a.program, "Identifier")}
        vals_b = {b.leaf_value(i) for i in find_all(b.program, "Identifier")}
        assert vals_a == vals_b

    def test_unconnected_string_var_abstracted(self):
        e = enhanced("var dateStr = 'abc';")
        declarator = e.program.body[0].declarations[0]
        assert e.leaf_value(declarator.id) == "@var_str"

    def test_unconnected_int_var_abstracted(self):
        e = enhanced("var n = 5;")
        declarator = e.program.body[0].declarations[0]
        assert e.leaf_value(declarator.id) == "@var_int"

    def test_regular_ast_abstracts_even_connected_vars(self):
        program = parse("var x = 1; f(x);")
        regular = build_regular_ast(program)
        declarator = program.body[0].declarations[0]
        assert regular.leaf_value(declarator.id) == "@var_int"

    def test_host_global_keeps_name(self):
        e = enhanced("document.write('x');")
        identifiers = find_all(e.program, "Identifier")
        doc = next(i for i in identifiers if i.name == "document")
        assert e.leaf_value(doc) == "document"

    def test_parameter_named_like_its_function(self):
        # The parameter slot resolves to the first binding of ``f`` in
        # scope pre-order, the function's own name; the read resolves to
        # the parameter.
        e = enhanced("function f(f){ return f; }")
        values = [e.leaf_value(i) for i in find_all(e.program, "Identifier")]
        assert values == ["@var_func", "@var_func", "@var_any"]
        assert e.edge_count == 0

    def test_catch_parameter_resolves_to_the_catch_binding(self):
        e = enhanced("try { risky(); } catch (e) { log(e); }")
        handler = e.program.body[0].handler
        assert e.analyzer.declared_binding(handler, "e").kind == "catch"
        values = [e.leaf_value(i) for i in find_all(e.program, "Identifier") if i.name == "e"]
        assert values == ["@var_any", "@var_any"]

    def test_literal_abstractions(self):
        e = enhanced("var a = 'str'; var b = 3; var c = 2.5; var d = true; var f = null;")
        literals = find_all(e.program, "Literal")
        values = [e.leaf_value(l) for l in literals]
        assert values == ["@lit_str", "@lit_int", "@lit_float", "@lit_bool", "@lit_null"]

    def test_regex_literal_abstraction(self):
        e = enhanced("var r = /a+/;")
        literal = e.program.body[0].declarations[0].init
        assert e.leaf_value(literal) == "@lit_regex"

    def test_this_expression_value(self):
        e = enhanced("var s = this;")
        this_node = e.program.body[0].declarations[0].init
        assert e.leaf_value(this_node) == "this"


class TestTypeInference:
    def test_function_var(self):
        e = enhanced("var f = function() {};")
        assert e.leaf_value(e.program.body[0].declarations[0].id) == "@var_func"

    def test_array_var(self):
        e = enhanced("var a = [1];")
        assert e.leaf_value(e.program.body[0].declarations[0].id) == "@var_arr"

    def test_object_var(self):
        e = enhanced("var o = {};")
        assert e.leaf_value(e.program.body[0].declarations[0].id) == "@var_obj"

    def test_comparison_yields_bool(self):
        e = enhanced("var b = 1 < 2;")
        assert e.leaf_value(e.program.body[0].declarations[0].id) == "@var_bool"

    def test_string_concat_yields_str(self):
        e = enhanced("var s = 'a' + 1;")
        assert e.leaf_value(e.program.body[0].declarations[0].id) == "@var_str"

    def test_unknown_yields_any(self):
        e = enhanced("var u = someCall();")
        assert e.leaf_value(e.program.body[0].declarations[0].id) == "@var_any"
