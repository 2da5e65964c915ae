"""Unit tests for def-use analysis."""

from repro.dataflow import analyze_defuse
from repro.jsparser import parse


def events(source):
    info = analyze_defuse(parse(source))
    return [(e.binding.name, e.kind) for e in sorted(info.events, key=lambda e: e.order)]


class TestDefinitions:
    def test_declaration_with_init_is_def(self):
        assert ("x", "def") in events("var x = 1;")

    def test_declaration_without_init_is_not_def(self):
        assert events("var x;") == []

    def test_assignment_is_def(self):
        evs = events("var x; x = 1;")
        assert evs == [("x", "def")]

    def test_for_in_left_is_def(self):
        evs = events("var k; for (k in o) {}")
        assert ("k", "def") in evs

    def test_compound_assignment_is_use_then_def(self):
        evs = events("var x = 1; x += 2;")
        assert evs == [("x", "def"), ("x", "use"), ("x", "def")]
        evs = events("x += 1; var x = 2; f(x);")  # before any def
        assert evs == [("x", "use"), ("x", "def"), ("x", "def"), ("x", "use")]

    def test_update_expression_is_use_then_def(self):
        evs = events("var i = 0; i++;")
        assert evs == [("i", "def"), ("i", "use"), ("i", "def")]

    def test_redeclared_var_is_one_binding(self):
        info = analyze_defuse(parse("var x = 1; f(x); var x = 2; g(x);"))
        binding = info.analyzer.global_scope.bindings["x"]
        assert len(binding.declarations) == 2
        assert all(e.binding is binding for e in info.events)
        assert [e.kind for e in info.events_for(binding)] == ["def", "use", "def", "use"]


class TestUses:
    def test_read_is_use(self):
        evs = events("var x = 1; f(x);")
        assert ("x", "use") in evs

    def test_rhs_of_assignment_is_use(self):
        evs = events("var a = 1; var b = a;")
        assert evs == [("a", "def"), ("b", "def"), ("a", "use")]

    def test_member_object_is_use(self):
        evs = events("var o = {}; o.x;")
        assert ("o", "use") in evs

    def test_property_name_is_not_use(self):
        evs = events("var x = {}; obj.x;")
        assert ("x", "use") not in evs

    def test_closure_use(self):
        evs = events("var a = 1; function f() { return a; }")
        assert ("a", "use") in evs

    def test_unresolved_global_not_tracked(self):
        assert events("console.log(1);") == []

    def test_parameter_named_like_its_function(self):
        info = analyze_defuse(parse("function f(f){ return f; }"))
        assert [(e.binding.kind, e.kind) for e in info.events] == [("param", "use")]

    def test_catch_parameter_read_is_a_use(self):
        info = analyze_defuse(parse("try { risky(); } catch (e) { log(e); }"))
        assert [(e.binding.name, e.binding.kind, e.kind) for e in info.events] == [("e", "catch", "use")]


class TestAccessors:
    def test_defs_and_uses_for(self):
        info = analyze_defuse(parse("var x = 1; x = 2; f(x);"))
        binding = info.analyzer.global_scope.bindings["x"]
        assert len(info.defs_for(binding)) == 2
        assert len(info.uses_for(binding)) == 1

    def test_event_of_node_mapping(self):
        info = analyze_defuse(parse("var y = 1; g(y);"))
        binding = info.analyzer.global_scope.bindings["y"]
        use = info.uses_for(binding)[0]
        assert info.event_of_node[id(use.node)] is use

    def test_order_reflects_source_order(self):
        info = analyze_defuse(parse("var a = 1; var b = a; var c = b;"))
        ordered = [e for e in sorted(info.events, key=lambda e: e.order)]
        names = [(e.binding.name, e.kind) for e in ordered]
        assert names.index(("a", "def")) < names.index(("a", "use"))
        assert names.index(("b", "def")) < names.index(("b", "use"))


class TestReachingPairs:
    @staticmethod
    def pairs(source):
        info = analyze_defuse(parse(source))
        return [(d.node.loc, u.node.loc) for d, u in info.reaching_pairs()]

    def test_latest_def_before_the_use(self):
        assert self.pairs("var x = 1; x = 2; f(x);") == [((1, 11), (1, 20))]

    def test_use_before_any_def_takes_the_first_def(self):
        assert self.pairs("f(x); var x = 1; x = 2;") == [((1, 10), (1, 2))]

    def test_compound_assignment_never_pairs_with_itself(self):
        assert self.pairs("x += 1; var x = 2; f(x);") == [((1, 12), (1, 21))]

    def test_bindings_in_order_of_first_event_uses_in_source_order(self):
        pairs = self.pairs("var b = 1; var a = 2; f(a); g(b); h(a);")
        assert pairs == [((1, 4), (1, 30)), ((1, 15), (1, 24)), ((1, 15), (1, 36))]
