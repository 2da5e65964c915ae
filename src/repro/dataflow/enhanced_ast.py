"""Enhanced AST: the paper's core code representation.

Section III-B of the paper: parse the script into an AST and add a *data
dependency edge* between leaves that refer to the same variable (a statement
reading data a preceding statement produced).  Leaves that participate in a
data dependency keep their concrete value (the variable name); all other
value-bearing leaves are abstracted to a type indicator — ``@var_str`` for
string-typed variables/literals, ``@var_int`` for integers, and so on.

This module wraps a parsed program with:

* ``dependency_edges`` — pairs of Identifier leaves (def → use) that share a
  binding, and
* ``leaf_value(node)`` — the path-extraction value for a leaf: the concrete
  name when the leaf is an endpoint of a dependency edge, else an abstraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.jsparser import ast_nodes as ast
from repro.jsparser.scope import Binding, ScopeAnalyzer, analyze_scopes
from repro.jsparser.visitor import walk_with_parent

from .defuse import DefUseInfo, analyze_defuse


@dataclass
class DependencyEdge:
    """A data-dependency edge between two leaves of the AST."""

    source: ast.Identifier  # the definition endpoint
    target: ast.Identifier  # the use endpoint
    name: str  # the shared variable name


@dataclass
class EnhancedAST:
    """A program AST plus data-flow annotations for path extraction."""

    program: ast.Program
    analyzer: ScopeAnalyzer
    defuse: DefUseInfo
    dependency_edges: list[DependencyEdge] = field(default_factory=list)
    #: Leaves (by id) that participate in at least one dependency edge.
    connected_leaves: set[int] = field(default_factory=set)
    #: id(node) -> parent node, for resolving declaration-name leaves.
    parent_of: dict[int, ast.Node | None] = field(default_factory=dict)

    # ------------------------------------------------------------- leaf value

    def leaf_value(self, node: ast.Node) -> str:
        """The path-context value for a leaf node.

        Identifiers on a dependency edge get a ``@dd_<type>`` marker —
        distinct from the plain ``@var_<type>`` of unconnected leaves, so
        paths carrying data flow stay distinguishable, while the marker
        itself is invariant under variable renaming.  (The paper keeps the
        concrete variable name here; we keep the *linkage signal* the name
        provides — same-variable endpoints are detected by value equality —
        without the rename-sensitivity of the raw text, which is what the
        paper's robustness argument actually relies on.)  Unresolved
        identifiers are host globals (``document``, ``eval``): obfuscators
        cannot rename those, so their real names are kept.
        """
        if node.type == "Identifier":
            binding = self._binding(node)
            if binding is None:
                return node.name
            marker = "@dd_" if id(node) in self.connected_leaves else "@var_"
            return marker + self._infer_binding_type(binding)
        if node.type == "Literal":
            return _abstract_literal(node)
        if node.type == "TemplateLiteral":
            return "@lit_str"
        if node.type == "ThisExpression":
            return "this"
        return f"@{node.type}"

    def _binding(self, node: ast.Identifier) -> Binding | None:
        """The binding an identifier refers to or, in a name slot, declares.

        Declarator ids, function names, parameters and catch parameters
        are not references, so ``binding_of_ref`` misses them; the scope
        analyzer's declaration-site index, asked with the parent, has the
        binding they declare.
        """
        binding = self.analyzer.binding_of_ref.get(id(node))
        if binding is None:
            parent = self.parent_of.get(id(node))
            if parent is not None:
                binding = self.analyzer.declared_binding(parent, node.name)
        return binding

    def _infer_binding_type(self, binding) -> str:
        """Infer a coarse type for a binding from its initializer, if any."""
        declaration = binding.declaration
        init = getattr(declaration, "init", None)
        if init is None:
            if binding.kind == "function":
                return "func"
            if binding.kind == "param":
                return "any"
            return "any"
        return _infer_expression_type(init)

    # ---------------------------------------------------------------- counts

    @property
    def edge_count(self) -> int:
        return len(self.dependency_edges)


def _abstract_literal(node) -> str:
    if getattr(node, "regex", None) is not None:
        return "@lit_regex"
    value = node.value
    if isinstance(value, bool):
        return "@lit_bool"
    if isinstance(value, (int, float)):
        return "@lit_int" if float(value).is_integer() else "@lit_float"
    if isinstance(value, str):
        return "@lit_str"
    if value is None:
        return "@lit_null"
    return "@lit"


def _infer_expression_type(node: ast.Node) -> str:
    """Coarse static type of an initializer expression."""
    type_ = node.type
    if type_ == "Literal":
        if getattr(node, "regex", None) is not None:
            return "regex"
        value = node.value
        if isinstance(value, bool):
            return "bool"
        if isinstance(value, (int, float)):
            return "int" if float(value).is_integer() else "float"
        if isinstance(value, str):
            return "str"
        return "any"
    if type_ == "TemplateLiteral":
        return "str"
    if type_ == "ArrayExpression":
        return "arr"
    if type_ == "ObjectExpression":
        return "obj"
    if type_ in ("FunctionExpression", "ArrowFunctionExpression"):
        return "func"
    if type_ == "NewExpression":
        return "obj"
    if type_ == "BinaryExpression":
        if node.operator in ("==", "===", "!=", "!==", "<", ">", "<=", ">=", "in", "instanceof"):
            return "bool"
        if node.operator == "+":
            left = _infer_expression_type(node.left)
            right = _infer_expression_type(node.right)
            if "str" in (left, right):
                return "str"
            if left == right == "int":
                return "int"
            return "any"
        return "int"
    if type_ == "UnaryExpression":
        if node.operator in ("!",):
            return "bool"
        if node.operator == "typeof":
            return "str"
        if node.operator in ("-", "+", "~"):
            return "int"
        return "any"
    if type_ == "LogicalExpression":
        return _infer_expression_type(node.right)
    if type_ == "ConditionalExpression":
        consequent = _infer_expression_type(node.consequent)
        alternate = _infer_expression_type(node.alternate)
        return consequent if consequent == alternate else "any"
    return "any"


def build_enhanced_ast(program: ast.Program) -> EnhancedAST:
    """Attach data-dependency edges to a parsed program.

    An edge runs to each use of a variable from the definition of the same
    binding that reaches it (:meth:`DefUseInfo.reaching_pairs`; source
    order approximated by pre-order index).  This is the "a program
    statement refers to the data of a preceding statement" relation of the
    paper's Figure 2.
    """
    analyzer = analyze_scopes(program)
    defuse = analyze_defuse(program, analyzer)
    enhanced = EnhancedAST(program, analyzer, defuse)

    enhanced.parent_of = {id(node): parent for node, parent in walk_with_parent(program)}
    for definition, use in defuse.reaching_pairs():
        enhanced.dependency_edges.append(DependencyEdge(definition.node, use.node, use.binding.name))
        enhanced.connected_leaves.add(id(definition.node))
        enhanced.connected_leaves.add(id(use.node))

    return enhanced


def build_regular_ast(program: ast.Program) -> EnhancedAST:
    """The ablation representation: same wrapper, *no* dependency edges.

    Used by the Table IV "regular AST" rows — every identifier leaf is
    abstracted, so paths carry no data-flow information.  Nothing reads a
    regular AST's def-use, so it gets an empty one.
    """
    analyzer = analyze_scopes(program)
    enhanced = EnhancedAST(program, analyzer, DefUseInfo(analyzer))
    enhanced.parent_of = {id(node): parent for node, parent in walk_with_parent(program)}
    return enhanced
