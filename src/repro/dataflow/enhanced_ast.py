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
    #: id(node) -> parent node, for type inference of leaves.
    parent_of: dict[int, ast.Node | None] = field(default_factory=dict)
    #: (id(declaration site), name) -> (pre-order rank of the scope, binding),
    #: first scope wins; see :func:`_index_name_slots`.
    name_slots: dict[tuple[int, str], tuple[int, Binding]] = field(default_factory=dict)

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
            if id(node) in self.connected_leaves:
                binding = self.analyzer.binding_of_ref.get(id(node)) or self._binding_for_name_slot(node)
                if binding is None:
                    return node.name
                return f"@dd_{self._infer_binding_type(binding)}"
            return self._abstract_identifier(node)
        if node.type == "Literal":
            return _abstract_literal(node)
        if node.type == "TemplateLiteral":
            return "@lit_str"
        if node.type == "ThisExpression":
            return "this"
        return f"@{node.type}"

    def _abstract_identifier(self, node: ast.Identifier) -> str:
        binding = self.analyzer.binding_of_ref.get(id(node))
        if binding is None:
            binding = self._binding_for_name_slot(node)
        if binding is None:
            # Unresolved == a host global like `document`; its name is part
            # of the platform API surface, not a renameable variable, so it
            # is kept — obfuscators cannot rename host objects safely.
            return node.name
        inferred = self._infer_binding_type(binding)
        return f"@var_{inferred}"

    def _binding_for_name_slot(self, node: ast.Identifier):
        """Resolve an identifier sitting in a declaration-name position.

        Declarator ids, function names, and parameters are not references,
        so ``binding_of_ref`` misses them; find the binding they declare.
        """
        parent = self.parent_of.get(id(node))
        if parent is None:
            return None
        hits = [self.name_slots.get((id(site), node.name)) for site in (parent, node)]
        found = [hit for hit in hits if hit is not None]
        return min(found, key=lambda hit: hit[0])[1] if found else None

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


def _index_name_slots(analyzer: ScopeAnalyzer) -> dict[tuple[int, str], tuple[int, Binding]]:
    """Every declaration site of every binding, keyed for name-slot lookups.

    An identifier in a declaration-name position resolves to the binding
    of its name that lists the identifier or its parent as a declaration,
    in the first scope (pre-order) that has one.  Indexing the sites once
    makes that lookup constant-time instead of a walk over every scope.
    """
    slots: dict[tuple[int, str], tuple[int, Binding]] = {}
    for rank, scope in enumerate(analyzer.global_scope.iter_scopes()):
        for name, binding in scope.bindings.items():
            for declaration in binding.declarations:
                slots.setdefault((id(declaration), name), (rank, binding))
    return slots


def build_enhanced_ast(program: ast.Program) -> EnhancedAST:
    """Attach data-dependency edges to a parsed program.

    An edge runs from each definition of a variable to every *later* use of
    the same binding (source order approximated by pre-order index).  This
    is the "a program statement refers to the data of a preceding statement"
    relation of the paper's Figure 2.
    """
    analyzer = analyze_scopes(program)
    defuse = analyze_defuse(program, analyzer)
    enhanced = EnhancedAST(program, analyzer, defuse)

    enhanced.parent_of = {id(node): parent for node, parent in walk_with_parent(program)}
    enhanced.name_slots = _index_name_slots(analyzer)

    # Group events per binding, then connect defs to subsequent uses.
    events_by_binding: dict[int, list] = {}
    binding_objects: dict[int, object] = {}
    for event in defuse.events:
        events_by_binding.setdefault(id(event.binding), []).append(event)
        binding_objects[id(event.binding)] = event.binding

    for binding_id, events in events_by_binding.items():
        binding = binding_objects[binding_id]
        events.sort(key=lambda e: e.order)
        definitions = [e for e in events if e.kind == "def"]
        uses = [e for e in events if e.kind == "use"]
        for use in uses:
            # Reaching definition approximation: the latest def before the
            # use; if none precedes it (use-before-def via hoisting), link
            # the earliest def.
            prior = [d for d in definitions if d.order < use.order]
            if prior:
                source = prior[-1]
            elif definitions:
                source = definitions[0]
            else:
                continue
            if source.node is use.node:
                continue
            enhanced.dependency_edges.append(DependencyEdge(source.node, use.node, binding.name))
            enhanced.connected_leaves.add(id(source.node))
            enhanced.connected_leaves.add(id(use.node))

    return enhanced


def build_regular_ast(program: ast.Program) -> EnhancedAST:
    """The ablation representation: same wrapper, *no* dependency edges.

    Used by the Table IV "regular AST" rows — every identifier leaf is
    abstracted, so paths carry no data-flow information.
    """
    analyzer = analyze_scopes(program)
    defuse = analyze_defuse(program, analyzer)
    enhanced = EnhancedAST(program, analyzer, defuse)
    enhanced.parent_of = {id(node): parent for node, parent in walk_with_parent(program)}
    enhanced.name_slots = _index_name_slots(analyzer)
    return enhanced
