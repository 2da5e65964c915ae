"""Call-graph construction for the taint engine.

Deliberately modest (DESIGN.md §13 spells out the limits): edges exist
for

* direct calls to function declarations (``function f(){} … f()``);
* calls through names bound to function expressions — declarator inits
  (``var f = function(){}``), plain assignments (``f = function(){}``),
  and named function expressions calling themselves;
* IIFEs, where the callee *is* the function expression.

Method calls (``obj.m()``), ``call``/``apply``/``bind``, constructors
resolved through prototypes, and higher-order flows are not resolved;
the engine falls back to conservative argument propagation for those.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.jsparser import ast_nodes as ast
from repro.jsparser.scope import ScopeAnalyzer
from repro.jsparser.visitor import walk


@dataclass
class CallGraph:
    """Functions plus resolved call-site → target edges.

    Keys are ``id(node)`` — stable for the lifetime of the analyzed AST,
    matching how the repo's scope/def-use layers index nodes.
    """

    functions: list[ast.Node] = field(default_factory=list)
    targets_of: dict[int, list[ast.Node]] = field(default_factory=dict)
    #: id(function node) -> call sites resolved to it (reverse edges).
    callers_of: dict[int, list[ast.Node]] = field(default_factory=dict)

    def targets(self, call: ast.Node) -> list[ast.Node]:
        return self.targets_of.get(id(call), [])

    @property
    def n_edges(self) -> int:
        return sum(len(t) for t in self.targets_of.values())


def _bound_functions(program: ast.Program, scopes: ScopeAnalyzer) -> dict[int, list[ast.Node]]:
    """Map id(Binding) -> function nodes the name may hold.

    Multiple assignments keep every candidate (a may-analysis); bindings
    also written with non-function values keep their function candidates
    — imprecise but sound for a may-reach taint.
    """
    bound: dict[int, list[ast.Node]] = {}

    def bind(binding_key: int, fn: ast.Node) -> None:
        targets = bound.setdefault(binding_key, [])
        if all(existing is not fn for existing in targets):
            targets.append(fn)

    # Function declarations and named function expressions: their binding
    # lives in the scope tree with the node as the declaration.
    for scope in scopes.global_scope.iter_scopes():
        for binding in scope.bindings.values():
            if binding.kind != "function":
                continue
            for declaration in binding.declarations:
                if declaration.type in ast.FUNCTION_TYPES:
                    bind(id(binding), declaration)

    for node in walk(program):
        if node.type == "VariableDeclarator":
            init = node.init
            if init is not None and init.type in ast.FUNCTION_TYPES and node.id.type == "Identifier":
                binding = scopes.declared_binding(node, node.id.name)
                if binding is not None:
                    bind(id(binding), init)
        elif node.type == "AssignmentExpression" and node.operator == "=":
            if node.right.type in ast.FUNCTION_TYPES and node.left.type == "Identifier":
                binding = scopes.binding_of_ref.get(id(node.left))
                if binding is not None:
                    bind(id(binding), node.right)
    return bound


def build_call_graph(program: ast.Program, scopes: ScopeAnalyzer) -> CallGraph:
    graph = CallGraph()
    graph.functions = [node for node in walk(program) if node.type in ast.FUNCTION_TYPES]
    bound = _bound_functions(program, scopes)

    for node in walk(program):
        if node.type not in ("CallExpression", "NewExpression"):
            continue
        callee = node.callee
        targets: list[ast.Node] = []
        if callee.type in ast.FUNCTION_TYPES:  # IIFE
            targets = [callee]
        elif callee.type == "Identifier":
            binding = scopes.binding_of_ref.get(id(callee))
            if binding is not None:
                targets = list(bound.get(id(binding), []))
        if targets:
            graph.targets_of[id(node)] = targets
            for fn in targets:
                graph.callers_of.setdefault(id(fn), []).append(node)
    return graph
