"""Lexical scope analysis.

Builds a scope tree (global scope + one scope per function, plus block
scopes for ``let``/``const``), resolves every ``Identifier`` reference to
its declaration, and indexes every declaration site, so the identifiers
that name a binding rather than refer to one (declarator ids, function
names, parameters, catch parameters) resolve in one lookup too.  This is
the one place that decides which binding an identifier belongs to.
Consumers:

* :mod:`repro.dataflow` uses the binding resolution to connect definitions
  and uses of the same variable (the enhanced-AST data-dependency edges).
* :mod:`repro.analysis.dataflow` resolves declarators through the index
  for its call graph and taint engine.
* :mod:`repro.obfuscation` uses it to rename variables consistently without
  capturing globals like ``document`` or ``eval``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from . import ast_nodes as ast


@dataclass
class Binding:
    """A declared variable, function, or parameter.

    ``declarations`` lists *every* declaration site: sloppy-mode JS allows
    repeated ``var x`` for the same binding, and a renamer must rename all
    of them together.  ``declaration`` remains the first site.
    """

    name: str
    kind: str  # "var" | "let" | "const" | "function" | "param" | "catch"
    scope: "Scope"
    declaration: ast.Node
    references: list[ast.Identifier] = field(default_factory=list)
    declarations: list[ast.Node] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.declarations:
            self.declarations = [self.declaration]


class Scope:
    """One lexical scope; holds bindings and child scopes."""

    def __init__(self, kind: str, node: ast.Node, parent: "Scope | None" = None):
        self.kind = kind  # "global" | "function" | "block" | "catch"
        self.node = node
        self.parent = parent
        self.children: list[Scope] = []
        self.bindings: dict[str, Binding] = {}
        if parent is not None:
            parent.children.append(self)

    def declare(self, name: str, kind: str, declaration: ast.Node) -> Binding:
        """Add (or merge) a binding in this scope.

        A repeated declaration of the same name (sloppy-mode ``var x``
        twice) merges into the existing binding, recording the extra
        declaration site.
        """
        if name in self.bindings:
            binding = self.bindings[name]
            if declaration not in binding.declarations:
                binding.declarations.append(declaration)
            return binding
        binding = Binding(name, kind, self, declaration)
        self.bindings[name] = binding
        return binding

    def resolve(self, name: str) -> Binding | None:
        """Look up a name through the scope chain."""
        scope: Scope | None = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None

    def hoist_target(self) -> "Scope":
        """The nearest function (or global) scope, for ``var`` hoisting."""
        scope: Scope = self
        while scope.kind not in ("function", "global"):
            assert scope.parent is not None
            scope = scope.parent
        return scope

    def iter_scopes(self) -> Iterator["Scope"]:
        """This scope and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_scopes()

    def all_binding_names(self) -> set[str]:
        """Names bound in this scope or any enclosing scope."""
        names: set[str] = set()
        scope: Scope | None = self
        while scope is not None:
            names.update(scope.bindings)
            scope = scope.parent
        return names


class ScopeAnalyzer:
    """Two-pass scope construction: declarations first, then references."""

    def __init__(self, program: ast.Program):
        self.program = program
        self.global_scope = Scope("global", program)
        #: Maps id(node) -> scope for function/block nodes that open scopes.
        self.scope_of_node: dict[int, Scope] = {id(program): self.global_scope}
        #: Maps id(Identifier) -> Binding for resolved references.
        self.binding_of_ref: dict[int, Binding] = {}
        #: Identifiers that resolved to nothing (globals like `document`).
        self.unresolved: list[ast.Identifier] = []
        #: Maps (id(declaration site), name) -> Binding; see :meth:`declared_binding`.
        self.binding_of_site: dict[tuple[int, str], Binding] = {}

    def analyze(self) -> Scope:
        self._declare_in_scope(self.program.body, self.global_scope)
        for scope in self.global_scope.iter_scopes():
            for name, binding in scope.bindings.items():
                for site in binding.declarations:
                    self.binding_of_site.setdefault((id(site), name), binding)
        self._resolve_references()
        return self.global_scope

    def declared_binding(self, site: ast.Node, name: str) -> Binding | None:
        """The binding ``site`` declares under ``name``.

        Sites are what :meth:`Scope.declare` records: a
        ``VariableDeclarator``, a function node (its name and its
        parameters) or a ``CatchClause``.  When two scopes hold a binding
        declared at the same site under the same name, the first scope in
        pre-order wins: in ``function f(f){}`` the parameter resolves to
        the outer binding ``f``.
        """
        return self.binding_of_site.get((id(site), name))

    # ----------------------------------------------------------- declaration

    def _declare_in_scope(self, body: list[ast.Node], scope: Scope) -> None:
        for stmt in body:
            self._declare_stmt(stmt, scope)

    def _declare_stmt(self, node: ast.Node | None, scope: Scope) -> None:
        if node is None:
            return
        type_ = node.type

        if type_ == "FunctionDeclaration":
            scope.hoist_target().declare(node.id.name, "function", node)
            self._enter_function(node, scope)
            return
        if type_ == "VariableDeclaration":
            target = scope if node.kind in ("let", "const") else scope.hoist_target()
            for declarator in node.declarations:
                target.declare(declarator.id.name, node.kind, declarator)
                self._declare_expr(declarator.init, scope)
            return
        if type_ == "BlockStatement":
            block_scope = Scope("block", node, scope)
            self.scope_of_node[id(node)] = block_scope
            self._declare_in_scope(node.body, block_scope)
            return
        if type_ == "TryStatement":
            self._declare_stmt(node.block, scope)
            if node.handler is not None:
                catch_scope = Scope("catch", node.handler, scope)
                self.scope_of_node[id(node.handler)] = catch_scope
                if node.handler.param is not None:
                    catch_scope.declare(node.handler.param.name, "catch", node.handler)
                # The catch body is a block; nest it under the catch scope.
                body_scope = Scope("block", node.handler.body, catch_scope)
                self.scope_of_node[id(node.handler.body)] = body_scope
                self._declare_in_scope(node.handler.body.body, body_scope)
            if node.finalizer is not None:
                self._declare_stmt(node.finalizer, scope)
            return
        if type_ in ("ForStatement", "ForInStatement", "ForOfStatement"):
            loop_scope = Scope("block", node, scope)
            self.scope_of_node[id(node)] = loop_scope
            if type_ == "ForStatement":
                self._declare_stmt(node.init, loop_scope)
                self._declare_expr(node.test, loop_scope)
                self._declare_expr(node.update, loop_scope)
            else:
                self._declare_stmt(node.left, loop_scope)
                if node.left.type not in ("VariableDeclaration",):
                    self._declare_expr(node.left, loop_scope)
                self._declare_expr(node.right, loop_scope)
            self._declare_stmt(node.body, loop_scope)
            return

        # Statements that just contain other statements/expressions.
        for child in node.children():
            if _is_statement(child):
                self._declare_stmt(child, scope)
            else:
                self._declare_expr(child, scope)

    def _declare_expr(self, node: ast.Node | None, scope: Scope) -> None:
        if node is None:
            return
        if node.type in ("FunctionExpression", "ArrowFunctionExpression"):
            self._enter_function(node, scope)
            return
        for child in node.children():
            if _is_statement(child):
                self._declare_stmt(child, scope)
            else:
                self._declare_expr(child, scope)

    def _enter_function(self, node: ast.Node, outer: Scope) -> None:
        fn_scope = Scope("function", node, outer)
        self.scope_of_node[id(node)] = fn_scope
        if getattr(node, "id", None) is not None and node.type == "FunctionExpression":
            fn_scope.declare(node.id.name, "function", node)  # self-reference
        for param in getattr(node, "params", []):
            target = param.argument if param.type == "SpreadElement" else param
            fn_scope.declare(target.name, "param", node)
        body = node.body
        if body.type == "BlockStatement":
            # Function body block shares the function scope for `var`,
            # but we still record the mapping for reference resolution.
            self.scope_of_node[id(body)] = fn_scope
            self._declare_in_scope(body.body, fn_scope)
        else:  # arrow expression body
            self._declare_expr(body, fn_scope)

    # ------------------------------------------------------------ references

    def _resolve_references(self) -> None:
        for node, parent, scope in self._walk_scoped():
            if node.type != "Identifier":
                continue
            if not _is_reference(node, parent):
                continue
            binding = scope.resolve(node.name)
            if binding is None:
                self.unresolved.append(node)
            else:
                binding.references.append(node)
                self.binding_of_ref[id(node)] = binding

    def _walk_scoped(self) -> Iterator[tuple[ast.Node, ast.Node | None, Scope]]:
        """Pre-order walk carrying the innermost scope at each node."""
        stack: list[tuple[ast.Node, ast.Node | None, Scope]] = [(self.program, None, self.global_scope)]
        while stack:
            node, parent, scope = stack.pop()
            scope = self.scope_of_node.get(id(node), scope)
            yield node, parent, scope
            for child in reversed(list(node.children())):
                stack.append((child, node, scope))


def _is_statement(node: ast.Node) -> bool:
    return node.type.endswith("Statement") or node.type.endswith("Declaration") or node.type in (
        "SwitchCase",
        "CatchClause",
    )


def _is_reference(node: ast.Identifier, parent: ast.Node | None) -> bool:
    """True when the identifier is a variable read/write, not a name slot."""
    if parent is None:
        return True
    ptype = parent.type
    if ptype == "MemberExpression" and parent.property is node and not parent.computed:
        return False
    if ptype == "Property" and parent.key is node and not parent.computed:
        return False
    if ptype in ("FunctionDeclaration", "FunctionExpression") and getattr(parent, "id", None) is node:
        return False
    if ptype in ("FunctionDeclaration", "FunctionExpression", "ArrowFunctionExpression"):
        if node in getattr(parent, "params", []):
            return False
    if ptype == "VariableDeclarator" and parent.id is node:
        return False
    if ptype in ("BreakStatement", "ContinueStatement", "LabeledStatement") and getattr(parent, "label", None) is node:
        return False
    if ptype == "CatchClause" and parent.param is node:
        return False
    return True


def analyze_scopes(program: ast.Program) -> ScopeAnalyzer:
    """Run scope analysis and return the populated analyzer."""
    analyzer = ScopeAnalyzer(program)
    analyzer.analyze()
    return analyzer
