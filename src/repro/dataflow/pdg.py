"""Program dependence graph (PDG) construction.

The PDG layers two edge families over statement nodes:

* **control dependence** — approximated structurally: a statement is control
  dependent on the nearest enclosing branch/loop/switch statement (this is
  the tree-shaped approximation JSTAP's implementation also relies on), and
* **data dependence** — statement S2 depends on S1 when S1 defines a
  variable that S2 uses and S1's definition reaches S2, by the def-use
  rule (:meth:`repro.dataflow.defuse.DefUseInfo.reaching_pairs`).

The JSTAP baseline extracts n-grams by walking these edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from repro.jsparser import ast_nodes as ast
from repro.jsparser.visitor import walk, walk_with_parent

from .defuse import analyze_defuse

_CONTROL_PARENTS = frozenset(
    {
        "IfStatement",
        "WhileStatement",
        "DoWhileStatement",
        "ForStatement",
        "ForInStatement",
        "ForOfStatement",
        "SwitchStatement",
        "TryStatement",
        "WithStatement",
        "FunctionDeclaration",
        "FunctionExpression",
        "ArrowFunctionExpression",
    }
)

_STATEMENT_SUFFIXES = ("Statement", "Declaration")


def _is_statement(node: ast.Node) -> bool:
    return node.type.endswith(_STATEMENT_SUFFIXES)


@dataclass
class PDG:
    """Statement-level program dependence graph."""

    graph: nx.DiGraph = field(default_factory=nx.DiGraph)
    node_of: dict[int, ast.Node] = field(default_factory=dict)

    def add_node(self, stmt: ast.Node) -> int:
        key = id(stmt)
        if key not in self.node_of:
            self.graph.add_node(key, type=stmt.type)
            self.node_of[key] = stmt
        return key

    def add_edge(self, src: ast.Node, dst: ast.Node, kind: str) -> None:
        self.graph.add_edge(self.add_node(src), self.add_node(dst), kind=kind)

    def edges_of_kind(self, kind: str) -> list[tuple[ast.Node, ast.Node]]:
        return [
            (self.node_of[u], self.node_of[v])
            for u, v, data in self.graph.edges(data=True)
            if data.get("kind") == kind
        ]

    @property
    def statements(self) -> list[ast.Node]:
        return list(self.node_of.values())


def build_pdg(program: ast.Program) -> PDG:
    """Build the statement-level PDG of a program."""
    pdg = PDG()

    # The nearest enclosing *statement* of a node lifts identifier-level
    # def/use pairs to statement granularity.
    parent_of = {id(n): p for n, p in walk_with_parent(program)}

    def nearest_statement(node: ast.Node) -> ast.Node | None:
        cursor: ast.Node | None = node
        while cursor is not None and not _is_statement(cursor):
            cursor = parent_of.get(id(cursor))
        return cursor

    for node in walk(program):
        if _is_statement(node):
            pdg.add_node(node)

    # ---------------------------------------------------- control dependence
    for node in walk(program):
        if not _is_statement(node):
            continue
        cursor = parent_of.get(id(node))
        while cursor is not None:
            if cursor.type in _CONTROL_PARENTS:
                pdg.add_edge(cursor, node, kind="control")
                break
            cursor = parent_of.get(id(cursor))

    # ------------------------------------------------------- data dependence
    for definition, use in analyze_defuse(program).reaching_pairs():
        src_stmt = nearest_statement(definition.node)
        dst_stmt = nearest_statement(use.node)
        if src_stmt is None or dst_stmt is None or src_stmt is dst_stmt:
            continue
        pdg.add_edge(src_stmt, dst_stmt, kind="data")

    return pdg
