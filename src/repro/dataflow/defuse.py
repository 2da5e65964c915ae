"""Definition–use analysis over the scope-resolved AST.

For every variable binding, classifies each reference as a *definition*
(write) or a *use* (read), in source order, and owns the one
reaching-definition rule: :meth:`DefUseInfo.reaching_pairs` pairs each use
with the definition that reaches it.  The enhanced AST
(:mod:`repro.dataflow.enhanced_ast`) turns those pairs into its
data-dependency edges; the PDG (:mod:`repro.dataflow.pdg`) lifts the same
pairs to statement granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.jsparser import ast_nodes as ast
from repro.jsparser.scope import Binding, ScopeAnalyzer, analyze_scopes
from repro.jsparser.visitor import walk_with_parent


@dataclass
class VarEvent:
    """One read or write of a variable."""

    binding: Binding
    node: ast.Identifier
    kind: str  # "def" | "use"
    order: int  # pre-order index in the tree walk (source order proxy)


@dataclass
class DefUseInfo:
    """All variable events for one program."""

    analyzer: ScopeAnalyzer
    events: list[VarEvent] = field(default_factory=list)
    #: id(Identifier) -> VarEvent
    event_of_node: dict[int, VarEvent] = field(default_factory=dict)
    #: id(Binding) -> that binding's events in source order; bindings in
    #: the order of their first event.
    events_by_binding: dict[int, list[VarEvent]] = field(default_factory=dict)

    def add(self, event: VarEvent) -> None:
        self.events.append(event)
        self.events_by_binding.setdefault(id(event.binding), []).append(event)

    def events_for(self, binding: Binding) -> list[VarEvent]:
        return self.events_by_binding.get(id(binding), [])

    def defs_for(self, binding: Binding) -> list[VarEvent]:
        return [e for e in self.events_for(binding) if e.kind == "def"]

    def uses_for(self, binding: Binding) -> list[VarEvent]:
        return [e for e in self.events_for(binding) if e.kind == "use"]

    def reaching_pairs(self) -> Iterator[tuple[VarEvent, VarEvent]]:
        """``(definition, use)`` for every use a definition of its binding reaches.

        The reaching definition approximation: the latest definition
        before the use; if none precedes it (use before def, through
        hoisting), the binding's first definition.  A compound ``x += 1``
        is a use and then a definition of the same node, and is never
        paired with itself.  Bindings come in the order of their first
        event, uses in source order.
        """
        for events in self.events_by_binding.values():
            first = next((e for e in events if e.kind == "def"), None)
            if first is None:
                continue
            latest = None
            for event in events:
                if event.kind == "def":
                    latest = event
                    continue
                source = first if latest is None else latest
                if source.node is not event.node:
                    yield source, event


def _is_write(node: ast.Identifier, parent: ast.Node | None) -> bool:
    """Is the identifier the target of an assignment/update/declaration?"""
    if parent is None:
        return False
    if parent.type == "AssignmentExpression" and parent.left is node:
        return True
    if parent.type == "UpdateExpression" and parent.argument is node:
        return True
    if parent.type == "VariableDeclarator" and parent.id is node:
        return False  # handled as declaration elsewhere; init decides
    if parent.type in ("ForInStatement", "ForOfStatement") and parent.left is node:
        return True
    return False


def analyze_defuse(program: ast.Program, analyzer: ScopeAnalyzer | None = None) -> DefUseInfo:
    """Classify every resolved identifier reference as def or use.

    Declaration identifiers with an initializer are recorded as definitions
    even though scope analysis does not treat them as references;
    compound assignments (``x += 1``) and updates (``x++``) count as *both*
    a use and a definition — the use event is emitted first.
    """
    if analyzer is None:
        analyzer = analyze_scopes(program)
    info = DefUseInfo(analyzer)
    order = 0

    for node, parent in walk_with_parent(program):
        order += 1
        if node.type != "Identifier":
            continue

        # Declarations with init: `var x = e` defines x.
        if parent is not None and parent.type == "VariableDeclarator" and parent.id is node:
            binding = analyzer.declared_binding(parent, node.name)
            if binding is not None and parent.init is not None:
                event = VarEvent(binding, node, "def", order)
                info.add(event)
                info.event_of_node[id(node)] = event
            continue

        binding = analyzer.binding_of_ref.get(id(node))
        if binding is None:
            continue

        compound = (
            parent is not None
            and parent.type == "AssignmentExpression"
            and parent.left is node
            and parent.operator != "="
        ) or (parent is not None and parent.type == "UpdateExpression")

        if compound:
            info.add(VarEvent(binding, node, "use", order))
            event = VarEvent(binding, node, "def", order)
        elif _is_write(node, parent):
            event = VarEvent(binding, node, "def", order)
        else:
            event = VarEvent(binding, node, "use", order)
        info.add(event)
        info.event_of_node[id(node)] = event

    return info
