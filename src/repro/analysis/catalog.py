"""The built-in rule catalog.

Three families, mirroring the issue's triage motivation:

* **Obfuscation indicators** — the concrete idioms obfuscated droppers
  lean on: dynamic code sinks (``eval``, ``new Function``, string-arg
  timers), decode chains feeding those sinks (the engine-backed flow
  rules of :mod:`repro.analysis.flows`), high-entropy or escape-soup
  string literals, and bracket-style global API lookups.
* **Dataflow checks** — def-use and CFG facts the rest of the repo
  already computes: use-before-def, write-only variables, unreachable
  statements.
* **Hygiene checks** — constructs that defeat static reasoning
  (``with``), plus nesting/comma chains and leftover ``debugger``.

Every rule is independently registrable; :func:`default_rules` returns
fresh instances of the full catalog.
"""

from __future__ import annotations

import math

from repro.jsparser import ast_nodes as ast

from .rules import Rule, RuleContext

# --------------------------------------------------------------- name helpers

#: Global aliases stripped when normalizing callee names: `window.eval`,
#: `globalThis.atob` and bare `eval`/`atob` are the same sink.
_GLOBAL_ALIASES = ("window", "globalThis", "self", "top")

#: Callees that execute their (string) argument.
SINK_NAMES = frozenset(
    {"eval", "Function", "execScript", "setTimeout", "setInterval", "document.write", "document.writeln"}
)

#: Callees that turn encoded bytes back into text.
DECODE_NAMES = frozenset(
    {"String.fromCharCode", "unescape", "atob", "decodeURIComponent", "decodeURI"}
)


def callee_name(node: ast.Node | None, depth: int = 3) -> str | None:
    """Dotted name of a callee expression, or ``None`` when not static.

    Resolves ``Identifier``, non-computed member chains, and computed
    members with string-literal keys (``window["eval"]`` → ``window.eval``),
    then strips one leading global alias.
    """
    parts: list[str] = []
    current = node
    while depth > 0 and current is not None:
        if current.type == "Identifier":
            parts.append(current.name)
            break
        if current.type == "MemberExpression":
            prop = current.property
            if not current.computed and prop.type == "Identifier":
                parts.append(prop.name)
            elif current.computed and prop.type == "Literal" and isinstance(prop.value, str):
                parts.append(prop.value)
            else:
                return None
            current = current.object
            depth -= 1
            continue
        return None
    else:
        return None
    parts.reverse()
    if len(parts) > 1 and parts[0] in _GLOBAL_ALIASES:
        parts = parts[1:]
    return ".".join(parts)


def _call_name(node: ast.Node) -> str | None:
    """Normalized callee name for Call/New expressions."""
    if node.type not in ("CallExpression", "NewExpression"):
        return None
    return callee_name(node.callee)


def _string_value(node: ast.Node) -> str | None:
    if node.type == "Literal" and isinstance(getattr(node, "value", None), str):
        return node.value
    if node.type == "TemplateLiteral":
        return node.value
    return None


def shannon_entropy(text: str) -> float:
    """Bits per character of the empirical character distribution."""
    if not text:
        return 0.0
    counts: dict[str, int] = {}
    for ch in text:
        counts[ch] = counts.get(ch, 0) + 1
    total = len(text)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


# ------------------------------------------------------- obfuscation indicators


class DynamicEvalRule(Rule):
    id = "dynamic-eval"
    severity = "error"
    description = "dynamic code execution via eval/Function"
    node_types = ("CallExpression", "NewExpression")

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        name = _call_name(node)
        if name in ("eval", "Function", "execScript"):
            verb = "new Function" if node.type == "NewExpression" else f"{name}(…)"
            ctx.report(self, node, f"dynamic code execution via {verb}")


class TimerStringArgRule(Rule):
    id = "timer-string-arg"
    severity = "error"
    description = "setTimeout/setInterval with a string argument (implicit eval)"
    node_types = ("CallExpression",)

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        name = _call_name(node)
        if name in ("setTimeout", "setInterval") and node.arguments:
            first = node.arguments[0]
            if _string_value(first) is not None or (
                first.type == "BinaryExpression" and _string_value(first.left) is not None
            ):
                ctx.report(self, node, f"{name} called with a string argument — implicit eval")


class HighEntropyLiteralRule(Rule):
    id = "high-entropy-literal"
    severity = "warning"
    description = "long high-entropy string literal (likely packed payload)"
    node_types = ("Literal", "TemplateLiteral")

    MIN_LENGTH = 40
    MIN_ENTROPY = 4.2

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        value = _string_value(node)
        if value is None or len(value) < self.MIN_LENGTH:
            return
        entropy = shannon_entropy(value)
        if entropy >= self.MIN_ENTROPY:
            ctx.report(
                self,
                node,
                f"string literal of {len(value)} chars with entropy {entropy:.2f} bits/char",
            )


class EscapedStringSoupRule(Rule):
    id = "escaped-string-soup"
    severity = "warning"
    description = "string literal written almost entirely in hex/unicode escapes"
    node_types = ("Literal",)

    MIN_ESCAPES = 6
    MIN_FRACTION = 0.4

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        raw = getattr(node, "raw", "") or ""
        if not isinstance(getattr(node, "value", None), str) or len(raw) < 8:
            return
        escapes = raw.count("\\x") + raw.count("\\u")
        if escapes < self.MIN_ESCAPES:
            return
        # \xNN is 4 chars, \uNNNN is 6 — approximate with the short form.
        if escapes * 4 / len(raw) >= self.MIN_FRACTION:
            ctx.report(self, node, f"{escapes} hex/unicode escapes hide this literal's content")


class SuspiciousGlobalBracketRule(Rule):
    id = "suspicious-global-bracket"
    severity = "warning"
    description = "bracket-style property access on a global object"
    node_types = ("MemberExpression",)

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        if not node.computed or node.object.type != "Identifier":
            return
        if node.object.name not in ("window", "document", "globalThis", "self", "top"):
            return
        prop = node.property
        if prop.type == "Literal" and isinstance(prop.value, (int, float)) and not isinstance(prop.value, bool):
            return  # numeric indexing is not an API lookup
        if prop.type == "Literal" and isinstance(prop.value, str):
            detail = f'{node.object.name}["{prop.value}"] hides a direct property access'
        else:
            detail = f"{node.object.name}[…] with a computed key resolves APIs dynamically"
        ctx.report(self, node, detail)


class DocumentWriteRule(Rule):
    id = "document-write"
    severity = "warning"
    description = "document.write injects markup at parse time"
    node_types = ("CallExpression",)

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        if _call_name(node) in ("document.write", "document.writeln"):
            ctx.report(self, node, "document.write/writeln call")


# --------------------------------------------------------------- dataflow rules


class UseBeforeDefRule(Rule):
    id = "use-before-def"
    severity = "warning"
    description = "variable read before any value is assigned"
    node_types = ()

    def finish(self, ctx: RuleContext) -> None:
        for events in ctx.defuse.events_by_binding.values():
            binding = events[0].binding
            if binding.kind not in ("var", "let", "const"):
                continue
            if events[0].kind == "use" and any(e.kind == "def" for e in events):
                ctx.report(
                    self,
                    events[0].node,
                    f"{binding.name!r} is read before it is ever assigned",
                )


class WriteOnlyVariableRule(Rule):
    id = "write-only-variable"
    severity = "info"
    description = "variable assigned but never read"
    node_types = ()

    def finish(self, ctx: RuleContext) -> None:
        for events in ctx.defuse.events_by_binding.values():
            binding = events[0].binding
            if binding.kind not in ("var", "let", "const"):
                continue
            defs = [e for e in events if e.kind == "def"]
            if len(defs) == len(events):  # written, never read
                ctx.report(
                    self,
                    defs[0].node,
                    f"{binding.name!r} is assigned {len(defs)} time(s) but never read",
                )


class UnreachableCodeRule(Rule):
    """Statements control flow can never reach.

    The node hook catches code after a terminator inside any statement
    list (works inside function bodies too); the finish pass additionally
    checks CFG reachability from the program entry for flows the simple
    scan cannot see.
    """

    id = "unreachable-code"
    severity = "info"
    description = "statement is unreachable"
    node_types = ("Program", "BlockStatement", "SwitchCase")

    _TERMINATORS = frozenset(
        {"ReturnStatement", "ThrowStatement", "BreakStatement", "ContinueStatement"}
    )

    def _state(self, ctx: RuleContext) -> set[int]:
        state = ctx.state.setdefault(self.id, set())
        return state  # ids of statements already reported

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        body = node.consequent if node.type == "SwitchCase" else node.body
        reported = self._state(ctx)
        terminated = False
        for stmt in body:
            if terminated:
                if id(stmt) not in reported and stmt.type != "FunctionDeclaration":
                    reported.add(id(stmt))
                    ctx.report(self, stmt, f"unreachable {stmt.type} after a terminating statement")
                break  # one finding per list is enough
            if stmt.type in self._TERMINATORS:
                terminated = True

    def finish(self, ctx: RuleContext) -> None:
        cfg = ctx.cfg
        if cfg.entry is None:
            return
        import networkx as nx

        reachable = {cfg.entry} | set(nx.descendants(cfg.graph, cfg.entry))
        component = nx.node_connected_component(cfg.graph.to_undirected(as_view=True), cfg.entry)
        reported = self._state(ctx)
        for key in component - reachable:
            stmt = cfg.node_of[key]
            if id(stmt) in reported or stmt.type == "FunctionDeclaration":
                continue
            reported.add(id(stmt))
            ctx.report(self, stmt, f"unreachable {stmt.type} (no CFG path from entry)")


# ---------------------------------------------------------------- hygiene rules


class WithStatementRule(Rule):
    id = "with-statement"
    severity = "warning"
    description = "with statement defeats lexical scoping"
    node_types = ("WithStatement",)

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        ctx.report(self, node, "with statement makes every name lookup dynamic")


class DeepNestingRule(Rule):
    id = "deep-nesting"
    severity = "info"
    description = "deeply chained ternary or comma expression"
    node_types = ("ConditionalExpression", "SequenceExpression")

    MAX_TERNARY_CHAIN = 3
    MAX_SEQUENCE = 5

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        if node.type == "SequenceExpression":
            if len(node.expressions) >= self.MAX_SEQUENCE:
                ctx.report(self, node, f"comma chain of {len(node.expressions)} expressions")
            return
        parent = ctx.parent(node)
        if parent is not None and parent.type == "ConditionalExpression":
            return  # only report at the head of a chain
        depth, cursor = 1, node
        while True:
            branches = [cursor.consequent, cursor.alternate]
            nested = next((b for b in branches if b.type == "ConditionalExpression"), None)
            if nested is None:
                break
            depth += 1
            cursor = nested
        if depth >= self.MAX_TERNARY_CHAIN:
            ctx.report(self, node, f"ternary chain {depth} levels deep")


class DebuggerStatementRule(Rule):
    id = "debugger-statement"
    severity = "info"
    description = "debugger statement left in code"
    node_types = ("DebuggerStatement",)

    def visit(self, node: ast.Node, ctx: RuleContext) -> None:
        ctx.report(self, node, "debugger statement (often anti-analysis bait)")


# --------------------------------------------------------------------- catalog


def default_rules() -> list[Rule]:
    """Fresh instances of the full built-in catalog: the syntactic rules
    plus the interprocedural taint-flow rules (including the engine-backed
    ``decode-chain``)."""
    from .flows import flow_rules  # local import: flows.py imports this module

    return [
        DynamicEvalRule(),
        TimerStringArgRule(),
        HighEntropyLiteralRule(),
        EscapedStringSoupRule(),
        SuspiciousGlobalBracketRule(),
        DocumentWriteRule(),
        UseBeforeDefRule(),
        WriteOnlyVariableRule(),
        UnreachableCodeRule(),
        WithStatementRule(),
        DeepNestingRule(),
        DebuggerStatementRule(),
        *flow_rules(),
    ]
