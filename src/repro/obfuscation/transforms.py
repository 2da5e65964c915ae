"""Shared AST-transformation toolkit used by all four obfuscators.

Every obfuscator in this package follows the same discipline as the real
tools: parse → transform the AST in place → regenerate source.  The helpers
here cover the recurring needs — safe variable renaming via scope analysis,
fresh-name generation, string-literal collection/replacement, and statement
-list surgery.
"""

from __future__ import annotations

import numpy as np

from repro.jsparser import ast_nodes as ast
from repro.jsparser import analyze_scopes
from repro.jsparser.visitor import walk, walk_with_parent

#: Names that must never be produced by a renamer (reserved words + common
#: host globals whose capture would change behavior).
_FORBIDDEN_NAMES = frozenset(
    {
        "eval",
        "window",
        "document",
        "navigator",
        "location",
        "console",
        "Math",
        "JSON",
        "String",
        "Number",
        "Array",
        "Object",
        "Date",
        "RegExp",
        "Function",
        "parseInt",
        "parseFloat",
        "unescape",
        "escape",
        "setTimeout",
        "setInterval",
        "arguments",
        "undefined",
        "NaN",
        "Infinity",
    }
)


class NameGenerator:
    """Produces fresh identifier names in a configurable style."""

    def __init__(self, style: str = "hex", rng: np.random.Generator | None = None, prefix: str = "_0x"):
        if style not in ("hex", "gibberish", "short"):
            raise ValueError("style must be 'hex', 'gibberish', or 'short'")
        self.style = style
        self.rng = rng if rng is not None else np.random.default_rng()
        self.prefix = prefix
        self._used: set[str] = set(_FORBIDDEN_NAMES)
        self._counter = 0

    def reserve(self, names) -> None:
        """Mark names as taken so fresh names never collide with them."""
        self._used.update(names)

    def fresh(self) -> str:
        while True:
            name = self._candidate()
            if name not in self._used:
                self._used.add(name)
                return name

    def _candidate(self) -> str:
        if self.style == "hex":
            return f"{self.prefix}{self.rng.integers(0, 16**6):06x}"
        if self.style == "gibberish":
            alphabet = "OIl0o1"
            length = int(self.rng.integers(6, 12))
            body = "".join(self.rng.choice(list(alphabet)) for _ in range(length))
            return "_" + body
        self._counter += 1
        return f"v{self._counter}"


def rename_variables(program: ast.Program, namer: NameGenerator) -> dict[str, str]:
    """Consistently rename every declared variable/function/parameter.

    Uses scope analysis so that (a) each binding and all its references are
    renamed together, (b) distinct bindings get distinct names, and (c)
    unresolved globals (``document``, library names) are left alone.

    Returns the old→new mapping (per binding; shadowed names may map the
    same source name to several new names — the mapping records the last).
    """
    analyzer = analyze_scopes(program)
    namer.reserve(identifier.name for identifier in _all_identifiers(program))
    mapping: dict[str, str] = {}

    for scope in analyzer.global_scope.iter_scopes():
        for name, binding in scope.bindings.items():
            new_name = namer.fresh()
            mapping[name] = new_name
            # Rename every declaration site (repeated `var x` merges into
            # one binding with several sites).
            for declaration in binding.declarations:
                _rename_declaration(declaration, name, new_name)
            for reference in binding.references:
                reference.name = new_name
    return mapping


def _all_identifiers(program: ast.Program):
    for node in walk(program):
        if node.type == "Identifier":
            yield node


def _rename_declaration(declaration: ast.Node, old: str, new: str) -> None:
    """Rename the name-slot identifier of a declaration node."""
    if declaration.type == "VariableDeclarator" and declaration.id.name == old:
        declaration.id.name = new
        return
    if declaration.type in ("FunctionDeclaration", "FunctionExpression"):
        if getattr(declaration, "id", None) is not None and declaration.id.name == old:
            declaration.id.name = new
        for param in declaration.params:
            target = param.argument if param.type == "SpreadElement" else param
            if target.name == old:
                target.name = new
        return
    if declaration.type == "ArrowFunctionExpression":
        for param in declaration.params:
            target = param.argument if param.type == "SpreadElement" else param
            if target.name == old:
                target.name = new
        return
    if declaration.type == "CatchClause" and declaration.param is not None and declaration.param.name == old:
        declaration.param.name = new


def collect_string_literals(program: ast.Program, min_length: int = 1) -> list[tuple[ast.Literal, ast.Node]]:
    """All string literals (with parents) eligible for extraction.

    Property keys and accessor names are excluded — rewriting those to
    computed lookups is what the real tools' "property encryption" option
    does, which we keep out of the base string transform.
    """
    out: list[tuple[ast.Literal, ast.Node]] = []
    for node, parent in walk_with_parent(program):
        if node.type != "Literal" or not isinstance(getattr(node, "value", None), str):
            continue
        if getattr(node, "regex", None) is not None:
            continue
        if parent is not None and parent.type == "Property" and parent.key is node:
            continue
        if len(node.value) < min_length:
            continue
        out.append((node, parent))
    return out


def encrypt_properties(program: ast.Program, rng: np.random.Generator, probability: float = 0.8) -> int:
    """Property encryption (Sec. II-B): ``o.prop`` → ``o["prop"]``.

    Rewriting dotted member access to computed access moves the property
    name into a string literal, where the string transforms (string array,
    fromCharCode, …) of the calling obfuscator then hide it.  ``this``
    binding of method calls is unaffected (``o["m"](x)`` binds like
    ``o.m(x)``).  Returns the number of rewritten sites.
    """
    count = 0
    for node in walk(program):
        if node.type != "MemberExpression" or node.computed:
            continue
        if node.property.type != "Identifier":
            continue
        if rng.random() > probability:
            continue
        name = node.property.name
        node.property = ast.Literal(name, repr(name))
        node.computed = True
        count += 1
    return count
