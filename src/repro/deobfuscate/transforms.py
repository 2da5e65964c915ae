"""The composable AST→AST transforms behind the deobfuscation pre-pass.

Each transform is one :class:`Transform` subclass with a stable ``name``
(the per-stage rewrite counter label) and an ``apply`` that mutates the
program in place, returning how many rewrites it made.  The engine runs
the stage list to fixpoint; every transform must therefore be
*monotone* — a rewrite must never reintroduce a shape an earlier stage
would rewrite back — or the pass budget is the only thing stopping an
infinite ping-pong.

All transforms are semantics-preserving on the shapes they match and
refuse anything they cannot prove out; the worst case is always "no
rewrite", never "wrong rewrite".
"""

from __future__ import annotations

import base64
import binascii
import time

from repro.jsparser import JSSyntaxError, ast_nodes as ast, parse

from .astutil import (
    is_identifier_name,
    is_literal,
    is_number,
    js_number_to_string,
    js_parse_int,
    js_unescape,
    literal,
    postorder,
    to_int32,
    to_uint32,
    truthy,
)
from .report import NormalizationReport


class NormalizeContext:
    """Per-``normalize()`` state shared by the stages: the report being
    built, the wall-clock deadline, and the forced-execution budgets."""

    def __init__(
        self,
        report: NormalizationReport,
        deadline: float | None = None,
        interp_max_steps: int = 200_000,
        max_forced_calls: int = 32,
        max_decoded_len: int = 1_000_000,
    ):
        self.report = report
        self.deadline = deadline  # absolute time.monotonic() cutoff
        self.interp_max_steps = interp_max_steps
        self.max_forced_calls = max_forced_calls
        self.max_decoded_len = max_decoded_len
        self.forced_calls = 0

    @property
    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline


class Transform:
    """One named rewrite stage; subclasses override :meth:`apply`."""

    name = "transform"

    def apply(self, program: ast.Program, ctx: NormalizeContext) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


# ------------------------------------------------------------------ stage 1


class ConstantFold(Transform):
    """Fold literal-only expressions: arithmetic, comparisons, bitwise
    ops, string concatenation, and unary ``-``/``+``/``!``/``~``.

    Bottom-up, so a whole ``"a" + "b" + "c"`` chain (or an opaque
    predicate like ``15 === 39``) collapses in a single pass.
    """

    name = "fold"

    def apply(self, program: ast.Program, ctx: NormalizeContext) -> int:
        count = 0
        for node, parent in postorder(program):
            if parent is None:
                continue
            folded = self._fold(node)
            if folded is not None and parent.replace_child(node, folded):
                count += 1
        ctx.report.count(self.name, count)
        return count

    def _fold(self, node: ast.Node) -> ast.Node | None:
        type_ = node.type
        if type_ == "BinaryExpression" and is_literal(node.left) and is_literal(node.right):
            return self._fold_binary(node.operator, node.left.value, node.right.value)
        if type_ == "UnaryExpression" and is_literal(node.argument):
            return self._fold_unary(node.operator, node.argument.value)
        if type_ == "LogicalExpression" and is_literal(node.left):
            if node.operator == "&&":
                return node.right if truthy(node.left.value) else node.left
            if node.operator == "||":
                return node.left if truthy(node.left.value) else node.right
        return None

    def _fold_binary(self, op: str, left: object, right: object) -> ast.Node | None:
        if op == "+":
            if isinstance(left, str) or isinstance(right, str):
                lhs = left if isinstance(left, str) else self._stringify(left)
                rhs = right if isinstance(right, str) else self._stringify(right)
                if lhs is None or rhs is None:
                    return None
                return literal(lhs + rhs)
            if is_number(left) and is_number(right):
                return self._number(left + right)
            return None
        if is_number(left) and is_number(right):
            if op == "-":
                return self._number(left - right)
            if op == "*":
                return self._number(left * right)
            if op == "/" and right != 0:
                return self._number(left / right)
            if op == "%" and right != 0:
                # JS % truncates toward zero; Python floors.
                import math

                return self._number(math.fmod(left, right))
            if op in ("&", "|", "^", "<<", ">>"):
                a, b = to_int32(left), to_int32(right)
                if op == "&":
                    return literal(to_int32(float(a & b)))
                if op == "|":
                    return literal(to_int32(float(a | b)))
                if op == "^":
                    return literal(to_int32(float(a ^ b)))
                shift = to_uint32(right) & 31
                if op == "<<":
                    return literal(to_int32(float((a << shift) & 0xFFFFFFFF)))
                return literal(a >> shift)
            if op == ">>>":
                return literal(to_uint32(left) >> (to_uint32(right) & 31))
        comparable = (
            (isinstance(left, str) and isinstance(right, str))
            or (is_number(left) and is_number(right))
        )
        if comparable:
            if op in ("==", "==="):
                return literal(left == right)
            if op in ("!=", "!=="):
                return literal(left != right)
            if op == "<":
                return literal(left < right)
            if op == ">":
                return literal(left > right)
            if op == "<=":
                return literal(left <= right)
            if op == ">=":
                return literal(left >= right)
        elif op in ("===", "!==") and type(left) is not type(right):
            return literal(op == "!==")
        return None

    def _fold_unary(self, op: str, value: object) -> ast.Node | None:
        if op == "!":
            return literal(not truthy(value))
        if op == "-" and is_number(value):
            return self._number(-value)
        if op == "+" and is_number(value):
            return self._number(+value)
        if op == "~" and is_number(value):
            return literal(to_int32(float(~to_int32(value))))
        return None

    @staticmethod
    def _stringify(value: object) -> str | None:
        if isinstance(value, bool):
            return "true" if value else "false"
        if value is None:
            return "null"
        if is_number(value):
            return js_number_to_string(value)
        return None

    @staticmethod
    def _number(value: int | float) -> ast.Node | None:
        import math

        if isinstance(value, float):
            if math.isnan(value) or math.isinf(value):
                return None
            if value.is_integer() and abs(value) < 2**53:
                value = int(value)
        return literal(value)


# ------------------------------------------------------------------ members


class SimplifyMembers(Transform):
    """``obj["name"]`` → ``obj.name`` for identifier-shaped string keys.

    Obfuscators (and our string-array inliner one stage later) leave
    property accesses as computed string lookups; restoring dotted form
    restores the Identifier leaves path extraction learned from.
    """

    name = "member"

    def apply(self, program: ast.Program, ctx: NormalizeContext) -> int:
        count = 0
        for node, _parent in postorder(program):
            if (
                node.type == "MemberExpression"
                and node.computed
                and is_literal(node.property)
                and isinstance(node.property.value, str)
                and is_identifier_name(node.property.value)
            ):
                node.property = ast.Identifier(node.property.value)
                node.computed = False
                count += 1
        ctx.report.count(self.name, count)
        return count


# ------------------------------------------------------------------ stage 2


class DecodeStrings(Transform):
    """Decode string-encoding tricks down to plain literals.

    Handles ``\\xNN``/``\\uNNNN`` escape soup (the lexer already decoded
    the value; the rewrite re-emits it minimally), all-literal
    ``String.fromCharCode(…)``, ``parseInt(str[, radix])``,
    ``atob("base64")``, and ``unescape("%68%69")``.
    """

    name = "decode"

    def apply(self, program: ast.Program, ctx: NormalizeContext) -> int:
        count = 0
        for node, parent in postorder(program):
            if node.type == "Literal":
                if (
                    isinstance(node.value, str)
                    and node.raw
                    and ("\\x" in node.raw or "\\u" in node.raw)
                ):
                    node.raw = ""
                    ctx.report.decoded_bytes += len(node.value)
                    count += 1
                continue
            if node.type != "CallExpression" or parent is None:
                continue
            decoded = self._decode_call(node, ctx)
            if decoded is not None and parent.replace_child(node, decoded):
                count += 1
        ctx.report.count(self.name, count)
        return count

    def _decode_call(self, node: ast.Node, ctx: NormalizeContext) -> ast.Node | None:
        callee = node.callee
        args = node.arguments
        if (
            callee.type == "MemberExpression"
            and not callee.computed
            and callee.object.type == "Identifier"
            and callee.object.name == "String"
            and callee.property.type == "Identifier"
            and callee.property.name == "fromCharCode"
        ):
            if not args or not all(
                is_literal(a) and is_number(a.value) for a in args
            ):
                return None
            if len(args) > ctx.max_decoded_len:
                return None
            text = "".join(chr(int(a.value) & 0xFFFF) for a in args)
            ctx.report.decoded_bytes += len(text)
            return literal(text)
        if callee.type != "Identifier":
            return None
        if callee.name == "parseInt":
            if not args or not is_literal(args[0]) or not isinstance(args[0].value, str):
                return None
            radix: int | None = None
            if len(args) >= 2:
                if not is_literal(args[1]) or not is_number(args[1].value):
                    return None
                radix = int(args[1].value)
            if len(args) > 2:
                return None
            value = js_parse_int(args[0].value, radix)
            return literal(value) if value is not None else None
        if len(args) != 1 or not is_literal(args[0]) or not isinstance(args[0].value, str):
            return None
        text = args[0].value
        if callee.name == "atob":
            if len(text) > ctx.max_decoded_len:
                return None
            try:
                decoded = base64.b64decode(text, validate=True).decode("latin-1")
            except (binascii.Error, ValueError):
                return None
            ctx.report.decoded_bytes += len(decoded)
            return literal(decoded)
        if callee.name == "unescape":
            if "%" not in text:
                return None
            decoded = js_unescape(text)
            ctx.report.decoded_bytes += len(decoded)
            return literal(decoded)
        return None


class EvalUnwrap(Transform):
    """Splice ``eval("<code>")`` statements into their enclosing body.

    Only statement-position calls with a fully literal argument unwrap
    (the packer shape); an argument that does not parse stays put.  Runs
    after fold/decode, so ``eval("a" + "b")`` and charcode-packed
    payloads become literal by the time this stage sees them — and the
    spliced statements are themselves normalized on the next pass.
    """

    name = "eval_unwrap"

    def apply(self, program: ast.Program, ctx: NormalizeContext) -> int:
        count = 0
        stack: list[ast.Node] = [program]
        while stack:
            node = stack.pop()
            body = getattr(node, "body", None)
            if node.type in ("Program", "BlockStatement") and isinstance(body, list):
                count += self._unwrap_body(body, ctx)
            stack.extend(node.children())
        ctx.report.count(self.name, count)
        return count

    def _unwrap_body(self, body: list[ast.Node], ctx: NormalizeContext) -> int:
        count = 0
        index = 0
        while index < len(body):
            stmt = body[index]
            payload = self._eval_payload(stmt)
            if payload is None:
                index += 1
                continue
            try:
                unpacked = parse(payload)
            except (JSSyntaxError, RecursionError):
                index += 1
                continue
            body[index : index + 1] = unpacked.body
            ctx.report.decoded_bytes += len(payload)
            count += 1
            # Do not re-scan the spliced statements this pass: nested
            # eval-in-eval unwraps on the next fixpoint iteration.
            index += max(len(unpacked.body), 1)
        return count

    @staticmethod
    def _eval_payload(stmt: ast.Node) -> str | None:
        if stmt.type != "ExpressionStatement":
            return None
        expr = stmt.expression
        if (
            expr.type == "CallExpression"
            and expr.callee.type == "Identifier"
            and expr.callee.name == "eval"
            and len(expr.arguments) == 1
            and is_literal(expr.arguments[0])
            and isinstance(expr.arguments[0].value, str)
        ):
            return expr.arguments[0].value
        return None


# ------------------------------------------------------------------ stage 4


class DeadBranches(Transform):
    """Eliminate branches whose condition is a literal constant.

    ``if (15 === 39) {…}`` junk (after ConstantFold turns the predicate
    into a literal) disappears; ``while (false)`` loops and constant
    conditional expressions collapse to the live side.
    """

    name = "dead_branch"

    def apply(self, program: ast.Program, ctx: NormalizeContext) -> int:
        count = 0
        for node, parent in postorder(program):
            if parent is None:
                continue
            replacement = self._resolve(node)
            if replacement is None:
                continue
            if replacement is _DROP:
                if self._drop_statement(node, parent):
                    count += 1
                elif parent.replace_child(node, ast.EmptyStatement()):
                    count += 1
            elif parent.replace_child(node, replacement):
                count += 1
        ctx.report.count(self.name, count)
        return count

    def _resolve(self, node: ast.Node) -> ast.Node | None:
        type_ = node.type
        if type_ == "IfStatement" and is_literal(node.test):
            taken = node.consequent if truthy(node.test.value) else node.alternate
            return taken if taken is not None else _DROP
        if type_ == "ConditionalExpression" and is_literal(node.test):
            return node.consequent if truthy(node.test.value) else node.alternate
        if type_ == "WhileStatement" and is_literal(node.test) and not truthy(node.test.value):
            return _DROP
        return None

    @staticmethod
    def _drop_statement(node: ast.Node, parent: ast.Node) -> bool:
        body = getattr(parent, "body", None)
        if parent.type in ("Program", "BlockStatement") and isinstance(body, list):
            try:
                body.remove(node)
                return True
            except ValueError:  # pragma: no cover - replace_child fallback
                return False
        return False


#: Sentinel: "remove this statement outright" (vs replace with a node).
_DROP = ast.EmptyStatement()
