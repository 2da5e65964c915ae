"""The interprocedural taint engine: a monotone framework with summaries.

Two nested worklists:

* the **outer** worklist holds functions (the top-level program is a
  pseudo-function).  A function is (re)analyzed when an environment fact
  it reads changes, at most ``1 + context_depth`` times — the bounded
  context depth;
* the **inner** worklist is a flow-sensitive forward fixpoint over the
  function's own statement CFG (:func:`repro.dataflow.build_function_cfg`),
  with IN states joined from predecessor OUT states.

Facts cross function boundaries through a shared flow-insensitive
environment keyed by ``("b", id(binding))`` for declared names,
``("ret", id(fn))`` for return summaries, and ``("g", name)`` for
implicit globals — this is how args→params, return→call-site, and
outer-scope writes propagate.

Termination: the lattice caps (witness length, taints per label) bound
every fact, the context depth bounds outer re-analysis, and an explicit
transfer budget backstops the pruned join's loss of strict monotonicity
(DESIGN.md §13).  :func:`run_taint` additionally catches everything and
degrades to a partial result — the engine **never raises**.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dataflow import build_function_cfg
from repro.jsparser import ast_nodes as ast
from repro.jsparser.scope import Binding, ScopeAnalyzer, analyze_scopes
from repro.jsparser.visitor import walk

from ..catalog import _GLOBAL_ALIASES, callee_name
from .callgraph import CallGraph, build_call_graph
from .catalog import SinkSpec, TaintCatalog, default_catalog, is_string_array, literal_source
from .lattice import EMPTY, Taint, TaintSet, extend, fresh, join
from .witness import MAX_WITNESS_HOPS, Hop

#: Environment/state key: ("b", id(binding)) | ("ret", id(fn)) | ("g", name).
FactKey = tuple[str, object]

State = dict[FactKey, TaintSet]

#: Objects whose computed-member reads/writes count as dynamic dispatch.
_DISPATCH_ROOTS = frozenset(_GLOBAL_ALIASES) | {"document"}


@dataclass(frozen=True)
class Flow:
    """One tainted source→sink reach, with its full witness."""

    kind: str  # sink kind from the catalog ("eval", "timer", …)
    sink_name: str
    line: int
    col: int
    taint: Taint  # hops end with the terminal sink hop

    @property
    def label(self) -> str:
        return self.taint.label

    @property
    def hops(self) -> tuple[Hop, ...]:
        return self.taint.hops


@dataclass
class TaintResult:
    """What one engine run produced (possibly degraded but never raised)."""

    flows: list[Flow] = field(default_factory=list)
    transfers: int = 0
    n_functions: int = 0
    n_call_edges: int = 0
    budget_exhausted: bool = False
    degraded: bool = False
    error: str = ""


class TaintEngine:
    def __init__(
        self,
        program: ast.Program,
        catalog: TaintCatalog | None = None,
        context_depth: int = 4,
        max_transfers: int = 20_000,
    ) -> None:
        self.program = program
        self.catalog = catalog if catalog is not None else default_catalog()
        self.context_depth = context_depth
        self.max_transfers = max_transfers

        self.scopes: ScopeAnalyzer = analyze_scopes(program)
        self.callgraph: CallGraph = build_call_graph(program, self.scopes)

        # Catalog lookups, precomputed once.
        self._source_calls = self.catalog.source_calls()
        self._source_members = self.catalog.source_members()
        self._call_sinks = self.catalog.call_sinks()
        self._assign_sinks = self.catalog.assign_sinks()
        self._dispatch_sink = self.catalog.dispatch_sink()
        self._sanitizer_calls = self.catalog.sanitizer_calls()
        self._sanitizer_members = self.catalog.sanitizer_members()
        self._propagator_methods = self.catalog.propagator_methods()
        self._string_array_spec = self.catalog.string_array_source()

        self.env: dict[FactKey, TaintSet] = {}
        self.flows: dict[tuple[int, str, str], Flow] = {}
        self.transfers = 0
        self.budget_exhausted = False

        #: Insertion-ordered throughout, so which reader is re-queued first,
        #: and therefore which witness a flow keeps, never depends on the
        #: string hash seed or on object addresses.
        self._readers: dict[FactKey, dict[int, None]] = {}
        self._fn_by_id: dict[int, ast.Node] = {id(program): program}
        for fn in self.callgraph.functions:
            self._fn_by_id[id(fn)] = fn
        self._changed_keys: dict[FactKey, None] = {}
        self._current_fn: ast.Node = program

    # ------------------------------------------------------------------ run

    def run(self) -> TaintResult:
        self._seed_string_arrays()
        units: list[ast.Node] = [self.program, *self.callgraph.functions]
        visits: dict[int, int] = {}
        queue: deque[ast.Node] = deque(units)
        queued: set[int] = {id(u) for u in units}
        bound = 1 + max(0, self.context_depth)

        while queue:
            fn = queue.popleft()
            queued.discard(id(fn))
            if visits.get(id(fn), 0) >= bound:
                continue  # bounded context depth
            visits[id(fn)] = visits.get(id(fn), 0) + 1
            self._changed_keys = {}
            self._analyze_unit(fn)
            if self.budget_exhausted:
                break
            for key in self._changed_keys:
                for reader_id in self._readers.get(key, ()):
                    reader = self._fn_by_id.get(reader_id)
                    if reader is None or id(reader) in queued:
                        continue
                    if visits.get(id(reader), 0) >= bound:
                        continue
                    queue.append(reader)
                    queued.add(id(reader))

        result = TaintResult(
            flows=sorted(
                self.flows.values(), key=lambda f: (f.line, f.col, f.kind, f.label, f.hops)
            ),
            transfers=self.transfers,
            n_functions=len(self.callgraph.functions),
            n_call_edges=self.callgraph.n_edges,
            budget_exhausted=self.budget_exhausted,
        )
        return result

    # ----------------------------------------------------------- seeding

    def _seed_string_arrays(self) -> None:
        spec = self.catalog.string_array_source()
        if spec is None:
            return
        for node in walk(self.program):
            if node.type != "VariableDeclarator" or node.init is None:
                continue
            if node.id.type != "Identifier" or not is_string_array(node.init):
                continue
            binding = self.scopes.declared_binding(node, node.id.name)
            if binding is None:
                continue
            line, col = node.loc
            self._env_join(("b", id(binding)), frozenset({fresh(spec.label, line, col)}))

    # ------------------------------------------------------ per-function

    def _analyze_unit(self, fn: ast.Node) -> None:
        self._current_fn = fn
        if fn.type == "Program":
            body = fn.body
        else:
            fn_body = fn.body
            if fn_body.type != "BlockStatement":  # arrow expression body
                taints = self._eval(fn_body, {})
                if taints:
                    line, col = fn_body.loc
                    self._env_join(
                        ("ret", id(fn)), extend(taints, Hop(line, col, "return"))
                    )
                return
            body = fn_body.body

        cfg = build_function_cfg(body)
        out_states: dict[int, State] = {}
        work: deque[int] = deque(cfg.node_of.keys())
        in_work: set[int] = set(work)

        while work:
            if self.transfers >= self.max_transfers:
                self.budget_exhausted = True
                return
            key = work.popleft()
            in_work.discard(key)
            stmt = cfg.node_of[key]
            in_state: State = {}
            for pred in cfg.graph.predecessors(key):
                pred_out = out_states.get(pred)
                if not pred_out:
                    continue
                for fact, taints in pred_out.items():
                    in_state[fact] = join(in_state.get(fact, EMPTY), taints)
            out_state = self._transfer(stmt, in_state)
            self.transfers += 1
            if out_states.get(key) != out_state:
                out_states[key] = out_state
                for successor in cfg.graph.successors(key):
                    if successor not in in_work:
                        work.append(successor)
                        in_work.add(successor)

    # ---------------------------------------------------------- transfer

    def _transfer(self, stmt: ast.Node, state: State) -> State:
        type_ = stmt.type
        if type_ == "ExpressionStatement":
            self._eval(stmt.expression, state)
        elif type_ == "VariableDeclaration":
            for declarator in stmt.declarations:
                if declarator.init is None:
                    continue
                taints = self._eval(declarator.init, state)
                if declarator.id.type == "Identifier":
                    binding = self.scopes.declared_binding(declarator, declarator.id.name)
                    line, col = declarator.loc
                    self._write_binding(
                        binding,
                        declarator.id.name,
                        extend(taints, Hop(line, col, f"assign:{declarator.id.name}")),
                        state,
                    )
        elif type_ == "ReturnStatement":
            if stmt.argument is not None and self._current_fn.type != "Program":
                taints = self._eval(stmt.argument, state)
                if taints:
                    line, col = stmt.loc
                    self._env_join(
                        ("ret", id(self._current_fn)),
                        extend(taints, Hop(line, col, "return")),
                    )
        elif type_ in ("IfStatement", "WhileStatement", "DoWhileStatement"):
            self._eval(stmt.test, state)
        elif type_ == "SwitchStatement":
            self._eval(stmt.discriminant, state)
        elif type_ == "WithStatement":
            self._eval(stmt.object, state)
        elif type_ == "ForStatement":
            if stmt.init is not None:
                if stmt.init.type == "VariableDeclaration":
                    self._transfer(stmt.init, state)
                else:
                    self._eval(stmt.init, state)
            if stmt.test is not None:
                self._eval(stmt.test, state)
            if stmt.update is not None:
                self._eval(stmt.update, state)
        elif type_ in ("ForInStatement", "ForOfStatement"):
            taints = self._eval(stmt.right, state)
            line, col = stmt.loc
            element = extend(taints, Hop(line, col, "element"))
            target = stmt.left
            if target.type == "VariableDeclaration" and target.declarations:
                declarator = target.declarations[0]
                if declarator.id.type == "Identifier":
                    binding = self.scopes.declared_binding(declarator, declarator.id.name)
                    self._write_binding(binding, declarator.id.name, element, state)
            elif target.type == "Identifier":
                self._write_binding(
                    self.scopes.binding_of_ref.get(id(target)), target.name, element, state
                )
        elif type_ == "ThrowStatement":
            if stmt.argument is not None:
                self._eval(stmt.argument, state)
        return state

    # -------------------------------------------------------- environment

    def _env_join(self, key: FactKey, taints: TaintSet) -> None:
        if not taints:
            return
        old = self.env.get(key, EMPTY)
        new = join(old, taints)
        if new != old:
            self.env[key] = new
            self._changed_keys[key] = None

    def _note_read(self, key: FactKey) -> None:
        self._readers.setdefault(key, {})[id(self._current_fn)] = None

    def _binding_owner(self, binding: Binding) -> ast.Node:
        return binding.scope.hoist_target().node

    def _write_binding(
        self, binding: Binding | None, name: str, taints: TaintSet, state: State
    ) -> None:
        """Strong update in the local state for names this function owns;
        every write also weakly joins the environment so other functions
        observe outer-scope/global mutation."""
        if binding is None:
            self._env_join(("g", name), taints)
            return
        key: FactKey = ("b", id(binding))
        if self._binding_owner(binding) is self._current_fn:
            state[key] = taints
        self._env_join(key, taints)

    def _read_name(self, node: ast.Node, state: State) -> TaintSet:
        binding = self.scopes.binding_of_ref.get(id(node))
        if binding is not None:
            key: FactKey = ("b", id(binding))
            if key in state:
                return state[key]
            self._note_read(key)
            return self.env.get(key, EMPTY)
        key = ("g", node.name)
        self._note_read(key)
        return self.env.get(key, EMPTY)

    # --------------------------------------------------------------- sinks

    def _record_flow(self, spec: SinkSpec, node: ast.Node, sink_name: str, taints: TaintSet) -> None:
        line, col = node.loc
        sink_hop = Hop(line, col, f"sink:{spec.kind}")
        for taint in taints:
            hops = taint.hops
            if len(hops) >= MAX_WITNESS_HOPS:  # always keep room for the sink hop
                hops = hops[: MAX_WITNESS_HOPS - 1]
            witness = Taint(taint.label, hops + (sink_hop,))
            flow_key = (id(node), spec.kind, taint.label)
            existing = self.flows.get(flow_key)
            # The join's preference (shortest, then lexically smallest), so
            # a tie does not go to whichever taint the set yields first.
            if existing is None or (len(witness.hops), witness) < (
                len(existing.taint.hops), existing.taint
            ):
                self.flows[flow_key] = Flow(spec.kind, sink_name, line, col, witness)

    def _dispatch_root(self, node: ast.Node) -> str | None:
        """The global-alias identifier a member chain bottoms out at, if
        it is an actual global (unresolved or the well-known aliases)."""
        current = node
        while current.type == "MemberExpression":
            current = current.object
        if current.type != "Identifier" or current.name not in _DISPATCH_ROOTS:
            return None
        if self.scopes.binding_of_ref.get(id(current)) is not None:
            return None  # shadowed locally; not the global object
        return str(current.name)

    # ---------------------------------------------------------- expressions

    def _eval(self, node: ast.Node, state: State) -> TaintSet:
        type_ = node.type

        if type_ in ("Literal", "TemplateLiteral"):
            spec = literal_source(self.catalog, node)
            if spec is not None:
                line, col = node.loc
                return frozenset({fresh(spec.label, line, col)})
            return EMPTY
        if type_ == "Identifier":
            return self._read_name(node, state)
        if type_ in ast.FUNCTION_TYPES or type_ == "ThisExpression":
            return EMPTY
        if type_ == "ArrayExpression":
            taints = join(*(self._eval(e, state) for e in node.elements if e is not None))
            # A string-array table is itself a source (the obfuscator.io
            # idiom); without this, the declarator's strong update would
            # mask the env seed inside the declaring function.
            if self._string_array_spec is not None and is_string_array(node):
                line, col = node.loc
                taints = join(taints, frozenset({fresh(self._string_array_spec.label, line, col)}))
            return taints
        if type_ == "ObjectExpression":
            return join(
                *(
                    self._eval(prop.value, state)
                    for prop in node.properties
                    if getattr(prop, "value", None) is not None
                )
            )
        if type_ in ("UnaryExpression", "UpdateExpression"):
            self._eval(node.argument, state)
            return EMPTY  # coercion to number/boolean/type-name sanitizes
        if type_ == "BinaryExpression":
            left = self._eval(node.left, state)
            right = self._eval(node.right, state)
            if node.operator == "+":
                line, col = node.loc
                return extend(join(left, right), Hop(line, col, "concat"))
            return EMPTY  # arithmetic/comparison results are not strings
        if type_ == "LogicalExpression":
            return join(self._eval(node.left, state), self._eval(node.right, state))
        if type_ == "ConditionalExpression":
            self._eval(node.test, state)
            return join(self._eval(node.consequent, state), self._eval(node.alternate, state))
        if type_ == "SequenceExpression":
            result = EMPTY
            for expression in node.expressions:
                result = self._eval(expression, state)
            return result
        if type_ == "AssignmentExpression":
            return self._eval_assignment(node, state)
        if type_ in ("CallExpression", "NewExpression"):
            return self._eval_call(node, state)
        if type_ == "MemberExpression":
            return self._eval_member(node, state)
        if type_ == "SpreadElement":
            return self._eval(node.argument, state)
        # Unknown expression kinds: conservative join over children.
        return join(*(self._eval(child, state) for child in node.children()))

    def _static_prop_name(self, node: ast.Node) -> str | None:
        prop = node.property
        if not node.computed and prop.type == "Identifier":
            return str(prop.name)
        if node.computed and prop.type == "Literal" and isinstance(prop.value, str):
            return str(prop.value)
        return None

    def _eval_member(self, node: ast.Node, state: State) -> TaintSet:
        pname = self._static_prop_name(node)
        line, col = node.loc

        if pname is not None and pname in self._sanitizer_members:
            self._eval(node.object, state)
            return EMPTY

        # Member sources: full dotted name (location.href) or the bare
        # property (responseText on any receiver).
        full_name = callee_name(node)
        source = None
        if full_name is not None and full_name in self._source_members:
            source = self._source_members[full_name]
        elif pname is not None and pname in self._source_members:
            source = self._source_members[pname]
        if source is not None:
            self._eval(node.object, state)
            return frozenset({fresh(source.label, line, col)})

        object_taints = self._eval(node.object, state)
        if node.computed and pname is None:
            key_taints = self._eval(node.property, state)
            if key_taints and self._dispatch_sink is not None:
                root = self._dispatch_root(node.object)
                if root is not None:
                    self._record_flow(
                        self._dispatch_sink, node, f"{root}[…]", key_taints
                    )
            return extend(object_taints, Hop(line, col, "element"))
        return extend(object_taints, Hop(line, col, "member"))

    def _eval_assignment(self, node: ast.Node, state: State) -> TaintSet:
        taints = self._eval(node.right, state)
        line, col = node.loc
        if node.operator != "=":  # compound assignment reads the target too
            taints = extend(join(taints, self._eval(node.left, state)), Hop(line, col, "concat"))

        target = node.left
        if target.type == "Identifier":
            self._write_binding(
                self.scopes.binding_of_ref.get(id(target)),
                target.name,
                extend(taints, Hop(line, col, f"assign:{target.name}")),
                state,
            )
            return taints
        if target.type == "MemberExpression":
            pname = self._static_prop_name(target)
            if taints and pname is not None and pname in self._assign_sinks:
                self._record_flow(self._assign_sinks[pname], node, f".{pname} =", taints)
            if target.computed and pname is None:
                key_taints = self._eval(target.property, state)
                if key_taints and self._dispatch_sink is not None:
                    root = self._dispatch_root(target.object)
                    if root is not None:
                        self._record_flow(self._dispatch_sink, node, f"{root}[…] =", key_taints)
            # Field-insensitive object taint: a tainted write marks the base.
            if taints and target.object.type == "Identifier":
                self._write_binding(
                    self.scopes.binding_of_ref.get(id(target.object)),
                    target.object.name,
                    extend(taints, Hop(line, col, "field")),
                    state,
                )
        return taints

    def _eval_call(self, node: ast.Node, state: State) -> TaintSet:
        line, col = node.loc
        argument_taints = [self._eval(argument, state) for argument in node.arguments]
        callee = node.callee
        name = callee_name(callee)
        pname: str | None = None
        object_taints: TaintSet = EMPTY

        if callee.type == "MemberExpression":
            pname = self._static_prop_name(callee)
            if callee.computed and pname is None:
                # Dynamic dispatch in call position: window[key](…).
                object_taints = self._eval_member(callee, state)
            else:
                object_taints = self._eval(callee.object, state)
        elif callee.type not in ast.FUNCTION_TYPES and callee.type != "Identifier":
            self._eval(callee, state)

        if name is not None and name in self._sanitizer_calls:
            return EMPTY

        result: TaintSet = EMPTY
        if name is not None and name in self._source_calls:
            spec = self._source_calls[name]
            result = join(
                frozenset({fresh(spec.label, line, col)}),
                extend(join(*argument_taints), Hop(line, col, f"call:{name}")),
            )
        if name is not None and name in self._call_sinks:
            sink = self._call_sinks[name]
            considered = argument_taints[:1] if sink.arg_policy == "first" else argument_taints
            joined = join(*considered)
            if joined:
                self._record_flow(sink, node, name, joined)
            return result

        if pname is not None and pname in self._propagator_methods:
            result = join(
                result,
                extend(
                    join(object_taints, *argument_taints),
                    Hop(line, col, f"method:{pname}"),
                ),
            )
            return result

        targets = self.callgraph.targets(node)
        if targets:
            for target in targets:
                self._bind_arguments(target, argument_taints, line, col)
                ret_key: FactKey = ("ret", id(target))
                self._note_read(ret_key)
                result = join(
                    result,
                    extend(
                        self.env.get(ret_key, EMPTY),
                        Hop(line, col, f"call:{name or 'function'}"),
                    ),
                )
            return result
        if name is not None and name in self._source_calls:
            return result
        # Unknown callee: conservatively pass taint through to the result.
        return join(
            result,
            extend(
                join(object_taints, *argument_taints),
                Hop(line, col, f"call:{name or '?'}"),
            ),
        )

    def _bind_arguments(
        self,
        target: ast.Node,
        argument_taints: list[TaintSet],
        line: int,
        col: int,
    ) -> None:
        fn_scope = self.scopes.scope_of_node.get(id(target))
        if fn_scope is None:
            return
        params = getattr(target, "params", [])
        for index, param in enumerate(params):
            if index >= len(argument_taints):
                break
            slot = param.argument if param.type == "SpreadElement" else param
            if slot.type != "Identifier":
                continue
            binding = fn_scope.bindings.get(slot.name)
            if binding is None:
                continue
            taints = argument_taints[index]
            if not taints:
                continue
            self._env_join(
                ("b", id(binding)), extend(taints, Hop(line, col, f"arg:{slot.name}"))
            )


def run_taint(
    program: ast.Program,
    catalog: TaintCatalog | None = None,
    context_depth: int = 4,
    max_transfers: int = 20_000,
) -> TaintResult:
    """Run the engine with the never-raises contract: any internal error
    degrades to a (possibly partial) result carrying the error string."""
    try:
        engine = TaintEngine(
            program,
            catalog=catalog,
            context_depth=context_depth,
            max_transfers=max_transfers,
        )
        return engine.run()
    except RecursionError:
        return TaintResult(degraded=True, error="RecursionError: expression nesting too deep")
    except Exception as error:  # noqa: BLE001 - the never-raises contract
        return TaintResult(degraded=True, error=f"{type(error).__name__}: {error}"[:200])
