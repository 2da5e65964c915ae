"""Reference implementations the ``paths`` layer is tested against.

These are the straightforward per-path versions the production code
replaced, each the reference for one production function:

* :func:`extract_all_pairs` tests every leaf pair ``(i, j)``, ``i < j``,
  finds their lowest common ancestor from the two root ancestries and
  keeps the path when it fits the width and length bounds; it computes
  both endpoint values of every kept path.  It returns a list of
  ``PathContext`` objects, which ``PathExtractor.extract``'s table must
  equal once listed (``list(table)`` builds each context on demand).
* :func:`featurize_per_path` builds one vector per path context and
  stacks them: the reference for ``PathFeaturizer.transform``, which has
  no per-path loop and reads a ``PathTable``'s columns instead (hand-made
  contexts are laid out as a table first).
* :func:`binding_for_name_slot` scans every scope of the program for the
  binding a declaration site declares under a name; the oracle's leaf
  values resolve name slots this way (:func:`scope_scan` swaps it in for
  ``ScopeAnalyzer.declared_binding``, the scope analyzer's
  declaration-site index that ``EnhancedAST.leaf_value``, def-use, the
  call graph and the taint engine ask).  It is the reference for that
  index.

They are slow (quadratic in the number of leaves, or in the number of
scopes) and exist only so tests and the ladder bench can demand exact
equality with them.  :func:`concatenated_script` builds the larger
inputs both compare on.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from repro.dataflow import EnhancedAST
from repro.datasets import generate_benign, generate_malicious
from repro.jsparser import LEAF_TYPES
from repro.jsparser import ast_nodes as ast
from repro.jsparser.scope import ScopeAnalyzer
from repro.paths import PathContext
from repro.paths.featurizer import FEATURE_DIM, NODE_TYPES, VALUE_BUCKETS

_TYPE_INDEX = {name: i for i, name in enumerate(NODE_TYPES)}


def concatenated_script(min_bytes: int, seed: int) -> str:
    """Seeded benign and malicious generator output joined to ``min_bytes``."""
    rng = np.random.default_rng(seed)
    parts: list[str] = []
    size = 0
    while size < min_bytes:
        generate = generate_malicious if rng.random() < 0.5 else generate_benign
        parts.append(generate(rng))
        size += len(parts[-1].encode("utf-8")) + 1
    return "\n".join(parts)


# ------------------------------------------------------------------ extraction


@dataclass
class LeafInfo:
    node: ast.Node
    #: Path of (node, child_index) from the root to this leaf.
    ancestry: list[tuple[ast.Node, int]]


def collect_leaves(root: ast.Node) -> list[LeafInfo]:
    """All value-bearing leaves with their root ancestry, in source order."""
    leaves: list[LeafInfo] = []

    def visit(node: ast.Node, ancestry: list[tuple[ast.Node, int]]) -> None:
        children = list(node.children())
        if node.type in LEAF_TYPES and not children:
            leaves.append(LeafInfo(node, list(ancestry)))
            return
        if not children:
            return
        for index, child in enumerate(children):
            ancestry.append((node, index))
            visit(child, ancestry)
            ancestry.pop()

    visit(root, [])
    return leaves


def path_between(
    enhanced: EnhancedAST, a: LeafInfo, b: LeafInfo, max_length: int, max_width: int
) -> PathContext | None:
    """The bounded path from leaf ``a`` to leaf ``b``, or None."""
    depth = 0
    limit = min(len(a.ancestry), len(b.ancestry))
    while depth < limit and a.ancestry[depth][0] is b.ancestry[depth][0]:
        depth += 1
    if depth == 0:
        return None
    lca_index = depth - 1

    width = abs(a.ancestry[lca_index][1] - b.ancestry[lca_index][1])
    if width > max_width:
        return None

    up = [a.node.type] + [node.type for node, _ in reversed(a.ancestry[lca_index + 1 :])]
    lca_type = a.ancestry[lca_index][0].type
    down = [node.type for node, _ in b.ancestry[lca_index + 1 :]] + [b.node.type]
    nodes = tuple(up + [lca_type] + down)
    if len(nodes) > max_length:
        return None

    return PathContext(
        source_value=enhanced.leaf_value(a.node),
        nodes=nodes,
        target_value=enhanced.leaf_value(b.node),
        arrow_index=len(up),
    )


def extract_all_pairs(enhanced: EnhancedAST, max_length: int = 12, max_width: int = 4) -> list[PathContext]:
    """Every bounded leaf-to-leaf path, testing all ``(i, j)`` pairs in order."""
    leaves = collect_leaves(enhanced.program)
    contexts: list[PathContext] = []
    n = len(leaves)
    with scope_scan(enhanced):
        for i in range(n):
            for j in range(i + 1, n):
                context = path_between(enhanced, leaves[i], leaves[j], max_length, max_width)
                if context is not None:
                    contexts.append(context)
    return contexts


# ------------------------------------------------------------------ featurizer


def _value_bucket(value: str) -> int:
    digest = hashlib.blake2s(value.encode("utf-8", "replace"), digest_size=4).digest()
    return int.from_bytes(digest, "little") % VALUE_BUCKETS


def featurize_one(context: PathContext) -> np.ndarray:
    vec = np.zeros(FEATURE_DIM)
    for node_type in context.nodes:
        index = _TYPE_INDEX.get(node_type)
        if index is not None:
            vec[index] += 1.0
    base = len(NODE_TYPES)
    vec[base + _value_bucket(context.source_value)] += 1.0
    vec[base + VALUE_BUCKETS + _value_bucket(context.target_value)] += 1.0

    scalars = base + 2 * VALUE_BUCKETS
    length = context.length
    vec[scalars + 0] = length / 12.0
    vec[scalars + 1] = context.arrow_index / max(length, 1)
    vec[scalars + 2] = (length - context.arrow_index) / max(length, 1)
    vec[scalars + 3] = 1.0 if context.source_value == context.target_value else 0.0
    vec[scalars + 4] = 2.0 if context.source_value.startswith("@dd_") else 0.0
    vec[scalars + 5] = 2.0 if context.target_value.startswith("@dd_") else 0.0
    return vec


def featurize_per_path(contexts: list[PathContext]) -> np.ndarray:
    """One vector per path, stacked; empty input gives an empty (0, F) array."""
    if not contexts:
        return np.zeros((0, FEATURE_DIM))
    return np.vstack([featurize_one(c) for c in contexts])


# ------------------------------------------------------------------- dataflow


def binding_for_name_slot(analyzer: ScopeAnalyzer, site: ast.Node, name: str):
    """The binding ``site`` declares under ``name``, scanning all scopes.

    The first scope, in pre-order, whose binding of the name lists the
    site among its declarations wins.
    """
    for scope in analyzer.global_scope.iter_scopes():
        binding = scope.bindings.get(name)
        if binding is not None and any(d is site for d in binding.declarations):
            return binding
    return None


@contextlib.contextmanager
def scope_scan(enhanced: EnhancedAST):
    """Within the block, ``enhanced`` resolves name slots by :func:`binding_for_name_slot`."""
    analyzer = enhanced.analyzer
    analyzer.declared_binding = functools.partial(binding_for_name_slot, analyzer)
    try:
        yield enhanced
    finally:
        del analyzer.declared_binding


def leaf_value(enhanced: EnhancedAST, node: ast.Node) -> str:
    """``EnhancedAST.leaf_value`` with name slots resolved by scanning every scope."""
    with scope_scan(enhanced):
        return enhanced.leaf_value(node)
