"""Path contexts → initial feature vectors (the ``p_i`` of Eq. 1).

The embedding model's fully connected layer consumes a fixed-width numeric
representation of each path.  We encode:

* counts of each AST node type along the spine (fixed vocabulary),
* hashed buckets for the two endpoint values (so data-flow-preserved names
  contribute consistent signal across paths that share a variable),
* structural scalars: path length, LCA position, and up/down asymmetry.

The mapping is deterministic and stateless, so extraction and embedding can
run per-file without a global vocabulary pass.  It reads the columns of a
:class:`~repro.paths.extraction.PathTable`: spine counts are differences of
per-node root-to-node counts, and lengths differences of depths, so no
path becomes a Python object.  Any other sequence of contexts is laid out
as a table first.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

import numpy as np

from .extraction import PathContext, PathTable

#: Node-type vocabulary (ESTree types our parser emits).
NODE_TYPES = (
    "Program",
    "ExpressionStatement",
    "BlockStatement",
    "EmptyStatement",
    "VariableDeclaration",
    "VariableDeclarator",
    "IfStatement",
    "ForStatement",
    "ForInStatement",
    "ForOfStatement",
    "WhileStatement",
    "DoWhileStatement",
    "ReturnStatement",
    "BreakStatement",
    "ContinueStatement",
    "ThrowStatement",
    "TryStatement",
    "CatchClause",
    "SwitchStatement",
    "SwitchCase",
    "LabeledStatement",
    "WithStatement",
    "DebuggerStatement",
    "FunctionDeclaration",
    "Identifier",
    "Literal",
    "TemplateLiteral",
    "ThisExpression",
    "ArrayExpression",
    "ObjectExpression",
    "Property",
    "FunctionExpression",
    "ArrowFunctionExpression",
    "UnaryExpression",
    "UpdateExpression",
    "BinaryExpression",
    "LogicalExpression",
    "AssignmentExpression",
    "ConditionalExpression",
    "CallExpression",
    "NewExpression",
    "MemberExpression",
    "SequenceExpression",
    "SpreadElement",
)

_TYPE_INDEX = {name: i for i, name in enumerate(NODE_TYPES)}

#: Hash buckets per endpoint value.
VALUE_BUCKETS = 32

#: Total feature width: type counts + 2×value buckets + 6 scalars.
FEATURE_DIM = len(NODE_TYPES) + 2 * VALUE_BUCKETS + 6


def _value_bucket(value: str) -> int:
    digest = hashlib.blake2s(value.encode("utf-8", "replace"), digest_size=4).digest()
    return int.from_bytes(digest, "little") % VALUE_BUCKETS


def _first_seen(items: list) -> dict:
    """Distinct items, each mapped to its rank in order of first appearance."""
    return {item: rank for rank, item in enumerate(dict.fromkeys(items))}


def _prefix_counts(table: PathTable, column: np.ndarray, width: int) -> np.ndarray:
    """Row ``v``: how many nodes of each column lie on the root-to-``v`` chain.

    Node ``v``'s subtree spans the pre-order ``[v, subtree_end[v])``, so a
    running sum over the pre-order that adds ``v``'s one-hot at ``v`` and
    removes it at ``subtree_end[v]`` counts ``v`` and its ancestors.  The
    extra last row, where every subtree has ended, is zero: it is the row
    the parent index −1 of a root selects.  No count exceeds the tree's
    depth, which the recursive walk keeps far below ``2**15``.
    """
    nodes = len(column)
    delta = np.zeros((nodes + 1, width), dtype=np.int16)
    delta[np.arange(nodes), column] = 1
    np.subtract.at(delta, (table.subtree_end, column), 1)
    return np.cumsum(delta, axis=0, dtype=np.int16)


class PathFeaturizer:
    """Deterministic path table → ``np.ndarray`` mapping."""

    feature_dim = FEATURE_DIM

    def transform_one(self, context: PathContext) -> np.ndarray:
        """One path's feature vector."""
        return self.transform([context])[0]

    def transform(self, paths: PathTable | Sequence[PathContext]) -> np.ndarray:
        """One feature row per path; no paths give an empty (0, F) array.

        Reads the columns of a :class:`PathTable`; any other sequence of
        contexts is first laid out as one (:meth:`PathTable.from_contexts`).
        A path's spine counts are ``P[s] + P[t] − P[a] − P[parent(a)]`` for
        source leaf ``s``, target leaf ``t`` and LCA ``a``, where ``P`` are
        the root-to-node counts of :func:`_prefix_counts`; its length is
        ``d_s + d_t − 2·d_a + 1`` and its arrow ``d_s − d_a``.  Each distinct
        endpoint value is hashed once per call.  Every entry is a small
        integer count or the same IEEE division of small integers a
        per-path loop does, so the matrix is byte-for-byte what such a loop
        builds.
        """
        table = paths if isinstance(paths, PathTable) else PathTable.from_contexts(paths)
        n = len(table)
        matrix = np.zeros((n, FEATURE_DIM))
        if n == 0:
            return matrix
        source_node = table.leaf_node[table.source]
        target_node = table.leaf_node[table.target]

        # Node-type counts; a type outside the vocabulary lands in a spare
        # last column that is dropped.  Summed in int16, with one n × types
        # temporary at a time, then copied into the matrix.
        types = len(NODE_TYPES)
        columns = np.array([_TYPE_INDEX.get(name, types) for name in table.type_names], dtype=np.intp)
        spine = _prefix_counts(table, columns[table.node_type], types + 1)[:, :types]
        counts = spine[source_node]
        counts += spine[target_node]
        counts -= spine[table.lca]
        counts -= spine[table.parent[table.lca]]
        matrix[:, :types] = counts

        # Endpoint value buckets and flags per leaf: one blake2s per
        # distinct value.
        value_rows = _first_seen(table.leaf_values)
        value_index = np.fromiter(
            map(value_rows.__getitem__, table.leaf_values), dtype=np.intp, count=len(table.leaf_values)
        )
        buckets = np.array([_value_bucket(value) for value in value_rows], dtype=np.intp)[value_index]
        every_row = np.arange(n)
        matrix[every_row, types + buckets[table.source]] = 1.0
        matrix[every_row, types + VALUE_BUCKETS + buckets[table.target]] = 1.0

        scalars = types + 2 * VALUE_BUCKETS
        depth = table.depth
        lca_depth = depth[table.lca]
        lengths = (depth[source_node] + depth[target_node] - 2 * lca_depth + 1).astype(np.float64)
        arrow = (depth[source_node] - lca_depth).astype(np.float64)
        divisors = np.maximum(lengths, 1.0)
        matrix[:, scalars + 0] = lengths / 12.0
        matrix[:, scalars + 1] = arrow / divisors
        matrix[:, scalars + 2] = (lengths - arrow) / divisors
        matrix[:, scalars + 3] = value_index[table.source] == value_index[table.target]
        # Data-dependency endpoint markers: the signal the enhanced AST
        # adds, and the one component renaming obfuscation cannot touch —
        # emphasized (weight 2) so the embedding space separates data-flow
        # -bearing paths from purely syntactic ones.
        data_flow = np.array([value.startswith("@dd_") for value in value_rows])[value_index]
        matrix[:, scalars + 4] = np.where(data_flow[table.source], 2.0, 0.0)
        matrix[:, scalars + 5] = np.where(data_flow[table.target], 2.0, 0.0)
        return matrix
