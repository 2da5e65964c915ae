"""Path context → initial feature vector (the ``p_i`` of Eq. 1).

The embedding model's fully connected layer consumes a fixed-width numeric
representation of each path.  We encode:

* counts of each AST node type along the spine (fixed vocabulary),
* hashed buckets for the two endpoint values (so data-flow-preserved names
  contribute consistent signal across paths that share a variable),
* structural scalars: path length, LCA position, and up/down asymmetry.

The mapping is deterministic and stateless, so extraction and embedding can
run per-file without a global vocabulary pass.
"""

from __future__ import annotations

import hashlib
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from .extraction import PathContext

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


class PathFeaturizer:
    """Deterministic ``PathContext`` → ``np.ndarray`` mapping."""

    feature_dim = FEATURE_DIM

    def transform_one(self, context: PathContext) -> np.ndarray:
        """One path's feature vector."""
        return self.transform([context])[0]

    def transform(self, contexts: list[PathContext]) -> np.ndarray:
        """One feature row per path; empty input gives an empty (0, F) array.

        Paths of one script repeat their spines and endpoint values many
        times, so each distinct spine is counted and each distinct value
        hashed once per call, and the rows are filled from those tables by
        index.  Every entry is a small integer count or the same IEEE
        division of small integers a per-path loop does, so the matrix is
        byte-for-byte what such a loop builds.
        """
        n = len(contexts)
        matrix = np.zeros((n, FEATURE_DIM))
        if n == 0:
            return matrix
        spines = list(map(attrgetter("nodes"), contexts))
        sources = list(map(attrgetter("source_value"), contexts))
        targets = list(map(attrgetter("target_value"), contexts))
        spine_rows = _first_seen(spines)
        value_rows = _first_seen(sources + targets)
        spine_index = np.fromiter(map(spine_rows.__getitem__, spines), dtype=np.intp, count=n)
        source_index = np.fromiter(map(value_rows.__getitem__, sources), dtype=np.intp, count=n)
        target_index = np.fromiter(map(value_rows.__getitem__, targets), dtype=np.intp, count=n)

        # Node-type counts: one table row per distinct spine; a type
        # outside the vocabulary lands in a spare last column.
        types = len(NODE_TYPES)
        spine_lengths = np.fromiter(map(len, spine_rows), dtype=np.intp, count=len(spine_rows))
        type_columns = map(_TYPE_INDEX.get, chain.from_iterable(spine_rows), repeat(types))
        columns = np.fromiter(type_columns, dtype=np.intp)
        counts = np.zeros((len(spine_rows), types + 1))
        np.add.at(counts, (np.repeat(np.arange(len(spine_rows)), spine_lengths), columns), 1.0)
        matrix[:, :types] = counts[spine_index, :types]

        # Endpoint value buckets: one blake2s per distinct value.
        buckets = np.array([_value_bucket(value) for value in value_rows])
        every_row = np.arange(n)
        np.add.at(matrix, (every_row, types + buckets[source_index]), 1.0)
        np.add.at(matrix, (every_row, types + VALUE_BUCKETS + buckets[target_index]), 1.0)

        scalars = types + 2 * VALUE_BUCKETS
        lengths = spine_lengths[spine_index].astype(np.float64)
        arrow = np.fromiter(map(attrgetter("arrow_index"), contexts), dtype=np.float64, count=n)
        divisors = np.maximum(lengths, 1.0)
        matrix[:, scalars + 0] = lengths / 12.0
        matrix[:, scalars + 1] = arrow / divisors
        matrix[:, scalars + 2] = (lengths - arrow) / divisors
        matrix[:, scalars + 3] = source_index == target_index
        # Data-dependency endpoint markers: the signal the enhanced AST
        # adds, and the one component renaming obfuscation cannot touch —
        # emphasized (weight 2) so the embedding space separates data-flow
        # -bearing paths from purely syntactic ones.
        data_flow = np.array([value.startswith("@dd_") for value in value_rows])
        matrix[:, scalars + 4] = np.where(data_flow[source_index], 2.0, 0.0)
        matrix[:, scalars + 5] = np.where(data_flow[target_index], 2.0, 0.0)
        return matrix
