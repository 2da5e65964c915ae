"""AST path-context extraction (Sec. III-B of the paper).

A *path context* is the triple ``<x_s, n1…nk, x_t>`` connecting two leaves
of the (enhanced) AST through their lowest common ancestor.  Extraction is
bounded by:

* **max length** — the number of nodes on the path (``k``), default 12, and
* **max width** — the maximum difference between the child indices, at the
  lowest common ancestor, of the two branches the path descends through,
  default 4.

Leaf values come from :meth:`repro.dataflow.EnhancedAST.leaf_value`:
identifiers participating in a data-dependency edge keep their name, all
other leaves are type-abstracted (``@var_str``, ``@lit_int``, …).

:meth:`PathExtractor.extract` returns a :class:`PathTable`: the paths of
one script as integer columns (source leaf, target leaf, LCA node) over
per-node type and parent columns and per-leaf values.  The featurizer
reads the columns; a :class:`PathContext` is built only when the table is
indexed, so a script's thousands of paths cost no Python object each.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import NamedTuple, overload

import numpy as np

from repro.dataflow import EnhancedAST, build_enhanced_ast, build_regular_ast
from repro.jsparser import LEAF_TYPES, parse
from repro.jsparser import ast_nodes as ast

#: Paper defaults, following Alon et al.'s locality/sparsity discussion.
DEFAULT_MAX_LENGTH = 12
DEFAULT_MAX_WIDTH = 4


class ExtractionError(Exception):
    """Structured failure of path extraction on a parseable program.

    Raised instead of letting a raw ``RecursionError`` escape when a
    pathologically nested AST (e.g. a ``1+1+…+1`` chain thousands of terms
    deep, which the iterative parser accepts but the recursive extraction
    walk cannot traverse) blows the interpreter stack.  Callers treat it
    like a syntax error: no paths, structured ``parse_error`` status.
    """


@dataclass(frozen=True)
class PathContext:
    """One extracted path: endpoint values plus the node-type spine.

    ``nodes`` runs from the source leaf's type up to the LCA and down to
    the target leaf's type; ``arrow_index`` marks the LCA position (used by
    the featurizer to encode direction changes).
    """

    source_value: str
    nodes: tuple[str, ...]
    target_value: str
    arrow_index: int

    def signature(self) -> str:
        """A printable, hashable rendering (used for vocabulary/corpus)."""
        ups = "↑".join(self.nodes[: self.arrow_index + 1])
        downs = "↓".join(self.nodes[self.arrow_index :])
        spine = ups + "↓" + downs.split("↓", 1)[1] if "↓" in downs else ups
        return f"{self.source_value},{spine},{self.target_value}"

    @property
    def length(self) -> int:
        return len(self.nodes)


def _ints(values: Iterable[int]) -> np.ndarray:
    return np.fromiter(values, dtype=np.intp)


@dataclass(eq=False, repr=False)
class PathTable(Sequence[PathContext]):
    """One script's paths as columns; ``table[k]`` builds path ``k``'s context.

    Per node, numbered in pre-order: ``node_type`` (a code into
    ``type_names``), ``parent`` (−1 at a root), ``depth`` (0 at a root) and
    ``subtree_end`` (one past the last node of its subtree).  Per leaf:
    ``leaf_node`` and ``leaf_values``.  Per path: the ``source`` and
    ``target`` leaf and the ``lca`` node; path ``k`` climbs from
    ``leaf_node[source[k]]`` to ``lca[k]`` and descends to
    ``leaf_node[target[k]]``.

    It behaves as a read-only list of contexts: ``len``, negative
    indices, slices (which give lists), iteration and ``IndexError``.
    """

    type_names: list[str]
    node_type: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    subtree_end: np.ndarray
    leaf_node: np.ndarray
    leaf_values: list[str]
    source: np.ndarray
    target: np.ndarray
    lca: np.ndarray

    @classmethod
    def from_contexts(cls, contexts: Iterable[PathContext]) -> PathTable:
        """A table holding the given contexts, in order.

        Each context becomes a tree of its own.  In pre-order: the LCA as
        a root, the up part of the spine as a branch down to the source
        leaf, then the down part as a branch down to the target leaf.  An
        arrow of 0 makes the LCA the source leaf, and an arrow at the last
        node makes it the target leaf.
        """
        codes: dict[str, int] = {}
        node_type: list[int] = []
        parent: list[int] = []
        depth: list[int] = []
        subtree_end: list[int] = []
        leaf_node: list[int] = []
        leaf_values: list[str] = []
        lca: list[int] = []
        for context in contexts:
            nodes, arrow = context.nodes, context.arrow_index
            if not 0 <= arrow < len(nodes):
                raise ValueError(f"arrow_index {arrow} outside a spine of {len(nodes)} nodes")
            top, down, stop = len(node_type), len(node_type) + arrow + 1, len(node_type) + len(nodes)
            for node, name in enumerate(nodes[arrow::-1] + nodes[arrow + 1 :], top):
                node_type.append(codes.setdefault(name, len(codes)))
                parent.append(-1 if node == top else top if node == down else node - 1)
                depth.append(node - top if node < down else node - down + 1)
                subtree_end.append(down if top < node < down else stop)
            leaf_node += [down - 1, stop - 1 if stop > down else top]
            leaf_values += [context.source_value, context.target_value]
            lca.append(top)
        pairs = np.arange(2 * len(lca))
        return cls(
            list(codes), _ints(node_type), _ints(parent), _ints(depth), _ints(subtree_end),
            _ints(leaf_node), leaf_values, pairs[0::2], pairs[1::2], _ints(lca),
        )

    def __len__(self) -> int:
        return len(self.source)

    @overload
    def __getitem__(self, index: int) -> PathContext: ...

    @overload
    def __getitem__(self, index: slice) -> list[PathContext]: ...

    def __getitem__(self, index: int | slice) -> PathContext | list[PathContext]:
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = operator.index(index)
        if k < 0:
            k += len(self)
        if not 0 <= k < len(self):
            raise IndexError("path index out of range")
        lca = int(self.lca[k])
        up = self._climb(int(self.leaf_node[self.source[k]]), lca)
        down = self._climb(int(self.leaf_node[self.target[k]]), lca)
        names = self.type_names
        nodes = tuple(names[code] for code in up + down[-2::-1])
        return PathContext(
            self.leaf_values[self.source[k]], nodes, self.leaf_values[self.target[k]], len(up) - 1
        )

    def _climb(self, node: int, stop: int) -> list[int]:
        """Type codes from ``node`` up its parents to ``stop``, both included."""
        codes = [int(self.node_type[node])]
        while node != stop:
            node = int(self.parent[node])
            codes.append(int(self.node_type[node]))
        return codes


class _Tree(NamedTuple):
    """What one pre-order walk of the AST records (see :func:`_walk`)."""

    codes: dict[str, int]
    node_type: list[int]
    parent: list[int]
    depth: list[int]
    subtree_end: list[int]
    leaves: list[ast.Node]
    leaf_node: list[int]


def _walk(root: ast.Node) -> _Tree:
    """One pre-order walk recording every node, and the leaves among them.

    Per node: its type code (in order of first appearance, see ``codes``),
    parent (−1 at the root), depth (0 at the root) and subtree end.
    Leaves are the value-bearing nodes without children, numbered in
    pre-order; per leaf: its AST node and node index.
    """
    tree = _Tree({}, [], [], [], [], [], [])
    codes, node_type, parent, depth, subtree_end, leaves, leaf_node = tree

    def visit(node: ast.Node, up: int, level: int) -> None:
        index = len(node_type)
        node_type.append(codes.setdefault(node.type, len(codes)))
        parent.append(up)
        depth.append(level)
        subtree_end.append(index + 1)
        children = list(node.children())
        if not children:
            if node.type in LEAF_TYPES:
                leaves.append(node)
                leaf_node.append(index)
            return
        for child in children:
            visit(child, index, level + 1)
        subtree_end[index] = len(node_type)

    visit(root, -1, 0)
    return tree


class PathExtractor:
    """Extracts bounded path contexts from JavaScript programs.

    Args:
        max_length: Maximum number of nodes on a path (paper: 12).
        max_width: Maximum child-index spread at the LCA (paper: 4).
        use_dataflow: True → enhanced AST (keep names of data-dependent
            leaves); False → regular AST (the Table IV ablation).
    """

    def __init__(
        self,
        max_length: int = DEFAULT_MAX_LENGTH,
        max_width: int = DEFAULT_MAX_WIDTH,
        use_dataflow: bool = True,
    ):
        if max_length < 3:
            raise ValueError("max_length must be at least 3 (leaf, LCA, leaf)")
        if max_width < 1:
            raise ValueError("max_width must be at least 1")
        self.max_length = max_length
        self.max_width = max_width
        self.use_dataflow = use_dataflow

    # ------------------------------------------------------------------ API

    def extract_from_source(self, source: str) -> PathTable:
        """Parse ``source`` and extract its path contexts."""
        program = parse(source)
        return self.extract_from_program(program)

    def extract_from_program(self, program: ast.Program) -> PathTable:
        builder = build_enhanced_ast if self.use_dataflow else build_regular_ast
        try:
            return self.extract(builder(program))
        except RecursionError as error:
            # The AST outlived the parser's own depth guard (left-deep
            # chains parse iteratively); fail structurally, not fatally.
            raise ExtractionError("nesting too deep to extract paths") from error

    def extract(self, enhanced: EnhancedAST) -> PathTable:
        """Extract all bounded leaf-to-leaf path contexts as a table.

        Paths come out ordered by source leaf ``i``, then target leaf
        ``j > i``.  For leaf ``i`` at depth ``d_i`` the ancestors are
        climbed deepest first; at an ancestor of depth ``L`` (the lowest
        common ancestor) whose child ``c`` holds ``i``, the candidate
        partners are the leaves under children ``c+1 … c+max_width``, one
        contiguous range of ``j``.  Higher ancestors hold only later
        leaves, so ``j`` rises without a sort.  The climb stops after
        ``max_length − 2`` ancestors, past which even a leaf directly under
        the ancestor is too far.  numpy then expands the ranges and keeps
        the partners whose depth ``d_j`` holds the path to ``max_length``
        nodes, ``d_i + d_j − 2L + 1``.
        """
        max_length, max_width = self.max_length, self.max_width
        tree = _walk(enhanced.program)
        parent, depth, subtree_end = _ints(tree.parent), _ints(tree.depth), _ints(tree.subtree_end)
        leaf_node = _ints(tree.leaf_node)

        # Through node u's parent as LCA, the leaves under u pair with the
        # leaves under u's next max_width siblings: one range of j per node.
        # In pre-order a subtree is followed by its next sibling, if any,
        # so max_width hops from subtree end to subtree end reach the end
        # of the range.  Index len(parent) stands for "past the last node".
        after_parent = np.append(parent, -2)
        after_end = np.append(subtree_end, 0)
        span_end = subtree_end
        for _ in range(max_width):
            span_end = np.where(after_parent[span_end] == parent, after_end[span_end], span_end)
        partners_from = np.searchsorted(leaf_node, subtree_end)
        partners_to = np.searchsorted(leaf_node, span_end)
        # The root has no siblings, so its range is empty; made its own
        # parent, it ends a climb that passes it.
        up = np.maximum(parent, 0)
        reach = max_length - 2
        shape = (len(leaf_node), reach)
        lca, first, last = np.empty(shape, np.intp), np.empty(shape, np.intp), np.empty(shape, np.intp)
        climb = leaf_node
        for step in range(reach):
            first[:, step], last[:, step] = partners_from[climb], partners_to[climb]
            climb = up[climb]
            lca[:, step] = climb
        source = np.repeat(np.arange(len(leaf_node)), reach)
        lca, first, last = lca.ravel(), first.ravel(), last.ravel()

        # Range r covers j = first[r] … last[r] − 1; lay the ranges end to
        # end and number every candidate by its range.
        sizes = last - first
        owner = np.repeat(np.arange(len(sizes)), sizes)
        target = np.arange(len(owner)) + (first - (np.cumsum(sizes) - sizes))[owner]
        leaf_depth = depth[leaf_node]
        bound = max_length - 1 - leaf_depth[source] + 2 * depth[lca]
        keep = leaf_depth[target] <= bound[owner]
        owner = owner[keep]
        return PathTable(
            list(tree.codes), _ints(tree.node_type), parent, depth, subtree_end, leaf_node,
            [enhanced.leaf_value(node) for node in tree.leaves],
            source[owner], target[keep], lca[owner],
        )


def extract_paths(
    source: str,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_width: int = DEFAULT_MAX_WIDTH,
    use_dataflow: bool = True,
) -> PathTable:
    """One-call helper: source text → table of path contexts."""
    extractor = PathExtractor(max_length=max_length, max_width=max_width, use_dataflow=use_dataflow)
    return extractor.extract_from_source(source)
