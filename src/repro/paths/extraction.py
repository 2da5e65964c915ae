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
"""

from __future__ import annotations

from dataclasses import dataclass

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


#: ``(ends, c)``: a leaf sits under child ``c`` of an ancestor whose
#: children's subtrees end at leaf counts ``ends`` (see :func:`_index_leaves`).
_Frame = tuple[list[int], int]


def _index_leaves(
    root: ast.Node, reach: int
) -> tuple[list[ast.Node], list[int], list[tuple[str, ...]], list[list[_Frame]]]:
    """One walk over the tree, recording what enumeration needs per leaf.

    Leaves are the value-bearing nodes without children, numbered in
    source (pre-order) order.  For each leaf this returns its node, its
    depth (the root is at depth 0), the tuple of node types from the root
    down to and including the leaf, and the *frames* of its ``reach``
    nearest ancestors, deepest last.  A frame ``(ends, c)`` says the leaf
    sits under child ``c`` of that ancestor, where ``ends[k]`` is the
    number of leaves numbered before the end of child ``k``'s subtree —
    so the leaves under children ``c+1 … k`` are exactly the indices
    ``ends[c] ≤ j < ends[k]``.  Every ``ends`` list is complete once the
    walk returns.
    """
    nodes: list[ast.Node] = []
    depths: list[int] = []
    chains: list[tuple[str, ...]] = []
    frames: list[list[_Frame]] = []
    chain: list[str] = []
    stack: list[_Frame] = []

    def visit(node: ast.Node) -> None:
        children = list(node.children())
        if not children:
            if node.type in LEAF_TYPES:
                nodes.append(node)
                depths.append(len(chain))
                chains.append((*chain, node.type))
                frames.append(stack[-reach:])
            return
        chain.append(node.type)
        ends: list[int] = []
        for index, child in enumerate(children):
            stack.append((ends, index))
            visit(child)
            stack.pop()
            ends.append(len(nodes))
        chain.pop()

    visit(root)
    return nodes, depths, chains, frames


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

    def extract_from_source(self, source: str) -> list[PathContext]:
        """Parse ``source`` and extract its path contexts."""
        program = parse(source)
        return self.extract_from_program(program)

    def extract_from_program(self, program: ast.Program) -> list[PathContext]:
        builder = build_enhanced_ast if self.use_dataflow else build_regular_ast
        try:
            return self.extract(builder(program))
        except RecursionError as error:
            # The AST outlived the parser's own depth guard (left-deep
            # chains parse iteratively); fail structurally, not fatally.
            raise ExtractionError("nesting too deep to extract paths") from error

    def extract(self, enhanced: EnhancedAST) -> list[PathContext]:
        """Extract all bounded leaf-to-leaf path contexts.

        Paths come out ordered by source leaf ``i``, then target leaf
        ``j > i``.  For leaf ``i`` at depth ``d_i`` the ancestors are
        climbed deepest first; at an ancestor of depth ``L`` (the lowest
        common ancestor) whose child ``c`` holds ``i``, the partners are the
        leaves under children ``c+1 … c+max_width`` whose depth ``d_j``
        keeps the path within ``max_length`` nodes, ``d_i + d_j − 2L + 1``.
        Higher ancestors hold only later leaves, so ``j`` rises without a
        sort.  The climb stops after ``max_length − 2`` ancestors, past
        which even a leaf directly under the ancestor is too far.
        """
        max_length, max_width = self.max_length, self.max_width
        nodes, depths, chains, frames = _index_leaves(enhanced.program, max_length - 2)
        values = [enhanced.leaf_value(node) for node in nodes]
        contexts: list[PathContext] = []
        for depth, chain, value, ancestors in zip(depths, chains, values, frames):
            lca = depth
            for ends, child in reversed(ancestors):
                lca -= 1
                first, last = ends[child], ends[min(child + max_width, len(ends) - 1)]
                if first == last:
                    continue
                bound = max_length - 1 - depth + 2 * lca
                up = chain[lca:][::-1]
                down = lca + 1
                arrow = depth - lca
                contexts += [
                    PathContext(value, up + chains[j][down:], values[j], arrow)
                    for j in range(first, last)
                    if depths[j] <= bound
                ]
        return contexts


def extract_paths(
    source: str,
    max_length: int = DEFAULT_MAX_LENGTH,
    max_width: int = DEFAULT_MAX_WIDTH,
    use_dataflow: bool = True,
) -> list[PathContext]:
    """One-call helper: source text → list of path contexts."""
    extractor = PathExtractor(max_length=max_length, max_width=max_width, use_dataflow=use_dataflow)
    return extractor.extract_from_source(source)
