"""Data-flow consumers walk the scope tree a fixed number of times per program.

Which binding a declaration-name identifier belongs to is one lookup in
the scope analyzer's declaration-site index, and def-use pairs each use
with its reaching definition in one pass, so the number of whole-tree
scope walks (``Scope.iter_scopes`` called on the global scope) must not
grow with the number of declarators.  Counting walks keeps the test
deterministic, where a wall-clock bound would not be.
"""

import pytest

from repro.analysis.dataflow import run_taint
from repro.dataflow import build_enhanced_ast, build_pdg
from repro.jsparser import Scope, find_all, parse


def program_with(declarators: int):
    """``declarators`` declarators: per pair, one in a function body and one
    at the top level holding that function's result, so every consumer
    (def-use, call graph, taint transfer) meets them all."""
    return parse(
        "".join(
            f"function g{i}(p) {{ var v{i} = p + {i}; return v{i}; }} var r{i} = g{i}(r{i - 1});\n"
            for i in range(1, declarators // 2 + 1)
        )
    )


@pytest.mark.parametrize("build", [build_enhanced_ast, build_pdg, run_taint])
def test_global_scope_walks_do_not_grow_with_declarators(build, monkeypatch):
    iter_scopes = Scope.iter_scopes
    walks: list[int] = []

    def counting(self):
        if self.parent is None:
            walks[-1] += 1
        return iter_scopes(self)

    monkeypatch.setattr(Scope, "iter_scopes", counting)
    for declarators in (10, 400):
        program = program_with(declarators)
        assert len(find_all(program, "VariableDeclarator")) == declarators
        walks.append(0)
        build(program)
    assert walks[0] == walks[1]
