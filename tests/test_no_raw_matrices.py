"""The small equivariant models, the maps between them and both suspension
witnesses are placed band by band: `_build_diff`, `_build_x`,
`_ijp_matrices`, `_suspension_maps` and `susequivar_witness` of
`scx.equivariant`, and `suspension_witness` of `scx.functors`, call no raw
`GradedMatrix(...)` constructor (so they write no entry at an index of their
own).  The equivariant ones place whole blocks with
`GradedMatrix.from_blocks`; `suspension_witness` hands its blocks to the
`SMorphism` and `SHomotopy` constructors as (matrix, row, column) pieces,
which they place (tests/test_no_block_formulas.py checks that it calls no
`from_blocks` either).  The entry rules they replaced live only in the
oracles of tests/test_equivariant.py and tests/test_functors.py."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scx"

CHECKED = {"equivariant.py": {"_build_diff", "_build_x", "_ijp_matrices",
                              "_suspension_maps", "susequivar_witness"},
           "functors.py": {"suspension_witness"}}


class _RawCalls(ast.NodeVisitor):
    """(enclosing functions, outermost first, line) of every call of
    `GradedMatrix` itself, by name or as a module attribute."""

    def __init__(self):
        self.scope = []
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        f = node.func
        if (isinstance(f, ast.Name) and f.id == "GradedMatrix"
                or isinstance(f, ast.Attribute) and f.attr == "GradedMatrix"):
            self.found.append((tuple(self.scope), node.lineno))
        self.generic_visit(node)


def _raw_calls(source, functions):
    visitor = _RawCalls()
    visitor.visit(ast.parse(source))
    return [(scope[-1], line) for scope, line in visitor.found
            if functions.intersection(scope)]


def test_the_visitor_finds_a_raw_constructor_call():
    source = ("def _build_x(self):\n"
              "    def rule(c):\n"
              "        return gradedlin.GradedMatrix(a, b, 0, {})\n"
              "    return GradedMatrix.from_blocks(a, b, 0, (m, 0, 0))\n"
              "def other():\n"
              "    return GradedMatrix(a, b, 0, {})\n")
    assert _raw_calls(source, {"_build_x"}) == [("rule", 3)]
    assert _raw_calls(source, {"other"}) == [("other", 6)]


def test_models_and_witnesses_place_blocks_only():
    found = []
    for name, functions in CHECKED.items():
        source = (SRC / name).read_text()
        defined = {node.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef)}
        assert functions <= defined, functions - defined
        found += [(name, *hit) for hit in _raw_calls(source, functions)]
    assert not found, found
