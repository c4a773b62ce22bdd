"""No code in scx forms a full power of a matrix with `GradedMatrix.power`,
except the truncated-series oracle `equivariant._i_coeff`: every product with
a power of v is read from a `gradedlin.Sweep` of the block it multiplies."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scx"


class _PowerCalls(ast.NodeVisitor):
    """(file name, innermost enclosing function or '<module>') of every call
    of a `.power(...)` attribute."""

    def __init__(self, name):
        self.name = name
        self.scope = ["<module>"]
        self.found = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "power":
            self.found.add((self.name, self.scope[-1]))
        self.generic_visit(node)


def test_only_the_oracle_forms_a_power_of_v():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        visitor = _PowerCalls(path.name)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        found |= visitor.found
    assert found == {("equivariant.py", "_i_coeff")}, sorted(found)
