"""scx has one row reduction over a field, `gradedlin._FieldEchelon`: it is
the only code outside `rings` that reads a domain's `inv` (to set a pivot
to one) or calls a ring element's `inverse`.  Any other elimination over a
field would have to divide by its pivots, so a second one cannot come back
unnoticed."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scx"

INVERSES = {"inv", "inverse"}
ALLOWED = {("gradedlin.py", "_FieldEchelon.add")}


class _Inverses(ast.NodeVisitor):
    """(file name, enclosing class and function scope or '<module>') of every
    attribute `inv` or `inverse` read, called or bound to a name."""

    def __init__(self, name):
        self.name = name
        self.scope = []
        self.found = set()

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Attribute(self, node):
        if node.attr in INVERSES and isinstance(node.ctx, ast.Load):
            self.found.add((self.name, ".".join(self.scope) or "<module>"))
        self.generic_visit(node)


def _inverses(name, source):
    visitor = _Inverses(name)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_visitor_finds_inverses():
    source = ("class E:\n"
              "    def add(self, p):\n"
              "        return self.dom.inv(p)\n"
              "def rref(a, dom):\n"
              "    inv = dom.inv\n"
              "    def scale(x):\n"
              "        return x.inverse() * x\n"
              "    return inv\n"
              "ONE = Q.domain.inv(Q.domain.one)\n")
    assert _inverses("m.py", source) == {("m.py", "E.add"), ("m.py", "rref"),
                                         ("m.py", "rref.scale"), ("m.py", "<module>")}
    assert _inverses("m.py", "def f(inv, dom):\n    dom.inv = inv\n    return invert(dom)\n") == set()


def test_only_the_field_echelon_divides():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "rings.py":
            found |= _inverses(path.name, path.read_text())
    assert found == ALLOWED, sorted(found)
