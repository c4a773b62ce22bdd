"""No S-map relation, composite, identity, zero or random boundary is
written out block by block: `randgen`, `solve`, the `verify`,
`compose_after`, `identity` and `zero` methods of `scomplex`, and heights'
`verify`, `compose_heights`, `factor_through_suspension` and
`compose_odd_after_height_minus1` make no `@` product of two block
attributes (d, v, delta1, ..., lam, mu, ..., K, L, ..., nu).  They read
every block from a product of assembled total maps (`scomplex._assemble`
and `scomplex._blocks`), the heights functions by way of the lift into the
suspension tower; the per-block formulas live only in the oracles of
tests/test_scomplex.py and tests/test_heights.py.  The heights maps that
are built rather than read (`odd_to_suspension_morphism`, `iota`, `kappa`,
`tau_closed_formula`) are not checked."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "scx"

BLOCKS = {"d", "v", "delta1", "delta2", "r", "s",
          "lam", "mu", "rho", "K", "L", "M1", "M2", "J"}

# file -> the functions checked in it, or None for the whole file
CHECKED = {"randgen.py": None, "solve.py": None,
           "scomplex.py": {"verify", "compose_after", "identity", "zero"},
           "heights.py": {"verify", "compose_heights", "factor_through_suspension",
                          "compose_odd_after_height_minus1"}}


class _BlockProducts(ast.NodeVisitor):
    """(innermost enclosing function or '<module>', line) of every `a.x @ b.y`
    whose operands are both block attributes."""

    def __init__(self):
        self.scope = ["<module>"]
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult) and all(
                isinstance(side, ast.Attribute) and side.attr in BLOCKS
                for side in (node.left, node.right)):
            self.found.append((self.scope[-1], node.lineno))
        self.generic_visit(node)


def _block_products(source):
    visitor = _BlockProducts()
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_visitor_finds_a_block_product():
    found = _block_products("def verify(self):\n    return -(Y.d @ h.M2) + X.d @ (a @ b)\n")
    assert found == [("verify", 2)]


def test_no_relation_is_written_block_by_block():
    found = []
    for name, functions in CHECKED.items():
        for scope, line in _block_products((SRC / name).read_text()):
            if functions is None or scope in functions:
                found.append((name, scope, line))
    assert not found, found
