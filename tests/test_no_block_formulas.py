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


# An S-morphism or homotopy stores only its total: a block left out of the
# constructor is zero, so no `GradedMatrix.zero(...)` is handed to
# `SMorphism(` or `SHomotopy(` (nor to `SComplex(`, whose left-out blocks are
# zero too), and a total is split into blocks (`_blocks`) only by the block
# view, by `_relations` to name a failed relation's first offender, and by
# `HeightMorphism.verify` for the same.

SPLITTERS = {("scomplex.py", "_SMap.__getattr__"), ("scomplex.py", "_relations"),
             ("heights.py", "HeightMorphism.verify")}


def _called(func):
    """The dotted name of a called expression, as far as it is names."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return f"{_called(func.value)}.{func.attr}"
    return "?"


class _TotalsOnly(ast.NodeVisitor):
    """(enclosing class and function scope, line) of every `_blocks(...)`
    call and of every `GradedMatrix.zero(...)` passed to `SMorphism(...)`,
    `SHomotopy(...)` or `SComplex(...)`."""

    def __init__(self):
        self.scope = []
        self.splits = []
        self.zero_args = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node):
        where = (".".join(self.scope) or "<module>", node.lineno)
        name = _called(node.func)
        if name.rsplit(".", 1)[-1] == "_blocks":
            self.splits.append(where)
        if name.rsplit(".", 1)[-1] in ("SMorphism", "SHomotopy", "SComplex"):
            args = node.args + [kw.value for kw in node.keywords]
            if any(isinstance(a, ast.Call) and _called(a.func) == "GradedMatrix.zero"
                   for a in args):
                self.zero_args.append(where)
        self.generic_visit(node)


def _totals_only(source):
    visitor = _TotalsOnly()
    visitor.visit(ast.parse(source))
    return visitor.splits, visitor.zero_args


def test_the_visitor_finds_splits_and_zero_blocks():
    splits, zero_args = _totals_only(
        "class HeightMorphism:\n"
        "    def verify(self):\n"
        "        return _blocks(m, x, y)\n"
        "def lift(x, y):\n"
        "    return scomplex.SMorphism(x, y, 0, lam,\n"
        "                              rho=GradedMatrix.zero(a, b, 0)), scomplex._blocks(m, x, y)\n"
        "SHomotopy(f, g, GradedMatrix.zero(a, b, 1))\n"
        "SHomotopy(f, g, K, L=GradedMatrix.identity(a))\n"
        "SComplex(c, r, d, v, d1, GradedMatrix.zero(r, c, -2))\n"
        "SComplex(c, r, d, v, metadata={'name': 'x'})\n")
    assert splits == [("HeightMorphism.verify", 3), ("lift", 6)]
    assert zero_args == [("lift", 5), ("<module>", 7), ("<module>", 9)]


def test_s_maps_get_no_zero_block_and_are_split_only_by_the_view_and_the_reports():
    splits, zero_args = [], []
    for path in sorted(SRC.glob("*.py")):
        found_splits, found_zeros = _totals_only(path.read_text())
        splits += [(path.name, scope) for scope, _ in found_splits]
        zero_args += [(path.name, scope, line) for scope, line in found_zeros]
    assert not zero_args, zero_args
    assert set(splits) == SPLITTERS, splits


# The block shape (source, target and degree of each block) is written out
# once, in `scomplex._SHAPE`.  Outside scomplex.py no module reads blocks
# from a document by hand (`matrix_from_json`; the one exception is the tau
# reader of height documents, whose tau_i are not S-map blocks) or checks
# them (`_check_blocks`; a `HeightMorphism` hands its blocks to the
# `SMorphism` constructor).

READERS = [("cli.py", "_height_from_file")]
CHECKERS = []


class _Calls(ast.NodeVisitor):
    """(enclosing class and function scope, line) of every call of a
    function named `name`, plain or dotted."""

    def __init__(self, name):
        self.name = name
        self.scope = []
        self.found = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef = visit_AsyncFunctionDef = _scoped

    def visit_Call(self, node):
        if _called(node.func).rsplit(".", 1)[-1] == self.name:
            self.found.append((".".join(self.scope) or "<module>", node.lineno))
        self.generic_visit(node)


def _calls(source, name):
    visitor = _Calls(name)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_visitor_finds_calls_by_name():
    found = _calls("class HeightMorphism:\n"
                   "    def __init__(self):\n"
                   "        scomplex._check_blocks(4, shapes, blocks, labels)\n"
                   "def read(doc):\n"
                   "    return [matrix_from_json(doc['K'], a, b, 1)]\n"
                   "matrix_from_json_text(doc)\n", "_check_blocks")
    assert found == [("HeightMorphism.__init__", 3)]
    assert _calls("def read(doc):\n    return [matrix_from_json(doc, a, b, 1)]\n",
                  "matrix_from_json") == [("read", 2)]


def test_blocks_are_read_and_checked_by_the_table_outside_scomplex():
    readers, checkers = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "scomplex.py":
            continue
        text = path.read_text()
        readers += [(path.name, scope) for scope, _ in _calls(text, "matrix_from_json")]
        checkers += [(path.name, scope) for scope, _ in _calls(text, "_check_blocks")]
    assert readers == READERS, readers
    assert checkers == CHECKERS, checkers


# The builders hand each block to a componentwise constructor as a matrix or
# as a list of (matrix, row, column) pieces, which the constructor places at
# the block's shape; none of them writes a block's source, target and degree
# out itself with `GradedMatrix.from_blocks`, `GradedMatrix(...)` or
# `GradedMatrix.zero(...)`, or places a total unchecked with
# `GradedMatrix._new` or `from_assembled`, in its own body or in a helper
# defined in it.

BUILDERS = {"functors.py": {"tensor", "cone", "direct_sum", "_suspension", "desuspend_once",
                            "suspension_witness", "o1_o_minus1_witness", "suspend_homotopy",
                            "suspend_morphism"},
            "triangles.py": {"cone_triangle"},
            "heights.py": {"iota", "kappa", "odd_to_suspension_morphism", "_lift"}}
SHAPED = {"GradedMatrix", "GradedMatrix.from_blocks", "GradedMatrix.zero", "GradedMatrix._new",
          "SMorphism.from_assembled", "SHomotopy.from_assembled"}


class _ShapedCalls(ast.NodeVisitor):
    """(enclosing functions, outermost first, line) of every call of a name
    in `SHAPED`, by name or through a module attribute."""

    def __init__(self):
        self.scope = []
        self.found = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        name = _called(node.func)
        if any(name == s or name.endswith("." + s) for s in SHAPED):
            self.found.append((tuple(self.scope), node.lineno))
        self.generic_visit(node)


def _shaped_calls(source, functions):
    visitor = _ShapedCalls()
    visitor.visit(ast.parse(source))
    return [(scope[-1], line) for scope, line in visitor.found if functions.intersection(scope)]


def test_the_visitor_finds_shaped_matrices_in_builders():
    source = ("def cone(f):\n"
              "    def corner(a, b):\n"
              "        return GradedMatrix.from_blocks(s, t, -1, (a, 0, 0), (b, 1, 0))\n"
              "    one = GradedMatrix.identity(x.red)\n"
              "    return SComplex(c, r, [(one, 0, 0)], gradedlin.GradedMatrix.zero(c, c, -2))\n"
              "def iota(x, n):\n"
              "    return from_components(x, y, 2, GradedMatrix(a, b, 2, {(0, 0): 1}))\n"
              "def other():\n"
              "    return GradedMatrix.zero(a, b, 0)\n"
              "def _lift(self, m):\n"
              "    t = gradedlin.GradedMatrix._new(a, b, 0, {})\n"
              "    return scomplex.SMorphism.from_assembled(t, x, y), SMorphism(x, y, 0)\n")
    assert _shaped_calls(source, {"cone", "iota"}) == [("corner", 3), ("cone", 5), ("iota", 7)]
    assert _shaped_calls(source, {"other"}) == [("other", 9)]
    assert _shaped_calls(source, {"_lift"}) == [("_lift", 11), ("_lift", 12)]


def test_builders_hand_blocks_as_pieces():
    found = []
    for name, functions in BUILDERS.items():
        source = (SRC / name).read_text()
        defined = {node.name for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.FunctionDef)}
        assert functions <= defined, functions - defined
        found += [(name, *hit) for hit in _shaped_calls(source, functions)]
    assert not found, found
