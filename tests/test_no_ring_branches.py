"""No code in scx picks an elimination by comparing a ring with Z: the ring
decides which elimination runs once, in `gradedlin.ELIMINATIONS`.  The only
comparisons with the name `Z` are in `rings` (its ring maps), in cli's
base-change table `_apply_ring`, and in the J oracle's dense route
`equivariant._dense_kernel`.  With the table's entries for Z and Q
replaced by recording wrappers, every entry point still returns what it
returned, and each of its eliminations goes through a wrapper."""

import ast
import random
from pathlib import Path

import pytest

import scx.gradedlin as gl
from scx.equivariant import froyshov_profile
from scx.gradedlin import (
    GradedMatrix,
    HomologyMaps,
    exactness_at,
    homology_of_pair,
    is_invertible,
    raw_rows,
    span_contains,
    spans_equal,
    sparse_kernel_basis,
)
from scx.randgen import rand_homotopy_pair, rand_morphism, rand_scomplex
from scx.rings import Q, Z
from scx.solve import solve_homotopy
from scx.triangles import cone_triangle

SRC = Path(__file__).resolve().parent.parent / "src" / "scx"

ALLOWED = {("cli.py", "_apply_ring"), ("equivariant.py", "_dense_kernel")}


class _ZComparisons(ast.NodeVisitor):
    """(file name, innermost enclosing function or '<module>') of every `==`
    or `!=` comparison with the name `Z` on either side."""

    def __init__(self, name):
        self.name = name
        self.scope = ["<module>"]
        self.found = set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Compare(self, node):
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and any(
                    isinstance(side, ast.Name) and side.id == "Z" for side in (left, right)):
                self.found.add((self.name, self.scope[-1]))
        self.generic_visit(node)


def _z_comparisons(name, source):
    visitor = _ZComparisons(name)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_the_visitor_finds_a_comparison_with_z():
    source = ("def pick(ring):\n"
              "    if ring != Z and not ring.is_field:\n"
              "        return None\n"
              "    def inner(x):\n"
              "        return Z == x.ring\n"
              "    return ring is Z or ring == Q or 0 < ring.p == Z\n")
    assert _z_comparisons("m.py", source) == {("m.py", "pick"), ("m.py", "inner")}
    assert _z_comparisons("m.py", "x = ring == LAURENT_Z or ring.kind == 'Z'\n") == set()


def test_no_module_compares_a_ring_with_z():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "rings.py":
            found |= _z_comparisons(path.name, path.read_text())
    assert found == ALLOWED, sorted(found)


class _Recorded:
    """An elimination that records the name of every method called on it
    and hands the call on to the real one; `inside` counts the calls under
    way."""

    inside = 0

    def __init__(self, elim, calls):
        self._elim, self._calls = elim, calls

    def __getattr__(self, name):
        attr = getattr(self._elim, name)
        if not callable(attr):
            return attr

        def recorded(*args):
            self._calls.append(name)
            _Recorded.inside += 1
            try:
                return attr(*args)
            finally:
                _Recorded.inside -= 1
        return recorded


def _entry_points(ring):
    """name -> a call of that entry point over `ring`, returning a value
    that compares by content."""
    from test_equivariant import _non_nilpotent_s_complex

    rng = random.Random(2026)
    x = next(y for y in (rand_scomplex(ring, rng, r_perfect=True) for _ in range(50))
             if y.total_differential().entries and y.irr.rank > 1)
    d = x.total_differential()
    n = d.source.rank
    kern = sparse_kernel_basis(raw_rows(d), n, ring)
    t = cone_triangle(rand_morphism(x, x, rng))
    ds = [c.total_differential() for c in t.complexes]
    ls = [f.assemble() for f in t.morphisms]
    f = rand_morphism(x, x, rng)
    g, _ = rand_homotopy_pair(f, rng)
    num = ring.domain.from_int
    cols_a = [{0: num(2), 1: num(1)}, {1: num(3)}]
    cols_b = [{0: num(2), 1: num(4)}, {1: num(3)}]
    units = [{0: num(1)}, {1: num(1)}]
    ident = GradedMatrix.identity(d.source)
    return {
        "homology_of_pair": lambda: homology_of_pair(d, d),
        "exactness_at": lambda: exactness_at(ds[0], ls[0], ls[2], ds[1], ds[2]),
        "class_coords": lambda: (lambda hm: [hm.class_coords(v) for v in kern])(HomologyMaps(d)),
        "froyshov_profile": lambda: (lambda p: (p.d, p.raw_bases, p.h))(
            froyshov_profile(_non_nilpotent_s_complex(ring))),
        "solve_homotopy": lambda: solve_homotopy(f, g).assemble(),
        "spans_equal": lambda: (spans_equal(cols_a, cols_b, 2, ring),
                                spans_equal(cols_a, units, 2, ring)),
        "span_contains": lambda: [span_contains(cols_a, v, 2, ring) for v in units],
        "is_invertible": lambda: (is_invertible(ident), is_invertible(ident.scale(ring.from_int(2))),
                                  is_invertible(d)),
    }


@pytest.mark.parametrize("ring", [Z, Q], ids=str)
def test_every_entry_point_eliminates_through_the_table(ring, monkeypatch):
    runs = _entry_points(ring)
    want = {name: run() for name, run in runs.items()}
    assert want["spans_equal"] == (True, ring == Q)  # a lattice of index 6 over Z
    calls, outside = [], []
    for r in (Z, Q):
        monkeypatch.setitem(gl.ELIMINATIONS, r, _Recorded(gl.ELIMINATIONS[r], calls))

    def watched(engine):
        real = getattr(gl, engine)

        def wrapper(*args):
            if not _Recorded.inside:
                outside.append((name, engine))
            return real(*args)
        return wrapper

    for engine in ("smith_form", "_IntEchelon", "_FieldEchelon"):
        monkeypatch.setattr(gl, engine, watched(engine))
    for name, run in runs.items():
        calls.clear()
        assert run() == want[name], name
        assert calls, name
    # every Smith form and echelon is made by a method of the table's entries
    assert outside == []
