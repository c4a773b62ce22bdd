"""Graded free modules, sparse homogeneous matrices, Smith normal form and
homology of two-step complexes over Z or a field."""

from __future__ import annotations

from collections import Counter
from itertools import compress
from math import gcd

from .errors import (
    NotAComplex,
    RingMismatch,
    SchemaError,
    ShapeMismatch,
    UnsupportedRingForHomology,
)
from .rings import FRAC_LAURENT_Q, LAU_ONE, LAURENT_Z, Q, RingElement, RingMap, Z


class GradedModule:
    """Finitely generated free module with named generators and degrees mod 2 or 4."""

    __slots__ = ("ring", "modulus", "gens", "_index", "_hash")

    def __init__(self, ring, modulus, gens):
        if modulus not in (2, 4):
            raise SchemaError(f"grading modulus must be 2 or 4, got {modulus}")
        gens = tuple([(n, d % modulus) for n, d in gens])
        index = {n: i for i, (n, _) in enumerate(gens)}
        if len(index) != len(gens):
            raise SchemaError("generator names must be unique")
        _set_module_ring(self, ring)
        _set_module_modulus(self, modulus)
        _set_module_gens(self, gens)
        _set_module_index(self, index)

    def __setattr__(self, *a):
        raise AttributeError("GradedModule is immutable")

    @property
    def rank(self):
        return len(self.gens)

    def degree(self, i):
        return self.gens[i][1]

    def name(self, i):
        return self.gens[i][0]

    def index(self, name):
        return self._index[name]

    def __contains__(self, name):
        return name in self._index

    def indices_of_degree(self, k):
        k %= self.modulus
        return [i for i, (_, d) in enumerate(self.gens) if d == k]

    def degrees_present(self):
        return sorted({d for _, d in self.gens})

    def shift(self, k, rename=None):
        """Degree shift: generator of degree a moves to a + k (displayed)."""
        rn = rename or (lambda n: n)
        return GradedModule(self.ring, self.modulus, [(rn(n), d + k) for n, d in self.gens])

    def reduce_mod2(self):
        if self.modulus == 2:
            return self
        return GradedModule(self.ring, 2, [(n, d % 2) for n, d in self.gens])

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, GradedModule)
            and self.ring == other.ring
            and self.modulus == other.modulus
            and self.gens == other.gens
        )

    def __hash__(self):
        # computed on first use and kept: `functors.tensor` looks up the
        # product of two modules for every Kronecker block
        try:
            return self._hash
        except AttributeError:
            _set_module_hash(self, hash((self.ring, self.modulus, self.gens)))
            return self._hash

    def __repr__(self):
        return f"GradedModule({self.ring!r}, mod {self.modulus}, {list(self.gens)})"


# the slot setters, bound once: the constructors set slots through these
_set_module_ring = GradedModule.ring.__set__
_set_module_modulus = GradedModule.modulus.__set__
_set_module_gens = GradedModule.gens.__set__
_set_module_index = GradedModule._index.__set__
_set_module_hash = GradedModule._hash.__set__


class GradedMatrix:
    """Sparse degree-homogeneous matrix between graded modules over one ring.

    Entries are stored as {(target_index, source_index): raw value}, each the
    ring's canonical `val` (see `rings.Domain`), with no zeros.  Every entry
    must connect generators whose displayed degrees differ by exactly
    `degree` mod the modulus; the constructor checks this, for the builders
    and for the JSON loader, which hands it raw values parsed once per
    distinct string of the matrix.  `from_named` and `scale` check that the
    ring elements they take are of the matrix's ring.  Ring elements are
    made only where an entry leaves: `entry`, `first_nonzero`,
    `named_triples` and `indexed_triples`.

    Products, sums, negation, `scale`, `map_entries`, `zero` and `identity`
    are in range and homogeneous by construction, so they are built by
    `_new`, which checks nothing and only drops cancelled zeros.

    `__setattr__` raises.  Both constructors fill the four slots through
    the slot descriptors' setters, bound once after the class
    (`_set_source` and the like), which skip `object.__setattr__`'s lookup
    by name: `_new` runs in every product and sum.
    """

    __slots__ = ("source", "target", "degree", "entries")

    def __init__(self, source, target, degree, entries):
        if source.ring != target.ring:
            raise RingMismatch("source and target over different rings")
        if source.modulus != target.modulus:
            raise ShapeMismatch("source and target with different moduli")
        mod = source.modulus
        degree %= mod
        zero = source.ring.domain.zero
        tgens, sgens = target.gens, source.gens
        nt, ns = len(tgens), len(sgens)
        clean = {}
        for (t, s), x in entries.items():
            if x == zero:
                continue
            if not (0 <= t < nt and 0 <= s < ns):
                raise ShapeMismatch(f"entry ({t},{s}) out of range")
            if (tgens[t][1] - sgens[s][1] - degree) % mod != 0:
                raise ShapeMismatch(
                    f"inhomogeneous entry at ({target.name(t)},{source.name(s)}): "
                    f"{target.degree(t)} - {source.degree(s)} != {degree} mod {mod}"
                )
            clean[(t, s)] = x
        _set_source(self, source)
        _set_target(self, target)
        _set_degree(self, degree)
        _set_entries(self, clean)

    @classmethod
    def _new(cls, source, target, degree, entries):
        """The matrix with `entries`, which are in range and homogeneous by
        construction: unchecked, but for dropping the zeros a sum left."""
        zero = source.ring.domain.zero
        if zero in entries.values():
            entries = {k: x for k, x in entries.items() if x != zero}
        m = object.__new__(cls)
        _set_source(m, source)
        _set_target(m, target)
        _set_degree(m, degree % source.modulus)
        _set_entries(m, entries)
        return m

    def __setattr__(self, *a):
        raise AttributeError("GradedMatrix is immutable")

    # -- constructors

    @classmethod
    def zero(cls, source, target, degree):
        return cls._new(source, target, degree, {})

    @classmethod
    def identity(cls, module):
        one = module.ring.domain.one
        return cls._new(module, module, 0, {(i, i): one for i in range(module.rank)})

    @classmethod
    def from_named(cls, source, target, degree, triples):
        """triples: iterable of (target_name, source_name, RingElement); the
        values at one position add."""
        ring = source.ring
        add = ring.domain.add
        ent = {}
        for tn, sn, x in triples:
            if x.ring != ring:
                raise RingMismatch("entry from the wrong ring")
            key = (target.index(tn), source.index(sn))
            cur = ent.get(key)
            ent[key] = x.val if cur is None else add(cur, x.val)
        return cls(source, target, degree, ent)

    @classmethod
    def from_blocks(cls, source, target, degree, *blocks):
        """The matrix with each block (sub, row_offset, col_offset) placed at
        its offsets; where blocks overlap their entries add."""
        add, ent = source.ring.domain.add, {}
        for sub, row_offset, col_offset in blocks:
            if sub.ring != source.ring:
                raise RingMismatch("block from the wrong ring")
            for (t, s), x in sub.entries.items():
                key = (t + row_offset, s + col_offset)
                cur = ent.get(key)
                ent[key] = x if cur is None else add(cur, x)
        return cls(source, target, degree, ent)

    # -- basic algebra

    @property
    def ring(self):
        return self.source.ring

    @property
    def is_zero(self):
        return not self.entries

    def entry(self, t, s):
        ring = self.ring
        return RingElement(ring, self.entries.get((t, s), ring.domain.zero))

    def _combine(self, other, op, alone=None):
        """The matrix with entries op(self's, other's), and other's (through
        `alone`, when given) where self has none, built in one pass."""
        if self.source != other.source or self.target != other.target:
            if self.ring != other.ring:
                raise RingMismatch("sum of matrices over different rings")
            raise ShapeMismatch("sum of matrices with different shapes")
        if self.degree != other.degree and self.entries and other.entries:
            raise ShapeMismatch("sum of matrices with different degrees")
        deg = self.degree if self.entries or not other.entries else other.degree
        ent = dict(self.entries)
        for k, x in other.entries.items():
            y = ent.get(k)
            if y is not None:
                ent[k] = op(y, x)
            else:
                ent[k] = x if alone is None else alone(x)
        return GradedMatrix._new(self.source, self.target, deg, ent)

    def __add__(self, other):
        return self._combine(other, self.ring.domain.add)

    def __neg__(self):
        neg = self.ring.domain.neg
        return GradedMatrix._new(self.source, self.target, self.degree,
                                 {k: neg(v) for k, v in self.entries.items()})

    def __sub__(self, other):
        dom = self.ring.domain
        return self._combine(other, dom.sub, dom.neg)

    def scale(self, c):
        """c times the matrix, for an element c of its ring."""
        if c.ring != self.ring:
            raise RingMismatch("scalar from the wrong ring")
        mul, cv = self.ring.domain.mul, c.val
        return GradedMatrix._new(self.source, self.target, self.degree,
                                 {k: mul(cv, v) for k, v in self.entries.items()})

    def __matmul__(self, other):
        """self after other: requires other.target == self.source."""
        if other.target != self.source:
            raise ShapeMismatch("composition shape mismatch")
        if not self.entries or not other.entries:
            return GradedMatrix._new(other.source, self.target, self.degree + other.degree, {})
        dom = self.ring.domain
        add, mul = dom.add, dom.mul
        by_col = {}
        for (t, s), x in self.entries.items():
            by_col.setdefault(s, []).append((t, x))
        ent = {}
        for (m, s), y in other.entries.items():
            for t, x in by_col.get(m, ()):
                key = (t, s)
                prod = mul(x, y)
                cur = ent.get(key)
                ent[key] = prod if cur is None else add(cur, prod)
        return GradedMatrix._new(other.source, self.target, self.degree + other.degree, ent)

    def power(self, n):
        if self.source != self.target:
            raise ShapeMismatch("powers need a square endomorphism")
        out = GradedMatrix.identity(self.source)
        for _ in range(n):
            out = self @ out
        return out

    def __eq__(self, other):
        return (
            isinstance(other, GradedMatrix)
            and self.source == other.source
            and self.target == other.target
            and self.entries == other.entries
            and (self.degree == other.degree or not self.entries)
        )

    def __hash__(self):
        return hash((self.source, self.target, tuple(sorted(self.entries.items(), key=lambda kv: kv[0]))))

    def first_nonzero(self):
        """Deterministic witness entry, or None."""
        if not self.entries:
            return None
        t, s = min(self.entries)
        return (self.target.name(t), self.source.name(s),
                RingElement(self.ring, self.entries[(t, s)]))

    def map_entries(self, fn, new_source, new_target):
        """fn applied to every raw value (a `RingMap`'s `raw` rule, say), into
        modules with the same degrees; a value sent to zero is dropped."""
        return GradedMatrix._new(new_source, new_target, self.degree,
                                 {k: fn(v) for k, v in self.entries.items()})

    def same_entries_as(self, other):
        """Positional comparison, ignoring generator names."""
        return self.entries == other.entries

    def indexed_triples(self):
        """(target name, source name, element) triples in index order."""
        ring, tn, sn = self.ring, self.target.name, self.source.name
        return [(tn(t), sn(s), RingElement(ring, self.entries[(t, s)]))
                for t, s in sorted(self.entries)]

    def named_triples(self):
        """(target name, source name, element) triples in name order."""
        return sorted(self.indexed_triples())

    def __repr__(self):
        return (f"GradedMatrix({self.source.rank}->{self.target.rank}, deg {self.degree}, "
                f"{len(self.entries)} entries)")


# the slot setters, bound once (see the class docstring)
_set_source = GradedMatrix.source.__set__
_set_target = GradedMatrix.target.__set__
_set_degree = GradedMatrix.degree.__set__
_set_entries = GradedMatrix.entries.__set__


class Sweep:
    """The products a.v^j (v^j.a with `before`) of a block a and a square v,
    for j = 0, 1, 2, ..., read as sweep[j].

    Each term is one product of v with the term before it, made the first
    time it is read, so no power of v is formed.  Once a term is zero every
    later term is that same zero matrix and no product is made.
    """

    __slots__ = ("_v", "_before", "_terms")

    def __init__(self, a, v, before=False):
        self._v = v
        self._before = before
        self._terms = [a]

    def _extend(self):
        last = self._terms[-1]
        self._terms.append(self._v @ last if self._before else last @ self._v)

    def __getitem__(self, j):
        terms = self._terms
        while len(terms) <= j and terms[-1].entries:
            self._extend()
        return terms[min(j, len(terms) - 1)]

    def first_zero(self, limit):
        """The least j <= limit with sweep[j] zero, or limit + 1 if there is
        none.  It makes the products that reading sweep[0..limit] makes: none
        past the first zero term and none past `limit`."""
        terms = self._terms
        for j in range(limit + 1):
            if j == len(terms):  # terms[j - 1] is nonzero
                self._extend()
            if not terms[j].entries:
                return j
        return limit + 1


# ---------------------------------------------------------------------------
# Smith normal form over Z, with unimodular transforms, on sparse rows.


def _add_multiple(row, q, other):
    """row += q * other, on {index: int} dicts, for q != 0; zeros are dropped."""
    for k, y in other.items():
        x = row.get(k, 0) + q * y
        if x:
            row[k] = x
        else:
            del row[k]


def _dense(vec, size, zero=0):
    """The {index: value} vector `vec` as a list of length `size`."""
    out = [zero] * size
    for k, x in vec.items():
        out[k] = x
    return out


def _side_by_side(cols, m):
    """The row dicts of the matrix with m rows whose columns are the
    {index: value} vectors `cols`."""
    rows = [{} for _ in range(m)]
    for j, col in compress(enumerate(cols), cols):  # the empty columns add nothing
        for i, x in col.items():
            rows[i][j] = x
    return rows


def _int_rows(rows):
    """Dense int rows as {column: int} dicts without zeros."""
    cols = range(len(rows[0]) if rows else 0)
    return [dict(zip(compress(cols, row), filter(None, row))) for row in rows]


class SmithForm:
    """U A V = D for an m x n int matrix A, held sparse.

    `diag` is the first min(m, n) diagonal entries of D.  `u` maps a row
    index to that row of U as a {column: int} dict, and `v` maps a column
    index to that column of V as a {row: int} dict, but only for the rows
    and columns an elimination step touched: every other row of U, and
    column of V, is that of the identity.  `u_row` and `v_col` read through
    that rule.  Iterating yields the dense D, U and V, so
    `D, U, V = smith_normal_form(rows)`.
    """

    __slots__ = ("m", "n", "diag", "u", "v")

    def __init__(self, m, n, diag, u, v):
        self.m, self.n, self.diag, self.u, self.v = m, n, diag, u, v

    def u_row(self, i):
        return _entry(self.u, i)

    def v_col(self, j):
        return _entry(self.v, j)

    def __iter__(self):
        m, n = self.m, self.n
        d = [[0] * n for _ in range(m)]
        for i, x in enumerate(self.diag):
            d[i][i] = x
        yield d
        yield [_dense(self.u_row(i), m) for i in range(m)]
        v = [[0] * n for _ in range(n)]
        for j in range(n):
            for k, x in self.v_col(j).items():
                v[k][j] = x
        yield v


def _entry(tr, i):
    """Entry i of a transform held as {index: vector}: the stored vector,
    or the identity's."""
    vec = tr.get(i)
    return {i: 1} if vec is None else vec


def _touch(tr, i):
    """Entry i of a transform held as {index: vector}, stored from the
    identity's the first time an operation changes it."""
    vec = tr.get(i)
    if vec is None:
        vec = tr[i] = {i: 1}
    return vec


def _swap(tr, i, j):
    """Swap entries i and j of a transform held as {index: vector}."""
    if i != j:
        x, y = tr.pop(i, None), tr.pop(j, None)
        tr[i] = {j: 1} if y is None else y
        tr[j] = {i: 1} if x is None else x


def smith_normal_form(rows):
    """Smith normal form of a dense int matrix A (m x n): the `SmithForm`
    of `smith_form`, which unpacks as the dense D, U and V."""
    return smith_form(_int_rows(rows), len(rows[0]) if rows else 0)


def smith_form(a, n):
    """Smith normal form of the m x n int matrix whose rows are the
    {column: nonzero int} dicts of `a` (left unchanged): a `SmithForm` with
    U A V = D, U and V unimodular, D diagonal with nonnegative entries
    satisfying d_i | d_{i+1}.  U A V = D is checked at every entry before
    returning (see `_check_snf`).

    Pivot choice is the minimal absolute value with ties broken by
    (row, col), so the transforms are reproducible.  Rows t.. hold no
    column below t while step t runs, so a column operation only visits the
    rows that hold the pivot column, and a row without entries takes part in
    no step.  A row of U, or a column of V, is stored only once a swap or
    an operation changes it.  So the work follows the nonzero entries, not
    the m + n rows and columns of the identity.
    """
    m = len(a)
    rows = list(map(dict, a))
    u, v = {}, {}

    def held(start):
        """The indices of the rows from `start` on that hold an entry, in order."""
        return compress(range(start, m), rows[start:])

    t = 0  # after the loop, rows[i] == {i: d_i} for i < t and every later d_i is zero
    while t < min(m, n):
        best = pivot = None
        for i in held(t):
            row = rows[i]
            low = min(map(abs, row.values()))
            if best is None or low < best:
                best, pivot = low, (i, min(j for j, x in row.items() if abs(x) == low))
                if low == 1:  # no later row can beat a unit
                    break
        if pivot is None:
            break
        pi, pj = pivot
        rows[t], rows[pi] = rows[pi], rows[t]
        _swap(u, t, pi)
        if pj != t:
            for i in held(t):
                row = rows[i]
                x, y = row.pop(t, None), row.pop(pj, None)
                if y is not None:
                    row[t] = y
                if x is not None:
                    row[pj] = x
            _swap(v, t, pj)
        prow, p = rows[t], rows[t][t]
        dirty = False
        holders = [t]  # the rows that hold column t once the rows below are reduced
        ut = _entry(u, t)  # row t of U and column t of V stay as they are in this step
        for i in held(t + 1):
            x = rows[i].get(t)
            if x:
                q, rem = divmod(x, p)
                _add_multiple(rows[i], -q, prow)
                _add_multiple(_touch(u, i), -q, ut)
                if rem:
                    dirty = True
                    holders.append(i)
        vt = _entry(v, t)
        for j, x in [(j, x) for j, x in prow.items() if j != t]:
            q, rem = divmod(x, p)
            for i in holders:
                row = rows[i]
                y = row.get(j, 0) - q * row[t]
                if y:
                    row[j] = y
                else:
                    del row[j]
            _add_multiple(_touch(v, j), -q, vt)
            if rem:
                dirty = True
        if dirty:  # a remainder is left in row or column t
            continue
        # divisibility: fold the first row below holding a non-multiple into the pivot row
        bad = None
        if abs(p) != 1:
            bad = next((i for i in held(t + 1) if any(x % p for x in rows[i].values())), None)
        if bad is not None:
            _add_multiple(prow, 1, rows[bad])
            _add_multiple(_touch(u, t), 1, _entry(u, bad))
            continue
        if p < 0:
            prow[t] = -p
            u[t] = {k: -x for k, x in _entry(u, t).items()}
        t += 1
    diag = [rows[i].get(i, 0) for i in range(t)]
    _check_snf(a, n, {i: {i: x} for i, x in enumerate(diag)}, u, v)
    return SmithForm(m, n, diag + [0] * (min(m, n) - t), u, v)


def _snf_check_failed(where):
    raise AssertionError(f"Smith normal form transform check failed at {where}")


def _check_snf(a, n, d, u, v):
    """Check U A V = D at every entry, then the order and divisibility of
    D's diagonal.  A is m row dicts {column: int} with n columns; D is
    {row: {column: int}}, its rows that hold an entry; U is
    {row: {column: int}} and V is {column: {row: int}}, their stored rows
    and columns, every other one being the identity's.

    Row i of U A V is formed when U's row i is stored, A's row i holds an
    entry or D's row i does.  Every other row of U A V is the identity's
    row times an empty row of A, so it is zero, and D's row is zero there
    too: every entry of the product is compared with D.  The products are
    formed over nonzero entries only.  A stored row or column of U, V or D,
    or an entry of U or V, whose index lies outside the matrix fails the
    check.
    """
    m = len(a)
    v_rows = {}  # the stored columns of V, by row
    for j, col in v.items():
        if not 0 <= j < n:
            _snf_check_failed(f"V column {j}")
        for k, x in col.items():
            if not 0 <= k < n:
                _snf_check_failed(f"V entry ({k}, {j})")
            if x:
                v_rows.setdefault(k, {})[j] = x
    formed = set(compress(range(m), a))
    formed.update(u, d)
    for i in sorted(formed):
        if not 0 <= i < m:
            _snf_check_failed(f"row {i} of U or D")
        u_row = u.get(i)
        ua = {}
        for k, c in ((i, 1),) if u_row is None else u_row.items():
            if not 0 <= k < m:
                _snf_check_failed(f"U entry ({i}, {k})")
            if c:
                for j, x in a[k].items():
                    ua[j] = ua.get(j, 0) + c * x
        uav = {}
        for k, c in ua.items():
            if c:
                if k not in v:  # V's column k is the identity's
                    uav[k] = uav.get(k, 0) + c
                if k in v_rows:
                    for j, x in v_rows[k].items():
                        uav[j] = uav.get(j, 0) + c * x
        got = {j: x for j, x in uav.items() if x}
        want = {j: x for j, x in d.get(i, {}).items() if x}
        if got != want:  # an entry of D outside the n columns is caught here too
            _snf_check_failed(
                f"entry ({i}, {min(j for j in got.keys() | want.keys() if got.get(j) != want.get(j))})")
    # past D's last row that holds an entry the diagonal is zero, where
    # neither check below can fail
    diag = [d[i].get(i, 0) if i in d else 0 for i in range(min(m, n, max(d, default=-1) + 1))]
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("Smith normal form ordering failed")
        if x != 0 and y % x != 0:
            raise AssertionError("Smith normal form divisibility failed")


def _snf_kernel(snf):
    """A basis of ker A from A's Smith form: the columns of V with d_j = 0,
    as {index: int} vectors; a saturated lattice."""
    rank = len(snf.diag) - snf.diag.count(0)  # the nonzero d_j come first
    v = snf.v
    return [v[j] if j in v else {j: 1} for j in range(rank, snf.n)]


def _snf_solve(snf, rhs):
    """One x with A x = rhs from A's Smith form, or None; rhs and x are
    {index: int} vectors."""
    diag, x = snf.diag, {}
    for i in snf.u.keys() | rhs.keys():  # c_i = (U rhs)_i is zero elsewhere
        row = snf.u.get(i)
        c = rhs.get(i, 0) if row is None else sum(y * rhs.get(k, 0) for k, y in row.items())
        if c:
            di = diag[i] if i < len(diag) else 0
            if di == 0 or c % di:
                return None
            _add_multiple(x, c // di, snf.v_col(i))  # y_i = c / d_i, and x = V y
    return x


def _hermite(vecs):
    """The row Hermite normal form of the lattice the {index: int} vectors
    `vecs` (left unchanged) span: its nonzero rows, which are a basis of
    the lattice.  Their first columns, the pivots, ascend, each pivot is
    positive, and each entry above a pivot, in its column, lies in
    [0, pivot).  Every lattice has exactly one basis of that form (Cohen,
    A Course in Computational Algebraic Number Theory, GTM 138, section
    2.4.2), so two sets of vectors span one lattice iff their forms are
    equal.

    Made by unimodular row operations on the sparse rows, with no
    transforms, one column at a time from the least column any row holds:
    the rows that hold it are reduced by the one whose entry there is least
    in absolute value until one of them is left, which becomes the next
    row of the form.  Its sign is fixed and the rows above are reduced at
    its column.  Reducing by the least entry keeps the entries small;
    adding one vector at a time by extended-gcd steps lets them grow far
    larger on rank-deficient sets.
    """
    rows = [dict(vec) for vec in vecs if vec]
    out = []
    while rows:
        c = min(map(min, rows))
        hold = [row for row in rows if c in row]
        rows = [row for row in rows if c not in row]
        while len(hold) > 1:
            prow = min(hold, key=lambda row: abs(row[c]))
            p = prow[c]
            left = [prow]
            for row in hold:
                if row is not prow:  # |row[c]| >= |p|, so the quotient is not zero
                    _add_multiple(row, -(row[c] // p), prow)
                    if c in row:
                        left.append(row)
                    elif row:
                        rows.append(row)
            hold = left
        prow = hold[0]
        if prow[c] < 0:
            prow = {k: -y for k, y in prow.items()}
        for above in out:  # the rows still to come hold nothing at column c
            q = above.get(c, 0) // prow[c]
            if q:
                _add_multiple(above, -q, prow)
        out.append(prow)
    return out


class _IntEchelon:
    """{index: int} vectors taken in one at a time: the stored rows are a
    semi-echelon basis over Q of the vectors added so far, and `rank` is
    their number.  Each stored row has a positive pivot, is zero at the
    pivots of the rows stored before it, and is primitive (the gcd of its
    entries is 1); it is kept as (pivot column, pivot, the other entries).

    `add` reduces a copy of the vector by the stored rows in order, by
    cross-multiplication with gcd(pivot, entry) taken out first, and stores
    what is left, if anything, divided by its content, with its pivot at
    its least entry in absolute value.  A stored row is then a primitive
    vector of minors, within Hadamard's bound.  Without the gcd and the
    content, fraction-free reduction lets the entries grow without bound:
    on 20 random rows of length 20 with entries in [-5, 5] they reached
    288,906 bits, against 49."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Take in `vec` (left unchanged); whether the rank grew."""
        if not vec:
            return False
        vec = dict(vec)
        for c, p, rest in self.rows:
            f = vec.pop(c, 0)
            if f:
                g = gcd(p, f)
                if g != p:
                    a = p // g
                    for k in vec:
                        vec[k] *= a
                _add_multiple(vec, -(f // g), rest)
                if not vec:
                    return False
        c = min(vec, key=lambda k: abs(vec[k]))
        g = gcd(*vec.values())
        if vec[c] < 0:
            g = -g
        p = vec.pop(c) // g
        self.rows.append((c, p, {k: y // g for k, y in vec.items()}))
        return True


class _SmithElimination:
    """The elimination over Z: one `smith_form` per call, but for
    `canonical`, which is the Hermite normal form.  Its `field`, for
    `HomologyMaps`, is Q.  `diagonal` is the nonzero Smith diagonal."""

    field = Q

    @staticmethod
    def to_field(vec, _from_int=Q.domain.from_int):
        return {k: _from_int(x) for k, x in vec.items()}

    def kernel(self, a, n):
        return _snf_kernel(smith_form(a, n))

    def solve(self, a, rhs, n):
        return _snf_solve(smith_form(a, n), rhs)

    def basis(self, cols, n):
        """The A v_j for the columns v_j of V with d_j != 0; A has the columns `cols`."""
        snf = smith_form(_side_by_side(cols, n), len(cols))
        basis = []
        for j, dj in enumerate(snf.diag):
            if dj:
                vec = {}
                for k, x in snf.v_col(j).items():
                    _add_multiple(vec, x, cols[k])
                basis.append(vec)
        return basis

    @staticmethod
    def canonical(vecs, n):
        """The row Hermite normal form of the lattice the vectors span."""
        return _hermite(vecs)

    def diagonal(self, a, n):
        return [x for x in smith_form(a, n).diag if x]

    @staticmethod
    def echelon():
        """An empty `_IntEchelon`: rank over Z is rank over Q."""
        return _IntEchelon()


def int_kernel_basis(rows, ncols=None):
    """Basis (list of int column vectors) of ker over Z of a dense int
    matrix; a saturated lattice."""
    n = len(rows[0]) if rows else (ncols or 0)
    snf = smith_normal_form(rows) if rows else smith_form([], n)
    return [_dense(vec, n) for vec in _snf_kernel(snf)]


# ---------------------------------------------------------------------------
# Linear algebra over a field (Q, Z/p, Q(T)), on sparse rows of raw values
# (see `rings.Domain`).


def _add_field_multiple(row, f, other, dom):
    """row += f * other on {index: raw value} dicts over the field whose
    domain is `dom`, for f != 0; zeros are dropped."""
    zero, add, mul = dom.zero, dom.add, dom.mul
    for k, y in other.items():
        x = row.get(k)
        x = mul(f, y) if x is None else add(x, mul(f, y))
        if x == zero:
            del row[k]
        else:
            row[k] = x


class _FieldEchelon:
    """{index: raw value} vectors over a field taken in one at a time: the
    stored rows are a semi-echelon basis of the vectors added so far, and
    `rank` is their number.  Each stored row has its pivot at its least
    column, set to one, and is zero at the pivots of the rows stored before
    it; it is kept as (pivot column, the other entries).  So the pivots are
    the leading columns of the span, the pivot columns of its reduced row
    echelon form.  `add` reduces a copy of the vector by the stored rows in
    order and stores what is left, if anything; `reduced` gives the reduced
    row echelon form."""

    __slots__ = ("dom", "rows")

    def __init__(self, dom):
        self.dom = dom
        self.rows = []

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Take in `vec` (left unchanged); whether the rank grew."""
        if not vec:
            return False
        dom = self.dom
        vec = dict(vec)
        for c, rest in self.rows:
            if c in vec:
                _add_field_multiple(vec, dom.neg(vec.pop(c)), rest, dom)
                if not vec:
                    return False
        c = min(vec)
        p = vec.pop(c)
        if p != dom.one:
            iv, mul = dom.inv(p), dom.mul
            vec = {k: mul(x, iv) for k, x in vec.items()}
        self.rows.append((c, vec))
        return True

    def reduced(self):
        """The reduced row echelon form of the span: its rows in pivot
        order, each with its pivot, and the pivot columns.

        The stored rows are back-substituted from the last: each is zero at
        the pivots stored before it, so clearing it at the pivots stored
        after it, by their reduced rows, leaves it zero at every pivot but
        its own.  A vector of the span is fixed by its entries at the
        pivots, so these are the span's reduced echelon rows."""
        dom = self.dom
        one, neg = dom.one, dom.neg
        done = {}  # pivot column -> its reduced row without the pivot
        for c, rest in reversed(self.rows):
            later = [k for k in rest if k in done]
            if later:
                rest = dict(rest)
                for k in later:
                    _add_field_multiple(rest, neg(rest.pop(k)), done[k], dom)
            done[c] = rest
        pivots = sorted(done)
        return [{c: one, **done[c]} for c in pivots], pivots


def _field_echelon(vecs, dom):
    """A `_FieldEchelon` over `dom` that has taken in the vectors `vecs`."""
    ech = _FieldEchelon(dom)
    for vec in vecs:
        ech.add(vec)
    return ech


class _FieldElimination:
    """The elimination over a field: one `_FieldEchelon` per call, which
    takes the vectors it is given in and leaves them unchanged.  The field
    is its own `field`."""

    def __init__(self, field):
        self.field, self.dom = field, field.domain

    @staticmethod
    def to_field(vec):
        return vec

    def kernel(self, a, n):
        """One vector per free column, read from the reduced rows."""
        one, neg = self.dom.one, self.dom.neg
        rr, piv = _field_echelon(a, self.dom).reduced()
        pivset = set(piv)
        basis = {fc: {fc: one} for fc in range(n) if fc not in pivset}
        for row, pc in zip(rr, piv):
            for k, x in row.items():
                if k != pc:  # a free column: the other pivot columns are zero here
                    basis[k][pc] = neg(x)
        return list(basis.values())

    def solve(self, a, rhs, n):
        """rhs's entries join the rows of `a` as column n."""
        rr, piv = _field_echelon((row if i not in rhs else {**row, n: rhs[i]}
                                  for i, row in enumerate(a)), self.dom).reduced()
        if piv and piv[-1] == n:  # the pivots ascend
            return None
        return {pc: row[n] for row, pc in zip(rr, piv) if n in row}

    def basis(self, cols, n):
        """The pivot columns: the columns outside the span of those before."""
        ech = self.echelon()
        return [col for col in cols if ech.add(col)]

    def canonical(self, vecs, n):
        """The reduced row echelon form with the vectors as rows, without
        its zero rows: the reduced echelon basis of their span."""
        return _field_echelon(vecs, self.dom).reduced()[0]

    def diagonal(self, a, n):
        """One 1 per pivot."""
        return [1] * _field_echelon(a, self.dom).rank

    def echelon(self):
        """An empty `_FieldEchelon` over the field."""
        return _FieldEchelon(self.dom)


def field_rref(rows, ring):
    """Reduced row echelon form of dense rows of ring elements: (rref rows,
    pivot column list), by `_FieldEchelon.reduced`."""
    rr, pivots = _field_echelon(raw_vectors(rows, ring), ring.domain).reduced()
    n = len(rows[0]) if rows else 0
    return boxed(rr + [{}] * (len(rows) - len(rr)), n, ring), pivots


def field_kernel_basis(rows, ring, ncols=None):
    """Basis of the kernel of dense rows of ring elements, as dense vectors
    of ring elements."""
    n = len(rows[0]) if rows else (ncols or 0)
    return boxed(sparse_kernel_basis(raw_vectors(rows, ring), n, ring), n, ring)


# ---------------------------------------------------------------------------
# Exact linear algebra over Z or a field, on raw values for every ring: a
# vector is an {index: nonzero raw value} dict and a matrix a list of
# {column: nonzero raw value} rows, each passed with its length n.  The ring
# decides only which elimination runs, once, in `ELIMINATIONS`: Z maps to
# the Smith form, each field to `_FieldEchelon` over its domain, Z[T^{+-1}]
# to None.
# Each offers `kernel`, `solve`, `basis`, `canonical`, `diagonal`,
# `echelon`, `field` and `to_field`; `canonical` is the one basis of a span
# in canonical form, the Hermite normal form over Z and the reduced echelon
# rows over a field, and `echelon` an empty incremental echelon, which
# takes vectors in one at a time and counts the rank.
# Ring elements are made, by `boxed`, only for a result that leaves the
# library.


class _Eliminations(dict):
    """ring -> its elimination, or None; a prime field is entered on its
    first lookup."""

    def __missing__(self, ring):
        elim = self[ring] = _FieldElimination(ring) if ring.is_field else None
        return elim


ELIMINATIONS = _Eliminations({Z: _SmithElimination(), Q: _FieldElimination(Q),
                              FRAC_LAURENT_Q: _FieldElimination(FRAC_LAURENT_Q), LAURENT_Z: None})


def boxed(vecs, n, ring):
    """The {index: raw value} vectors `vecs` as lists of n elements of `ring`."""
    zero = ring.zero()
    return [_dense({k: RingElement(ring, x) for k, x in vec.items()}, n, zero) for vec in vecs]


def raw_vectors(vecs, ring):
    """Dense vectors of ring elements as {index: nonzero raw value} vectors."""
    zero = ring.domain.zero
    return [{i: x.val for i, x in enumerate(vec) if x.val != zero} for vec in vecs]


def raw_rows(m):
    """m's rows as {column: raw value} dicts."""
    rows = [{} for _ in range(m.target.rank)]
    for (t, s), x in m.entries.items():
        rows[t][s] = x
    return rows


def raw_cols(m):
    """m's columns as {row: raw value} vectors."""
    cols = [{} for _ in range(m.source.rank)]
    for (t, s), x in m.entries.items():
        cols[s][t] = x
    return cols


def apply(m, vecs):
    """m applied to each {index: raw value} vector of `vecs`."""
    dom = m.ring.domain
    zero, add, mul = dom.zero, dom.add, dom.mul
    by_source = {}
    for (t, s), x in m.entries.items():
        by_source.setdefault(s, []).append((t, x))
    out = []
    for vec in vecs:
        col = {}
        for s, y in vec.items():
            for t, x in by_source.get(s, ()):
                cur = col.get(t)
                col[t] = mul(x, y) if cur is None else add(cur, mul(x, y))
        if zero in col.values():  # only a sum cancels: the rings have no zero divisors
            col = {t: x for t, x in col.items() if x != zero}
        out.append(col)
    return out


def sparse_kernel_basis(a, n, ring):
    """Basis of the kernel of the matrix with n columns and rows `a`, as
    {index: raw value} vectors (a saturated lattice over Z); `a` is left
    unchanged.  Read only: a vector may be held by the elimination's
    result.

    A matrix without entries is not eliminated: its kernel basis is the
    unit vectors in order, which is what both eliminations return for it
    (no pivot, so every column is free and V is the identity)."""
    if not any(a):
        one = ring.domain.one
        return [{j: one} for j in range(n)]
    return ELIMINATIONS[ring].kernel(a, n)


def column_basis(cols, n, ring):
    """Basis of the lattice (over Z) or the space spanned by the vectors
    `cols` of length n, by the ring's elimination (`basis`).

    Without elimination when at most one column is nonzero: that column
    (if any) is the basis either way.  Over a field it is the one pivot
    column; over Z the Smith form's only column operation swaps it to the
    front, so V's first column is its unit vector, and every other d_j is
    zero."""
    nonzero = [col for col in cols if col]
    if len(nonzero) <= 1:
        return [dict(col) for col in nonzero]
    return ELIMINATIONS[ring].basis(cols, n)


def span_contains(basis, vec, n, ring):
    """Whether the vector `vec` of length n lies in the span of `basis`."""
    return ELIMINATIONS[ring].solve(_side_by_side(basis, n), vec, len(basis)) is not None


def spans_equal(cols_a, cols_b, n, ring):
    """Whether two sets of vectors of length n span the same lattice or
    space: whether their canonical forms (`canonical`) are equal.

    A lattice in Z^n has exactly one basis in row Hermite normal form, and
    a subspace of F^n exactly one in reduced row echelon form, so the two
    spans are equal iff those bases are: no basis of either side is solved
    for in the other."""
    canonical = ELIMINATIONS[ring].canonical
    return canonical(cols_a, n) == canonical(cols_b, n)


def is_invertible(m):
    """Whether m is square and invertible over its own ring.

    Over Z and a field that means its rows span the whole free module, so
    their canonical form (`canonical`) is the identity's rows.  Over
    Z[T^{+-1}] it means invertible over Q(T) with an inverse whose entries
    are Laurent polynomials, i.e. have denominator 1.
    """
    n = m.source.rank
    if m.target.rank != n:
        return False
    ring = m.ring
    if ring == LAURENT_Z:
        to_frac = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q).raw
        one = FRAC_LAURENT_Q.domain.one
        aug = [{n + t: one} for t in range(n)]
        for (t, s), x in m.entries.items():
            aug[t][s] = to_frac(x)
        rr = ELIMINATIONS[FRAC_LAURENT_Q].canonical(aug, 2 * n)
        return ([min(row) for row in rr] == list(range(n))
                and all(x[1] == LAU_ONE for row in rr for x in row.values()))
    one = ring.domain.one
    return ELIMINATIONS[ring].canonical(raw_rows(m), n) == [{i: one} for i in range(n)]


# ---------------------------------------------------------------------------
# Homology of a two-step complex  d_in : A -> B,  d_out : B -> C.


class GradedHomology:
    """Free ranks (and torsion, over Z) of homology per degree class."""

    def __init__(self, modulus, table):
        self.modulus = modulus
        self.table = {d % modulus: (f, tuple(t)) for d, (f, t) in table.items() if f or t}

    def free_rank(self, degree):
        return self.table.get(degree % self.modulus, (0, ()))[0]

    def torsion(self, degree):
        return self.table.get(degree % self.modulus, (0, ()))[1]

    @property
    def total_rank(self):
        return sum(f for f, _ in self.table.values())

    def ranks_by_degree(self):
        return {d: f for d, (f, _) in sorted(self.table.items()) if f}

    def euler(self):
        """Alternating sum of free ranks by mod-2 degree."""
        return sum(f if d % 2 == 0 else -f for d, (f, _) in self.table.items())

    def shifted(self, k):
        return GradedHomology(self.modulus,
                              {(d + k) % self.modulus: v for d, v in self.table.items()})

    def same_ranks(self, other):
        return self.modulus == other.modulus and self.ranks_by_degree() == other.ranks_by_degree()

    def __eq__(self, other):
        return (isinstance(other, GradedHomology)
                and self.modulus == other.modulus and self.table == other.table)

    def __repr__(self):
        if not self.table:
            return "H = 0"
        bits = []
        for d, (f, tor) in sorted(self.table.items()):
            s = f"deg {d}: rank {f}"
            if tor:
                s += " + " + " + ".join(f"Z/{t}" for t in tor)
            bits.append(s)
        return "H { " + "; ".join(bits) + " }"


def _homology_elimination(ring):
    """The ring's elimination; homology over a ring without one is refused."""
    elim = ELIMINATIONS[ring]
    if elim is None:
        raise UnsupportedRingForHomology(
            f"homology over {ring!r} is refused; base-change to Z or a field first"
        )
    return elim


def _degree_blocks(m, elim):
    """{k: nonzero Smith diagonal} of the block of m on the source
    generators of degree k, for each k at which m holds an entry; its
    length is the block's rank.  Each block is eliminated once by `elim`,
    as its list of nonzero columns (a matrix and its transpose share rank
    and Smith diagonal)."""
    blocks = {}
    for (t, s), x in m.entries.items():
        blocks.setdefault(m.source.degree(s), {}).setdefault(s, {})[t] = x
    return {k: elim.diagonal(list(c.values()), m.target.rank) for k, c in blocks.items()}


def homology_of_pair(d_in, d_out):
    """ker(d_out)/im(d_in) per degree k of the middle module B, for
    d_out . d_in = 0 over Z or a field.  With n_k generators in B_k, r_out
    the rank of d_out on B_k and r_in that of d_in into B_k, the free rank
    is n_k - r_out - r_in; over Z the torsion is the Smith diagonal entries
    > 1 of d_in into B_k.

    Proof of the torsion: B_k / ker d_out embeds in the free target of
    d_out, so it is free and ker d_out is a direct summand, B_k = ker + W.
    im d_in lies in ker d_out, so B_k / im d_in = ker/im + W with W free:
    ker/im and B_k / im d_in, the cokernel of d_in into B_k, have the same
    torsion (Munkres, Elements of Algebraic Topology, section 11).

    `_degree_blocks` eliminates each block once; when d_out is d_in, the
    block of d on B_k serves as d_out at k and as d_in at k + deg d.
    """
    if d_in.target != d_out.source:
        raise ShapeMismatch("middle modules disagree")
    elim = _homology_elimination(d_in.ring)
    off = (d_out @ d_in).first_nonzero()
    if off is not None:
        what = "the differential does not square" if d_in is d_out else "the maps do not compose"
        raise NotAComplex(f"{what} to zero (first offender {off[0]} <- {off[1]}: {off[2]})")
    mid = d_in.target
    out_blocks = _degree_blocks(d_out, elim)
    in_blocks = out_blocks if d_in is d_out else _degree_blocks(d_in, elim)
    table = {}  # GradedHomology drops the degrees where H = 0
    for k, n in sorted(Counter(k for _, k in mid.gens).items()):
        diag = in_blocks.get((k - d_in.degree) % mid.modulus, ())
        table[k] = (n - len(out_blocks.get(k, ())) - len(diag), [x for x in diag if x > 1])
    return GradedHomology(mid.modulus, table)


def exactness_at(d_prev, f, g, d_next, d_mid):
    """Whether im(H(f)) = ker(H(g)) at the middle homology of a three-term
    piece  A --f--> B --g--> C  of chain complexes with differentials
    d_prev (on A), d_mid (on B), d_next (on C).

    It holds iff the lattice (over Z) or space (over a field) L1 of the
    cycles z of B with g z a boundary equals L2 = f(cycles of A) +
    boundaries of B.  The two are compared by `spans_equal`, by their
    canonical forms: the Hermite normal form over Z and the reduced echelon
    rows over a field, each the one basis of its form that the span has.
    """
    ring = f.ring
    _homology_elimination(ring)
    nb = d_mid.source.rank
    neg = ring.domain.neg
    # L1 = { z in ker d_mid : g z in im d_next }, from the kernel of
    # [[d_mid, 0], [g, -d_next]]
    stacked = raw_rows(d_mid) + raw_rows(g)
    for (t, s), x in d_next.entries.items():
        stacked[d_mid.target.rank + t][nb + s] = neg(x)
    l1_cols = [{k: x for k, x in v.items() if k < nb}
               for v in sparse_kernel_basis(stacked, nb + d_next.source.rank, ring)]
    # L2 = f(ker d_prev) + im(d_mid)
    ka = sparse_kernel_basis(raw_rows(d_prev), d_prev.source.rank, ring)
    l2_cols = apply(f, ka) + [c for c in raw_cols(d_mid) if c]
    return spans_equal(l1_cols, l2_cols, nb, ring)


# ---------------------------------------------------------------------------
# Induced maps of chain maps on homology, over a field or (free part) over Z.


class HomologyMaps:
    """Induced maps on H(B, d) for chain maps into/out of the complex.

    Over a field this is the honest induced map in a chosen homology basis.
    Over Z it is the map on the free part, read over Q: the representatives
    are integer cycles, independent over Q modulo boundaries, and class
    coordinates are rational.  Every vector is an {index: raw value} dict:
    `reps` over the ring, `boundaries`, `_field_reps` and class coordinates
    over the field.
    """

    def __init__(self, d_mid):
        self.ring = ring = d_mid.ring
        self.module = d_mid.source
        elim = _homology_elimination(ring)
        self.field, self._lift = elim.field, elim.to_field
        n = self.module.rank
        kern = sparse_kernel_basis(raw_rows(d_mid), n, ring)
        field_kern = list(map(self._lift, kern))
        # boundaries live in the same module only when d is an endomorphism
        img = [self._lift(c) for c in raw_cols(d_mid) if c] if d_mid.target == self.module else []
        # one echelon over the field takes in the image columns, then the
        # kernel vectors: the boundaries are the image columns outside the
        # span of those before them, and a kernel vector is a representative
        # iff it is outside the span of the boundaries and the kernel vectors
        # before it
        ech = ELIMINATIONS[self.field].echelon()
        self.boundaries = [c for c in img if ech.add(c)]
        chosen = [j for j, vec in enumerate(field_kern) if ech.add(vec)]
        self.reps = [kern[j] for j in chosen]
        self._field_reps = [field_kern[j] for j in chosen]

    @property
    def rank(self):
        return len(self.reps)

    def class_coords(self, vec):
        """Coordinates of the class of the cycle `vec` (over the ring) in the
        chosen representative basis, over the field (over Q for Z)."""
        cols, n = self.boundaries + self._field_reps, self.module.rank
        sol = ELIMINATIONS[self.field].solve(_side_by_side(cols, n), self._lift(vec), len(cols))
        if sol is None:
            raise NotAComplex("vector is not a cycle class")
        nb = len(self.boundaries)
        return {j - nb: x for j, x in sol.items() if j >= nb}
