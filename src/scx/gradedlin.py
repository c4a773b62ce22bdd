"""Graded free modules, sparse homogeneous matrices, Smith normal form and
homology of two-step complexes over Z or a field."""

from __future__ import annotations

from itertools import compress

from .errors import (
    NotAComplex,
    RingMismatch,
    SchemaError,
    ShapeMismatch,
    UnsupportedRingForHomology,
)
from .rings import FRAC_LAURENT_Q, LAU_ONE, LAURENT_Z, Q, RingMap, Z


class GradedModule:
    """Finitely generated free module with named generators and degrees mod 2 or 4."""

    __slots__ = ("ring", "modulus", "gens", "_index")

    def __init__(self, ring, modulus, gens):
        if modulus not in (2, 4):
            raise SchemaError(f"grading modulus must be 2 or 4, got {modulus}")
        names = [n for n, _ in gens]
        if len(set(names)) != len(names):
            raise SchemaError("generator names must be unique")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "gens", tuple((n, d % modulus) for n, d in gens))
        object.__setattr__(self, "_index", {n: i for i, (n, _) in enumerate(self.gens)})

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
        return (
            isinstance(other, GradedModule)
            and self.ring == other.ring
            and self.modulus == other.modulus
            and self.gens == other.gens
        )

    def __hash__(self):
        return hash((self.ring, self.modulus, self.gens))

    def __repr__(self):
        return f"GradedModule({self.ring!r}, mod {self.modulus}, {list(self.gens)})"


class GradedMatrix:
    """Sparse degree-homogeneous matrix between graded modules over one ring.

    Entries are stored as {(target_index, source_index): RingElement} with no
    zeros.  Every entry must connect generators whose displayed degrees differ
    by exactly `degree` mod the modulus; this is checked at construction.
    """

    __slots__ = ("source", "target", "degree", "entries")

    def __init__(self, source, target, degree, entries):
        if source.ring != target.ring:
            raise RingMismatch("source and target over different rings")
        if source.modulus != target.modulus:
            raise ShapeMismatch("source and target with different moduli")
        mod = source.modulus
        degree %= mod
        clean = {}
        for (t, s), x in entries.items():
            if x.ring != source.ring:
                raise RingMismatch("entry from the wrong ring")
            if x.is_zero:
                continue
            if not (0 <= t < target.rank and 0 <= s < source.rank):
                raise ShapeMismatch(f"entry ({t},{s}) out of range")
            if (target.degree(t) - source.degree(s) - degree) % mod != 0:
                raise ShapeMismatch(
                    f"inhomogeneous entry at ({target.name(t)},{source.name(s)}): "
                    f"{target.degree(t)} - {source.degree(s)} != {degree} mod {mod}"
                )
            clean[(t, s)] = x
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, *a):
        raise AttributeError("GradedMatrix is immutable")

    # -- constructors

    @classmethod
    def zero(cls, source, target, degree):
        return cls(source, target, degree, {})

    @classmethod
    def identity(cls, module):
        one = module.ring.one()
        return cls(module, module, 0, {(i, i): one for i in range(module.rank)})

    @classmethod
    def from_named(cls, source, target, degree, triples):
        """triples: iterable of (target_name, source_name, RingElement)."""
        ent = {}
        for tn, sn, x in triples:
            key = (target.index(tn), source.index(sn))
            ent[key] = ent.get(key, x.ring.zero()) + x if key in ent else x
        return cls(source, target, degree, ent)

    @classmethod
    def from_blocks(cls, source, target, degree, *blocks):
        """The matrix with each block (sub, row_offset, col_offset) placed at
        its offsets; where blocks overlap their entries add."""
        ent = {}
        for sub, row_offset, col_offset in blocks:
            for (t, s), x in sub.entries.items():
                key = (t + row_offset, s + col_offset)
                cur = ent.get(key)
                ent[key] = x if cur is None else cur + x
        return cls(source, target, degree, ent)

    # -- basic algebra

    @property
    def ring(self):
        return self.source.ring

    @property
    def is_zero(self):
        return not self.entries

    def entry(self, t, s):
        return self.entries.get((t, s), self.ring.zero())

    def __add__(self, other):
        if self.source != other.source or self.target != other.target:
            raise ShapeMismatch("sum of matrices with different shapes")
        if self.degree != other.degree and self.entries and other.entries:
            raise ShapeMismatch("sum of matrices with different degrees")
        deg = self.degree if self.entries or not other.entries else other.degree
        ent = dict(self.entries)
        for k, x in other.entries.items():
            y = ent.get(k)
            ent[k] = x if y is None else x + y
        return GradedMatrix(self.source, self.target, deg, ent)

    def __neg__(self):
        return GradedMatrix(self.source, self.target, self.degree,
                            {k: -v for k, v in self.entries.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return GradedMatrix(self.source, self.target, self.degree,
                            {k: c * v for k, v in self.entries.items()})

    def __matmul__(self, other):
        """self after other: requires other.target == self.source."""
        if other.target != self.source:
            raise ShapeMismatch("composition shape mismatch")
        by_col = {}
        for (t, s), x in self.entries.items():
            by_col.setdefault(s, []).append((t, x))
        ent = {}
        for (m, s), y in other.entries.items():
            for t, x in by_col.get(m, ()):
                key = (t, s)
                prod = x * y
                cur = ent.get(key)
                ent[key] = prod if cur is None else cur + prod
        return GradedMatrix(other.source, self.target, self.degree + other.degree, ent)

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
        return (self.target.name(t), self.source.name(s), self.entries[(t, s)])

    def map_entries(self, fn, new_source, new_target):
        return GradedMatrix(new_source, new_target, self.degree,
                            {k: fn(v) for k, v in self.entries.items()})

    def same_entries_as(self, other):
        """Positional comparison, ignoring generator names."""
        return self.entries == other.entries

    def to_dense(self):
        zero = self.ring.zero()
        return [[self.entries.get((t, s), zero) for s in range(self.source.rank)]
                for t in range(self.target.rank)]

    def named_triples(self):
        return sorted(
            (self.target.name(t), self.source.name(s), x)
            for (t, s), x in self.entries.items()
        )

    def __repr__(self):
        return (f"GradedMatrix({self.source.rank}->{self.target.rank}, deg {self.degree}, "
                f"{len(self.entries)} entries)")


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


class SmithForm:
    """U A V = D for an m x n int matrix A, held sparse: `diag` is the first
    min(m, n) diagonal entries of D, `u` the m rows of U as {column: int}
    dicts and `v` the n columns of V as {row: int} dicts.  Iterating yields
    the dense D, U and V, so `D, U, V = smith_normal_form(rows)`."""

    __slots__ = ("m", "n", "diag", "u", "v")

    def __init__(self, m, n, diag, u, v):
        self.m, self.n, self.diag, self.u, self.v = m, n, diag, u, v

    def __iter__(self):
        m, n = self.m, self.n
        d = [[0] * n for _ in range(m)]
        for i, x in enumerate(self.diag):
            d[i][i] = x
        yield d
        yield [_dense_vector(row, m) for row in self.u]
        v = [[0] * n for _ in range(n)]
        for j, col in enumerate(self.v):
            for k, x in col.items():
                v[k][j] = x
        yield v


def smith_normal_form(rows):
    """Smith normal form of a dense int matrix A (m x n): a `SmithForm` with
    U A V = D, U and V unimodular, D diagonal with nonnegative entries
    satisfying d_i | d_{i+1}.  U A V = D is checked entry by entry before
    returning.

    A is eliminated on sparse rows {column: int}, with U kept as rows and V
    as columns.  Pivot choice is the minimal absolute value with ties broken
    by (row, col), so the transforms are reproducible.  Rows t.. hold no
    column below t while step t runs, so a column operation only visits the
    rows that hold the pivot column.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    cols = range(n)
    a0 = [dict(zip(compress(cols, row), filter(None, row))) for row in rows]
    a = [dict(row) for row in a0]
    u = [{i: 1} for i in range(m)]
    v = [{j: 1} for j in range(n)]
    t = 0
    while t < min(m, n):
        best = pivot = None
        for i in range(t, m):
            row = a[i]
            if row:
                low = min(map(abs, row.values()))
                if best is None or low < best:
                    best, pivot = low, (i, min(j for j, x in row.items() if abs(x) == low))
                    if low == 1:  # no later row can beat a unit
                        break
        if pivot is None:
            break
        pi, pj = pivot
        a[t], a[pi] = a[pi], a[t]
        u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for i in range(t, m):
                row = a[i]
                x, y = row.pop(t, None), row.pop(pj, None)
                if y is not None:
                    row[t] = y
                if x is not None:
                    row[pj] = x
            v[t], v[pj] = v[pj], v[t]
        prow, p = a[t], a[t][t]
        dirty = False
        holders = [t]  # the rows that hold column t once the rows below are reduced
        for i in range(t + 1, m):
            x = a[i].get(t)
            if x:
                q, rem = divmod(x, p)
                _add_multiple(a[i], -q, prow)
                _add_multiple(u[i], -q, u[t])
                if rem:
                    dirty = True
                    holders.append(i)
        for j, x in [(j, x) for j, x in prow.items() if j != t]:
            q, rem = divmod(x, p)
            for i in holders:
                row = a[i]
                y = row.get(j, 0) - q * row[t]
                if y:
                    row[j] = y
                else:
                    del row[j]
            _add_multiple(v[j], -q, v[t])
            if rem:
                dirty = True
        if dirty:  # a remainder is left in row or column t
            continue
        # divisibility: fold the first row below holding a non-multiple into the pivot row
        bad = None
        if abs(p) != 1:
            bad = next((i for i in range(t + 1, m) if any(x % p for x in a[i].values())), None)
        if bad is not None:
            _add_multiple(prow, 1, a[bad])
            _add_multiple(u[t], 1, u[bad])
            continue
        if p < 0:
            prow[t] = -p
            u[t] = {k: -x for k, x in u[t].items()}
        t += 1
    diag = [a[i].get(i, 0) for i in range(min(m, n))]
    d = [{i: x} if x else {} for i, x in enumerate(diag)] + [{} for _ in range(m - len(diag))]
    _check_snf(a0, n, d, u, v)
    return SmithForm(m, n, diag, u, v)


def _check_snf(a, n, d, u, v):
    """Check U A V = D entry by entry, then the order and divisibility of D's
    diagonal.  A (with n columns), D and U are row dicts {column: int}, V is
    n column dicts {row: int}.  The product is formed over nonzero entries
    only; every entry of it is still compared with D."""
    m = len(a)
    if not m:
        return
    if not len(u) == len(d) == m or len(v) != n:
        raise AssertionError("Smith normal form transform check failed: "
                             f"U, A and D have {len(u)}, {m} and {len(d)} rows, "
                             f"V and A have {len(v)} and {n} columns")
    v_rows = [{} for _ in range(n)]
    for j, col in enumerate(v):
        for k, x in col.items():
            if not 0 <= k < n:
                raise AssertionError("Smith normal form transform check failed "
                                     f"at V entry ({k}, {j})")
            if x:
                v_rows[k][j] = x
    for i, (u_row, d_row) in enumerate(zip(u, d)):
        ua = {}
        for k, c in u_row.items():
            if not 0 <= k < m:
                raise AssertionError("Smith normal form transform check failed "
                                     f"at U entry ({i}, {k})")
            if c:
                for j, x in a[k].items():
                    ua[j] = ua.get(j, 0) + c * x
        uav = {}
        for k, c in ua.items():
            if c:
                for j, x in v_rows[k].items():
                    uav[j] = uav.get(j, 0) + c * x
        got = {j: x for j, x in uav.items() if x}
        want = {j: x for j, x in d_row.items() if x}
        if got != want:
            j = min(j for j in got.keys() | want.keys() if got.get(j) != want.get(j))
            raise AssertionError("Smith normal form transform check failed "
                                 f"at entry ({i}, {j})")
    diag = [d[i].get(i, 0) for i in range(min(m, n))]
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("Smith normal form ordering failed")
        if x != 0 and y % x != 0:
            raise AssertionError("Smith normal form divisibility failed")


def _dense_vector(vec, size):
    out = [0] * size
    for k, x in vec.items():
        out[k] = x
    return out


def snf_diagonal(rows):
    return smith_normal_form(rows).diag


def int_kernel_basis(rows, ncols=None):
    """Basis (list of int column vectors) of ker over Z; saturated lattice."""
    m = len(rows)
    n = len(rows[0]) if m else (ncols or 0)
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    snf = smith_normal_form(rows)
    return [_dense_vector(col, n) for j, col in enumerate(snf.v)
            if j >= len(snf.diag) or snf.diag[j] == 0]


def int_solve(rows, rhs):
    """One integer solution x of A x = rhs, or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [0] * n
    snf = smith_normal_form(rows)
    diag, v = snf.diag, snf.v
    x = [0] * n
    for i, u_row in enumerate(snf.u):
        c = sum(y * rhs[k] for k, y in u_row.items())
        di = diag[i] if i < len(diag) else 0
        if c and (di == 0 or c % di):
            return None
        if c:  # y_i = c / d_i, and x = V y
            for k, z in v[i].items():
                x[k] += c // di * z
    return x


def int_column_lattice_basis(rows):
    """Basis of the column lattice of A, as columns: A v_j for the columns
    v_j of V with d_j != 0."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0 or n == 0:
        return []
    snf = smith_normal_form(rows)
    return [[sum(row[k] * x for k, x in snf.v[j].items()) for row in rows]
            for j, dj in enumerate(snf.diag) if dj]


def _cols_to_rows(cols):
    if not cols:
        return []
    return [[c[i] for c in cols] for i in range(len(cols[0]))]


# ---------------------------------------------------------------------------
# Dense linear algebra over a field (Q, Z/p, Q(T)).


def field_rref(rows, ring):
    """Reduced row echelon form; returns (rref rows, pivot column list).

    Eliminates on sparse rows {column: nonzero entry}: only the pivot row's
    nonzero entries are scaled, and a row is updated only if its pivot-column
    entry is nonzero, at the pivot row's nonzero columns.  Canonical forms make
    x - f*0 == x and 0*inv == 0, so the result equals the dense elimination's.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    zero = ring.zero()
    zv = zero.val  # canonical, so x is zero exactly when x.val == zv
    a = [{c: x for c, x in enumerate(row) if x.val != zv} for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        for pr in range(r, m):
            if c in a[pr]:
                break
        else:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c].inverse()
        prow = a[r] = {k: x * inv for k, x in a[r].items()}
        for i in range(m):
            row = a[i]
            if i == r or c not in row:
                continue
            f = -row[c]
            for k, y in prow.items():
                x = row.get(k)
                x = f * y if x is None else x + f * y
                if x.val == zv:
                    del row[k]
                else:
                    row[k] = x
        pivots.append(c)
        r += 1
        if r == m:
            break
    out = []
    for row in a:
        dense = [zero] * n
        for k, x in row.items():
            dense[k] = x
        out.append(dense)
    return out, pivots


def field_rank(rows, ring):
    _, piv = field_rref(rows, ring)
    return len(piv)


def field_kernel_basis(rows, ring, ncols=None):
    m = len(rows)
    n = len(rows[0]) if m else (ncols or 0)
    if n == 0:
        return []
    if m == 0:
        one, zero = ring.one(), ring.zero()
        return [[one if i == j else zero for i in range(n)] for j in range(n)]
    rr, piv = field_rref(rows, ring)
    pivset = set(piv)
    free = [c for c in range(n) if c not in pivset]
    zero, one = ring.zero(), ring.one()
    basis = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(piv):
            x = rr[r][fc]
            if not x.is_zero:  # v is already zero there
                v[pc] = -x
        basis.append(v)
    return basis


def field_solve(rows, rhs, ring):
    """One solution of A x = rhs over the field, or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    rr, piv = field_rref(aug, ring)
    if n in piv:
        return None
    x = [ring.zero()] * n
    for r, pc in enumerate(piv):
        x[pc] = rr[r][n]
    return x


def field_column_space_basis(cols, ring):
    """Subset of (echelonized) columns spanning the column space."""
    if not cols:
        return []
    rr, piv = field_rref([[c[i] for c in cols] for i in range(len(cols[0]))], ring)
    return [cols[j] for j in piv]


# ---------------------------------------------------------------------------
# Exact linear algebra over Z or a field.  This is the one place that decides
# between the two: over Z dense values are ints and elimination is the Smith
# normal form; over a field they are RingElements and elimination is
# field_rref.  Callers combine dense values with + and * only.


def dense_zero(ring):
    return 0 if ring == Z else ring.zero()


def dense_value(x):
    """The dense value of one ring element."""
    return x.val if x.ring == Z else x


def element(ring, value):
    """The ring element of one dense value."""
    return Z.from_int(value) if ring == Z else value


def coeffs(m):
    """m's nonzero entries as {(target, source): dense value}; read only."""
    if m.ring == Z:
        return {k: x.val for k, x in m.entries.items()}
    return m.entries


def dense_rows(m):
    zero = dense_zero(m.ring)
    rows = [[zero] * m.source.rank for _ in range(m.target.rank)]
    for (t, s), x in coeffs(m).items():
        rows[t][s] = x
    return rows


def dense_cols(m):
    zero = dense_zero(m.ring)
    cols = [[zero] * m.target.rank for _ in range(m.source.rank)]
    for (t, s), x in coeffs(m).items():
        cols[s][t] = x
    return cols


def _image_cols(m):
    """The nonzero columns of m, which span its image."""
    cols = dense_cols(m)
    return [cols[s] for s in sorted({s for _, s in m.entries})]


def apply(m, vecs):
    """m applied to each dense vector of `vecs`."""
    zero = dense_zero(m.ring)
    ent = list(coeffs(m).items())
    out = []
    for vec in vecs:
        col = [zero] * m.target.rank
        for (t, s), x in ent:
            col[t] = col[t] + x * vec[s]
        out.append(col)
    return out


def kernel_basis(rows, ncols, ring):
    """Basis of the kernel of a dense matrix with `ncols` columns (a saturated
    lattice over Z)."""
    if ring == Z:
        return int_kernel_basis(rows, ncols=ncols)
    return field_kernel_basis(rows, ring, ncols=ncols)


def solve_linear(rows, rhs, ncols, ring):
    """One solution x of rows . x = rhs with `ncols` unknowns, or None."""
    if not rows:
        return [dense_zero(ring)] * ncols
    if ring == Z:
        return int_solve(rows, rhs)
    return field_solve(rows, rhs, ring)


def column_basis(cols, ring):
    """Basis of the lattice (over Z) or the space spanned by dense columns."""
    if not cols:
        return []
    if ring == Z:
        return int_column_lattice_basis(_cols_to_rows(cols))
    return field_column_space_basis(cols, ring)


def span_contains(basis_cols, vec, ring):
    rows = [[col[i] for col in basis_cols] for i in range(len(vec))]
    return solve_linear(rows, vec, len(basis_cols), ring) is not None


def spans_equal(cols_a, cols_b, ring):
    """Whether two sets of dense columns span the same lattice or space."""
    ba, bb = column_basis(cols_a, ring), column_basis(cols_b, ring)
    return (all(span_contains(bb, v, ring) for v in ba)
            and all(span_contains(ba, v, ring) for v in bb))


def is_invertible(m):
    """Whether m is square and invertible over its own ring.

    Over Z[T^{+-1}] that means invertible over Q(T) with an inverse whose
    entries are Laurent polynomials, i.e. have denominator 1.
    """
    n = m.source.rank
    if m.target.rank != n:
        return False
    ring = m.ring
    if ring == Z:
        return all(x == 1 for x in snf_diagonal(dense_rows(m)))
    if ring == LAURENT_Z:
        to_frac = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q)
        zero, one = FRAC_LAURENT_Q.zero(), FRAC_LAURENT_Q.one()
        aug = [[to_frac(x) for x in row] + [one if j == i else zero for j in range(n)]
               for i, row in enumerate(dense_rows(m))]
        rr, piv = field_rref(aug, FRAC_LAURENT_Q)
        return piv == list(range(n)) and all(x.val[1] == LAU_ONE for row in rr for x in row[n:])
    return field_rank(dense_rows(m), ring) == n


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


def _check_ring_for_homology(ring):
    if ring != Z and not ring.is_field:
        raise UnsupportedRingForHomology(
            f"homology over {ring!r} is refused; base-change to Z or a field first"
        )


def homology_of_pair(d_in, d_out):
    """ker(d_out)/im(d_in) per degree of the middle module.

    Requires d_out . d_in = 0 and coefficients Z or a field.  Over Z, torsion
    is extracted with the Smith normal form.
    """
    if d_in.target != d_out.source:
        raise ShapeMismatch("middle modules disagree")
    ring = d_in.ring
    _check_ring_for_homology(ring)
    if not (d_out @ d_in).is_zero:
        raise NotAComplex("d_out . d_in != 0")
    mid = d_in.target
    zero = dense_zero(ring)
    out_c, in_c = coeffs(d_out), coeffs(d_in)
    table = {}
    for k in mid.degrees_present():
        cols = mid.indices_of_degree(k)
        at = {s: j for j, s in enumerate(cols)}
        a_out = [[zero] * len(cols) for _ in range(d_out.target.rank)]
        for (t, s), x in out_c.items():
            if s in at:
                a_out[t][at[s]] = x
        img = {}
        for (t, s), x in in_c.items():
            if t in at:
                img.setdefault(s, [zero] * len(cols))[at[t]] = x
        img_cols = [img[s] for s in sorted(img)]
        if ring == Z:
            free, tor = _z_subquotient(kernel_basis(a_out, len(cols), ring), img_cols)
        else:
            img_rank = field_rank(_cols_to_rows(img_cols), ring) if img_cols else 0
            free, tor = len(cols) - field_rank(a_out, ring) - img_rank, ()
        if free or tor:
            table[k] = (free, tor)
    return GradedHomology(mid.modulus, table)


def _z_subquotient(kernel_basis, image_cols):
    """Z^k-basis `kernel_basis` modulo the lattice spanned by image_cols."""
    r = len(kernel_basis)
    if r == 0:
        return 0, ()
    n = len(kernel_basis[0])
    k_rows = [[kernel_basis[j][i] for j in range(r)] for i in range(n)]
    coords = []
    for col in image_cols:
        x = int_solve(k_rows, col)
        if x is None:
            raise NotAComplex("image does not lie in the kernel over Z")
        coords.append(x)
    if not coords:
        return r, ()
    m_rows = [[coords[j][i] for j in range(len(coords))] for i in range(r)]
    diag = snf_diagonal(m_rows)
    nonzero = [d for d in diag if d != 0]
    tor = tuple(d for d in nonzero if d > 1)
    return r - len(nonzero), tor


def exactness_at(d_prev, f, g, d_next, d_mid):
    """Whether im(H(f)) = ker(H(g)) at the middle homology of a three-term
    piece  A --f--> B --g--> C  of chain complexes with differentials
    d_prev (on A), d_mid (on B), d_next (on C).

    Works over Z (lattice equality) and over fields (span equality).
    """
    ring = f.ring
    _check_ring_for_homology(ring)
    nb = d_mid.source.rank
    zero = dense_zero(ring)
    # L1 = { z in ker d_mid : g z in im d_next }
    nc_src = d_next.source.rank
    stacked = [row + [zero] * nc_src for row in dense_rows(d_mid)]
    stacked += [row + [-x for x in nrow]
                for row, nrow in zip(dense_rows(g), dense_rows(d_next))]
    l1_cols = [v[:nb] for v in kernel_basis(stacked, nb + nc_src, ring)]
    # L2 = f(ker d_prev) + im(d_mid)
    ka = kernel_basis(dense_rows(d_prev), d_prev.source.rank, ring)
    l2_cols = apply(f, ka) + _image_cols(d_mid)
    return spans_equal(l1_cols, l2_cols, ring)


# ---------------------------------------------------------------------------
# Induced maps of chain maps on homology, over a field or (free part) over Z.


class HomologyMaps:
    """Induced maps on H(B, d) for chain maps into/out of the complex.

    Over a field this is the honest induced map in a chosen homology basis.
    Over Z it is the map on the free part, read over Q: the representatives
    are integer cycles, independent over Q modulo boundaries, and class
    coordinates are rational.
    """

    def __init__(self, d_mid):
        ring = d_mid.ring
        _check_ring_for_homology(ring)
        self.ring = ring
        self.module = d_mid.source
        self.field = Q if ring == Z else ring
        kern = kernel_basis(dense_rows(d_mid), d_mid.source.rank, ring)
        # boundaries live in the same module only when d is an endomorphism
        img = _image_cols(d_mid) if d_mid.target == self.module else []
        self.boundaries = field_column_space_basis([self._over_field(c) for c in img],
                                                   self.field)
        self.reps = []
        self._field_reps = []
        for v in kern:
            fv = self._over_field(v)
            if not span_contains(self.boundaries + self._field_reps, fv, self.field):
                self.reps.append(v)
                self._field_reps.append(fv)

    def _over_field(self, vec):
        return [Q.from_int(x) for x in vec] if self.ring == Z else vec

    @property
    def rank(self):
        return len(self.reps)

    def class_coords(self, vec):
        """Coordinates of a cycle's class in the chosen representative basis,
        over the field (over Q for Z)."""
        cols = self.boundaries + self._field_reps
        fvec = self._over_field(vec)
        rows = [[c[i] for c in cols] for i in range(len(fvec))]
        sol = field_solve(rows, fvec, self.field)
        if sol is None:
            raise NotAComplex("vector is not a cycle class")
        return sol[len(self.boundaries):]
