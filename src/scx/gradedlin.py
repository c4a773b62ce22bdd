"""Graded free modules, sparse homogeneous matrices, Smith normal form and
homology of two-step complexes over Z or a field."""

from __future__ import annotations

from .errors import (
    NotAComplex,
    RingMismatch,
    SchemaError,
    ShapeMismatch,
    UnsupportedRingForHomology,
)
from .rings import Z


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

    def indices_of_degree(self, k):
        k %= self.modulus
        return [i for i, (_, d) in enumerate(self.gens) if d == k]

    def degrees_present(self):
        return sorted({d for _, d in self.gens})

    def shift(self, k, rename=None):
        """Degree shift: generator of degree a moves to a + k (displayed)."""
        rn = rename or (lambda n: n)
        return GradedModule(self.ring, self.modulus, [(rn(n), d + k) for n, d in self.gens])

    def renamed(self, fn):
        return GradedModule(self.ring, self.modulus, [(fn(n), d) for n, d in self.gens])

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


def direct_sum_modules(parts, prefixes):
    """Concatenate modules, renaming each part's generators with its prefix."""
    ring, modulus = parts[0].ring, parts[0].modulus
    gens = []
    for part, pre in zip(parts, prefixes):
        if part.ring != ring:
            raise RingMismatch("direct sum over mixed rings")
        if part.modulus != modulus:
            raise ShapeMismatch("direct sum over mixed moduli")
        gens.extend((pre + n, d) for n, d in part.gens)
    return GradedModule(ring, modulus, gens)


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
        return cls(source, target, degree, {k: v for k, v in ent.items() if not v.is_zero})

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
        return GradedMatrix(self.source, self.target, deg, {k: v for k, v in ent.items() if not v.is_zero})

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
        return GradedMatrix(other.source, self.target, self.degree + other.degree,
                            {k: v for k, v in ent.items() if not v.is_zero})

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

    def to_int_rows(self):
        if self.ring != Z:
            raise UnsupportedRingForHomology("integer matrix expected")
        return [[self.entries.get((t, s), Z.zero()).val for s in range(self.source.rank)]
                for t in range(self.target.rank)]

    def named_triples(self):
        return sorted(
            (self.target.name(t), self.source.name(s), x)
            for (t, s), x in self.entries.items()
        )

    def __repr__(self):
        return (f"GradedMatrix({self.source.rank}->{self.target.rank}, deg {self.degree}, "
                f"{len(self.entries)} entries)")


def matrix_compose(a, b):
    """Exact product a . b (b first); degrees add mod the modulus."""
    return a @ b


def place_block(entries, sub, row_offset, col_offset, coeff_fn=None):
    """Copy sub's entries into a dict at the given offsets, scaling via coeff_fn."""
    for (t, s), x in sub.entries.items():
        v = x if coeff_fn is None else coeff_fn(t, s, x)
        if v is None or v.is_zero:
            continue
        key = (t + row_offset, s + col_offset)
        cur = entries.get(key)
        entries[key] = v if cur is None else cur + v
    return entries


# ---------------------------------------------------------------------------
# Smith normal form over Z, with unimodular transforms.


def smith_normal_form(rows):
    """Return (D, U, V) with U*A*V = D, U, V unimodular, D diagonal with
    nonnegative entries satisfying d_i | d_{i+1}.

    `rows` is a dense list of int lists.  Pivot choice is the minimal
    absolute value with ties broken by (row, col), so transforms are
    reproducible.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] % a[t][t] != 0:
                dirty = True
            if a[i][t]:
                row_op(i, t, a[i][t] // a[t][t])
        for j in range(t + 1, n):
            if a[t][j] % a[t][t] != 0:
                dirty = True
            if a[t][j]:
                col_op(j, t, a[t][j] // a[t][t])
        if dirty and (any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, n))):
            continue
        # divisibility: fold any non-multiple below-right into the pivot row
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            row_op(t, bad, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    _check_snf(rows, d, u, v)
    return d, u, v


def _mat_mul_int(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    n = len(b)
    p = len(b[0])
    return [[sum(r[k] * b[k][j] for k in range(n)) for j in range(p)] for r in a]


def _check_snf(a, d, u, v):
    """Check U A V = D entry by entry, then the order and divisibility of D's
    diagonal.  The product is formed over the nonzero entries of A and V
    only; every entry of it is still compared with D."""
    if not a:
        return
    n = len(a[0])
    if not len(u) == len(d) == len(a):
        raise AssertionError("Smith normal form transform check failed: "
                             f"U, A and D have {len(u)}, {len(a)} and {len(d)} rows")
    a_nz = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    v_nz = [[(j, x) for j, x in enumerate(row) if x] for row in v]
    for i, (u_row, d_row) in enumerate(zip(u, d)):
        ua = [0] * n
        for k, c in enumerate(u_row):
            if c:
                for j, x in a_nz[k]:
                    ua[j] += c * x
        uav = [0] * n
        for k, c in enumerate(ua):
            if c:
                for j, x in v_nz[k]:
                    uav[j] += c * x
        if uav != d_row:
            j = next((j for j, (x, y) in enumerate(zip(uav, d_row)) if x != y),
                     min(len(uav), len(d_row)))
            raise AssertionError("Smith normal form transform check failed "
                                 f"at entry ({i}, {j})")
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for x, y in zip(diag, diag[1:]):
        if x == 0 and y != 0:
            raise AssertionError("Smith normal form ordering failed")
        if x != 0 and y % x != 0:
            raise AssertionError("Smith normal form divisibility failed")


def snf_diagonal(rows):
    d, _, _ = smith_normal_form(rows)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def int_rank(rows):
    return sum(1 for x in snf_diagonal(rows) if x != 0)


def int_kernel_basis(rows, ncols=None):
    """Basis (list of int column vectors) of ker over Z; saturated lattice."""
    m = len(rows)
    n = len(rows[0]) if m else (ncols or 0)
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    d, _, v = smith_normal_form(rows)
    diag = [d[i][i] for i in range(min(m, n))]
    cols = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
    return [[v[i][j] for i in range(n)] for j in cols]


def int_solve(rows, rhs):
    """One integer solution x of A x = rhs, or None."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [0] * n
    d, u, v = smith_normal_form(rows)
    c = [sum(u[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    r = min(m, n)
    for i in range(m):
        di = d[i][i] if i < r else 0
        if di == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % di != 0:
                return None
            y[i] = c[i] // di
    return [sum(v[i][k] * y[k] for k in range(n)) for i in range(n)]


def int_column_lattice_basis(rows):
    """Basis of the column lattice of A, as columns (via A*V on nonzero d_i)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0 or n == 0:
        return []
    d, _, v = smith_normal_form(rows)
    av = _mat_mul_int(rows, v)
    out = []
    for j in range(min(m, n)):
        if d[j][j] != 0:
            out.append([av[i][j] for i in range(m)])
    return out


def int_lattice_contains(basis_cols, vec):
    if not basis_cols:
        return all(x == 0 for x in vec)
    rows = [[col[i] for col in basis_cols] for i in range(len(vec))]
    return int_solve(rows, list(vec)) is not None


def int_lattices_equal(cols_a, cols_b):
    ba = int_column_lattice_basis(_cols_to_rows(cols_a)) if cols_a else []
    bb = int_column_lattice_basis(_cols_to_rows(cols_b)) if cols_b else []
    return all(int_lattice_contains(bb, v) for v in ba) and all(
        int_lattice_contains(ba, v) for v in bb
    )


def _cols_to_rows(cols):
    if not cols:
        return []
    return [[c[i] for c in cols] for i in range(len(cols[0]))]


# ---------------------------------------------------------------------------
# Dense linear algebra over a field (Q, Z/p, Q(T)).


def field_rref(rows, ring):
    """Reduced row echelon form; returns (rref rows, pivot column list)."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if not a[i][c].is_zero:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and not a[i][c].is_zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


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
    free = [c for c in range(n) if c not in piv]
    zero, one = ring.zero(), ring.one()
    basis = []
    for fc in free:
        v = [zero] * n
        v[fc] = one
        for r, pc in enumerate(piv):
            v[pc] = -rr[r][fc]
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


def field_is_invertible(rows, ring):
    m = len(rows)
    if m != (len(rows[0]) if m else 0):
        return False
    return field_rank(rows, ring) == m


def field_span_contains(basis_cols, vec, ring):
    if not basis_cols:
        return all(x.is_zero for x in vec)
    rows = [[col[i] for col in basis_cols] for i in range(len(vec))]
    return field_solve(rows, list(vec), ring) is not None


def field_column_space_basis(cols, ring):
    """Subset of (echelonized) columns spanning the column space."""
    if not cols:
        return []
    rr, piv = field_rref([[c[i] for c in cols] for i in range(len(cols[0]))], ring)
    return [cols[j] for j in piv]


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

    @property
    def has_torsion(self):
        return any(t for _, t in self.table.values())

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
    table = {}
    for k in mid.degrees_present():
        cols = mid.indices_of_degree(k)
        if not cols:
            continue
        out_rows = range(d_out.target.rank)
        if ring == Z:
            a_out = [[d_out.entry(t, s).val for s in cols] for t in out_rows]
            kern = int_kernel_basis(a_out, ncols=len(cols))
            img_cols = []
            for s in range(d_in.source.rank):
                col = [d_in.entry(t, s).val for t in cols]
                if any(col):
                    img_cols.append(col)
            free, tor = _z_subquotient(kern, img_cols)
        else:
            a_out = [[d_out.entry(t, s) for s in cols] for t in out_rows]
            kern_rank = len(cols) - field_rank(a_out, ring)
            img_cols = [[d_in.entry(t, s) for t in cols] for s in range(d_in.source.rank)]
            img_rows = [[img_cols[j][i] for j in range(len(img_cols))] for i in range(len(cols))]
            img_rank = field_rank(img_rows, ring) if img_cols else 0
            free, tor = kern_rank - img_rank, ()
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
    if ring == Z:
        # L1 = { z in ker d_mid : g z in im d_next }
        gz = _int_rows(g)
        dn = _int_rows(d_next)
        stacked = []
        nc_src = d_next.source.rank
        for i in range(d_mid.target.rank):
            stacked.append([d_mid.entry(i, s).val for s in range(nb)] + [0] * nc_src)
        for i in range(g.target.rank):
            stacked.append([gz[i][s] for s in range(nb)] + [-dn[i][w] for w in range(nc_src)])
        l1_cols = [v[:nb] for v in int_kernel_basis(stacked, ncols=nb + nc_src)]
        # L2 = f(ker d_prev) + im(d_mid)
        ka = int_kernel_basis(_int_rows(d_prev), ncols=d_prev.source.rank)
        fr = _int_rows(f)
        l2_cols = [[sum(fr[i][j] * vec[j] for j in range(len(vec))) for i in range(nb)] for vec in ka]
        for s in range(d_mid.source.rank):
            col = [d_mid.entry(t, s).val for t in range(nb)]
            if any(col):
                l2_cols.append(col)
        return int_lattices_equal(l1_cols, l2_cols)
    zero = ring.zero()
    stacked = []
    nc_src = d_next.source.rank
    for i in range(d_mid.target.rank):
        stacked.append([d_mid.entry(i, s) for s in range(nb)] + [zero] * nc_src)
    for i in range(g.target.rank):
        stacked.append([g.entry(i, s) for s in range(nb)]
                       + [-d_next.entry(i, w) for w in range(nc_src)])
    l1_cols = [v[:nb] for v in field_kernel_basis(stacked, ring, ncols=nb + nc_src)]
    ka = field_kernel_basis(_dense(d_prev), ring, ncols=d_prev.source.rank)
    l2_cols = []
    for vec in ka:
        col = [zero] * nb
        for (t, s), x in f.entries.items():
            col[t] = col[t] + x * vec[s]
        l2_cols.append(col)
    for s in range(d_mid.source.rank):
        col = [d_mid.entry(t, s) for t in range(nb)]
        if any(not x.is_zero for x in col):
            l2_cols.append(col)
    b1 = field_column_space_basis(l1_cols, ring)
    b2 = field_column_space_basis(l2_cols, ring)
    return all(field_span_contains(b2, v, ring) for v in b1) and all(
        field_span_contains(b1, v, ring) for v in b2
    )


def _int_rows(m):
    return [[m.entry(t, s).val for s in range(m.source.rank)] for t in range(m.target.rank)]


def _dense(m):
    return m.to_dense()


# ---------------------------------------------------------------------------
# Induced maps of chain maps on homology, over a field or (free part) over Z.


class HomologyMaps:
    """Induced maps on H(B, d) for chain maps into/out of the complex.

    Over a field this is the honest induced map in a chosen homology basis.
    Over Z a presentation of the free part is used; torsion is reported but
    the induced matrix is on free generators only.
    """

    def __init__(self, d_mid):
        ring = d_mid.ring
        _check_ring_for_homology(ring)
        self.ring = ring
        self.d = d_mid
        self.module = d_mid.source
        if ring == Z:
            self._init_z()
        else:
            self._init_field()

    def _init_field(self):
        ring = self.ring
        rows = self.d.to_dense()
        kern = field_kernel_basis(rows, ring, ncols=self.d.source.rank)
        # boundaries live in the same module only when d is an endomorphism
        img = []
        if self.d.target == self.module:
            for s in range(self.d.source.rank):
                col = [self.d.entry(t, s) for t in range(self.module.rank)]
                if any(not x.is_zero for x in col):
                    img.append(col)
        bnd = field_column_space_basis(img, self.ring)
        reps = []
        for v in kern:
            if not field_span_contains(bnd + reps, v, self.ring):
                reps.append(v)
        self.boundaries = bnd
        self.reps = reps

    def _init_z(self):
        rows = _int_rows(self.d)
        kern = int_kernel_basis(rows, ncols=self.d.source.rank)
        img = []
        if self.d.target == self.module:
            for s in range(self.d.source.rank):
                col = [self.d.entry(t, s).val for t in range(self.module.rank)]
                if any(col):
                    img.append(col)
        self.kernel = kern
        self.image = img
        # free-part representatives over Q
        from .rings import Q as QQ
        qv = lambda v: [QQ.from_int(x) for x in v]
        bnd = field_column_space_basis([qv(c) for c in img], QQ)
        reps = []
        for v in kern:
            if not field_span_contains(bnd + reps, qv(v), QQ):
                reps.append(v)
        self._q_bnd = bnd
        self.reps = reps

    @property
    def rank(self):
        return len(self.reps)

    def class_coords(self, vec):
        """Coordinates of a cycle's class in the chosen representative basis."""
        if self.ring == Z:
            from .rings import Q as QQ
            qvec = [QQ.from_int(x) for x in vec]
            cols = self._q_bnd + [[QQ.from_int(x) for x in r] for r in self.reps]
            rows = [[c[i] for c in cols] for i in range(len(qvec))]
            sol = field_solve(rows, qvec, QQ)
            if sol is None:
                raise NotAComplex("vector is not a cycle class")
            return sol[len(self._q_bnd):]
        cols = self.boundaries + self.reps
        rows = [[c[i] for c in cols] for i in range(len(vec))]
        sol = field_solve(rows, list(vec), self.ring)
        if sol is None:
            raise NotAComplex("vector is not a cycle class")
        return sol[len(self.boundaries):]

    def induced_from(self, chain_map, source_hm):
        """Matrix (list of coordinate columns) of the induced map H(src)->H(self)."""
        cols = []
        for rep in source_hm.reps:
            if self.ring == Z:
                img = [0] * self.module.rank
                for (t, s), x in chain_map.entries.items():
                    img[t] += x.val * rep[s]
            else:
                img = [self.ring.zero()] * self.module.rank
                for (t, s), x in chain_map.entries.items():
                    img[t] = img[t] + x * rep[s]
            cols.append(self.class_coords(img))
        return cols
